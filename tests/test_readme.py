"""README's "What's inside" table names every module of the package, every
call it shows in a code span names something the package has, and its table
of the files ``run`` writes is what a run writes."""

import importlib
import inspect
import os
import re
from pathlib import Path

import slowmo_sim
from slowmo_sim import parse_config, run_experiment
from slowmo_sim.harness import FORMATS

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "slowmo_sim").glob("*.py")} - {"__init__"}


def test_module_table_has_a_row_for_every_module():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE))
    assert not MODULES - rows, f"no row for {sorted(MODULES - rows)}"


def test_every_call_in_a_code_span_names_a_package_attribute():
    # a function, class or method the README still calls after its deletion fails here
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.DOTALL)
    called = {name for span in re.findall(r"`([^`]+)`", prose)
              for name in re.findall(r"(\w+)\(", span)}
    modules = [slowmo_sim] + [importlib.import_module(f"slowmo_sim.{name}") for name in MODULES]
    classes = [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)]
    unknown = sorted(name for name in called
                     if not any(hasattr(owner, name) for owner in modules + classes))
    assert called and not unknown, f"README calls what slowmo_sim does not have: {unknown}"


def test_files_table_is_what_run_writes(tmp_path):
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| file | written for `--format` | holds |", 1)[1].split("\n\n", 1)[0]
    listed = {fmt: set() for fmt in FORMATS}
    for name, formats in re.findall(r"^\| `([\w.]+)` \| ([\w, ]+) \|", table, re.MULTILINE):
        for fmt in formats.split(", "):
            listed[fmt].add(name)
    cfg = parse_config({"problem": {"m": 2, "dimension": 3}, "T": 1})
    for fmt in FORMATS:
        run_experiment(cfg, str(tmp_path / fmt), fmt)
        assert set(os.listdir(tmp_path / fmt)) == listed[fmt], fmt
