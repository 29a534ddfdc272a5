"""README's "What's inside" table names every module of the package, and
every call it shows in a code span names something the package has."""

import importlib
import inspect
import re
from pathlib import Path

import slowmo_sim

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
