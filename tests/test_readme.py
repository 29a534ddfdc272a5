"""README's "What's inside" table names every module of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_module_table_has_a_row_for_every_module():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE))
    modules = {p.stem for p in (ROOT / "src" / "slowmo_sim").glob("*.py")} - {"__init__"}
    assert not modules - rows, f"no row for {sorted(modules - rows)}"
