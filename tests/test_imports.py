"""No module-level import goes unused in the package or the tests.

A name counts as used when the module reads it anywhere, lists it in
``__all__``, or when ``(module, name)`` is a site the benchmark tracer
(perfbench/bench_trace.py) wraps: ``simkernel`` imports some names only so
that the tracer can patch them where the kernel would look them up.
"""

import ast
from pathlib import Path

import pytest

from test_trace_contract import bench_trace

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "slowmo_sim").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)
TRACED = {site for b in bench_trace.BOUNDARIES for site in b.sites}


def _module_name(path: Path) -> str:
    return f"{path.parent.name}.{path.stem}"


def _imported_names(tree: ast.Module):
    """(bound name, line) of each top-level import, ``from __future__`` excepted."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    module = _module_name(path)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used and (module, name) not in TRACED]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"
