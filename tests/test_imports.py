"""No module-level import goes unused in the package or the tests, and no
module-level function or class of the package goes unused.

A name counts as used when the module reads it anywhere, lists it in
``__all__``, or when ``(module, name)`` is a site the benchmark tracer
(perfbench/bench_trace.py) wraps: ``simkernel`` imports some names only so
that the tracer can patch them where the kernel would look them up.

A function or class counts as used when some package module reads its name
(bare or as an attribute) or ``__init__.py`` exports it.
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


PACKAGE = sorted((ROOT / "src" / "slowmo_sim").glob("*.py"))


def _exported_names() -> set[str]:
    tree = ast.parse((ROOT / "src" / "slowmo_sim" / "__init__.py").read_text())
    return {name for name, _ in _imported_names(tree)}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, bare or as an attribute (``numerics.rank_sum``)."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_module_level_function_and_class_is_used():
    # a helper whose last caller was deleted fails here instead of lingering
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    used = _exported_names().union(*map(_referenced_names, trees.values()))
    orphans = [
        f"{path.stem}.{node.name} (line {node.lineno})"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not orphans, f"defined in src/slowmo_sim but never used: {', '.join(orphans)}"
