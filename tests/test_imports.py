"""No module-level import goes unused in the package or the tests, and no
module-level function, class or upper-case constant of the package goes
unused.

A name counts as used when the module reads it anywhere, lists it in
``__all__``, or when ``(module, name)`` is a site the benchmark tracer
(perfbench/bench_trace.py) wraps: ``simkernel`` imports some names only so
that the tracer can patch them where the kernel would look them up.

A function, class or constant counts as used when some package module
reads its name (bare or as an attribute) or ``__init__.py`` exports it; a
name only the tests read is not used.
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
    """Names a module reads, bare or as an attribute (``numerics.group_sums``);
    a name that is only assigned to is not read."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _functions_and_classes(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def _constants(tree: ast.Module):
    """Upper-case names bound by a module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node.lineno


def _package_orphans(definitions) -> str:
    """The ``definitions(tree)`` of each package module that no package
    module reads and ``__init__.py`` does not export."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    used = _exported_names().union(*map(_referenced_names, trees.values()))
    return ", ".join(f"{path.stem}.{name} (line {line})"
                     for path, tree in trees.items()
                     for name, line in definitions(tree) if name not in used)


def test_every_module_level_function_and_class_is_used():
    # a helper whose last caller was deleted fails here instead of lingering
    orphans = _package_orphans(_functions_and_classes)
    assert not orphans, f"defined in src/slowmo_sim but never used: {orphans}"


def test_every_module_level_constant_is_used():
    # likewise a constant that only the tests still read
    orphans = _package_orphans(_constants)
    assert not orphans, f"set in src/slowmo_sim but never read there: {orphans}"
