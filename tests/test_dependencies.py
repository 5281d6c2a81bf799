"""The package imports nothing outside the standard library, and its own
modules import each other at module level without a cycle."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stuquandle"


def _trees():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in modules}


def test_only_stdlib_and_own_imports():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for imported in names:
                top = imported.split(".")[0]
                assert top in sys.stdlib_module_names or top == "stuquandle", (name, imported)


def test_imports_are_at_module_level():
    for name, tree in _trees().items():
        top_level = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert id(node) in top_level, (name, node.lineno)


def _internal_imports(tree) -> set[str]:
    """Sibling modules a module imports through `from . import m` or
    `from .m import ...`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_internal_import_graph_is_acyclic():
    graph = {name: _internal_imports(tree) - {name} for name, tree in _trees().items()}
    done, active = set(), []

    def visit(name):
        assert name not in active, " -> ".join(active[active.index(name):] + [name])
        if name in done:
            return
        active.append(name)
        for dep in sorted(graph.get(name, ())):
            visit(dep)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
