"""No dead code at module level: every function and class that a module of
`flagless` defines is referenced somewhere in the package or the benchmark,
outside its own definition.

A reference is a name, an attribute, an imported name, or a string equal to
the name (the traced benchmark looks names up as strings).  Tests do not
count: a name that only tests use belongs in the tests.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "flagless"
BENCH = REPO / "bench"


def _referenced_names(tree: ast.AST):
    """(name, line) of every reference in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_module_level_definition_is_referenced():
    definitions = []
    references: dict[str, list[tuple[Path, int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.parent == PACKAGE:
            definitions += [
                (path, node)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
        for name, line in _referenced_names(tree):
            references.setdefault(name, []).append((path, line))
    assert definitions
    dead = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in definitions
        if not any(
            where != path or not node.lineno <= line <= node.end_lineno
            for where, line in references.get(node.name, ())
        )
    ]
    assert dead == []
