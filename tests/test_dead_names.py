"""No dead code: every function and class that a module of `flagless`
defines, and every method of such a class, is referenced somewhere in the
package or the benchmark, outside its own definition.

A reference is a name, an attribute, an imported name, or a string equal to
the name (the traced benchmark looks names up as strings).  Tests do not
count: a name that only tests use belongs in the tests.  Two kinds of
method need no reference: dunders, which the language calls, and a method
that overrides one a base class defines, which the base's code calls
(`socketserver`'s `handle`, say).

Likewise every name a module imports outside its functions and classes is
read in that module, or listed in its `__all__`.
"""

import ast
import importlib
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "flagless"
BENCH = REPO / "bench"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _package_modules():
    """(path, syntax tree) of each module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _dead(definitions: list[tuple[Path, ast.AST]]) -> list[str]:
    """The definitions that nothing references outside themselves."""
    references: dict[str, list[tuple[Path, int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for name, line in _referenced_names(ast.parse(path.read_text(), str(path))):
            references.setdefault(name, []).append((path, line))
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in definitions
        if not any(
            where != path or not node.lineno <= line <= node.end_lineno
            for where, line in references.get(node.name, ())
        )
    ]


def test_every_module_level_definition_is_referenced():
    definitions = [
        (path, node)
        for path, tree in _package_modules()
        for node in tree.body
        if isinstance(node, _DEFINITIONS)
    ]
    assert definitions
    assert _dead(definitions) == []


def test_every_method_is_referenced_or_overrides_a_base():
    definitions = []
    for path, tree in _package_modules():
        module = importlib.import_module(f"flagless.{path.stem}")
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            bases = getattr(module, cls.name).__mro__[1:]
            definitions += [
                (path, node)
                for node in cls.body
                if isinstance(node, _DEFINITIONS)
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and not any(node.name in vars(base) for base in bases)
            ]
    assert definitions
    assert _dead(definitions) == []


def _module_imports(tree: ast.Module):
    """(bound name, line) of each import outside any function or class,
    `from __future__` ones aside."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif not isinstance(node, _DEFINITIONS):
            stack.extend(ast.iter_child_nodes(node))


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and every string in its `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def test_every_module_level_import_is_used():
    imports, unused = 0, []
    for path, tree in _package_modules():
        used = _used_names(tree)
        for name, line in _module_imports(tree):
            imports += 1
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert imports
    assert unused == []


def _decodes_json(node: ast.AST) -> bool:
    """Whether `node` names `json.loads` or `json.load`, imports either, or
    catches `RecursionError`."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("load", "loads") and getattr(node.value, "id", None) == "json"
    if isinstance(node, ast.ImportFrom):
        return node.module == "json" and any(a.name in ("load", "loads") for a in node.names)
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        return any(getattr(n, "id", None) == "RecursionError" for n in ast.walk(node.type))
    return False


def test_only_canonical_decodes_json():
    """`canonical.parse_json` is the package's one JSON decoder."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_modules()
        if path.name != "canonical.py"
        for node in ast.walk(tree)
        if _decodes_json(node)
    ]
    assert found == []


def _imports_the_package(node: ast.AST) -> bool:
    """Whether `node` is an import of a module of `flagless`."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").partition(".")[0] == "flagless"
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "flagless" for alias in node.names)
    return False


def test_modules_import_each_other_at_the_top_and_by_public_names():
    """No module imports another inside a function, where an import cycle
    hides until the function runs, and none imports another's private
    (`_`-prefixed) names, which belong to the module that defines them."""
    found = set()
    for path, tree in _package_modules():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{node.lineno} imports inside {function.name}"
                    for node in ast.walk(function)
                    if _imports_the_package(node)
                }
        found |= {
            f"{path.name}:{node.lineno} imports {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names
            if alias.name.startswith("_")
        }
    assert sorted(found) == []
