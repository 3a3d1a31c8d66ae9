"""The package keeps no dead public names: every public top-level function
or class is used somewhere in the package or exported from its root."""

import ast
from pathlib import Path

import crossbifix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crossbifix"
# The brute-force references are test-only; their names are for the tests.
TEST_ONLY = {"oracle"}


def referenced_names(tree):
    """Every name a module looks up, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_definition_is_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    exported = set(crossbifix.__all__)
    unused = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        if name not in TEST_ONLY
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used | exported
    ]
    assert unused == []
