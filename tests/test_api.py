"""The package's public names: every public top-level function or class is
used somewhere in the package or exported from its root, and the root
resolves each exported name on first access."""

import ast
import importlib
from pathlib import Path

import pytest

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


def test_every_exported_name_resolves_through_the_lazy_root():
    assert crossbifix.__all__ == sorted(crossbifix.__all__)
    for name in crossbifix.__all__:
        value = getattr(crossbifix, name)
        module = importlib.import_module(f"crossbifix.{crossbifix._MODULE_OF[name]}")
        assert value is getattr(module, name) and value.__module__ == module.__name__, name
        assert name in dir(crossbifix)
    namespace = {}
    exec("from crossbifix import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(crossbifix.__all__)
    for module in crossbifix._EXPORTS:
        assert getattr(crossbifix, module) is importlib.import_module(f"crossbifix.{module}")
    for name in ("no_such_name", "_private"):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(crossbifix, name)
    with pytest.raises(ImportError):
        exec("from crossbifix import no_such_name", {})
