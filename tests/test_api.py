"""The package's public names: every public top-level function or class is
used somewhere in the package or exported from its root, and the root
resolves each exported name on first access."""

import ast
import importlib
import os
import subprocess
import sys
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


def imported_modules(tree):
    """The package modules a module's source imports by an import
    statement, wherever it stands: at the top, in a function or under
    ``TYPE_CHECKING``. A name imported from the package itself counts as a
    module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "crossbifix":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("crossbifix."))
    return found


def test_only_the_oracle_imports_the_api_edge():
    # codeset is the one module that takes or returns a Word or CodeSet; the
    # rest of the package handles symbol tuples and codes
    importers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if "codeset" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert importers == ["oracle"]


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


# The root's exported names since the typed API edge moved to ``codeset``;
# each imports from the root. The path predicates moved to ``oracle``,
# whose names the root no longer exports.
ROOT_NAMES = (
    "CodeSet",
    "CrossBifix",
    "VerificationReport",
    "Word",
    "best_sizes",
    "bifixes",
    "construct_baseline_set",
    "construct_cbfs",
    "count_cbfs",
    "cross_bifix",
    "f_count",
    "family_sizes",
    "generate_elevated",
    "generate_motzkin",
    "is_bifix_free",
    "iter_cbfs",
    "motzkin_count",
    "motzkin_counts",
    "s_max",
    "s_star",
    "verify_cross_bifix_free_set",
    "verify_non_expandable",
    "zero_run_counts",
)


def test_the_root_exports_no_oracle_name():
    # ``verify`` defines the exported verifiers; ``oracle``'s brute ones
    # share their names and stay in ``crossbifix.oracle``
    predicates = {"HeightProfile", "has_ground_elevated_factor", "height_profile", "is_elevated", "is_motzkin_word"}
    assert not predicates & set(crossbifix.__all__)
    assert "oracle" not in crossbifix._EXPORTS
    for name in crossbifix.__all__:
        assert getattr(crossbifix, name).__module__ != "crossbifix.oracle", name


def test_every_root_name_resolves_in_a_fresh_process():
    # one interpreter per name, so that an import cycle between the module
    # a name lives in and the ones it loads cannot hide behind another test
    assert set(ROOT_NAMES) <= set(crossbifix.__all__)
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for name in crossbifix.__all__:
        module = crossbifix._MODULE_OF[name]
        script = (
            "import crossbifix\n"
            f"value = crossbifix.{name}\n"
            f"from crossbifix.{module} import {name} as defined\n"
            "assert value is defined\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (name, done.stderr)
