"""The package's JSON writer against ``json``, and the rule that no other
module lays out JSON text."""

import ast
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_words import AWKWARD

from crossbifix import jsontext
from crossbifix.codeset import construct_cbfs
from crossbifix.jsontext import ITEM, text, write_object

TEXTS = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD)), max_size=8)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    TEXTS,
    st.builds(range, st.integers(-3, 3), st.integers(-3, 6)),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        # keys of every kind json turns into strings
        st.dictionaries(st.one_of(TEXTS, st.integers(), st.floats(), st.booleans(), st.none()), inner, max_size=4),
    ),
    max_leaves=24,
)


def plain(value):
    """``value`` with each range as the list of its integers, which is how
    ``text`` writes a range and the form ``json`` takes."""
    if isinstance(value, (list, tuple, range)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_text_is_the_text_json_writes(value):
    expected = json.dumps(plain(value), indent=2)
    assert text(value) == expected
    # at an indent, every line but the first is led by it
    assert text(value, "    ") == expected.replace("\n", "\n    ")


def test_text_refuses_what_json_refuses():
    for value in (b"1", {1, 2}, object(), [1, {"a": b""}]):
        with pytest.raises(TypeError):
            text(value)
    # a key json cannot turn into a string, with json's message
    for value in ({(1, 2): 3}, {"a": 1, b"b": 2}, [{frozenset(): None}]):
        with pytest.raises(TypeError) as refused:
            json.dumps(value)
        with pytest.raises(TypeError, match=f"^{refused.value}$"):
            text(value)


def test_write_object_streams_lists_among_plain_values():
    data = {
        "q": 3,
        AWKWARD: AWKWARD,
        "values": range(3, 6),
        "none": None,
        "empty": [],
        "streamed": [1, AWKWARD, {"b": None, "c": [True, -0.0]}, []],
        "nothing": [],
        "chunked": ["A", "A", "B", "C", "C"],
        "table": [[1, 2], {}],
    }
    pieces = {
        # one piece for each item, no pieces at all, and pieces of two items
        "streamed": [ITEM + text(item, "    ").encode() for item in data["streamed"]],
        "nothing": [],
        "chunked": [ITEM + b'"A"' + ITEM + b'"A"', ITEM + b'"B"' + ITEM + b'"C"', ITEM + b'"C"'],
    }
    members = [(key, iter(pieces[key]) if key in pieces else value) for key, value in data.items()]
    out = io.BytesIO()
    write_object(out, members)
    assert out.getvalue().decode("ascii") == json.dumps(plain(data), indent=2) + "\n"
    # an object with no members, and one keyed as a dict with other keys
    for data in ({}, {1: 2, None: 3, 1.5: [], True: "t"}):
        out = io.BytesIO()
        write_object(out, list(data.items()))
        assert out.getvalue().decode("ascii") == json.dumps(data, indent=2) + "\n"


# Text that only JSON layout holds: an item's comma and line break, a
# nested item's indent, JSON's null and a key's closing quote and colon.
LAYOUT = (",\n", "\n    ", "null", '": ')


def layout_constants(path):
    """``(line, value)`` of each string or bytes constant of the module at
    ``path``, less its docstrings, that holds JSON layout."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(first.value)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)) and node not in docstrings:
            value = node.value if isinstance(node.value, str) else node.value.decode("latin-1")
            if any(piece in value for piece in LAYOUT):
                found.append((node.lineno, node.value))
    return found


def test_only_jsontext_lays_out_json():
    package = os.path.dirname(jsontext.__file__)
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert {"codeset.py", "sizes.py", "verify.py", "wordlist.py", "jsontext.py"} <= set(modules)
    found = {name: layout_constants(os.path.join(package, name)) for name in modules}
    assert found.pop("jsontext.py")  # the scan sees the layout where it is
    assert {name: constants for name, constants in found.items() if constants} == {}


def test_no_module_imports_json():
    # jsontext is the one writer: the API edge's to_json as much as the commands
    package = os.path.dirname(jsontext.__file__)
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "codeset.py" in modules
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
        assert not [module for module in imported if module.split(".")[0] == "json"], name
    code_set = construct_cbfs(12, 4)
    assert code_set.to_json() == json.dumps(code_set.to_json_dict(), indent=2) + "\n"
