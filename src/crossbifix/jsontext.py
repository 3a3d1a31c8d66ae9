"""The package's one JSON writer: values laid out as ``json.dumps(...,
indent=2)`` lays them out, without loading ``json``.

``text`` gives the JSON text of a value; ``write_object`` writes an object
to a binary file, with each list that comes as an iterator written a piece
at a time, and ``ITEM`` leads each item of such a list. ``gen``,
``baseline-gen`` and ``table`` write their JSON through ``write_object``;
``verify`` prints the ``text`` of its report dict, and the API edge's
``codeset.CodeSet.to_json`` and ``codeset.VerificationReport.to_json`` are
the ``text`` of their dicts. No other module holds JSON punctuation or
layout, and none imports ``json``.
"""

# What leads each item of a list that write_object streams, whose items
# stand at four spaces; the first is written without its comma.
ITEM = b",\n    "

# The escapes json writes for itself; any other character outside ' '..'~'
# is written as \uXXXX, a character past the BMP as a surrogate pair.
_SHORT = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(char: str) -> str:
    if char in _SHORT:
        return _SHORT[char]
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def text(value, indent: str = "") -> str:
    """The JSON text of ``value`` as ``json.dumps(..., indent=2)`` lays it
    out at ``indent``: None, a bool, an int, a float (its ``repr``, or
    ``NaN`` and ``Infinity`` as ``json`` writes them), a string, escaped as
    ``json`` escapes it by default, so in ASCII, a list, tuple or range of
    such values, or a dict of them. A dict key that is not a string is
    written as the string ``json`` makes of it: an int, a float (``NaN``
    and ``Infinity`` too), a bool or None as its own text, in quotes. Any
    other value or key raises TypeError, as ``json`` does."""
    kind = type(value)  # tested before isinstance: most values are strings in dicts
    if kind is str or kind is not dict and isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        return '"' + "".join(map(_escape, value)) + '"'
    if kind is dict or isinstance(value, dict):
        inner = indent + "  "
        items = [f"{text(key) if type(key) is str else _key(key)}: {text(item, inner)}" for key, item in value.items()]
        opening, closing = "{}"
    elif value is None:
        return "null"
    elif value is True or value is False:
        return "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    elif isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    elif isinstance(value, (list, tuple, range)):
        inner = indent + "  "
        items = [text(item, inner) for item in value]
        opening, closing = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    sep = ",\n" + inner
    return opening + sep[1:] + sep.join(items) + "\n" + indent + closing


def _key(key) -> str:
    """The JSON text of a dict key: a string, or the string ``json`` makes
    of an int, float, bool or None key."""
    if isinstance(key, str):
        return text(key)
    if key is None or isinstance(key, (int, float)):  # a bool is an int
        return f'"{text(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def write_object(fh, members) -> None:
    """Write a JSON object and a newline to the binary file ``fh`` from
    ``(key, value)`` members, keyed as ``text`` keys a dict. A value is
    written as its ``text``, except an iterator, which is a list given as
    pieces of its items' text, each item led by ``ITEM``. The pieces are
    written as they come, so no such list is held whole.
    """
    lead = b"{\n  "
    for key, value in members:
        fh.write(lead + f"{_key(key)}: ".encode())
        lead = b",\n  "
        if not hasattr(value, "__next__"):
            fh.write(text(value, "  ").encode())
            continue
        first = next(value, None)
        if first is None:
            fh.write(b"[]")
        else:
            fh.write(b"[" + first[1:])  # the first item has no comma before it
            fh.writelines(value)
            fh.write(b"\n  ]")
    fh.write(b"{}\n" if lead == b"{\n  " else b"\n}\n")
