"""Words as base-q integer codes, read from word-per-line text, and the
package's immutable records, the verification report among them.

Only ``verify``, the API edge (``codeset``) and the brute references
(``oracle``) load this module, so ``gen`` compiles none of it. A report's
JSON is the package's one JSON writer, ``jsontext.text``, applied to its
dict.
"""

from __future__ import annotations

from collections.abc import Iterable

from .jsontext import text
from .words import format_symbols, symbols_of


def code_of(symbols: Iterable[int], q: int) -> int:
    """The base-q code of a word; a symbol of q or above raises ValueError."""
    code = 0
    for s in symbols:
        if s >= q:
            raise ValueError(f"symbol {s!r} outside alphabet of size {q}")
        code = code * q + s
    return code


def parse_code(text: str, q: int, line: int = 0) -> tuple[int, int]:
    """``(code, length)`` of a word's text less outer whitespace: ASCII
    digits for q <= 10, else ASCII decimal integers between commas;
    ``(0, 0)`` if blank. Other text raises ValueError, naming ``line``."""
    text = text.strip()
    if q <= 10 and text.isascii() and text.isdigit():
        try:
            return int(text, q), len(text)
        except ValueError:  # a digit >= q, or past int's digit cap
            return code_of(map(int, text), q), len(text)
    parts = text.split(",")
    if q > 10 and text.isascii() and all(map(str.isdigit, parts)):
        return code_of(map(int, parts), q), len(parts)
    if not text:
        return 0, 0
    form = "contiguous digits" if q <= 10 else "comma-separated integers"
    where = f"line {line}: " if line else ""
    raise ValueError(f"{where}cannot read {text!r} as a word; expected {form} 0..{q - 1}")


def read_codes(text: str, q: int, n: int | None = None) -> tuple[int, list[int]]:
    """``(n, codes)`` of word-per-line text: the word length, given or the
    first word's, and the distinct codes in increasing order. A given
    length below 1 raises ValueError, whatever the text."""
    if n is not None and n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    codes = set()
    for number, line in enumerate(text.splitlines(), 1):
        code, length = parse_code(line, q, number)
        if not length:
            continue
        if n is None:
            n = length
        if length != n:
            raise ValueError(f"word {format_symbols(symbols_of(code, q, length), q)!r} does not live in Z_{q}^{n}")
        codes.add(code)
    if n is None:
        raise ValueError("cannot infer word length from an empty list")
    return n, sorted(codes)


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields in ``_fields``, in constructor order, and
    sets each once in ``__init__`` through ``object.__setattr__``. Records
    equal and hash as the tuple of their field values, and equal only a
    record of the same class; one with an unhashable field, such as a dict,
    raises TypeError on hashing. The repr lists the fields by name.
    Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class VerificationReport(Record):
    """Outcome of a verification run, with every witness recorded.

    kind is one of "cross-bifix-set", "non-expandable" or "count-agreement".
    A non-null error marks a failed precondition rather than a verification
    verdict.
    """

    __slots__ = _fields = ("kind", "ok", "witnesses", "stats", "error")
    kind: str
    ok: bool
    witnesses: tuple[dict, ...]
    stats: dict
    error: str | None

    def __init__(
        self, kind: str, ok: bool, witnesses: tuple[dict, ...], stats: dict | None = None, error: str | None = None
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "stats", {} if stats is None else stats)
        object.__setattr__(self, "error", error)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "witnesses": [dict(w) for w in self.witnesses],
            "stats": dict(self.stats),
            "error": self.error,
        }

    def to_json(self) -> str:
        """The text of ``json.dumps(self.to_json_dict(), indent=2)`` and a
        newline."""
        return text(self.to_json_dict()) + "\n"
