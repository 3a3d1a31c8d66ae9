"""Alphabet and word primitives.

Words over the alphabet {0, ..., q-1} double as lattice paths: symbol 0 is a
fall step (1, -1), symbol 1 a rise step (1, 1), and symbols 2..q-1 are level
steps (1, 0) in q-2 colors. Everything here is a pure function on immutable
values.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Sequence

FALL = 0
RISE = 1

MAX_ALPHABET = 1 << 16


def check_alphabet(q: int) -> None:
    """Raise ValueError unless q is an alphabet size that a Word takes."""
    if not isinstance(q, int) or not 2 <= q <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {q!r}")


def symbol_step(symbol: int) -> int:
    """Vertical displacement of one symbol: -1 for 0, +1 for 1, 0 for colors."""
    if symbol == FALL:
        return -1
    if symbol == RISE:
        return 1
    return 0


def code_of(symbols: Iterable[int], q: int) -> int:
    """The base-q code of a word; a symbol of q or above raises ValueError."""
    code = 0
    for s in symbols:
        if s >= q:
            raise ValueError(f"symbol {s!r} outside alphabet of size {q}")
        code = code * q + s
    return code


def symbols_of(code: int, q: int, n: int) -> tuple[int, ...]:
    """The length-n word with base-q code ``code``; the inverse of ``code_of``."""
    symbols = [0] * n
    for i in range(n - 1, -1, -1):
        code, symbols[i] = divmod(code, q)
    return tuple(symbols)


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
    first word's, and the distinct codes in increasing order."""
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


def format_symbols(symbols: Sequence[int], q: int) -> str:
    return ("" if q <= 10 else ",").join(map(str, symbols))


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
        import json

        return json.dumps(self.to_json_dict(), indent=2) + "\n"


@total_ordering
class Word(Record):
    """Immutable word over {0, ..., q-1}.

    Equality is element-wise; ordering is lexicographic on the symbol
    integers, which fixes the canonical order used everywhere for
    deterministic generation output.
    """

    __slots__ = _fields = ("symbols", "q")
    symbols: tuple[int, ...]
    q: int

    def __init__(self, symbols: Sequence[int], q: int) -> None:
        object.__setattr__(self, "symbols", tuple(symbols))
        object.__setattr__(self, "q", q)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_alphabet(self.q)
        q = self.q
        for s in self.symbols:
            # bool subclasses int but is no symbol; testing type() first lets
            # plain ints, the common case, skip both isinstance calls.
            if (type(s) is not int and (isinstance(s, bool) or not isinstance(s, int))) or not 0 <= s < q:
                raise ValueError(f"symbol {s!r} outside alphabet of size {self.q}")

    @classmethod
    def run(cls, symbol: int, length: int, q: int) -> "Word":
        """The word symbol^length (a run of one repeated symbol)."""
        return cls((symbol,) * length, q)

    @classmethod
    def from_text(cls, text: str, q: int) -> "Word":
        check_alphabet(q)
        code, length = parse_code(text, q)
        return cls(symbols_of(code, q, length), q)

    def to_text(self) -> str:
        return format_symbols(self.symbols, self.q)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.symbols[index], self.q)
        return self.symbols[index]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.q != other.q:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.symbols + other.symbols, self.q)

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.symbols < other.symbols

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Word({self.to_text()!r}, q={self.q})"


class HeightProfile(Record):
    """Partial path heights: heights[j] is the height after the first j
    symbols, so heights[0] == 0 and the final entry is #rises - #falls."""

    __slots__ = _fields = ("heights",)
    heights: tuple[int, ...]

    def __init__(self, heights: tuple[int, ...]) -> None:
        object.__setattr__(self, "heights", heights)

    @property
    def final(self) -> int:
        return self.heights[-1]

    @property
    def minimum(self) -> int:
        return min(self.heights)


class CrossBifix(Record):
    """A shortest cross-bifix witness.

    ``word`` is a strict prefix of one argument and a suffix of the other;
    ``prefix_of`` records which argument contributed the prefix
    ("first" or "second").
    """

    __slots__ = _fields = ("word", "prefix_of")
    word: Word
    prefix_of: str

    def __init__(self, word: Word, prefix_of: str) -> None:
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "prefix_of", prefix_of)


def prefix_function(symbols: Sequence[int]) -> list[int]:
    """Textbook failure function: pi[i] is the length of the longest strict
    border (simultaneous prefix and suffix) of symbols[:i+1]."""
    pi = [0] * len(symbols)
    k = 0
    for i in range(1, len(symbols)):
        while k and symbols[i] != symbols[k]:
            k = pi[k - 1]
        if symbols[i] == symbols[k]:
            k += 1
        pi[i] = k
    return pi


def is_bifix_free(word: Word) -> bool:
    """True iff no non-empty strict prefix of the word is also a suffix."""
    if len(word) == 0:
        raise ValueError("bifix-freeness is undefined for the empty word")
    return prefix_function(word.symbols)[-1] == 0


def bifixes(word: Word) -> list[Word]:
    """All bifixes (non-empty strict borders) of a word, shortest first."""
    if len(word) == 0:
        raise ValueError("bifixes are undefined for the empty word")
    pi = prefix_function(word.symbols)
    lengths = []
    k = pi[-1]
    while k:
        lengths.append(k)
        k = pi[k - 1]
    return [word[:k] for k in reversed(lengths)]


def cross_bifix(first: Word, second: Word) -> CrossBifix | None:
    """Shortest non-empty strict prefix of one word that is a suffix of the
    other, or None when the pair is cross-bifix-free.

    Ties at the same length are broken toward the prefix of ``first``.
    """
    if len(first) != len(second):
        raise ValueError("cross-bifix comparison needs words of equal length")
    if first.q != second.q:
        raise ValueError("cross-bifix comparison needs a common alphabet")
    a, b, n = first.symbols, second.symbols, len(first)
    for length in range(1, n):
        if a[:length] == b[n - length:]:
            return CrossBifix(first[:length], "first")
        if b[:length] == a[n - length:]:
            return CrossBifix(second[:length], "second")
    return None


def height_profile(word: Word) -> HeightProfile:
    heights = [0]
    h = 0
    for s in word.symbols:
        h += symbol_step(s)
        heights.append(h)
    return HeightProfile(tuple(heights))


def is_motzkin_word(word: Word) -> bool:
    """True iff the path never goes below the x-axis and ends on it."""
    h = 0
    for s in word.symbols:
        h += symbol_step(s)
        if h < 0:
            return False
    return h == 0


def is_elevated(word: Word) -> bool:
    """True iff word = 1 alpha 0 with alpha a Motzkin word, i.e. a Motzkin
    word whose interior heights are strictly positive."""
    n = len(word)
    if n < 2 or word.symbols[0] != RISE or word.symbols[-1] != FALL:
        return False
    h = 0
    for s in word.symbols[:-1]:
        h += symbol_step(s)
        if h <= 0:
            return False
    return h == 1


# Maps the symbol bytes 0..9 to their digits and keeps byte 10, the newline.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_symbol_lines(rows: Sequence[Sequence[int]], q: int) -> str:
    """The word-per-line text of symbol tuples over an alphabet of size q,
    in the same form as ``format_symbols``. For q <= 10 the whole block is
    joined as bytes and translated to digits in one pass."""
    if not rows:
        return ""
    if q <= 10:
        return (b"\n".join(map(bytes, rows)) + b"\n").translate(_DIGITS).decode("ascii")
    return "".join(format_symbols(row, q) + "\n" for row in rows)
