"""Alphabet and word primitives.

Words over the alphabet {0, ..., q-1} double as lattice paths: symbol 0 is a
fall step (1, -1), symbol 1 a rise step (1, 1), and symbols 2..q-1 are level
steps (1, 0) in q-2 colors. Everything here is a pure function on immutable
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Sequence

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


def parse_symbols(text: str, q: int) -> tuple[int, ...]:
    """Parse the text form of a word: contiguous digits for q <= 10,
    comma-separated integers otherwise."""
    text = text.strip()
    if not text:
        return ()
    if q <= 10:
        return tuple(int(c) for c in text)
    return tuple(int(part) for part in text.split(","))


def format_symbols(symbols: Sequence[int], q: int) -> str:
    if q <= 10:
        return "".join(str(s) for s in symbols)
    return ",".join(str(s) for s in symbols)


@total_ordering
@dataclass(frozen=True)
class Word:
    """Immutable word over {0, ..., q-1}.

    Equality is element-wise; ordering is lexicographic on the symbol
    integers, which fixes the canonical order used everywhere for
    deterministic generation output.
    """

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
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
        return cls(parse_symbols(text, q), q)

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


@dataclass(frozen=True)
class HeightProfile:
    """Partial path heights: heights[j] is the height after the first j
    symbols, so heights[0] == 0 and the final entry is #rises - #falls."""

    heights: tuple[int, ...]

    @property
    def final(self) -> int:
        return self.heights[-1]

    @property
    def minimum(self) -> int:
        return min(self.heights)


@dataclass(frozen=True)
class CrossBifix:
    """A shortest cross-bifix witness.

    ``word`` is a strict prefix of one argument and a suffix of the other;
    ``prefix_of`` records which argument contributed the prefix
    ("first" or "second").
    """

    word: Word
    prefix_of: str


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


def parse_word_lines(text: str, q: int) -> list[Word]:
    """Read words from word-per-line text, skipping blank lines."""
    return [Word.from_text(line, q) for line in text.splitlines() if line.strip()]


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


def format_word_lines(words: Sequence[Word]) -> str:
    if not words:
        return ""
    return format_symbol_lines([w.symbols for w in words], words[0].q)
