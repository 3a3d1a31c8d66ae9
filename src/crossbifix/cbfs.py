"""Construction of the cross-bifix-free sets CBFS(q, n).

CBFS(q, n) is the disjoint union of three families of length-n paths over a
q-letter alphabet (q >= 3, n >= 3), distinguished by their final height:

* family A (ends at height 0): a Motzkin prefix of length i <= n // 2
  followed by an elevated suffix; when n is even, words made of two
  same-length elevated halves are excluded,
* family B (ends at height +1): a rise step, then a Motzkin word of length
  i <= n // 2 - 1, then an elevated suffix,
* family C (ends at height -1): a Motzkin word of length n - 1 with no
  ground-level elevated factor of length >= ceil(n / 2), then a fall step.

Counting never materializes words, so it lives in ``counting``, which
needs none of the walk. Generation is one pruned depth-first
search over path states (``motzkin.lex_groups``) that walks the chosen
families together. Each family is a shape (a floor per position, an arch
bound, a forbidden first return); a node carries the mask of the families
its prefix still fits, and the final height of a word names its family. So
the walk yields plain symbol tuples already in canonical order, with no
merge or re-sort. Past the middle of the word the walk replays the tails
it has recorded for a path state instead of walking them again, so its
memory grows with the distinct completions of the second half, not with
the set. ``cbfs_groups`` hands a replay out whole, as a head and the
state's list of tails, so that a caller such as ``gen`` can write the
subtree in one piece; ``iter_cbfs`` flattens the groups into words.

One ``families`` string, such as ``"ABC"`` (the default) or ``"B"``, picks
the families at every layer: ``counting.count_cbfs`` sums their
closed-form sizes from ``counting.family_sizes``, and ``cbfs_groups``, ``iter_cbfs`` and
``construct_cbfs`` walk them.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

# count_cbfs, family_sizes and VerificationReport are defined in counting and
# words and re-exported here
from .counting import _check_families, _require_domain, count_cbfs, family_sizes
from .motzkin import lex_groups
from .words import Record, VerificationReport, Word, format_symbol_lines, read_codes, symbols_of

PROVENANCE_TAGS = ("A", "B", "C", "baseline", "external")


class CodeSet(Record):
    """A duplicate-free list of equal-length words in strictly increasing
    lexicographic order, with a per-word provenance tag."""

    _fields = ("q", "n", "words", "provenance")
    q: int
    n: int
    words: tuple[Word, ...]
    provenance: tuple[str, ...]

    def __init__(self, q: int, n: int, words: tuple[Word, ...], provenance: tuple[str, ...]) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "provenance", provenance)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.words) != len(self.provenance):
            raise ValueError("one provenance tag per word required")
        for tag in self.provenance:
            if tag not in PROVENANCE_TAGS:
                raise ValueError(f"unknown provenance tag {tag!r}")
        prev = None
        for w in self.words:
            if w.q != self.q or len(w) != self.n:
                raise ValueError(f"word {w.to_text()!r} does not live in Z_{self.q}^{self.n}")
            if prev is not None and not prev < w:
                raise ValueError("words must be strictly increasing; duplicates are not allowed")
            prev = w

    @classmethod
    def build(cls, q: int, n: int, tagged_words: Iterable[tuple[Word, str]]) -> "CodeSet":
        """Sort into canonical order and drop duplicates (first tag wins)."""
        seen = {}
        for word, tag in tagged_words:
            seen.setdefault(word.symbols, (word, tag))
        ordered = [seen[symbols] for symbols in sorted(seen)]
        return cls(q, n, tuple(word for word, _ in ordered), tuple(tag for _, tag in ordered))

    @classmethod
    def from_ordered(cls, q: int, n: int, tagged_symbols: Iterable[tuple[tuple[int, ...], str]]) -> "CodeSet":
        """Wrap a stream of (symbols, tag) pairs that is already in canonical
        order. Nothing is sorted; the constructor still rejects a stream out
        of order or with a repeat."""
        pairs = [(Word(symbols, q), tag) for symbols, tag in tagged_symbols]
        return cls(q, n, tuple(word for word, _ in pairs), tuple(tag for _, tag in pairs))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    @cached_property
    def _keys(self) -> frozenset[tuple[int, ...]]:
        return frozenset(w.symbols for w in self.words)

    def __contains__(self, word: Word) -> bool:
        return word.symbols in self._keys

    def without(self, word: Word) -> "CodeSet":
        """A copy with one member removed (used by mutation checks)."""
        if word not in self:
            raise ValueError(f"{word.to_text()!r} is not a member")
        kept = [(w, t) for w, t in zip(self.words, self.provenance) if w.symbols != word.symbols]
        return CodeSet(self.q, self.n, tuple(w for w, _ in kept), tuple(t for _, t in kept))

    def to_text(self) -> str:
        return format_symbol_lines([w.symbols for w in self.words], self.q)

    @classmethod
    def from_text(cls, text: str, q: int, n: int | None = None, tag: str = "external") -> "CodeSet":
        n, codes = read_codes(text, q, n)
        return cls.from_ordered(q, n, ((symbols_of(code, q, n), tag) for code in codes))

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "provenance": list(self.provenance),
            "words": [w.to_text() for w in self.words],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "CodeSet":
        q, n = data["q"], data["n"]
        pairs = [(Word.from_text(t, q), tag) for t, tag in zip(data["words"], data["provenance"])]
        return cls.build(q, n, pairs)


def _shapes(n: int) -> dict[str, tuple[list[int], int | None, int | None]]:
    """The ``lex_groups`` shape of each family at length n."""
    half = n // 2
    return {
        # A Motzkin path whose last visit to height 0 before the end is at
        # some i <= n // 2, so it stays at height >= 1 after n // 2. For even
        # n, a first return at n / 2 means two same-length elevated halves.
        "A": ([0] * (half + 1) + [1] * (n - half - 1) + [0], None, half if n % 2 == 0 else None),
        # A rise, forced by the floor of 1 after one step, then A's shape
        # one level up, with its last visit to height 1 at or before n // 2.
        "B": ([0] + [1] * half + [2] * (n - half - 1) + [1], None, None),
        # A Motzkin path of length n - 1 whose ground arches are all shorter
        # than ceil(n / 2), then a fall to height -1.
        "C": ([0] * n + [-1], (n + 1) // 2 - 1, None),
    }


def cbfs_groups(q: int, n: int, families: str = "ABC") -> Iterator[tuple[tuple[int, ...], list]]:
    """CBFS(q, n), or the union of the named families, as the
    ``motzkin.lex_groups`` of one walk over their shapes: ``(head, tails)``
    groups in canonical order, where ``families[j]`` names the family of
    each word ``head + tail`` with ``(tail, j)`` in ``tails``. A group that
    replays a path state hands back the same list each time; callers must
    not change it. Domain errors are raised on the call."""
    _require_domain(q, n)
    _check_families(families)
    shapes = _shapes(n)
    return lex_groups(q, [shapes[name] for name in families])


def iter_cbfs(q: int, n: int, families: str = "ABC") -> Iterator[tuple[tuple[int, ...], str]]:
    """Stream CBFS(q, n), or the union of the named families, as
    ``(symbols, family)`` pairs in canonical (lexicographic) order.

    One walk covers every named family: the families end at distinct
    heights, so the walk tells them apart by where each word ends. Words
    are ordered as symbol tuples; comparing text would misorder them for
    q > 10. Memory holds the tails the walk records for replay: at most one
    per word yielded so far, and at most the length-``n // 2`` completions
    of each path state met at the middle. Streaming all of CBFS(3, 19),
    10,035,338 words, takes 3.9 MB for them.
    """
    groups = cbfs_groups(q, n, families)
    return ((head + tail, families[j]) for head, tails in groups for tail, j in tails)


def construct_cbfs(q: int, n: int, families: str = "ABC") -> CodeSet:
    """CBFS(q, n), or the union of the named families, as a canonically
    ordered ``CodeSet`` tagged by family."""
    return CodeSet.from_ordered(q, n, iter_cbfs(q, n, families))
