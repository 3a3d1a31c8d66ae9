"""Construction and exact counting of the cross-bifix-free sets CBFS(q, n).

CBFS(q, n) is the disjoint union of three families of length-n paths over a
q-letter alphabet (q >= 3, n >= 3), distinguished by their final height:

* family A (ends at height 0): a Motzkin prefix of length i <= n // 2
  followed by an elevated suffix; when n is even, words made of two
  same-length elevated halves are excluded,
* family B (ends at height +1): a rise step, then a Motzkin word of length
  i <= n // 2 - 1, then an elevated suffix,
* family C (ends at height -1): a Motzkin word of length n - 1 with no
  ground-level elevated factor of length >= ceil(n / 2), then a fall step.

Counting never materializes words. Generation is one pruned depth-first
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
``Word`` and ``CodeSet`` values are built only by ``construct_cbfs``.

One ``families`` string, such as ``"ABC"`` (the default) or ``"B"``, picks
the families at every layer: ``count_cbfs`` sums their closed-form sizes
from ``family_sizes``, and ``cbfs_groups``, ``iter_cbfs`` and
``construct_cbfs`` walk them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .motzkin import lex_groups, motzkin_counts
from .words import Word, format_word_lines, parse_word_lines

PROVENANCE_TAGS = ("A", "B", "C", "baseline", "external")
# Default cap on the words a verification scan may cover.
DEFAULT_MAX_SPACE = 10_000_000


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verification run, with every witness recorded.

    kind is one of "cross-bifix-set", "non-expandable" or "count-agreement".
    A non-null error marks a failed precondition rather than a verification
    verdict.
    """

    kind: str
    ok: bool
    witnesses: tuple[dict, ...]
    stats: dict = field(default_factory=dict)
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "witnesses": [dict(w) for w in self.witnesses],
            "stats": dict(self.stats),
            "error": self.error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


@dataclass(frozen=True)
class CodeSet:
    """A duplicate-free list of equal-length words in strictly increasing
    lexicographic order, with a per-word provenance tag."""

    q: int
    n: int
    words: tuple[Word, ...]
    provenance: tuple[str, ...]

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
        seen: dict[tuple[int, ...], tuple[Word, str]] = {}
        for word, tag in tagged_words:
            seen.setdefault(word.symbols, (word, tag))
        ordered = sorted(seen.values(), key=lambda item: item[0].symbols)
        words = tuple(item[0] for item in ordered)
        tags = tuple(item[1] for item in ordered)
        return cls(q, n, words, tags)

    @classmethod
    def from_ordered(cls, q: int, n: int, tagged_symbols: Iterable[tuple[tuple[int, ...], str]]) -> "CodeSet":
        """Wrap a stream of (symbols, tag) pairs that is already in canonical
        order. Nothing is sorted; the constructor still rejects a stream out
        of order or with a repeat."""
        words = []
        tags = []
        for symbols, tag in tagged_symbols:
            words.append(Word(symbols, q))
            tags.append(tag)
        return cls(q, n, tuple(words), tuple(tags))

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
        return format_word_lines(self.words)

    @classmethod
    def from_text(cls, text: str, q: int, n: int | None = None, tag: str = "external") -> "CodeSet":
        words = parse_word_lines(text, q)
        if n is None:
            if not words:
                raise ValueError("cannot infer word length from an empty list")
            n = len(words[0])
        return cls.build(q, n, [(w, tag) for w in words])

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "provenance": list(self.provenance),
            "words": [w.to_text() for w in self.words],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "CodeSet":
        q, n = data["q"], data["n"]
        pairs = [(Word.from_text(t, q), tag) for t, tag in zip(data["words"], data["provenance"])]
        return cls.build(q, n, pairs)


def _require_domain(q: int, n: int) -> None:
    if q < 3:
        raise ValueError(f"construction needs an alphabet of size q >= 3, got {q}")
    if n < 3:
        raise ValueError(f"construction needs word length n >= 3, got {n}")


def _check_families(families: str) -> None:
    if not families or not set(families) <= set("ABC") or len(set(families)) != len(families):
        raise ValueError(f"families must be distinct letters of 'ABC', got {families!r}")


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


def count_cbfs(q: int, n: int, families: str = "ABC") -> int:
    """|CBFS(q, n)|, or the size of the union of the named families, from
    the closed forms of ``family_sizes``."""
    sizes = dict(zip("ABC", family_sizes(q, (n,))[n]))
    _check_families(families)
    return sum(sizes[name] for name in families)


def family_sizes(q: int, n_values: Iterable[int]) -> dict[int, tuple[int, int, int]]:
    """(|A|, |B|, |C|) of CBFS(q, n) for every n in ``n_values``.

    Each family is a few half-range sums H(T; lo..hi) = sum_{t=lo}^{hi}
    M(t) M(T-t) (``_half_sum``), with t = j - 2 in family C's sum:

    * |A| = H(n-2; 0..n//2) - [n even] M(n/2 - 2)^2
    * |B| = H(n-3; 0..n//2-1)
    * |C| = M(n-1) - H(n-1; c-2..n-3) + k H(n-2; c-2..n-3), c = ceil(n/2)

    so every length needs only M near n/2 and near n, all taken from one
    walk of the Motzkin recurrence.

    |C| is M(n-1) less the Motzkin words u beta v with beta a ground-level
    elevated factor of length j >= c. Two such factors cannot coexist, so
    each excluded word is counted once, in sum_j M(j-2) (M(n+1-j) - k M(n-j)),
    where M(m+2) - k M(m+1) counts the pairs (u, v) of total length m.
    """
    n_values = tuple(n_values)
    wanted = set()
    for n in n_values:
        _require_domain(q, n)
        # the indices the formulas read: the edge terms t = 0, 1, both
        # factors of the terms near T/2, and the Conv(T) values near n
        wanted.update((0, 1), range(n // 2 - 2, n // 2 + 2), range(n - 2, n + 2))
    k = q - 2
    m = motzkin_counts(k, wanted)
    sizes = {}
    for n in n_values:
        c = (n + 1) // 2
        a = _half_sum(m, k, n - 2, 0, n // 2)
        if n % 2 == 0:
            a -= m[n // 2 - 2] ** 2
        b = _half_sum(m, k, n - 3, 0, n // 2 - 1)
        sizes[n] = (a, b, m[n - 1] - _half_sum(m, k, n - 1, c - 2, n - 3) + k * _half_sum(m, k, n - 2, c - 2, n - 3))
    return sizes


def _half_sum(m: dict[int, int], k: int, t_sum: int, lo: int, hi: int) -> int:
    """sum_{t=lo}^{hi} M(t) M(t_sum - t), with M read from ``m``.

    The full sum over 0 <= t <= T (T = t_sum) is Conv(T) = M(T+2) - k M(T+1),
    and its terms are symmetric under t -> T - t. When the range and its
    mirror image together cover every t between their edges, adding the
    two (equal) sums counts Conv(T) once, less the edge terms below
    e = min(lo, T - hi) and their mirrors, plus once more the terms where
    range and mirror overlap; those are few and lie near T/2. Otherwise the
    halves do not meet (small T) and the range is summed directly.
    """
    lo, hi = max(lo, 0), min(hi, t_sum)
    if lo > hi:
        return 0
    both_lo, both_hi = max(lo, t_sum - hi), min(hi, t_sum - lo)
    if both_lo > both_hi + 1:
        return sum(m[t] * m[t_sum - t] for t in range(lo, hi + 1))
    edge = min(lo, t_sum - hi)
    twice = (
        m[t_sum + 2]
        - k * m[t_sum + 1]
        - 2 * sum(m[t] * m[t_sum - t] for t in range(edge))
        + sum(m[t] * m[t_sum - t] for t in range(both_lo, both_hi + 1))
    )
    return twice // 2
