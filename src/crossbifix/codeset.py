"""The typed API edge: validated words, canonical word sets, the paper's
bifix predicates on them, and every function that takes or returns one.

``Word`` checks its alphabet and symbols, ``CodeSet`` holds a canonically
ordered set of words with a provenance tag each, and ``cross_bifix``,
``bifixes`` and ``is_bifix_free`` state the paper's definitions on words.
The records (``Word``, ``CrossBifix``, ``CodeSet`` and
``VerificationReport``) are frozen dataclasses. The rest of the library
handles symbol tuples, base-q codes and plain dicts, and this module wraps
it: ``iter_cbfs``, ``construct_cbfs``, ``generate_motzkin`` and
``generate_elevated`` walk the tables of the shapes in ``motzkin``,
``construct_baseline_set`` walks the table of ``baseline.baseline_table``,
and ``verify_cross_bifix_free_set`` and ``verify_non_expandable`` hand the
members' codes to the checks in ``verify`` and wrap the report dict each
returns in a ``VerificationReport``. No command loads this module, so no
command loads ``dataclasses``, and no module but ``oracle`` imports it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, total_ordering

from . import DEFAULT_MAX_SPACE
from .baseline import baseline_table
from .jsontext import text
from .motzkin import StateTable, cbfs_shapes, elevated_shapes, motzkin_shapes
from .verify import code_of, cross_bifix_report, non_expandable_report, parse_code, read_codes
from .walk import words as walk
from .words import check_alphabet, format_symbols, symbols_of


@total_ordering
@dataclass(frozen=True, slots=True)
class Word:
    """Immutable word over {0, ..., q-1}; any sequence of symbols is held
    as a tuple.

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

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.symbols < other.symbols

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Word({self.to_text()!r}, q={self.q})"


@dataclass(frozen=True, slots=True)
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


PROVENANCE_TAGS = ("A", "B", "C", "baseline", "external")


@dataclass(frozen=True)  # no slots: _keys is cached in the instance's __dict__
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
        return "".join([w.to_text() + "\n" for w in self.words])

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
        return text(self.to_json_dict()) + "\n"


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of a verification run, with every witness recorded: the
    report dict of ``verify`` as a record.

    kind is one of "cross-bifix-set", "non-expandable" or "count-agreement".
    A non-null error marks a failed precondition rather than a verification
    verdict.
    """

    kind: str
    ok: bool
    witnesses: tuple[dict, ...]
    stats: dict | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.stats is None:
            object.__setattr__(self, "stats", {})

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


def _record(report: dict) -> VerificationReport:
    """The record of a report dict of ``verify``."""
    return VerificationReport(**{**report, "witnesses": tuple(report["witnesses"])})


def generate_motzkin(colors: int, n: int) -> Iterator[Word]:
    """Yield every Motzkin word of the given length exactly once, in
    lexicographic order."""
    walked = walk(StateTable(colors + 2, n, motzkin_shapes(colors, n)), (None,))
    return (Word(symbols, colors + 2) for symbols, _ in walked)


def generate_elevated(colors: int, n: int) -> Iterator[Word]:
    """Yield the elevated Motzkin words 1 alpha 0 of length n, in
    lexicographic order. Lengths below 2 admit no elevated word, so the
    stream is empty."""
    walked = walk(StateTable(colors + 2, n, elevated_shapes(colors, n)), (None,))
    return (Word(symbols, colors + 2) for symbols, _ in walked)


def iter_cbfs(q: int, n: int, families: str = "ABC") -> Iterator[tuple[tuple[int, ...], str]]:
    """Stream CBFS(q, n), or the union of the named families, as
    ``(symbols, family)`` pairs in canonical (lexicographic) order.

    One walk covers every named family: the families end at distinct
    heights, so the walk tells them apart by where each word ends. Words
    are ordered as symbol tuples; comparing text would misorder them for
    q > 10. Memory holds the state table and the tails of each state below
    the walk's frontier, listed once.
    """
    return walk(StateTable(q, n, cbfs_shapes(q, n, families)), families)


def construct_cbfs(q: int, n: int, families: str = "ABC") -> CodeSet:
    """CBFS(q, n), or the union of the named families, as a canonically
    ordered ``CodeSet`` tagged by family."""
    return CodeSet.from_ordered(q, n, iter_cbfs(q, n, families))


def construct_baseline_set(k: int, q: int, n: int, max_space: int = DEFAULT_MAX_SPACE) -> CodeSet:
    """All words of S(k, q, n), from the walk of ``baseline.baseline_table``,
    as a canonically ordered ``CodeSet`` tagged "baseline"."""
    _, table = baseline_table(k, q, n, max_space)
    return CodeSet.from_ordered(q, n, walk(table, ("baseline",)))


def verify_cross_bifix_free_set(code_set: CodeSet) -> VerificationReport:
    """Report every unordered pair of distinct members that shares a
    cross-bifix, each with its shortest witness.

    ``pairs_checked`` counts the pairs covered, |S| (|S| - 1) / 2.
    """
    q = code_set.q
    return _record(cross_bifix_report(q, code_set.n, [code_of(word.symbols, q) for word in code_set.words]))


def verify_non_expandable(
    code_set: CodeSet, max_space: int = DEFAULT_MAX_SPACE, all_witnesses: bool = False
) -> VerificationReport:
    """Check that no outside bifix-free word can join the set.

    Preconditions (members bifix-free, set cross-bifix-free) are verified
    first; their failure is reported as an error, not as expandability.
    The candidates come from the prefix walk ``bifixfree._walk``, which
    cuts every subtree below a prefix that is a member's suffix.

    By default the report lists only the unblocked candidates, each with
    null witness fields; any of them fails the check. With
    ``all_witnesses`` nothing is cut and every outside bifix-free
    candidate gets one witness: its cross-bifix with the first member in
    canonical order that blocks it, or nulls. That report is the one
    ``oracle.verify_non_expandable`` gives. In both modes
    ``candidates_checked`` counts the candidates covered, U_q(n) - |S|.
    A set with more candidates than ``max_space`` is refused before the
    preconditions, whose cost grows with |S|.
    """
    q = code_set.q
    codes = [code_of(word.symbols, q) for word in code_set.words]
    return _record(non_expandable_report(q, code_set.n, codes, max_space, all_witnesses))
