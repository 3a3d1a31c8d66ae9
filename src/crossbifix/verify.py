"""Indexed verification of cross-bifix-freeness and non-expandability.

A word of Z_q^n is read as its base-q integer code, so that its length-l
prefix is ``code // q**(n - l)`` and its length-l suffix is
``code % q**l``. Two words share a cross-bifix exactly when, for some
length l in 1..n-1, the length-l prefix of one equals the length-l suffix
of the other (Bilotta, Pergola and Pinzani, "A new approach to
cross-bifix-free sets", IEEE Trans. Inf. Theory, 2012). Both checks below
therefore join members and candidates on prefix and suffix codes, one length
at a time, instead of comparing every pair of words. A witness is found and
written from the codes as well (``_shortest_border``), so no ``Word`` is
built.

The reports are the ones the brute scans in ``oracle`` produce, witness for
witness, except that the non-expandability report lists only unblocked
candidates unless every witness is asked for; the tests hold the two side by
side.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from functools import cache
from typing import TYPE_CHECKING

from .counting import DEFAULT_MAX_SPACE
from .words import VerificationReport, code_of, format_symbols, symbols_of

if TYPE_CHECKING:
    from .codeset import CodeSet


def _shared_borders(codes: list[int], q: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """The index pairs (i, j), i < j, of members sharing a cross-bifix, in
    ``itertools.combinations`` order, and the smallest index of a member
    with a border, or ``len(codes)`` if every member is bifix-free.

    Members with a given length-l prefix x form the contiguous run of codes
    in [x * q**(n-l), (x + 1) * q**(n-l)), so each member's suffix is looked
    up in the set of prefixes and only a hit is resolved by bisection. A
    member in the run of its own suffix has a border of length l.
    """
    pairs = set()
    bordered = len(codes)
    for length in range(1, n):
        shift, mod = q ** (n - length), q**length
        prefixes = {code // shift for code in codes}
        for j, code in enumerate(codes):
            x = code % mod
            if x in prefixes:
                lo = bisect_left(codes, x * shift)
                hi = bisect_left(codes, (x + 1) * shift, lo)
                if lo <= j < hi:
                    bordered = min(bordered, j)
                pairs.update((i, j) if i < j else (j, i) for i in range(lo, hi) if i != j)
    return sorted(pairs), bordered


def _text(code: int, q: int, n: int) -> str:
    """The text of the length-n word with base-q code ``code``."""
    return format_symbols(symbols_of(code, q, n), q)


def _shortest_border(a: int, b: int, q: int, n: int) -> tuple[int, str] | None:
    """``(length, prefix_of)`` of the shortest cross-bifix of the words of
    Z_q^n with base-q codes ``a`` and ``b``, or None if they share none:
    for l = 1..n-1, the length-l prefix of ``a`` is tested against the
    length-l suffix of ``b`` ("first") before the other way round
    ("second"), the order in which ``codeset.cross_bifix`` breaks ties."""
    for length in range(1, n):
        shift, mod = q ** (n - length), q**length
        if a // shift == b % mod:
            return length, "first"
        if b // shift == a % mod:
            return length, "second"
    return None


def _cross_bifix_text(a: int, b: int, q: int, n: int) -> tuple[str, str]:
    """The text of the shortest cross-bifix of two words that share one, as
    base-q codes in Z_q^n, and the argument it is a prefix of."""
    length, prefix_of = _shortest_border(a, b, q, n)
    prefix = (a if prefix_of == "first" else b) // q ** (n - length)
    return _text(prefix, q, length), prefix_of


def cross_bifix_report(q: int, n: int, codes: list[int]) -> VerificationReport:
    """``verify_cross_bifix_free_set`` on the increasing base-q codes of
    the members of a set in Z_q^n."""
    t0 = time.perf_counter()
    witnesses = []
    for i, j in _shared_borders(codes, q, n)[0]:
        share, prefix_of = _cross_bifix_text(codes[i], codes[j], q, n)
        witnesses.append(
            {
                "first": _text(codes[i], q, n),
                "second": _text(codes[j], q, n),
                "cross_bifix": share,
                "prefix_of": prefix_of,
            }
        )
    stats = {
        "pairs_checked": len(codes) * (len(codes) - 1) // 2,
        "candidates_checked": 0,
        "wall_time_s": time.perf_counter() - t0,
    }
    return VerificationReport("cross-bifix-set", not witnesses, tuple(witnesses), stats)


def verify_cross_bifix_free_set(code_set: CodeSet) -> VerificationReport:
    """Report every unordered pair of distinct members that shares a
    cross-bifix, each with its shortest witness.

    ``pairs_checked`` counts the pairs covered, |S| (|S| - 1) / 2.
    """
    q = code_set.q
    return cross_bifix_report(q, code_set.n, [code_of(word.symbols, q) for word in code_set.words])


def count_bifix_free(q: int, n: int) -> int:
    """Number of bifix-free (unbordered) words in Z_q^n, by the recurrence
    U(1) = q, U(2m + 1) = q U(2m), U(2m) = q U(2m - 1) - U(m)."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    u = [0, q]
    for m in range(2, n + 1):
        u.append(q * u[m - 1] - (0 if m % 2 else u[m // 2]))
    return u[n]


def _walk(q: int, n: int, codes: list[int], all_witnesses: bool = False):
    """Yield ``(code, first)`` for the outside bifix-free candidates of
    Z_q^n in lexicographic order, where ``codes`` are the members' base-q
    codes in increasing order and ``first`` is the smallest index of a
    member that blocks the candidate, or ``len(codes)`` if none does.

    A candidate is blocked exactly when one of its proper prefixes is a
    suffix of a member or one of its proper suffixes is a prefix of a
    member. The candidates are walked depth first over their prefixes, and
    a prefix that is a member's suffix blocks every word below it. By
    default that subtree is cut and only unblocked candidates are yielded;
    with ``all_witnesses`` nothing is cut and every candidate is yielded.
    """
    unblocked = len(codes)  # an index past every member
    # Per length l = 1..n-1: the smallest member index with a given length-l
    # suffix, for the walk, and q**(n-l), q**l and the smallest member index
    # with a given length-l prefix, for the candidates' tails.
    by_suffix = [{}]
    tails = []
    for length in range(1, n):
        shift, mod = q ** (n - length), q**length
        suffixes, prefixes = {}, {}
        for i, code in enumerate(codes):
            suffixes.setdefault(code % mod, i)
            prefixes.setdefault(code // shift, i)
        by_suffix.append(suffixes)
        tails.append((shift, mod, prefixes))
    members = set(codes)
    # Entries: a prefix code, its length, and the smallest member index with
    # a suffix equal to one of the prefix's own prefixes (``unblocked`` if
    # none). Children are pushed last first, so they come off in order.
    stack = [(0, 0, unblocked)]
    while stack:
        prefix, length, blocking = stack.pop()
        base = prefix * q
        if length < n - 1:
            suffixes = by_suffix[length + 1]
            for code in range(base + q - 1, base - 1, -1):
                hit = suffixes.get(code, unblocked)
                if hit == unblocked:
                    stack.append((code, length + 1, blocking))
                elif all_witnesses:
                    stack.append((code, length + 1, min(hit, blocking)))
            continue
        for code in range(base, base + q):
            if code in members:
                continue
            first = blocking
            for shift, mod, prefixes in tails:
                tail = code % mod
                if code // shift == tail:
                    break  # a border: the word is not bifix-free
                hit = prefixes.get(tail, unblocked)
                if hit < first:
                    first = hit
                    if not all_witnesses:
                        break  # blocked, and only unblocked words are listed
            else:
                yield code, first


def iter_bifix_free(q: int, n: int):
    """Stream the bifix-free words of Z_q^n as symbol tuples in
    lexicographic order: the candidates that an empty set leaves unblocked.

    Domain errors are raised on the call, before the first word.
    """
    count_bifix_free(q, n)
    return (symbols_of(code, q, n) for code, _ in _walk(q, n, []))


def non_expandable_report(
    q: int, n: int, codes: list[int], max_space: int = DEFAULT_MAX_SPACE, all_witnesses: bool = False
) -> VerificationReport:
    """``verify_non_expandable`` on the increasing base-q codes of the
    members of a set in Z_q^n."""
    t0 = time.perf_counter()

    def report(ok, witnesses, pairs, candidates, error=None):
        stats = {
            "pairs_checked": pairs,
            "candidates_checked": candidates,
            "wall_time_s": time.perf_counter() - t0,
        }
        return VerificationReport("non-expandable", ok, tuple(witnesses), stats, error)

    candidates = count_bifix_free(q, n) - len(codes)
    if candidates > max_space:
        raise ValueError(f"non-expandability needs a walk over {candidates} candidates, above the cap of {max_space}")
    bad, bordered = _shared_borders(codes, q, n)
    if bordered < len(codes):
        return report(False, [], 0, 0, error=f"member {_text(codes[bordered], q, n)!r} is not bifix-free")
    pairs = len(codes) * (len(codes) - 1) // 2
    if bad:
        left, right = (codes[i] for i in bad[0])
        share = _cross_bifix_text(left, right, q, n)[0]
        error = f"set is not cross-bifix-free: {_text(left, q, n)} / {_text(right, q, n)} share {share}"
        return report(False, [], pairs, 0, error=error)

    witnesses = []
    member_text = cache(lambda i: _text(codes[i], q, n))  # one text per blocking member
    for code, first in _walk(q, n, codes, all_witnesses):
        witness = {"candidate": _text(code, q, n), "cross_bifix": None, "blocking": None, "prefix_of": None}
        if first < len(codes):
            share, prefix_of = _cross_bifix_text(code, codes[first], q, n)
            witness.update(cross_bifix=share, blocking=member_text(first), prefix_of=prefix_of)
        witnesses.append(witness)
    ok = all(w["blocking"] is not None for w in witnesses)
    return report(ok, witnesses, pairs, candidates)


def verify_non_expandable(
    code_set: CodeSet, max_space: int = DEFAULT_MAX_SPACE, all_witnesses: bool = False
) -> VerificationReport:
    """Check that no outside bifix-free word can join the set.

    Preconditions (members bifix-free, set cross-bifix-free) are verified
    first; their failure is reported as an error, not as expandability.
    The candidates come from the prefix walk ``_walk``, which cuts every
    subtree below a prefix that is a member's suffix.

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
    return non_expandable_report(q, code_set.n, codes, max_space, all_witnesses)
