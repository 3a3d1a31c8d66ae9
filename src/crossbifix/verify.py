"""Indexed verification of cross-bifix-freeness and non-expandability.

A word of Z_q^n is read as its base-q integer code, so that its length-l
prefix is ``code // q**(n - l)`` and its length-l suffix is
``code % q**l``. Two words share a cross-bifix exactly when, for some
length l in 1..n-1, the length-l prefix of one equals the length-l suffix
of the other (Bilotta, Pergola and Pinzani, "A new approach to
cross-bifix-free sets", IEEE Trans. Inf. Theory, 2012). Both checks below
therefore join members and candidates on prefix and suffix codes, one length
at a time, instead of comparing every pair of words.

The reports are the ones the brute scans in ``oracle`` produce, witness for
witness; the tests hold the two side by side.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left

from .cbfs import CodeSet
from .oracle import DEFAULT_MAX_SPACE, VerificationReport, _check_space
from .words import Word, cross_bifix, is_bifix_free


def _codes(code_set: CodeSet) -> list[int]:
    """Base-q codes of the members; increasing, since members are in
    lexicographic order."""
    q = code_set.q
    codes = []
    for word in code_set.words:
        code = 0
        for s in word.symbols:
            code = code * q + s
        codes.append(code)
    return codes


def _violating_pairs(codes: list[int], q: int, n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of members sharing a cross-bifix, in
    ``itertools.combinations`` order.

    Members with a given length-l prefix x form the contiguous run of codes
    in [x * q**(n-l), (x + 1) * q**(n-l)), so each member's suffix is looked
    up in the set of prefixes and only a hit is resolved by bisection.
    """
    pairs = set()
    for length in range(1, n):
        shift, mod = q ** (n - length), q**length
        prefixes = {code // shift for code in codes}
        for j, code in enumerate(codes):
            x = code % mod
            if x in prefixes:
                lo = bisect_left(codes, x * shift)
                hi = bisect_left(codes, (x + 1) * shift, lo)
                pairs.update((i, j) if i < j else (j, i) for i in range(lo, hi) if i != j)
    return sorted(pairs)


def verify_cross_bifix_free_set(code_set: CodeSet) -> VerificationReport:
    """Report every unordered pair of distinct members that shares a
    cross-bifix, each with its shortest witness.

    ``pairs_checked`` counts the pairs covered, |S| (|S| - 1) / 2.
    """
    t0 = time.perf_counter()
    words = code_set.words
    witnesses = []
    for i, j in _violating_pairs(_codes(code_set), code_set.q, code_set.n):
        first, second = words[i], words[j]
        hit = cross_bifix(first, second)
        witnesses.append(
            {
                "first": first.to_text(),
                "second": second.to_text(),
                "cross_bifix": hit.word.to_text(),
                "prefix_of": hit.prefix_of,
            }
        )
    stats = {
        "pairs_checked": len(words) * (len(words) - 1) // 2,
        "candidates_checked": 0,
        "wall_time_s": time.perf_counter() - t0,
    }
    return VerificationReport("cross-bifix-set", not witnesses, tuple(witnesses), stats)


def verify_non_expandable(code_set: CodeSet, max_space: int = DEFAULT_MAX_SPACE) -> VerificationReport:
    """Check that no outside bifix-free word can join the set.

    Preconditions (members bifix-free, set cross-bifix-free) are verified
    first; their failure is reported as an error, not as expandability.
    Every outside bifix-free candidate, in lexicographic order, gets one
    witness: its cross-bifix with the first member in canonical order that
    blocks it, or nulls when no member does, which fails the check.
    """
    t0 = time.perf_counter()
    q, n = code_set.q, code_set.n

    def report(ok, witnesses, pairs, candidates, error=None):
        stats = {
            "pairs_checked": pairs,
            "candidates_checked": candidates,
            "wall_time_s": time.perf_counter() - t0,
        }
        return VerificationReport("non-expandable", ok, tuple(witnesses), stats, error)

    for member in code_set.words:
        if not is_bifix_free(member):
            return report(False, [], 0, 0, error=f"member {member.to_text()!r} is not bifix-free")
    pairwise = verify_cross_bifix_free_set(code_set)
    if not pairwise.ok:
        bad = pairwise.witnesses[0]
        return report(
            False,
            [],
            pairwise.stats["pairs_checked"],
            0,
            error=f"set is not cross-bifix-free: {bad['first']} / {bad['second']} share {bad['cross_bifix']}",
        )

    _check_space(q**n, max_space, "non-expandability")
    # The candidate space Z_q^n needs the domain oracle.enumerate_bifix_free checks.
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    words = code_set.words
    codes = _codes(code_set)
    texts = [w.to_text() for w in words]
    # Per length l: q**(n-l) and q**l, then the smallest member index with a
    # given length-l suffix, and with a given length-l prefix.
    index = []
    for length in range(1, n):
        shift, mod = q ** (n - length), q**length
        by_suffix, by_prefix = {}, {}
        for i, code in enumerate(codes):
            by_suffix.setdefault(code % mod, i)
            by_prefix.setdefault(code // shift, i)
        index.append((shift, mod, by_suffix, by_prefix))
    members = set(codes)
    unblocked = len(words)  # an index past every member
    witnesses = []
    candidates = 0
    ok = True
    for code, symbols in enumerate(itertools.product(range(q), repeat=n)):
        if code in members:
            continue
        blocking = unblocked
        for shift, mod, by_suffix, by_prefix in index:
            head, tail = code // shift, code % mod
            if head == tail:
                break  # a border: the candidate is not bifix-free
            blocking = min(blocking, by_suffix.get(head, unblocked), by_prefix.get(tail, unblocked))
        else:
            candidates += 1
            candidate = Word(symbols, q)
            if blocking == unblocked:
                ok = False
                witnesses.append(
                    {"candidate": candidate.to_text(), "cross_bifix": None, "blocking": None, "prefix_of": None}
                )
                continue
            hit = cross_bifix(candidate, words[blocking])
            witnesses.append(
                {
                    "candidate": candidate.to_text(),
                    "cross_bifix": hit.word.to_text(),
                    "blocking": texts[blocking],
                    "prefix_of": hit.prefix_of,
                }
            )
    return report(ok, witnesses, pairwise.stats["pairs_checked"], candidates)
