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
witness, except that the non-expandability report lists only unblocked
candidates unless every witness is asked for; the tests hold the two side by
side.
"""

from __future__ import annotations

import time
from bisect import bisect_left

from .cbfs import DEFAULT_MAX_SPACE, CodeSet, VerificationReport
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


def _symbols(code: int, q: int, n: int) -> tuple[int, ...]:
    """The length-n word with base-q code ``code``."""
    symbols = [0] * n
    for i in range(n - 1, -1, -1):
        code, symbols[i] = divmod(code, q)
    return tuple(symbols)


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


def check_candidate_cap(q: int, n: int, members: int, max_space: int) -> int:
    """Return the outside bifix-free candidates of a set of ``members``
    words in Z_q^n, U_q(n) - members, or raise ValueError when they are more
    than ``max_space``. A bound on the members, such as the distinct lines of
    an input not yet parsed, gives a bound on the candidates, so a refusal
    on it holds for the set too."""
    candidates = count_bifix_free(q, n) - members
    if candidates > max_space:
        raise ValueError(f"non-expandability needs a walk over {candidates} candidates, above the cap of {max_space}")
    return candidates


def iter_bifix_free(q: int, n: int):
    """Stream the bifix-free words of Z_q^n as symbol tuples in
    lexicographic order: the candidates that an empty set leaves unblocked.

    Domain errors are raised on the call, before the first word.
    """
    count_bifix_free(q, n)
    return (_symbols(code, q, n) for code, _ in _walk(q, n, []))


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
    t0 = time.perf_counter()
    q, n = code_set.q, code_set.n

    def report(ok, witnesses, pairs, candidates, error=None):
        stats = {
            "pairs_checked": pairs,
            "candidates_checked": candidates,
            "wall_time_s": time.perf_counter() - t0,
        }
        return VerificationReport("non-expandable", ok, tuple(witnesses), stats, error)

    candidates = check_candidate_cap(q, n, len(code_set), max_space)
    words = code_set.words
    for member in words:
        if not is_bifix_free(member):
            return report(False, [], 0, 0, error=f"member {member.to_text()!r} is not bifix-free")
    pairs = len(words) * (len(words) - 1) // 2
    codes = _codes(code_set)
    bad = _violating_pairs(codes, q, n)
    if bad:
        left, right = (words[i] for i in bad[0])
        share = cross_bifix(left, right).word.to_text()
        error = f"set is not cross-bifix-free: {left.to_text()} / {right.to_text()} share {share}"
        return report(False, [], pairs, 0, error=error)

    witnesses = []
    for code, first in _walk(q, n, codes, all_witnesses):
        candidate = Word(_symbols(code, q, n), q)
        witness = {"candidate": candidate.to_text(), "cross_bifix": None, "blocking": None, "prefix_of": None}
        if first < len(words):
            hit = cross_bifix(candidate, words[first])
            witness.update(cross_bifix=hit.word.to_text(), blocking=words[first].to_text(), prefix_of=hit.prefix_of)
        witnesses.append(witness)
    ok = all(w["blocking"] is not None for w in witnesses)
    return report(ok, witnesses, pairs, candidates)
