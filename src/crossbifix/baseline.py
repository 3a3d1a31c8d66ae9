"""The zero-run baseline construction used for size comparisons.

The baseline family S(k, q, n) collects the words that start with exactly k
zeros (the symbol after the run and the last symbol are non-zero) and whose
interior carries no further run of k zeros. Every such set is
cross-bifix-free; its size is (q-1)^2 * F(n-k-2) where F counts words
avoiding a k-zero run. The best size over admissible k gives the reference
values our construction is measured against.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .cbfs import DEFAULT_MAX_SPACE, CodeSet
from .words import Word


def zero_run_counts(k: int, q: int, lengths: Iterable[int]) -> dict[int, int]:
    """F(m) for every m in ``lengths``: the number of words in Z_q^m with no factor 0^k.

    F(m) = q^m for m < k, F(k) = q^k - 1 and F(m) = q F(m-1) - (q-1) F(m-k-1) for m > k:
    two windows of F(m) = (q-1) (F(m-1) + ... + F(m-k)), which splits words at their first
    non-zero symbol, differ by that much. One pass keeps a ring of the last k + 1 values and
    the requested ones, so nothing outlives the call. The run length k is not the Motzkin
    color count.
    """
    if k < 1:
        raise ValueError(f"forbidden run length must be >= 1, got {k}")
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    wanted = set(lengths)
    if min(wanted, default=0) < 0:
        raise ValueError(f"length must be non-negative, got {min(wanted)}")
    top = max(wanted, default=0)
    ring = [q**m for m in range(min(k, top + 1))]  # ring[m % (k + 1)] holds F(m)
    if top >= k:
        ring.append(q**k - 1)
    out = {m: ring[m] for m in wanted if m <= k}
    prev = ring[-1]
    for m in range(k + 1, top + 1):
        slot = m % (k + 1)
        prev = ring[slot] = q * prev - (q - 1) * ring[slot]
        if m in wanted:
            out[m] = prev
    return out


def f_count(k: int, q: int, n: int) -> int:
    """Number of words in Z_q^n avoiding k consecutive zeros."""
    return zero_run_counts(k, q, (n,))[n]


def _contains_zero_run(symbols: tuple[int, ...], k: int) -> bool:
    run = 0
    for s in symbols:
        run = run + 1 if s == 0 else 0
        if run >= k:
            return True
    return False


def construct_baseline_set(k: int, q: int, n: int, max_space: int = DEFAULT_MAX_SPACE) -> CodeSet:
    """All words of S(k, q, n), by filtered enumeration of the interior.

    Admits 1 <= k <= n-2 (k = 1 arises in the extended maximization). The
    enumeration cost is q^(n-k-2); instances beyond max_space are refused.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 1 <= k <= n - 2:
        raise ValueError(f"run length k must satisfy 1 <= k <= n-2, got k={k}, n={n}")
    middle_len = n - k - 2
    if q**middle_len > max_space:
        raise ValueError(
            f"interior space {q}^{middle_len} exceeds the cap of {max_space}; raise max_space to force"
        )
    prefix = (0,) * k
    nonzero = range(1, q)
    out = []
    for middle in itertools.product(range(q), repeat=middle_len):
        if _contains_zero_run(middle, k):
            continue
        for first in nonzero:
            for last in nonzero:
                out.append((Word(prefix + (first,) + middle + (last,), q), "baseline"))
    return CodeSet.build(q, n, out)


def best_sizes(q: int, n_values: Iterable[int], k_min: int) -> dict[int, tuple[int, int]]:
    """(largest baseline size, smallest maximizing k) over k_min <= k <= n-2,
    for every n in ``n_values`` that admits such a k; the others are left out.

    The size at k is (q-1)^2 F_k(n-k-2) <= (q-1)^2 q^(n-k-2), a bound that
    falls as k grows, so a length stops at the first k where the bound is at
    most its best size: no larger k can beat it. The run lengths are taken in
    turn, each with one zero-run walk for all lengths still open.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    weight = (q - 1) ** 2
    best: dict[int, tuple[int, int]] = {}
    k = k_min
    open_lengths = {n for n in n_values if n - 2 >= k}
    while open_lengths:
        counts = zero_run_counts(k, q, {n - k - 2 for n in open_lengths})
        for n in open_lengths:
            value = weight * counts[n - k - 2]
            if n not in best or value > best[n][0]:
                best[n] = (value, k)
        k += 1
        open_lengths = {n for n in open_lengths if k <= n - 2 and weight * q ** (n - k - 2) > best[n][0]}
    return best


def _best_at(n: int, q: int, k_min: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n - 2 < k_min:
        raise ValueError(f"no admissible run length: need {k_min} <= k <= n-2 with n={n}")
    return best_sizes(q, (n,), k_min)[n]


def s_max(n: int, q: int) -> tuple[int, int]:
    """Largest baseline size over 2 <= k <= n-2, with the smallest
    maximizing k. Raises when the range is empty (n < 4)."""
    return _best_at(n, q, 2)


def s_star(n: int, q: int) -> tuple[int, int]:
    """Largest baseline size over the extended range 1 <= k <= n-2."""
    return _best_at(n, q, 1)
