"""The zero-run baseline construction used for size comparisons.

The baseline family S(k, q, n) collects the words that start with exactly k
zeros (the symbol after the run and the last symbol are non-zero) and whose
interior carries no further run of k zeros. Every such set is
cross-bifix-free; its size is (q-1)^2 * F(n-k-2) where F counts words
avoiding a k-zero run. The best size over admissible k gives the reference
values our construction is measured against.

The words of S(k, q, n) are those of the walk (``walk``) of a
``motzkin.ZeroRunTable``, which ``baseline_table`` builds; it imports the
table only when called, so counting (``table``, ``count --set S``) loads no
part of the walk. ``codeset.construct_baseline_set`` wraps the words of
that walk in a ``CodeSet``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

from . import DEFAULT_MAX_SPACE

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .motzkin import ZeroRunTable


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


def baseline_table(k: int, q: int, n: int, max_space: int = DEFAULT_MAX_SPACE) -> tuple[int, ZeroRunTable]:
    """``(size, table)`` of S(k, q, n): its number of words and the
    ``motzkin.ZeroRunTable`` whose walk lists them in canonical order.

    Admits 1 <= k <= n-2 (k = 1 arises in the extended maximization). An
    interior space q^(n-k-2) beyond max_space is refused. Every check is
    made on the call.
    """
    from .motzkin import ZeroRunTable
    from .words import check_alphabet

    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 1 <= k <= n - 2:
        raise ValueError(f"run length k must satisfy 1 <= k <= n-2, got k={k}, n={n}")
    middle_len = n - k - 2
    # exact: past the bit length of max_space, q^m exceeds it already
    if q ** min(middle_len, max_space.bit_length()) > max_space:
        raise ValueError(
            f"interior space {q}^{middle_len} exceeds the cap of {max_space}; raise max_space to force"
        )
    check_alphabet(q)
    return (q - 1) ** 2 * f_count(k, q, middle_len), ZeroRunTable(k, q, n)


def best_sizes(q: int, n_values: Iterable[int], k_min: int) -> dict[int, tuple[int, int]]:
    """(largest baseline size, smallest maximizing k) over k_min <= k <= n-2,
    for every n in ``n_values`` that admits such a k; the others are left out.

    The size at k is (q-1)^2 F_k(m), m = n-k-2. A word avoiding 0^k splits
    into blocks of k + 1 symbols, each one of the q^(k+1) - 2q + 1 blocks
    without 0^k, and a shorter rest, so

        F_k(m) <= (q^(k+1) - 2q + 1)^(m // (k+1)) * q^(m % (k+1)),

    which falls ever further below q^m as m grows. The maximum lies near
    k = log_q n, so that run length, taken for the longest length, is
    walked first, and then k_min, k_min + 1, ... in turn. A length skips a
    run length whose bound is below its best size; one whose bound equals
    it is walked, as it may tie at a smaller k. Past the first run length,
    a length stops at the first k where (q-1)^2 q^m, a bound that falls as
    k grows, is at most its best size. Each run length is walked at most
    once, by one zero-run walk for all the lengths that need it.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    weight = (q - 1) ** 2
    best: dict[int, tuple[int, int]] = {}
    open_lengths = {n for n in n_values if n - 2 >= k_min}
    if not open_lengths:
        return best
    top = max(open_lengths)
    first = min(max(round(math.log(top, q)), k_min), top - 2)
    for k in itertools.chain((first,), range(k_min, first), itertools.count(first + 1)):
        if k > first:
            # every run length walked so far is below k, so no tie at k wins
            open_lengths = {n for n in open_lengths if k <= n - 2 and weight * q ** (n - k - 2) > best[n][0]}
            if not open_lengths:
                break
        blocks = q ** (k + 1) - 2 * q + 1
        walk = []
        for n in open_lengths:
            m = n - k - 2
            if m < 0:
                continue
            if n in best and weight * blocks ** (m // (k + 1)) * q ** (m % (k + 1)) < best[n][0]:
                continue
            walk.append(n)
        if walk:
            counts = zero_run_counts(k, q, {n - k - 2 for n in walk})
            for n in walk:
                value = weight * counts[n - k - 2]
                if n not in best or value > best[n][0] or (value == best[n][0] and k < best[n][1]):
                    best[n] = (value, k)
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
