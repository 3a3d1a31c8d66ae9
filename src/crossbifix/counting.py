"""Exact counting: the k-colored Motzkin numbers and the sizes of CBFS(q, n).

Counting never builds a word, so this module imports nothing from the rest
of the package: ``count`` and ``table`` load it without the walk, ``Word``
or ``CodeSet``. ``motzkin`` re-exports ``motzkin_count`` and
``motzkin_counts``, and ``cbfs`` re-exports ``count_cbfs`` and
``family_sizes``.
"""

from __future__ import annotations

from typing import Iterable

# Default cap on the words a verification scan may cover.
DEFAULT_MAX_SPACE = 10_000_000


def motzkin_counts(colors: int, lengths: Iterable[int]) -> dict[int, int]:
    """M(m) for every m in ``lengths``, from one pass of the P-recurrence

        (m + 2) M(m) = k (2m + 1) M(m - 1) + (4 - k^2) (m - 1) M(m - 2)

    with M(0) = 1, M(1) = k, whose division is exact. The pass keeps only
    the last two values and the requested ones, so nothing outlives the
    call. Counts are Python integers, exact at any size, and M(m) = 0 for
    m < 0 so that the family formulas evaluate cleanly at small lengths.
    """
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    return _p_walk(colors, set(lengths), (1, colors))


def _p_walk(k: int, wanted: set[int], start: tuple[int, int]) -> dict[int, int]:
    out = {m: 0 if m < 0 else start[m] for m in wanted if m < 2}
    prev, cur = start  # M(m - 2), M(m - 1) when the loop computes M(m)
    for m in range(2, max(wanted, default=0) + 1):
        value, rest = divmod(k * (2 * m + 1) * cur + (4 - k * k) * (m - 1) * prev, m + 2)
        if rest:
            raise RuntimeError(f"inexact Motzkin recurrence at k={k}, m={m}")
        prev, cur = cur, value
        if m in wanted:
            out[m] = value
    return out


def motzkin_count(colors: int, n: int) -> int:
    """Number of Motzkin words of length n with the given level-color count."""
    return motzkin_counts(colors, (n,))[n]


def _require_domain(q: int, n: int) -> None:
    if q < 3:
        raise ValueError(f"construction needs an alphabet of size q >= 3, got {q}")
    if n < 3:
        raise ValueError(f"construction needs word length n >= 3, got {n}")


def _check_families(families: str) -> None:
    if not families or not set(families) <= set("ABC") or len(set(families)) != len(families):
        raise ValueError(f"families must be distinct letters of 'ABC', got {families!r}")


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
