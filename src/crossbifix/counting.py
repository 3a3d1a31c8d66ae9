"""Exact counting: the k-colored Motzkin numbers and the sizes of CBFS(q, n).

Counting never builds a word, so this module imports nothing from the rest
of the package: ``count`` and ``table`` load it without the walk, ``Word``
or ``CodeSet``. ``motzkin`` re-exports ``motzkin_count`` and
``motzkin_counts``, and ``cbfs`` re-exports ``count_cbfs`` and
``family_sizes``.

Each family size is a closed form in the Motzkin numbers near n/2 and n,
so one pass of the recurrence that keeps two running values serves every
length, and no sum runs term by term.
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
    _require_domain(q, n)
    _check_families(families)
    sizes = dict(zip("ABC", family_sizes(q, (n,))[n]))
    return sum(sizes[name] for name in families)


def family_sizes(q: int, n_values: Iterable[int]) -> dict[int, tuple[int, int, int]]:
    """(|A|, |B|, |C|) of CBFS(q, n) for every n in ``n_values``.

    Each family is a sum of products M(t) M(T-t). The full sum over
    0 <= t <= T is Conv(T) = M(T+2) - k M(T+1), and its terms are symmetric
    under t -> T - t, so the terms with t < T/2 sum to the lower half
    L(T) = (Conv(T) - [T even] M(T/2)^2) / 2 (``_lower_half``). With
    h = n // 2, each family is then one or two lower halves and at most
    three products of M near n/2:

    * n = 2h:   |A| = L(n-2) + M(h-1)^2 + M(h) M(h-2) - M(h-2)^2
                |B| = L(n-3) + M(h-1) M(h-2)
                |C| = 2 M(n-1) - L(n-1) - M(h) M(h-1) - M(h+1) M(h-2)
                      + k (|A| + M(h-2)^2)
    * n = 2h+1: |A| = L(n-2) + M(h) M(h-1)
                |B| = L(n-3) + M(h-1)^2
                |C| = 2 M(n-1) - L(n-1) - M(h)^2 - M(h+1) M(h-1) + k |A|

    so every length reads only M(h-2..h+1) and M(n-2..n+1), all taken from
    one walk of the Motzkin recurrence, and sums nothing term by term.

    |A| sums t = 0..h with T = n-2, less [n even] M(h-2)^2, the words made
    of two same-length elevated halves; |B| sums t = 0..h-1 with T = n-3.
    |C| is M(n-1) less the Motzkin words u beta v with beta a ground-level
    elevated factor of length j >= c = ceil(n/2). Two such factors cannot
    coexist, so each excluded word is counted once, in
    sum_{t=c-2}^{n-3} M(t) (M(n-1-t) - k M(n-2-t)) with t = j - 2, where
    M(m+2) - k M(m+1) counts the pairs (u, v) of total length m. The mirror
    t -> T - t turns its two sums into sums over t = 0..h+1 (T = n-1) and
    t = 0..h (T = n-2, the sum of |A|), less their edge terms: M(0) M(n-1)
    = M(n-1), which doubles M(n-1), and M(1) M(n-2) = k M(n-2) and
    k M(0) M(n-2), which cancel.
    """
    n_values = tuple(n_values)
    wanted = set()
    for n in n_values:
        _require_domain(q, n)
        wanted.update(range(n // 2 - 2, n // 2 + 2), range(n - 2, n + 2))
    k = q - 2
    m = motzkin_counts(k, wanted)
    sizes = {}
    for n in n_values:
        h = n // 2
        m0, m1, m2, m3 = m[h - 2], m[h - 1], m[h], m[h + 1]
        # s2 and s1: the sums over t = 0..h at T = n-2 and t = 0..h+1 at T = n-1
        if n % 2:
            a = s2 = _lower_half(m, k, n - 2) + m2 * m1
            b = _lower_half(m, k, n - 3) + m1 * m1
            s1 = _lower_half(m, k, n - 1) + m2 * m2 + m3 * m1
        else:
            s2 = _lower_half(m, k, n - 2) + m1 * m1 + m2 * m0
            a = s2 - m0 * m0
            b = _lower_half(m, k, n - 3) + m1 * m0
            s1 = _lower_half(m, k, n - 1) + m2 * m1 + m3 * m0
        sizes[n] = (a, b, 2 * m[n - 1] - s1 + k * s2)
    return sizes


def _lower_half(m: dict[int, int], k: int, t_sum: int) -> int:
    """L(T) = sum_{t < T/2} M(t) M(T-t) for T = t_sum >= 0, with M read from
    ``m``: half of Conv(T) = M(T+2) - k M(T+1) less its middle term."""
    conv = m[t_sum + 2] - k * m[t_sum + 1]
    if t_sum % 2 == 0:
        conv -= m[t_sum // 2] ** 2
    return conv // 2
