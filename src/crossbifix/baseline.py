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
import threading

from .cbfs import CodeSet
from .words import Word


class ZeroRunAvoidanceTable:
    """Memoized exact counts F(n) of words in Z_q^n with no factor 0^k.

    F(n) = q^n for n < k, F(k) = q^k - 1 and F(n) = q F(n-1) - (q-1) F(n-k-1) for n > k:
    two windows of F(n) = (q-1) (F(n-1) + ... + F(n-k)), which splits words at their first
    non-zero symbol, differ by that much. The run length k is not the Motzkin color count.
    """

    def __init__(self, run_length: int, q: int):
        if run_length < 1:
            raise ValueError(f"forbidden run length must be >= 1, got {run_length}")
        if q < 2:
            raise ValueError(f"alphabet size must be >= 2, got {q}")
        self.run_length = run_length
        self.q = q
        self._values: list[int] = [q**i for i in range(run_length)]
        self._lock = threading.Lock()

    def count(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"length must be non-negative, got {n}")
        if n >= len(self._values):
            with self._lock:
                q, k, v = self.q, self.run_length, self._values
                while len(v) <= n:
                    m = len(v)
                    v.append(q * v[m - 1] - ((q - 1) * v[m - k - 1] if m > k else 1))
        return self._values[n]


_TABLES: dict[tuple[int, int], ZeroRunAvoidanceTable] = {}


def f_count(k: int, q: int, n: int) -> int:
    """Number of words in Z_q^n avoiding k consecutive zeros."""
    table = _TABLES.get((k, q))
    if table is None:
        table = _TABLES.setdefault((k, q), ZeroRunAvoidanceTable(k, q))
    return table.count(n)


def _contains_zero_run(symbols: tuple[int, ...], k: int) -> bool:
    run = 0
    for s in symbols:
        run = run + 1 if s == 0 else 0
        if run >= k:
            return True
    return False


def construct_baseline_set(k: int, q: int, n: int, max_space: int = 10_000_000) -> CodeSet:
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


def _best_over_run_lengths(n: int, q: int, k_min: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n - 2 < k_min:
        raise ValueError(f"no admissible run length: need {k_min} <= k <= n-2 with n={n}")
    best_value = best_k = None
    for k in range(k_min, n - 1):
        value = (q - 1) ** 2 * f_count(k, q, n - k - 2)
        if best_value is None or value > best_value:
            best_value, best_k = value, k
    return best_value, best_k


def s_max(n: int, q: int) -> tuple[int, int]:
    """Largest baseline size over 2 <= k <= n-2, with the smallest
    maximizing k. Raises when the range is empty (n < 4)."""
    return _best_over_run_lengths(n, q, 2)


def s_star(n: int, q: int) -> tuple[int, int]:
    """Largest baseline size over the extended range 1 <= k <= n-2."""
    return _best_over_run_lengths(n, q, 1)
