"""Exact counting and exhaustive generation of k-colored Motzkin words.

A k-colored Motzkin word of length n uses the alphabet {0, ..., k+1}: rise
(1), fall (0) and k level colors (2..k+1). Its path runs from (0,0) to (n,0)
without dipping below the x-axis.
"""

from __future__ import annotations

import threading
from typing import Iterator

from .words import FALL, RISE, Word, is_motzkin_word, symbol_step


class MotzkinCountTable:
    """Memoized exact counts of k-colored Motzkin words by length.

    Values satisfy count(0) = 1, count(1) = k and

        count(n + 1) = k * count(n) + sum(count(i) * count(n - 1 - i)
                                          for i in range(n))

    where the sum splits a word starting with a rise step at its matching
    fall step. Counts are Python integers, hence exact at any size, and
    count(m) == 0 for m < 0 so that downstream cardinality formulas evaluate
    cleanly at small lengths.
    """

    def __init__(self, colors: int):
        if colors < 0:
            raise ValueError(f"color count must be non-negative, got {colors}")
        self.colors = colors
        self._values = [1, colors]
        self._lock = threading.Lock()

    def count(self, n: int) -> int:
        if n < 0:
            return 0
        if n >= len(self._values):
            with self._lock:
                v = self._values
                while len(v) <= n:
                    m = len(v) - 1
                    v.append(self.colors * v[m] + sum(v[i] * v[m - 1 - i] for i in range(m)))
        return self._values[n]


_TABLES: dict[int, MotzkinCountTable] = {}


def motzkin_count(colors: int, n: int) -> int:
    """Number of Motzkin words of length n with the given level-color count."""
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    table = _TABLES.get(colors)
    if table is None:
        table = _TABLES.setdefault(colors, MotzkinCountTable(colors))
    return table.count(n)


def _closable(height: int, remaining: int, colors: int) -> bool:
    # Can a path at this height return to 0 in `remaining` steps without
    # going negative? Level steps absorb any parity slack when colors > 0.
    if height < 0 or height > remaining:
        return False
    return colors > 0 or (remaining - height) % 2 == 0


def generate_motzkin(colors: int, n: int) -> Iterator[Word]:
    """Yield every Motzkin word of the given length exactly once, in
    lexicographic order.

    The recursion picks the first symbol of the remaining suffix among the
    choices that can still be completed to a word ending at height 0.
    """
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    q = colors + 2
    buf = [0] * n

    def emit(pos: int, height: int) -> Iterator[Word]:
        if pos == n:
            yield Word(tuple(buf), q)
            return
        remaining = n - pos - 1
        if height > 0 and _closable(height - 1, remaining, colors):
            buf[pos] = FALL
            yield from emit(pos + 1, height - 1)
        if _closable(height + 1, remaining, colors):
            buf[pos] = RISE
            yield from emit(pos + 1, height + 1)
        if colors and _closable(height, remaining, colors):
            for color in range(2, q):
                buf[pos] = color
                yield from emit(pos + 1, height)

    return emit(0, 0)


def generate_elevated(colors: int, n: int) -> Iterator[Word]:
    """Yield the elevated Motzkin words 1 alpha 0 of length n, in
    lexicographic order. Lengths below 2 admit no elevated word, so the
    stream is empty."""
    if n < 2:
        return
    q = colors + 2
    for alpha in generate_motzkin(colors, n - 2):
        yield Word((RISE,) + alpha.symbols + (FALL,), q)


def has_ground_elevated_factor(word: Word, min_len: int) -> bool:
    """True iff the Motzkin word factors as u beta v with u, v Motzkin
    (possibly empty) and beta elevated with len(beta) >= min_len.

    Such a beta is exactly an arch between two consecutive returns of the
    path to height 0, so it suffices to measure the gaps between ground
    contacts. Arches of length 1 are lone level steps, never elevated.
    """
    if not is_motzkin_word(word):
        raise ValueError(f"not a Motzkin word: {word.to_text()!r}")
    need = max(min_len, 2)
    height = 0
    last_ground = 0
    for j, s in enumerate(word.symbols, start=1):
        height += symbol_step(s)
        if height == 0:
            if j - last_ground >= need:
                return True
            last_ground = j
    return False
