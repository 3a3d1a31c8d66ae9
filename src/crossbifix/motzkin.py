"""Exact counting and exhaustive generation of k-colored Motzkin words.

A k-colored Motzkin word of length n uses the alphabet {0, ..., k+1}: rise
(1), fall (0) and k level colors (2..k+1). Its path runs from (0,0) to (n,0)
without dipping below the x-axis.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator

from .words import FALL, RISE, Word, is_motzkin_word, symbol_step


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


def lex_paths(
    q: int,
    prefix: tuple[int, ...],
    floor: list[int],
    max_arch: int | None = None,
    skip_first_return: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield, in lexicographic order, the symbol tuples over {0, ..., q-1}
    that start with ``prefix`` and whose paths satisfy these bounds:

    * the word has length ``len(floor) - 1`` and ends at height ``floor[-1]``,
    * after p symbols (p > len(prefix)) the height is at least ``floor[p]``
      and at most ``floor[-1]`` plus the steps left,
    * with ``max_arch``, every stretch above height 0 between two visits
      to height 0 lasts at most ``max_arch`` steps,
    * with ``skip_first_return``, the path does not first come back to
      height 0 at that position.

    The walk is a depth-first search over (position, height, last visit to
    height 0) that tries the fall, the rise and then the level colors, so
    words come out in order. A branch is cut as soon as its height leaves
    the bounds, or an open arch could no longer close within ``max_arch``.
    With the floors this package uses, every prefix kept extends to a
    word. Each call yields fresh tuples and holds one path in memory.
    """
    n = len(floor) - 1
    final = floor[n]
    start = len(prefix)
    if start > n:
        raise ValueError(f"prefix of length {start} is longer than the word, {n}")
    heights = list(accumulate(map(symbol_step, prefix), initial=0))
    height = heights[-1]
    ground = max(p for p, h in enumerate(heights) if h == 0)
    if q == 2 and (n - start - height + final) % 2:
        return  # without level steps every step changes the parity
    if start == n:
        if height == final:
            yield tuple(prefix)
        return
    arch = n + 1 + abs(final) if max_arch is None else max_arch  # never binds when None
    no_return = -1 if skip_first_return is None else skip_first_return
    top = final + n
    levels = range(2, q)
    levels_desc = range(q - 1, 1, -1)
    buf = list(prefix) + [0] * (n - start)
    last = n - 1
    # Pending nodes (position, symbol placed at position - 1, height, last
    # visit to 0), pushed in reverse order so they pop in lexicographic
    # order. The children of a node at the last position are emitted
    # directly rather than pushed.
    stack = [(start, -1, height, ground)]
    pop, push = stack.pop, stack.append
    while stack:
        p, s, h, g = pop()
        if s >= 0:
            buf[p - 1] = s
        np = p + 1
        low = floor[np]
        cap = min(top - np, g + arch - np)
        if p == last:
            if low <= h - 1 <= cap and not (np == no_return and h == 1 and g == 0):
                buf[p] = FALL
                yield tuple(buf)
            if low <= h + 1 <= cap:
                buf[p] = RISE
                yield tuple(buf)
            if low <= h <= cap:
                for color in levels:
                    buf[p] = color
                    yield tuple(buf)
            continue
        if low <= h <= cap:
            ng = np if h == 0 else g
            for color in levels_desc:
                push((np, color, h, ng))
        if low <= h + 1 <= cap:
            push((np, RISE, h + 1, g))
        if low <= h - 1 <= cap and not (np == no_return and h == 1 and g == 0):
            push((np, FALL, h - 1, np if h == 1 else g))


def motzkin_paths(colors: int, n: int) -> Iterator[tuple[int, ...]]:
    """The symbol tuples of ``generate_motzkin(colors, n)``, same order."""
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    return lex_paths(colors + 2, (), [0] * (n + 1))


def elevated_paths(colors: int, n: int) -> Iterator[tuple[int, ...]]:
    """The symbol tuples of ``generate_elevated(colors, n)``, same order:
    a rise, a path staying at height >= 1, and a fall back to 0."""
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    if n < 2:
        return iter(())
    return lex_paths(colors + 2, (RISE,), [0] + [1] * (n - 1) + [0])


def generate_motzkin(colors: int, n: int) -> Iterator[Word]:
    """Yield every Motzkin word of the given length exactly once, in
    lexicographic order."""
    q = colors + 2
    return (Word(symbols, q) for symbols in motzkin_paths(colors, n))


def generate_elevated(colors: int, n: int) -> Iterator[Word]:
    """Yield the elevated Motzkin words 1 alpha 0 of length n, in
    lexicographic order. Lengths below 2 admit no elevated word, so the
    stream is empty."""
    q = colors + 2
    return (Word(symbols, q) for symbols in elevated_paths(colors, n))


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
