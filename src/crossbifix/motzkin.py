"""Exhaustive generation of k-colored Motzkin words: the state table of
the walk that lists them and the CBFS families.

A k-colored Motzkin word of length n uses the alphabet {0, ..., k+1}: rise
(1), fall (0) and k level colors (2..k+1). Its path runs from (0,0) to (n,0)
without dipping below the x-axis. Their exact counts are in ``counting``.

The walk of a table (``walk``) yields symbol tuples and builds no
``Word``: ``codeset.generate_motzkin`` and ``codeset.generate_elevated``
wrap the words of the tables of ``motzkin_shapes`` and ``elevated_shapes``
for the API, and the path predicates that state the definitions
(``is_motzkin_word``, ``is_elevated``, ``has_ground_elevated_factor``) live
with the brute-force references in ``oracle``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .words import FALL, RISE

# The bytes of word lines, n + 1 bytes a word for q <= 10, that one block of
# a walk holds at most: wordlist.WRITE_SIZE, the least write of a word list.
BLOCK_SIZE = 1 << 16


class StateTable:
    """The words of length n over {0, ..., q-1} whose path fits one of
    ``shapes``, as an automaton over path states that is walked in
    lexicographic order.

    A shape ``(floor, max_arch, skip_first_return)`` admits the paths from
    height 0 that satisfy these bounds:

    * the word ends at height ``floor[-1]``, and ``floor`` has n + 1 entries,
    * after p >= 1 symbols the height is at least ``floor[p]``,
    * with ``max_arch``, every stretch above height 0 between two visits
      to height 0 lasts at most ``max_arch`` steps; a path that ends above
      0 counts as closed by falls, so its last stretch is bounded too,
    * with ``skip_first_return``, the path does not first come back to
      height 0 by a fall at that position.

    The shapes must have distinct final heights, so a word fits at most one
    of them, the one it ends at; otherwise ValueError is raised.

    A state at position p is (height, last visit to height 0, mask of the
    shapes still possible). ``children`` gives a state's children, fall,
    rise, then each level color, each a (symbol, state) pair, the first
    time the state is met. A child at height h1 and position p + 1 keeps a
    live shape when h1 is within the shape's floor and can still reach its
    final height in the steps left, when the steps since height 0 plus the
    h1 steps needed to get back there are within its arch bound, and when
    the child is not a fall to a first return the shape forbids; a child
    that keeps no shape is cut. Nothing is built per position up front.
    When no shape left has an arch bound, the last visit matters only as
    "not yet" (0), to a shape with a forbidden first return, so once the
    path has come back to 0 it is stored as p: states that accept the same
    completions are one state. A state at n holds one shape, the one it
    ends at. Every table is keyed by position, since equal tuples at two
    positions are two states.

    ``size`` counts a state's completions once, from those of its children,
    and stops at ``cap + 1``, where ``cap`` is the lines of a block:
    ``BLOCK_SIZE // (n + 1)``. ``count`` counts the words exactly, by the
    transfer-matrix method: the prefixes that reach each state. ``walk``
    walks the table in lexicographic order.
    """

    def __init__(self, q: int, n: int, shapes: Sequence[tuple]) -> None:
        finals = [floor[-1] for floor, _, _ in shapes]
        for j, (floor, _, _) in enumerate(shapes):
            if len(floor) != n + 1:
                raise ValueError(f"shape {j} has length {len(floor) - 1}, not {n}")
            if finals.index(floor[-1]) != j:
                raise ValueError(f"shapes {finals.index(floor[-1])} and {j} both end at height {floor[-1]}")
        # without level steps every step changes the parity of the height;
        # at n = 0 the root is the one word, at height 0
        live = sum(1 << j for j, final in enumerate(finals) if (q > 2 or (n - final) % 2 == 0) and (n or not final))
        self.q, self.n, self.root, self.cap = q, n, (0, 0, live), BLOCK_SIZE // (n + 1)
        self.levels = range(2, q)
        self.edges = [{} for _ in range(n + 1)]
        self.sizes = [{} for _ in range(n + 1)]
        self.shapes = [(1 << j, floor, arch, skip) for j, (floor, arch, skip) in enumerate(shapes)]
        # the shapes to which the last visit to 0 matters once it is past
        self.kept = sum(1 << j for j, (_, arch, _) in enumerate(shapes) if arch is not None)

    def children(self, p: int, state: tuple) -> list:
        """The (symbol, child state) pairs of ``state`` at position p, in
        symbol order; made once per state."""
        kids = self.edges[p].get(state)
        if kids is None:
            kids = self.edges[p][state] = []
            h, g, live = state
            if p < self.n and live:
                np, left = p + 1, self.n - p - 1
                # a fall from 1 before any return is the first return
                steps = ((FALL,), h - 1, h == 1 and not g), ((RISE,), h + 1, False), (self.levels, h, False)
                for symbols, h1, first in steps:
                    mask = 0
                    for bit, floor, arch, skip in self.shapes:
                        if (
                            live & bit
                            and floor[np] <= h1 <= floor[-1] + left
                            and (arch is None or np - g + h1 <= arch)
                            and not (first and skip == np)
                        ):
                            mask |= bit
                    if mask:
                        # a child at height 0 is a visit at np
                        child = (h1, g if h1 and (not g or mask & self.kept) else np, mask)
                        kids += [(symbol, child) for symbol in symbols]
        return kids

    def size(self, p: int, state: tuple) -> int:
        """The completions of ``state`` at position p, or ``cap + 1`` if
        there are more. Each state is counted once, from its children's
        counts, by a walk that keeps a stack of states rather than
        recursing, and leaves a state as soon as its count passes ``cap``,
        so that the first words of a long walk wait for no full count."""
        n, cap, sizes, children = self.n, self.cap, self.sizes, self.children
        stack = [(p, state, 0, 0)]
        while stack:
            at, s, i, total = stack.pop()
            if s in sizes[at]:
                continue
            if at == n:
                sizes[at][s] = min(s[2], 1)  # a word, but for a dead root at n = 0
                continue
            kids, below = children(at, s), sizes[at + 1]
            while i < len(kids) and total <= cap:
                k = below.get(kids[i][1])
                if k is None:
                    stack += ((at, s, i, total), (at + 1, kids[i][1], 0, 0))
                    break
                total += k
                i += 1
            else:
                sizes[at][s] = min(total, cap + 1)
        return sizes[p][state]

    def count(self) -> int:
        """The number of words, exactly, by one forward pass: the number of
        prefixes that reach each state, position by position."""
        layer = {self.root: 1} if self.root[2] else {}
        for p in range(self.n):
            ahead = {}
            for state, ways in layer.items():
                for _, child in self.children(p, state):
                    ahead[child] = ahead.get(child, 0) + ways
            layer = ahead
        return sum(layer.values())


def motzkin_shapes(colors: int, n: int) -> list[tuple[list[int], None, None]]:
    """The one shape of the Motzkin words of length n, for a ``StateTable``
    over ``colors + 2`` symbols."""
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    return [([0] * (n + 1), None, None)]


def elevated_shapes(colors: int, n: int) -> list[tuple[list[int], None, None]]:
    """The shape of the elevated Motzkin words of length n: a rise (forced
    by the floor of 1 after one step), a path staying at height >= 1, and a
    fall back to 0. Lengths below 2 have none."""
    motzkin_shapes(colors, n)
    return [([0] + [1] * (n - 1) + [0], None, None)] if n >= 2 else []
