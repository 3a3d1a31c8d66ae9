"""Exhaustive generation of k-colored Motzkin words and of CBFS(q, n): the
state table of the walk that lists them, and its shapes.

A k-colored Motzkin word of length n uses the alphabet {0, ..., k+1}: rise
(1), fall (0) and k level colors (2..k+1). Its path runs from (0,0) to (n,0)
without dipping below the x-axis. Their exact counts are in ``counting``.

CBFS(q, n) (q >= 3, n >= 3) is the disjoint union of three families of
length-n words, told apart by their final height:

* A (ends at 0): a Motzkin prefix of length i <= n // 2, then an elevated
  suffix; for even n, not two elevated halves of length n / 2,
* B (ends at +1): a rise, a Motzkin word of length i <= n // 2 - 1, then
  an elevated suffix,
* C (ends at -1): a Motzkin word of length n - 1 with no ground-level
  elevated factor of length >= ceil(n / 2), then a fall.

Each family is a shape of one ``StateTable``: ``cbfs_shapes`` gives those
of the families a string such as ``"ABC"`` names, as ``motzkin_shapes`` and
``elevated_shapes`` give the one shape of the Motzkin and elevated words.
The walk of a table (``walk``) yields symbol tuples and builds no ``Word``:
``codeset`` wraps its words for the API, and the path predicates that state
the definitions (``is_motzkin_word``, ``is_elevated``,
``has_ground_elevated_factor``) live with the brute-force references in
``oracle``. ``ZeroRunTable`` is the table of the zero-run baseline
S(k, q, n) of ``baseline``: one shape, whose states hold the length of a
run of zeros instead of a height, walked the same way.
"""

from __future__ import annotations

from collections.abc import Sequence

from .counting import _check_families, _require_domain
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
    shapes still possible). ``children`` gives a state's edges, one
    (symbols, child) pair per step class, fall, rise and level, the first
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

    ``size`` counts a state's completions once, from its children's times
    their edges' symbols, and stops at ``cap + 1``, where ``cap`` is the
    lines of a block: ``BLOCK_SIZE // (n + 1)``. ``count`` is that walk with
    no cap. ``walk`` walks the table in lexicographic order.
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
        """The (symbols, child state) edges of ``state`` at position p, one
        per step class, in symbol order: ``(FALL,)``, ``(RISE,)`` and the
        level colors ``range(2, q)``, which share one child; made once."""
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
                    if mask and symbols:  # q = 2 has no level step; a child at height 0 is a visit at np
                        kids.append((symbols, (h1, g if h1 and (not g or mask & self.kept) else np, mask)))
        return kids

    def size(self, p: int, state: tuple, exact: list | None = None) -> int:
        """The completions of ``state`` at position p, or ``cap + 1`` if
        there are more; with ``exact``, a memo of its own, their exact
        number. Each state is counted once, from its children's counts times
        their edges' symbols, on a stack rather than by recursion, and left
        as soon as its count passes ``cap``, so that the first words of a
        long walk wait for no full count. A frame keeps its state's edges,
        so ``children`` is called once per state."""
        n, children = self.n, self.children
        cap, sizes = (self.cap, self.sizes) if exact is None else (float("inf"), exact)
        stack = [(p, state, None, 0, 0)]
        while stack:
            at, s, kids, i, total = stack.pop()
            if kids is None:  # a state met for the first time on this stack
                if s in sizes[at]:
                    continue
                if at == n:
                    sizes[at][s] = min(s[2], 1)  # a word, but for a dead root at n = 0
                    continue
                kids = children(at, s)
            below = sizes[at + 1]
            while i < len(kids) and total <= cap:
                k = below.get(kids[i][1])
                if k is None:
                    stack += ((at, s, kids, i, total), (at + 1, kids[i][1], None, 0, 0))
                    break
                total += k * len(kids[i][0])
                i += 1
            else:
                sizes[at][s] = min(total, cap + 1)
        return sizes[p][state]

    def count(self) -> int:
        """The number of words, exactly: ``size`` of the root, with no cap."""
        return self.size(0, self.root, [{} for _ in range(self.n + 1)])


class ZeroRunTable(StateTable):
    """The words of the baseline S(k, q, n), 1 <= k <= n - 2, as a
    ``StateTable`` of one shape: k zeros, a non-zero symbol, an interior with
    no run of k zeros and a non-zero last symbol. A state is (run, 0, 1),
    where run counts the zeros that end the interior so far, with the step
    classes ``(0,)`` and ``range(1, q)``, so ``size``, ``count`` and the
    walk take it as they take a state of the shapes."""

    def __init__(self, k: int, q: int, n: int) -> None:
        self.k, self.q, self.n, self.root, self.cap = k, q, n, (0, 0, 1), BLOCK_SIZE // (n + 1)
        self.sizes = [{} for _ in range(n + 1)]
        self.zero = [((0,), self.root)]
        self.nonzero = [(range(1, q), self.root)]
        # the edges of an interior state by its run: a zero while the run
        # stays below k, then the non-zero symbols, which end the run
        self.interior = [[((0,), (run, 0, 1)), *self.nonzero] for run in range(1, k)] + [self.nonzero]

    def children(self, p: int, state: tuple) -> list:
        if p < self.k:
            return self.zero
        if p == self.k or p == self.n - 1:
            return self.nonzero
        return self.interior[state[0]]


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


def _shapes(n: int) -> dict[str, tuple[list[int], int | None, int | None]]:
    """The shape of each CBFS family at length n."""
    half = n // 2
    return {
        # A Motzkin path whose last visit to height 0 before the end is at
        # some i <= n // 2, so it stays at height >= 1 after n // 2. For even
        # n, a first return at n / 2 means two same-length elevated halves.
        "A": ([0] * (half + 1) + [1] * (n - half - 1) + [0], None, half if n % 2 == 0 else None),
        # A rise, forced by the floor of 1 after one step, then A's shape
        # one level up, with its last visit to height 1 at or before n // 2.
        "B": ([0] + [1] * half + [2] * (n - half - 1) + [1], None, None),
        # A Motzkin path of length n - 1 whose ground arches are all shorter
        # than ceil(n / 2), then a fall to height -1.
        "C": ([0] * n + [-1], (n + 1) // 2 - 1, None),
    }


def cbfs_shapes(q: int, n: int, families: str = "ABC") -> list[tuple[list[int], int | None, int | None]]:
    """The shapes of the named families of CBFS(q, n), in the order of
    ``families``, for a ``StateTable``. Domain errors are raised here."""
    _require_domain(q, n)
    _check_families(families)
    shapes = _shapes(n)
    return [shapes[name] for name in families]
