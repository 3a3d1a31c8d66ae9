"""Exhaustive generation of k-colored Motzkin words.

A k-colored Motzkin word of length n uses the alphabet {0, ..., k+1}: rise
(1), fall (0) and k level colors (2..k+1). Its path runs from (0,0) to (n,0)
without dipping below the x-axis. Their exact counts are in ``counting``.

The walk here yields symbol tuples and builds no ``Word``:
``codeset.generate_motzkin`` and ``codeset.generate_elevated`` wrap its
words for the API, and the path predicates that state the definitions
(``is_motzkin_word``, ``is_elevated``, ``has_ground_elevated_factor``) live
with the brute-force references in ``oracle``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .words import FALL, RISE


def lex_groups(
    q: int, shapes: Sequence[tuple[Sequence[int], int | None, int | None]]
) -> Iterator[tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]]:
    """Yield, in lexicographic order, every symbol tuple over {0, ..., q-1}
    whose path fits one of ``shapes``, paired with the index of that shape,
    in groups ``(head, tails)``: the words of a group are ``head + tail``
    for each ``(tail, shape index)`` in the list ``tails``, in order.

    A shape ``(floor, max_arch, skip_first_return)`` admits the paths from
    height 0 that satisfy these bounds:

    * the word has length ``len(floor) - 1`` and ends at height ``floor[-1]``,
    * after p >= 1 symbols the height is at least ``floor[p]``,
    * with ``max_arch``, every stretch above height 0 between two visits
      to height 0 lasts at most ``max_arch`` steps; a path that ends above
      0 counts as closed by falls, so its last stretch is bounded too,
    * with ``skip_first_return``, the path does not first come back to
      height 0 by a fall at that position.

    All shapes must have the same length and distinct final heights, so a
    word fits at most one of them, the one it ends at; otherwise ValueError
    is raised before any word is yielded.

    The walk is one depth-first search over (position, height, last visit
    to height 0, shapes still possible) that tries the fall, the rise and
    then the level colors, so words come out in order. The shapes still
    possible are a bit mask of at most 8 shapes, so that every mask fits in
    a byte; more shapes raise ValueError before any word. A branch is cut
    as soon as no shape admits it. Two tables built up front decide that:
    ``rows[p][h]`` holds the shapes with ``floor[p] <= h <= floor[-1] + n - p``
    (the final height is still reachable), and ``arch_ok[d]`` the shapes
    whose arch bound allows d, the steps since height 0 plus the steps
    needed to get back there. With the floors this package uses, every
    prefix kept extends to a word.

    The head of a group is the first ``cut = n - n // 2`` symbols; for
    n <= 1 it is empty. Past the cut a node's subtree depends only on its
    height, its steps since height 0 and its shapes still possible. The
    first node met in each such state walks on, and each of its words is
    recorded under that state and yielded at once as a one-element group.
    Every later node in that state yields one group: its own head and the
    state's recorded list itself, the same list object, complete and never
    changed again, each time the state comes back. Callers must not change
    the lists. Every group of one node at the cut hands out that node's
    head tuple, the same object, and the groups of a node come together:
    one replay, or the one-element groups of a first visit, which a writer
    may collect by testing the head with ``is`` (``wordlist.word_blocks``
    formats them in one pass). Each call holds one path, tables of about
    n^2 / 4 bytes and the recorded tails: at most one per word yielded so
    far, and at most the length-``n // 2`` completions of each state met at
    the cut. The record is local to the call.
    """
    if len(shapes) > 8:
        raise ValueError(f"one walk takes at most 8 shapes, got {len(shapes)}")
    n = len(shapes[0][0]) - 1
    finals = [floor[-1] for floor, _, _ in shapes]
    for j, (floor, _, _) in enumerate(shapes):
        if len(floor) != n + 1:
            raise ValueError(f"shape {j} has length {len(floor) - 1}, shape 0 has length {n}")
        if finals.index(floor[-1]) != j:
            raise ValueError(f"shapes {finals.index(floor[-1])} and {j} both end at height {floor[-1]}")
    # without level steps every step changes the parity of the height
    live = sum(1 << j for j, final in enumerate(finals) if q > 2 or (n - final) % 2 == 0)
    if n == 0:
        if 0 in finals:
            yield (), [((), finals.index(0))]
        return
    if not live:
        return  # before building the tables, which grow as n^2
    low = min(0, *(min(floor) for floor, _, _ in shapes)) - 1  # no child goes lower
    top = max(0, *finals) + n
    indexed = list(enumerate(shapes))
    # rows[p] is read for the children of nodes at p - 1, which are no
    # higher than p - 1 nor than top - (p - 1).
    rows = [
        _masks(low, min(p, top - p + 2), [(1 << j, floor[p], floor[-1] + n - p) for j, (floor, _, _) in indexed])
        for p in range(n + 1)
    ]
    # d is at most top + 2, since a child at p is no higher than top - p + 2
    arches = [(1 << j, low + 1, top + 2 if arch is None else arch) for j, (_, arch, _) in indexed]
    arch_ok = _masks(low + 1, top + 2, arches)
    first_ok = [sum(1 << j for j, (_, _, skip) in indexed if skip != p) for p in range(n + 1)]
    levels = range(2, q)
    levels_desc = range(q - 1, 1, -1)
    buf = [0] * n
    last = n - 1
    # at n = 1 the root is the only node above the leaves, so it is the cut
    cut = n - n // 2 if n > 1 else 0
    # Tails recorded per state at the cut.
    memo = {}
    # Pending nodes (position, symbol placed at position - 1, height, last
    # visit to 0, shapes still possible), pushed in reverse order so they
    # pop in lexicographic order. The root's symbol goes to buf[-1], which
    # the last position overwrites. The children of a node at the last
    # position are emitted directly rather than pushed; the one shape left
    # is the one that ends at their height.
    stack = [(0, 0, 0, 0, live)]
    pop, push = stack.pop, stack.append
    while stack:
        p, s, h, g, live = pop()
        buf[p - 1] = s
        if p == cut:
            head = tuple(buf[:cut])
            # p - g == cut exactly when the path has not come back to 0
            key = (h, p - g, live)
            tails = memo.get(key)
            if tails is not None:
                if tails:  # a state with no completion yields no group
                    yield head, tails
                continue
            record = memo[key] = []
        np = p + 1
        row = rows[np]
        d = np - g + h
        down = live & row[h - 1] & arch_ok[d - 1]
        if h == 1 and g == 0:
            down &= first_ok[np]
        up = live & row[h + 1] & arch_ok[d + 1]
        flat = live & row[h] & arch_ok[d]
        if p == last:
            if down:
                buf[p] = FALL
                leaf = (tuple(buf[cut:]), down.bit_length() - 1)
                record.append(leaf)
                yield head, [leaf]
            if up:
                buf[p] = RISE
                leaf = (tuple(buf[cut:]), up.bit_length() - 1)
                record.append(leaf)
                yield head, [leaf]
            if flat:
                j = flat.bit_length() - 1
                for color in levels:
                    buf[p] = color
                    leaf = (tuple(buf[cut:]), j)
                    record.append(leaf)
                    yield head, [leaf]
            continue
        if flat:
            ng = np if h == 0 else g
            for color in levels_desc:
                push((np, color, h, ng, flat))
        if up:
            push((np, RISE, h + 1, g, up))
        if down:
            push((np, FALL, h - 1, np if h == 1 else g, down))


def _masks(lo: int, hi: int, spans: list[tuple[int, int, int]]) -> bytes:
    """A table t where, for lo <= v <= hi, t[v] is the OR of the bits b of
    the spans (b, first, last) with first <= v <= last. Here lo <= 0, and a
    negative v indexes from the end, as Python does. The bits are below
    1 << 8, and the table is filled a run of equal masks at a time."""
    cuts = sorted({lo, hi + 1, *(min(max(v, lo), hi + 1) for _, first, last in spans for v in (first, last + 1))})
    t = bytearray()
    for start, stop in zip(cuts, cuts[1:]):
        t += bytes((sum(b for b, first, last in spans if first <= start <= last),)) * (stop - start)
    return bytes(t[-lo:] + t[:-lo])


def motzkin_groups(colors: int, n: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """The ``lex_groups`` of the Motzkin words of length n, every shape
    index 0."""
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    return lex_groups(colors + 2, [([0] * (n + 1), None, None)])


def elevated_groups(colors: int, n: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """The ``lex_groups`` of the elevated Motzkin words of length n: a rise
    (forced by the floor of 1 after one step), a path staying at height
    >= 1, and a fall back to 0."""
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    if n < 2:
        return iter(())
    return lex_groups(colors + 2, [([0] + [1] * (n - 1) + [0], None, None)])
