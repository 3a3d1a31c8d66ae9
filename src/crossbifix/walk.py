"""The depth-first walk of a ``motzkin.StateTable``, in lexicographic order.

The walk goes down from the root, holding one path, to its frontier: the
first nodes whose state has at most ``cap`` completions, or that are one
step from the end. Below the frontier each state's material is made once,
from its children's, and kept for the walk: the lines of its completions
(``wordlist.text_blocks``), their JSON tags (``wordlist.family_tags``) or
their tails (``words``). Each frontier node then makes one block from its
children's material and its prefix, which is not kept. So the Python work
of a walk is per state and per frontier node, not per word, but for the
one tuple concatenation of each of its ``words``. An edge of the table is a
step class, (symbols, child): the walk places each of its symbols.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence


def frontier(table, cap: int) -> Iterator[tuple]:
    """``(prefix, p, state)`` for each frontier node of ``table`` in
    lexicographic order: a node with a completion whose state has at most
    ``cap`` completions (``cap`` is at most ``table.cap``) or is at n - 1 or
    later, and whose ancestors' states have more. The walk holds one path
    and the pending siblings on it."""
    n, size, children = table.n, table.size, table.children
    buf = [0] * (n + 1)
    # (position, symbol placed at position - 1, state); the root's symbol
    # goes to buf[-1], which no prefix reads
    stack = [(0, 0, table.root)]
    while stack:
        p, symbol, state = stack.pop()
        buf[p - 1] = symbol
        lines = size(p, state)
        if not lines:
            continue
        if lines <= cap or p >= n - 1:
            yield tuple(buf[:p]), p, state
            continue
        kids = reversed(children(p, state))
        stack += [(p + 1, symbol, child) for symbols, child in kids for symbol in reversed(symbols)]


def blocks(table, leaf, build, cap: int) -> Iterator:
    """The block of each node of the frontier at ``cap``, in order:
    ``build(p, parts, prefix)`` of the node at p, where ``parts`` are its
    children's ``(symbol, material)`` pairs (``leaf(state)`` for the root
    at n = 0). A state's material is ``leaf(state)`` at n and
    ``build(p, parts)`` above, made once from its children's, which are
    made first, from a stack of states rather than by recursion, and kept
    for the walk."""
    n, children = table.n, table.children
    memo = [{} for _ in range(n + 1)]

    def material(p, state):
        made = memo[p].get(state)
        if made is not None:
            return made
        stack = [(p, state)]
        while stack:
            at, s = stack[-1]
            if s in memo[at]:
                stack.pop()
            elif at == n:
                memo[at][s] = leaf(s)
            else:
                kids, below = children(at, s), memo[at + 1]
                todo = [(at + 1, child) for _, child in kids if child not in below]
                if todo:
                    stack += todo
                else:
                    memo[at][s] = build(at, [(symbol, below[child]) for symbols, child in kids for symbol in symbols])
        return memo[p][state]

    for prefix, p, state in frontier(table, cap):
        if p == n:
            yield leaf(state)
        else:
            kids = children(p, state)
            yield build(p, [(symbol, material(p + 1, child)) for symbols, child in kids for symbol in symbols], prefix)


def words(table, tags: Sequence) -> Iterator[tuple]:
    """``(symbols, tags[j])`` for each word of ``table`` in lexicographic
    order, where j is the index of the shape the word fits. Each state below
    the frontier lists its tails once, and each frontier node hands out, for
    each child, its prefix and the child's symbol as a head with the child's
    tails, so each word is one tuple concatenation, ``head + tail``. A tail
    takes about ten times the bytes of a line of text, so this frontier is
    at an eighth of a block's lines."""
    if not table.n:  # the root is the one word, if a shape takes it
        return iter([((), tags[table.root[2].bit_length() - 1])] if table.root[2] else [])

    def build(p, parts, prefix=None):
        if prefix is None:  # a state's tails
            return [((symbol,) + tail, tag) for symbol, tails in parts for tail, tag in tails]
        return [(prefix + (symbol,), tails) for symbol, tails in parts]

    groups = blocks(table, lambda s: [((), tags[s[2].bit_length() - 1])], build, table.cap // 8)
    return ((head + tail, tag) for block in groups for head, tails in block for tail, tag in tails)
