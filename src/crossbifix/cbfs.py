"""Construction of the cross-bifix-free sets CBFS(q, n).

CBFS(q, n) is the disjoint union of three families of length-n paths over a
q-letter alphabet (q >= 3, n >= 3), distinguished by their final height:

* family A (ends at height 0): a Motzkin prefix of length i <= n // 2
  followed by an elevated suffix; when n is even, words made of two
  same-length elevated halves are excluded,
* family B (ends at height +1): a rise step, then a Motzkin word of length
  i <= n // 2 - 1, then an elevated suffix,
* family C (ends at height -1): a Motzkin word of length n - 1 with no
  ground-level elevated factor of length >= ceil(n / 2), then a fall step.

Counting never materializes words, so it lives in ``counting``, which
needs none of the walk. Generation is one pruned depth-first
search over path states (``motzkin.lex_groups``) that walks the chosen
families together. Each family is a shape (a floor per position, an arch
bound, a forbidden first return); a node carries the mask of the families
its prefix still fits, and the final height of a word names its family. So
the walk yields plain symbol tuples already in canonical order, with no
merge or re-sort. Past the middle of the word the walk replays the tails
it has recorded for a path state instead of walking them again, so its
memory grows with the distinct completions of the second half, not with
the set. ``cbfs_groups`` hands a replay out whole, as a head and the
state's list of tails, so that a caller such as ``gen`` can write the
subtree in one piece; ``iter_cbfs`` flattens the groups into symbol tuples,
and ``construct_cbfs`` wraps them in a ``codeset.CodeSet``, the only step
that builds a ``Word``.

One ``families`` string, such as ``"ABC"`` (the default) or ``"B"``, picks
the families at every layer: ``counting.count_cbfs`` sums their
closed-form sizes from ``counting.family_sizes``, and ``cbfs_groups``, ``iter_cbfs`` and
``construct_cbfs`` walk them.
"""

from __future__ import annotations

from collections.abc import Iterator

from .counting import _check_families, _require_domain
from .motzkin import lex_groups

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .codeset import CodeSet

def _shapes(n: int) -> dict[str, tuple[list[int], int | None, int | None]]:
    """The ``lex_groups`` shape of each family at length n."""
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


def cbfs_groups(q: int, n: int, families: str = "ABC") -> Iterator[tuple[tuple[int, ...], list]]:
    """CBFS(q, n), or the union of the named families, as the
    ``motzkin.lex_groups`` of one walk over their shapes: ``(head, tails)``
    groups in canonical order, where ``families[j]`` names the family of
    each word ``head + tail`` with ``(tail, j)`` in ``tails``. A group that
    replays a path state hands back the same list each time; callers must
    not change it. Domain errors are raised on the call."""
    _require_domain(q, n)
    _check_families(families)
    shapes = _shapes(n)
    return lex_groups(q, [shapes[name] for name in families])


def iter_cbfs(q: int, n: int, families: str = "ABC") -> Iterator[tuple[tuple[int, ...], str]]:
    """Stream CBFS(q, n), or the union of the named families, as
    ``(symbols, family)`` pairs in canonical (lexicographic) order.

    One walk covers every named family: the families end at distinct
    heights, so the walk tells them apart by where each word ends. Words
    are ordered as symbol tuples; comparing text would misorder them for
    q > 10. Memory holds the tails the walk records for replay: at most one
    per word yielded so far, and at most the length-``n // 2`` completions
    of each path state met at the middle. Streaming all of CBFS(3, 19),
    10,035,338 words, takes 3.9 MB for them.
    """
    groups = cbfs_groups(q, n, families)
    return ((head + tail, families[j]) for head, tails in groups for tail, j in tails)


def construct_cbfs(q: int, n: int, families: str = "ABC") -> CodeSet:
    """CBFS(q, n), or the union of the named families, as a canonically
    ordered ``CodeSet`` tagged by family."""
    from .codeset import CodeSet

    return CodeSet.from_ordered(q, n, iter_cbfs(q, n, families))
