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
needs none of the walk. Generation is one walk (``walk``) over the path
states of ``motzkin.StateTable`` that covers the chosen families together.
Each family is a shape (a floor per position, an arch bound, a forbidden
first return); a state carries the mask of the families its prefix still
fits, and the final height of a word names its family. So the walk yields plain symbol
tuples already in canonical order, with no merge or re-sort. Below the
walk's frontier, where a state's completions fit in one block, each state's
tails (for ``iter_cbfs``) or lines (for ``gen``) are built once from its
children's, so the per-word work is one tuple concatenation, or none for
``gen``. ``cbfs_shapes`` gives the table its shapes; ``construct_cbfs``
wraps the words in a ``codeset.CodeSet``, the only step that builds a
``Word``.

One ``families`` string, such as ``"ABC"`` (the default) or ``"B"``, picks
the families at every layer: ``counting.count_cbfs`` sums their
closed-form sizes from ``counting.family_sizes``, and ``cbfs_shapes``,
``iter_cbfs`` and ``construct_cbfs`` walk them.
"""

from __future__ import annotations

from collections.abc import Iterator

from .counting import _check_families, _require_domain
from .motzkin import StateTable
from .walk import words

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .codeset import CodeSet

def _shapes(n: int) -> dict[str, tuple[list[int], int | None, int | None]]:
    """The ``motzkin.StateTable`` shape of each family at length n."""
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
    ``families``, for a ``motzkin.StateTable``. Domain errors are raised
    here."""
    _require_domain(q, n)
    _check_families(families)
    shapes = _shapes(n)
    return [shapes[name] for name in families]


def iter_cbfs(q: int, n: int, families: str = "ABC") -> Iterator[tuple[tuple[int, ...], str]]:
    """Stream CBFS(q, n), or the union of the named families, as
    ``(symbols, family)`` pairs in canonical (lexicographic) order.

    One walk covers every named family: the families end at distinct
    heights, so the walk tells them apart by where each word ends. Words
    are ordered as symbol tuples; comparing text would misorder them for
    q > 10. Memory holds the state table and the tails of each state below
    the walk's frontier, listed once.
    """
    return words(StateTable(q, n, cbfs_shapes(q, n, families)), families)


def construct_cbfs(q: int, n: int, families: str = "ABC") -> CodeSet:
    """CBFS(q, n), or the union of the named families, as a canonically
    ordered ``CodeSet`` tagged by family."""
    from .codeset import CodeSet

    return CodeSet.from_ordered(q, n, iter_cbfs(q, n, families))
