"""Alphabet and word primitives.

Words over the alphabet {0, ..., q-1} double as lattice paths: symbol 0 is a
fall step (1, -1), symbol 1 a rise step (1, 1), and symbols 2..q-1 are level
steps (1, 0) in q-2 colors. Everything here is a pure function on immutable
values. This is what every command that writes or reads words shares; the
reading of word text into base-q codes is in ``verify``, and the records
(``Word`` among them) are in the API edge, ``codeset``.
"""

from __future__ import annotations

from collections.abc import Sequence

FALL = 0
RISE = 1

MAX_ALPHABET = 1 << 16


def check_alphabet(q: int) -> None:
    """Raise ValueError unless q is an alphabet size that a Word takes."""
    if not isinstance(q, int) or not 2 <= q <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {q!r}")


def format_symbols(symbols: Sequence[int], q: int) -> str:
    return ("" if q <= 10 else ",").join(map(str, symbols))


def symbols_of(code: int, q: int, n: int) -> tuple[int, ...]:
    """The length-n word with base-q code ``code``; the inverse of
    ``verify.code_of``."""
    symbols = [0] * n
    for i in range(n - 1, -1, -1):
        code, symbols[i] = divmod(code, q)
    return tuple(symbols)
