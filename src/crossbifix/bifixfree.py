"""The bifix-free words of Z_q^n, and the ones a set of them leaves
unblocked.

A word is read as its base-q integer code. ``_index`` maps, for each
length l = 1..n-1, the members' length-l prefixes and suffixes to the first
member that has them; ``_walk`` goes depth first over the prefixes of the
words of Z_q^n and yields the bifix-free words outside the set, each with
the first member that blocks it. ``verify``'s non-expandability check reads
both, and joins the same index for its preconditions. With no members the
walk yields every bifix-free word (``iter_bifix_free``), which ``gen --set
bifixfree`` writes; that command loads this module, not ``verify``.
"""

from __future__ import annotations

from .words import symbols_of


def count_bifix_free(q: int, n: int) -> int:
    """Number of bifix-free (unbordered) words in Z_q^n, by the recurrence
    U(1) = q, U(2m + 1) = q U(2m), U(2m) = q U(2m - 1) - U(m).

    Only U(m) for m <= n // 2 is read again, so only those are kept."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    half = [0, q]  # U(m) for m <= max(1, n // 2)
    value = q
    for m in range(2, n + 1):
        value = q * value - (0 if m % 2 else half[m // 2])
        if m <= n // 2:
            half.append(value)
    return value


def _index(codes: list[int], q: int, n: int):
    """Yield, for each length l = 1..n-1 of a proper prefix or suffix in
    turn, ``(q**(n-l), q**l, prefixes, suffixes)``: ``prefixes`` maps each
    length-l prefix code of a member to the smallest index of a member with
    it, and ``suffixes`` does the same for suffixes. ``codes`` are the
    members' base-q codes in increasing order, so the members with a given
    length-l prefix x are the run of codes from ``prefixes[x]`` below
    (x + 1) * q**(n-l)."""
    # from the last member to the first, so that each key keeps its smallest
    # index; a list, so that every map shares one int object per index
    backwards = list(range(len(codes) - 1, -1, -1))
    for length in range(1, n):
        shift, mod = q ** (n - length), q**length
        yield (
            shift,
            mod,
            {code // shift: i for i, code in zip(backwards, reversed(codes))},
            {code % mod: i for i, code in zip(backwards, reversed(codes))},
        )


def _walk(q: int, n: int, codes: list[int], index, all_witnesses: bool = False):
    """Yield ``(code, first)`` for the outside bifix-free candidates of
    Z_q^n in lexicographic order, where ``codes`` are the members' base-q
    codes in increasing order, ``index`` is their ``_index`` (read into a
    list when the walk starts, so a stream costs nothing before its first
    word), and ``first`` is the smallest index of a member that blocks the
    candidate, or ``len(codes)`` if none does.

    A candidate is blocked exactly when one of its proper prefixes is a
    suffix of a member or one of its proper suffixes is a prefix of a
    member. The candidates are walked depth first over their prefixes, and
    a prefix that is a member's suffix blocks every word below it. By
    default that subtree is cut and only unblocked candidates are yielded;
    with ``all_witnesses`` nothing is cut and every candidate is yielded.
    """
    index = list(index)
    unblocked = len(codes)  # an index past every member
    members = set(codes)
    # Entries: a prefix code, its length, and the smallest member index with
    # a suffix equal to one of the prefix's own prefixes (``unblocked`` if
    # none). Children are pushed last first, so they come off in order.
    stack = [(0, 0, unblocked)]
    while stack:
        prefix, length, blocking = stack.pop()
        base = prefix * q
        if length < n - 1:
            suffixes = index[length][3]
            for code in range(base + q - 1, base - 1, -1):
                hit = suffixes.get(code, unblocked)
                if hit == unblocked:
                    stack.append((code, length + 1, blocking))
                elif all_witnesses:
                    stack.append((code, length + 1, min(hit, blocking)))
            continue
        for code in range(base, base + q):
            if code in members:
                continue
            first = blocking
            for shift, mod, prefixes, _ in index:
                tail = code % mod
                if code // shift == tail:
                    break  # a border: the word is not bifix-free
                hit = prefixes.get(tail, unblocked)
                if hit < first:
                    first = hit
                    if not all_witnesses:
                        break  # blocked, and only unblocked words are listed
            else:
                yield code, first


def iter_bifix_free(q: int, n: int):
    """Stream the bifix-free words of Z_q^n as symbol tuples in
    lexicographic order: the candidates that an empty set leaves unblocked.

    Domain errors are raised on the call, before the first word.
    """
    count_bifix_free(q, n)
    return (symbols_of(code, q, n) for code, _ in _walk(q, n, [], _index([], q, n)))
