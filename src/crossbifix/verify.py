"""Indexed verification of cross-bifix-freeness and non-expandability.

A word of Z_q^n is read as its base-q integer code, so that its length-l
prefix is ``code // q**(n - l)`` and its length-l suffix is
``code % q**l``. Two words share a cross-bifix exactly when, for some
length l in 1..n-1, the length-l prefix of one equals the length-l suffix
of the other (Bilotta, Pergola and Pinzani, "A new approach to
cross-bifix-free sets", IEEE Trans. Inf. Theory, 2012). Both checks below
therefore join members and candidates on prefix and suffix codes, one length
at a time, instead of comparing every pair of words. The non-expandability
check builds one index (``_index``), which maps each length's prefixes and
suffixes to the first member that has them; the pairwise join
(``_shared_borders``) and the candidates' walk (``_walk``) both read it. The
pairwise check alone builds no index: its join holds one length's prefixes
at a time, as a set. A witness is found and written
from the codes as well (``_shortest_border``), so no ``Word`` is built.

The checks take the increasing codes of the members, not a ``CodeSet``:
``codeset.verify_cross_bifix_free_set`` and ``codeset.verify_non_expandable``
hand them a set's codes. The reports are the ones the brute scans in
``oracle`` produce, witness for witness, except that the non-expandability
report lists only unblocked candidates unless every witness is asked for;
the tests hold the two side by side.

A report is a plain dict, ``{"kind", "ok", "witnesses", "stats",
"error"}``: kind is "cross-bifix-set" or "non-expandable", and a non-null
error marks a failed precondition rather than a verdict. The ``verify``
command prints it as the ``jsontext.text`` of the dict, and ``codeset``
wraps it in a ``VerificationReport`` at the API edge. The reader of
word-per-line text into base-q codes (``read_codes``) is here too.

The ``verify`` command's handler lives here. A ``verify`` process loads
this module, ``bifixfree`` (the index and the walk), ``words`` and
``jsontext`` (which lays out the report's JSON) besides ``cli``: no
``json``, no ``dataclasses``, and nothing of counting or of the other
commands.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left
from collections.abc import Iterable
from contextlib import nullcontext
from functools import cache

from . import DEFAULT_MAX_SPACE
from .bifixfree import _index, _walk, count_bifix_free
from .jsontext import text as json_text
from .words import check_alphabet, format_symbols, symbols_of


def _cmd_verify(args) -> int:
    """The ``verify`` command: read the word list, check it in the chosen
    mode and print the report. Exit 0 when the check holds, 1 when it
    fails and 2 when a precondition fails."""
    check_alphabet(args.q)  # before the input is read
    with nullcontext(sys.stdin) if args.infile == "-" else open(args.infile, encoding="utf-8") as fh:
        n, codes = read_codes(fh.read(), args.q, args.n)
    if args.mode == "set":
        report = cross_bifix_report(args.q, n, codes)
    else:
        report = non_expandable_report(args.q, n, codes, args.limit, args.all_witnesses)
    sys.stdout.write(json_text(report) + "\n")
    return 2 if report["error"] is not None else 0 if report["ok"] else 1


def code_of(symbols: Iterable[int], q: int) -> int:
    """The base-q code of a word; a symbol of q or above raises ValueError."""
    code = 0
    for s in symbols:
        if s >= q:
            raise ValueError(f"symbol {s!r} outside alphabet of size {q}")
        code = code * q + s
    return code


def parse_code(text: str, q: int, line: int = 0) -> tuple[int, int]:
    """``(code, length)`` of a word's text less outer whitespace: ASCII
    digits for q <= 10, else ASCII decimal integers between commas;
    ``(0, 0)`` if blank. Other text raises ValueError, naming ``line``."""
    text = text.strip()
    if q <= 10 and text.isascii() and text.isdigit():
        try:
            return int(text, q), len(text)
        except ValueError:  # a digit >= q, or past int's digit cap
            return code_of(map(int, text), q), len(text)
    parts = text.split(",")
    if q > 10 and text.isascii() and all(map(str.isdigit, parts)):
        return code_of(map(int, parts), q), len(parts)
    if not text:
        return 0, 0
    form = "contiguous digits" if q <= 10 else "comma-separated integers"
    where = f"line {line}: " if line else ""
    raise ValueError(f"{where}cannot read {text!r} as a word; expected {form} 0..{q - 1}")


def read_codes(text: str, q: int, n: int | None = None) -> tuple[int, list[int]]:
    """``(n, codes)`` of word-per-line text: the word length, given or the
    first word's, and the distinct codes in increasing order. A given
    length below 1 raises ValueError, whatever the text."""
    if n is not None and n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    codes = set()
    for number, line in enumerate(text.splitlines(), 1):
        code, length = parse_code(line, q, number)
        if not length:
            continue
        if n is None:
            n = length
        if length != n:
            raise ValueError(f"word {format_symbols(symbols_of(code, q, length), q)!r} does not live in Z_{q}^{n}")
        codes.add(code)
    if n is None:
        raise ValueError("cannot infer word length from an empty list")
    return n, sorted(codes)


def _shared_borders(codes: list[int], q: int, n: int, index=None) -> tuple[list[tuple[int, int]], int]:
    """The index pairs (i, j), i < j, of members sharing a cross-bifix, in
    ``itertools.combinations`` order, and the smallest index of a member
    with a border, or ``len(codes)`` if every member is bifix-free.

    ``index`` is the list of ``_index`` of the members' codes, where the
    walk has built it; without one, each length's prefixes are collected
    here into a set, one length at a time. A length where no member's
    suffix is any member's prefix is passed over; at any other, each
    member's suffix is looked up among the prefixes, and the run of members
    with that prefix, the codes in [x * q**(n-l), (x + 1) * q**(n-l)), is
    found by bisection. A member in the run of its own suffix has a border
    of that length.
    """
    pairs = set()
    bordered = len(codes)
    for length in range(1, n):
        shift, mod = q ** (n - length), q**length
        if index is None:
            prefixes = {code // shift for code in codes}
            if prefixes.isdisjoint(code % mod for code in codes):
                continue
        else:
            prefixes, suffixes = index[length - 1][2:]
            if prefixes.keys().isdisjoint(suffixes):
                continue
        for j, code in enumerate(codes):
            x = code % mod
            if x in prefixes:
                lo = bisect_left(codes, x * shift)
                hi = bisect_left(codes, (x + 1) * shift, lo)
                if lo <= j < hi:
                    bordered = min(bordered, j)
                pairs.update((i, j) if i < j else (j, i) for i in range(lo, hi) if i != j)
    return sorted(pairs), bordered


def _text(code: int, q: int, n: int) -> str:
    """The text of the length-n word with base-q code ``code``."""
    return format_symbols(symbols_of(code, q, n), q)


def _shortest_border(a: int, b: int, q: int, n: int) -> tuple[int, str] | None:
    """``(length, prefix_of)`` of the shortest cross-bifix of the words of
    Z_q^n with base-q codes ``a`` and ``b``, or None if they share none:
    for l = 1..n-1, the length-l prefix of ``a`` is tested against the
    length-l suffix of ``b`` ("first") before the other way round
    ("second"), the order in which ``codeset.cross_bifix`` breaks ties."""
    for length in range(1, n):
        shift, mod = q ** (n - length), q**length
        if a // shift == b % mod:
            return length, "first"
        if b // shift == a % mod:
            return length, "second"
    return None


def _cross_bifix_text(a: int, b: int, q: int, n: int) -> tuple[str, str]:
    """The text of the shortest cross-bifix of two words that share one, as
    base-q codes in Z_q^n, and the argument it is a prefix of."""
    length, prefix_of = _shortest_border(a, b, q, n)
    prefix = (a if prefix_of == "first" else b) // q ** (n - length)
    return _text(prefix, q, length), prefix_of


def _report(kind: str, t0: float, ok: bool, witnesses: list, members: int, candidates: int, error=None) -> dict:
    """The report of a check of ``kind`` begun at ``t0``, whose stats count
    the |S| (|S| - 1) / 2 pairs of its ``members`` members."""
    stats = {
        "pairs_checked": members * (members - 1) // 2,
        "candidates_checked": candidates,
        "wall_time_s": time.perf_counter() - t0,
    }
    return {"kind": kind, "ok": ok, "witnesses": witnesses, "stats": stats, "error": error}


def cross_bifix_report(q: int, n: int, codes: list[int]) -> dict:
    """``codeset.verify_cross_bifix_free_set`` on the increasing base-q codes of
    the members of a set in Z_q^n."""
    t0 = time.perf_counter()
    witnesses = []
    for i, j in _shared_borders(codes, q, n)[0]:
        share, prefix_of = _cross_bifix_text(codes[i], codes[j], q, n)
        witnesses.append(
            {
                "first": _text(codes[i], q, n),
                "second": _text(codes[j], q, n),
                "cross_bifix": share,
                "prefix_of": prefix_of,
            }
        )
    return _report("cross-bifix-set", t0, not witnesses, witnesses, len(codes), 0)


def non_expandable_report(
    q: int, n: int, codes: list[int], max_space: int = DEFAULT_MAX_SPACE, all_witnesses: bool = False
) -> dict:
    """``codeset.verify_non_expandable`` on the increasing base-q codes of the
    members of a set in Z_q^n."""
    t0 = time.perf_counter()
    candidates = count_bifix_free(q, n) - len(codes)
    if candidates > max_space:
        raise ValueError(f"non-expandability needs a walk over {candidates} candidates, above the cap of {max_space}")
    index = list(_index(codes, q, n))
    bad, bordered = _shared_borders(codes, q, n, index)
    if bordered < len(codes):
        error = f"member {_text(codes[bordered], q, n)!r} is not bifix-free"
        return _report("non-expandable", t0, False, [], 0, 0, error)
    if bad:
        left, right = (codes[i] for i in bad[0])
        share = _cross_bifix_text(left, right, q, n)[0]
        error = f"set is not cross-bifix-free: {_text(left, q, n)} / {_text(right, q, n)} share {share}"
        return _report("non-expandable", t0, False, [], len(codes), 0, error)

    witnesses = []
    member_text = cache(lambda i: _text(codes[i], q, n))  # one text per blocking member
    for code, first in _walk(q, n, codes, index, all_witnesses):
        witness = {"candidate": _text(code, q, n), "cross_bifix": None, "blocking": None, "prefix_of": None}
        if first < len(codes):
            share, prefix_of = _cross_bifix_text(code, codes[first], q, n)
            witness.update(cross_bifix=share, blocking=member_text(first), prefix_of=prefix_of)
        witnesses.append(witness)
    ok = all(w["blocking"] is not None for w in witnesses)
    return _report("non-expandable", t0, ok, witnesses, len(codes), candidates)

