"""The word lists of ``gen`` and ``baseline-gen``, written as bytes.

Only these two commands load this module. ``gen_groups`` checks a ``gen``
request and picks its walk; ``word_blocks`` turns ``(head, tails)`` groups,
as ``motzkin.lex_groups`` yields them, into ASCII bytes, one block for each
group; ``write_word_list`` writes the blocks as word-per-line text or as the
JSON of ``codeset.CodeSet.to_json``. A word's line is the text that
``words.format_symbols`` gives it: digits for q <= 10, decimal integers
between commas above.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Iterator

from .cli import _FAMILIES, _write_json_object
from .counting import count_cbfs, motzkin_count
from .words import check_alphabet, format_symbols

# Maps the symbol bytes 0..9 to their digits and keeps byte 10, the newline.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")

# Words per write call of `gen --set bifixfree`, and provenance items per
# piece of a uniformly tagged list.
GEN_CHUNK = 4096


def tagged(tag: str, count: int) -> Iterator[bytes]:
    """The pieces of a JSON provenance list of ``count`` copies of ``tag``,
    as ``write_word_list`` takes them."""
    item = b',\n    "' + tag.encode() + b'"'
    return (item * min(GEN_CHUNK, count - i) for i in range(0, count, GEN_CHUNK))


def gen_groups(args):
    """Check the alphabet and --limit for a `gen` request, then return the
    ``(head, tails)`` groups of its words in canonical order and the pieces
    of their JSON provenance list. The Motzkin and elevated sets take
    ``q - 2`` level colors, as the CBFS sets do. A CBFS set's tags come
    from a second walk, made only if the list is written; every word of the
    other sets is tagged external. No word is produced before the checks
    pass."""
    q, n = args.q, args.n
    if args.set in _FAMILIES:
        from .cbfs import cbfs_groups

        tags = _FAMILIES[args.set]
        expected, groups = count_cbfs(q, n, tags), cbfs_groups(q, n, tags)
        items = [b',\n    "' + tag.encode() + b'"' for tag in tags]
        provenance = (b"".join([items[j] for _, j in tails]) for _, tails in cbfs_groups(q, n, tags))
    else:
        if args.set == "bifixfree":
            from .verify import count_bifix_free, iter_bifix_free

            expected = count_bifix_free(q, n)
            # chunks of the word stream, as groups with an empty head; their
            # tails are iterators, so no pair outlives its word's turn
            words = iter_bifix_free(q, n)
            groups = (((), zip(chunk, repeat(0))) for chunk in iter(lambda: list(islice(words, GEN_CHUNK)), []))
        else:
            from .motzkin import elevated_groups, motzkin_groups

            if args.set == "motzkin":
                expected, groups = motzkin_count(q - 2, n), motzkin_groups(q - 2, n)
            else:
                expected, groups = motzkin_count(q - 2, n - 2), elevated_groups(q - 2, n)  # 0 for n < 2
        provenance = tagged("external", expected)
    check_alphabet(q)  # as a Word of the set would
    if expected > args.limit:
        raise ValueError(f"{args.set} at q={q}, n={n} holds {expected} words, above --limit {args.limit}")
    return groups, provenance


def word_blocks(q: int, groups) -> Iterator[bytes]:
    """The word-per-line ASCII bytes of ``(head, tails)`` groups, one block
    for each group that holds a word.

    A list of several tails comes back each time its walk state does, so
    its lines are made once and kept with the list, which holds the list's
    id for them; each group is then those lines joined by the head's line
    (and a comma for q > 10), which leads each of them. One-element lists
    and groups with an empty head, whose tails may be any iterable, are
    formatted as they come, so the kept lines are one block per state met
    at the cut. For q <= 10 a line is the symbols as bytes, translated to
    digits, and a group of several words is translated in one pass.
    """
    if q <= 10:
        sep = b""

        def line(row) -> bytes:
            return bytes(row).translate(_DIGITS)

        def lines(rows) -> bytes:
            return b"\n".join(map(bytes, rows)).translate(_DIGITS)

    else:
        sep = b","

        def line(row) -> bytes:
            return format_symbols(row, q).encode("ascii")

        def lines(rows) -> bytes:
            return "\n".join([format_symbols(row, q) for row in rows]).encode("ascii")

    kept = {}
    for head, tails in groups:
        if head and len(tails) > 1:
            entry = kept.get(id(tails))
            if entry is None:
                block = lines([tail for tail, _ in tails])
                entry = kept[id(tails)] = (tails, [b"", *[text + b"\n" for text in block.split(b"\n")]])
            yield (line(head) + sep).join(entry[1])
        else:
            rows = [head + tail for tail, _ in tails]
            if rows:
                yield lines(rows) + b"\n"


def write_word_list(fh, fmt: str, q: int, n: int, groups, provenance: Iterator[bytes]) -> None:
    """Write the words of ``(head, tails)`` groups to the binary file ``fh``
    as word-per-line text (``fmt`` "text") or as the JSON of
    ``CodeSet.to_json`` ("json"), whose provenance list is the pieces of
    ``provenance``, each item led by ``,\\n`` and a four-space indent. The
    words are written a block at a time, as ``word_blocks`` makes them."""
    blocks = word_blocks(q, groups)
    if fmt == "text":
        fh.writelines(blocks)
        return
    words = (b',\n    "' + block[:-1].replace(b"\n", b'",\n    "') + b'"' for block in blocks)
    members = [("q", b"%d" % q), ("n", b"%d" % n), ("provenance", provenance), ("words", words)]
    _write_json_object(fh, members)
