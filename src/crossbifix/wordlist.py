"""The ``gen`` and ``baseline-gen`` commands: word lists, written as bytes.

Only these two commands load this module, and their handlers live here.
``gen_blocks`` checks a ``gen`` request and picks its words: the walk
(``walk``) of a ``motzkin.StateTable`` for the CBFS, Motzkin and elevated
sets, whose ``text_blocks`` are one block of lines for each node of the
walk's frontier, made from templates built once per state below it with
C-level byte operations, or the ``(head, tails)`` groups of the bifix-free
and baseline sets, formatted by ``group_blocks``. ``write_word_list``
joins the blocks into pieces of at least 64 KiB and writes them as
word-per-line text or as the JSON of ``codeset.CodeSet.to_json``, through
``jsontext``, which only the JSON form loads: the word and provenance lists
are pieces led by ``jsontext.ITEM``, and the provenance generators import
it only when they are first read. A word's line is the text that
``words.format_symbols`` gives it: digits for q <= 10, decimal integers
between commas above.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice, repeat

from .cli import _FAMILIES, _output
from .counting import count_cbfs, motzkin_count
from .words import check_alphabet, format_symbols

# Maps the symbol bytes 0..9 to their digits and keeps byte 10, the newline.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")

# Words per chunk of `gen --set bifixfree`, and provenance items per piece
# of a uniformly tagged list.
GEN_CHUNK = 4096

# The least bytes per write of a word list, but for its last write; a walk's
# blocks hold at most motzkin.BLOCK_SIZE bytes, the same number.
WRITE_SIZE = 1 << 16


def _cmd_gen(args) -> int:
    blocks, provenance = gen_blocks(args)
    with _output(args.out) as fh:
        write_word_list(fh, args.format, args.q, args.n, blocks, provenance)
    return 0


def _cmd_baseline_gen(args) -> int:
    from .baseline import baseline_groups

    size, groups = baseline_groups(args.k, args.q, args.n, max_space=args.limit)
    with _output(args.out) as fh:
        write_word_list(fh, args.format, args.q, args.n, group_blocks(args.q, groups), tagged("baseline", size))
    return 0


def tagged(tag: str, count: int) -> Iterator[bytes]:
    """The pieces of a JSON provenance list of ``count`` copies of ``tag``,
    as ``write_word_list`` takes them."""
    from .jsontext import ITEM, text

    item = ITEM + text(tag).encode()
    for i in range(0, count, GEN_CHUNK):
        yield item * min(GEN_CHUNK, count - i)


def family_tags(table, tags: str) -> Iterator[bytes]:
    """The pieces of the JSON provenance list of the words of a CBFS
    ``table`` whose shape j is the family ``tags[j]``: one piece for each
    node of the walk's frontier, joined from its children's pieces, which
    are built once per state from the item of each word's family. Nothing
    is imported or walked before the first piece is asked for."""
    from .jsontext import ITEM, text
    from .walk import blocks

    items = [ITEM + text(tag).encode() for tag in tags]

    def join(p, parts, prefix=()):
        return b"".join([piece for _, piece in parts])

    yield from blocks(table, lambda s: items[s[2].bit_length() - 1], join, table.cap)


def gen_blocks(args):
    """Check the alphabet and --limit for a `gen` request, then return the
    blocks of its words in canonical order and the pieces of their JSON
    provenance list. The Motzkin and elevated sets take ``q - 2`` level
    colors, as the CBFS sets do. A CBFS set's tags come from a second walk
    of the same table, made only if the list is written; every word of the
    other sets is tagged external. No table is built and no word produced
    before the checks pass."""
    q, n = args.q, args.n
    tags = _FAMILIES.get(args.set)
    if tags:
        from .cbfs import cbfs_shapes

        expected, shapes = count_cbfs(q, n, tags), cbfs_shapes(q, n, tags)
    elif args.set == "bifixfree":
        from .bifixfree import count_bifix_free, iter_bifix_free

        expected, shapes = count_bifix_free(q, n), None
    else:
        from .motzkin import elevated_shapes, motzkin_shapes

        if args.set == "motzkin":
            expected, shapes = motzkin_count(q - 2, n), motzkin_shapes(q - 2, n)
        else:
            expected, shapes = motzkin_count(q - 2, n - 2), elevated_shapes(q - 2, n)  # 0 for n < 2
    check_alphabet(q)  # as a Word of the set would
    if expected > args.limit:
        raise ValueError(f"{args.set} at q={q}, n={n} holds {expected} words, above --limit {args.limit}")
    if shapes is None:
        # chunks of the word stream, as groups with an empty head; their
        # tails are iterators, so no pair outlives its word's turn
        words = iter_bifix_free(q, n)
        groups = (((), zip(chunk, repeat(0))) for chunk in iter(lambda: list(islice(words, GEN_CHUNK)), []))
        return group_blocks(q, groups), tagged("external", expected)
    from .motzkin import StateTable

    table = StateTable(q, n, shapes)
    return text_blocks(table), family_tags(table, tags) if tags else tagged("external", expected)


def text_blocks(table) -> Iterator[bytes]:
    """The word-per-line ASCII bytes of the words of a ``StateTable``, one
    block for each node of its walk's frontier, of at most ``BLOCK_SIZE``
    bytes for q <= 10 (more only for a node one step from the end with that
    many children).

    For q <= 10 every line has n + 1 bytes. A state's template holds its
    completions' lines with the columns of its prefix left as zeros; a
    parent's template is its children's templates joined, with each child's
    symbol written down its column in one strided slice assignment, and a
    frontier node's block is made the same way, with its prefix written a
    column at a time. For q > 10 the lines vary in width: a template holds
    its completions from its own position on, and the lines of each child
    are led by the child's symbol and a comma, and at a frontier node by
    the prefix before them, in one ``replace``.
    """
    from .walk import blocks

    n = table.n
    if table.q > 10:

        def build(p, parts, prefix=()):
            head = b"".join([b"%d," % symbol for symbol in prefix])
            lines = []
            for symbol, block in parts:
                if block:  # a state with no completion has no line
                    lead = head + (b"%d," % symbol if p + 1 < n else b"%d" % symbol)
                    lines.append(lead + block[:-1].replace(b"\n", b"\n" + lead) + b"\n")
            return b"".join(lines)

        return blocks(table, lambda s: b"\n", build, table.cap)
    width = n + 1
    leaf = b"0" * n + b"\n"
    digits = [b"%d" % symbol for symbol in range(10)]

    def build(p, parts, prefix=()):
        block = bytearray().join([lines for _, lines in parts])
        start = 0
        for symbol, lines in parts:
            stop = start + len(lines)
            block[start + p : stop : width] = digits[symbol] * (len(lines) // width)
            start = stop
        for column, symbol in enumerate(prefix):
            block[column::width] = digits[symbol] * (len(block) // width)
        return block

    return blocks(table, lambda s: leaf, build, table.cap)


def group_blocks(q: int, groups) -> Iterator[bytes]:
    """The word-per-line ASCII bytes of ``(head, tails)`` groups, whose words
    are ``head + tail`` for each ``(tail, index)`` in ``tails``: a list if
    the head is not empty, any iterable if it is. A list of several tails,
    which the baseline's groups share, has its lines made once, for as long
    as the groups hand out that list object, and each such group is those
    lines joined by the head's line, and a comma for q > 10, which leads
    each of them. The words of the other groups are collected and formatted
    in one pass for each ``GEN_CHUNK`` of them or more. For q <= 10 a line
    is the symbols as bytes, translated to digits in one pass."""
    if q <= 10:

        def lead(head):
            return bytes(head).translate(_DIGITS)

    else:

        def lead(head):
            return format_symbols(head, q).encode("ascii") + b","

    rows, shared, lines = [], None, []
    for head, tails in groups:
        if head and len(tails) > 1:
            if rows:
                yield _lines(q, rows)
                rows = []
            if tails is not shared:
                shared = tails
                lines = [b"", *_lines(q, [tail for tail, _ in tails]).splitlines(keepends=True)]
            yield lead(head).join(lines)
            continue
        rows += [head + tail for tail, _ in tails]
        if len(rows) >= GEN_CHUNK:
            yield _lines(q, rows)
            rows = []
    if rows:
        yield _lines(q, rows)


def _lines(q: int, rows: list) -> bytes:
    if q <= 10:
        return b"\n".join(map(bytes, rows)).translate(_DIGITS) + b"\n"
    return "\n".join([format_symbols(row, q) for row in rows]).encode("ascii") + b"\n"


def _pieces(blocks: Iterator[bytes]) -> Iterator[bytes]:
    """``blocks`` joined into pieces of at least ``WRITE_SIZE`` bytes, but
    for the last one."""
    batch, size = [], 0
    for block in blocks:
        batch.append(block)
        size += len(block)
        if size >= WRITE_SIZE:
            yield b"".join(batch)
            batch, size = [], 0
    if batch:
        yield b"".join(batch)


def write_word_list(fh, fmt: str, q: int, n: int, blocks: Iterator[bytes], provenance: Iterator[bytes]) -> None:
    """Write word-per-line ``blocks`` of whole lines to the binary file
    ``fh`` as text (``fmt`` "text") or as the JSON of ``CodeSet.to_json``
    ("json"), whose provenance list is the pieces of ``provenance``, each
    item led by ``,\\n`` and a four-space indent. The blocks are written in
    pieces of at least ``WRITE_SIZE`` bytes, so that a file buffered by a
    few KiB, as stdout is, is written once per piece rather than once per
    buffer."""
    blocks = _pieces(blocks)
    if fmt == "text":
        fh.writelines(blocks)
        return
    from .jsontext import ITEM, write_object

    lead = ITEM + b'"'
    words = (lead + block[:-1].replace(b"\n", b'"' + lead) + b'"' for block in blocks)
    write_object(fh, [("q", q), ("n", n), ("provenance", provenance), ("words", words)])
