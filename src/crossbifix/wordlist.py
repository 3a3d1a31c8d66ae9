"""The ``gen`` and ``baseline-gen`` commands: word lists, written as bytes.

Only these two commands load this module, and their handlers live here.
``gen_groups`` checks a ``gen`` request and picks its walk; ``word_blocks``
turns ``(head, tails)`` groups, as ``motzkin.lex_groups`` yields them, into
ASCII bytes, one block for each group or for each walk state's first visit;
``write_word_list`` joins the blocks into pieces of at least 64 KiB and
writes them as word-per-line text or as the JSON of
``codeset.CodeSet.to_json``, through ``jsontext``, which only the JSON form
loads: the word and provenance lists are pieces led by ``jsontext.ITEM``,
and the provenance generators import it only when they are first read. A
word's line is the text that ``words.format_symbols`` gives it: digits for
q <= 10, decimal integers between commas above.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice, repeat

from .cli import _FAMILIES, _output
from .counting import count_cbfs, motzkin_count
from .words import check_alphabet, format_symbols

# Maps the symbol bytes 0..9 to their digits and keeps byte 10, the newline.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")

# Words per chunk of `gen --set bifixfree` and at most per block of one
# state's first visit, and provenance items per piece of a uniformly tagged
# list.
GEN_CHUNK = 4096

# The least bytes per write of a word list, but for its last write.
WRITE_SIZE = 1 << 16


def _cmd_gen(args) -> int:
    groups, provenance = gen_groups(args)
    with _output(args.out) as fh:
        write_word_list(fh, args.format, args.q, args.n, groups, provenance)
    return 0


def _cmd_baseline_gen(args) -> int:
    from .baseline import baseline_groups

    size, groups = baseline_groups(args.k, args.q, args.n, max_space=args.limit)
    with _output(args.out) as fh:
        write_word_list(fh, args.format, args.q, args.n, groups, tagged("baseline", size))
    return 0


def tagged(tag: str, count: int) -> Iterator[bytes]:
    """The pieces of a JSON provenance list of ``count`` copies of ``tag``,
    as ``write_word_list`` takes them."""
    from .jsontext import ITEM, text

    item = ITEM + text(tag).encode()
    for i in range(0, count, GEN_CHUNK):
        yield item * min(GEN_CHUNK, count - i)


def family_tags(q: int, n: int, tags: str) -> Iterator[bytes]:
    """The pieces of the JSON provenance list of ``CBFS(q, n)`` built from
    the families ``tags``, one piece for each group of its walk."""
    from .cbfs import cbfs_groups
    from .jsontext import ITEM, text

    items = [ITEM + text(tag).encode() for tag in tags]
    for _, tails in cbfs_groups(q, n, tags):
        yield b"".join([items[j] for _, j in tails])


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
        provenance = family_tags(q, n, tags)
    else:
        if args.set == "bifixfree":
            from .bifixfree import count_bifix_free, iter_bifix_free

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
    for each group that holds a word, except that a run of one-element
    groups handing the same head object makes one block of at most
    ``GEN_CHUNK`` words.

    A list of several tails comes back each time its walk state does, so
    its lines are made once and kept with the list, which holds the list's
    id for them; each group is then those lines joined by the head's line
    (and a comma for q > 10), which leads each of them, so the kept lines
    are one block per state met at the cut. One-element groups whose head
    is the object of the group before are the words of one state's first
    visit at the cut (see ``motzkin.lex_groups``), so they are collected
    and formatted in one pass; heads are compared with ``is``, so equal
    heads of distinct groups stay apart. Groups with an empty head, whose
    tails may be any iterable, are formatted as they come. For q <= 10 a
    line is the symbols as bytes, translated to digits, and a block of
    several words is translated in one pass.
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
    # the words of the block being made: those of a group that is not a
    # replay, then those of the one-element groups after it that hand the
    # same head object `first`
    run, first = [], None
    for head, tails in groups:
        if head and len(tails) == 1 and head is first and len(run) < GEN_CHUNK:
            run.append(head + tails[0][0])
            continue
        if run:
            yield lines(run) + b"\n"
        first = head
        if head and len(tails) > 1:
            run = []
            entry = kept.get(id(tails))
            if entry is None:
                block = lines([tail for tail, _ in tails])
                entry = kept[id(tails)] = (tails, [b"", *[text + b"\n" for text in block.split(b"\n")]])
            yield (line(head) + sep).join(entry[1])
        else:
            run = [head + tail for tail, _ in tails]
    if run:
        yield lines(run) + b"\n"


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


def write_word_list(fh, fmt: str, q: int, n: int, groups, provenance: Iterator[bytes]) -> None:
    """Write the words of ``(head, tails)`` groups to the binary file ``fh``
    as word-per-line text (``fmt`` "text") or as the JSON of
    ``CodeSet.to_json`` ("json"), whose provenance list is the pieces of
    ``provenance``, each item led by ``,\\n`` and a four-space indent. The
    blocks of ``word_blocks`` are written in pieces of at least
    ``WRITE_SIZE`` bytes, so that a file buffered by a few KiB, as stdout
    is, is written once per piece rather than once per buffer."""
    blocks = _pieces(word_blocks(q, groups))
    if fmt == "text":
        fh.writelines(blocks)
        return
    from .jsontext import ITEM, write_object

    lead = ITEM + b'"'
    words = (lead + block[:-1].replace(b"\n", b'"' + lead) + b'"' for block in blocks)
    write_object(fh, [("q", q), ("n", n), ("provenance", provenance), ("words", words)])
