"""Command-line front-end: counting, generation, verification, size tables.

Exit codes: 0 success, 1 verification failed, 2 usage or domain error.

Each process loads only what its command runs. Only ``counting``, which
imports nothing else from the package, is imported here; ``count`` and
``table`` need no more, or ``baseline`` besides. The walk (``cbfs``,
``motzkin``), ``words``, ``baseline``, ``verify`` and ``wordlist``, which
writes the word lists of ``gen`` and ``baseline-gen`` as bytes, are
imported by the commands that use them. The JSON of ``gen``,
``baseline-gen`` and ``table`` and the CSV of ``table`` are laid out
without ``json`` or ``csv``: ``json`` is loaded only by the ``to_json`` of
a verification report, and ``csv`` never.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from contextlib import contextmanager, nullcontext

from .counting import DEFAULT_MAX_SPACE, count_cbfs, family_sizes, motzkin_count

# Largest word length `count` and `table` take by default: their exact
# counts cost O(n^2) bit operations, seconds per count at this length.
DEFAULT_LENGTH_LIMIT = 100_000

# The families of each CBFS --set, as count_cbfs and cbfs_groups take them.
_FAMILIES = {"cbfs": "ABC", "A": "A", "B": "B", "C": "C"}


def size_table(q_values, n_values, compare: str, bold: bool) -> tuple[list[str], list[list]]:
    """The column names and rows of the size table: for each n, then for
    each q, |CBFS(q, n)| and the comparator's maximum (the baseline S or its
    extension Sstar, None where the maximization has no run length) and,
    with ``bold``, 1 where CBFS is larger, 0 where not, None with no
    comparator."""
    from .baseline import best_sizes

    k_min = {"S": 2, "Sstar": 1}[compare]
    columns = ("cbfs", "cmp", "bold") if bold else ("cbfs", "cmp")
    names = ["n"] + [f"{column}_q{q}" for q in q_values for column in columns]
    rows = [[n] for n in n_values]
    for q in q_values:
        sizes = family_sizes(q, n_values)
        best = best_sizes(q, n_values, k_min)
        for n, row in zip(n_values, rows):
            ours = sum(sizes[n])
            other = best[n][0] if n in best else None
            row += [ours, other, None if other is None else int(ours > other)][: len(columns)]
    return names, rows


def _integer(text: str) -> int:
    """An integer option's value, ASCII ``-?[0-9]+``. Other Unicode digits,
    a plus sign, spaces, underscores and more digits than int reads under
    its digit cap are refused, so options are read as strictly as words;
    argparse prints the message with the option's name."""
    if re.fullmatch(r"-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # past int's digit cap
            pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _parse_range(text: str) -> list[int]:
    """A single integer or an inclusive range like 3..16, each end read as
    ``_integer`` reads it; argparse prints what is wrong with any other
    text."""
    parts = text.split("..", 1)
    try:
        lo, hi = _integer(parts[0]), _integer(parts[-1])
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected an integer or a range like 3..16, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


@contextmanager
def _output(path: str | None):
    """A binary file to write: stdout for a missing path or ``-``, else the
    file at ``path``. A stdout that is a text-only stream, such as an
    ``io.StringIO`` put in its place, gets the bytes decoded once the block
    ends."""
    if path not in (None, "-"):
        with open(path, "wb") as fh:
            yield fh
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text written before goes first
        yield sys.stdout.buffer
    else:
        buffer = io.BytesIO()
        try:
            yield buffer
        finally:
            sys.stdout.write(buffer.getvalue().decode("ascii"))


@contextmanager
def _exact_int_output():
    """Lift Python's cap on int-str conversion (4300 digits by default,
    where the interpreter has one) so that exact counts print in full and
    long words are read, and restore it afterwards. ``main`` runs each
    command in it, once argv is parsed."""
    get_cap = getattr(sys, "get_int_max_str_digits", None)
    if get_cap is None:
        yield
        return
    cap = get_cap()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _check_length(n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(f"word length n={n} above --limit {limit}")


def _cmd_count(args) -> int:
    _check_length(args.n, args.limit)
    suffix = ""
    if args.set in ("S", "Sstar"):
        from .baseline import s_max, s_star

        best = s_max if args.set == "S" else s_star
        value, k = best(args.n, args.q)
        suffix = f" k={k}"
    elif args.set == "motzkin":
        value = motzkin_count(args.q - 2, args.n)  # checks the colors; 0 for n < 0
        if args.n < 0:
            raise ValueError(f"length must be non-negative, got {args.n}")
    else:
        value = count_cbfs(args.q, args.n, _FAMILIES[args.set])
    print(f"{value}{suffix}")
    return 0


def _write_json_object(fh, members) -> None:
    """Write a JSON object and a newline to the binary file ``fh`` as
    ``json.dump(..., indent=2)`` lays them out, from ``(key, value)``
    members with plain ASCII keys. A value is the bytes of its JSON text,
    or for a list an iterator of pieces of its items' text, where each item
    is led by ``,\\n`` and a four-space indent. The pieces are written as
    they come, so no list is held whole.
    """
    lead = "{\n"
    for key, value in members:
        fh.write(f'{lead}  "{key}": '.encode())
        lead = ",\n"
        if isinstance(value, bytes):
            fh.write(value)
            continue
        first = next(value, None)
        if first is None:
            fh.write(b"[]")
        else:
            fh.write(b"[" + first[1:])  # the first item has no comma before it
            fh.writelines(value)
            fh.write(b"\n  ]")
    fh.write(b"\n}\n")


def _cmd_gen(args) -> int:
    from .wordlist import gen_groups, write_word_list

    groups, provenance = gen_groups(args)
    with _output(args.out) as fh:
        write_word_list(fh, args.format, args.q, args.n, groups, provenance)
    return 0


def _cmd_baseline_gen(args) -> int:
    from .baseline import baseline_groups
    from .wordlist import tagged, write_word_list

    size, groups = baseline_groups(args.k, args.q, args.n, max_space=args.limit)
    with _output(args.out) as fh:
        write_word_list(fh, args.format, args.q, args.n, groups, tagged("baseline", size))
    return 0


def _cmd_verify(args) -> int:
    from .verify import cross_bifix_report, non_expandable_report
    from .words import check_alphabet, read_codes

    check_alphabet(args.q)  # before the input is read
    with nullcontext(sys.stdin) if args.infile == "-" else open(args.infile, encoding="utf-8") as fh:
        n, codes = read_codes(fh.read(), args.q, args.n)
    if args.mode == "set":
        report = cross_bifix_report(args.q, n, codes)
    else:
        report = non_expandable_report(args.q, n, codes, args.limit, args.all_witnesses)
    sys.stdout.write(report.to_json())
    return 2 if report.error is not None else 0 if report.ok else 1


def _cmd_table(args) -> int:
    _check_length(max(args.n), args.limit)
    names, rows = size_table(args.q, args.n, args.compare, args.bold)
    with _output(args.out) as fh:
        if args.format == "json":
            # one piece for each list of values and for each row
            fields = [f'      "{name}": ' for name in names]
            cells = (",\n".join([f"{f}{'null' if v is None else v}" for f, v in zip(fields, row)]) for row in rows)
            members = [
                ("compare", f'"{args.compare}"'.encode()),
                ("q_values", iter(["".join(f",\n    {q}" for q in args.q).encode()])),
                ("n_values", iter(["".join(f",\n    {n}" for n in args.n).encode()])),
                ("rows", ((",\n    {\n" + text + "\n    }").encode() for text in cells)),
            ]
            _write_json_object(fh, members)
        else:
            # no cell or name needs CSV quoting: cells are integers or None
            fh.write((",".join(names) + "\n").encode())
            fh.writelines((",".join(["" if v is None else str(v) for v in row]) + "\n").encode() for row in rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossbifix",
        description="Construct, count and verify cross-bifix-free word sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    length_help = f"refuse word lengths n above this (default: {DEFAULT_LENGTH_LIMIT})"

    p_count = sub.add_parser("count", help="print an exact cardinality")
    p_count.add_argument("--q", type=_integer, required=True, help="alphabet size")
    p_count.add_argument("--n", type=_integer, required=True, help="word length")
    p_count.add_argument(
        "--set",
        default="cbfs",
        choices=("cbfs", "A", "B", "C", "S", "Sstar", "motzkin"),
        help="which family to count (default: cbfs)",
    )
    p_count.add_argument("--limit", type=_integer, default=DEFAULT_LENGTH_LIMIT, help=length_help)
    p_count.set_defaults(func=_cmd_count)

    p_gen = sub.add_parser("gen", help="write a word list in canonical order")
    p_gen.add_argument("--q", type=_integer, required=True)
    p_gen.add_argument("--n", type=_integer, required=True)
    p_gen.add_argument(
        "--set",
        default="cbfs",
        choices=("cbfs", "A", "B", "C", "motzkin", "elevated", "bifixfree"),
    )
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")
    p_gen.add_argument("--format", default="text", choices=("text", "json"))
    p_gen.add_argument(
        "--limit", type=_integer, default=DEFAULT_MAX_SPACE, help="refuse outputs larger than this many words"
    )
    p_gen.set_defaults(func=_cmd_gen)

    p_bgen = sub.add_parser("baseline-gen", help="write a baseline set S(k, q, n)")
    p_bgen.add_argument("--k", type=_integer, required=True, help="zero-run length")
    p_bgen.add_argument("--q", type=_integer, required=True)
    p_bgen.add_argument("--n", type=_integer, required=True)
    p_bgen.add_argument("--out", default=None)
    p_bgen.add_argument("--format", default="text", choices=("text", "json"))
    p_bgen.add_argument("--limit", type=_integer, default=DEFAULT_MAX_SPACE)
    p_bgen.set_defaults(func=_cmd_baseline_gen)

    p_verify = sub.add_parser("verify", help="verify a word-list file, print a JSON report")
    p_verify.add_argument("--in", dest="infile", required=True, help="word-per-line file, or - for stdin")
    p_verify.add_argument("--q", type=_integer, required=True)
    p_verify.add_argument("--n", type=_integer, default=None, help="word length (default: inferred)")
    p_verify.add_argument("--mode", default="set", choices=("set", "nonexpandable"))
    p_verify.add_argument(
        "--limit",
        type=_integer,
        default=DEFAULT_MAX_SPACE,
        help="nonexpandable mode: refuse sets with more outside bifix-free candidates, U_q(n) - |S|, than this",
    )
    p_verify.add_argument(
        "--all-witnesses",
        action="store_true",
        help="nonexpandable mode: list every candidate with its blocking witness, not only the unblocked ones",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="emit size comparison tables")
    p_table.add_argument("--q", type=_parse_range, default=list(range(3, 7)), help="alphabet sizes, e.g. 3..6")
    p_table.add_argument("--n", type=_parse_range, default=list(range(3, 17)), help="word lengths, e.g. 3..16")
    p_table.add_argument("--compare", default="S", choices=("S", "Sstar"))
    p_table.add_argument("--format", default="csv", choices=("csv", "json"))
    p_table.add_argument("--bold", action="store_true", help="add columns marking where cbfs exceeds the comparator")
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--limit", type=_integer, default=DEFAULT_LENGTH_LIMIT, help=length_help)
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _exact_int_output():  # argv is read under the cap, the command without it
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
