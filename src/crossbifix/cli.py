"""Command-line front-end: counting, generation, verification, size tables.

Exit codes: 0 success, 1 verification failed, 2 usage or domain error.

This module holds the argument grammar, the dispatch and the helpers that
more than one command uses, and imports nothing from the package but its
root. Each command's handler lives in the module of the layer it runs,
which ``main`` imports once argv is parsed: ``count`` and ``table`` in
``sizes``, ``gen`` and ``baseline-gen`` in ``wordlist``, ``verify`` in
``verify``. So a process loads, and without cached bytecode compiles, only
what its command runs. Every command's JSON is written by ``jsontext``,
without ``json``, and ``table``'s CSV without ``csv``.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from contextlib import contextmanager
from importlib import import_module

from . import DEFAULT_MAX_SPACE

# Largest word length `count` and `table` take by default: their exact
# counts cost O(n^2) bit operations, seconds per count at this length.
DEFAULT_LENGTH_LIMIT = 100_000

# The families of each CBFS --set, as count_cbfs and cbfs_groups take them.
_FAMILIES = {"cbfs": "ABC", "A": "A", "B": "B", "C": "C"}


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
    p_count.set_defaults(handler=("sizes", "_cmd_count"))

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
    p_gen.set_defaults(handler=("wordlist", "_cmd_gen"))

    p_bgen = sub.add_parser("baseline-gen", help="write a baseline set S(k, q, n)")
    p_bgen.add_argument("--k", type=_integer, required=True, help="zero-run length")
    p_bgen.add_argument("--q", type=_integer, required=True)
    p_bgen.add_argument("--n", type=_integer, required=True)
    p_bgen.add_argument("--out", default=None)
    p_bgen.add_argument("--format", default="text", choices=("text", "json"))
    p_bgen.add_argument("--limit", type=_integer, default=DEFAULT_MAX_SPACE)
    p_bgen.set_defaults(handler=("wordlist", "_cmd_baseline_gen"))

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
    p_verify.set_defaults(handler=("verify", "_cmd_verify"))

    p_table = sub.add_parser("table", help="emit size comparison tables")
    p_table.add_argument("--q", type=_parse_range, default=list(range(3, 7)), help="alphabet sizes, e.g. 3..6")
    p_table.add_argument("--n", type=_parse_range, default=list(range(3, 17)), help="word lengths, e.g. 3..16")
    p_table.add_argument("--compare", default="S", choices=("S", "Sstar"))
    p_table.add_argument("--format", default="csv", choices=("csv", "json"))
    p_table.add_argument("--bold", action="store_true", help="add columns marking where cbfs exceeds the comparator")
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--limit", type=_integer, default=DEFAULT_LENGTH_LIMIT, help=length_help)
    p_table.set_defaults(handler=("sizes", "_cmd_table"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    module, name = args.handler  # the module that holds the command's handler
    try:
        with _exact_int_output():  # argv is read under the cap, the command without it
            return getattr(import_module(f".{module}", __package__), name)(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
