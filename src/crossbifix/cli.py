"""Command-line front-end: counting, generation, verification, size tables.

Exit codes: 0 success, 1 verification failed, 2 usage or domain error.

This module holds the argument grammar, the dispatch and the helpers that
more than one command uses, and imports nothing from the package but its
root. The grammar is one table, ``_COMMANDS``, read two ways. ``main``
first reads argv with ``_read_argv``, which takes only the canonical form
(the command and each option spelled in full, each option once, every
value its own token) and needs no module beyond those the interpreter
starts with. Any other argv, and every request for help, goes to
``build_parser``'s argparse parser, built from the same table, which
prints the help, usage and refusals. So ``argparse``, and the ``gettext``
and ``locale`` it loads, are loaded only for help and refusals.

Each command's handler lives in the module of the layer it runs, which
``main`` imports once argv is read: ``count`` and ``table`` in ``sizes``,
``gen`` and ``baseline-gen`` in ``wordlist``, ``verify`` in ``verify``. So
a process loads, and without cached bytecode compiles, only what its
command runs. Every command's JSON is written by ``jsontext``, the one
module that knows JSON text, without ``json``, and ``table``'s CSV without
``csv``. ``main`` lifts Python's int-str digit cap for the command it runs.
"""

from __future__ import annotations

import io
import sys
from contextlib import contextmanager
from importlib import import_module
from types import SimpleNamespace

from . import DEFAULT_MAX_SPACE

# Largest word length `count` and `table` take by default: their exact
# counts cost O(n^2) bit operations, seconds per count at this length.
DEFAULT_LENGTH_LIMIT = 100_000

# The families of each CBFS --set, as count_cbfs and cbfs_shapes take them.
_FAMILIES = {"cbfs": "ABC", "A": "A", "B": "B", "C": "C"}

_LENGTH_HELP = f"refuse word lengths n above this (default: {DEFAULT_LENGTH_LIMIT})"

# The grammar: for each command, its handler (the module of its layer and
# the name in it), its help line and its options. An option is (flag, dest,
# kind, default, required, help), where the kind is "integer" or "range"
# (argparse's types _integer and _parse_range), "string", "store_true" or
# the tuple of the option's choices.
_COMMANDS = {
    "count": (
        ("sizes", "_cmd_count"),
        "print an exact cardinality",
        (
            ("--q", "q", "integer", None, True, "alphabet size"),
            ("--n", "n", "integer", None, True, "word length"),
            (
                "--set",
                "set",
                ("cbfs", "A", "B", "C", "S", "Sstar", "motzkin"),
                "cbfs",
                False,
                "which family to count (default: cbfs)",
            ),
            ("--limit", "limit", "integer", DEFAULT_LENGTH_LIMIT, False, _LENGTH_HELP),
        ),
    ),
    "gen": (
        ("wordlist", "_cmd_gen"),
        "write a word list in canonical order",
        (
            ("--q", "q", "integer", None, True, None),
            ("--n", "n", "integer", None, True, None),
            ("--set", "set", ("cbfs", "A", "B", "C", "motzkin", "elevated", "bifixfree"), "cbfs", False, None),
            ("--out", "out", "string", None, False, "output path (default: stdout)"),
            ("--format", "format", ("text", "json"), "text", False, None),
            ("--limit", "limit", "integer", DEFAULT_MAX_SPACE, False, "refuse outputs larger than this many words"),
        ),
    ),
    "baseline-gen": (
        ("wordlist", "_cmd_baseline_gen"),
        "write a baseline set S(k, q, n)",
        (
            ("--k", "k", "integer", None, True, "zero-run length"),
            ("--q", "q", "integer", None, True, None),
            ("--n", "n", "integer", None, True, None),
            ("--out", "out", "string", None, False, None),
            ("--format", "format", ("text", "json"), "text", False, None),
            ("--limit", "limit", "integer", DEFAULT_MAX_SPACE, False, None),
        ),
    ),
    "verify": (
        ("verify", "_cmd_verify"),
        "verify a word-list file, print a JSON report",
        (
            ("--in", "infile", "string", None, True, "word-per-line file, or - for stdin"),
            ("--q", "q", "integer", None, True, None),
            ("--n", "n", "integer", None, False, "word length (default: inferred)"),
            ("--mode", "mode", ("set", "nonexpandable"), "set", False, None),
            (
                "--limit",
                "limit",
                "integer",
                DEFAULT_MAX_SPACE,
                False,
                "nonexpandable mode: refuse sets with more outside bifix-free candidates, U_q(n) - |S|, than this",
            ),
            (
                "--all-witnesses",
                "all_witnesses",
                "store_true",
                False,
                False,
                "nonexpandable mode: list every candidate with its blocking witness, not only the unblocked ones",
            ),
        ),
    ),
    "table": (
        ("sizes", "_cmd_table"),
        "emit size comparison tables",
        (
            ("--q", "q", "range", range(3, 7), False, "alphabet sizes, e.g. 3..6"),
            ("--n", "n", "range", range(3, 17), False, "word lengths, e.g. 3..16"),
            ("--compare", "compare", ("S", "Sstar"), "S", False, None),
            ("--format", "format", ("csv", "json"), "csv", False, None),
            ("--bold", "bold", "store_true", False, False, "add columns marking where cbfs exceeds the comparator"),
            ("--out", "out", "string", None, False, None),
            ("--limit", "limit", "integer", DEFAULT_LENGTH_LIMIT, False, _LENGTH_HELP),
        ),
    ),
}


def _read_integer(text: str) -> int | None:
    """The value of ASCII ``-?[0-9]+`` text, or None for any other text
    (other Unicode digits, a plus sign, spaces, underscores) and for more
    digits than int reads under its digit cap."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past int's digit cap
            pass
    return None


def _read_range(text: str) -> range | None:
    """The integers of a single integer or an inclusive range like 3..16,
    each end read as ``_read_integer`` reads it, as a ``range``, so that a
    long one costs nothing before ``--limit`` refuses it; None for any other
    text. A range whose ends are out of order is empty."""
    parts = text.split("..", 1)
    lo, hi = _read_integer(parts[0]), _read_integer(parts[-1])
    return None if lo is None or hi is None else range(lo, hi + 1)


def _integer(text: str) -> int:
    """argparse's type for an integer option: ``_read_integer``, which reads
    options as strictly as words, and a message that argparse prints with
    the option's name."""
    value = _read_integer(text)
    if value is None:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _parse_range(text: str) -> range:
    """argparse's type for a range option: ``_read_range``, with what is
    wrong with any other text or an empty range."""
    span = _read_range(text)
    if not span:
        from argparse import ArgumentTypeError

        wrong = "expected an integer or a range like 3..16, got" if span is None else "empty range"
        raise ArgumentTypeError(f"{wrong} {text!r}")
    return span


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for an
    argv in the canonical form: the command and each option spelled in
    full, no option twice, every required option given, and each value a
    token that does not start with ``-`` or is ``-``, read as the option's
    kind reads it. None for any other argv, which argparse reads or
    refuses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[argv[0]]
    by_flag = {option[0]: option for option in options}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option = by_flag.get(token)
        if option is None or option[1] in values:
            return None
        _, dest, kind, *_ = option
        if kind == "store_true":
            values[dest] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-") and text != "-":
            return None
        if kind == "integer":
            value = _read_integer(text)
        elif kind == "range":
            value = _read_range(text) or None
        elif kind == "string" or text in kind:
            value = text
        else:
            return None  # not one of the choices
        if value is None:
            return None
        values[dest] = value
    if any(required and dest not in values for _, dest, _, _, required, _ in options):
        return None
    defaults = {dest: default for _, dest, _, default, _, _ in options}
    return SimpleNamespace(command=argv[0], handler=handler, **{**defaults, **values})


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


def build_parser():
    """The argparse parser of the grammar in ``_COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="crossbifix",
        description="Construct, count and verify cross-bifix-free word sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = {"integer": _integer, "range": _parse_range, "string": None}
    for command, (handler, command_help, options) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=command_help)
        for flag, dest, kind, default, required, option_help in options:
            if kind == "store_true":
                p_command.add_argument(flag, dest=dest, action="store_true", help=option_help)
            elif isinstance(kind, tuple):
                p_command.add_argument(flag, dest=dest, default=default, choices=kind, help=option_help)
            else:
                p_command.add_argument(
                    flag, dest=dest, type=types[kind], default=default, required=required, help=option_help
                )
        p_command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or build_parser().parse_args(argv)
    module, name = args.handler  # the module that holds the command's handler
    if sys.stdout is None and getattr(args, "out", None) in (None, "-"):
        # the process started with its standard output closed
        print("error: stdout is closed", file=sys.stderr)
        return 2
    if sys.stdin is None and getattr(args, "infile", None) == "-":
        # the process started with its standard input closed
        print("error: stdin is closed", file=sys.stderr)
        return 2
    # Python's cap on int-str conversion (4300 digits by default, where the
    # interpreter has one) is lifted once argv is read, so that exact counts
    # print in full and long words are read, and restored after the command.
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return getattr(import_module(f".{module}", __package__), name)(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    raise SystemExit(main())
