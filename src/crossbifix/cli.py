"""Command-line front-end: counting, generation, verification, size tables.

Exit codes: 0 success, 1 verification failed, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat

from .baseline import best_sizes, construct_baseline_set, s_max, s_star
from .cbfs import CodeSet, cbfs_groups, count_A, count_B, count_C, count_cbfs, family_sizes
from .motzkin import elevated_groups, motzkin_count, motzkin_groups
from .verify import (
    check_candidate_cap,
    count_bifix_free,
    iter_bifix_free,
    verify_cross_bifix_free_set,
    verify_non_expandable,
)
from .words import format_symbol_lines, format_symbols, parse_symbols

DEFAULT_LIMIT = 10_000_000
# Largest word length `count` and `table` take by default: their exact
# counts cost O(n^2) bit operations, seconds per count at this length.
DEFAULT_LENGTH_LIMIT = 100_000
# Words per write call of `gen --set bifixfree`.
GEN_CHUNK = 4096

_COUNTERS = {"cbfs": count_cbfs, "A": count_A, "B": count_B, "C": count_C}


@dataclass(frozen=True)
class SizeTable:
    """Exact per-(q, n) sizes of the constructed sets next to a comparator
    column (the baseline maximum S or its extension Sstar). Comparator
    entries outside the maximization's domain are None."""

    compare: str
    q_values: tuple[int, ...]
    n_values: tuple[int, ...]
    cbfs: dict
    comparator: dict

    def column_names(self, bold: bool) -> list[str]:
        names = ["n"]
        for q in self.q_values:
            names.append(f"cbfs_q{q}")
            names.append(f"cmp_q{q}")
            if bold:
                names.append(f"bold_q{q}")
        return names

    def _row_cells(self, n: int, bold: bool) -> list:
        cells: list = [n]
        for q in self.q_values:
            ours = self.cbfs[q, n]
            other = self.comparator[q, n]
            cells.append(ours)
            cells.append(other)
            if bold:
                cells.append(None if other is None else int(ours > other))
        return cells

    def to_csv(self, bold: bool = False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.column_names(bold))
        for n in self.n_values:
            writer.writerow(["" if c is None else c for c in self._row_cells(n, bold)])
        return buf.getvalue()

    def to_json_dict(self, bold: bool = False) -> dict:
        names = self.column_names(bold)
        rows = [dict(zip(names, self._row_cells(n, bold))) for n in self.n_values]
        return {
            "compare": self.compare,
            "q_values": list(self.q_values),
            "n_values": list(self.n_values),
            "rows": rows,
        }


def build_size_table(q_values, n_values, compare: str) -> SizeTable:
    k_min = {"S": 2, "Sstar": 1}[compare]
    cbfs = {}
    comparator = {}
    for q in q_values:
        sizes = family_sizes(q, n_values)
        best = best_sizes(q, n_values, k_min)
        for n in n_values:
            cbfs[q, n] = sum(sizes[n])
            comparator[q, n] = best[n][0] if n in best else None
    return SizeTable(compare, tuple(q_values), tuple(n_values), cbfs, comparator)


def _parse_range(text: str) -> list[int]:
    """A single integer or an inclusive range like 3..16."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return [int(text)]


def _write_output(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@contextmanager
def _exact_int_output():
    """Lift Python's cap on int-to-str conversion (4300 digits by default,
    where the interpreter has one) so that exact counts print in full, and
    restore it afterwards. The cap stays in force while input is parsed."""
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
        best = s_max if args.set == "S" else s_star
        value, k = best(args.n, args.q)
        suffix = f" k={k}"
    elif args.set == "motzkin":
        colors = args.colors if args.colors is not None else args.q - 2
        value = motzkin_count(colors, args.n)
    else:
        value = _COUNTERS[args.set](args.q, args.n)
    with _exact_int_output():
        print(f"{value}{suffix}")
    return 0


def _gen_groups(args):
    """Check --limit for a `gen` request, then return the alphabet size,
    the word length, the ``(head, tails)`` groups of its words in canonical
    order (as ``motzkin.lex_groups`` yields them) and the tag of each shape
    index. No word is produced before the check passes."""
    q, n = args.q, args.n
    if args.set in _COUNTERS:
        tags = "ABC" if args.set == "cbfs" else args.set
        expected, groups = _COUNTERS[args.set](q, n), cbfs_groups(q, n, tags)
    elif args.set == "bifixfree":
        expected, tags = count_bifix_free(q, n), ("external",)
        # chunks of the word stream, as groups with an empty head; their
        # tails are iterators, so no pair outlives its word's turn
        words = iter_bifix_free(q, n)
        groups = (((), zip(chunk, repeat(0))) for chunk in iter(lambda: list(islice(words, GEN_CHUNK)), []))
    else:
        colors = args.colors if args.colors is not None else q - 2
        q, tags = colors + 2, ("external",)
        if args.set == "motzkin":
            expected, groups = motzkin_count(colors, n), motzkin_groups(colors, n)
        else:
            expected, groups = motzkin_count(colors, n - 2), elevated_groups(colors, n)  # 0 for n < 2
    with _exact_int_output():
        if expected > args.limit:
            raise ValueError(f"{args.set} at q={q}, n={n} holds {expected} words, above --limit {args.limit}")
    return q, n, groups, tags


def _write_groups(fh, q: int, groups) -> None:
    """Write the words of ``(head, tails)`` groups one per line.

    A list of several tails comes back each time its walk state does, so
    its text is made once and kept with the list, which holds the list's id
    for it; each group is then the head's text (and a comma for q > 10)
    before every line of that block. One-element lists and groups with an
    empty head, whose tails may be any iterable, are formatted as they come,
    so the kept text is one block per state met at the cut.
    """
    sep = "," if q > 10 else ""
    blocks = {}
    for head, tails in groups:
        if head and len(tails) > 1:
            entry = blocks.get(id(tails))
            if entry is None:
                entry = blocks[id(tails)] = (tails, format_symbol_lines([tail for tail, _ in tails], q)[:-1])
            head_text = format_symbols(head, q) + sep
            fh.write(head_text + entry[1].replace("\n", "\n" + head_text) + "\n")
        else:
            fh.write(format_symbol_lines([head + tail for tail, _ in tails], q))


def _emit_code_set(code_set: CodeSet, fmt: str, out_path: str | None) -> int:
    if fmt == "json":
        _write_output(code_set.to_json(), out_path)
    else:
        _write_output(code_set.to_text(), out_path)
    return 0


def _cmd_gen(args) -> int:
    q, n, groups, tags = _gen_groups(args)
    if args.format == "json":
        words = ((head + tail, tags[j]) for head, tails in groups for tail, j in tails)
        _write_output(CodeSet.from_ordered(q, n, words).to_json(), args.out)
        return 0
    if args.out in (None, "-"):
        _write_groups(sys.stdout, q, groups)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_groups(fh, q, groups)
    return 0


def _cmd_baseline_gen(args) -> int:
    code_set = construct_baseline_set(args.k, args.q, args.n, max_space=args.limit)
    return _emit_code_set(code_set, args.format, args.out)


def _cmd_verify(args) -> int:
    if args.infile == "-":
        text = sys.stdin.read()
    else:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    if args.mode == "nonexpandable":
        # refuse on the raw lines, before any word is built: there are at
        # least as many distinct lines as members
        lines = [line for line in map(str.strip, text.splitlines()) if line]
        if lines:
            n = args.n if args.n is not None else len(parse_symbols(lines[0], args.q))
            check_candidate_cap(args.q, n, len(set(lines)), args.limit)
    code_set = CodeSet.from_text(text, args.q, n=args.n)
    if args.mode == "set":
        report = verify_cross_bifix_free_set(code_set)
    else:
        report = verify_non_expandable(code_set, max_space=args.limit, all_witnesses=args.all_witnesses)
    sys.stdout.write(report.to_json())
    if report.error is not None:
        return 2
    return 0 if report.ok else 1


def _cmd_table(args) -> int:
    _check_length(max(args.n), args.limit)
    table = build_size_table(args.q, args.n, args.compare)
    with _exact_int_output():
        if args.format == "json":
            text = json.dumps(table.to_json_dict(bold=args.bold), indent=2) + "\n"
        else:
            text = table.to_csv(bold=args.bold)
    _write_output(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossbifix",
        description="Construct, count and verify cross-bifix-free word sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    length_help = f"refuse word lengths n above this (default: {DEFAULT_LENGTH_LIMIT})"

    p_count = sub.add_parser("count", help="print an exact cardinality")
    p_count.add_argument("--q", type=int, required=True, help="alphabet size")
    p_count.add_argument("--n", type=int, required=True, help="word length")
    p_count.add_argument(
        "--set",
        default="cbfs",
        choices=("cbfs", "A", "B", "C", "S", "Sstar", "motzkin"),
        help="which family to count (default: cbfs)",
    )
    p_count.add_argument("--colors", type=int, default=None, help="level colors for --set motzkin (default: q-2)")
    p_count.add_argument("--limit", type=int, default=DEFAULT_LENGTH_LIMIT, help=length_help)
    p_count.set_defaults(func=_cmd_count)

    p_gen = sub.add_parser("gen", help="write a word list in canonical order")
    p_gen.add_argument("--q", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument(
        "--set",
        default="cbfs",
        choices=("cbfs", "A", "B", "C", "motzkin", "elevated", "bifixfree"),
    )
    p_gen.add_argument("--colors", type=int, default=None, help="level colors for motzkin/elevated (default: q-2)")
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")
    p_gen.add_argument("--format", default="text", choices=("text", "json"))
    p_gen.add_argument("--limit", type=int, default=DEFAULT_LIMIT, help="refuse outputs larger than this many words")
    p_gen.set_defaults(func=_cmd_gen)

    p_bgen = sub.add_parser("baseline-gen", help="write a baseline set S(k, q, n)")
    p_bgen.add_argument("--k", type=int, required=True, help="zero-run length")
    p_bgen.add_argument("--q", type=int, required=True)
    p_bgen.add_argument("--n", type=int, required=True)
    p_bgen.add_argument("--out", default=None)
    p_bgen.add_argument("--format", default="text", choices=("text", "json"))
    p_bgen.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p_bgen.set_defaults(func=_cmd_baseline_gen)

    p_verify = sub.add_parser("verify", help="verify a word-list file, print a JSON report")
    p_verify.add_argument("--in", dest="infile", required=True, help="word-per-line file, or - for stdin")
    p_verify.add_argument("--q", type=int, required=True)
    p_verify.add_argument("--n", type=int, default=None, help="word length (default: inferred)")
    p_verify.add_argument("--mode", default="set", choices=("set", "nonexpandable"))
    p_verify.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_LIMIT,
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
    p_table.add_argument("--limit", type=int, default=DEFAULT_LENGTH_LIMIT, help=length_help)
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
