"""The ``count`` and ``table`` commands: exact sizes, one at a time or as a
table, with no word built.

Only these two commands load this module. Their counts come from
``counting`` and, for the baseline's maxima, ``baseline``; the table is
written a row at a time as CSV, or as JSON through ``jsontext``, which only
the JSON form loads and which lays out its values and rows. A ``--q`` or
``--n`` comes as a ``range``, so ``--limit`` reads its last length without
a list of them being built.
"""

from __future__ import annotations

from .cli import _FAMILIES, _output
from .counting import count_cbfs, family_sizes, motzkin_count

# The most digits a `table` may print. As no cell exceeds q^n, len(q) * len(n) * (n_max * d + 1),
# for a q_max of d digits, bounds them: 1.44e8 for `table --q 3..6 --n 3..6000`.
TABLE_DIGITS = 2 * 10**8


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


def _cmd_table(args) -> int:
    q, n = args.q, args.n
    _check_length(n[-1], args.limit)  # the largest n of an increasing range
    if (digits := len(q) * len(n) * (n[-1] * len(str(q[-1])) + 1)) > TABLE_DIGITS:
        raise ValueError(f"a table of {len(q)} q and {len(n)} n values may print {digits} digits, above {TABLE_DIGITS}")
    names, rows = size_table(q, n, args.compare, args.bold)
    with _output(args.out) as fh:
        if args.format == "json":
            from .jsontext import ITEM, text, write_object

            rows = (ITEM + text(dict(zip(names, row)), "    ").encode() for row in rows)
            write_object(fh, [("compare", args.compare), ("q_values", q), ("n_values", n), ("rows", rows)])
        else:
            # no cell or name needs CSV quoting: cells are integers or None
            fh.write((",".join(names) + "\n").encode())
            fh.writelines((",".join(["" if v is None else str(v) for v in row]) + "\n").encode() for row in rows)
    return 0
