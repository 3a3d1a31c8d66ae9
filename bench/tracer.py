"""Outside-in span tracer for the crossbifix CLI.

The package modules import names from each other directly (``cli`` holds its
own reference to ``construct_cbfs``, ``cbfs`` to ``generate_motzkin``), so a
function is wrapped at every place a caller looks it up: each module global
bound to it and each value of a module-level dict that holds it. The package
itself is not edited; every patch is undone by ``uninstall``.

A span records its name, start, end and the span open when it began. Spans
stay in compact arrays in memory and are written out when the run ends. A
layer's self time is its spans' durations minus the parts their child spans
cover.

Run as a script, it traces one CLI call in the current process:

    PYTHONPATH=src python3 bench/tracer.py OUT_PREFIX gen --q 3 --n 5

The CLI writes to stdout as usual. ``OUT_PREFIX.json`` receives the summary
and ``OUT_PREFIX.spans`` the raw spans (see ``Tracer.dump``).
"""

from __future__ import annotations

import array
import json
import sys
import types
from time import perf_counter

MODULES = ("words", "motzkin", "cbfs", "baseline", "oracle", "cli")

# Span name for each traced function, keyed by (defining module, function name).
SPANS = {
    ("motzkin", "motzkin_count"): "motzkin.count",
    ("cbfs", "count_A"): "cbfs.count",
    ("cbfs", "count_B"): "cbfs.count",
    ("cbfs", "count_cbfs"): "cbfs.count",
    ("cbfs", "count_C"): "cbfs.count_C",
    ("cbfs", "construct_A"): "cbfs.construct",
    ("cbfs", "construct_B"): "cbfs.construct",
    ("cbfs", "construct_C"): "cbfs.construct",
    ("cbfs", "construct_cbfs"): "cbfs.construct",
    ("baseline", "s_max"): "baseline.s_max",
    ("baseline", "s_star"): "baseline.s_max",
    ("oracle", "verify_cross_bifix_free_set"): "oracle.pairwise",
    ("oracle", "verify_non_expandable"): "oracle.nonexp",
    ("words", "cross_bifix"): "words.cross_bifix",
}
# Generators get one span per step, since their work happens inside next().
GENERATOR_SPANS = {
    ("motzkin", "generate_motzkin"): "motzkin.generate",
    ("motzkin", "generate_elevated"): "motzkin.generate",
}
# The family-C arch filter is counted, not spanned: its time stays with
# the construction that calls it.
ARCH_FILTER = ("motzkin", "has_ground_elevated_factor")
# Methods of the canonical word-list type, cbfs.CodeSet.
METHOD_SPANS = {
    "build": "cbfs.build",
    "from_text": "cbfs.parse",
    "to_text": "cbfs.format",
    "to_json": "cbfs.format",
}


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("H")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self.patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span; before(args) may replace the
        positional arguments and after(args, result) may update counters."""
        nid = self._name_id(name)
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        ends, stack, clock = self.span_end, self._stack, perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def generator_span(self, name, fn, yield_counter=None):
        """Wrap a generator function so each step records a span."""
        step = self.span(name, next)
        count = self.count

        def steps(it):
            n = 0
            try:
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    n += 1
                    yield item
            finally:
                if yield_counter is not None:
                    count(yield_counter, n)

        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, key):
        count = self.count

        def counted(*args, **kwargs):
            count(key)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, key, make) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = make(original)
        elif isinstance(owner, type):
            original = owner.__dict__[key]
            if isinstance(original, classmethod):
                setattr(owner, key, classmethod(make(original.__func__)))
            else:
                setattr(owner, key, make(original))
        else:
            original = getattr(owner, key)
            setattr(owner, key, make(original))
        self.patches.append((owner, key, original))

    def install(self) -> None:
        """Wrap every lookup site of the traced crossbifix functions.

        Names missing from the package are skipped, so the tracer keeps
        working on versions that move or drop a function.
        """
        mods = {}
        for name in MODULES:
            try:
                mods[name] = __import__(f"crossbifix.{name}", fromlist=["_"])
            except ImportError:
                continue
        traced = {}  # id(function) -> (defining module, function name)
        for key in (*SPANS, *GENERATOR_SPANS, ARCH_FILTER):
            fn = getattr(mods.get(key[0]), key[1], None)
            if fn is not None:
                traced[id(fn)] = key

        for site, module in mods.items():
            namespaces = [(module, vars(module))]
            namespaces += [(v, v) for k, v in vars(module).items() if isinstance(v, dict) and not k.startswith("__")]
            for owner, names in namespaces:
                for attr, value in list(names.items()):
                    if isinstance(value, types.FunctionType) and id(value) in traced:
                        key = traced[id(value)]
                        self._patch(owner, attr, lambda fn, k=key, s=site: self._wrap(k, fn, s))

        code_set = getattr(mods.get("cbfs"), "CodeSet", None)
        for attr, span_name in METHOD_SPANS.items():
            if code_set is not None and attr in code_set.__dict__:
                before = self._count_build_inputs if attr == "build" else None
                self._patch(code_set, attr, lambda fn, s=span_name, b=before: self.span(s, fn, before=b))
        word = getattr(mods.get("words"), "Word", None)
        if word is not None and "__post_init__" in word.__dict__:
            self._patch(word, "__post_init__", lambda fn: self.counter(fn, "words.word_inits"))

    def _wrap(self, key, fn, site):
        if key in SPANS:
            # Work counts read off the verification reports.
            after = {"oracle.pairwise": self._after_pairwise, "oracle.nonexp": self._after_nonexp}
            return self.span(SPANS[key], fn, after=after.get(SPANS[key]))
        if key in GENERATOR_SPANS:
            # Count the words the motzkin layer hands to other layers, not
            # its own internal reuse inside generate_elevated.
            yields = None if site == "motzkin" else "motzkin.words_yielded"
            return self.generator_span(GENERATOR_SPANS[key], fn, yields)
        return self._arch_filter(fn)

    def _arch_filter(self, fn):
        """Count family-C candidates tested and kept by the arch filter."""
        count = self.count

        def counted(*args, **kwargs):
            found = fn(*args, **kwargs)
            count("cbfs.c_tested")
            if not found:
                count("cbfs.c_kept")
            return found

        counted.__wrapped__ = fn
        return counted

    def _after_pairwise(self, args, report) -> None:
        self.count("oracle.pairs_checked", report.stats.get("pairs_checked", 0))

    def _after_nonexp(self, args, report) -> None:
        self.count("oracle.candidates_checked", report.stats.get("candidates_checked", 0))
        self.count("oracle.candidate_space", args[0].q ** args[0].n)

    def _count_build_inputs(self, args):
        *head, items = args
        return (*head, self._counted(items))

    def _counted(self, items):
        n = 0
        for n, item in enumerate(items, 1):
            yield item
        self.count("cbfs.build_in", n)

    def uninstall(self) -> None:
        """Put back every original; ``patches`` keeps the record."""
        for owner, key, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self time and call count, and the time covered by root
        spans. A child always opens after its parent, so one backward pass
        sees every child before its parent."""
        n = len(self.span_end)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        cover = [0.0] * n
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        root = 0.0
        for i in range(n - 1, -1, -1):
            d = ends[i] - starts[i]
            k = names[i]
            self_s[k] += d - cover[i]
            calls[k] += 1
            p = parents[i]
            if p >= 0:
                cover[p] += d
            else:
                root += d
        return dict(zip(self.names, self_s)), dict(zip(self.names, calls)), root

    def dump(self, prefix: str, extra: dict) -> None:
        """Write the summary to PREFIX.json and the spans to PREFIX.spans:
        four native-endian arrays back to back (name ids as uint16, parent
        indexes as int32, starts and ends as float64 perf_counter seconds),
        each holding ``spans`` entries; ``names`` maps ids to span names."""
        self_s, calls, root = self.self_times()
        summary = dict(extra)
        summary.update(
            spans=len(self.span_end),
            names=self.names,
            self_s=self_s,
            calls=calls,
            root_s=root,
            counters=self.counters,
        )
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


def memo_entries() -> dict[str, int]:
    """Entries held by the Motzkin and zero-run memo tables; 0 where a
    version keeps no such table."""
    out = {}
    for key, mod_name in (("motzkin.table_len", "motzkin"), ("baseline.f_entries", "baseline")):
        module = sys.modules.get(f"crossbifix.{mod_name}")
        tables = getattr(module, "_TABLES", {})
        out[key] = sum(len(getattr(t, "_values", ())) for t in tables.values())
    return out


def trace_cli(argv: list[str], tracer: Tracer) -> tuple[int, float]:
    """Run crossbifix.cli.main(argv) with the tracer installed; return the
    exit code and the perf_counter time at which main returned."""
    from crossbifix import cli

    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        t_end = perf_counter()
        tracer.uninstall()
    return code, t_end


def main(argv: list[str]) -> int:
    prefix, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    code, t_end = trace_cli(cli_argv, tracer)
    sys.stdout.flush()
    tracer.counters.update(memo_entries())
    tracer.dump(prefix, {"argv": cli_argv, "exit_code": code, "t_main_end": t_end})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
