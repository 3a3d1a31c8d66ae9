"""Layered benchmark of the crossbifix CLI.

    python3 bench/run.py --workload generate|verify|table|all --seed N \
        --seconds S --trace 0|1 [--results DIR]

Run from a checkout of the repository: the CLI under test is the package in
``src/``, started as ``python -m crossbifix`` with ``PYTHONPATH=src``. One
client drives the calls one at a time in a closed loop: the next call starts
when the previous one has exited. Every call's exit code and output pass
through the workload's gate (``workloads.py``); a failed gate is counted,
never fatal.

``--trace 0`` measures end to end: iterations of the workload, each after two
set-up calls, as long as the next one should end within ``--seconds``.
``--trace 1`` alternates an untraced iteration with a traced one, where each
CLI process runs under ``tracer.py`` and reports per-layer self times and
work counts. Every process is spawned by ``spawner.py``.

Human-readable lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record (seed,
samples, environment, argv of every call) goes to a JSON file in
``--results``; ``compare.py`` compares two such directories.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import SETUP_ARGS, WORKLOADS, check_setup  # noqa: E402

# Workload reasons and metric names and units, as the benchmark declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_CALLS_PER_ITERATION = 2
PROCESS_TIMEOUT_S = 120
# Timings are scaled to the machine speed at which spawner.py's calibration
# loop takes this long: a call's seconds are multiplied by REFERENCE_S over
# the loop time measured around it. The raw timings go to the result file.
REFERENCE_S = 0.030


class Spawner:
    """The ``spawner.py`` process that starts and reaps every CLI call."""

    def __init__(self) -> None:
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def __call__(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs CLI calls through the spawner, times them and applies the gates."""

    def __init__(self, spawner: Spawner, work: Path, traced: bool = False) -> None:
        self.spawner = spawner
        self.work = work
        self.traced = traced
        self.procs: list[dict] = []

    def __call__(self, args: list[str], stdin: bytes | None, check) -> bytes:
        out_path, err_path, in_path = (self.work / name for name in ("stdout", "stderr", "stdin"))
        prefix = str(self.work / "trace")
        if self.traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), prefix, *args]
        else:
            cmd = [sys.executable, "-m", "crossbifix", *args]
        if stdin is not None:
            in_path.write_bytes(stdin)
        done = self.spawner(
            cmd=cmd,
            stdin=str(in_path) if stdin is not None else None,
            stdout=str(out_path),
            stderr=str(err_path),
            cwd=str(ROOT),
            timeout=PROCESS_TIMEOUT_S,
        )
        stdout = out_path.read_bytes()
        problem = check(done["returncode"], stdout)
        if problem and done["returncode"] not in (0, 1):
            problem += ": " + err_path.read_bytes().decode("utf-8", "replace")[-300:].strip()
        wall = done["t_exit"] - done["t_spawn"]
        scale = REFERENCE_S / done["calibration_s"]
        record = {
            "argv": cmd,
            "returncode": done["returncode"],
            "scale": scale,
            "wall_raw_s": wall,
            "cpu_raw_s": done["cpu_s"],
            "wall_s": wall * scale,
            "cpu_s": done["cpu_s"] * scale,
            "rss_mb": done["maxrss_kib"] / 1024,
            "stdout_bytes": len(stdout),
            "words_out": stdout.count(b"\n") if args[0] == "gen" else 0,
            "problem": problem,
        }
        if self.traced:
            record["trace"] = _read_trace(prefix, done["t_spawn"], done["t_exit"])
            if record["trace"] is None and not problem:
                record["problem"] = "the traced process wrote no trace"
        self.procs.append(record)
        return stdout

    def iteration(self, workload, seed: int) -> list[dict]:
        first = len(self.procs)
        workload(self, seed)
        return self.procs[first:]


def _read_trace(prefix: str, t_spawn: float, t_exit: float) -> dict | None:
    try:
        with open(prefix + ".json", encoding="utf-8") as fh:
            trace = json.load(fh)
        os.unlink(prefix + ".json")
    except (OSError, ValueError):
        return None
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    end = trace["t_main_end"]
    trace["main_s"] = (end if t_spawn <= end <= t_exit else t_exit) - t_spawn
    return trace


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None below eleven samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": 100 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "samples": n}


def layer_metrics(procs: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, and the bases of its ratios."""
    self_s, calls, counters = {}, {}, {}
    cli_self = stdout_bytes = words_out = 0
    for p in procs:
        t = p.get("trace") or {}
        scaled = {k: v * p["scale"] for k, v in t.get("self_s", {}).items()}
        for src, dst in ((scaled, self_s), (t.get("calls", {}), calls), (t.get("counters", {}), counters)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        if t:
            cli_self += (t["main_s"] - t["root_s"]) * p["scale"]
        stdout_bytes += p["stdout_bytes"]
        words_out += p["words_out"]
    s, c = self_s.get, counters.get

    def ratio(num, den):
        return num / den if den else 0.0

    bases = {
        "cbfs.c_keep_ratio": [c("cbfs.c_kept", 0), c("cbfs.c_tested", 0)],
        "words.word_inits_per_output": [c("words.word_inits", 0), words_out],
        "cbfs.build_in_per_out": [c("cbfs.build_in", 0), words_out],
        "oracle.candidate_space_ratio": [c("oracle.candidates_checked", 0), c("oracle.candidate_space", 0)],
    }
    metrics = {
        "motzkin.count_s": s("motzkin.count", 0.0),
        "motzkin.table_len": c("motzkin.table_len", 0),
        "cbfs.count_s": s("cbfs.count", 0.0) + s("cbfs.count_C", 0.0),
        "cbfs.count_C_s": s("cbfs.count_C", 0.0),
        "baseline.s_max_s": s("baseline.s_max", 0.0),
        "baseline.f_entries": c("baseline.f_entries", 0),
        "motzkin.generate_s": s("motzkin.generate", 0.0),
        "motzkin.words_yielded": c("motzkin.words_yielded", 0),
        "cbfs.construct_s": s("cbfs.construct", 0.0),
        "words.word_inits": c("words.word_inits", 0),
        "cbfs.build_s": s("cbfs.build", 0.0),
        "cbfs.build_calls": calls.get("cbfs.build", 0),
        "cbfs.format_s": s("cbfs.format", 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "cbfs.parse_s": s("cbfs.parse", 0.0),
        "oracle.pairwise_s": s("oracle.pairwise", 0.0),
        "oracle.pairs_checked": c("oracle.pairs_checked", 0),
        "oracle.nonexp_s": s("oracle.nonexp", 0.0),
        "oracle.candidates_checked": c("oracle.candidates_checked", 0),
        "words.cross_bifix_s": s("words.cross_bifix", 0.0),
        "words.cross_bifix_calls": calls.get("words.cross_bifix", 0),
        "cli.self_s": cli_self,
    }
    metrics.update({name: ratio(*base) for name, base in bases.items()})
    return metrics, bases


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, spawner: Spawner) -> dict:
    workload = WORKLOADS[name]
    plain = Runner(spawner, work)
    traced = Runner(spawner, work, traced=True)
    run_start = perf_counter()
    plain(SETUP_ARGS, None, check_setup)  # warm-up: bytecode caches, page cache
    setup, iterations, traced_iterations = [], [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        if not trace:
            # Set-up calls are spread over the run, like the iterations, so
            # their median sees the same machine as the workload's.
            for _ in range(SETUP_CALLS_PER_ITERATION):
                plain(SETUP_ARGS, None, check_setup)
                setup.append(plain.procs[-1])
        iterations.append(plain.iteration(workload, seed))
        if trace:
            traced_iterations.append(traced.iteration(workload, seed))
        # Start another iteration only if it should end within the budget.
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    walls = [sum(p["wall_s"] for p in it) for it in iterations]
    procs = plain.procs + traced.procs
    failures = [p for p in procs if p["problem"]]
    result = {
        "attempted": len(procs),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(procs),
        "failures": [{"argv": p["argv"], "problem": p["problem"]} for p in failures[:10]],
        "argv": [p["argv"] for p in iterations[-1] + (traced_iterations[-1] if trace else [])],
        "iterations": len(iterations),
        "run_s": perf_counter() - run_start,
    }
    if not trace:
        cpus = [sum(p["cpu_s"] for p in it) for it in iterations]
        samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": [p["wall_s"] for p in setup]}
        summary = {k: summarize(v) for k, v in samples.items()}
        raw = {
            "wall_s": [sum(p["wall_raw_s"] for p in it) for it in iterations],
            "cpu_s": [sum(p["cpu_raw_s"] for p in it) for it in iterations],
            "setup_s": [p["wall_raw_s"] for p in setup],
        }
        for k, v in raw.items():
            summary[k]["raw_median"] = statistics.median(v)
        summary["peak_rss_mb"] = {"max": max(p["rss_mb"] for p in procs), "processes": len(procs)}
        values = {k: summary[k]["median"] for k in samples}
        values["peak_rss_mb"] = summary["peak_rss_mb"]["max"]
        result.update(
            samples=samples,
            raw_samples=raw,
            scales=[p["scale"] for p in plain.procs],
            summary=summary,
            setup_argv=plain.procs[0]["argv"],
        )
    else:
        per_iteration = [layer_metrics(it) for it in traced_iterations]
        traced_walls = [sum(p["trace"]["main_s"] * p["scale"] for p in it if p.get("trace")) for it in traced_iterations]
        # median_low keeps each value one that was measured, counts whole.
        values = {k: statistics.median_low(m[k] for m, _ in per_iteration) for k in per_iteration[0][0]}
        values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        result.update(
            samples={"wall_s": walls, "traced_wall_s": traced_walls},
            ratio_bases=per_iteration[0][1],
            spans=[sum(p["trace"]["spans"] for p in it if p.get("trace")) for it in traced_iterations],
        )
    declared = SPEC["per_layer" if trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return result


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit id, read from .git without running git; None outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def describe(name: str, result: dict) -> list[str]:
    lines = []
    for metric, m in result["metrics"].items():
        detail = ""
        info = result.get("summary", {}).get(metric)
        if info and "median" in info:
            tail = info["tail"]
            tail_text = (
                f"p{tail['percentile']:.1f} {tail['value']:.4f}" if tail else "no percentile has ten samples beyond it"
            )
            detail = f"  (median of {info['samples']}; {tail_text}; uncalibrated {info['raw_median']:.4f})"
        elif info:
            detail = f"  (largest of {info['processes']} processes)"
        lines.append(f"{name} {metric} = {m['value']:.6g} {m['unit']}{detail}")
    lines.append(f"{name} failed_ratio = {result['failed_ratio']:.6g}  ({result['failed']} of {result['attempted']} calls)")
    for failure in result["failures"]:
        lines.append(f"{name} FAILED {' '.join(failure['argv'][3:])}: {failure['problem']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH_DIR / "results"), help="directory for the result files")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crossbifix" / "__init__.py").is_file():
        print(f"error: no crossbifix package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    work = BENCH_DIR / "work"
    results_dir = Path(args.results)
    work.mkdir(exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    spawner = Spawner()
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace), work, spawner) for name in names]
    finally:
        spawner.close()
    for name, result in zip(names, results):
        record = {
            "workload": name,
            "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == name),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "started": started,
            **env,
            **result,
        }
        path = results_dir / f"{name}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        for line in describe(name, result):
            print(line)
        print(f"{name} result file: {path}")
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
