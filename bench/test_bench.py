"""Self-tests of the benchmark: its gates, its tracer and its declared metrics.

    PYTHONPATH=src python3 -m pytest -q bench

They run the CLI in-process at tiny sizes, so they finish in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from crossbifix import cli  # noqa: E402


def cli_output(argv: list[str], stdin: str = "") -> tuple[int, bytes]:
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue().encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_word_list_gate_rejects_a_dropped_line():
    code, out = cli_output(["gen", "--q", "3", "--n", "5"])
    lines = out.splitlines(keepends=True)
    assert workloads.check_word_list(code, out, len(lines), sha(out)) is None
    shorter = b"".join(lines[:3] + lines[4:])
    assert workloads.check_word_list(code, shorter, len(lines), sha(out)) is not None
    swapped = b"".join([lines[1], lines[0], *lines[2:]])
    assert "order" in workloads.check_word_list(code, swapped, len(lines), sha(out))


def test_verify_gates_reject_a_flipped_ok():
    _, out = cli_output(["gen", "--q", "3", "--n", "5"])
    words, dropped = workloads.mutation_inputs(out, seed=7)
    assert sorted(words) == out.decode().split() and dropped in words
    code, full = cli_output(workloads.VERIFY_ARGS, "\n".join(words))
    assert workloads.check_verify_full(code, full) is None
    flipped = json.loads(full)
    flipped["ok"] = False
    assert workloads.check_verify_full(code, json.dumps(flipped).encode()) is not None

    code, mutated = cli_output(workloads.VERIFY_ARGS, "\n".join(w for w in words if w != dropped))
    assert workloads.check_verify_mutated(code, mutated, dropped) is None
    flipped = json.loads(mutated)
    flipped["ok"] = True
    assert workloads.check_verify_mutated(code, json.dumps(flipped).encode(), dropped) is not None
    other = next(w for w in words if w != dropped)
    assert workloads.check_verify_mutated(code, mutated, other) is not None


def test_table_gate_rejects_a_changed_cell():
    code, out = cli_output(["table", "--q", "3..4", "--n", "3..20"])
    assert workloads.check_table(code, out, sha(out)) is None
    # A cell past n = 16 is caught by the digest alone, one within by the
    # frozen sizes as well.
    late = out.replace(b"\n20,", b"\n20,1", 1)
    assert late != out and workloads.check_table(code, late, sha(out)) is not None
    early = out.replace(b"\n9,535,", b"\n9,536,", 1)
    assert early != out and "cbfs q=3 n=9" in workloads.check_table(code, early, sha(early))


def test_tracer_restores_every_wrapped_name():
    t = tracer.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        code, _ = tracer.trace_cli(["gen", "--q", "3", "--n", "5"], t)
    assert code == 0
    restored = 0
    for owner, key, original in t.patches:
        current = owner[key] if isinstance(owner, dict) else (
            owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        )
        assert current is original, (owner, key)
        restored += 1
    assert restored > 20
    assert cli.__dict__["construct_cbfs"].__module__ == "crossbifix.cbfs"
    assert not hasattr(cli._COUNTERS["cbfs"], "__wrapped__")


def test_tracer_attributes_self_time_and_counts():
    t = tracer.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        tracer.trace_cli(["gen", "--q", "3", "--n", "5"], t)
    self_s, calls, root = t.self_times()
    assert calls["cbfs.construct"] == 4  # construct_cbfs and families A, B, C
    assert calls["cbfs.build"] == 4 and calls["cbfs.format"] == 1
    assert t.counters["cbfs.build_in"] == 2 * 16  # |CBFS(3, 5)| = 16, fed twice
    assert t.counters["cbfs.c_tested"] >= t.counters["cbfs.c_kept"] > 0
    assert all(v >= 0 for v in self_s.values())
    assert root == pytest.approx(sum(self_s.values()), rel=1e-9)


def test_layer_metrics_cover_the_declared_per_layer_metrics(tmp_path):
    t = tracer.Tracer()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code, t_end = tracer.trace_cli(["gen", "--q", "3", "--n", "5"], t)
    t.dump(str(tmp_path / "trace"), {"t_main_end": t_end})
    summary = run._read_trace(str(tmp_path / "trace"), t_end - 1.0, t_end + 1.0)
    stdout = out.getvalue().encode()
    proc = {"stdout_bytes": len(stdout), "words_out": stdout.count(b"\n"), "trace": summary, "scale": 1.0}
    metrics, bases = run.layer_metrics([proc])
    declared = {m["name"] for m in run.SPEC["per_layer"]}
    assert declared == set(metrics) | {"trace.overhead_ratio"}
    assert metrics["cbfs.build_in_per_out"] == 2.0
    assert (tmp_path / "trace.spans").stat().st_size == summary["spans"] * (2 + 4 + 8 + 8)


def test_benchmark_json_matches_the_harness():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], 0.1, "lower") == "WORSE"
    assert compare.verdict([1.0, 1.0, 1.0], [1.05, 1.05], 0.1, "lower") == "agree"
    assert compare.verdict([1.0, 1.0, 1.0], [0.5, 0.5], 0.1, "lower") == "better"
    assert compare.verdict([0.5, 1.0, 1.5], [1.0], 0.1, "lower") == "unresolved"
    assert compare.verdict([0.0, 0.0], [0.1], 0.0, "lower") == "WORSE"


def test_spawned_peak_rss_excludes_the_harness(tmp_path):
    ballast = b"x" * (64 << 20)  # the harness's own peak, well above the child's
    spawner = run.Spawner()
    try:
        done = spawner(
            cmd=[sys.executable, "-c", "pass"],
            stdin=None,
            stdout=str(tmp_path / "out"),
            stderr=str(tmp_path / "err"),
            cwd=str(tmp_path),
            timeout=60,
        )
    finally:
        spawner.close()
    assert done["returncode"] == 0 and len(ballast) == 64 << 20
    assert done["maxrss_kib"] / 1024 < 40
    assert done["t_exit"] > done["t_spawn"] and done["calibration_s"] > 0
