"""Compare two directories of benchmark result files.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files ``run.py`` wrote (``--results``), for
example runs of the parent commit and of a change, each over several seeds.
For every workload and metric it prints both sides' median and quartiles
over their runs. For an end-to-end metric it also says whether the new side
agrees with the base within the bound ``BENCHMARK.json`` fixes for it:
``agree``, ``WORSE`` or ``better``, or ``unresolved`` when the base's own
spread between quartiles is wider than the bound and not every new run beats
every base run. Per-layer metrics have no bound and only show the
change. The exit code is 1 when any end-to-end metric is worse by more than
its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per result file."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for name, metric in record.get("metrics", {}).items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
        if "failed_ratio" in record:
            values.setdefault((record["workload"], "failed_ratio"), []).append(record["failed_ratio"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    b1, b2, b3 = quartiles(base)
    n2 = quartiles(new)[1]
    if b2 == 0:
        return "agree" if n2 == 0 else "WORSE"
    change = (n2 - b2) / b2 if better == "lower" else (b2 - n2) / b2
    if change > bound:
        return "WORSE"
    if (b3 - b1) / b2 > bound:
        beats_all = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return "better" if beats_all else "unresolved"
    return "better" if change < -bound else "agree"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    # A failed call counts against the change whatever its share was before.
    bounds["failed_ratio"] = {"bound": 0.0, "better": "lower"}
    base, new = load(args.base), load(args.new)
    worse = False
    print(f"{'workload':9} {'metric':30} {'base q1 / median / q3':>36} {'new q1 / median / q3':>36} {'change':>8}  verdict")
    for key in sorted(base.keys() | new.keys()):
        workload, metric = key
        if key not in base or key not in new:
            print(f"{workload:9} {metric:30} missing on the {'new' if key in base else 'base'} side")
            continue
        bq, nq = quartiles(base[key]), quartiles(new[key])
        change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        status = "-"
        if metric in bounds:
            status = verdict(base[key], new[key], bounds[metric]["bound"], bounds[metric]["better"])
            worse |= status == "WORSE"
        print(
            f"{workload:9} {metric:30} {' / '.join(f'{v:.5g}' for v in bq):>36} "
            f"{' / '.join(f'{v:.5g}' for v in nq):>36} {change:>+8.2%}  {status}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
