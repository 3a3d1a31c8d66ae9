"""Spawns, times and reaps the benchmark's CLI processes from a small process.

On Linux, exec records the peak RSS of the address space it replaces in the
new program's ``ru_maxrss``, so a child reports at least its parent's peak.
``run.py`` holds outputs and reports in memory; it hands every spawn to this
process, whose own peak stays near the bare interpreter's, so that
``ru_maxrss`` measures the CLI and not the harness.

The speed of a shared machine drifts by tens of percent over seconds to
minutes. So each spawn is bracketed by a fixed pure-Python calibration loop,
and the reply carries the loop's mean time, with which ``run.py`` scales the
call's timings.

Protocol: one JSON request per line on stdin (``cmd``, ``stdin``, ``stdout``,
``stderr``, ``cwd``, ``timeout``) and one JSON reply per line on stdout. The
process exits when stdin closes.
"""

import json
import os
import sys
import threading
from subprocess import Popen
from time import perf_counter


CALIBRATION_LOOPS = 400_000


def calibrate() -> float:
    """Time of a fixed loop of interpreted integer arithmetic."""
    t = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return perf_counter() - t


def spawn(req: dict) -> dict:
    before = calibrate()
    with open(req["stdin"] or os.devnull, "rb") as inp, open(req["stdout"], "wb") as out, open(
        req["stderr"], "wb"
    ) as err:
        t_spawn = perf_counter()
        proc = Popen(req["cmd"], stdin=inp, stdout=out, stderr=err, cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = perf_counter()
    after = calibrate()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "returncode": proc.returncode,
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,  # KiB on Linux
        "calibration_s": (before + after) / 2,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
