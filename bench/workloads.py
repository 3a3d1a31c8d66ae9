"""The benchmark's workloads: which CLI calls each makes, and the gates that
check every call's exit code and output.

A workload is a function ``iteration(run, seed)`` that makes one round of
CLI calls through ``run(args, stdin, check)``. ``run`` spawns the process,
times it and applies ``check(returncode, stdout) -> problem or None``; it
returns the stdout bytes. The seed makes the inputs: the same seed gives the
same inputs on every iteration of a run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random

# The paper's frozen sizes for n = 3..16 (CBFS(q, n) and the baseline maximum
# S; S is undefined at n = 3, where the table leaves the cell empty).
CBFS_SIZES = {
    3: [4, 7, 16, 36, 87, 210, 535, 1350, 3545, 9205, 24698, 65467, 178375, 480197],
    4: [9, 25, 72, 223, 712, 2334, 7868, 26731, 93175, 324520, 1157031, 4104449, 14874100, 53514974],
    5: [16, 61, 224, 900, 3595, 15014, 63135, 271136, 1178677, 5167953, 22986100, 102403229, 463098075, 2089302415],
    6: [25, 121, 550, 2739, 13260, 67740, 342676, 1787415, 9324647, 49456240, 263776127, 1417981855, 7688015908, 41785951916],
}
S_SIZES = {
    3: [None, 4, 12, 32, 88, 240, 656, 1792, 4896, 13376, 36544, 99840, 272768, 745216],
    4: [None, 9, 36, 135, 513, 1944, 7371, 27945, 105948, 401679, 1522881, 5773680, 21889683, 82990089],
    5: [None, 16, 80, 384, 1856, 8960, 43264, 208896, 1008640, 4870144, 23515136, 113541120, 548225024, 2647064576],
    6: [None, 25, 150, 875, 5125, 30000, 175625, 1028125, 6018750, 35234375, 206265625, 1207500000, 7068828125, 41381640625],
}

SETUP_ARGS = ["count", "--q", "3", "--n", "3"]
GENERATE_ARGS = ["gen", "--q", "4", "--n", "11", "--set", "cbfs"]
VERIFY_GEN_ARGS = ["gen", "--q", "3", "--n", "9"]
VERIFY_ARGS = ["verify", "--in", "-", "--q", "3", "--mode", "nonexpandable"]
TABLE_ARGS = ["table", "--q", "3..6", "--n", "3..200", "--compare", "S"]

# sha256 of the stdout of each call, recorded from the version of the
# package the benchmark was introduced against.
GENERATE_SHA256 = "aab53003b1313fe52633a2c7350ed4ecc6f55e8d2712476edb5d91c0d976dd48"
VERIFY_GEN_SHA256 = "0efda5e1fb54f7db7082e9e2cd4bf4903c5e68b2bf0bed798e6ee4a22fadcb40"
TABLE_SHA256 = "000d401d634ad1ee5fcc7bdc58d980fab1126b1f52bb2d695612ffa6de204e73"


def _exit(returncode: int, expected: int) -> str | None:
    return None if returncode == expected else f"exit code {returncode}, expected {expected}"


def check_setup(returncode: int, stdout: bytes) -> str | None:
    return _exit(returncode, 0) or (None if stdout == b"4\n" else f"count printed {stdout[:40]!r}, expected b'4\\n'")


def check_word_list(returncode: int, stdout: bytes, lines: int, sha256: str) -> str | None:
    """A word list with the expected number of lines, in strictly increasing
    order, whose bytes hash to the recorded digest."""
    problem = _exit(returncode, 0)
    if problem:
        return problem
    words = stdout.decode("ascii", "replace").splitlines()
    if len(words) != lines:
        return f"{len(words)} lines, expected {lines}"
    for a, b in zip(words, words[1:]):
        if not a < b:
            return f"lines out of order: {a} then {b}"
    digest = hashlib.sha256(stdout).hexdigest()
    return None if digest == sha256 else f"stdout sha256 {digest}, expected {sha256}"


def _report(stdout: bytes) -> dict | str:
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    return report if isinstance(report, dict) else "report is not a JSON object"


def check_verify_full(returncode: int, stdout: bytes) -> str | None:
    """The whole set is non-expandable: exit 0, ok true, no error."""
    report = _report(stdout)
    if isinstance(report, str):
        return report
    if report.get("ok") is not True or report.get("error") is not None:
        return f"full set: ok={report.get('ok')!r} error={report.get('error')!r}"
    return _exit(returncode, 0)


def check_verify_mutated(returncode: int, stdout: bytes, dropped: str) -> str | None:
    """The set minus one member is expandable: exit 1, ok false, and the
    dropped word is reported as a candidate nothing blocks. The number of
    witnesses and candidates is left free."""
    report = _report(stdout)
    if isinstance(report, str):
        return report
    if report.get("ok") is not False or report.get("error") is not None:
        return f"mutated set: ok={report.get('ok')!r} error={report.get('error')!r}"
    unblocked = {
        w.get("candidate")
        for w in report.get("witnesses") or ()
        if isinstance(w, dict) and "blocking" in w and w["blocking"] is None
    }
    if dropped not in unblocked:
        return f"dropped word {dropped} is not reported as an unblocked candidate"
    return _exit(returncode, 1)


def check_table(returncode: int, stdout: bytes, sha256: str) -> str | None:
    """Rows with n <= 16 match the paper's CBFS and S sizes, and the whole
    output hashes to the recorded digest."""
    problem = _exit(returncode, 0)
    if problem:
        return problem
    rows = list(csv.DictReader(io.StringIO(stdout.decode("ascii", "replace"))))
    if not rows:
        return "empty table"
    for row in rows:
        try:
            n = int(row["n"])
        except (KeyError, ValueError):
            return f"bad row {row!r}"
        if n > 16:
            continue
        for q in CBFS_SIZES:
            want_cbfs, want_s = CBFS_SIZES[q][n - 3], S_SIZES[q][n - 3]
            got_cbfs, got_s = row.get(f"cbfs_q{q}"), row.get(f"cmp_q{q}")
            if got_cbfs is not None and got_cbfs != str(want_cbfs):
                return f"cbfs q={q} n={n}: {got_cbfs}, expected {want_cbfs}"
            if got_s is not None and got_s != ("" if want_s is None else str(want_s)):
                return f"S q={q} n={n}: {got_s!r}, expected {want_s}"
    digest = hashlib.sha256(stdout).hexdigest()
    return None if digest == sha256 else f"stdout sha256 {digest}, expected {sha256}"


def generate(run, seed: int) -> None:
    run(GENERATE_ARGS, None, lambda rc, out: check_word_list(rc, out, 93_175, GENERATE_SHA256))


def verify(run, seed: int) -> None:
    out = run(VERIFY_GEN_ARGS, None, lambda rc, out: check_word_list(rc, out, 535, VERIFY_GEN_SHA256))
    words, dropped = mutation_inputs(out, seed)
    full = "".join(w + "\n" for w in words).encode()
    mutated = "".join(w + "\n" for w in words if w != dropped).encode()
    run(VERIFY_ARGS, full, check_verify_full)
    run(VERIFY_ARGS, mutated, lambda rc, out: check_verify_mutated(rc, out, dropped))


def mutation_inputs(word_list: bytes, seed: int) -> tuple[list[str], str]:
    """The words in an order shuffled by the seed, and the member the seed
    drops for the negative control."""
    words = word_list.decode("ascii", "replace").split()
    rng = random.Random(seed)
    rng.shuffle(words)
    return words, (rng.choice(words) if words else "")


def table(run, seed: int) -> None:
    run(TABLE_ARGS, None, lambda rc, out: check_table(rc, out, TABLE_SHA256))


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {"generate": generate, "verify": verify, "table": table}
