"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import pytest

from crossbifix.baseline import f_count, s_max, s_star
from crossbifix.codeset import Word, bifixes, construct_cbfs, cross_bifix, is_bifix_free
from crossbifix.counting import count_cbfs, motzkin_count
from crossbifix.cli import main
from crossbifix.oracle import (
    brute_count_words_avoiding_zero_run,
    brute_motzkin_count,
    verify_cross_bifix_free_set,
    verify_non_expandable,
)

# published size tables, n = 3..16 per column
CBFS_SIZES = {
    3: [4, 7, 16, 36, 87, 210, 535, 1350, 3545, 9205, 24698, 65467, 178375, 480197],
    4: [9, 25, 72, 223, 712, 2334, 7868, 26731, 93175, 324520, 1157031, 4104449, 14874100, 53514974],
    5: [16, 61, 224, 900, 3595, 15014, 63135, 271136, 1178677, 5167953, 22986100, 102403229, 463098075, 2089302415],
    6: [25, 121, 550, 2739, 13260, 67740, 342676, 1787415, 9324647, 49456240, 263776127, 1417981855, 7688015908, 41785951916],
}
S_SIZES = {
    3: [4, 4, 12, 32, 88, 240, 656, 1792, 4896, 13376, 36544, 99840, 272768, 745216],
    4: [9, 9, 36, 135, 513, 1944, 7371, 27945, 105948, 401679, 1522881, 5773680, 21889683, 82990089],
    5: [16, 16, 80, 384, 1856, 8960, 43264, 208896, 1008640, 4870144, 23515136, 113541120, 548225024, 2647064576],
    6: [25, 25, 150, 875, 5125, 30000, 175625, 1028125, 6018750, 35234375, 206265625, 1207500000, 7068828125, 41381640625],
}
S_STAR_SIZES = {
    3: [4, 8, 16, 32, 88, 240, 656, 1792, 4896, 13376, 36544, 99840, 272768, 745216],
    4: [9, 27, 81, 243, 729, 2187, 7371, 27945, 105948, 401679, 1522881, 5773680, 21889683, 82990089],
    5: [16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4870144, 23515136, 113541120, 548225024, 2647064576],
    6: [25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125, 244140625, 1220703125, 7068828125, 41381640625],
}

ONE_COLOR_COUNTS = [1, 1, 2, 4, 9, 21, 51, 127]


def _report(number, description, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    print(f"criterion {number} ({description}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]")
    assert not failures, failures
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_cbfs_size_table():
    t0 = time.perf_counter()
    failures = []
    for q, column in CBFS_SIZES.items():
        for n, expected in zip(range(3, 17), column):
            got = count_cbfs(q, n)
            if got != expected:
                failures.append((q, n, got, expected))
    _report(1, "size table, all 56 entries", failures, time.perf_counter() - t0, 1.0)


def test_criterion_2_baseline_size_tables():
    t0 = time.perf_counter()
    failures = []
    for q in (3, 4, 5, 6):
        for n in range(4, 17):
            got = s_max(n, q)[0]
            expected = S_SIZES[q][n - 3]
            if got != expected:
                failures.append(("S", q, n, got, expected))
        for n in range(3, 17):
            got = s_star(n, q)[0]
            expected = S_STAR_SIZES[q][n - 3]
            if got != expected:
                failures.append(("Sstar", q, n, got, expected))
        # n = 3 sits outside the plain maximization's range and must say so
        try:
            s_max(3, q)
            failures.append(("S", q, 3, "no error", "domain error"))
        except ValueError:
            pass
    _report(2, "baseline maxima vs published tables", failures, time.perf_counter() - t0, 1.0)


def test_criterion_3_formula_generation_agreement():
    t0 = time.perf_counter()
    failures = []
    for q in (3, 4, 5):
        for n in range(3, 10):
            for name in "ABC":
                built, claimed = len(construct_cbfs(q, n, name)), count_cbfs(q, n, name)
                if built != claimed:
                    failures.append((name, q, n, built, claimed))
    _report(3, "formula vs generation for A, B, C", failures, time.perf_counter() - t0, 30.0)


def test_criterion_4_pairwise_cross_bifix_freeness():
    t0 = time.perf_counter()
    failures = []
    cases = [(3, n) for n in range(3, 10)] + [(4, n) for n in range(3, 8)]
    for q, n in cases:
        report = verify_cross_bifix_free_set(construct_cbfs(q, n))
        if not report.ok:
            failures.append((q, n, report.witnesses[:3]))
    _report(4, "pairwise cross-bifix-freeness", failures, time.perf_counter() - t0, 60.0)


def test_criterion_5_non_expandability_and_mutation():
    t0 = time.perf_counter()
    failures = []
    cases = [(3, n) for n in range(3, 8)] + [(4, n) for n in range(3, 6)]
    for q, n in cases:
        report = verify_non_expandable(construct_cbfs(q, n))
        if not report.ok or report.error is not None:
            failures.append((q, n, report.error))
    mutated = construct_cbfs(3, 5)
    for member in mutated:
        report = verify_non_expandable(mutated.without(member))
        if report.ok or report.error is not None:
            failures.append(("mutation", member.to_text(), report.error))
    _report(5, "non-expandability incl. mutation check", failures, time.perf_counter() - t0, 60.0)


def test_criterion_6_motzkin_count_oracle():
    t0 = time.perf_counter()
    failures = []
    for colors in range(4):
        for n in range(11):
            fast, brute = motzkin_count(colors, n), brute_motzkin_count(colors, n)
            if fast != brute:
                failures.append((colors, n, fast, brute))
    got = [motzkin_count(1, n) for n in range(8)]
    if got != ONE_COLOR_COUNTS:
        failures.append(("sequence", got))
    _report(6, "recurrence vs full-space scan", failures, time.perf_counter() - t0, 30.0)


def test_criterion_7_zero_run_count_oracle():
    t0 = time.perf_counter()
    failures = []
    for k in (1, 2, 3):
        for q in (2, 3):
            for n in range(11):
                fast, brute = f_count(k, q, n), brute_count_words_avoiding_zero_run(k, q, n)
                if fast != brute:
                    failures.append((k, q, n, fast, brute))
    _report(7, "zero-run recurrence vs enumeration", failures, time.perf_counter() - t0, 10.0)


def test_criterion_8_worked_examples():
    t0 = time.perf_counter()
    failures = []
    expected_set = ["1100", "1120", "1210", "1220", "2120", "2210", "2220"]
    if [x.to_text() for x in construct_cbfs(3, 4)] != expected_set:
        failures.append("set CBFS(3, 4)")
    if not is_bifix_free(Word.from_text("111010100", 2)):
        failures.append("111010100 should be bifix-free")
    if is_bifix_free(Word.from_text("101001010", 2)):
        failures.append("101001010 should not be bifix-free")
    borders = [b.to_text() for b in bifixes(Word.from_text("101001010", 2))]
    if borders != ["10", "1010"]:
        failures.append(f"bifixes of 101001010: {borders}")
    if cross_bifix(Word.from_text("111010100", 2), Word.from_text("110101010", 2)) is not None:
        failures.append("pair should be cross-bifix-free")
    hit = cross_bifix(Word.from_text("111001100", 2), Word.from_text("110011010", 2))
    if hit is None or hit.word.to_text() != "1100":
        failures.append(f"expected witness 1100, got {hit}")
    _report(8, "worked examples", failures, time.perf_counter() - t0, 5.0)


def test_criterion_9_table_determinism(capsys):
    t0 = time.perf_counter()
    argv = ["table", "--q", "3..6", "--n", "3..16"]
    assert main(argv) == 0
    first = capsys.readouterr().out.encode("utf-8")
    assert main(argv) == 0
    second = capsys.readouterr().out.encode("utf-8")
    failures = [] if first == second and first else ["table runs differ"]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(9, "byte-identical table output", failures, elapsed, 10.0)
