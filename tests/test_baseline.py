"""Tests for the zero-run baseline construction and its maximization."""

import itertools

import pytest

from crossbifix.baseline import (
    ZeroRunAvoidanceTable,
    construct_baseline_set,
    f_count,
    s_max,
    s_star,
)
from crossbifix.oracle import verify_cross_bifix_free_set
from crossbifix.words import is_bifix_free


def naive_zero_run_count(k, q, n):
    count = 0
    for word in itertools.product(range(q), repeat=n):
        run = best = 0
        for s in word:
            run = run + 1 if s == 0 else 0
            best = max(best, run)
        if best < k:
            count += 1
    return count


def test_f_count_small_values():
    assert f_count(2, 3, 0) == 1
    assert f_count(2, 3, 1) == 3
    assert f_count(2, 3, 2) == 8
    assert f_count(1, 3, 4) == 2**4  # no zeros at all


def test_f_count_power_branch_below_run_length():
    for k in (1, 2, 3):
        for q in (2, 3, 5):
            for n in range(k):
                assert f_count(k, q, n) == q**n


def test_f_count_matches_enumeration():
    for k in (1, 2, 3):
        for q in (2, 3):
            for n in range(9):
                assert f_count(k, q, n) == naive_zero_run_count(k, q, n)


def window_sum_counts(k, q, n_max):
    # reference: the k-term window recurrence, which splits words at their first non-zero symbol
    v = [q**i for i in range(k)]
    while len(v) <= n_max:
        m = len(v)
        v.append((q - 1) * sum(v[m - l] for l in range(1, k + 1)))
    return v[: n_max + 1]


def test_f_count_matches_the_window_sum():
    for k in range(1, 15):
        for q in range(2, 8):
            assert [f_count(k, q, n) for n in range(201)] == window_sum_counts(k, q, 200), (k, q)


def test_f_count_domain_errors():
    with pytest.raises(ValueError):
        ZeroRunAvoidanceTable(0, 3)
    with pytest.raises(ValueError):
        ZeroRunAvoidanceTable(2, 1)
    with pytest.raises(ValueError):
        f_count(2, 3, -1)


def test_f_count_reuses_its_memo_table(monkeypatch):
    import crossbifix.baseline as baseline

    f_count(3, 7, 2)

    def refuse(run_length, q):
        raise AssertionError("a memo table was built for a warm key")

    monkeypatch.setattr(baseline, "ZeroRunAvoidanceTable", refuse)
    assert f_count(3, 7, 5) == naive_zero_run_count(3, 7, 5)


def test_baseline_set_small():
    built = construct_baseline_set(2, 3, 4)
    assert [x.to_text() for x in built] == ["0011", "0012", "0021", "0022"]
    assert set(built.provenance) == {"baseline"}
    assert len(construct_baseline_set(2, 3, 5)) == 12


def test_baseline_set_size_formula():
    for q in (3, 4):
        for n in range(3, 9):
            for k in range(1, n - 1):
                built = construct_baseline_set(k, q, n)
                assert len(built) == (q - 1) ** 2 * f_count(k, q, n - k - 2)


def test_baseline_sets_are_cross_bifix_free():
    for n in range(3, 8):
        for k in range(1, n - 1):
            built = construct_baseline_set(k, 3, n)
            assert all(is_bifix_free(word) for word in built)
            assert verify_cross_bifix_free_set(built).ok


def test_baseline_set_domain_errors():
    with pytest.raises(ValueError):
        construct_baseline_set(0, 3, 5)
    with pytest.raises(ValueError):
        construct_baseline_set(4, 3, 5)  # k > n - 2
    with pytest.raises(ValueError):
        construct_baseline_set(2, 1, 5)
    with pytest.raises(ValueError):
        construct_baseline_set(2, 3, 40)  # interior space above the cap


def test_maximization_values():
    assert s_max(7, 3) == (88, 2)
    assert s_max(16, 6)[0] == 41381640625
    assert s_star(4, 3) == (8, 1)
    assert s_star(5, 4) == (81, 1)
    for q in (3, 4, 5, 6):
        assert s_star(3, q) == ((q - 1) ** 2, 1)


def test_maximization_reports_smallest_argmax():
    value, k = s_max(8, 3)
    assert value == 240 and k == 2
    assert (3 - 1) ** 2 * f_count(2, 3, 8 - 2 - 2) == 240


def test_star_dominates_plain_maximum():
    for q in (3, 4, 5, 6):
        for n in range(4, 13):
            assert s_star(n, q)[0] >= s_max(n, q)[0]


def test_empty_run_length_range_is_an_error():
    with pytest.raises(ValueError):
        s_max(3, 3)
    with pytest.raises(ValueError):
        s_star(2, 3)
    with pytest.raises(ValueError):
        s_max(5, 1)
