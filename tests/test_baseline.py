"""Tests for the zero-run baseline construction and its maximization."""

import itertools

import pytest

from crossbifix import baseline
from crossbifix.baseline import (
    best_sizes,
    construct_baseline_set,
    f_count,
    s_max,
    s_star,
    zero_run_counts,
)
from crossbifix.cli import main
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
            reference = window_sum_counts(k, q, 200)
            assert [f_count(k, q, n) for n in range(201)] == reference, (k, q)
            assert zero_run_counts(k, q, range(201)) == dict(enumerate(reference)), (k, q)


def test_f_count_domain_errors():
    with pytest.raises(ValueError):
        f_count(0, 3, 0)
    with pytest.raises(ValueError):
        f_count(2, 1, 0)
    with pytest.raises(ValueError):
        f_count(2, 3, -1)
    with pytest.raises(ValueError):
        zero_run_counts(0, 3, ())
    with pytest.raises(ValueError):
        zero_run_counts(2, 3, [4, -1])


def test_counting_keeps_no_module_state():
    before = dict(vars(baseline))
    assert f_count(3, 7, 5) == naive_zero_run_count(3, 7, 5)
    assert zero_run_counts(3, 7, [2, 5]) == {2: 49, 5: naive_zero_run_count(3, 7, 5)}
    assert s_max(40, 3) == s_max(40, 3)
    assert best_sizes(3, [40], 2) == {40: s_max(40, 3)}
    # the same names bound to the same objects, none of them a container a
    # cache could grow in
    assert vars(baseline).keys() == before.keys()
    assert all(value is before[name] for name, value in vars(baseline).items())
    containers = [name for name, value in vars(baseline).items() if isinstance(value, (dict, list, set))]
    assert containers == ["__builtins__"]
    functions = (f_count, zero_run_counts, best_sizes, s_max, s_star)
    assert not any(hasattr(fn, "cache_info") for fn in functions)


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


def zero_run_table(k, q, m_max):
    # reference: F(m) for m <= m_max as a full list, by the two-term recurrence
    v = [1]
    while len(v) <= m_max:
        m = len(v)
        v.append(q * v[m - 1] - ((q - 1) * v[m - k - 1] if m > k else int(m == k)))
    return v


def full_loop_best(n, q, k_min, tables):
    # reference: every run length k_min <= k <= n-2, no early stop; the
    # first k reaching the maximum is kept
    best = None
    for k in range(k_min, n - 1):
        value = (q - 1) ** 2 * tables[k][n - k - 2]
        if best is None or value > best[0]:
            best = (value, k)
    return best


def test_bounded_search_matches_the_full_loop():
    n_max = 399
    for q in range(2, 7):
        tables = {k: zero_run_table(k, q, n_max - k - 2) for k in range(1, n_max - 1)}
        for k_min, single, first in ((2, s_max, 4), (1, s_star, 3)):
            expected = {n: full_loop_best(n, q, k_min, tables) for n in range(first, n_max + 1)}
            assert best_sizes(q, range(n_max + 1), k_min) == expected, (q, k_min)
            for n in range(first, n_max + 1):
                assert single(n, q) == expected[n], (q, n, k_min)


def test_bounded_search_far_past_the_old_reach(capsys):
    # at n = 3000 the old per-k memo tables took about 10 s per value; the
    # full loop here walks each k to n - k - 2 once
    n, q = 3000, 3
    assert main(["count", "--set", "S", "--q", str(q), "--n", str(n)]) == 0
    out = capsys.readouterr().out
    best = None
    for k in range(2, n - 1):
        m = n - k - 2
        value = (q - 1) ** 2 * (q**m if m < k else zero_run_table(k, q, m)[m])
        if best is None or value > best[0]:
            best = (value, k)
    assert out == f"{best[0]} k={best[1]}\n"


def test_bounded_search_stops_at_the_first_hopeless_run_length(monkeypatch):
    walked = []
    walk = baseline.zero_run_counts

    def recording(k, q, lengths):
        walked.append(k)
        return walk(k, q, lengths)

    monkeypatch.setattr(baseline, "zero_run_counts", recording)
    for n, q in ((3000, 3), (40, 2), (200, 6)):
        walked.clear()
        value, best_k = s_max(n, q)
        stop = next(k for k in range(best_k + 1, n) if k > n - 2 or (q - 1) ** 2 * q ** (n - k - 2) <= value)
        assert walked == list(range(2, stop)), (n, q, walked)


def test_empty_run_length_range_is_an_error():
    with pytest.raises(ValueError):
        s_max(3, 3)
    with pytest.raises(ValueError):
        s_star(2, 3)
    with pytest.raises(ValueError):
        s_max(5, 1)
