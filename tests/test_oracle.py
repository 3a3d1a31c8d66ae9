"""Tests for the brute-force verification oracles and their reports."""

import itertools
import json

import pytest

from crossbifix.codeset import CodeSet, Word, construct_cbfs
from crossbifix.counting import count_cbfs
from crossbifix.oracle import (
    brute_count_words_avoiding_zero_run,
    brute_motzkin_count,
    enumerate_bifix_free,
    verify_count_agreement,
    verify_cross_bifix_free_set,
    verify_non_expandable,
)


def code_set_of(texts, q):
    return CodeSet.from_text("\n".join(texts), q)


def test_enumerate_bifix_free_small():
    # frozen from the brute filter below: a word is bifix-free iff no
    # non-empty strict prefix is also a suffix, so 01 and 001 qualify
    assert [x.to_text() for x in enumerate_bifix_free(2, 2)] == ["01", "10"]
    assert [x.to_text() for x in enumerate_bifix_free(2, 3)] == ["001", "011", "100", "110"]
    assert [x.to_text() for x in enumerate_bifix_free(2, 1)] == ["0", "1"]
    assert Word.from_text("111010100", 2) in set(enumerate_bifix_free(2, 9))


def test_enumerate_bifix_free_matches_naive_filter():
    def naive(q, n):
        out = []
        for s in itertools.product(range(q), repeat=n):
            if all(s[:l] != s[n - l:] for l in range(1, n)):
                out.append(s)
        return out

    for q in (2, 3):
        for n in range(1, 7):
            assert [x.symbols for x in enumerate_bifix_free(q, n)] == naive(q, n)


def test_enumerate_bifix_free_domain_errors():
    with pytest.raises(ValueError):
        list(enumerate_bifix_free(1, 3))
    with pytest.raises(ValueError):
        list(enumerate_bifix_free(2, 0))


def test_verify_set_accepts_cbfs():
    report = verify_cross_bifix_free_set(construct_cbfs(3, 4))
    assert report.kind == "cross-bifix-set"
    assert report.ok
    assert report.witnesses == ()
    assert report.stats["pairs_checked"] == 21
    assert report.error is None


def test_verify_set_singleton_is_trivially_ok():
    report = verify_cross_bifix_free_set(code_set_of(["1100"], 3))
    assert report.ok and report.stats["pairs_checked"] == 0


def test_verify_set_reports_known_witness():
    report = verify_cross_bifix_free_set(code_set_of(["111001100", "110011010"], 2))
    assert not report.ok
    assert len(report.witnesses) == 1
    assert report.witnesses[0]["cross_bifix"] == "1100"


def test_verify_set_reports_every_violating_pair():
    report = verify_cross_bifix_free_set(code_set_of(["100", "110", "210"], 3))
    assert not report.ok
    assert report.stats["pairs_checked"] == 3
    found = {(w["first"], w["second"]): w["cross_bifix"] for w in report.witnesses}
    assert found == {("100", "110"): "10", ("100", "210"): "10"}


def test_verify_non_expandable_accepts_cbfs():
    report = verify_non_expandable(construct_cbfs(3, 4))
    assert report.kind == "non-expandable"
    assert report.ok
    assert report.error is None
    assert all(w["blocking"] is not None for w in report.witnesses)
    assert len(report.witnesses) == report.stats["candidates_checked"]
    by_candidate = {w["candidate"]: w for w in report.witnesses}
    assert by_candidate["1000"] == {
        "candidate": "1000",
        "cross_bifix": "100",
        "blocking": "1100",
        "prefix_of": "first",
    }


def test_verify_non_expandable_fails_after_removal():
    cbfs = construct_cbfs(3, 5)
    for member in cbfs:
        report = verify_non_expandable(cbfs.without(member))
        assert not report.ok
        assert report.error is None
        unblocked = [w["candidate"] for w in report.witnesses if w["blocking"] is None]
        assert member.to_text() in unblocked


def test_verify_non_expandable_precondition_failures_are_errors():
    not_bifix_free = code_set_of(["101"], 2)
    report = verify_non_expandable(not_bifix_free)
    assert not report.ok
    assert "bifix-free" in report.error

    not_cross = code_set_of(["100", "110"], 2)
    report = verify_non_expandable(not_cross)
    assert not report.ok
    assert "cross-bifix-free" in report.error


def test_verify_non_expandable_space_guard():
    with pytest.raises(ValueError):
        verify_non_expandable(construct_cbfs(3, 4), max_space=10)


def test_count_agreement_report():
    report = verify_count_agreement(3, 5)
    assert report.kind == "count-agreement"
    assert report.ok
    assert report.witnesses == ()
    assert report.stats["candidates_checked"] == count_cbfs(3, 5)


def test_brute_motzkin_count_values_and_guards():
    assert brute_motzkin_count(1, 3) == 4
    for colors in range(4):
        assert brute_motzkin_count(colors, 0) == 1
    with pytest.raises(ValueError):
        brute_motzkin_count(2, 12)
    with pytest.raises(ValueError):
        brute_motzkin_count(-1, 3)
    with pytest.raises(ValueError):
        brute_motzkin_count(1, -1)


def test_brute_zero_run_count_values_and_guards():
    assert brute_count_words_avoiding_zero_run(2, 3, 2) == 8
    assert brute_count_words_avoiding_zero_run(1, 4, 3) == 27
    with pytest.raises(ValueError):
        brute_count_words_avoiding_zero_run(2, 10, 10)
    with pytest.raises(ValueError):
        brute_count_words_avoiding_zero_run(0, 3, 3)


def test_report_serialization_shape():
    report = verify_cross_bifix_free_set(construct_cbfs(3, 4))
    data = json.loads(report.to_json())
    assert list(data.keys()) == ["kind", "ok", "witnesses", "stats", "error"]
    assert data["kind"] == "cross-bifix-set"
    assert data["ok"] is True
    assert data["witnesses"] == []
    assert set(data["stats"]) == {"pairs_checked", "candidates_checked", "wall_time_s"}
    assert data["error"] is None
