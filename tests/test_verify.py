"""Cross-checks of the indexed verifier against the brute-force oracle.

Reports must agree in full, witness for witness, apart from the measured
wall time. The default non-expandability report is the oracle's with the
blocked candidates left out; with ``all_witnesses`` it is the oracle's
report. Past the oracle's reach the fast path is checked on its own.
"""

import ast
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbifix import cli, oracle, verify
from crossbifix.cbfs import CodeSet, construct_cbfs
from crossbifix.cli import main
from crossbifix.words import Word

PAIRWISE_SIZES = [(3, n) for n in range(3, 10)] + [(4, n) for n in range(3, 8)]
NON_EXPANDABLE_SIZES = [(3, n) for n in range(3, 8)] + [(4, n) for n in range(3, 6)]


def comparable(report):
    data = report.to_json_dict()
    del data["stats"]["wall_time_s"]
    return data


def unblocked_only(data):
    """The oracle's report as the default mode gives it: witnesses filtered
    to the candidates nothing blocks, everything else unchanged."""
    return {**data, "witnesses": [w for w in data["witnesses"] if w["blocking"] is None]}


def assert_same_non_expandable_reports(code_set):
    """Both report modes against the oracle; returns the default report."""
    brute = comparable(oracle.verify_non_expandable(code_set))
    every = verify.verify_non_expandable(code_set, all_witnesses=True)
    assert comparable(every) == brute
    if brute["error"] is None:
        assert len(every.witnesses) == every.stats["candidates_checked"]
    fast = verify.verify_non_expandable(code_set)
    assert comparable(fast) == unblocked_only(brute)
    return fast


def assert_same_reports(code_set):
    fast = verify.verify_cross_bifix_free_set(code_set)
    assert comparable(fast) == comparable(oracle.verify_cross_bifix_free_set(code_set))
    assert_same_non_expandable_reports(code_set)


def code_set_of(texts, q):
    return CodeSet.build(q, len(texts[0]), [(Word.from_text(t, q), "external") for t in texts])


@pytest.mark.parametrize("q, n", PAIRWISE_SIZES)
def test_pairwise_matches_oracle_on_cbfs(q, n):
    code_set = construct_cbfs(q, n)
    fast = verify.verify_cross_bifix_free_set(code_set)
    assert comparable(fast) == comparable(oracle.verify_cross_bifix_free_set(code_set))
    assert fast.ok


@pytest.mark.parametrize("q, n", NON_EXPANDABLE_SIZES)
def test_non_expandable_matches_oracle_on_cbfs(q, n):
    fast = assert_same_non_expandable_reports(construct_cbfs(q, n))
    assert fast.ok and fast.error is None and fast.witnesses == ()


def test_mutation_check_matches_oracle():
    cbfs = construct_cbfs(3, 5)
    for member in cbfs:
        fast = assert_same_non_expandable_reports(cbfs.without(member))
        assert not fast.ok
        assert member.to_text() in [w["candidate"] for w in fast.witnesses]


@pytest.mark.parametrize(
    "texts, q",
    [
        (["100", "110", "210"], 3),  # two violating pairs
        (["111001100", "110011010"], 2),  # one pair, witness 1100
        (["101"], 2),  # not bifix-free
        (["1100"], 3),  # a singleton is expandable
        (["0110", "1000", "1001", "1101"], 2),  # one member has a border
    ],
)
def test_hand_picked_sets_match_oracle(texts, q):
    assert_same_reports(code_set_of(texts, q))


def test_empty_set_matches_oracle():
    assert_same_reports(CodeSet(3, 4, (), ()))


def test_domain_errors_match_oracle():
    for bad in (CodeSet(1, 3, (), ()), CodeSet(3, 0, (), ())):
        messages = []
        for module in (verify, oracle):
            with pytest.raises(ValueError) as err:
                module.verify_non_expandable(bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_space_guard_matches_oracle():
    for module in (verify, oracle):
        with pytest.raises(ValueError, match="above the cap of 10"):
            module.verify_non_expandable(construct_cbfs(3, 4), max_space=10)


def test_space_guard_caps_the_candidates_not_the_word_space():
    # CBFS(3, 9) leaves U_3(9) - |S| = 10499 candidates in a space of 3^9 = 19683
    cbfs = construct_cbfs(3, 9)
    report = verify.verify_non_expandable(cbfs, max_space=10499)
    assert report.ok and report.stats["candidates_checked"] == 10499
    with pytest.raises(ValueError, match="10499 candidates, above the cap of 10498"):
        verify.verify_non_expandable(cbfs, max_space=10498)


def test_cli_limit_caps_the_candidates_not_the_word_space(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text(construct_cbfs(3, 9).to_text())
    argv = ["verify", "--in", str(path), "--q", "3", "--mode", "nonexpandable", "--limit"]
    assert main(argv + ["10499"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(argv + ["10498"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "above the cap of 10498" in captured.err


def test_space_guard_comes_before_the_preconditions(tmp_path, capsys, monkeypatch):
    cbfs = construct_cbfs(3, 9)
    path = tmp_path / "words.txt"
    path.write_text(cbfs.to_text())

    def late(*args):
        raise AssertionError("a precondition ran before the cap")

    monkeypatch.setattr(verify, "verify_cross_bifix_free_set", late)
    monkeypatch.setattr(verify, "is_bifix_free", late)
    with pytest.raises(ValueError, match="10499 candidates, above the cap of 10$"):
        verify.verify_non_expandable(cbfs, max_space=10)
    assert main(["verify", "--in", str(path), "--q", "3", "--mode", "nonexpandable", "--limit", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith("10499 candidates, above the cap of 10\n")


@st.composite
def small_sets(draw):
    """Random small sets, mostly neither bifix-free nor cross-bifix-free,
    and random subsets of CBFS, which pass both preconditions and are
    mostly expandable."""
    if draw(st.booleans()):
        q = draw(st.integers(2, 4))
        n = draw(st.integers(2, 6))
        word = st.tuples(*[st.integers(0, q - 1)] * n)
        words = draw(st.lists(word, min_size=1, max_size=12))
    else:
        q = draw(st.integers(3, 4))
        n = draw(st.integers(3, 6))
        members = construct_cbfs(q, n).words
        words = [w.symbols for w in draw(st.lists(st.sampled_from(members), min_size=1, max_size=12))]
    return CodeSet.build(q, n, [(Word(w, q), "external") for w in words])


@settings(max_examples=200, deadline=None)
@given(small_sets())
def test_random_small_sets_match_oracle(code_set):
    assert_same_reports(code_set)


def test_fast_path_past_the_oracle_range():
    cbfs = construct_cbfs(3, 10)
    report = verify.verify_non_expandable(cbfs, all_witnesses=True)
    assert report.ok and report.error is None
    assert len(report.witnesses) == report.stats["candidates_checked"]
    dropped = cbfs.words[len(cbfs) // 2]
    report = verify.verify_non_expandable(cbfs.without(dropped), all_witnesses=True)
    assert not report.ok and report.error is None
    assert dropped.to_text() in [w["candidate"] for w in report.witnesses if w["blocking"] is None]

    for q, n in [(3, 10), (3, 12), (4, 10)]:
        cbfs = construct_cbfs(q, n)
        candidates = verify.count_bifix_free(q, n) - len(cbfs)
        report = verify.verify_non_expandable(cbfs)
        assert report.ok and report.error is None and report.witnesses == ()
        assert report.stats["candidates_checked"] == candidates
        dropped = cbfs.words[len(cbfs) // 3]
        report = verify.verify_non_expandable(cbfs.without(dropped))
        assert not report.ok and report.error is None
        assert all(w["blocking"] is None for w in report.witnesses)
        assert dropped.to_text() in [w["candidate"] for w in report.witnesses]
        assert report.stats["candidates_checked"] == candidates + 1

    big = construct_cbfs(4, 10)
    report = verify.verify_cross_bifix_free_set(big)
    assert report.ok and report.witnesses == ()
    assert report.stats["pairs_checked"] == len(big) * (len(big) - 1) // 2


@pytest.mark.parametrize(
    "texts, q, mode, code",
    [
        ([w.to_text() for w in construct_cbfs(3, 5)], 3, "nonexpandable", 0),
        ([w.to_text() for w in construct_cbfs(3, 5).words[1:]], 3, "nonexpandable", 1),
        (["100", "110", "210"], 3, "set", 1),
        (["100", "110", "210"], 3, "nonexpandable", 2),
    ],
)
def test_cli_prints_the_oracle_report(tmp_path, capsys, texts, q, mode, code):
    path = tmp_path / "words.txt"
    path.write_text("".join(t + "\n" for t in reversed(texts)))
    argv = ["verify", "--in", str(path), "--q", str(q), "--mode", mode]
    assert main(argv + (["--all-witnesses"] if mode == "nonexpandable" else [])) == code
    printed = json.loads(capsys.readouterr().out)
    del printed["stats"]["wall_time_s"]
    code_set = code_set_of(texts, q)
    if mode == "set":
        expected = oracle.verify_cross_bifix_free_set(code_set)
    else:
        expected = oracle.verify_non_expandable(code_set)
    assert printed == comparable(expected)


@pytest.mark.parametrize(
    "texts, code",
    [
        ([w.to_text() for w in construct_cbfs(3, 5)], 0),
        ([w.to_text() for w in construct_cbfs(3, 5).words[1:]], 1),
        (["1100"], 1),
        (["100", "110", "210"], 2),
    ],
)
def test_cli_prints_the_unblocked_candidates_by_default(tmp_path, capsys, texts, code):
    path = tmp_path / "words.txt"
    path.write_text("".join(t + "\n" for t in reversed(texts)))
    assert main(["verify", "--in", str(path), "--q", "3", "--mode", "nonexpandable"]) == code
    printed = json.loads(capsys.readouterr().out)
    assert list(printed) == ["kind", "ok", "witnesses", "stats", "error"]
    del printed["stats"]["wall_time_s"]
    assert printed == unblocked_only(comparable(oracle.verify_non_expandable(code_set_of(texts, 3))))


# Brute enumerations of Z_q^n stay at or below this many words.
BRUTE_SCAN_CAP = 100_000


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_bifix_free_count_matches_enumeration(q):
    n = 1
    while q**n <= BRUTE_SCAN_CAP:
        words = [w.symbols for w in oracle.enumerate_bifix_free(q, n)]
        assert verify.count_bifix_free(q, n) == len(words), n
        assert list(verify.iter_bifix_free(q, n)) == words, n
        n += 1
    assert n > 7


def test_bifix_free_count_domain_errors():
    for q, n in [(1, 3), (3, 0)]:
        with pytest.raises(ValueError) as fast:
            verify.count_bifix_free(q, n)
        with pytest.raises(ValueError) as stream:
            verify.iter_bifix_free(q, n)
        with pytest.raises(ValueError) as brute:
            next(oracle.enumerate_bifix_free(q, n))
        assert str(fast.value) == str(stream.value) == str(brute.value)


def test_oracle_does_not_use_the_fast_path():
    lines = inspect.getsource(oracle).splitlines()
    imports = [line for line in lines if line.startswith(("import ", "from "))]
    assert imports and not any("verify" in line for line in imports)


def test_production_does_not_use_the_oracle():
    for module in (cli, verify):
        names = []
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                names += [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
        assert names and not any("oracle" in name for name in names), module.__name__
