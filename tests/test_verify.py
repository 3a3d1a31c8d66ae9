"""Cross-checks of the indexed verifier against the brute-force oracle.

Reports must agree in full, witness for witness, apart from the measured
wall time. The default non-expandability report is the oracle's with the
blocked candidates left out; with ``all_witnesses`` it is the oracle's
report. Past the oracle's reach the fast path is checked on its own.
"""

import ast
import inspect
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbifix import bifixfree, cli, codeset, oracle, sizes, verify, wordlist, words
from crossbifix.cli import main
from crossbifix.codeset import CodeSet, Word, construct_cbfs, cross_bifix
from crossbifix.words import symbols_of

PAIRWISE_SIZES = [(3, n) for n in range(3, 10)] + [(4, n) for n in range(3, 8)]
NON_EXPANDABLE_SIZES = [(3, n) for n in range(3, 8)] + [(4, n) for n in range(3, 6)]


def comparable(report):
    """The report's dict less its wall time, once its JSON text is held to
    the bytes that ``json`` writes for it."""
    data = report.to_json_dict()
    assert report.to_json() == json.dumps(data, indent=2) + "\n"
    del data["stats"]["wall_time_s"]
    return data


def printed_report(capsys):
    """The report a ``verify`` command printed, once its bytes are held to
    the bytes that ``json`` writes for the value they hold."""
    out = capsys.readouterr().out
    data = json.loads(out)
    assert out == json.dumps(data, indent=2) + "\n"
    return data


def unblocked_only(data):
    """The oracle's report as the default mode gives it: witnesses filtered
    to the candidates nothing blocks, everything else unchanged."""
    return {**data, "witnesses": [w for w in data["witnesses"] if w["blocking"] is None]}


def assert_same_non_expandable_reports(code_set):
    """Both report modes against the oracle; returns the default report."""
    brute = comparable(oracle.verify_non_expandable(code_set))
    every = codeset.verify_non_expandable(code_set, all_witnesses=True)
    assert comparable(every) == brute
    if brute["error"] is None:
        assert len(every.witnesses) == every.stats["candidates_checked"]
    fast = codeset.verify_non_expandable(code_set)
    assert comparable(fast) == unblocked_only(brute)
    return fast


def assert_same_reports(code_set):
    fast = codeset.verify_cross_bifix_free_set(code_set)
    assert comparable(fast) == comparable(oracle.verify_cross_bifix_free_set(code_set))
    assert_same_non_expandable_reports(code_set)


def code_set_of(texts, q):
    return CodeSet.from_text("\n".join(texts), q)


@pytest.mark.parametrize("q, n", PAIRWISE_SIZES)
def test_pairwise_matches_oracle_on_cbfs(q, n):
    code_set = construct_cbfs(q, n)
    fast = codeset.verify_cross_bifix_free_set(code_set)
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
        for module in (codeset, oracle):
            with pytest.raises(ValueError) as err:
                module.verify_non_expandable(bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_space_guard_matches_oracle():
    for module in (codeset, oracle):
        with pytest.raises(ValueError, match="above the cap of 10"):
            module.verify_non_expandable(construct_cbfs(3, 4), max_space=10)


def test_space_guard_caps_the_candidates_not_the_word_space():
    # CBFS(3, 9) leaves U_3(9) - |S| = 10499 candidates in a space of 3^9 = 19683
    cbfs = construct_cbfs(3, 9)
    report = codeset.verify_non_expandable(cbfs, max_space=10499)
    assert report.ok and report.stats["candidates_checked"] == 10499
    with pytest.raises(ValueError, match="10499 candidates, above the cap of 10498"):
        codeset.verify_non_expandable(cbfs, max_space=10498)


def test_cli_limit_caps_the_candidates_not_the_word_space(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text(construct_cbfs(3, 9).to_text())
    argv = ["verify", "--in", str(path), "--q", "3", "--mode", "nonexpandable", "--limit"]
    assert main(argv + ["10499"]) == 0
    assert printed_report(capsys)["ok"] is True
    assert main(argv + ["10498"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "above the cap of 10498" in captured.err


def test_space_guard_comes_before_the_preconditions(tmp_path, capsys, monkeypatch):
    cbfs = construct_cbfs(3, 9)
    path = tmp_path / "words.txt"
    path.write_text(cbfs.to_text())

    def late(*args):
        raise AssertionError("a precondition ran before the cap")

    # a refused set builds no index, and so scans for no precondition
    monkeypatch.setattr(verify, "_index", late)
    monkeypatch.setattr(verify, "_shared_borders", late)  # both preconditions' scan
    with pytest.raises(ValueError, match="10499 candidates, above the cap of 10$"):
        codeset.verify_non_expandable(cbfs, max_space=10)
    assert main(["verify", "--in", str(path), "--q", "3", "--mode", "nonexpandable", "--limit", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith("10499 candidates, above the cap of 10\n")
    # the command reads the members' codes and refuses on them, before it builds any word
    monkeypatch.setattr(codeset.Word, "__post_init__", late)
    for n in ([], ["--n", "9"]):
        argv = ["verify", "--in", str(path), "--q", "3", "--mode", "nonexpandable", "--limit", "10", *n]
        assert main(argv) == 2
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
    return CodeSet.from_ordered(q, n, ((w, "external") for w in sorted(set(words))))


@settings(max_examples=200, deadline=None)
@given(small_sets())
def test_random_small_sets_match_oracle(code_set):
    assert_same_reports(code_set)


def test_fast_path_past_the_oracle_range():
    cbfs = construct_cbfs(3, 10)
    report = codeset.verify_non_expandable(cbfs, all_witnesses=True)
    assert report.ok and report.error is None
    assert len(report.witnesses) == report.stats["candidates_checked"]
    dropped = cbfs.words[len(cbfs) // 2]
    report = codeset.verify_non_expandable(cbfs.without(dropped), all_witnesses=True)
    assert not report.ok and report.error is None
    assert dropped.to_text() in [w["candidate"] for w in report.witnesses if w["blocking"] is None]

    for q, n in [(3, 10), (3, 12), (4, 10)]:
        cbfs = construct_cbfs(q, n)
        candidates = bifixfree.count_bifix_free(q, n) - len(cbfs)
        report = codeset.verify_non_expandable(cbfs)
        assert report.ok and report.error is None and report.witnesses == ()
        assert report.stats["candidates_checked"] == candidates
        dropped = cbfs.words[len(cbfs) // 3]
        report = codeset.verify_non_expandable(cbfs.without(dropped))
        assert not report.ok and report.error is None
        assert all(w["blocking"] is None for w in report.witnesses)
        assert dropped.to_text() in [w["candidate"] for w in report.witnesses]
        assert report.stats["candidates_checked"] == candidates + 1

    big = construct_cbfs(4, 10)
    report = codeset.verify_cross_bifix_free_set(big)
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
    printed = printed_report(capsys)
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
    printed = printed_report(capsys)
    assert list(printed) == ["kind", "ok", "witnesses", "stats", "error"]
    del printed["stats"]["wall_time_s"]
    assert printed == unblocked_only(comparable(oracle.verify_non_expandable(code_set_of(texts, 3))))


def messy_text(texts, seed):
    """Word-per-line text of ``texts`` in shuffled order, with a third of
    them repeated, some lines indented or trailed by spaces and tabs, and
    blank lines between."""
    rng = random.Random(seed)
    lines = texts + rng.sample(texts, len(texts) // 3)
    rng.shuffle(lines)
    pads = ["", "", " ", "  ", "\t"]
    return "".join(("\n" if rng.random() < 0.1 else "") + rng.choice(pads) + t + rng.choice(pads) + "\n" for t in lines)


def assert_cli_prints_the_oracle_reports(capsys, monkeypatch, code_set, text):
    """``verify`` on ``text`` prints the oracle's reports on ``code_set``, and
    their exit codes, in set mode and in both nonexpandable modes."""
    pairwise = comparable(oracle.verify_cross_bifix_free_set(code_set))
    brute = comparable(oracle.verify_non_expandable(code_set))
    nonexpandable_code = 2 if brute["error"] else 0 if brute["ok"] else 1
    for mode, extra, expected, code in (
        ("set", [], pairwise, 0 if pairwise["ok"] else 1),
        ("nonexpandable", [], unblocked_only(brute), nonexpandable_code),
        ("nonexpandable", ["--all-witnesses"], brute, nonexpandable_code),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["verify", "--in", "-", "--q", str(code_set.q), "--mode", mode, *extra]) == code
        printed = printed_report(capsys)
        del printed["stats"]["wall_time_s"]
        assert printed == expected, (mode, extra)


@pytest.mark.parametrize("q, n", [(3, n) for n in range(3, 9)] + [(4, n) for n in range(3, 7)] + [(12, 3), (12, 4)])
def test_cli_reads_messy_text_and_prints_the_oracle_reports(capsys, monkeypatch, q, n):
    code_set = construct_cbfs(q, n)
    text = messy_text([w.to_text() for w in code_set], seed=q * 100 + n)
    if q > 10:
        assert "," in text
    assert_cli_prints_the_oracle_reports(capsys, monkeypatch, code_set, text)


def test_cli_prints_the_oracle_reports_on_every_one_member_mutant(capsys, monkeypatch):
    for n in range(3, 8):
        cbfs = construct_cbfs(3, n)
        for index, member in enumerate(cbfs):
            mutant = cbfs.without(member)
            text = messy_text([w.to_text() for w in mutant], seed=n * 1000 + index)
            assert_cli_prints_the_oracle_reports(capsys, monkeypatch, mutant, text)


# Brute enumerations of Z_q^n stay at or below this many words.
BRUTE_SCAN_CAP = 100_000


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_bifix_free_count_matches_enumeration(q):
    n = 1
    while q**n <= BRUTE_SCAN_CAP:
        words = [w.symbols for w in oracle.enumerate_bifix_free(q, n)]
        assert bifixfree.count_bifix_free(q, n) == len(words), n
        assert list(bifixfree.iter_bifix_free(q, n)) == words, n
        n += 1
    assert n > 7


def test_bifix_free_count_matches_the_full_list_recurrence():
    # the recurrence with every U(m) kept, as it ran before only the values
    # read again were kept
    for q in range(2, 6):
        u = [0, q]
        for m in range(2, 301):
            u.append(q * u[m - 1] - (0 if m % 2 else u[m // 2]))
        assert [bifixfree.count_bifix_free(q, n) for n in range(1, 301)] == u[1:], q


def test_bifix_free_count_domain_errors():
    for q, n in [(1, 3), (3, 0)]:
        with pytest.raises(ValueError) as fast:
            bifixfree.count_bifix_free(q, n)
        with pytest.raises(ValueError) as stream:
            bifixfree.iter_bifix_free(q, n)
        with pytest.raises(ValueError) as brute:
            next(oracle.enumerate_bifix_free(q, n))
        assert str(fast.value) == str(stream.value) == str(brute.value)


def test_shortest_border_matches_cross_bifix_on_words():
    # every ordered pair of Z_3^n for n <= 5, then a fixed-seed sample of Z_12^4
    def agree(q, n, a, b, first, second):
        hit = cross_bifix(first, second)
        expected = None if hit is None else (len(hit.word), hit.prefix_of)
        assert verify._shortest_border(a, b, q, n) == expected, (q, n, a, b)
        if hit is not None:
            assert verify._cross_bifix_text(a, b, q, n) == (hit.word.to_text(), hit.prefix_of)

    for n in range(1, 6):
        space = [Word(symbols_of(code, 3, n), 3) for code in range(3**n)]
        for a, first in enumerate(space):
            for b, second in enumerate(space):
                agree(3, n, a, b, first, second)
    rng = random.Random(1612)
    hits = 0
    for _ in range(20000):
        a, b = rng.randrange(12**4), rng.randrange(12**4)
        if rng.random() < 0.5:  # a pair sharing a random border, so that most pairs hit
            length = rng.randrange(1, 4)
            b = b - b % 12**length + a // 12 ** (4 - length)
        first, second = Word(symbols_of(a, 12, 4), 12), Word(symbols_of(b, 12, 4), 12)
        agree(12, 4, a, b, first, second)
        hits += cross_bifix(first, second) is not None
    assert hits > 10000


def test_oracle_does_not_use_the_fast_path():
    source = inspect.getsource(oracle)
    imports = [line for line in source.splitlines() if line.startswith(("import ", "from "))]
    assert imports and not any("verify" in line for line in imports)
    assert "_shortest_border" not in source and "_cross_bifix_text" not in source


def test_production_does_not_use_the_oracle():
    for module in (bifixfree, cli, sizes, verify, wordlist, words):
        names = []
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                names += [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
        assert names and not any("oracle" in name for name in names), module.__name__


def test_commands_do_not_load_the_oracle():
    script = (
        "import runpy, sys\n"
        "sys.argv = ['crossbifix', 'gen', '--q', '3', '--n', '4']\n"
        "try:\n"
        "    runpy.run_module('crossbifix', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert 'crossbifix.cli' in sys.modules and 'crossbifix.oracle' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1100\n1120\n1210\n1220\n2120\n2210\n2220\n"
