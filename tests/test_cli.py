"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from crossbifix import baseline, cli, codeset, counting, motzkin, oracle, verify, words, wordlist
from crossbifix.baseline import s_max, s_star
from crossbifix.cbfs import cbfs_groups, construct_cbfs
from crossbifix.cli import main, size_table
from crossbifix.codeset import CodeSet
from crossbifix.counting import count_cbfs, motzkin_count
from crossbifix.words import format_symbols


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_cbfs(capsys):
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "8", "--set", "cbfs")
    assert code == 0 and out == "210\n"
    code, out, _ = run(capsys, "count", "--q", "4", "--n", "9")
    assert code == 0 and out == "7868\n"


def test_count_families_and_motzkin(capsys):
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "4", "--set", "A")
    assert code == 0 and out == "4\n"
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "0", "--set", "motzkin")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "count", "--q", "4", "--n", "3", "--set", "motzkin")
    assert code == 0 and out == "14\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap")
def test_exact_values_print_past_the_int_digit_cap(capsys):
    saved = sys.get_int_max_str_digits()
    cap = 4300  # Python's default
    q = 10**40  # table cells of about 4400 digits at n = 110
    sys.set_int_max_str_digits(cap)
    try:
        count_out = run(capsys, "count", "--q", "3", "--n", "10000")
        csv_out = run(capsys, "table", "--q", str(q), "--n", "110")
        json_out = run(capsys, "table", "--q", str(q), "--n", "110", "--format", "json")
        assert sys.get_int_max_str_digits() == cap  # lifted for each command only
        expected = count_cbfs(3, 10000)
        row = {"n": 110, f"cbfs_q{q}": count_cbfs(q, 110), f"cmp_q{q}": s_max(110, q)[0]}
        sys.set_int_max_str_digits(0)
        assert count_out == (0, f"{expected}\n", "")
        assert len(str(expected)) > cap
        assert csv_out == (0, f"n,cbfs_q{q},cmp_q{q}\n110,{row[f'cbfs_q{q}']},{row[f'cmp_q{q}']}\n", "")
        assert len(str(row[f"cbfs_q{q}"])) > cap
        assert json_out[0] == 0 and json.loads(json_out[1])["rows"] == [row]
    finally:
        sys.set_int_max_str_digits(saved)


def test_count_baseline_maxima(capsys):
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "7", "--set", "S")
    assert code == 0 and out == "88 k=2\n"
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "4", "--set", "Sstar")
    assert code == 0 and out == "8 k=1\n"


def test_count_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "count", "--q", "3", "--n", "3", "--set", "S")
    assert code == 2 and out == "" and err.startswith("error:")


def test_gen_text(capsys):
    code, out, _ = run(capsys, "gen", "--q", "3", "--n", "4", "--set", "cbfs")
    assert code == 0
    assert out == "1100\n1120\n1210\n1220\n2120\n2210\n2220\n"
    code, out, _ = run(capsys, "gen", "--q", "3", "--n", "3", "--set", "cbfs")
    assert code == 0
    assert out == "110\n120\n210\n220\n"


def test_gen_rejects_short_words(capsys):
    code, _, err = run(capsys, "gen", "--q", "3", "--n", "2", "--set", "cbfs")
    assert code == 2 and "n >= 3" in err


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--q", "3", "--n", "4", "--set", "cbfs", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 3 and data["n"] == 4
    assert data["words"] == ["1100", "1120", "1210", "1220", "2120", "2210", "2220"]
    assert data["provenance"] == ["A", "B", "B", "A", "A", "A", "C"]


def test_gen_other_families(capsys):
    code, out, _ = run(capsys, "gen", "--q", "3", "--n", "3", "--set", "motzkin")
    assert code == 0 and out == "102\n120\n210\n222\n"
    code, out, _ = run(capsys, "gen", "--q", "3", "--n", "4", "--set", "elevated")
    assert code == 0 and out == "1100\n1220\n"
    code, out, _ = run(capsys, "gen", "--q", "2", "--n", "3", "--set", "bifixfree")
    assert code == 0 and out == "001\n011\n100\n110\n"


def test_gen_limit_guard(capsys):
    code, _, err = run(capsys, "gen", "--q", "6", "--n", "16", "--set", "cbfs", "--limit", "1000")
    assert code == 2 and "--limit" in err


def gen_reference(q, n, tagged):
    """The text and JSON bytes a canonically ordered CodeSet serializes to,
    one word at a time, for (symbols, tag) pairs in any order."""
    items = sorted(tagged)
    lines = [format_symbols(symbols, q) for symbols, _ in items]
    data = {"q": q, "n": n, "provenance": [tag for _, tag in items], "words": lines}
    return "".join(line + "\n" for line in lines), json.dumps(data, indent=2) + "\n"


def brute_paths(q, n, start, end):
    # words whose path starts and ends at height 0, stays >= 0 and, for
    # elevated words, stays >= 1 strictly inside
    out = []
    for symbols in itertools.product(range(q), repeat=n):
        heights = list(itertools.accumulate((1 if s == 1 else -1 if s == 0 else 0 for s in symbols), initial=0))
        if heights[-1] == 0 and min(heights) >= 0 and all(h >= start for h in heights[1:end]):
            out.append((symbols, "external"))
    return out


def test_gen_streams_the_bytes_of_the_code_set(capsys):
    families = {"cbfs": "ABC", "A": "A", "B": "B", "C": "C"}
    for q, n_max in ((3, 7), (4, 6), (10, 4), (11, 4)):
        for n in range(3, n_max + 1):
            references = {}
            for name, chosen in families.items():
                code_set = construct_cbfs(q, n, chosen)
                references[name] = gen_reference(q, n, zip((w.symbols for w in code_set), code_set.provenance))
            references["motzkin"] = gen_reference(q, n, brute_paths(q, n, 0, 0))
            references["elevated"] = gen_reference(q, n, brute_paths(q, n, 1, n))
            references["bifixfree"] = gen_reference(
                q, n, [(w.symbols, "external") for w in oracle.enumerate_bifix_free(q, n)]
            )
            for name, (text, json_text) in references.items():
                args = ("gen", "--q", str(q), "--n", str(n), "--set", name)
                assert run(capsys, *args) == (0, text, ""), (q, n, name)
                assert run(capsys, *args, "--format", "json") == (0, json_text, ""), (q, n, name)


def test_gen_text_builds_no_word_or_code_set(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built on the text path")

    monkeypatch.setattr(codeset.Word, "__post_init__", refuse)
    monkeypatch.setattr(codeset.CodeSet, "__post_init__", refuse)
    for name in ("cbfs", "A", "B", "C", "motzkin", "elevated", "bifixfree"):
        code, out, _ = run(capsys, "gen", "--q", "4", "--n", "6", "--set", name)
        assert code == 0 and out


def test_verify_builds_no_word_or_code_set_for_a_passing_set(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built on the verify path")

    texts = {q: construct_cbfs(q, n).to_text() for q, n in ((3, 8), (12, 3))}
    monkeypatch.setattr(codeset.Word, "__post_init__", refuse)
    monkeypatch.setattr(codeset.CodeSet, "__post_init__", refuse)
    for q, text in texts.items():
        for mode in ("set", "nonexpandable"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, out, err = run(capsys, "verify", "--in", "-", "--q", str(q), "--mode", mode)
            assert (code, err) == (0, "") and json.loads(out)["ok"] is True, (q, mode)


def test_gen_json_writes_the_code_set_json_without_building_it(capsys, monkeypatch):
    # every set at the edges: q > 10 and n = 0, 1, 2
    expected = []
    for q, n in ((3, 3), (3, 5), (11, 3), (12, 4)):
        for name, families in (("cbfs", "ABC"), ("A", "A"), ("B", "B"), ("C", "C")):
            expected.append((("--q", str(q), "--n", str(n), "--set", name), construct_cbfs(q, n, families)))
    for q in (2, 3, 12):
        for n in (0, 1, 2, 3, 5):
            for name, generate in (("motzkin", codeset.generate_motzkin), ("elevated", codeset.generate_elevated)):
                tagged = ((word.symbols, "external") for word in generate(q - 2, n))
                args = ("--q", str(q), "--n", str(n), "--set", name)
                expected.append((args, CodeSet.from_ordered(q, n, tagged)))
    for q in (2, 3, 12):
        for n in (1, 2, 3, 5):
            tagged = ((symbols, "external") for symbols in verify.iter_bifix_free(q, n))
            expected.append((("--q", str(q), "--n", str(n), "--set", "bifixfree"), CodeSet.from_ordered(q, n, tagged)))
    expected = [(args, code_set.to_json()) for args, code_set in expected]

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built by gen --format json")

    monkeypatch.setattr(codeset.Word, "__post_init__", refuse)
    monkeypatch.setattr(codeset.CodeSet, "__post_init__", refuse)
    for args, text in expected:
        assert run(capsys, "gen", *args, "--format", "json") == (0, text, ""), args
    texts = [text for _, text in expected]
    assert any('"words": []' in text for text in texts) and any('"words": [\n    ""\n  ]' in text for text in texts)


def test_gen_wide_alphabet_lines_follow_symbol_order(capsys):
    code, out, _ = run(capsys, "gen", "--q", "12", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    symbols = [tuple(int(x) for x in line.split(",")) for line in lines]
    assert len(lines) == count_cbfs(12, 5)
    assert all(a < b for a, b in zip(symbols, symbols[1:]))
    assert sorted(lines) != lines  # text order would differ: "10,..." < "2,..."


def test_gen_matches_the_benchmark_digests(capsys):
    # sha256 digests the benchmark records for its generate and verify workloads
    for args, digest in (
        (("--q", "3", "--n", "9"), "0efda5e1fb54f7db7082e9e2cd4bf4903c5e68b2bf0bed798e6ee4a22fadcb40"),
        (("--q", "4", "--n", "11", "--set", "cbfs"), "aab53003b1313fe52633a2c7350ed4ecc6f55e8d2712476edb5d91c0d976dd48"),
    ):
        code, out, _ = run(capsys, "gen", *args)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_gen_refusal_writes_no_file(tmp_path, capsys):
    refusals = [
        (("--q", "3", "--n", "9", "--set", name, "--limit", "3"), "--limit")
        for name in ("cbfs", "A", "motzkin", "elevated", "bifixfree")
    ]
    refusals += [
        (("--q", "2", "--n", "5", "--set", "cbfs"), "q >= 3"),
        (("--q", "3", "--n", "0", "--set", "bifixfree"), "length"),
        (("--q", "1", "--n", "4", "--set", "motzkin"), "color count must be non-negative, got -1"),
    ]
    for i, (args, message) in enumerate(refusals):
        for fmt in ("text", "json"):
            target = tmp_path / f"{i}.{fmt}"
            code, out, err = run(capsys, "gen", *args, "--format", fmt, "--out", str(target))
            assert code == 2 and out == "" and message in err, (args, err)
            assert not target.exists()


def test_gen_bifix_free_refuses_by_its_output_size(tmp_path, capsys):
    # U_3(9) = 11034 words in a space of 3^9 = 19683
    expected = "".join(w.to_text() + "\n" for w in oracle.enumerate_bifix_free(3, 9))
    args = ("gen", "--q", "3", "--n", "9", "--set", "bifixfree", "--limit")
    assert run(capsys, *args, "11034") == (0, expected, "")
    assert expected.count("\n") == 11034
    target = tmp_path / "words.txt"
    code, out, err = run(capsys, *args, "11033", "--out", str(target))
    assert (code, out) == (2, "") and not target.exists()
    assert err == "error: bifixfree at q=3, n=9 holds 11034 words, above --limit 11033\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap")
def test_gen_refusal_prints_counts_past_the_int_digit_cap(tmp_path, capsys):
    saved = sys.get_int_max_str_digits()
    cap = 4300  # Python's default
    big_q = 1 << 16  # the largest alphabet: a cbfs count of about 4600 digits at n = 950
    cases = [
        (("--q", "1000", "--n", "1500", "--set", "motzkin"), motzkin_count(998, 1500)),
        (("--q", "1000", "--n", "1500", "--set", "elevated"), motzkin_count(998, 1498)),
        (("--q", str(big_q), "--n", "950", "--set", "cbfs"), count_cbfs(big_q, 950)),
    ]
    sys.set_int_max_str_digits(cap)
    try:
        printed = []
        for i, (args, _) in enumerate(cases):
            target = tmp_path / f"{i}.txt"
            printed.append(run(capsys, "gen", *args, "--limit", "10", "--out", str(target)))
            assert not target.exists()
        assert sys.get_int_max_str_digits() == cap  # lifted for each command only
        sys.set_int_max_str_digits(0)
        for (code, out, err), (args, expected) in zip(printed, cases):
            assert code == 2 and out == "", args
            assert len(str(expected)) > cap
            assert err.startswith("error: ") and f" {expected} words" in err and "--limit 10" in err, args
    finally:
        sys.set_int_max_str_digits(saved)


def test_gen_refuses_alphabets_that_no_word_takes(tmp_path, capsys):
    # refused in both formats before --limit, so not even a count is printed
    cases = [
        (("--q", "70000", "--n", "3", "--set", "A"), 70000),
        (("--q", "65537", "--n", "3"), 65537),
        (("--q", str(10**40), "--n", "110", "--set", "cbfs"), 10**40),
        (("--q", "65537", "--n", "3", "--set", "motzkin"), 65537),
        (("--q", "70002", "--n", "4", "--set", "elevated"), 70002),
        (("--q", "70000", "--n", "2", "--set", "bifixfree"), 70000),
    ]
    for i, (args, q) in enumerate(cases):
        error = f"error: alphabet size must be in [2, 65536], got {q}\n"
        for fmt in ("text", "json"):
            assert run(capsys, "gen", *args, "--format", fmt) == (2, "", error), (args, fmt)
            target = tmp_path / f"{i}.{fmt}"
            code, out, err = run(capsys, "gen", *args, "--format", fmt, "--limit", "1", "--out", str(target))
            assert (code, out, err) == (2, "", error), (args, fmt)
            assert not target.exists()
    # the largest alphabet is still taken
    assert run(capsys, "gen", "--q", "65536", "--n", "3", "--set", "B") == (0, "1,1,0\n", "")


def test_motzkin_sets_refuse_negative_lengths(capsys):
    error = "error: length must be non-negative, got -1\n"
    assert run(capsys, "count", "--q", "3", "--n", "-1", "--set", "motzkin") == (2, "", error)
    for name in ("motzkin", "elevated"):
        for fmt in ("text", "json"):
            assert run(capsys, "gen", "--q", "3", "--n", "-1", "--set", name, "--format", fmt) == (2, "", error)
    # the shortest lengths keep their output
    assert run(capsys, "count", "--q", "3", "--n", "0", "--set", "motzkin") == (0, "1\n", "")
    assert run(capsys, "count", "--q", "3", "--n", "1", "--set", "motzkin") == (0, "1\n", "")
    assert run(capsys, "gen", "--q", "3", "--n", "0", "--set", "motzkin") == (0, "\n", "")
    assert run(capsys, "gen", "--q", "3", "--n", "1", "--set", "motzkin") == (0, "2\n", "")
    for n in ("0", "1"):
        assert run(capsys, "gen", "--q", "3", "--n", n, "--set", "elevated") == (0, "", "")


def test_gen_to_file(tmp_path, capsys):
    target = tmp_path / "words.txt"
    code, out, _ = run(capsys, "gen", "--q", "3", "--n", "4", "--set", "cbfs", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == "1100\n1120\n1210\n1220\n2120\n2210\n2220\n"


def test_gen_file_holds_the_bytes_of_stdout(tmp_path, capsys):
    for args in (("--q", "4", "--n", "11", "--set", "cbfs"), ("--q", "12", "--n", "5", "--set", "motzkin")):
        target = tmp_path / "words.txt"
        code, out, _ = run(capsys, "gen", *args)
        assert code == 0 and out
        assert run(capsys, "gen", *args, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode(), args


def test_group_writer_formats_every_group_as_handed():
    # a stream that drops most of its lists once written, so new lists can
    # take the ids of freed ones, and hands some kept lists back later
    rng = random.Random(5)
    for q in (3, 4, 10, 11, 12):
        expected = []

        def groups():
            kept = []
            for _ in range(3000):
                head = tuple(rng.randrange(q) for _ in range(rng.choice((0, 3))))
                if kept and rng.random() < 0.3:
                    tails = rng.choice(kept)
                else:
                    tails = [(tuple(rng.randrange(q) for _ in range(4)), 0) for _ in range(rng.choice((1, 1, 2, 5)))]
                    if rng.random() < 0.1:
                        kept.append(tails)
                expected.extend(format_symbols(head + tail, q) + "\n" for tail, _ in tails)
                # with an empty head, as for bifix-free chunks, any iterable will do
                yield head, tails if head or rng.random() < 0.5 else iter(tails)

        pieces = list(wordlist.word_blocks(q, groups()))
        assert len(pieces) == 3000 and b"".join(pieces) == "".join(expected).encode(), q


def test_word_blocks_equal_the_words_written_one_by_one():
    # replayed lists (cbfs, motzkin, elevated), one-element groups (each
    # walk's first visit of a state), empty heads (bifix-free chunks and
    # n = 0) and the baseline's one shared list
    for q in (3, 4, 10, 11, 12):
        n = 7 if q < 10 else 4
        makers = [
            lambda: cbfs_groups(q, n),
            lambda: cbfs_groups(q, n - 1, "C"),
            lambda: motzkin.motzkin_groups(q - 2, n - 1),
            lambda: motzkin.motzkin_groups(q - 2, 0),
            lambda: motzkin.elevated_groups(q - 2, n - 1),
            lambda: [((), zip(verify.iter_bifix_free(q, n - 2), itertools.repeat(0)))],
            lambda: baseline.baseline_groups(1, q, n - 1)[1],
        ]
        for make in makers:
            expected = "".join(format_symbols(head + tail, q) + "\n" for head, tails in make() for tail, _ in tails)
            assert expected and b"".join(wordlist.word_blocks(q, make())) == expected.encode("ascii"), q


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--q", "3", "--n", "14"],
        ["gen", "--q", "3", "--n", "14", "--format", "json"],
        ["gen", "--q", "3", "--n", "12", "--set", "bifixfree"],
        ["baseline-gen", "--k", "2", "--q", "3", "--n", "16"],
    ],
)
def test_a_closed_pipe_is_an_error(argv):
    # as in `gen --q 3 --n 14 | head -1`: the reader takes one line and
    # closes the pipe while megabytes are still to come
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "crossbifix", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"error: [Errno 32] Broken pipe\n")


def test_baseline_gen(capsys):
    code, out, _ = run(capsys, "baseline-gen", "--k", "2", "--q", "3", "--n", "4")
    assert code == 0 and out == "0011\n0012\n0021\n0022\n"
    code, _, err = run(capsys, "baseline-gen", "--k", "3", "--q", "3", "--n", "4")
    assert code == 2 and "run length" in err


def test_baseline_gen_writes_the_code_set_without_building_it(tmp_path, capsys, monkeypatch):
    cases = [(2, 3, 4), (2, 3, 7), (1, 2, 6), (1, 3, 5), (3, 4, 8), (2, 10, 5), (2, 11, 5), (1, 12, 4)]
    expected = {}
    for k, q, n in cases:
        code_set = baseline.construct_baseline_set(k, q, n)
        expected[k, q, n] = {"text": code_set.to_text(), "json": code_set.to_json()}

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built by baseline-gen")

    monkeypatch.setattr(codeset.Word, "__post_init__", refuse)
    monkeypatch.setattr(codeset.CodeSet, "__post_init__", refuse)
    target = tmp_path / "words"
    for (k, q, n), texts in expected.items():
        for fmt, text in texts.items():
            args = ["baseline-gen", "--k", str(k), "--q", str(q), "--n", str(n), "--format", fmt]
            assert run(capsys, *args) == (0, text, ""), args
            assert run(capsys, *args, "--out", str(target)) == (0, "", "")
            assert target.read_bytes() == text.encode(), args
    # a refused alphabet is refused as a word of the set would refuse it
    code, _, err = run(capsys, "baseline-gen", "--k", "1", "--q", "70000", "--n", "3")
    assert code == 2 and "alphabet size must be in [2, 65536], got 70000" in err


def test_verify_set_ok(tmp_path, capsys):
    target = tmp_path / "cbfs36.txt"
    assert run(capsys, "gen", "--q", "3", "--n", "6", "--set", "cbfs", "--out", str(target))[0] == 0
    code, out, _ = run(capsys, "verify", "--in", str(target), "--q", "3", "--mode", "set")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["kind"] == "cross-bifix-set"


def test_verify_set_failure(tmp_path, capsys):
    target = tmp_path / "pair.txt"
    target.write_text("111001100\n110011010\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--in", str(target), "--q", "2", "--mode", "set")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["witnesses"][0]["cross_bifix"] == "1100"


def test_verify_non_expandable_ok(tmp_path, capsys):
    target = tmp_path / "cbfs35.txt"
    assert run(capsys, "gen", "--q", "3", "--n", "5", "--set", "cbfs", "--out", str(target))[0] == 0
    code, out, _ = run(capsys, "verify", "--in", str(target), "--q", "3", "--mode", "nonexpandable")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_precondition_error_exit_code(tmp_path, capsys):
    target = tmp_path / "bad.txt"
    target.write_text("100\n110\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--in", str(target), "--q", "2", "--mode", "nonexpandable")
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False and "cross-bifix-free" in report["error"]


def test_verify_refuses_alphabets_that_no_word_takes(capsys, monkeypatch):
    # refused before the input is read, so before the raw-line --limit check
    for q in (1, 70000):
        error = f"error: alphabet size must be in [2, 65536], got {q}\n"
        for text in ("", "1,2,3\n", "012\n120\n"):
            for mode in ("set", "nonexpandable"):
                for extra in ((), ("--n", "3")):
                    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                    code, out, err = run(capsys, "verify", "--in", "-", "--q", str(q), "--mode", mode, *extra)
                    assert (code, out, err) == (2, "", error), (q, text, mode, extra)


def test_verify_parse_errors_name_the_line_and_the_form(capsys, monkeypatch):
    for q, text, message in (
        (3, "1,2,3\n", "line 1: cannot read '1,2,3' as a word; expected contiguous digits 0..2"),
        (3, "1100\n\n  11x0 \n", "line 3: cannot read '11x0' as a word; expected contiguous digits 0..2"),
        (10, "\n-1\n", "line 2: cannot read '-1' as a word; expected contiguous digits 0..9"),
        (12, "1,0\n1,,0\n", "line 2: cannot read '1,,0' as a word; expected comma-separated integers 0..11"),
        (12, "10 11\n", "line 1: cannot read '10 11' as a word; expected comma-separated integers 0..11"),
        # only ASCII digits, and for q > 10 only ASCII digits between commas
        (
            3,
            "\u0661\u0661\u0660\u0660\n",  # Arabic-Indic digits
            "line 1: cannot read '\u0661\u0661\u0660\u0660' as a word; expected contiguous digits 0..2",
        ),
        (12, "1,+0,1_0\n", "line 1: cannot read '1,+0,1_0' as a word; expected comma-separated integers 0..11"),
        (3, "1, 0,10\n", "line 1: cannot read '1, 0,10' as a word; expected contiguous digits 0..2"),
        (3, "1100\n1_0\n", "line 2: cannot read '1_0' as a word; expected contiguous digits 0..2"),
        # a symbol outside the alphabet keeps its message
        (3, "1100\n1150\n", "symbol 5 outside alphabet of size 3"),
        (12, "1,0\n1,12\n", "symbol 12 outside alphabet of size 12"),
        # so do a word of another length and an empty list
        (3, "1100\n110\n", "word '110' does not live in Z_3^4"),
        (12, "1,0\n01,2,3\n", "word '1,2,3' does not live in Z_12^2"),
        (3, "\n  \n", "cannot infer word length from an empty list"),
    ):
        for mode in ("set", "nonexpandable"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert run(capsys, "verify", "--in", "-", "--q", str(q), "--mode", mode) == (2, "", f"error: {message}\n")
    with pytest.raises(ValueError, match="^line 2: cannot read '1a' as a word; expected contiguous digits 0..2$"):
        words.read_codes("12\n1a\n", 3)


def test_verify_refuses_lengths_below_one(capsys, monkeypatch):
    for n in ("0", "-3"):
        for text in ("", "1100\n"):
            for mode in ("set", "nonexpandable"):
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                code, out, err = run(capsys, "verify", "--in", "-", "--q", "3", "--n", n, "--mode", mode)
                assert (code, out, err) == (2, "", f"error: length must be >= 1, got {n}\n"), (n, text, mode)


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/words.txt", "--q", "3")
    assert code == 2 and err.startswith("error:")


def test_table_csv_matches_known_values(capsys):
    code, out, _ = run(capsys, "table", "--q", "3..6", "--n", "3..16", "--compare", "S")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 14
    byn = {row["n"]: row for row in rows}
    assert byn["3"]["cbfs_q3"] == "4" and byn["3"]["cmp_q3"] == ""
    assert byn["10"]["cbfs_q5"] == "271136" and byn["10"]["cmp_q5"] == "208896"
    assert byn["7"]["cbfs_q3"] == "87" and byn["7"]["cmp_q3"] == "88"
    assert byn["16"]["cbfs_q6"] == "41785951916" and byn["16"]["cmp_q6"] == "41381640625"


def test_table_bold_column(capsys):
    code, out, _ = run(capsys, "table", "--q", "5", "--n", "7..10", "--compare", "S", "--bold")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    byn = {row["n"]: row for row in rows}
    assert byn["10"]["bold_q5"] == "1"  # 271136 > 208896
    code, out, _ = run(capsys, "table", "--q", "3", "--n", "7", "--compare", "S", "--bold")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["bold_q3"] == "0"  # 87 < 88


def test_table_sstar_covers_n3(capsys):
    code, out, _ = run(capsys, "table", "--q", "3..6", "--n", "3", "--compare", "Sstar")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert [row[f"cmp_q{q}"] for q in (3, 4, 5, 6)] == ["4", "9", "16", "25"]


def test_table_json_matches_csv_values(capsys):
    code, csv_out, _ = run(capsys, "table", "--q", "3..4", "--n", "3..8", "--compare", "Sstar")
    assert code == 0
    code, json_out, _ = run(capsys, "table", "--q", "3..4", "--n", "3..8", "--compare", "Sstar", "--format", "json")
    assert code == 0
    data = json.loads(json_out)
    for csv_row, json_row in zip(csv.DictReader(io.StringIO(csv_out)), data["rows"]):
        for key, text in csv_row.items():
            value = json_row[key]
            assert text == ("" if value is None else str(value))


def test_table_csv_is_what_csv_writer_writes(tmp_path, capsys):
    # the csv module is the oracle for the table's own CSV writer; None
    # cells (no run length at n = 3) write as empty fields
    for q_range, n_range, compare, bold in (
        ("3..6", "3..60", "S", False),
        ("3..6", "3..60", "Sstar", True),
        ("3", "3..5", "S", True),
        ("3..4", "3000..3001", "S", False),
    ):
        names, rows = size_table(cli._parse_range(q_range), cli._parse_range(n_range), compare, bold)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(rows)
        args = ["table", "--q", q_range, "--n", n_range, "--compare", compare] + ["--bold"] * bold
        code, out, err = run(capsys, *args)
        assert code == 0 and err == "" and out == expected.getvalue(), args
        target = tmp_path / "table.csv"
        assert run(capsys, *args, "--out", str(target))[0] == 0
        assert target.read_bytes() == expected.getvalue().encode(), args


def test_table_json_is_json_dump_written_a_row_at_a_time(monkeypatch):
    class Counting(io.BytesIO):
        writes = 0

        def write(self, data):
            self.writes += 1
            return super().write(data)

    for q_values, n_values, extra in (
        ([3, 4], list(range(3, 60)), ()),
        ([5], [3], ("--bold",)),
        ([3, 4, 5, 6], list(range(3, 9)), ("--compare", "Sstar")),
    ):
        compare = "Sstar" if "Sstar" in extra else "S"
        names, rows = size_table(q_values, n_values, compare, "--bold" in extra)
        rows = [dict(zip(names, row)) for row in rows]
        data = {"compare": compare, "q_values": q_values, "n_values": n_values, "rows": rows}
        # the table writes bytes to the binary buffer under stdout
        out = Counting()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="ascii"))
        q_arg, n_arg = f"{q_values[0]}..{q_values[-1]}", f"{n_values[0]}..{n_values[-1]}"
        assert main(["table", "--q", q_arg, "--n", n_arg, "--format", "json", *extra]) == 0
        assert out.getvalue().decode() == json.dumps(data, indent=2) + "\n"
        assert out.writes <= len(rows) + 12, out.writes


def test_table_runs_are_byte_identical(capsys):
    first = run(capsys, "table", "--q", "3..6", "--n", "3..16")
    second = run(capsys, "table", "--q", "3..6", "--n", "3..16")
    assert first == second
    assert first[0] == 0


def test_size_table_equals_the_per_cell_counts():
    for q_values, n_values in (([3, 4, 5, 6], list(range(3, 80))), ([7], [57])):
        for compare, best in (("S", s_max), ("Sstar", s_star)):
            names, rows = size_table(q_values, n_values, compare, bold=True)
            assert [row[0] for row in rows] == n_values
            for row in rows:
                assert len(row) == len(names)
                cells = dict(zip(names, row))
                n = row[0]
                for q in q_values:
                    ours = count_cbfs(q, n)
                    assert cells[f"cbfs_q{q}"] == ours, (q, n)
                    expected = best(n, q)[0] if n - 2 >= (2 if compare == "S" else 1) else None
                    assert cells[f"cmp_q{q}"] == expected, (q, n, compare)
                    assert cells[f"bold_q{q}"] == (None if expected is None else int(ours > expected)), (q, n)
            plain = [name for name in names if not name.startswith("bold_")]
            kept = [[cell for name, cell in zip(names, row) if name in plain] for row in rows]
            assert size_table(q_values, n_values, compare, bold=False) == (plain, kept)


def test_table_matches_its_recorded_digests(tmp_path, capsys):
    # the first is the digest the benchmark records for its table workload;
    # the last three are pinned in CI too
    for args, digest in (
        (("--q", "3..6", "--n", "3..200", "--compare", "S"), "000d401d634ad1ee5fcc7bdc58d980fab1126b1f52bb2d695612ffa6de204e73"),
        (("--q", "3..6", "--n", "3..200", "--format", "json", "--bold"), "e4d539194a909094840b55dd7cf7b7abc0cd79181c123988d85fea997a2f062f"),
        (("--q", "3..6", "--n", "3..200", "--compare", "Sstar", "--bold"), "980ee0023157ed78d94d5cd83e93eade57c993a46cf51d434d38e28d47c822ad"),
        (("--q", "3..4", "--n", "3000..3001"), "6ca73cdb6a8516fa74571077d92f3f22dfe9ca77bc9efed9b09bb6aa7aff463d"),
        (("--q", "3..4", "--n", "3..20", "--format", "json"), "0c100ad050323d22986d4b3b2d51c1a3f07edae6573de703155b05ada9d91464"),
        (("--q", "3..4", "--n", "3..20", "--compare", "Sstar", "--bold"), "4686ee5d2bf8c5e365e4ac7de48d7ce548bd8c15256a019046d5a6dfa65bf25d"),
        (
            ("--q", "3..4", "--n", "3..20", "--compare", "Sstar", "--bold", "--format", "json"),
            "5aef13e429ad0985cadf76221b92c18b15331032d1f16f48f637aa319dfbe2c3",
        ),
    ):
        code, out, err = run(capsys, "table", *args)
        assert (code, err) == (0, "") and hashlib.sha256(out.encode()).hexdigest() == digest, args
        assert run(capsys, "table", *args, "--out", "-") == (0, out, ""), args
        target = tmp_path / "table.out"
        assert run(capsys, "table", *args, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode(), args


def test_table_far_past_the_old_reach(capsys):
    code, out, err = run(capsys, "table", "--q", "3..4", "--n", "3000..3001")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["n"] for row in rows] == ["3000", "3001"]
    for row in rows:
        n = int(row["n"])
        for q in (3, 4):
            assert row[f"cbfs_q{q}"] == str(count_cbfs(q, n)) and row[f"cmp_q{q}"] == str(s_max(n, q)[0])


def refuse_counting(monkeypatch):
    # every exact count goes through one of these two walks
    def refuse(*args):
        raise AssertionError("counting started before the --limit check")

    monkeypatch.setattr(counting, "_p_walk", refuse)
    monkeypatch.setattr(baseline, "zero_run_counts", refuse)


def test_count_refuses_lengths_above_the_limit(capsys, monkeypatch):
    refuse_counting(monkeypatch)
    for args in (("--n", "100001"), ("--n", "8", "--limit", "7"), ("--n", "100001", "--set", "S")):
        code, out, err = run(capsys, "count", "--q", "3", *args)
        n, limit = (args[1], args[3]) if "--limit" in args else (args[1], "100000")
        assert code == 2 and out == "" and err == f"error: word length n={n} above --limit {limit}\n", args
    code, out, err = run(capsys, "count", "--q", "4", "--n", "7", "--set", "motzkin", "--limit", "6")
    assert code == 2 and out == "" and "n=7 above --limit 6" in err


def test_table_refuses_lengths_above_the_limit(tmp_path, capsys, monkeypatch):
    refuse_counting(monkeypatch)
    for args in (("--n", "3..100001"), ("--n", "5..9", "--limit", "8")):
        for fmt in ("csv", "json"):
            target = tmp_path / f"table.{fmt}"
            code, out, err = run(capsys, "table", "--q", "3..4", *args, "--format", fmt, "--out", str(target))
            limit = args[3] if "--limit" in args else "100000"
            assert code == 2 and out == "" and err.startswith("error: "), args
            assert f"n={args[1].split('..')[1]} above --limit {limit}" in err, (args, err)
            assert not target.exists()


def test_table_domain_refusal_writes_no_file(tmp_path, capsys):
    for fmt in ("csv", "json"):
        target = tmp_path / f"table.{fmt}"
        code, out, err = run(capsys, "table", "--q", "2..3", "--n", "3..5", "--format", fmt, "--out", str(target))
        assert (code, out) == (2, "") and err == "error: construction needs an alphabet of size q >= 3, got 2\n"
        assert not target.exists()


def test_bad_range_is_a_usage_error(capsys):
    for text, message in (
        ("5..3", "empty range '5..3'"),
        ("x..5", "expected an integer or a range like 3..16, got 'x..5'"),
        ("3..", "expected an integer or a range like 3..16, got '3..'"),
        ("abc", "expected an integer or a range like 3..16, got 'abc'"),
    ):
        for option in ("--q", "--n"):
            with pytest.raises(SystemExit) as excinfo:
                main(["table", option, text])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.endswith(f": error: argument {option}: {message}\n")


def test_integer_options_take_only_ascii_digits(capsys):
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    options = []
    for command, parser in commands.items():
        for action in parser._actions:
            assert action.type is not int, (command, action.dest)
            if action.type in (cli._integer, cli._parse_range):
                options.append((command, action.option_strings[0], action.type))
    assert len(options) == 16  # --q, --n and --limit of every command, and --k
    valid = {
        "count": ["--q", "3", "--n", "5", "--limit", "9"],
        "gen": ["--q", "3", "--n", "5", "--limit", "9"],
        "baseline-gen": ["--k", "2", "--q", "3", "--n", "5", "--limit", "9"],
        "verify": ["--in", "-", "--q", "3", "--n", "5", "--limit", "9"],
        "table": ["--q", "3", "--n", "5", "--limit", "9"],
    }
    for command, option, kind in options:
        for text in ("\u0663", "+5", " 5", "5 ", "3_0", "0x5", "", "-", "3..\u0665"):
            argv = list(valid[command])
            argv[argv.index(option) + 1] = text
            with pytest.raises(SystemExit) as excinfo:
                main([command, *argv])
            assert excinfo.value.code == 2
            expected = "an integer" if kind is cli._integer else "an integer or a range like 3..16"
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.endswith(
                f": error: argument {option}: expected {expected}, got {text!r}\n"
            ), (command, option, text)
    # negative integers are still read, and reach the commands' own checks
    assert cli._integer("-1") == -1 and cli._integer("007") == 7
    assert cli._parse_range("-2..-1") == [-2, -1]
    assert run(capsys, "count", "--q", "3", "--n", "-1", "--set", "cbfs")[0] == 2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap")
def test_integer_options_refuse_values_past_the_int_digit_cap(capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        text = "1" * 4301
        for argv, option in (
            (["count", "--q", "3", "--n", text], "--n"),
            (["table", "--q", text], "--q"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2 and f"error: argument {option}: expected" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap")
def test_the_int_digit_cap_is_lifted_for_the_command_only(capsys, monkeypatch):
    saved = sys.get_int_max_str_digits()
    cap = 4300  # Python's default
    sys.set_int_max_str_digits(cap)
    try:
        # the refusal of a 9,100-symbol word prints its count of 4,342 digits
        monkeypatch.setattr(sys, "stdin", io.StringIO("1" * 9099 + "0\n"))
        code, out, err = run(capsys, "verify", "--in", "-", "--q", "3", "--mode", "nonexpandable")
        assert sys.get_int_max_str_digits() == cap
        sys.set_int_max_str_digits(0)
        candidates = verify.count_bifix_free(3, 9100) - 1
        assert len(str(candidates)) > cap
        message = f"error: non-expandability needs a walk over {candidates} candidates, above the cap of 10000000\n"
        assert (code, out, err) == (2, "", message)
        sys.set_int_max_str_digits(cap)

        # a command that raises past main restores the cap too
        def fail(args):
            assert sys.get_int_max_str_digits() == 0
            raise RuntimeError("failed")

        monkeypatch.setattr(cli, "_cmd_count", fail)
        with pytest.raises(RuntimeError, match="failed"):
            main(["count", "--q", "3", "--n", "4"])
        assert sys.get_int_max_str_digits() == cap
    finally:
        sys.set_int_max_str_digits(saved)


def test_the_colors_option_is_gone(capsys):
    # every set takes q - 2 level colors
    for command in ("count", "gen"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--q", "3", "--n", "4", "--set", "motzkin", "--colors", "1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(": error: unrecognized arguments: --colors 1\n")


def test_unknown_set_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--q", "3", "--n", "4", "--set", "nope"])
    assert excinfo.value.code == 2
