"""Tests for the three set families, their counts and the CodeSet container."""

import itertools
import json
import tracemalloc

import pytest

from crossbifix import codeset, counting
from crossbifix.cli import main
from crossbifix.codeset import CodeSet, Word, construct_cbfs, is_bifix_free, iter_cbfs
from crossbifix.counting import count_cbfs, family_sizes, motzkin_counts
from crossbifix.oracle import height_profile, is_elevated


def texts(code_set):
    return [x.to_text() for x in code_set]


def test_family_a_small_sets():
    a34 = construct_cbfs(3, 4, "A")
    assert texts(a34) == ["1100", "1220", "2120", "2210"]
    assert Word.from_text("1010", 3) not in a34  # two same-length elevated halves
    assert texts(construct_cbfs(3, 3, "A")) == ["120", "210"]
    assert count_cbfs(3, 4, "A") == 4
    assert count_cbfs(3, 3, "A") == 2


def test_family_b_small_sets():
    assert texts(construct_cbfs(3, 4, "B")) == ["1120", "1210"]
    assert count_cbfs(3, 4, "B") == 2
    assert texts(construct_cbfs(3, 3, "B")) == ["110"]
    assert count_cbfs(3, 3, "B") == 1


def test_family_c_small_sets():
    assert texts(construct_cbfs(3, 4, "C")) == ["2220"]
    assert count_cbfs(3, 4, "C") == 1
    assert texts(construct_cbfs(3, 3, "C")) == ["220"]
    assert count_cbfs(3, 3, "C") == 1


def test_final_heights_identify_families():
    for q in (3, 4):
        for n in range(3, 7):
            for family, final in (("A", 0), ("B", 1), ("C", -1)):
                for word in construct_cbfs(q, n, family):
                    assert height_profile(word).final == final


def test_union_set_small():
    cbfs = construct_cbfs(3, 4)
    assert texts(cbfs) == ["1100", "1120", "1210", "1220", "2120", "2210", "2220"]
    assert cbfs.provenance == ("A", "B", "B", "A", "A", "A", "C")
    assert len(cbfs) == 7


def test_count_spot_values():
    assert count_cbfs(3, 3) == 4
    assert count_cbfs(3, 4) == 7
    assert count_cbfs(5, 8) == 15014
    assert count_cbfs(6, 16) == 41785951916


def test_counts_agree_with_construction():
    choices = ["".join(c) for size in (1, 2, 3) for c in itertools.combinations("ABC", size)]
    for q in (3, 4, 5):
        for n in range(3, 10):
            for families in choices:
                size = count_cbfs(q, n, families)
                assert size == len(construct_cbfs(q, n, families)), (q, n, families)
                assert size == count_cbfs(q, n, families[::-1]), (q, n, families)
            assert count_cbfs(q, n) == sum(count_cbfs(q, n, family) for family in "ABC")


def test_every_layer_refuses_the_same_bad_families():
    for bad in ("", "AA", "D", "abc"):
        message = f"families must be distinct letters of 'ABC', got {bad!r}"
        for call in (count_cbfs, construct_cbfs, iter_cbfs):
            with pytest.raises(ValueError) as info:
                call(3, 5, bad)
            assert str(info.value) == message, (call.__name__, bad)


def double_sum_count_C(q, n, motzkin):
    # reference: the double sum over the factor length j and the length i of u,
    # with M(i) = motzkin[i] and M(i) = 0 for i < 0
    colors = q - 2

    def m(i):
        return motzkin[i] if i >= 0 else 0

    total = m(n - 1)
    for j in range((n + 1) // 2, n):
        for i in range(n - j):
            total -= m(i) * m(j - 2) * m(n - 1 - i - j)
    return total


def test_count_C_matches_the_double_sum():
    for q in range(3, 9):
        motzkin = motzkin_counts(q - 2, range(120))
        for n in range(3, 120):
            assert count_cbfs(q, n, "C") == double_sum_count_C(q, n, motzkin), (q, n)


def single_sum_counts(q, n, motzkin):
    # reference: one sum per family, with M(i) = motzkin[i] and M(i) = 0 for i < 0
    k = q - 2

    def m(i):
        return motzkin[i] if i >= 0 else 0

    a = sum(m(i) * m(n - i - 2) for i in range(n // 2 + 1))
    if n % 2 == 0:
        a -= m(n // 2 - 2) ** 2
    b = sum(m(i) * m(n - i - 3) for i in range(n // 2))
    c = m(n - 1)
    for j in range((n + 1) // 2, n):
        c -= m(j - 2) * (m(n + 1 - j) - k * m(n - j))
    return a, b, c


def test_counts_match_the_single_sums():
    n_max = 399
    for q in (3, 4, 5, 6, 9):
        motzkin = motzkin_counts(q - 2, range(n_max + 2))
        expected = {n: single_sum_counts(q, n, motzkin) for n in range(3, n_max + 1)}
        assert family_sizes(q, range(3, n_max + 1)) == expected, q
        for n in range(3, n_max + 1):
            assert tuple(count_cbfs(q, n, family) for family in "ABC") == expected[n], (q, n)
            assert count_cbfs(q, n) == sum(expected[n]), (q, n)


def test_lower_halves_match_the_direct_sums():
    for k in range(5):
        motzkin = motzkin_counts(k, range(43))
        for t_sum in range(41):
            direct = sum(motzkin[t] * motzkin[t_sum - t] for t in range((t_sum + 1) // 2))
            assert counting._lower_half(motzkin, k, t_sum) == direct, (k, t_sum)


def test_one_length_family_sizes_match_the_single_sums():
    # both parity branches, and the smallest lengths, where the products
    # near n/2 read M at negative indices
    for q in range(3, 9):
        motzkin = motzkin_counts(q - 2, range(62))
        for n in range(3, 61):
            assert family_sizes(q, [n]) == {n: single_sum_counts(q, n, motzkin)}, (q, n)


def test_family_sizes_read_only_the_motzkin_numbers_near_half_and_full_length(monkeypatch):
    # a closed form over every M up to n would hold O(n) big integers
    asked = []
    real = counting.motzkin_counts

    def recording(colors, lengths):
        lengths = list(lengths)
        asked.extend(lengths)
        return real(colors, lengths)

    monkeypatch.setattr(counting, "motzkin_counts", recording)
    for n in [*range(3, 61), 1001, 1002]:
        asked.clear()
        family_sizes(3, [n])
        allowed = {*range(n // 2 - 2, n // 2 + 2), *range(n - 2, n + 2)}
        assert asked and set(asked) <= allowed, (n, sorted(set(asked) - allowed))


def test_count_cbfs_checks_its_arguments_before_it_counts(monkeypatch):
    def unreachable(q, n_values):
        raise AssertionError("counted before the arguments were checked")

    monkeypatch.setattr(counting, "family_sizes", unreachable)
    for bad in ("", "AA", "D", "abc"):
        with pytest.raises(ValueError) as info:
            count_cbfs(3, 30000, bad)
        assert str(info.value) == f"families must be distinct letters of 'ABC', got {bad!r}", bad
    # a bad domain wins over bad families, as in motzkin.cbfs_shapes
    for q, n in ((2, 5), (3, 2)):
        with pytest.raises(ValueError, match="construction needs"):
            count_cbfs(q, n, "D")


def test_count_far_past_the_old_reach(capsys):
    n, q = 2000, 3
    assert main(["count", "--q", str(q), "--n", str(n)]) == 0
    expected = sum(single_sum_counts(q, n, motzkin_counts(q - 2, range(n + 2))))
    assert capsys.readouterr().out == f"{expected}\n"


def test_members_start_nonzero_end_zero_and_are_bifix_free():
    for q in (3, 4):
        for n in range(3, 8):
            for word in construct_cbfs(q, n):
                assert word.symbols[0] != 0
                assert word.symbols[-1] == 0
                assert is_bifix_free(word)


def naive_is_motzkin(symbols):
    h = 0
    for s in symbols:
        h += 1 if s == 1 else (-1 if s == 0 else 0)
        if h < 0:
            return False
    return h == 0


def brute_families(q, n):
    # definitions replayed over the raw word space, independent of the
    # streaming generators
    def motzkin(m):
        return [s for s in itertools.product(range(q), repeat=m) if naive_is_motzkin(s)]

    def elevated(m):
        return [(1,) + s + (0,) for s in motzkin(m - 2)] if m >= 2 else []

    fam_a = set()
    for i in range(n // 2 + 1):
        for alpha in motzkin(i):
            if n % 2 == 0 and i == n // 2 and is_elevated(Word(alpha, q)):
                continue
            for beta in elevated(n - i):
                fam_a.add(alpha + beta)
    fam_b = set()
    for i in range(n // 2):
        for alpha in motzkin(i):
            for beta in elevated(n - i - 1):
                fam_b.add((1,) + alpha + beta)
    fam_c = set()
    arch_min = (n + 1) // 2
    for gamma in motzkin(n - 1):
        bad = False
        for a in range(n):
            for b in range(a + arch_min, n):
                u, mid, v = gamma[:a], gamma[a:b], gamma[b:]
                if naive_is_motzkin(u) and naive_is_motzkin(v) and is_elevated(Word(mid, q)):
                    bad = True
        if not bad:
            fam_c.add(gamma + (0,))
    return fam_a, fam_b, fam_c


def test_families_match_brute_force_definitions():
    for q, n_max in ((3, 6), (4, 5)):
        for n in range(3, n_max + 1):
            fam_a, fam_b, fam_c = brute_families(q, n)
            assert {x.symbols for x in construct_cbfs(q, n, "A")} == fam_a
            assert {x.symbols for x in construct_cbfs(q, n, "B")} == fam_b
            assert {x.symbols for x in construct_cbfs(q, n, "C")} == fam_c
            assert not (fam_a & fam_b) and not (fam_a & fam_c) and not (fam_b & fam_c)
            tagged = [(x, "A") for x in fam_a] + [(x, "B") for x in fam_b] + [(x, "C") for x in fam_c]
            assert list(iter_cbfs(q, n)) == sorted(tagged)


# Largest n per q streamed in full below, each taking about a second or less.
STREAM_SIZES = {3: 13, 4: 11, 5: 9, 6: 8}


def test_stream_is_strictly_increasing_and_has_the_counted_length():
    for q, n_max in STREAM_SIZES.items():
        for n in range(3, n_max + 1):
            per_family = {"A": 0, "B": 0, "C": 0}
            prev = ()
            for symbols, tag in iter_cbfs(q, n):
                assert prev < symbols and len(symbols) == n
                prev = symbols
                per_family[tag] += 1
            assert per_family == {family: count_cbfs(q, n, family) for family in "ABC"}, (q, n)
            assert sum(per_family.values()) == count_cbfs(q, n)


def test_stream_memory_stays_below_the_list():
    # the walk keeps only the tails it replays: about 0.3 MB here, where a
    # list of the set's 65,467 words takes about 14 MB
    tracemalloc.start()
    try:
        words = sum(1 for _ in iter_cbfs(3, 14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == count_cbfs(3, 14)
    assert peak < 2 * 2**20, peak


def test_stream_of_chosen_families():
    for q, n in ((3, 6), (4, 5), (12, 4)):
        union = list(iter_cbfs(q, n))
        for families in ("A", "B", "C", "AC", "BA"):
            assert list(iter_cbfs(q, n, families)) == [item for item in union if item[1] in families]
    with pytest.raises(ValueError):
        iter_cbfs(2, 5)


def test_domain_errors():
    for bad_call in (
        lambda: construct_cbfs(2, 5, "A"),
        lambda: construct_cbfs(3, 2, "B"),
        lambda: construct_cbfs(1, 1, "C"),
        lambda: construct_cbfs(2, 3),
        lambda: count_cbfs(2, 5, "A"),
        lambda: count_cbfs(3, 2, "B"),
        lambda: count_cbfs(2, 2, "C"),
        lambda: count_cbfs(3, 0),
    ):
        with pytest.raises(ValueError):
            bad_call()


def test_union_overlap_is_a_value_error(monkeypatch):
    from crossbifix import motzkin

    # Family C is given family A's shape, so both would claim every word
    # of A; the walk must refuse before it yields anything.
    shapes = motzkin._shapes
    monkeypatch.setattr(motzkin, "_shapes", lambda n: {**shapes(n), "C": shapes(n)["A"]})
    with pytest.raises(ValueError, match="shapes 0 and 2 both end at height 0"):
        construct_cbfs(3, 5)
    with pytest.raises(ValueError, match="shapes 0 and 2 both end at height 0"):
        next(iter_cbfs(3, 5))


def test_code_set_invariants_are_enforced():
    a, b = Word.from_text("110", 3), Word.from_text("120", 3)
    with pytest.raises(ValueError):
        CodeSet(3, 3, (b, a), ("A", "A"))  # out of order
    with pytest.raises(ValueError):
        CodeSet(3, 3, (a, a), ("A", "A"))  # duplicate
    with pytest.raises(ValueError):
        CodeSet(3, 4, (a,), ("A",))  # wrong length
    with pytest.raises(ValueError):
        CodeSet(4, 3, (a,), ("A",))  # wrong alphabet
    with pytest.raises(ValueError):
        CodeSet(3, 3, (a,), ("X",))  # unknown tag
    with pytest.raises(ValueError):
        CodeSet(3, 3, (a,), ("A", "B"))  # tag count mismatch


def test_code_set_membership_and_removal(monkeypatch):
    cbfs = construct_cbfs(3, 4)
    member = Word.from_text("2220", 3)
    assert member in cbfs
    assert Word.from_text("1010", 3) not in cbfs

    def refuse(*args):
        raise AssertionError("an ordered set was sorted again")

    monkeypatch.setattr(codeset, "sorted", refuse, raising=False)
    smaller = cbfs.without(member)
    assert member not in smaller
    assert len(smaller) == len(cbfs) - 1
    assert texts(smaller) == ["1100", "1120", "1210", "1220", "2120", "2210"]
    assert smaller.provenance == ("A", "B", "B", "A", "A", "A")
    with pytest.raises(ValueError):
        smaller.without(member)


def test_code_set_text_and_json_round_trip():
    cbfs = construct_cbfs(3, 4)
    assert cbfs.to_text().splitlines() == texts(cbfs)
    parsed = CodeSet.from_text(cbfs.to_text(), 3)
    assert parsed.words == cbfs.words
    assert set(parsed.provenance) == {"external"}

    data = json.loads(cbfs.to_json())
    assert data == {
        "q": 3,
        "n": 4,
        "provenance": ["A", "B", "B", "A", "A", "A", "C"],
        "words": ["1100", "1120", "1210", "1220", "2120", "2210", "2220"],
    }


def test_code_set_from_text_empty_needs_length():
    with pytest.raises(ValueError):
        CodeSet.from_text("", 3)
    empty = CodeSet.from_text("", 3, n=5)
    assert len(empty) == 0
