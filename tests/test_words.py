"""Tests for word primitives: bifixes, cross-bifixes, path predicates."""

import copy
import itertools
import json
import pickle
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbifix.codeset import CodeSet, CrossBifix, VerificationReport, Word, bifixes, cross_bifix, is_bifix_free
from crossbifix.oracle import HeightProfile, height_profile, is_elevated, is_motzkin_word, symbol_step
from crossbifix.verify import read_codes
from crossbifix.wordlist import _lines
from crossbifix.words import symbols_of


def w(text, q=3):
    return Word.from_text(text, q)


def naive_bifix_free(word):
    # independent quadratic scan over all prefix/suffix pairs
    s, n = word.symbols, len(word)
    return all(s[:length] != s[n - length:] for length in range(1, n))


def test_bifix_free_known_words():
    assert is_bifix_free(w("111010100", q=2))
    assert not is_bifix_free(w("101001010", q=2))
    assert is_bifix_free(w("0", q=2))
    assert not is_bifix_free(w("00", q=2))


def test_bifixes_lists_all_borders_shortest_first():
    assert [b.to_text() for b in bifixes(w("101001010", q=2))] == ["10", "1010"]
    assert bifixes(w("111010100", q=2)) == []


def test_empty_word_has_no_bifix_notion():
    empty = Word((), 2)
    with pytest.raises(ValueError):
        is_bifix_free(empty)
    with pytest.raises(ValueError):
        bifixes(empty)


def test_cross_bifix_free_pair():
    assert cross_bifix(w("111010100", q=2), w("110101010", q=2)) is None


def test_cross_bifix_witness_pair():
    hit = cross_bifix(w("111001100", q=2), w("110011010", q=2))
    assert hit is not None
    assert hit.word.to_text() == "1100"
    # the witness is a prefix of the second word and a suffix of the first
    assert hit.prefix_of == "second"


def test_cross_bifix_shortest_and_tie_break():
    hit = cross_bifix(w("10", q=2), w("01", q=2))
    assert hit.word.to_text() == "1"
    assert hit.prefix_of == "first"


def test_cross_bifix_requires_equal_length_and_alphabet():
    with pytest.raises(ValueError):
        cross_bifix(w("10", q=2), w("100", q=2))
    with pytest.raises(ValueError):
        cross_bifix(w("10", q=2), w("10", q=3))


def test_height_profile_examples():
    assert height_profile(w("121002")).heights == (0, 1, 1, 2, 1, 0, 0)
    assert height_profile(w("100212")).heights == (0, 1, 0, -1, -1, 0, 0)
    assert height_profile(Word((), 3)).heights == (0,)
    profile = height_profile(w("121002"))
    assert profile.final == 0
    assert profile.minimum == 0


def test_motzkin_word_examples():
    assert is_motzkin_word(w("121002"))
    assert not is_motzkin_word(w("100212"))
    assert is_motzkin_word(Word((), 3))


def test_elevated_examples():
    assert is_elevated(w("121200"))
    assert is_elevated(w("122220"))
    assert not is_elevated(w("121002"))  # interior touches the axis
    assert is_elevated(w("10", q=2))
    assert not is_elevated(w("1", q=2))
    assert not is_elevated(Word((), 2))


def test_bifix_free_matches_quadratic_scan_exhaustively():
    for q in (2, 3):
        for n in range(1, 9):
            for symbols in itertools.product(range(q), repeat=n):
                word = Word(symbols, q)
                assert is_bifix_free(word) == naive_bifix_free(word)


@st.composite
def words(draw, max_q=5, max_len=12, min_len=0):
    q = draw(st.integers(2, max_q))
    n = draw(st.integers(min_len, max_len))
    symbols = draw(st.tuples(*[st.integers(0, q - 1)] * n))
    return Word(symbols, q)


@settings(max_examples=300)
@given(words(min_len=2))
def test_bifix_free_words_have_distinct_endpoints(word):
    if is_bifix_free(word):
        assert word.symbols[0] != word.symbols[-1]


@settings(max_examples=300)
@given(st.data())
def test_cross_bifix_is_symmetric_up_to_direction(data):
    first = data.draw(words(min_len=1))
    symbols = data.draw(st.tuples(*[st.integers(0, first.q - 1)] * len(first)))
    second = Word(symbols, first.q)
    one = cross_bifix(first, second)
    two = cross_bifix(second, first)
    assert (one is None) == (two is None)
    if one is not None:
        assert len(one.word) == len(two.word)


@settings(max_examples=300)
@given(words())
def test_elevated_implies_motzkin(word):
    if is_elevated(word):
        assert is_motzkin_word(word)


@settings(max_examples=200)
@given(words())
def test_height_profile_steps_match_symbols(word):
    heights = height_profile(word).heights
    assert heights[0] == 0
    for j, s in enumerate(word.symbols):
        assert heights[j + 1] - heights[j] == symbol_step(s)


def test_word_construction_and_validation():
    assert Word((2,) * 3, 3).to_text() == "222"
    assert len(Word((), 4)) == 0
    with pytest.raises(ValueError):
        Word((3,), 3)
    with pytest.raises(ValueError):
        Word((0,), 1)
    with pytest.raises(ValueError):
        Word((0,), (1 << 16) + 1)
    with pytest.raises(ValueError):
        Word((True, False), 2)  # bool subclasses int but is no symbol
    big = Word((65535,), 1 << 16)
    assert big.symbols == (65535,)


def test_word_ordering_slicing_concatenation():
    a, b = w("1100"), w("1120")
    assert a < b
    assert sorted([b, a]) == [a, b]
    assert a[:2].to_text() == "11"
    assert a[1] == 1
    assert Word(a[:2].symbols + a[2:].symbols, 3) == a


def test_text_format_round_trip():
    assert w("1220").to_text() == "1220"
    wide = Word((1, 0, 15), 16)
    assert wide.to_text() == "1,0,15"
    assert Word.from_text("1,0,15", 16) == wide
    assert Word.from_text("", 16) == Word((), 16)
    with pytest.raises(ValueError, match="^symbol 16 outside alphabet of size 16$"):
        Word.from_text("1,16", 16)
    assert Word.from_text(" 01,2 ", 12) == Word((1, 2), 12)


def test_text_form_is_strict():
    # only ASCII digits, and for q > 10 only ASCII digits between commas:
    # no other Unicode digits, signs, underscores or inner spaces
    for q, text in (
        (3, "\u0661\u0661\u0660\u0660"),  # Arabic-Indic digits
        (3, "\uff11\uff10"),  # fullwidth digits
        (3, "1_0"),
        (3, "1, 0,10"),
        (3, "-1"),
        (3, "1 0"),
        (12, "1,+0,1_0"),
        (12, "1, 0,10"),
        (12, "1,-0"),
        (12, "1,,0"),
        (12, "1,"),
        (12, "\u0661,0"),
    ):
        form = f"contiguous digits 0..{q - 1}" if q <= 10 else f"comma-separated integers 0..{q - 1}"
        message = f"cannot read {text!r} as a word; expected {form}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Word.from_text(f" {text}\t", q)
        with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}$"):
            read_codes(f"0\n{text}\n", q)


def test_word_lines_round_trip():
    items = [w("1100"), w("2220")]
    text = CodeSet(3, 4, tuple(items), ("A", "B")).to_text()
    assert text == "1100\n2220\n"
    codes = [int("1100", 3), int("2220", 3)]
    assert read_codes(text, 3) == (4, codes)
    # blank lines and outer whitespace are skipped, repeats dropped, codes sorted
    assert read_codes("\n 2220 \n\n1100\n2220\n", 3) == (4, codes)
    assert [Word(symbols_of(c, 3, 4), 3) for c in codes] == items
    assert read_codes("", 3, n=5) == (5, [])
    assert read_codes("1,0,15\n01,2,3\n", 16) == (3, [1 * 256 + 15, 1 * 256 + 2 * 16 + 3])
    with pytest.raises(ValueError, match="^length must be >= 1, got 0$"):
        read_codes(text, 3, n=0)
    # digits up to q = 10, commas above; the block forms of the writer and
    # of a code set match the one-word form
    for q in (2, 3, 10, 11, 16):
        block = sorted([Word(tuple(s % q for s in (9, 0, 1, 15)), q), Word((1, 1, 0, 0), q)])
        one_by_one = "".join(x.to_text() + "\n" for x in block)
        assert _lines(q, [x.symbols for x in block]) == one_by_one.encode()
        assert CodeSet(q, 4, tuple(block), ("A", "B")).to_text() == one_by_one
    assert _lines(10, [(9, 0, 1)]) == b"901\n"
    assert _lines(11, [(9, 0, 10)]) == b"9,0,10\n"
    assert CodeSet(3, 4, (), ()).to_text() == ""


def test_records_equal_hash_order_and_print_as_frozen_dataclasses_did():
    word = Word([1, 2, 0], 3)
    records = {
        "Word('120', q=3)": (word, Word((1, 2, 0), 3), Word((1, 2, 0), 4)),
        "HeightProfile(heights=(0, 1, 0))": (HeightProfile((0, 1, 0)), HeightProfile((0, 1, 0)), HeightProfile((0,))),
        "CrossBifix(word=Word('1', q=3), prefix_of='first')": (
            CrossBifix(w("1"), "first"),
            CrossBifix(w("1"), "first"),
            CrossBifix(w("1"), "second"),
        ),
        "CodeSet(q=3, n=3, words=(Word('120', q=3),), provenance=('A',))": (
            CodeSet(3, 3, (word,), ("A",)),
            CodeSet(3, 3, (w("120"),), ("A",)),
            CodeSet(3, 3, (word,), ("B",)),
        ),
        "VerificationReport(kind='non-expandable', ok=True, witnesses=(), stats={}, error=None)": (
            VerificationReport("non-expandable", True, ()),
            VerificationReport("non-expandable", True, (), {}, None),
            VerificationReport("non-expandable", True, (), {}, "e"),
        ),
    }
    for text, (record, same, other) in records.items():
        assert repr(record) == text
        assert record == same and not record != same
        assert record != other and record != tuple(getattr(record, field.name) for field in fields(record))
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
        for field in fields(record):
            with pytest.raises(AttributeError):
                setattr(record, field.name, None)
            with pytest.raises(AttributeError):
                delattr(record, field.name)
        if isinstance(record, VerificationReport):
            with pytest.raises(TypeError):
                hash(record)  # its stats are a dict
        else:
            assert hash(record) == hash(same) and len({record, same, other}) == 2
    assert word.symbols == (1, 2, 0) and VerificationReport("k", False, ()).stats == {}
    # words order by their symbols alone, so words over two alphabets compare
    assert w("02") < w("10") <= w("10") and w("2") > w("12") >= w("12") and w("1") <= Word((2,), 4)
    assert sorted([w("2"), w("1"), w("10")]) == [w("1"), w("10"), w("2")]
    with pytest.raises(TypeError):
        w("1") < (1,)


# Characters that json escapes or that a naive writer gets wrong: a quote, a
# backslash, control characters, DEL, non-ASCII, a line separator, the last
# BMP character, non-BMP characters and a lone surrogate.
AWKWARD = '"\\\x00\x08\x0c\x1f\x7f\x80\xe9\u2028\uffff\U0001f600\U0010ffff\ud800'
TEXTS = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD)), max_size=12)
REPORTS = st.builds(
    VerificationReport,
    TEXTS,
    st.booleans(),
    st.lists(st.dictionaries(TEXTS, st.one_of(st.none(), TEXTS), max_size=4), max_size=4).map(tuple),
    st.dictionaries(TEXTS, st.one_of(st.integers(), st.floats()), max_size=4),
    st.one_of(st.none(), TEXTS),
)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_report_json_is_the_text_json_writes(report):
    assert report.to_json() == json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_report_json_escapes_every_awkward_character():
    report = VerificationReport(AWKWARD, True, ({AWKWARD: AWKWARD},), {AWKWARD: float("nan"), "": -0.0}, AWKWARD)
    text = report.to_json()
    assert text.isascii() and text == json.dumps(report.to_json_dict(), indent=2) + "\n"
