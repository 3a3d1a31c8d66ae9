"""Tests for word primitives: bifixes, cross-bifixes, path predicates."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbifix.words import (
    Word,
    bifixes,
    cross_bifix,
    format_word_lines,
    height_profile,
    is_bifix_free,
    is_elevated,
    is_motzkin_word,
    parse_word_lines,
    symbol_step,
)


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
    assert Word.run(2, 3, q=3).to_text() == "222"
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
    assert (a[:2] + a[2:]) == a
    with pytest.raises(ValueError):
        a + Word((0,), 4)


def test_text_format_round_trip():
    assert w("1220").to_text() == "1220"
    wide = Word((1, 0, 15), 16)
    assert wide.to_text() == "1,0,15"
    assert Word.from_text("1,0,15", 16) == wide
    assert Word.from_text("", 16) == Word((), 16)
    with pytest.raises(ValueError):
        Word.from_text("1,16", 16)


def test_word_lines_round_trip():
    items = [w("1100"), w("2220")]
    text = format_word_lines(items)
    assert text == "1100\n2220\n"
    assert parse_word_lines(text, 3) == items
    assert parse_word_lines("\n 1100 \n\n2220\n", 3) == items
    # digits up to q = 10, commas above; the block form matches the one-word form
    for q in (2, 3, 10, 11, 16):
        block = [Word(tuple(s % q for s in (9, 0, 1, 15)), q), Word((1, 1, 0, 0), q)]
        assert format_word_lines(block) == "".join(x.to_text() + "\n" for x in block)
    assert format_word_lines([Word((9, 0, 1), 10)]) == "901\n"
    assert format_word_lines([Word((9, 0, 10), 11)]) == "9,0,10\n"
    assert format_word_lines([]) == ""
