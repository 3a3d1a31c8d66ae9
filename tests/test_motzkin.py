"""Tests for Motzkin counting, generation and ground-factor detection."""

import itertools
import tracemalloc
from bisect import bisect_left
from math import comb
from operator import lt

import pytest

from crossbifix import baseline, counting, motzkin, walk
from crossbifix.codeset import Word, generate_elevated, generate_motzkin, iter_cbfs
from crossbifix.counting import motzkin_count, motzkin_counts
from crossbifix.motzkin import StateTable, ZeroRunTable, _shapes, cbfs_shapes, motzkin_shapes
from crossbifix.oracle import has_ground_elevated_factor, is_elevated, is_motzkin_word
from test_baseline import brute_baseline_words

# frozen from the full-space enumeration oracle (see brute agreement below);
# this is the classical one-color sequence
ONE_COLOR_PREFIX = [1, 1, 2, 4, 9, 21, 51, 127]


def naive_is_motzkin(symbols):
    h = 0
    for s in symbols:
        h += 1 if s == 1 else (-1 if s == 0 else 0)
        if h < 0:
            return False
    return h == 0


def brute_words(colors, n):
    q = colors + 2
    return [s for s in itertools.product(range(q), repeat=n) if naive_is_motzkin(s)]


def test_base_cases_and_small_counts():
    assert motzkin_count(1, 0) == 1
    assert motzkin_count(1, 1) == 1
    assert motzkin_count(1, 3) == 4
    assert motzkin_count(2, 3) == 14
    assert [motzkin_count(1, n) for n in range(8)] == ONE_COLOR_PREFIX


def test_negative_length_counts_as_zero():
    assert motzkin_count(2, -1) == 0
    assert motzkin_count(2, -7) == 0
    assert motzkin_count(3, -2) == 0
    assert motzkin_counts(2, [-7, -1, 0, 3]) == {-7: 0, -1: 0, 0: 1, 3: 14}


def test_color_count_must_be_non_negative():
    with pytest.raises(ValueError):
        motzkin_count(-1, 0)
    with pytest.raises(ValueError):
        motzkin_count(-1, 4)
    with pytest.raises(ValueError):
        motzkin_counts(-1, ())
    with pytest.raises(ValueError):
        list(generate_motzkin(-1, 2))


def test_counting_keeps_no_module_state():
    before = dict(vars(counting))
    assert motzkin_count(5, 4) == 777
    assert motzkin_counts(5, range(5)) == {0: 1, 1: 5, 2: 26, 3: 140, 4: 777}
    assert motzkin_count(5, 4) == 777
    # the same names bound to the same objects, none of them a container a
    # cache could grow in
    assert vars(counting).keys() == before.keys()
    assert all(value is before[name] for name, value in vars(counting).items())
    containers = [name for name, value in vars(counting).items() if isinstance(value, (dict, list, set))]
    assert containers == ["__builtins__"]
    assert not any(hasattr(fn, "cache_info") for fn in (motzkin_count, motzkin_counts, counting._p_walk))


def convolution_counts(colors, n_max):
    # reference: the quadratic convolution recurrence. A non-empty word
    # starts with a level step, or with a rise matched by a fall, which
    # splits it into two shorter words
    v = [1, colors]
    for m in range(1, n_max):
        v.append(colors * v[m] + sum(v[i] * v[m - 1 - i] for i in range(m)))
    return v[: n_max + 1]


def test_counts_match_the_convolution_recurrence():
    for colors in range(8):
        reference = convolution_counts(colors, 300)
        assert motzkin_counts(colors, range(301)) == dict(enumerate(reference)), colors
        assert [motzkin_count(colors, n) for n in range(301)] == reference, colors


def test_inexact_recurrence_step_is_a_runtime_error():
    # a wrong M(1) among the walk's start values: 4 M(2) = 5 * 2 + 3 * 1 has no integer solution
    with pytest.raises(RuntimeError):
        counting._p_walk(1, {2}, (1, 2))
    assert counting._p_walk(1, {2}, (1, 1)) == {2: 2}


def test_zero_colors_specializes_to_catalan():
    for m in range(9):
        assert motzkin_count(0, 2 * m) == comb(2 * m, m) // (m + 1)
        assert motzkin_count(0, 2 * m + 1) == 0


def test_counts_match_full_space_enumeration():
    for colors in range(4):
        for n in range(8):
            assert motzkin_count(colors, n) == len(brute_words(colors, n))


def test_generators_refuse_negative_lengths():
    for generate in (generate_motzkin, generate_elevated):
        with pytest.raises(ValueError, match="length must be non-negative, got -1"):
            list(generate(1, -1))


def test_generate_small_sets():
    assert [x.to_text() for x in generate_motzkin(1, 2)] == ["10", "22"]
    assert list(generate_motzkin(0, 3)) == []
    assert [x.to_text() for x in generate_motzkin(1, 3)] == ["102", "120", "210", "222"]
    assert list(generate_motzkin(2, 0)) == [Word((), 4)]
    # without level colors an odd length has no word; the walk must see
    # that at once instead of searching every prefix
    assert list(generate_motzkin(0, 301)) == []
    assert list(generate_elevated(0, 301)) == []


def test_generation_is_lexicographic_complete_and_valid():
    for colors in range(4):
        for n in range(8):
            emitted = list(generate_motzkin(colors, n))
            assert len(emitted) == motzkin_count(colors, n)
            assert emitted == sorted(emitted)
            assert len(set(x.symbols for x in emitted)) == len(emitted)
            for x in emitted:
                assert is_motzkin_word(x)
                assert x.q == colors + 2


def test_generation_agrees_with_full_space_filter():
    for colors in range(3):
        for n in range(7):
            assert [x.symbols for x in generate_motzkin(colors, n)] == brute_words(colors, n)


def test_generate_elevated():
    assert [x.to_text() for x in generate_elevated(1, 4)] == ["1100", "1220"]
    assert [x.to_text() for x in generate_elevated(1, 2)] == ["10"]
    assert list(generate_elevated(1, 1)) == []
    assert list(generate_elevated(1, 0)) == []
    assert Word.from_text("121200", 3) in list(generate_elevated(1, 6))
    for colors in range(3):
        for n in range(2, 9):
            emitted = list(generate_elevated(colors, n))
            assert len(emitted) == motzkin_count(colors, n - 2)
            assert emitted == sorted(emitted)
            for x in emitted:
                assert is_elevated(x)


def brute_shape_words(q, shapes):
    """The words of ``StateTable(q, n, shapes)`` with their shape indices,
    by a scan of Z_q^n."""
    n = len(shapes[0][0]) - 1
    out = []
    for symbols in itertools.product(range(q), repeat=n):
        heights = [0]
        for s in symbols:
            heights.append(heights[-1] + (1 if s == 1 else -1 if s == 0 else 0))
        for i, (floor, max_arch, skip_first_return) in enumerate(shapes):
            # a path ending above 0 is read as closed by falls
            closed = heights + list(range(floor[-1] - 1, -1, -1))
            ground = [p for p, h in enumerate(closed) if h == 0]
            if heights[-1] != floor[-1] or any(heights[p] < floor[p] for p in range(1, n + 1)):
                continue
            if max_arch is not None and any(b - a > max_arch for a, b in zip(ground, ground[1:])):
                continue
            # only a first return made by a fall is barred; a level step at
            # height 0 is a visit but not a return, which matters at position 1
            if len(ground) > 1 and ground[1] == skip_first_return and symbols[ground[1] - 1] == 0:
                continue
            out.append((symbols, i))
    return out


def floor(n, final, rises=()):
    """A floor of length n: 0 at the start, then at each position 1..n-1 the
    number of ``rises`` it has reached, then ``final``."""
    if n == 0:
        return [final]
    return [0] + [sum(p >= r for r in rises) for p in range(1, n)] + [final]


def case_shapes(n):
    """The shape lists the walk is checked on at length n."""
    return [
        [(floor(n, 0), None, None)],
        [(floor(n, 0, (n // 2,)), None, n // 2)],
        [(floor(n, 0, (n - 2,)), None, n)],  # first return at the very end
        [(floor(n, -1), 2, None)],
        [(floor(n, 0), 3, 2)],
        [(floor(n, 1, (1, n // 2)), None, None)],  # floor[1] = 1 forces a leading rise
        [(floor(n, 0, (1,)), None, None)],  # the elevated words
        # several shapes in one walk, told apart by their final heights
        [(floor(n, 0), 3, 2), (floor(n, -1), 2, None)],
        [(floor(n, 1, (1,)), 4, None), (floor(n, 0), 4, None)],
    ]


def checked_walk(make, tags, caps=(None, 0, 1, 5, 40)):
    """The words of the walk of the table ``make()`` builds, with their
    tags, after checking that every block size of ``caps`` (None for the
    table's own), from one line up, walks the same words, and that the
    counts agree with them: the table's, and the exact and the capped count
    of the state of each node of the frontier. ``walk.words`` cuts its
    frontier at ``table.cap // 8``, so the words are walked once for each
    distinct such cut; the counts and the frontier are checked at every
    cap."""
    runs = {}
    for cap in caps:
        table = make()
        n, where = table.n, (table.q, table.n, cap)
        if cap is not None:
            table.cap = cap  # before any state is counted
        if table.cap // 8 not in runs:
            runs[table.cap // 8] = list(walk.words(table, tags))
        words = runs[table.cap // 8]
        assert table.count() == len(words), where
        assert table.size(0, table.root) == min(len(words), table.cap + 1), where
        keys = [symbols for symbols, _ in words]
        assert all(map(lt, keys, keys[1:])), where  # in order, each once
        # the frontier: nodes in order, each fits in a block or is at n - 1
        # or later, and the nodes above it do not fit; the uncapped count of
        # a node's state is the number of walked words with its prefix
        nodes = list(walk.frontier(table, table.cap))
        assert [prefix for prefix, _, _ in nodes] == sorted({prefix for prefix, _, _ in nodes}), where
        exact = [{} for _ in range(n + 1)]
        counts = [(len(prefix), table.size(p, state), table.size(p, state, exact)) for prefix, p, state in nodes]
        assert all(lines <= table.cap or p >= n - 1 for p, lines, _ in counts), where
        walked = [bisect_left(keys, prefix + (table.q,)) - bisect_left(keys, prefix) for prefix, _, _ in nodes]
        assert counts == [(p, min(k, table.cap + 1), k) for (_, p, _), k in zip(nodes, walked)], where
    first, *others = runs.values()
    assert all(run == first for run in others), where[:2]
    return first


def checked_words(q, shapes):
    """The words of the walk of ``StateTable(q, n, shapes)`` with their shape
    indices, checked by ``checked_walk``."""
    n = len(shapes[0][0]) - 1
    return checked_walk(lambda: StateTable(q, n, shapes), range(len(shapes)))


def test_walk_matches_its_definition():
    cases = [shapes for n in range(7) for shapes in case_shapes(n)]
    for n in range(5, 9):
        shapes = _shapes(n)
        cases.append([shapes["A"], shapes["B"], shapes["C"]])
    for q in (2, 3, 4):
        for shapes in cases:
            expected = brute_shape_words(q, shapes)
            assert checked_words(q, shapes) == expected, (q, shapes)
    # nine shapes, one for each final height 0..8: a mask of live shapes
    # is an int of any width
    nine = [(floor(8, final), None, None) for final in range(9)]
    for q in (2, 3):
        assert checked_words(q, nine) == brute_shape_words(q, nine), q
    # lengths where many prefixes reach the same state, so most words are
    # made from the tails listed once for a state
    for n in (9, 10):
        shapes = _shapes(n)
        for q in (2, 3):
            cbfs = [shapes["A"], shapes["B"], shapes["C"]]
            expected = brute_shape_words(q, cbfs)
            assert checked_words(q, cbfs) == expected, (q, n)
        table = StateTable(3, n, cbfs)
        table.count()
        assert sum(map(len, table.edges)) < len(brute_shape_words(3, cbfs)) / 4, n
    # the baseline's zero-run table, a table of one shape with its own states
    for q in (2, 3, 4):
        for n in range(3, 8):
            for k in range(1, n - 1):
                expected = [(symbols, 0) for symbols in brute_baseline_words(k, q, n)]
                assert checked_walk(lambda: ZeroRunTable(k, q, n), [0]) == expected, (k, q, n)
    bad = [
        ([([0] * 5, None, None), ([0, 1, 1, 1, 0], None, None)], "shapes 0 and 1 both end at height 0"),
        ([([0] * 5, None, None), ([0] * 4 + [-1], 2, None), ([0, 0, 1, 1, -1], None, None)], "shapes 1 and 2"),
        ([([0] * 5, None, None), ([0] * 4, None, None)], "shape 1 has length 3, not 4"),
    ]
    for shapes, message in bad:
        with pytest.raises(ValueError, match=message):
            StateTable(3, len(shapes[0][0]) - 1, shapes)


def test_each_frontier_state_counts_the_words_walked_below_it():
    # checked_walk holds each frontier node's exact and capped counts to the
    # walked words with its prefix; q = 12 is walked to n = 5, 13,552 words,
    # as its sets at n = 10 hold about 2 * 10^9
    for q in (3, 4, 12):
        for n in range(3, 11 if q < 12 else 6):
            for families in ("A", "B", "C", "AB", "AC", "BC", "ABC"):
                words = checked_walk(lambda: StateTable(q, n, cbfs_shapes(q, n, families)), families, (0, 1, 7, 100))
                assert len(words) == counting.count_cbfs(q, n, families), (q, n, families)


def test_counting_asks_each_state_for_its_edges_once():
    # a frame on the stack keeps its state's edges while a child is counted
    table = StateTable(3, 60, cbfs_shapes(3, 60))
    calls = []
    children = table.children

    def spy(p, state):
        calls.append((p, state))
        return children(p, state)

    table.children = spy
    assert table.count() == counting.count_cbfs(3, 60)
    assert len(calls) == sum(map(len, table.edges)) == len(set(calls))


def test_a_state_has_one_edge_per_step_class():
    # fall, rise and level, however many level colors there are
    table = StateTable(1000, 60, cbfs_shapes(1000, 60))
    assert table.count() == counting.count_cbfs(1000, 60)
    assert max(len(kids) for memo in table.edges for kids in memo.values()) == 3
    zero_run = ZeroRunTable(2, 1000, 8)
    layer = {zero_run.root}
    for p in range(8):
        edges = [zero_run.children(p, state) for state in layer]
        assert edges and all(1 <= len(kids) <= 3 for kids in edges), p
        layer = {child for kids in edges for _, child in kids}
    assert zero_run.count() == 999**2 * baseline.f_count(2, 1000, 4)


def test_state_tables_share_no_state():
    # interleaved walks, two of them alike, give what each gives alone
    shapes = _shapes(10)
    calls = [(3, [shapes["A"], shapes["B"], shapes["C"]]), (3, [shapes["A"], shapes["B"], shapes["C"]])]
    calls.append((4, [_shapes(9)["C"], _shapes(9)["A"]]))
    alone = [list(walk.words(StateTable(q, len(s[0][0]) - 1, s), "ABC")) for q, s in calls]
    tables = [StateTable(q, len(s[0][0]) - 1, s) for q, s in calls]
    streams = [walk.words(table, "ABC") for table in tables]
    together = [[] for _ in calls]
    for step in itertools.zip_longest(*streams):
        for out, item in zip(together, step):
            if item is not None:
                out.append(item)
    assert together == alone
    assert all(alone)
    # nor do the tables of the two alike walks
    for name in ("edges", "sizes"):
        first, second = getattr(tables[0], name), getattr(tables[1], name)
        assert not {id(memo) for memo in first} & {id(memo) for memo in second}, name


def test_the_count_of_the_walk_matches_the_closed_forms():
    # the uncapped backward walk over the table's states shares no algebra
    # with the closed forms of count_cbfs and motzkin_count
    for q in (3, 4, 7, 100, 1000):
        for n in [*range(3, 31), 40, 60] if q < 100 else range(3, 31):
            shapes = _shapes(n)
            for families in ("A", "B", "C", "AB", "AC", "BC", "ABC"):
                table = StateTable(q, n, [shapes[name] for name in families])
                assert table.count() == counting.count_cbfs(q, n, families), (q, n, families)
    for colors in range(4):
        for n in range(40):
            assert StateTable(colors + 2, n, motzkin_shapes(colors, n)).count() == motzkin_count(colors, n)
            elevated = StateTable(colors + 2, n, motzkin.elevated_shapes(colors, n))
            assert elevated.count() == motzkin_count(colors, n - 2 if n >= 2 else -1), (colors, n)


def test_first_word_needs_no_quadratic_memory():
    # the first word needs no full count, and the table holds only the
    # states the walk meets: about 3.2 MiB here, where a byte kept per
    # position and height would add about n^2 / 4 = 2.25 MB
    for first, expected in (
        (lambda: next(generate_motzkin(1, 3000)).symbols, (1, 0) * 1500),
        (lambda: next(walk.words(StateTable(3, 3000, motzkin_shapes(1, 3000)), "x"))[0], (1, 0) * 1500),
        # family C: a Motzkin word of length n - 1, then a fall
        (lambda: next(iter_cbfs(3, 3000))[0], (1, 0) * 1499 + (2, 0)),
    ):
        tracemalloc.start()
        try:
            assert first() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20, peak


def test_ground_elevated_factor_examples():
    assert has_ground_elevated_factor(Word.from_text("210", 3), 2)
    assert not has_ground_elevated_factor(Word.from_text("222", 3), 2)
    assert has_ground_elevated_factor(Word.from_text("120", 3), 2)
    assert has_ground_elevated_factor(Word.from_text("120", 3), 3)
    assert not has_ground_elevated_factor(Word.from_text("120", 3), 4)
    assert not has_ground_elevated_factor(Word((), 3), 2)


def test_ground_elevated_factor_rejects_non_motzkin():
    with pytest.raises(ValueError):
        has_ground_elevated_factor(Word.from_text("100212", 3), 2)
    with pytest.raises(ValueError):
        has_ground_elevated_factor(Word.from_text("1", 3), 1)


def naive_has_ground_elevated_factor(word, min_len):
    # scan every split u | beta | v and test the three parts directly
    s, n = word.symbols, len(word)
    for a in range(n + 1):
        for b in range(a + max(min_len, 1), n + 1):
            u, beta, v = Word(s[:a], word.q), Word(s[a:b], word.q), Word(s[b:], word.q)
            if is_motzkin_word(u) and is_motzkin_word(v) and is_elevated(beta):
                return True
    return False


def test_ground_elevated_factor_matches_naive_scan():
    for colors in (1, 2):
        for n in range(9):
            for word in generate_motzkin(colors, n):
                for min_len in (2, (n + 1) // 2, max(n - 1, 1)):
                    assert has_ground_elevated_factor(word, min_len) == naive_has_ground_elevated_factor(
                        word, min_len
                    ), (word, min_len)
    # longer one-color words, threshold as used by the set construction
    for n in (9, 10):
        for word in generate_motzkin(1, n):
            min_len = (n + 2) // 2
            assert has_ground_elevated_factor(word, min_len) == naive_has_ground_elevated_factor(word, min_len)
