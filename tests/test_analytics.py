from collections import Counter
import dataclasses
import itertools
import pickle
import random
import tracemalloc

import pytest

from transversals import analytics
from transversals import (Hypergraph, Infeasible, Row, RowFamily, Spectrum,
                          Tally, brute_transversals, count_at_least,
                          count_exactly, count_total, filter_family, final_parts,
                          parse_hypergraph, row_from_tokens, run, spectrum,
                          transversal_number, transversals_of_size)
from conftest import DEMO_K_MIN, DEMO_TAU_MIN, DEMO_TOTAL, brute_members

DEMO_QUERY_ROWS = [
    "2 2 e1 e1 e2 e3 0 1 1 e2 e3 e3 2 2",
    "2 2 0 0 1 e1 0 1 1 2 e1 e1 2 2",
    "2 2 0 0 0 1 0 1 1 1 2 2 2 2",
    "2 2 0 0 0 0 0 1 1 1 e1 e1 2 2",
]


def test_count_total_demo(demo_family):
    assert count_total(demo_family) == DEMO_TOTAL


def test_count_total_trivial_systems():
    assert count_total(run(parse_hypergraph("3 0\n"))) == 8
    assert count_total(run(Hypergraph(2, ((1, 2),)))) == 3


def test_spectrum_demo(demo_family):
    sp = spectrum(demo_family)
    assert sp.counts[4] == DEMO_TAU_MIN
    assert sp.counts[3] == 0
    assert sp.total == DEMO_TOTAL == sum(sp.counts)


def test_spectrum_counts_empty_set_only_without_edges(demo_family):
    assert spectrum(demo_family).counts[0] == 0
    free = spectrum(run(parse_hypergraph("3 0\n")))
    assert free.counts[0] == 1


def test_spectrum_sums_repeated_rows():
    # spectrum adds per-row counts; rows that overlap are summed exactly too
    # while every per-size sum stays below the digit bound 2^(w + 1)
    rows = (row_from_tokens("2 e1 e1 1 0 e2 e2"), Row.powerset(7),
            row_from_tokens("2 e1 e1 1 0 e2 e2"), row_from_tokens("1 1 1 1 1 1 1"))
    expected = [sum(len(brute_members(7, row.parts, k)) for row in rows) for k in range(8)]
    sp = spectrum(RowFamily(w=7, parts=[row.parts for row in rows]))
    assert list(sp.counts) == expected
    assert sp.total == sum(row.size() for row in rows)


def test_stream_fold_demo(demo_hg, demo_family):
    tally = Tally()
    sp = Spectrum.of(tally.tap(final_parts(demo_hg)), demo_hg.w)
    assert (tally.r_final, tally.n_total, tally.k_min, tally.tau_min) == \
        (7, DEMO_TOTAL, DEMO_K_MIN, DEMO_TAU_MIN)
    assert tally.stats == demo_family.stats
    assert sp == spectrum(demo_family)
    assert sum(sp.counts[5:]) == count_at_least(demo_family, 5)


def test_stream_fold_memory_stays_below_stored_family():
    # R = 5141 final rows: count's fold (Tally and Spectrum over the engine
    # stream) must peak well below what run's stored family retains
    rng = random.Random(4)
    hg = Hypergraph(40, tuple(tuple(sorted(rng.sample(range(1, 41),
                                                      rng.randint(2, 5))))
                              for _ in range(30)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        family = run(hg)
        retained = tracemalloc.get_traced_memory()[0] - before
        del family
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tally = Tally()
        sp = Spectrum.of(tally.tap(final_parts(hg)), hg.w)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert tally.r_final == 5141 and sp.total == tally.n_total
    assert peak < retained / 4


def test_count_at_least_demo(demo_family):
    assert count_at_least(demo_family, 0) == DEMO_TOTAL
    assert count_at_least(demo_family, 5) == DEMO_TOTAL - DEMO_TAU_MIN == 8718
    assert count_at_least(demo_family, 15) == 0


def test_count_at_least_matches_spectrum_tail(demo_family):
    sp = spectrum(demo_family)
    for k in range(16):
        assert count_at_least(demo_family, k) == sum(sp.counts[k:])


def test_transversal_number_demo(demo_family):
    assert transversal_number(demo_family) == (4, DEMO_TAU_MIN)


def test_transversal_number_trivial_systems():
    assert transversal_number(run(parse_hypergraph("3 0\n"))) == (0, 1)
    assert transversal_number(run(Hypergraph(2, ((1,), (2,))))) == (2, 1)


def test_transversal_number_empty_family():
    with pytest.raises(Infeasible):
        transversal_number(RowFamily(w=3, parts=()))


@pytest.mark.parametrize("k", [2.5, True, "2"], ids=["float", "bool", "str"])
def test_count_at_least_rejects_non_int_k(demo_hg, k):
    # True == 1, but a bool is not a size; nothing is folded or kept
    family = run(demo_hg)
    with pytest.raises(ValueError, match="^k must be an int, not "):
        count_at_least(family, k)
    assert family._folds == {}


class TestKeptAnswers:
    """A stored family folds each answer on its first ask and keeps it."""

    def answers(self, family):
        return (count_total(family), spectrum(family), transversal_number(family),
                count_at_least(family, 5), count_at_least(family, 0))

    def test_second_ask_folds_nothing(self, demo_hg, monkeypatch):
        family = run(demo_hg)
        folds = Counter()
        counts, of = analytics.size_counts, Tally.of.__func__

        def counting(name, real):
            def call(*args):
                folds[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(analytics, "size_counts", counting("size_counts", counts))
        monkeypatch.setattr(Tally, "of", classmethod(counting("Tally.of", of)))
        first = self.answers(family)
        # count_total and transversal_number share one kept Tally, and the
        # at-least counts are tails of the spectrum kept before them
        assert folds == {"size_counts": 1, "Tally.of": 1}
        folds.clear()
        assert self.answers(family) == first
        assert count_at_least(family, -3) == count_at_least(family, 0) == DEMO_TOTAL
        assert count_at_least(family, 6) == sum(first[1].counts[6:])
        assert folds == {}

    def test_at_least_before_spectrum_folds_the_low_sizes(self, demo_hg, monkeypatch):
        family = run(demo_hg)
        calls = []
        real = analytics.size_counts

        def counting(rows, w, limit=None):
            calls.append(limit)
            return real(rows, w, limit)

        monkeypatch.setattr(analytics, "size_counts", counting)
        assert count_at_least(family, 5) == DEMO_TOTAL - DEMO_TAU_MIN
        assert calls == [4]

    def test_past_w_keeps_nothing(self, demo_hg):
        family = run(demo_hg)
        assert count_at_least(family, 15) == 0
        assert family._folds == {}

    def test_filtered_family_starts_empty(self, demo_hg):
        family = run(demo_hg)
        self.answers(family)
        for got in (filter_family(family), filter_family(family, require={9})):
            assert got._folds == {}
        assert count_total(filter_family(family, require={8, 9}, forbid={7})) == 1344

    def test_memo_leaves_equality_hash_repr_and_pickle(self, demo_hg):
        fresh, used = run(demo_hg), run(demo_hg)
        answers = self.answers(used)
        assert len(used._folds) == 4 and fresh._folds == {}
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == used and self.answers(back) == answers
        copy = dataclasses.replace(used)
        assert copy == used and copy._folds == {}
        assert self.answers(copy) == answers


class TestStoredParts:
    """A stored family holds the engine's part tuples; a Row is built only
    when a caller reads ``family.rows``."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        validate = Row.__post_init__

        def spy(row):
            built.append(row)
            validate(row)

        monkeypatch.setattr(Row, "__post_init__", spy)
        return built

    def test_run_filter_and_answers_build_no_row(self, demo_hg, built):
        family = run(demo_hg)
        cut = filter_family(family, require={8, 9}, forbid={7})
        for f in family, cut:
            answers = (count_total(f), spectrum(f), count_at_least(f, 5),
                       transversal_number(f), list(transversals_of_size(f, 5)))
            assert answers[2] == sum(answers[1].counts[5:])
            assert len(answers[4]) == answers[1].counts[5]
        assert (count_total(family), count_total(cut)) == (DEMO_TOTAL, 1344)
        assert built == []

    def test_rows_built_once_on_first_read(self, demo_hg, built):
        family = run(demo_hg)
        rows = family.rows
        assert len(built) == len(family.parts) == 7
        assert family.rows is rows and len(built) == 7
        assert rows == tuple(Row(demo_hg.w, *p) for p in family.parts)
        assert tuple(row.parts for row in rows) == family.parts

    def test_rows_count_of_size_is_count_exactly(self, demo_hg):
        # the boundary the benchmark's recorder reads: Row.count_of_size
        # over a stored family's rows
        rng = random.Random(5)
        wide = Hypergraph(24, tuple(
            tuple(sorted(rng.sample(range(1, 25), rng.randint(3, 6)))) for _ in range(18)))
        for hg in demo_hg, wide:
            family = run(hg)
            k_min = transversal_number(family)[0]
            for k in range(k_min, k_min + 3):
                assert sum(row.count_of_size(k) for row in family.rows) == \
                    count_exactly(hg, k) == spectrum(family).counts[k]

    def test_parts_from_any_iterable_are_kept(self, demo_family):
        # a one-shot iterator is read once into the tuple every fold reads;
        # a tuple is kept as the same object, and a list becomes hashable
        once = RowFamily(w=demo_family.w, parts=iter(demo_family.parts))
        assert count_total(once) == spectrum(once).total == DEMO_TOTAL
        assert transversal_number(once) == (DEMO_K_MIN, DEMO_TAU_MIN)
        assert RowFamily(demo_family.w, demo_family.parts).parts is demo_family.parts
        listed = RowFamily(w=demo_family.w, parts=list(demo_family.parts))
        assert listed == once == RowFamily(demo_family.w, demo_family.parts)
        assert hash(listed) == hash(once)
        assert spectrum(listed).total == DEMO_TOTAL


def test_generate_minimum_size_demo(demo_hg, demo_family):
    got = list(transversals_of_size(demo_family, 4))
    assert len(got) == DEMO_TAU_MIN
    assert len(set(got)) == DEMO_TAU_MIN
    expected = sorted(
        c for c in itertools.combinations(range(1, 15), 4)
        if all(set(c) & set(e) for e in demo_hg.edges))
    assert sorted(got) == expected


def test_generate_below_minimum_is_empty(demo_family):
    assert list(transversals_of_size(demo_family, 3)) == []


def test_generate_small_system():
    family = run(Hypergraph(2, ((1, 2),)))
    assert list(transversals_of_size(family, 1)) == [(1,), (2,)]


@pytest.mark.parametrize("k", [2.5, True, "2"], ids=["float", "bool", "str"])
def test_generate_rejects_non_int_k(demo_family, k):
    # refused at the call, also where no row would ever read k: forbidding
    # the edge {5, 10} keeps nothing
    empty = filter_family(demo_family, forbid={5, 10})
    assert empty.rows == ()
    for family in demo_family, empty:
        with pytest.raises(ValueError, match="^k must be an int, not "):
            transversals_of_size(family, k)


class TestFilterFamily:
    def test_demo_query(self, demo_hg, demo_family):
        got = filter_family(demo_family, require={8, 9}, forbid={7})
        assert [r.render() for r in got.rows] == DEMO_QUERY_ROWS
        expected = [x for x in brute_transversals(demo_hg)
                    if {8, 9} <= set(x) and 7 not in x]
        assert count_total(got) == len(expected) == 1344
        expanded = [x for r in got.rows for k in range(r.w + 1)
                    for x in r.members_of_size(k)]
        assert sorted(expanded) == expected

    def test_no_conditions_is_identity(self, demo_family):
        got = filter_family(demo_family)
        assert all(a is b for a, b in zip(got.parts, demo_family.parts))
        assert got.parts == demo_family.parts and got.rows == demo_family.rows

    def test_rows_the_cut_leaves_are_reused(self, demo_family):
        # vertex 9 is a 1 in every demo row but the first, where it is a 2
        got = filter_family(demo_family, require={9})
        assert [a is b for a, b in zip(got.parts, demo_family.parts)] == [False] + [True] * 6
        assert got.rows[0].render() == "2 2 e1 e1 e2 e3 e3 e4 1 e2 e3 e3 e4 e4"

    def test_overlap_rejected(self, demo_family):
        with pytest.raises(ValueError):
            filter_family(demo_family, require={3}, forbid={3})

    def test_vertex_outside_ground_set_rejected_without_rows(self):
        with pytest.raises(ValueError, match="vertex 5 not in ground set 1..3"):
            filter_family(RowFamily(w=3, parts=()), forbid={1, 5})
        with pytest.raises(ValueError, match="vertex 0 not in ground set"):
            filter_family(RowFamily(w=3, parts=()), require={0})
        # True == 1, but a bool is not a vertex, as in Hypergraph
        with pytest.raises(ValueError, match="vertex True not in ground set"):
            filter_family(RowFamily(w=3, parts=()), require={True})
        with pytest.raises(ValueError, match="vertex True not in ground set"):
            filter_family(RowFamily(w=3, parts=()), forbid={True})

    @pytest.mark.parametrize("require, forbid, message", [
        ({10 ** 5000}, (), "vertex <int too long to show> not in ground set 1..3"),
        (("x" * 1000,), (), "vertex <str too long to show> not in ground set 1..3"),
        ({2.5}, (), "vertex 2.5 not in ground set 1..3"),
        (range(1, 10_001), range(1, 10_001),
         "require and forbid overlap on [1, 2, 3, ...]"),
        ({3, 4, 10 ** 5000}, {3, 4, 10 ** 5000},
         "require and forbid overlap on [3, 4, <int too long to show>]"),
        # vertices that do not compare are ordered by their brief text
        ([1], ["x"], "vertex 'x' not in ground set 1..3"),
        ([None], [2], "vertex None not in ground set 1..3"),
        ([1, "x"], [1, "x"], "require and forbid overlap on ['x', 1]"),
    ], ids=["huge-int", "long-str", "float", "many-shared", "huge-shared",
            "int-and-str", "none-and-int", "mixed-shared"])
    def test_condition_message_stays_short(self, require, forbid, message):
        with pytest.raises(ValueError) as info:
            filter_family(RowFamily(w=3, parts=()), require=require, forbid=forbid)
        assert str(info.value) == message

    @pytest.mark.parametrize("require, forbid", [
        ({8, 9}, {7}), (set(), {9}), ({1, 2, 3}, {4, 5, 13}), (set(), set())],
        ids=["demo-query", "one-forbid", "many-each", "none"])
    def test_one_row_built_per_row_yielded(self, demo_family, monkeypatch,
                                           require, forbid):
        # each row's parts are cut once, so neither a dropped row nor a
        # kept one builds a Row; the bound of one per row yielded is now 0
        built = []
        validate = Row.__post_init__

        def spy(row):
            built.append(row)
            validate(row)

        monkeypatch.setattr(Row, "__post_init__", spy)
        got = filter_family(demo_family, require=require, forbid=forbid)
        assert built == [] and len(got.parts) <= len(demo_family.parts)

    def test_forbidding_a_forced_vertex_drops_rows(self, demo_family):
        # vertex 9 is forced in every final row except the first
        got = filter_family(demo_family, forbid={9})
        assert len(got.rows) == 1
