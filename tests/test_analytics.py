import itertools
import random
import tracemalloc

import pytest

from transversals import (Hypergraph, Infeasible, Row, RowFamily, Spectrum,
                          Tally, brute_transversals, count_at_least,
                          count_total, filter_family, final_parts,
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
    sp = spectrum(RowFamily(w=7, rows=rows))
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
        transversal_number(RowFamily(w=3, rows=()))


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
        assert got.rows == demo_family.rows

    def test_rows_the_cut_leaves_are_reused(self, demo_family):
        # vertex 9 is a 1 in every demo row but the first, where it is a 2
        got = filter_family(demo_family, require={9})
        assert [a is b for a, b in zip(got.rows, demo_family.rows)] == [False] + [True] * 6
        assert got.rows[0].render() == "2 2 e1 e1 e2 e3 e3 e4 1 e2 e3 e3 e4 e4"

    def test_overlap_rejected(self, demo_family):
        with pytest.raises(ValueError):
            filter_family(demo_family, require={3}, forbid={3})

    def test_vertex_outside_ground_set_rejected_without_rows(self):
        with pytest.raises(ValueError, match="vertex 5 not in ground set 1..3"):
            filter_family(RowFamily(w=3, rows=()), forbid={1, 5})
        with pytest.raises(ValueError, match="vertex 0 not in ground set"):
            filter_family(RowFamily(w=3, rows=()), require={0})
        # True == 1, but a bool is not a vertex, as in Hypergraph
        with pytest.raises(ValueError, match="vertex True not in ground set"):
            filter_family(RowFamily(w=3, rows=()), require={True})
        with pytest.raises(ValueError, match="vertex True not in ground set"):
            filter_family(RowFamily(w=3, rows=()), forbid={True})

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
            filter_family(RowFamily(w=3, rows=()), require=require, forbid=forbid)
        assert str(info.value) == message

    @pytest.mark.parametrize("require, forbid", [
        ({8, 9}, {7}), (set(), {9}), ({1, 2, 3}, {4, 5, 13}), (set(), set())],
        ids=["demo-query", "one-forbid", "many-each", "none"])
    def test_one_row_built_per_row_yielded(self, demo_family, monkeypatch,
                                           require, forbid):
        # each row is cut once, so a dropped row builds nothing and a kept
        # one at most one new Row
        built = []
        validate = Row.__post_init__

        def spy(row):
            built.append(row)
            validate(row)

        monkeypatch.setattr(Row, "__post_init__", spy)
        got = filter_family(demo_family, require=require, forbid=forbid)
        assert len(built) <= len(got.rows)

    def test_forbidding_a_forced_vertex_drops_rows(self, demo_family):
        # vertex 9 is forced in every final row except the first
        got = filter_family(demo_family, forbid={9})
        assert len(got.rows) == 1
