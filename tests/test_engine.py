import random
import tracemalloc

import pytest

from transversals import (Hypergraph, Row, RunStats, Tally, count_exactly,
                          count_total, final_parts, impose,
                          inclusion_exclusion_count, is_feasible,
                          parse_hypergraph, row_from_tokens, run, spectrum,
                          vertex_mask)
from transversals import engine
from transversals.rows import restrict
from conftest import DEMO_FINAL_ROWS, DEMO_TOTAL, drain, mask_vertices, reference_run

MOD4 = "2 2 e1 e1 e2 e3 e3 e4 e1 e2 e3 e3 e4 e4"


class TestImpose:
    def test_first_edge_on_powerset(self):
        sons = impose(Row.powerset(14), vertex_mask({3, 4, 9}))
        assert [Row(14, *s).render() for s in sons] == [
            "2 2 e1 e1 2 2 2 2 e1 2 2 2 2 2"]

    def test_four_bubble_split(self):
        # the fifth demo edge cuts into all four bubbles and the free block
        sons = impose(row_from_tokens(MOD4),
                      vertex_mask({1, 2, 3, 4, 5, 6, 7, 8}))
        assert [Row(14, *s).render() for s in sons] == [
            "2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4",
            "2 2 0 0 1 e1 e1 e2 1 2 e1 e1 e2 e2",
            "2 2 0 0 0 e1 e1 e2 1 1 2 2 e2 e2",
            "2 2 0 0 0 0 0 1 1 1 e1 e1 2 2",
            "e1 e1 0 0 0 0 0 0 1 1 e2 e2 e3 e3",
        ]

    def test_split_without_free_son(self):
        # edge misses the free block, so only the bubble sons appear
        sigma = row_from_tokens("e1 e1 0 0 0 0 0 0 1 1 e2 e2 e3 e3")
        sons = impose(sigma, vertex_mask({3, 4, 5, 8, 12, 13}))
        assert [Row(14, *s).render() for s in sons] == [
            "e1 e1 0 0 0 0 0 0 1 1 2 1 e2 e2",
            "e1 e1 0 0 0 0 0 0 1 1 1 0 1 2",
        ]

    def test_edge_missing_every_bubble_keeps_them(self):
        # the edge lies in the 0s and 2s, so only the free son is built, and
        # with a one-position free hit it keeps the row's bubbles as they are
        r = row_from_tokens("e1 e1 2 0 e2 e2 2")
        sons = impose(r, vertex_mask({3, 4}))
        assert [Row(7, *s).render() for s in sons] == ["e1 e1 1 0 e2 e2 2"]
        bubbles = r.parts[3]
        assert sons[0][3] is bubbles
        assert impose(r, vertex_mask({3, 4, 7}))[0][3] == (*bubbles, vertex_mask({3, 7}))
        assert impose(r, vertex_mask({4})) == []

    def test_forced_hit_passes_through(self):
        r = row_from_tokens("2 1 2")
        assert impose(r, vertex_mask({2, 3})) == [r]

    def test_contained_bubble_passes_through(self):
        r = row_from_tokens("e1 e1 2 2")
        assert impose(r, vertex_mask({1, 2})) == [r]
        # the contained bubble comes after a cut one, whose son is dropped
        r = row_from_tokens("e1 e1 e2 e2 2")
        sons = impose(r, vertex_mask({1, 3, 4}))
        assert len(sons) == 1 and sons[0] is r

    def test_unreachable_edge_kills_row(self):
        r = row_from_tokens("0 0 2")
        assert impose(r, vertex_mask({1, 2})) == []

    def test_sons_partition_the_hitters(self):
        r = row_from_tokens("2 2 e1 e1 e1 0")
        edge = {1, 3, 6}
        sons = impose(r, vertex_mask(edge))
        expanded = [x for s in sons for x in Row(r.w, *s).members()]
        assert len(expanded) == len(set(expanded))
        assert sorted(set(expanded)) == sorted(
            x for x in r.members() if set(x) & edge)


class TestWideMasks:
    """Rows and edges reaching past bit 64, checked against vertex sets."""

    W = 130
    ZEROS, ONES = {1, 66}, {3}
    BUBBLES = ({64, 65, 100}, {128, 129})
    TWOS = set(range(1, W + 1)) - ZEROS - ONES - {64, 65, 100, 128, 129}

    def row(self):
        return Row(self.W, *map(vertex_mask, (self.ZEROS, self.ONES, self.TWOS)),
                   map(vertex_mask, self.BUBBLES))

    @staticmethod
    def parts(row):
        zeros, ones, twos, bubbles = row
        return (mask_vertices(zeros), mask_vertices(ones),
                mask_vertices(twos), set(map(mask_vertices, bubbles)))

    def test_impose_on_wide_row(self):
        row = self.row()
        assert impose(row, vertex_mask({128, 129, 130}))[0] is row
        sons = impose(row, vertex_mask({1, 65, 100, 128, 130}))
        twos = self.TWOS
        assert [self.parts(Row(self.W, *s)) for s in sons] == [
            ({1, 66}, {3}, twos | {64}, {frozenset({65, 100}), frozenset({128, 129})}),
            ({1, 65, 66, 100}, {3, 64, 128}, twos | {129}, set()),
            ({1, 65, 66, 100, 128}, {3, 64, 129, 130}, twos - {130}, set()),
        ]

    def test_require_and_forbid_on_wide_row(self):
        row = self.row()
        assert self.parts(restrict(row.parts, vertex_mask({100}), 0)) == (
            self.ZEROS, {3, 100}, self.TWOS | {64, 65}, {frozenset({128, 129})})
        assert self.parts(restrict(row.parts, 0, vertex_mask({129}))) == (
            {1, 66, 129}, {3, 128}, self.TWOS, {frozenset({64, 65, 100})})
        assert self.parts(restrict(row.parts, vertex_mask({130}), 0)) == (
            self.ZEROS, {3, 130}, self.TWOS - {130},
            {frozenset({64, 65, 100}), frozenset({128, 129})})
        assert restrict(row.parts, 0, vertex_mask({66})) is row.parts
        assert restrict(row.parts, vertex_mask({66}), 0) is None

    def test_run_and_spectrum_past_bit_64(self):
        rng = random.Random(7)
        edges = tuple(tuple(sorted(rng.sample(range(1, 91), rng.randint(2, 5))))
                      for _ in range(5)) + ((64, 65, 89, 90),)
        hg = Hypergraph(90, edges)
        family = run(hg)
        total = count_total(family)
        assert total == inclusion_exclusion_count(hg)
        assert spectrum(family).total == sum(spectrum(family).counts) == total


def reference_calls(hg, k=None):
    """The impositions of the loop with no skipped step, as (row parts,
    edge) pairs, split into those whose edge misses the row's 1s, which the
    engine passes to ``impose``, and the number of those whose edge meets
    them, which it counts without a call."""
    log = []
    reference_run(hg, k, log)
    calls = [(parts, edge) for parts, edge in log if not edge & parts[1]]
    return calls, len(log) - len(calls)


class TestBenchmarkHooks:
    """The benchmark times and counts the engine by replacing the module
    globals ``impose`` and ``is_feasible``; ``run`` must look them up there.
    An edge meeting the row's 1s is an imposition made without a call."""

    def test_run_calls_module_globals(self, demo_hg, monkeypatch):
        calls = {"impose": 0, "is_feasible": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        family = run(demo_hg)
        reference, skips = reference_calls(demo_hg)
        assert calls["impose"] == len(reference) > 0
        assert calls["impose"] + skips == family.stats.impositions
        assert calls["is_feasible"] > 0

    def test_final_parts_calls_module_impose(self, demo_hg, monkeypatch):
        # count and spectrum fold the generator without calling run
        calls = []
        real_impose = engine.impose

        def counting(row, edge):
            calls.append((tuple(row), edge))
            return real_impose(row, edge)

        monkeypatch.setattr(engine, "impose", counting)
        tally = Tally.of(final_parts(demo_hg))
        assert tally.r_final == 7
        reference, skips = reference_calls(demo_hg)
        assert skips > 0
        assert calls == reference
        assert len(calls) + skips == tally.stats.impositions == run(demo_hg).stats.impositions

    @pytest.mark.parametrize("k_above_min", [None, 0, 1])
    def test_known_admissible_rows_are_not_rechecked(self, monkeypatch, k_above_min):
        # once impose hands a row back, or makes it a split's first son, the
        # row is known to be feasible with c_max >= k: the full run never
        # passes it to is_feasible, and the run for k passes each first son
        # once, for its packing bound, and no other such row
        rng = random.Random(7)
        hg = Hypergraph(12, tuple(tuple(rng.sample(range(1, 13), rng.randint(2, 5)))
                                  for _ in range(10)))
        k = None if k_above_min is None else Tally.of(final_parts(hg)).k_min + k_above_min
        passed, first_sons, rechecked, ones_hit = [], [], [], []
        known = {}                       # id -> row, which keeps the id unique
        real_impose, real_feasible = engine.impose, engine.is_feasible

        def spy_impose(row, edge):
            ones_hit.append(edge & row[1])
            sons = real_impose(row, edge)
            (passed if sons[0] is row else first_sons).append(sons[0])
            known[id(sons[0])] = sons[0]
            return sons

        def spy_feasible(row, pending, k=None):
            if id(row) in known:
                rechecked.append(row)
            return real_feasible(row, pending, k)

        monkeypatch.setattr(engine, "impose", spy_impose)
        monkeypatch.setattr(engine, "is_feasible", spy_feasible)
        _, stats = drain(final_parts(hg, k))
        reference, skips = reference_calls(hg, k)
        assert passed and first_sons and skips
        assert not any(ones_hit)
        assert len(passed) + len(first_sons) == len(reference)
        assert len(passed) + len(first_sons) + skips == stats.impositions
        if k is None:
            assert rechecked == []
        else:
            assert list(map(id, rechecked)) == list(map(id, first_sons))

    def test_passthrough_returns_the_same_row(self):
        row = row_from_tokens("2 1 2")
        sons = impose(row, vertex_mask({2, 3}))
        assert len(sons) == 1 and sons[0] is row


class TestFeasibility:
    def test_pending_edge_inside_zeros(self):
        dead = row_from_tokens("e1 e1 0 0 0 0 0 0 1 1 1 0 0 1")
        assert not is_feasible(dead, [vertex_mask({3, 4, 5, 8, 12, 13})])

    def test_no_zeros_is_always_feasible(self):
        assert is_feasible(Row.powerset(5), [vertex_mask({1}), vertex_mask({2, 3})])

    def test_empty_pending(self):
        assert is_feasible(row_from_tokens("0 0 1 2"), [])


class TestRun:
    def test_demo_final_rows(self, demo_family):
        assert [r.render() for r in demo_family.rows] == DEMO_FINAL_ROWS

    def test_demo_stored_bubble_order(self, demo_hg, demo_family):
        # render, equality and sorted digests ignore bubble order, but
        # members_of_size walks it, so the stored order is frozen here
        assert [bubbles for _, _, _, bubbles in demo_family.rows] == [
            (24, 1056, 6336, 24832), (6336, 24832), (192, 8448), (192,),
            (6144,), (24576, 6), (6,)]
        size_asc = Hypergraph(demo_hg.w, tuple(sorted(demo_hg.edges, key=len)))
        assert [bubbles for _, _, _, bubbles in run(size_asc).rows] == [
            (536, 24832, 6336), (24, 24832, 6336), (6336,), (192,), (6144, 6),
            (198,)]

    def test_demo_total(self, demo_family):
        assert sum(r.size() for r in demo_family.rows) == DEMO_TOTAL

    def test_no_edges(self):
        family = run(parse_hypergraph("3 0\n"))
        assert [r.render() for r in family.rows] == ["2 2 2"]

    def test_many_edges_keep_engine_state_small(self):
        # no split here has later sons, so the full run lists no pending
        # edges; one list per edge index would hold h(h + 1)/2 references,
        # 8 million at h = 4000
        hg = Hypergraph(2, ((1, 2),) * 4000)
        tracemalloc.start()
        try:
            rows = list(final_parts(hg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [Row(hg.w, *parts).render() for parts in rows] == ["e1 e1"]
        assert peak < 1 << 20

    def test_star_keeps_pending_lists_small(self):
        # every edge {1, i} meets every other; the one split with later sons
        # lists the 3 998 edges after it, where a table of the edges meeting
        # each edge, built for all pairs, would hold 8 million references.
        # Peaks on Python 3.11: 1.24 MB with a slice per split, 1.31 MB with
        # the lazy lists, 69.5 MB with an all-pairs table
        hg = Hypergraph(4001, tuple((1, i) for i in range(2, 4002)))
        tracemalloc.start()
        try:
            rows, stats = drain(final_parts(hg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 2 and stats == RunStats(7998, 2, 2)
        assert peak < 2 << 20

    def test_forced_vertices(self):
        family = run(Hypergraph(2, ((1,), (2,))))
        assert len(family.rows) == 1
        assert family.rows[0].parts[1] == vertex_mask({1, 2})
        assert family.rows[0].size() == 1

    def test_final_rows_are_feasible(self, demo_hg, demo_family):
        for row in demo_family.rows:
            assert is_feasible(row, map(vertex_mask, demo_hg.edges))

    def test_final_rows_stream_the_family(self, demo_hg, demo_family):
        stream = final_parts(demo_hg)
        rows = [Row(demo_hg.w, *next(stream)) for _ in range(7)]
        with pytest.raises(StopIteration) as stop:
            next(stream)
        assert [row.render() for row in rows] == DEMO_FINAL_ROWS
        assert stop.value.value == demo_family.stats

    def test_deterministic(self, demo_hg, demo_family):
        again = run(demo_hg)
        assert [r.render() for r in again.rows] == \
            [r.render() for r in demo_family.rows]
        assert again.stats == demo_family.stats

    def test_stats_sanity(self, demo_hg, demo_family):
        stats = demo_family.stats
        assert stats.impositions <= len(demo_family.rows) * demo_hg.h
        assert stats.s_max <= demo_hg.d + 1
        assert stats.max_stack <= demo_hg.h * stats.s_max + 1


class TestRunForK:
    def test_k_past_every_row_gives_no_rows(self, demo_hg):
        assert drain(final_parts(demo_hg, 15))[0] == []

    def test_keeps_the_full_run_rows_holding_size_k(self, demo_hg, demo_family):
        for k in range(demo_hg.w + 2):
            got, _ = drain(final_parts(demo_hg, k))
            assert tuple(Row(demo_hg.w, *p) for p in got) == tuple(
                r for r in demo_family.rows if r.c_min <= k <= r.c_max)

    def test_prunes_impositions(self, demo_hg, demo_family):
        # every final row of the demo has c_min >= 4, so k = 3 keeps none
        rows, stats = drain(final_parts(demo_hg, 3))
        assert rows == []
        assert stats.impositions < demo_family.stats.impositions

    def test_packing_bound_prunes_the_root(self, demo_hg):
        # the demo's first four edges are pairwise disjoint, so no
        # transversal has fewer than 4 vertices and the run for 3 imposes none
        rows, stats = drain(final_parts(demo_hg, 3))
        assert rows == []
        assert (stats.impositions, stats.s_max, stats.max_stack) == (0, 0, 0)

    def test_packing_bound_pins_the_run_for_k_min(self):
        # a seeded w32/h24 instance with edges of 2..5 vertices, k = k_min;
        # pruning by c_min and c_max alone took 962 impositions, max_stack 10
        rng = random.Random(1)
        hg = Hypergraph(32, tuple(tuple(sorted(rng.sample(range(1, 33), rng.randint(2, 5))))
                                  for _ in range(24)))
        full = run(hg)
        assert min(row.c_min for row in full.rows) == 8
        rows, stats = drain(final_parts(hg, 8))
        assert rows == [row.parts for row in full.rows if row.c_min <= 8 <= row.c_max]
        assert len(rows) == 14
        assert (stats.impositions, stats.s_max, stats.max_stack) == (438, 4, 7)


class TestWindowRun:
    @pytest.mark.parametrize("k", [-1, 2.5, True, "3"],
                             ids=["negative", "float", "bool", "str"])
    def test_bad_k_rejected(self, demo_hg, k):
        stream = final_parts(demo_hg, k)
        with pytest.raises(ValueError, match="k must be None or an int >= 0"):
            next(stream)

    @pytest.mark.parametrize("k", [True, 2.5, 99.5, "3"],
                             ids=["bool", "float", "float-past-w", "str"])
    def test_count_exactly_rejects_non_int_k(self, demo_hg, k):
        with pytest.raises(ValueError, match="k must be None or an int >= 0"):
            count_exactly(demo_hg, k)
