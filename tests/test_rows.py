import copy
import itertools
import pickle
import time
import tracemalloc
from math import comb

import pytest

from transversals import Row, bubble_segment_counts, row_from_tokens, vertex_mask
from transversals.rows import restrict, size_counts


def brute_members(row, k=None):
    """All subsets of the ground set the row contains, by membership test."""
    out = []
    for size in range(row.w + 1):
        if k is not None and size != k:
            continue
        for combo in itertools.combinations(range(1, row.w + 1), size):
            if row.contains(combo):
                out.append(tuple(combo))
    return out


class TestConstruction:
    def test_powerset(self):
        zeros, ones, twos, bubbles = Row.powerset(3)
        assert twos == vertex_mask({1, 2, 3})
        assert not zeros and not ones and not bubbles

    def test_powerset_of_a_million_vertices_is_fast(self):
        # the full mask is built in one shift, not one vertex at a time
        w = 1_000_000
        start = time.perf_counter()
        r = Row.powerset(w)
        elapsed = time.perf_counter() - start
        assert r == Row(w, 0, 0, (1 << w + 1) - 2)
        assert elapsed < 1.0

    def test_singleton_bubble_promoted(self):
        _, ones, _, bubbles = row_from_tokens("2 e1 e2")
        assert ones == vertex_mask({2, 3})
        assert bubbles == ()

    def test_empty_bubble_rejected(self):
        with pytest.raises(ValueError):
            Row(2, 0, 0, vertex_mask({1, 2}), [0])

    def test_overlapping_parts_rejected(self):
        with pytest.raises(ValueError):
            Row(2, vertex_mask({1}), vertex_mask({1}), vertex_mask({2}))

    def test_incomplete_partition_rejected(self):
        with pytest.raises(ValueError):
            Row(3, vertex_mask({1}), 0, vertex_mask({2}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Row(2, vertex_mask({1}), 0, vertex_mask({2, 5}))

    @pytest.mark.parametrize("mask", [0b111, 0b1110, -0b110],
                             ids=["bit-0", "above-w", "negative"])
    def test_bad_mask_rejected_with_partition_message(self, mask):
        # bit 0, a bit above w and a negative mask (infinitely many high
        # bits) all reach outside 1..w, as a part or as a bubble
        with pytest.raises(ValueError, match=r"^row parts do not partition 1\.\.2$"):
            Row(2, 0, 0, mask)
        with pytest.raises(ValueError, match=r"^row parts do not partition 1\.\.2$"):
            Row(2, 0, 0, 0, [mask])

    @pytest.mark.parametrize("vertex", [0, -1, 1.0, "1", None, True],
                             ids=["zero", "negative", "float", "str", "none", "bool"])
    def test_vertex_mask_rejects_bad_vertex(self, vertex):
        # vertex sets become masks here only, so a bad vertex stops here
        with pytest.raises(ValueError, match=r"is not an int >= 1$"):
            vertex_mask({2, vertex})

    @pytest.mark.parametrize("vertices, bad", [
        ([3, 0, "x", -1], 0), ((v for v in (5, 9, -2, 1.5)), -2),
        ([1, 2.0, 0], 2.0)], ids=["list", "generator", "float-first"])
    def test_vertex_mask_names_first_bad_vertex(self, vertices, bad):
        with pytest.raises(ValueError, match=rf"^vertex {bad!r} is not an int >= 1$"):
            vertex_mask(vertices)

    def test_vertex_mask_is_linear_in_the_largest_vertex(self):
        # a million vertices, one bit each: about 0.2 s, where setting the
        # bits in an int one at a time copies the growing mask every time
        assert vertex_mask(range(1, 1_000_001)) == (1 << 1_000_001) - 2

    @pytest.mark.parametrize("parts", [
        ({1}, 0, 0b110),                                   # a vertex set
        (frozenset(), frozenset({1}), frozenset({2})),     # only vertex sets
        (0, 0, 6.0),
        (0, 0, 0, [{1, 2}]),                               # a set as bubble
        (0, 0, 0, ["0b110"]),
    ], ids=["set", "all-sets", "float", "set-bubble", "str-bubble"])
    def test_non_int_part_rejected(self, parts):
        with pytest.raises(TypeError):
            Row(2, *parts)

    def test_overlap_message(self):
        with pytest.raises(ValueError, match="^row parts overlap$"):
            Row(3, 0, vertex_mask({2}), vertex_mask({1, 3}), [vertex_mask({2})])
        with pytest.raises(ValueError, match="^row parts overlap$"):
            Row(3, 0, 0, vertex_mask({1, 2, 3}), [vertex_mask({2, 3})])

    def test_masks_take_the_same_validation(self):
        assert Row(2, 0, 0, 0b110) == Row.powerset(2)
        assert Row(3, 0, 0, 0b10, (0b1000, 0b100)).parts[1] == vertex_mask({2, 3})
        with pytest.raises(ValueError, match="^empty e-bubble$"):
            Row(2, 0, 0, 0b110, (0,))
        with pytest.raises(ValueError, match="^row parts overlap$"):
            Row(2, 0b10, 0b10, 0b100)
        with pytest.raises(ValueError, match=r"^row parts do not partition 1\.\.2$"):
            Row(2, 0b1, 0, 0b110)

    def test_bad_width_rejected(self):
        for w in (-1, -5, 2.0):
            with pytest.raises(ValueError, match="row width"):
                Row(w, 0, 0, 0)

    def test_immutable(self):
        r = Row.powerset(2)
        for name in ("w", "parts", "zeros", "zero_mask", "bubble_masks", "other"):
            with pytest.raises(AttributeError):
                setattr(r, name, 1)
        with pytest.raises(AttributeError):
            del r.w
        assert r == Row.powerset(2) and r.w == 2

    def test_pickle_and_copy_round_trip(self):
        r = row_from_tokens("2 e2 e1 2 1 e2 e1 0 e2")
        for again in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r),
                      Row(r.w, *r)):
            assert again == r and again.parts == r.parts

    def test_repr_is_the_token_form(self):
        assert repr(row_from_tokens("2 e1 e1 1")) == "Row('2 e1 e1 1')"

    def test_empty_ground_set(self):
        r = Row(0, 0, 0, 0)
        assert r.size() == 1
        assert r.contains(())

    def test_equality_ignores_bubble_order(self):
        a = row_from_tokens("e1 e1 e2 e2")
        b = row_from_tokens("e2 e2 e1 e1")
        assert a.parts[3] == b.parts[3][::-1]
        assert a == b
        assert hash(a) == hash(b)
        assert a != row_from_tokens("e1 e2 e1 e2")


class TestMembership:
    def test_powerset_contains_everything(self):
        r = Row.powerset(5)
        assert r.contains(())
        assert r.contains({1, 3, 5})

    def test_demo_row_hit_all_bubbles(self):
        r1 = row_from_tokens("2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4")
        assert r1.contains({3, 5, 6, 8})

    def test_demo_row_missed_bubble(self):
        r1 = row_from_tokens("2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4")
        assert not r1.contains({3, 5, 6})


class TestSize:
    def test_powerset_size(self):
        assert Row.powerset(14).size() == 16384

    def test_demo_row_size(self):
        # 2^3 * 3 * 3 * 15 * 7
        r1 = row_from_tokens("2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4")
        assert r1.size() == 7560

    def test_single_bubble(self):
        assert row_from_tokens("e1 e1").size() == 3

    def test_cardinality_bounds(self):
        r5 = row_from_tokens("2 2 0 0 0 0 0 1 1 1 e1 e1 2 2")
        assert r5.c_min == 4
        r1 = row_from_tokens("2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4")
        assert (r1.c_min, r1.c_max) == (4, 14)
        free = Row.powerset(6)
        assert (free.c_min, free.c_max) == (0, 6)


class TestCounting:
    # the four-bubble row with block sizes 2, 3, 3, 4
    R0 = row_from_tokens("e1 e1 e2 e2 e2 e3 e3 e3 e4 e4 e4 e4")

    def test_coefficient_vector(self):
        assert size_counts((self.R0,), 12, 12) == [0, 0, 0, 0, 72, 288, 534,
                                                   594, 431, 208, 65, 12, 1]

    def test_segment_prefix_counts(self):
        assert bubble_segment_counts([2, 3, 3, 4], 5) == [
            [0, 2, 1, 0, 0, 0],
            [0, 0, 6, 9, 5, 1],
            [0, 0, 0, 18, 45, 48],
            [0, 0, 0, 0, 72, 288],
        ]

    def test_minimum_size_count_is_product_of_bubble_sizes(self):
        assert self.R0.count_of_size(4) == 2 * 3 * 3 * 4

    def test_maximum_size_count_is_one(self):
        assert self.R0.count_of_size(12) == 1
        r1 = row_from_tokens("2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4")
        assert r1.count_of_size(r1.c_max) == 1

    def test_counts_sum_to_size(self):
        assert sum(size_counts((self.R0,), 12, 12)) == self.R0.size() == 2205

    def test_size_zero_count(self):
        assert Row.powerset(3).count_of_size(0) == 1
        assert row_from_tokens("1 2").count_of_size(0) == 0
        assert row_from_tokens("e1 e1").count_of_size(0) == 0

    def test_counts_wider_than_64_bits(self):
        assert size_counts((Row.powerset(200),), 200, 200) == \
            [comb(200, k) for k in range(201)]

    def test_counts_against_brute_force(self):
        r = row_from_tokens("2 e1 e1 0 e1 1 2")
        expected = [len(brute_members(r, k)) for k in range(8)]
        assert size_counts((r,), 7, 7) == expected

    def test_binomial_row(self):
        # a free block counts by a full binomial row, a bubble by one
        # without the empty pick
        assert size_counts((Row.powerset(5),), 5, 5) == [1, 5, 10, 10, 5, 1]
        assert size_counts((Row.powerset(0),), 0, 0) == [1]
        assert bubble_segment_counts([5], 5) == [[0, 5, 10, 10, 5, 1]]


class TestGeneration:
    def test_pick_order_on_demo_row(self):
        r = row_from_tokens("2 e2 e1 2 1 e2 e1 0 e2")
        assert r.parts[3] == (vertex_mask({3, 7}), vertex_mask({2, 6, 9}))
        out = list(r.members_of_size(6))
        assert [set(x) for x in out[:3]] == [
            {5, 1, 4, 3, 7, 2}, {5, 1, 4, 3, 7, 6}, {5, 1, 4, 3, 7, 9}]
        assert len(out) == 20
        assert sorted(out) == sorted(brute_members(r, 6))

    def test_single_bubble(self):
        r = row_from_tokens("e1 e1")
        assert list(r.members_of_size(1)) == [(1,), (2,)]
        assert list(r.members_of_size(2)) == [(1, 2)]

    def test_out_of_range_k(self):
        r = row_from_tokens("e1 e1")
        assert list(r.members_of_size(0)) == []
        assert list(r.members_of_size(3)) == []

    def test_only_forced_positions(self):
        r = row_from_tokens("0 1 1")
        assert list(r.members_of_size(2)) == [(2, 3)]
        assert list(r.members_of_size(1)) == []

    def test_empty_set_generation(self):
        assert list(Row.powerset(3).members_of_size(0)) == [()]

    @pytest.mark.parametrize("tokens, first", [
        ("2 " * 20 + "e1 e1", [(*range(11, 21), 21), (*range(11, 21), 22),
                               (10, *range(12, 21), 21)]),
        ("e1 " * 22 + "e2 e2", [(*range(13, 23), 23), (*range(13, 23), 24),
                                (12, *range(14, 23), 23)]),
    ], ids=["free-block", "bubble"])
    def test_first_members_come_in_small_memory(self, tokens, first):
        # the first block alone has C(20, 10) + C(20, 9) or C(22, 10) + C(22, 9) picks
        r = row_from_tokens(tokens)
        tracemalloc.start()
        try:
            got = list(itertools.islice(r.members_of_size(11), 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == first
        assert peak < 1 << 20

    def test_deep_picks_stay_flat(self):
        # 1 399- and 1 398-position picks from a 1 498-position free block:
        # a generator nested once per picked position would overflow the stack
        r = row_from_tokens("2 " * 1498 + "e1 e1")
        start = time.perf_counter()
        got = list(itertools.islice(r.members_of_size(1400), 200))
        elapsed = time.perf_counter() - start
        assert got[:2] == [tuple(range(100, 1500)), (*range(100, 1499), 1500)]
        assert len(got) == 200
        assert elapsed < 0.5

    def test_matches_counts(self):
        r = row_from_tokens("2 e2 e1 2 1 e2 e1 0")
        for k in range(9):
            got = list(r.members_of_size(k))
            assert len(got) == r.count_of_size(k)
            assert len(set(got)) == len(got)
            assert all(len(x) == k and r.contains(x) for x in got)


class TestFullExpansion:
    def test_powerset(self):
        assert sorted(Row.powerset(3).members()) == sorted(
            brute_members(Row.powerset(3)))

    def test_single_bubble(self):
        assert sorted(row_from_tokens("e1 e1").members()) == [
            (1,), (1, 2), (2,)]

    def test_demo_row_expands_to_size(self):
        r1 = row_from_tokens("2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4")
        members = list(r1.members())
        assert len(members) == 7560
        assert len(set(members)) == 7560
        assert all(r1.contains(x) for x in members)


class TestSurgery:
    def test_demo_filter_chain(self):
        r1 = row_from_tokens("2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4")
        got = restrict(r1.parts, vertex_mask({8, 9}), vertex_mask({7}))
        assert Row(r1.w, *got).render() == "2 2 e1 e1 e2 e3 0 1 1 e2 e3 e3 2 2"

    def test_demo_filter_chain_collapses_bubbles(self):
        r3 = row_from_tokens("2 2 0 0 0 e1 e1 e2 1 1 2 2 e2 2")
        got = restrict(r3.parts, vertex_mask({8, 9}), vertex_mask({7}))
        assert Row(r3.w, *got).render() == "2 2 0 0 0 1 0 1 1 1 2 2 2 2"

    def test_require_is_idempotent_on_ones(self):
        r = row_from_tokens("1 2 2")
        assert restrict(r.parts, vertex_mask({1}), 0) is r.parts

    def test_forbid_is_idempotent_on_zeros(self):
        r = row_from_tokens("0 2 2")
        assert restrict(r.parts, 0, vertex_mask({1})) is r.parts

    def test_dead_results(self):
        r = row_from_tokens("0 1 2")
        assert restrict(r.parts, vertex_mask({1}), 0) is None
        assert restrict(r.parts, 0, vertex_mask({2})) is None

    def test_free_position_moves(self):
        r = row_from_tokens("2 2 2")
        assert restrict(r.parts, vertex_mask({2}), 0)[1] == vertex_mask({2})
        assert restrict(r.parts, 0, vertex_mask({2}))[0] == vertex_mask({2})

    def test_cut_meeting_no_bubble_keeps_the_bubbles(self):
        # the bubbles come back as the same tuple, with no walk over them
        r = row_from_tokens("2 e1 e1 1 e2 e2 2")
        got = restrict(r.parts, vertex_mask({1}), vertex_mask({7}))
        assert got[:3] == (vertex_mask({7}), vertex_mask({1, 4}), 0)
        assert got[3] is r.parts[3]

    def test_bubble_hit_releases_rest(self):
        r = row_from_tokens("e1 e1 e1 e1")
        _, ones, twos, bubbles = restrict(r.parts, vertex_mask({2}), 0)
        assert ones == vertex_mask({2})
        assert twos == vertex_mask({1, 3, 4}) and not bubbles

    def test_forbid_shrinks_bubble_to_forced(self):
        r = row_from_tokens("e1 e1")
        zeros, ones, _, _ = restrict(r.parts, 0, vertex_mask({1}))
        assert zeros == vertex_mask({1}) and ones == vertex_mask({2})

    def test_unknown_vertex(self):
        # a bit outside 1..w fails the constructor's partition check
        with pytest.raises(ValueError, match="do not partition"):
            Row(2, *restrict(row_from_tokens("2 2").parts, vertex_mask({9}), 0))
        for require, forbid in ((1, 0), (0, 1)):
            with pytest.raises(ValueError, match="do not partition"):
                Row(3, *restrict(Row.powerset(3).parts, require, forbid))

    def test_overlapping_masks(self):
        with pytest.raises(ValueError, match="overlap"):
            Row(3, *restrict(Row.powerset(3).parts, vertex_mask({2}), vertex_mask({2})))

    @pytest.mark.parametrize("v", range(1, 8))
    def test_matches_brute_filter(self, v):
        r = row_from_tokens("2 e1 e1 0 e1 1 2")
        kept = restrict(r.parts, vertex_mask({v}), 0)
        expected = sorted(x for x in brute_members(r) if v in x)
        assert sorted(Row(r.w, *kept).members() if kept else []) == expected
        dropped = restrict(r.parts, 0, vertex_mask({v}))
        expected = sorted(x for x in brute_members(r) if v not in x)
        assert sorted(Row(r.w, *dropped).members() if dropped else []) == expected


class TestTokens:
    def test_round_trip(self):
        text = "2 2 0 0 1 e1 e1 e2 1 2 e1 e1 e2 e2"
        assert row_from_tokens(text).render() == text

    def test_rendering_renumbers_by_least_element(self):
        assert row_from_tokens("2 e2 e1 2 1 e2 e1 0 e2").render() == \
            "2 e1 e2 2 1 e1 e2 0 e1"

    def test_bare_e_is_one_bubble(self):
        r = row_from_tokens("e 2 e")
        assert r.parts[3] == (vertex_mask({1, 3}),)

    def test_bad_token(self):
        with pytest.raises(ValueError):
            row_from_tokens("2 x 1")
