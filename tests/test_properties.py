"""Randomized invariants for rows, the engine and the analytics layer,
cross-checked against the brute-force and inclusion-exclusion oracles."""

import contextlib
import io
import itertools
import json
import pathlib
import tempfile
from unittest import mock

from hypothesis import assume, event, example, given, settings
import hypothesis.strategies as st
import pytest

from transversals import (Hypergraph, HypergraphError, Row, Spectrum,
                          Tally, brute_transversals, count_at_least,
                          count_exactly, count_total, filter_family,
                          final_parts, impose,
                          inclusion_exclusion_count, is_feasible,
                          load_hypergraph, parse_hypergraph, render_hypergraph,
                          row_from_tokens, run, spectrum, subset_reduced,
                          superset_reduced, transversal_number,
                          transversals_of_size, vertex_mask)
from transversals.analytics import filter_rows
from transversals.cli import main
from transversals.rows import _REPLAY, _tails, _vertices, render, restrict, size_counts
from conftest import (brute_members, drain, is_member, mask_vertices,
                      reference_bound, reference_run)


@given(st.one_of(st.integers(0, 1 << 3000),
                 st.integers(0, 3000).map(lambda n: 1 << n),
                 st.integers(0, 3000).map(lambda n: (1 << n) - 1)))
@example(0)
@example(1 << 3000)
@example((1 << 3001) - 1)
def test_vertices_decodes_every_set_bit(mask):
    assert _vertices(mask) == sorted(mask_vertices(mask))


def mask_by_shifts(vertices):
    """The bitmask of a vertex set, one bit set at a time."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


@given(st.lists(st.one_of(st.integers(1, 70), st.integers(1, 1 << 16))),
       st.booleans())
@example([], False)
@example([], True)
@example([3, 3, 1, 3], False)
@example([1 << 16, 1, 1 << 16], True)
def test_vertex_mask_matches_shifts(vertices, as_generator):
    source = (v for v in vertices) if as_generator else vertices
    assert vertex_mask(source) == mask_by_shifts(vertices)


@st.composite
def rows_st(draw, min_w=0, max_w=8, max_label=6):
    # labels 0, 1, 2 for the 0s, 1s and 2s, and 3..max_label for bubbles
    w = draw(st.integers(min_w, max_w))
    labels = draw(st.lists(st.integers(0, max_label), min_size=w, max_size=w))
    zeros, ones, twos = set(), set(), set()
    groups: dict[int, set] = {}
    for v, label in zip(range(1, w + 1), labels):
        if label == 0:
            zeros.add(v)
        elif label == 1:
            ones.add(v)
        elif label == 2:
            twos.add(v)
        else:
            groups.setdefault(label, set()).add(v)
    return Row(w, vertex_mask(zeros), vertex_mask(ones), vertex_mask(twos),
               map(vertex_mask, groups.values()))


@st.composite
def hypergraphs_st(draw, max_w=8, max_h=5):
    w = draw(st.integers(1, max_w))
    edges = draw(st.lists(
        st.frozensets(st.integers(1, w), min_size=1, max_size=w),
        max_size=max_h))
    return Hypergraph(w, tuple(tuple(sorted(e)) for e in edges))


# ----- row invariants ------------------------------------------------------

@given(rows_st())
def test_row_parts_partition_ground_set(r):
    zeros, ones, twos, bubbles = r
    parts = [mask_vertices(m) for m in (zeros, ones, twos, *bubbles)]
    assert sum(len(p) for p in parts) == r.w
    assert frozenset().union(*parts) == frozenset(range(1, r.w + 1))


def reference_size_counts(rows, w):
    """The full digits the plain way: each row's size polynomial evaluated
    at X = 2^(w + 1) with whole powers, summed and cut into w + 1 digits."""
    bits = w + 1
    x = 1 << bits
    value = 0
    for _, ones, twos, bubbles in rows:
        term = (x + 1) ** twos.bit_count() << bits * ones.bit_count()
        for bubble in bubbles:
            term *= (x + 1) ** bubble.bit_count() - 1
        value += term
    return [(value >> j * bits) & (x - 1) for j in range(w + 1)]


def digits_up_to(counts, limit):
    """counts[0..limit], zero past the end; empty for a negative limit."""
    return (counts + [0] * max(limit + 1 - len(counts), 0))[:max(limit + 1, 0)]


@given(rows_st())
def test_counts_sum_to_size(r):
    assert sum(size_counts((r,), r.w, r.w)) == r.size()


@given(rows_st())
def test_counts_match_brute_force(r):
    # for every limit, the bounded digits are the full ones, zero-padded
    by_size = [0] * (r.w + 1)
    for x in brute_members(r.w, r.parts):
        by_size[len(x)] += 1
    assert reference_size_counts((r,), r.w) == by_size
    for limit in range(-1, r.w + 3):
        assert size_counts((r,), r.w, limit) == digits_up_to(by_size, limit)


@settings(max_examples=60)
@given(hypergraphs_st())
def test_bounded_counts_of_a_stream_are_the_full_digits(hg):
    by_size = [0] * (hg.w + 1)
    for x in brute_transversals(hg):
        by_size[len(x)] += 1
    assert reference_size_counts(final_parts(hg), hg.w) == by_size
    for limit in range(-1, hg.w + 3):
        assert size_counts(final_parts(hg), hg.w, limit) == digits_up_to(by_size, limit)


@given(rows_st(min_w=60, max_w=140), st.integers(-1, 3))
def test_bounded_counts_of_wide_rows(r, limit):
    # a limit <= 3 reads digits of about limit * log2(w) bits, not w + 1;
    # the all-free row has the most members of each size, C(w, j)
    for row in r, Row.powerset(r.w):
        full = reference_size_counts((row,), r.w)
        assert size_counts((row,), r.w, limit) == digits_up_to(full, limit)


@given(rows_st())
def test_minimum_size_count_is_bubble_product(r):
    product = 1
    for bubble in r.parts[3]:
        product *= bubble.bit_count()
    assert r.count_of_size(r.c_min) == product


def assert_round_trip(w, parts):
    """``render`` of the parts is the text of the validated row they build,
    and that text parses back to the row."""
    row = Row(w, *parts)
    text = render(w, parts)
    assert text == row.render()
    assert row_from_tokens(text) == row


@given(rows_st())
def test_tokens_round_trip(r):
    assert_round_trip(r.w, r.parts)


@given(hypergraphs_st(), st.data())
def test_tokens_round_trip_of_engine_parts(hg, data):
    # the parts that rows and query render unbuilt: every final row, and
    # its cut by each single vertex required or forbidden and by a drawn
    # pair of conditions
    require = data.draw(st.frozensets(st.integers(1, hg.w)), label="require")
    forbid = data.draw(st.frozensets(st.integers(1, hg.w)), label="forbid") - require
    cuts = [(vertex_mask(require), vertex_mask(forbid))]
    for v in range(1, hg.w + 1):
        cuts += [(vertex_mask({v}), 0), (0, vertex_mask({v}))]
    for parts in final_parts(hg):
        assert_round_trip(hg.w, parts)
        for cut in filter(None, (restrict(parts, *masks) for masks in cuts)):
            assert_round_trip(hg.w, cut)


@given(rows_st(), st.integers(0, 8))
def test_generation_is_exact(r, k):
    got = list(r.members_of_size(k))
    assert len(got) == len(set(got)) == r.count_of_size(k)
    assert all(len(x) == k and is_member(r.parts, x) for x in got)


def reference_members_of_size(row, k):
    """members_of_size's order, written out recursively with whole lists:
    the free block, then the bubbles in stored order; every block but the
    last takes its pick sizes from hi down to lo and each size in reverse
    lexicographic order, the last takes the remaining positions in
    lexicographic order."""
    _, ones, twos, bubbles = row
    blocks = [tuple(sorted(mask_vertices(m))) for m in (twos, *bubbles)]

    def walk(p, acc, need):
        if p == len(blocks):
            yield tuple(sorted(acc))
            return
        later = blocks[p + 1:]
        hi = min(len(blocks[p]), need - len(later))
        lo = max(1 if p else 0, need - sum(map(len, later)))
        picks = [pick for d in range(lo, hi + 1)
                 for pick in itertools.combinations(blocks[p], d)]
        if later:
            picks.reverse()
        for pick in picks:
            yield from walk(p + 1, acc + pick, need - len(pick))

    forced = tuple(mask_vertices(ones))
    return walk(0, forced, k - len(forced))


@settings(max_examples=300)
@given(rows_st(max_w=10), st.data())
def test_generation_order_matches_reference(r, data):
    # any stored bubble order, not only the canonical one rows_st gives
    zeros, ones, twos, bubbles = r
    r = Row(r.w, zeros, ones, twos, data.draw(st.permutations(bubbles)))
    # k in -1..w+1, mostly a size the row has members of
    k = data.draw(st.integers(r.c_min, r.c_max) | st.integers(-1, r.w + 1))
    assert list(r.members_of_size(k)) == list(reference_members_of_size(r, k))


@pytest.mark.parametrize("cap", [0, 5], ids=["walked", "tiny"])
@settings(max_examples=200)
@given(rows_st(max_w=10), st.data())
def test_generation_order_with_small_replay_cap(cap, r, data):
    # cap 0 walks every tail again for each free pick; a tiny cap lists
    # some tails and walks others
    zeros, ones, twos, bubbles = r
    r = Row(r.w, zeros, ones, twos, data.draw(st.permutations(bubbles)))
    k = data.draw(st.integers(r.c_min, r.c_max) | st.integers(-1, r.w + 1))
    with mock.patch("transversals.rows._REPLAY", cap):
        got = list(r.members_of_size(k))
    assert got == list(reference_members_of_size(r, k))


@pytest.mark.parametrize("cap", [0, 5, _REPLAY], ids=["walked", "tiny", "real"])
@settings(max_examples=200)
@given(rows_st(min_w=3, max_w=10), st.data())
def test_generation_order_at_c_min(cap, r, data):
    # at k = c_min the members are the 1s joined with the bubbles' product,
    # whatever the cap; only rows with free positions and bubbles, whose
    # other sizes take free picks
    zeros, ones, twos, bubbles = r
    assume(twos and bubbles)
    r = Row(r.w, zeros, ones, twos, data.draw(st.permutations(bubbles)))
    with mock.patch("transversals.rows._REPLAY", cap):
        got = list(r.members_of_size(r.c_min))
    assert got == list(reference_members_of_size(r, r.c_min))


def test_generation_order_walks_long_tails_at_the_real_cap():
    # five 3-bubbles and three free positions, k = 7: the 243 tails of five
    # positions (free pick size 2) are listed; those of six positions
    # (size 1) are too long, so each free pick walks them; the one free
    # pick of size 0 walks the tails of seven positions once, unlisted
    r = row_from_tokens("e1 e1 e1 e2 e2 e2 e3 e3 e3 e4 e4 e4 e5 e5 e5 2 2 2")
    bubbles = [*map(_vertices, r.parts[3])]
    tails = [sum(1 for _ in _tails(bubbles, t)) for t in (5, 6, 7)]
    assert tails[0] == 243
    assert [n * t > _REPLAY for n, t in zip(tails, (5, 6, 7))] == [False, True, True]
    got = list(r.members_of_size(7))
    assert len(got) == 7209
    assert got == list(reference_members_of_size(r, 7))


@given(rows_st())
def test_full_expansion_is_exact(r):
    assert sorted(itertools.chain.from_iterable(
        map(r.members_of_size, range(r.w + 1)))) == brute_members(r.w, r.parts)


@given(rows_st(min_w=1), st.data())
def test_surgery_matches_brute_filter(r, data):
    v = data.draw(st.integers(1, r.w))
    kept = restrict(r.parts, vertex_mask({v}), 0)
    assert sorted(itertools.chain.from_iterable(
        map(Row(r.w, *kept).members_of_size, range(r.w + 1))) if kept else []) == \
        [x for x in brute_members(r.w, r.parts) if v in x]
    dropped = restrict(r.parts, 0, vertex_mask({v}))
    assert sorted(itertools.chain.from_iterable(
        map(Row(r.w, *dropped).members_of_size, range(r.w + 1))) if dropped else []) == \
        [x for x in brute_members(r.w, r.parts) if v not in x]


def require_one(row, v):
    """The deleted single-vertex rule: members containing v."""
    bit = 1 << v
    zeros, ones, twos, bubbles = row
    if bit & zeros:
        return None
    if bit & ones:
        return row
    if bit & twos:
        return Row(row.w, zeros, ones | bit, twos ^ bit, bubbles)
    i = next(i for i, b in enumerate(bubbles) if bit & b)
    return Row(row.w, zeros, ones | bit, twos | bubbles[i] ^ bit,
               bubbles[:i] + bubbles[i + 1:])


def forbid_one(row, v):
    """The deleted single-vertex rule: members avoiding v."""
    bit = 1 << v
    zeros, ones, twos, bubbles = row
    if bit & ones:
        return None
    if bit & zeros:
        return row
    if bit & twos:
        return Row(row.w, zeros | bit, ones, twos ^ bit, bubbles)
    i = next(i for i, b in enumerate(bubbles) if bit & b)
    # the constructor promotes a one-position remainder to a forced 1
    return Row(row.w, zeros | bit, ones, twos,
               bubbles[:i] + (bubbles[i] ^ bit,) + bubbles[i + 1:])


@settings(max_examples=300)
@given(rows_st(min_w=1, max_w=10), st.data())
def test_restrict_matches_single_vertex_surgery(r, data):
    # any stored bubble order, not only the canonical one rows_st gives
    zeros, ones, twos, bubbles = r
    r = Row(r.w, zeros, ones, twos, data.draw(st.permutations(bubbles)))
    require = data.draw(st.frozensets(st.integers(1, r.w)))
    forbid = data.draw(st.frozensets(st.integers(1, r.w))) - require
    expected = r
    for cut, v in ([(require_one, v) for v in sorted(require)]
                   + [(forbid_one, v) for v in sorted(forbid)]):
        expected = cut(expected, v)
        if expected is None:
            break
    got = restrict(r.parts, vertex_mask(require), vertex_mask(forbid))
    assert (got is None) == (expected is None)
    if got is not None:
        assert got == expected.parts
        assert (got is r.parts) == (expected is r)
    assert sorted(itertools.chain.from_iterable(
        map(Row(r.w, *got).members_of_size, range(r.w + 1))) if got else []) == [
        x for x in brute_members(r.w, r.parts)
        if require <= set(x) and forbid.isdisjoint(x)]


def reference_restrict(row, require, forbid):
    """The deleted method ``Row.restrict``: the cut built through the
    constructor, which promotes a one-position rest; None if no member
    passes, the row itself if all do."""
    zeros, ones, twos, bubbles = row
    if require & zeros or forbid & ones:
        return None
    cut = require | forbid
    if not cut & ~(zeros | ones):
        return row
    freed, kept = 0, []
    for bubble in bubbles:
        if bubble & require:
            freed |= bubble
        elif bubble & ~forbid:
            kept.append(bubble & ~forbid)
        else:
            return None
    return Row(row.w, zeros | forbid, ones | require, (twos | freed) & ~cut, kept)


def cut_masks(r, data):
    """Disjoint require and forbid masks over 1..w for the row r: each
    position open, required or forbidden, and some bubbles forbidden whole
    or all but their first position, so that wide rows also get dead
    bubbles and one-position rests."""
    marks = data.draw(st.lists(st.sampled_from((0, 0, 1, 2)), min_size=r.w, max_size=r.w))
    require = {v for v, mark in enumerate(marks, start=1) if mark == 1}
    forbid = {v for v, mark in enumerate(marks, start=1) if mark == 2}
    for bubble in r.parts[3]:
        spare = data.draw(st.none() | st.integers(0, 1))
        if spare is not None:
            block = sorted(mask_vertices(bubble))
            require -= set(block)
            forbid |= set(block[spare:])
    return vertex_mask(require), vertex_mask(forbid)


@settings(max_examples=300)
@given(st.one_of(rows_st(), rows_st(min_w=60, max_w=140)), st.data())
def test_restrict_matches_the_row_method(r, data):
    zeros, ones, twos, bubbles = r
    r = Row(r.w, zeros, ones, twos, data.draw(st.permutations(bubbles)))
    require, forbid = cut_masks(r, data)
    got = restrict(r.parts, require, forbid)
    expected = reference_restrict(r, require, forbid)
    assert (got is None) == (expected is None)
    assert (got is r.parts) == (expected is r)
    if got is not None:
        # equal with the bubbles in order, and already normal
        assert got == expected.parts
        assert Row(r.w, *got).parts == got


# ----- imposition and the engine -------------------------------------------

@given(rows_st(min_w=1), st.data())
def test_impose_splits_hitters_disjointly(r, data):
    edge = data.draw(st.frozensets(st.integers(1, r.w), min_size=1))
    sons = impose(r, vertex_mask(edge))
    expanded = [x for son in sons for k in range(r.w + 1)
                for x in Row(r.w, *son).members_of_size(k)]
    assert len(expanded) == len(set(expanded))
    assert sorted(expanded) == [x for x in brute_members(r.w, r.parts) if set(x) & edge]


@given(rows_st(min_w=1, max_w=10), st.data())
def test_packing_bound_is_sound(r, data):
    # short edges often lie inside zeros and twos, so some get packed
    pending = data.draw(st.lists(st.integers(1, r.w).flatmap(
        lambda n: st.frozensets(st.integers(1, r.w), min_size=1, max_size=n)),
        max_size=6).map(lambda edges: [vertex_mask(e) for e in edges]))
    bound = reference_bound(r, pending)
    feasible = is_feasible(r, pending)
    # the engine's LB is the least k it accepts; an infeasible row has none
    accepted = [k for k in range(r.w + 2) if is_feasible(r, pending, k)]
    assert accepted == (list(range(bound, r.w + 2)) if feasible else [])
    hitting = [len(x) for x in brute_members(r.w, r.parts)
               if all(edge & vertex_mask(x) for edge in pending)]
    assert bool(hitting) == feasible
    if hitting:
        assert bound <= min(hitting)
    zeros, _, twos, _ = r
    if all(edge & ~(zeros | twos) for edge in pending):
        assert bound == r.c_min


@given(rows_st(min_w=60, max_w=140), st.data())
def test_wide_rows_split_and_filter_by_size(r, data):
    # past bit 64 the members cannot be listed, so check sizes: the sons
    # hold the members hitting the edge, the surgery halves partition r
    edge = data.draw(st.frozensets(st.integers(1, r.w), min_size=1, max_size=8))
    missed = restrict(r.parts, 0, vertex_mask(edge))
    assert sum(Row(r.w, *son).size() for son in impose(r, vertex_mask(edge))) == \
        r.size() - (Row(r.w, *missed).size() if missed else 0)
    # the one scan with its negative mask ~(zeros | twos): an edge is
    # feasible iff it leaves the zeros, and with no pending edge LB = c_min
    assert is_feasible(r, [vertex_mask(edge)]) == bool(vertex_mask(edge) & ~r.parts[0])
    k = data.draw(st.integers(0, r.w + 1))
    assert is_feasible(r, [], k) == (k >= r.c_min)
    v = data.draw(st.integers(1, r.w))
    halves = [Row(r.w, *half) for half in (restrict(r.parts, vertex_mask({v}), 0),
                                           restrict(r.parts, 0, vertex_mask({v})))
              if half]
    assert sum(half.size() for half in halves) == r.size()
    assert all(is_member(half.parts, next(half.members_of_size(half.c_min)))
               for half in halves)


def reference_impose(row, edge):
    """The sons built from one ``cut`` list, part in place of its bubble and
    rests shrinking in place, leaving one-position bubbles to the
    constructor's promotion."""
    zeros, ones, twos, bubbles = row
    if edge & ones or any(b & edge == b for b in bubbles):
        return [row]
    cut = list(bubbles)
    sons = []
    for i, bubble in enumerate(bubbles):
        part = bubble & edge
        if part:
            cut[i] = part
            sons.append(Row(row.w, zeros, ones, twos | bubble ^ part, cut))
            zeros |= part
            cut[i] = bubble ^ part
    free_hit = twos & edge
    if free_hit:
        sons.append(Row(row.w, zeros, ones, twos ^ free_hit, cut + [free_hit]))
    return sons


@given(rows_st(min_w=1) | rows_st(min_w=60, max_w=140), st.data())
def test_impose_builds_the_reference_sons_already_normal(r, data):
    # any stored bubble order, not only the canonical one rows_st gives
    zeros, ones, twos, bubbles = r
    r = Row(r.w, zeros, ones, twos, data.draw(st.permutations(bubbles)))
    # few positions, so that wide rows split rather than pass through
    edge = vertex_mask(data.draw(
        st.frozensets(st.integers(1, r.w), min_size=1, max_size=8)))
    got, want = impose(r, edge), reference_impose(r, edge)
    sons = list(map(tuple, got))
    assert sons == list(map(tuple, want))
    # the row itself comes back exactly when the reference passes it through
    assert [son is r for son in got] == [son is r for son in want]
    # the constructor takes every son as it is: a valid partition, no
    # one-position bubble to promote, the stored bubble order kept
    assert all(tuple(Row(r.w, *son)) == son for son in sons)


@given(rows_st(min_w=1) | rows_st(min_w=60, max_w=140), st.data())
def test_impose_on_an_edge_missing_every_bubble(r, data):
    # an edge of 0s and 2s only: impose skips the bubbles and builds the
    # free son alone, if the edge meets the 2s, with the bubbles in order
    zeros, ones, twos, bubbles = r
    r = Row(r.w, zeros, ones, twos, data.draw(st.permutations(bubbles)))
    outside = sorted(mask_vertices(zeros | twos))
    assume(bubbles and outside)
    edge = vertex_mask(data.draw(
        st.frozensets(st.sampled_from(outside), min_size=1, max_size=8)))
    sons = list(map(tuple, impose(r, edge)))
    event("free son" if sons else "edge inside the 0s")
    assert sons == list(map(tuple, reference_impose(r, edge)))


@given(rows_st(min_w=4, max_w=14, max_label=5), st.data())
def test_later_sons_fail_only_on_edges_meeting_the_split_edge(r, data):
    # step (6) of the run loop: the row r is admissible (no pending edge
    # inside its zeros) and the edge leaves its zeros; a son's new zeros lie
    # in the edge, so the pending edges missing it cannot fail the son
    # an edge missing the 1s, so that it mostly splits the row
    zeros, ones, _, _ = r
    off = sorted(mask_vertices(~ones & (1 << r.w + 1) - 2))
    assume(off)
    edge = vertex_mask(data.draw(st.frozensets(st.sampled_from(off), min_size=1, max_size=4)))
    assume(edge & ~zeros)
    sons = list(map(tuple, impose(r, edge)))
    # parts of the sons' zeros fail some sons; any other edges are drawn too
    cuts = [sorted(mask_vertices(son[0])) for son in sons if son[0] != zeros]
    vertices = st.frozensets(st.integers(1, r.w), min_size=1, max_size=3)
    drawn = data.draw(st.lists(st.one_of(vertices, *(
        st.frozensets(st.sampled_from(z), min_size=1, max_size=3) for z in cuts)), max_size=8))
    pending = [e for e in map(vertex_mask, drawn) if e & ~zeros]
    meeting = [e for e in pending if e & edge]
    for son in sons:
        feasible = is_feasible(son, pending)
        event("a son fails" if not feasible else "a son passes")
        assert is_feasible(son, meeting) == feasible


@settings(max_examples=60)
@given(hypergraphs_st())
def test_engine_matches_brute_force(hg):
    family = run(hg)
    expanded = [x for row in family.rows for k in range(row.w + 1)
                for x in row.members_of_size(k)]
    assert len(expanded) == len(set(expanded))
    assert sorted(expanded) == brute_transversals(hg)
    for row in family.rows:
        assert is_feasible(row, map(vertex_mask, hg.edges))


@settings(max_examples=60)
@given(hypergraphs_st(), st.booleans())
def test_size_window_keeps_full_run_rows_holding_size_k(hg, size_asc):
    if size_asc:
        hg = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    full = run(hg)
    for k in range(hg.w + 1):
        parts, _ = drain(final_parts(hg, k))
        window = [Row(hg.w, *p) for p in parts]
        assert tuple(window) == tuple(
            row for row in full.rows if row.c_min <= k <= row.c_max)
        members = [x for r in window for x in r.members_of_size(k)]
        assert members == list(transversals_of_size(full, k))


@settings(max_examples=60)
@given(hypergraphs_st(), st.integers(0, 8))
def test_size_window_members_match_brute_force(hg, k):
    parts, _ = drain(final_parts(hg, k))
    got = [x for p in parts for x in Row(hg.w, *p).members_of_size(k)]
    assert len(got) == len(set(got))
    assert sorted(got) == [x for x in brute_transversals(hg) if len(x) == k]


@settings(max_examples=80)
@given(hypergraphs_st(max_w=9, max_h=7), st.booleans(),
       st.none() | st.integers(0, 10))
# two splits in a row with later sons: the split at {2, 3, 4, 5} zeroes 4
# and 5 in its second son, which {4} then lies inside; the edges listed for
# the split before, at {2, 3, 6}, would not prune it
@example(Hypergraph(7, ((3, 4, 5, 7), (2, 3, 6), (2, 3, 4, 5), (4,), (7,))), False, None)
def test_run_matches_reference_loop(hg, size_asc, k):
    if size_asc:
        hg = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    parts, stats = drain(final_parts(hg, k))
    ref_rows, ref_stats = reference_run(hg, k)
    assert [Row(hg.w, *p).render() for p in parts] == [row.render() for row in ref_rows]
    assert (stats.impositions, stats.s_max, stats.max_stack) == ref_stats


@settings(max_examples=60)
@given(hypergraphs_st())
def test_engine_stats_bounds(hg):
    family = run(hg)
    stats = family.stats
    assert stats.impositions <= len(family.rows) * hg.h
    assert stats.s_max <= hg.d + 1
    assert stats.max_stack <= hg.h * stats.s_max + 1


# ----- analytics ------------------------------------------------------------

@settings(max_examples=60)
@given(hypergraphs_st())
def test_counters_agree(hg):
    family = run(hg)
    total = count_total(family)
    assert total == len(brute_transversals(hg))
    assert total == inclusion_exclusion_count(hg)


@settings(max_examples=60)
@given(hypergraphs_st())
def test_spectrum_matches_inclusion_exclusion(hg):
    sp = spectrum(run(hg))
    for k in range(hg.w + 1):
        assert sp.counts[k] == inclusion_exclusion_count(hg, k)


@settings(max_examples=40)
@given(hypergraphs_st(), st.integers(-2, 12))
def test_count_at_least_is_spectrum_tail(hg, k):
    # k < 0 asks for every transversal, k > w for none
    family = run(hg)
    assert count_at_least(family, k) == sum(spectrum(family).counts[max(k, 0):])


@settings(max_examples=40)
@given(hypergraphs_st(), st.integers(0, 8))
def test_generation_across_rows_is_exact(hg, k):
    family = run(hg)
    got = list(transversals_of_size(family, k))
    assert len(got) == len(set(got))
    assert sorted(got) == [x for x in brute_transversals(hg) if len(x) == k]


@settings(max_examples=40)
@given(hypergraphs_st())
def test_transversal_number_matches_spectrum(hg):
    family = run(hg)
    k_min, tau_min = transversal_number(family)
    sp = spectrum(family)
    assert sp.counts[k_min] == tau_min
    assert all(c == 0 for c in sp.counts[:k_min])


@settings(max_examples=60)
@given(hypergraphs_st(), st.data())
def test_kept_answers_match_fresh_folds_in_any_order(hg, data):
    # a stored family keeps each answer after its first fold; asked in a
    # drawn order and twice over, with k below 0, within 0..w and past w,
    # each answer is the fresh family's and the brute-force count by size
    family = run(hg)
    by_size = [0] * (hg.w + 1)
    for x in brute_transversals(hg):
        by_size[len(x)] += 1
    k_min = min(j for j, n in enumerate(by_size) if n)
    ks = data.draw(st.lists(st.integers(-2, hg.w + 2), min_size=1, max_size=6))
    asks = [("total", None), ("spectrum", None), ("number", None)]
    asks += [("at least", k) for k in ks]
    for name, k in data.draw(st.permutations(asks * 2)):
        fresh = run(hg)
        if name == "total":
            assert count_total(family) == count_total(fresh) == sum(by_size)
        elif name == "spectrum":
            assert spectrum(family) == spectrum(fresh) == \
                Spectrum(tuple(by_size), sum(by_size))
        elif name == "number":
            assert transversal_number(family) == transversal_number(fresh) == \
                (k_min, by_size[k_min])
        else:
            assert count_at_least(family, k) == count_at_least(fresh, k) == \
                sum(by_size[max(k, 0):])
    assert len(family._folds) <= hg.w + 3


# ----- streamed folds -------------------------------------------------------

@settings(max_examples=80)
@given(hypergraphs_st(), st.booleans(), st.none() | st.integers(0, 10))
def test_final_parts_are_the_final_rows_unbuilt(hg, size_asc, k):
    # the one engine stream yields each final row's parts, as the plain
    # tuple a Row stores; the constructor takes each one unchanged, run
    # stores the full run's rows built from them in order with the same
    # stats, and the folds read the parts as they read the rows or the
    # rows' parts
    if size_asc:
        hg = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    parts, stats = drain(final_parts(hg, k))
    rows = [Row(hg.w, *p) for p in parts]
    row_parts = [row.parts for row in rows]
    assert parts == [tuple(row) for row in rows] == row_parts
    for p in parts:
        assert type(p) is tuple
    full, full_stats = drain(final_parts(hg))
    family = run(hg)
    assert family.parts == tuple(full)
    assert family.rows == tuple(Row(hg.w, *p) for p in full)
    assert [row.parts for row in family.rows] == full
    assert family.stats == full_stats
    if k is None:
        assert stats == full_stats

    by_parts, by_rows, by_row_parts = Tally.of(parts), Tally.of(rows), Tally.of(row_parts)
    assert (by_parts.r_final, by_parts.n_total, by_parts.k_min, by_parts.tau_min) == \
        (by_rows.r_final, by_rows.n_total, by_rows.k_min, by_rows.tau_min) == \
        (by_row_parts.r_final, by_row_parts.n_total, by_row_parts.k_min,
         by_row_parts.tau_min)
    sp = Spectrum.of(parts, hg.w)
    assert sp == Spectrum.of(rows, hg.w) == Spectrum.of(row_parts, hg.w)
    limit = hg.w if k is None else k
    assert size_counts(parts, hg.w, limit) == size_counts(rows, hg.w, limit) == \
        size_counts(row_parts, hg.w, limit)

    by_size = [0] * (hg.w + 1)
    for x in brute_transversals(hg):
        by_size[len(x)] += 1
    if k is None:
        assert list(sp.counts) == by_size
        sizes = [j for j, n in enumerate(by_size) if n]
        assert (by_parts.n_total, by_parts.k_min, by_parts.tau_min) == \
            (sum(by_size), min(sizes, default=None),
             by_size[min(sizes)] if sizes else 0)
    else:
        # the size-k digit; past w, neither side has one
        assert sp.counts[k:k + 1] == tuple(by_size[k:k + 1])


@settings(max_examples=80)
@given(hypergraphs_st(), st.booleans(), st.none() | st.integers(0, 10),
       st.integers(-2, 10))
def test_streamed_fold_matches_stored_analytics(hg, size_asc, k, at_least):
    if size_asc:
        hg = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    full = run(hg)
    # the stream for k keeps the full run's rows holding a size-k member
    kept = [row for row in full.rows
            if k is None or row.c_min <= k <= row.c_max]
    parts, stats = drain(final_parts(hg, k))
    assert [Row(hg.w, *p).render() for p in parts] == [row.render() for row in kept]

    tally = Tally()
    sp = Spectrum.of(tally.tap(final_parts(hg, k)), hg.w)
    assert tally.stats == stats
    stored = Tally.of(kept)
    assert (tally.r_final, tally.n_total, tally.k_min, tally.tau_min) == \
        (len(kept), stored.n_total, stored.k_min, stored.tau_min)
    assert sp == Spectrum.of(kept, hg.w)

    if k is None:
        assert stats == full.stats
        assert tally.n_total == count_total(full)
        assert (tally.k_min, tally.tau_min) == transversal_number(full)
        assert sp == spectrum(full)
        assert sum(sp.counts[max(at_least, 0):]) == count_at_least(full, at_least)
    else:
        assert sp.counts[k:k + 1] == spectrum(full).counts[k:k + 1]


@given(st.integers(0, 7).flatmap(
    lambda w: st.lists(rows_st(min_w=w, max_w=w), max_size=6)))
def test_tally_of_any_rows(rows):
    # rows in any order, c_min rising or falling; the rows and their parts
    # tuples are folded alike
    k_min = min((row.c_min for row in rows), default=None)
    for view in (rows, [row.parts for row in rows]):
        tally = Tally.of(view)
        assert (tally.r_final, tally.n_total, tally.k_min, tally.stats) == \
            (len(rows), sum(row.size() for row in rows), k_min, None)
        assert tally.tau_min == sum(row.count_of_size(k_min) for row in rows)
    for row in rows:
        assert size_counts((row,), row.w) == size_counts((row.parts,), row.w)


@settings(max_examples=60)
@given(hypergraphs_st(), st.booleans(), st.integers(-1, 9))
def test_count_exactly_matches_inclusion_exclusion(hg, size_asc, k):
    if size_asc:
        hg = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    assert count_exactly(hg, k) == inclusion_exclusion_count(hg, k)


@settings(max_examples=50)
@given(hypergraphs_st(), st.data())
def test_filter_family_matches_brute_filter(hg, data):
    require = data.draw(st.frozensets(st.integers(1, hg.w)))
    forbid = data.draw(st.frozensets(
        st.integers(1, hg.w)).filter(lambda f: not (f & require)))
    family = run(hg)
    filtered = filter_family(family, require=require, forbid=forbid)
    # the stream filter cuts the same rows in the same order, into parts
    # the one validating constructor takes unchanged; a row all of whose
    # members pass (the 1s hold require, the zeros hold forbid) comes back
    # as the same part tuple
    masks = vertex_mask(require), vertex_mask(forbid)
    assert filtered.parts == tuple(filter_rows(final_parts(hg), *masks))
    for p in filtered.parts:
        assert Row(hg.w, *p).parts == p
    uncut = [p for p in family.parts
             if not masks[0] & ~p[1] and not masks[1] & ~p[0]]
    assert all(any(q is p for q in filtered.parts) for p in uncut)
    expanded = [x for row in filtered.rows for k in range(row.w + 1)
                for x in row.members_of_size(k)]
    assert len(expanded) == len(set(expanded))
    assert sorted(expanded) == [
        x for x in brute_transversals(hg)
        if require <= set(x) and forbid.isdisjoint(x)]


@settings(max_examples=50)
@given(hypergraphs_st(), st.booleans(), st.integers(0, 8), st.data())
def test_window_commutes_with_query_filtering(hg, size_asc, k, data):
    if size_asc:
        hg = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    require = data.draw(st.frozensets(st.integers(1, hg.w)))
    forbid = data.draw(st.frozensets(
        st.integers(1, hg.w)).filter(lambda f: not (f & require)))

    def size_k(stream):
        return [x for p in filter_rows(stream, vertex_mask(require),
                                       vertex_mask(forbid))
                for x in Row(hg.w, *p).members_of_size(k)]

    got = size_k(final_parts(hg, k))
    # the same members in the same order as from the full stream
    assert got == size_k(final_parts(hg))
    assert len(got) == len(set(got))
    assert sorted(got) == [
        x for x in brute_transversals(hg)
        if len(x) == k and require <= set(x) and forbid.isdisjoint(x)]


def enumerate_output(hg, k, limit):
    """The stdout of ``enumerate --k k [--limit limit]`` on ``hg``, written
    to a file; the command must exit 0."""
    argv = ["enumerate", "--k", str(k)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.hg"
        path.write_text(render_hypergraph(hg))
        with contextlib.redirect_stdout(out):
            assert main([*argv, str(path)]) == 0
    return out.getvalue()


@settings(max_examples=60)
@given(hypergraphs_st(max_w=12, max_h=6), st.data())
def test_enumerate_prints_the_size_k_stream(hg, data):
    k = data.draw(st.integers(-1, hg.w + 1))
    limit = data.draw(st.none() | st.integers(0, 50))
    got = enumerate_output(hg, k, limit)
    # a K outside 0..w prints nothing and never starts the engine
    found = () if k < 0 else itertools.chain.from_iterable(
        Row(hg.w, *p).members_of_size(k) for p in final_parts(hg, k))
    assert got == "".join(
        " ".join(map(str, xs)) + "\n" for xs in itertools.islice(found, limit))


@st.composite
def digit_boundary_hypergraphs_st(draw):
    """Hypergraphs whose ground set ends just below, at or just past 10 or
    100 vertices, with small edges drawn from both ends of it, so that the
    transversals mix vertices of different lengths."""
    w = draw(st.sampled_from([8, 9, 10, 11, 98, 99, 100, 101]))
    vertex = st.integers(1, min(w, 12)) | st.integers(max(1, w - 3), w) | st.integers(1, w)
    edges = draw(st.lists(st.frozensets(vertex, min_size=1, max_size=4), max_size=6))
    return Hypergraph(w, tuple(tuple(sorted(e)) for e in edges))


@settings(max_examples=60)
@given(digit_boundary_hypergraphs_st(), st.data())
def test_enumerate_lines_cross_digit_boundaries(hg, data):
    # the padded labels that enumerate joins give the bytes of the "%d"
    # lines of the int members; the whole stream is printed only when it
    # is short, else a drawn --limit cuts it
    k = data.draw(st.just(0) | st.integers(1, 4) | st.integers(0, hg.w))
    short = count_exactly(hg, k) <= 300
    limit = data.draw(st.integers(0, 100) | (st.none() if short else st.nothing()))
    got = enumerate_output(hg, k, limit)
    found = itertools.chain.from_iterable(
        Row(hg.w, *p).members_of_size(k) for p in final_parts(hg, k))
    line = " ".join(["%d"] * k) + "\n"
    want = [line % xs for xs in itertools.islice(found, limit)]
    assert got == "".join(want)
    if any(len({len(v) for v in text.split()}) > 1 for text in want):
        event("a line mixes vertices of different lengths")


# ----- reductions and parsing -----------------------------------------------

@settings(max_examples=50)
@given(hypergraphs_st(), st.data())
def test_subset_reduction_identity(hg, data):
    allowed = data.draw(st.frozensets(st.integers(1, hg.w)))
    reduced = subset_reduced(hg, allowed)
    expected = [x for x in brute_transversals(hg) if set(x) <= allowed]
    if reduced is None:
        assert expected == []
    else:
        got = [x for x in brute_transversals(reduced) if set(x) <= allowed]
        assert got == expected


@settings(max_examples=50)
@given(hypergraphs_st(), st.data())
def test_superset_reduction_identity(hg, data):
    fixed = data.draw(st.frozensets(st.integers(1, hg.w)))
    reduced = superset_reduced(hg, fixed)
    got = {tuple(sorted(fixed | set(y))) for y in brute_transversals(reduced)}
    assert got == {x for x in brute_transversals(hg) if fixed <= set(x)}


@given(hypergraphs_st())
def test_parse_render_round_trip(hg):
    assert parse_hypergraph(render_hypergraph(hg)) == hg


# ----- parser fuzzing: malformed input is refused, never crashes -------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12)
hypergraph_like = st.fixed_dictionaries({
    "w": st.integers(-2, 6) | json_values,
    "edges": st.lists(st.lists(st.integers(-2, 8) | json_values, max_size=3),
                      max_size=3) | json_values})


@given(st.text(max_size=40) | st.text("0123456789 -+\n\t", max_size=40))
def test_parse_hypergraph_accepts_or_refuses(text):
    try:
        hg = parse_hypergraph(text)
    except HypergraphError:
        return
    assert isinstance(hg, Hypergraph)


def load_written(suffix, data: bytes):
    """Load ``data`` written to a file with the given suffix; a ValueError,
    which the CLI reports with exit 2, counts as a refusal."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"input{suffix}"
        path.write_bytes(data)
        try:
            return load_hypergraph(str(path))
        except ValueError:
            return None


@settings(max_examples=60)
@given(json_values | hypergraph_like)
def test_load_json_values_accepts_or_refuses(value):
    hg = load_written(".json", json.dumps(value).encode())
    assert hg is None or isinstance(hg, Hypergraph)


@settings(max_examples=60)
@given(st.sampled_from([".json", ".hg"]), st.binary(max_size=40))
def test_load_bytes_accepts_or_refuses(suffix, data):
    hg = load_written(suffix, data)
    assert hg is None or isinstance(hg, Hypergraph)
