"""Acceptance suite: every release criterion as one test, each printing a
pass line (visible with ``pytest -s`` or ``-rP``).  All counts are exact
integers; there are no tolerances anywhere.

Run with: pytest tests/test_acceptance.py -v
"""

import itertools
import random
import time

import pytest

from transversals import (Hypergraph, Row, brute_transversals, count_total,
                          filter_family, inclusion_exclusion_count,
                          is_feasible, row_census, row_census_brute,
                          row_from_tokens, run, spectrum, transversal_number,
                          transversals_of_size, vertex_mask)
from transversals.rows import bubble_segment_counts, size_counts
from conftest import (DEMO_FINAL_ROWS, DEMO_K_MIN, DEMO_TAU_MIN, DEMO_TOTAL,
                      is_member)

CORPUS_SIZE = 200
CORPUS_SEED = 987654321


@pytest.fixture(scope="module")
def corpus():
    """Deterministic random instances (w <= 12, h <= 8, edge sizes 1..w),
    each paired with its engine family and brute-force transversal list."""
    rng = random.Random(CORPUS_SEED)
    instances = []
    start = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        w = rng.randint(1, 12)
        h = rng.randint(0, 8)
        edges = tuple(
            tuple(sorted(rng.sample(range(1, w + 1), rng.randint(1, w))))
            for _ in range(h))
        hg = Hypergraph(w, edges)
        instances.append((hg, run(hg), brute_transversals(hg)))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def _passed(n, text):
    print(f"criterion {n}: PASS  ({text})")


def test_criterion_1_demo_family(demo_hg):
    start = time.perf_counter()
    family = run(demo_hg)
    elapsed = time.perf_counter() - start
    assert count_total(family) == DEMO_TOTAL
    assert len(family.rows) == 7
    assert [r.render() for r in family.rows] == DEMO_FINAL_ROWS
    assert elapsed < 1.0
    _passed(1, f"N={DEMO_TOTAL}, R=7, rows match, {elapsed * 1000:.1f} ms")


def test_criterion_2_transversal_number(demo_family):
    assert transversal_number(demo_family) == (DEMO_K_MIN, DEMO_TAU_MIN)
    _passed(2, f"k_min={DEMO_K_MIN}, tau_min={DEMO_TAU_MIN}")


def test_criterion_3_per_row_counting():
    row = row_from_tokens("e1 e1 e2 e2 e2 e3 e3 e3 e4 e4 e4 e4")
    assert size_counts((row,), 12, 12)[4:] == [72, 288, 534, 594, 431, 208, 65, 12, 1]
    segments = bubble_segment_counts([2, 3, 3, 4], 5)
    assert segments[0] == [0, 2, 1, 0, 0, 0]
    assert segments[1] == [0, 0, 6, 9, 5, 1]
    assert segments[2] == [0, 0, 0, 18, 45, 48]
    assert segments[3] == [0, 0, 0, 0, 72, 288]
    _passed(3, "coefficient vector and all segment prefixes exact")


def test_criterion_4_generation_order():
    row = row_from_tokens("2 e2 e1 2 1 e2 e1 0 e2")
    got = list(row.members_of_size(6))
    assert [set(x) for x in got[:3]] == [
        {5, 1, 4, 3, 7, 2}, {5, 1, 4, 3, 7, 6}, {5, 1, 4, 3, 7, 9}]
    brute = [set(c) for c in itertools.combinations(range(1, 10), 6)
             if is_member(row.parts, c)]
    assert len(brute) == 20
    assert len(got) == 20
    assert sorted(map(tuple, map(sorted, brute))) == sorted(got)
    _passed(4, "first three sets and total of 20 reproduced")


def test_criterion_5_oracle_triangle(corpus):
    instances, elapsed = corpus
    assert len(instances) >= 200
    for hg, family, brute in instances:
        total = count_total(family)
        assert total == len(brute)
        assert total == inclusion_exclusion_count(hg)
        sp = spectrum(family)
        for k in range(hg.w + 1):
            assert sp.counts[k] == inclusion_exclusion_count(hg, k)
    assert elapsed < 60.0
    _passed(5, f"{len(instances)} instances, corpus built in {elapsed:.1f} s")


def test_criterion_6_disjointness_and_exactness(corpus):
    instances, _ = corpus
    for hg, family, brute in instances:
        expanded = [x for row in family.rows for k in range(row.w + 1)
                    for x in row.members_of_size(k)]
        assert len(expanded) == len(set(expanded))  # pairwise disjoint rows
        assert sorted(expanded) == brute
        for k in range(hg.w + 1):
            found = list(transversals_of_size(family, k))
            assert len(found) == len(set(found))
            assert all(len(x) == k for x in found)
            assert all(all(set(x) & set(e) for e in hg.edges) for x in found)
            assert sorted(found) == [x for x in brute if len(x) == k]
    _passed(6, "expansions disjoint and exact on the whole corpus")


def test_criterion_7_query_filtering(demo_hg, demo_family):
    filtered = filter_family(demo_family, require={8, 9}, forbid={7})
    assert [r.render() for r in filtered.rows] == [
        "2 2 e1 e1 e2 e3 0 1 1 e2 e3 e3 2 2",
        "2 2 0 0 1 e1 0 1 1 2 e1 e1 2 2",
        "2 2 0 0 0 1 0 1 1 1 2 2 2 2",
        "2 2 0 0 0 0 0 1 1 1 e1 e1 2 2",
    ]
    expected = sum(1 for x in brute_transversals(demo_hg)
                   if {8, 9} <= set(x) and 7 not in x)
    assert count_total(filtered) == expected
    _passed(7, f"4 rows, {expected} members, matches brute force")


def test_criterion_8_row_census():
    assert row_census(3) == 37
    assert row_census(4) == 151
    for w in range(6):
        assert row_census(w) == row_census_brute(w)
    _passed(8, "census formula matches direct enumeration for w = 0..5")


def test_criterion_9_recorded_bounds(corpus):
    instances, _ = corpus
    for hg, family, _ in instances:
        stats = family.stats
        assert stats.impositions <= len(family.rows) * hg.h
        assert stats.s_max <= hg.d + 1
        assert stats.max_stack <= hg.h * stats.s_max + 1
        for row in family.rows:
            assert is_feasible(row, map(vertex_mask, hg.edges))
    _passed(9, "impositions <= R*h, s_max <= d+1, stack depth bounded")
