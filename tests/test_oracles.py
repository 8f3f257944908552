import pytest

from transversals import (Hypergraph, all_rows, bell_numbers,
                          brute_transversals, inclusion_exclusion_count,
                          parse_hypergraph, row_census, row_census_brute)
from transversals.oracles import brute_count
from conftest import DEMO_TOTAL


class TestBruteForce:
    def test_demo_count(self, demo_hg):
        assert len(brute_transversals(demo_hg)) == DEMO_TOTAL

    def test_no_edges(self):
        got = brute_transversals(parse_hypergraph("2 0\n"))
        assert got == [(), (1,), (1, 2), (2,)]

    def test_single_forced_vertex(self):
        assert brute_transversals(Hypergraph(1, ((1,),))) == [(1,)]

    def test_lexicographic_order(self):
        got = brute_transversals(parse_hypergraph("3 0\n"))
        assert got == sorted(got)

    def test_guard_limit(self):
        with pytest.raises(ValueError):
            brute_transversals(Hypergraph(25, ()))

    def test_count_matches_list(self, demo_hg):
        assert brute_count(demo_hg) == DEMO_TOTAL
        assert brute_count(parse_hypergraph("3 0\n")) == 8

    @pytest.mark.parametrize("k", [-1, 0, 4, 5, 14, 15])
    def test_count_at_least_is_the_lists_tail(self, demo_hg, k):
        assert brute_count(demo_hg, at_least=k) == \
            sum(len(xs) >= k for xs in brute_transversals(demo_hg))

    @pytest.mark.parametrize("oracle", [brute_transversals, brute_count])
    def test_budget_message_is_skip_reason(self, oracle):
        with pytest.raises(ValueError, match=r"^w > 24: 2\^30 masks$"):
            oracle(Hypergraph(30, ()))


class TestInclusionExclusion:
    def test_demo_total(self, demo_hg):
        assert inclusion_exclusion_count(demo_hg) == DEMO_TOTAL

    def test_demo_minimum_size(self, demo_hg):
        assert inclusion_exclusion_count(demo_hg, 4) == 66

    def test_no_edges(self):
        hg = parse_hypergraph("5 0\n")
        assert inclusion_exclusion_count(hg) == 32
        assert inclusion_exclusion_count(hg, 2) == 10

    def test_out_of_range_k(self, demo_hg):
        assert inclusion_exclusion_count(demo_hg, -1) == 0
        assert inclusion_exclusion_count(demo_hg, 15) == 0

    def test_guard_limit(self):
        hg = Hypergraph(2, tuple((1,) for _ in range(21)))
        with pytest.raises(ValueError):
            inclusion_exclusion_count(hg)

    @pytest.mark.parametrize("k", [None, 1, -1])
    def test_budget_message_is_skip_reason(self, k):
        hg = Hypergraph(2, tuple((1,) for _ in range(21)))
        with pytest.raises(ValueError, match=r"^h > 20: 2\^21 subsets$"):
            inclusion_exclusion_count(hg, k)


class TestRowCensus:
    def test_bell_numbers(self):
        assert bell_numbers(7) == [1, 1, 2, 5, 15, 52, 203, 877]

    def test_census_values(self):
        assert row_census(3) == 37
        assert row_census(1) == 3
        assert row_census(0) == 1
        assert row_census(4) == 151

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="w must be >= 0"):
            row_census(-1)

    @pytest.mark.parametrize("w", range(6))
    def test_census_matches_direct_enumeration(self, w):
        assert row_census(w) == row_census_brute(w)

    def test_length_one_rows(self):
        got = sorted(r.render() for r in all_rows(1))
        assert got == ["0", "1", "2"]

    def test_enumerated_rows_are_distinct(self):
        rows = list(all_rows(3))
        assert len(rows) == len(set(rows)) == 37

    def test_guard_limit(self):
        with pytest.raises(ValueError):
            row_census_brute(6)
