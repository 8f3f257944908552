import json

import pytest

from transversals import (Hypergraph, HypergraphError, load_hypergraph,
                          parse_hypergraph, parse_vertex_list,
                          render_hypergraph, subset_reduced, superset_reduced)
from transversals.hypergraph import MAX_W
from conftest import DEMO_TEXT


def test_parse_demo():
    hg = parse_hypergraph(DEMO_TEXT)
    assert hg.w == 14 and hg.h == 6
    assert hg.edges[0] == (3, 4, 9)
    assert hg.edges[5] == (3, 4, 5, 8, 12, 13)
    assert hg.d == 8


def test_parse_no_edges():
    hg = parse_hypergraph("3 0\n")
    assert hg.w == 3 and hg.edges == ()
    assert hg.d == 0


def test_vertex_out_of_range():
    with pytest.raises(HypergraphError):
        parse_hypergraph("4 1\n2 5\n")


def test_malformed_header():
    for text in ("", "14\n", "a b\n", "14 6 1\n"):
        with pytest.raises(HypergraphError):
            parse_hypergraph(text)


def test_edge_count_mismatch():
    with pytest.raises(HypergraphError,
                       match="header announces more edges than the 1 edge lines"):
        parse_hypergraph("3 2\n1 2\n")
    with pytest.raises(HypergraphError,
                       match="header announces fewer edges than the 2 edge lines"):
        parse_hypergraph("3 1\n1 2\n2 3\n")


def test_vertex_count_bound():
    # no row is built here, so no mask of these widths is allocated
    assert parse_hypergraph("3000000 0\n").w == 3_000_000
    assert Hypergraph(MAX_W).w == MAX_W
    for w in (MAX_W + 1, 10 ** 4298, 0, -1):
        with pytest.raises(HypergraphError, match=f"^vertex count must be an "
                                                  f"integer in 1..{MAX_W}$"):
            Hypergraph(w)


def test_bad_edge_line():
    with pytest.raises(HypergraphError):
        parse_hypergraph("3 1\n1 x\n")


def test_duplicate_vertices_collapse():
    hg = parse_hypergraph("3 1\n2 2 2\n")
    assert hg.edges == ((2,),)


def test_empty_edge_rejected():
    with pytest.raises(HypergraphError, match="^edge 1 is empty$"):
        Hypergraph(3, ((),))
    with pytest.raises(HypergraphError, match="^edge 2 is empty$"):
        Hypergraph(3, ((1, 2), ()))


def test_nonpositive_w_rejected():
    with pytest.raises(HypergraphError):
        Hypergraph(0, ())


@pytest.mark.parametrize("w, edges", [
    (3, ((1.5, 2),)), (3, (("1", 2),)), (3, ((True, 2),)), (True, ((1,),)),
    (3.0, ())])
def test_non_int_vertices_rejected(w, edges):
    with pytest.raises(HypergraphError):
        Hypergraph(w, edges)


def test_duplicate_edges_kept():
    hg = Hypergraph(3, ((1, 2), (1, 2)))
    assert hg.h == 2


def test_render_round_trip():
    hg = parse_hypergraph(DEMO_TEXT)
    assert parse_hypergraph(render_hypergraph(hg)) == hg


def test_load_text_file(tmp_path):
    path = tmp_path / "demo.hg"
    path.write_text(DEMO_TEXT)
    assert load_hypergraph(str(path)) == parse_hypergraph(DEMO_TEXT)


def test_load_json_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps({"w": 3, "edges": [[1, 2], [3]]}))
    assert load_hypergraph(str(path)) == Hypergraph(3, ((1, 2), (3,)))


def test_load_bad_json(tmp_path):
    for payload in ("{not json", '{"w": 3}', '{"w": 3, "edges": [3]}'):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(HypergraphError):
            load_hypergraph(str(path))


class TestSubsetReduced:
    def test_full_ground_set_is_identity(self, demo_hg):
        assert subset_reduced(demo_hg, range(1, 15)) == demo_hg

    def test_missed_edge_means_no_solution(self, demo_hg):
        # the third edge {6,7,11,12} has nothing inside the allowed set
        assert subset_reduced(demo_hg, {3, 4, 5, 8, 9, 10, 13}) is None

    def test_dropping_one_vertex(self, demo_hg):
        allowed = set(range(1, 15)) - {7}
        got = subset_reduced(demo_hg, allowed)
        assert got.edges == (
            (3, 4, 9), (5, 10), (6, 11, 12), (8, 13, 14),
            (1, 2, 3, 4, 5, 6, 8), (3, 4, 5, 8, 12, 13))

    def test_out_of_range(self, demo_hg):
        with pytest.raises(ValueError):
            subset_reduced(demo_hg, {15})


class TestSupersetReduced:
    def test_demo(self, demo_hg):
        got = superset_reduced(demo_hg, {8, 9})
        assert got.edges == ((5, 10), (6, 7, 11, 12))

    def test_empty_fixed_set(self, demo_hg):
        assert superset_reduced(demo_hg, ()) == demo_hg

    def test_everything_fixed(self, demo_hg):
        assert superset_reduced(demo_hg, range(1, 15)).edges == ()

    def test_out_of_range(self, demo_hg):
        with pytest.raises(ValueError):
            superset_reduced(demo_hg, {0})


@pytest.mark.parametrize("text, vertices", [
    ("", ()), (" ", ()), ("8", (8,)), ("8,9", (8, 9)), (" 8 , 9 ", (8, 9)),
    ("0,-3", (0, -3))])
def test_parse_vertex_list(text, vertices):
    # the range is checked against a ground set later, not here
    assert parse_vertex_list(text) == vertices


@pytest.mark.parametrize("text, message", [
    ("x", "bad vertex list 'x'"),
    ("8,,9", "bad vertex list '8,,9'"),
    ("8,", "bad vertex list '8,'"),
    ("1," * 50_000 + "x", "bad vertex list <str too long to show>"),
    ("\u00e9", "bad vertex list '\\xe9'"),
])
def test_bad_vertex_list(text, message):
    with pytest.raises(HypergraphError) as info:
        parse_vertex_list(text)
    assert str(info.value) == message
