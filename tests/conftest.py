"""Shared fixtures: the 14-vertex, 6-edge demo system whose exact numbers
(8784 transversals in 7 final rows, smallest size 4 with 66 witnesses) are
frozen throughout the suite."""

import pytest

from transversals import parse_hypergraph, run


def mask_vertices(mask):
    """The vertex set of a row part's bitmask, read bit by bit."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def drain(stream):
    """The rows of an engine stream, in order, and its return value."""
    rows = []
    while True:
        try:
            rows.append(next(stream))
        except StopIteration as stop:
            return rows, stop.value


DEMO_TEXT = """\
14 6
3 4 9
5 10
6 7 11 12
8 13 14
1 2 3 4 5 6 7 8
3 4 5 8 12 13
"""

# canonical renderings of the 7 final rows under input edge order
DEMO_FINAL_ROWS = [
    "2 2 e1 e1 e2 e3 e3 e4 2 e2 e3 e3 e4 e4",
    "2 2 0 0 1 e1 e1 e2 1 2 e1 e1 e2 e2",
    "2 2 0 0 0 e1 e1 e2 1 1 2 2 e2 2",
    "2 2 0 0 0 e1 e1 0 1 1 2 1 0 1",
    "2 2 0 0 0 0 0 1 1 1 e1 e1 2 2",
    "e1 e1 0 0 0 0 0 0 1 1 2 1 e2 e2",
    "e1 e1 0 0 0 0 0 0 1 1 1 0 1 2",
]

DEMO_TOTAL = 8784
DEMO_K_MIN = 4
DEMO_TAU_MIN = 66


@pytest.fixture(scope="session")
def demo_hg():
    return parse_hypergraph(DEMO_TEXT)


@pytest.fixture(scope="session")
def demo_family(demo_hg):
    return run(demo_hg)
