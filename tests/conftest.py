"""Shared fixtures: the 14-vertex, 6-edge demo system whose exact numbers
(8784 transversals in 7 final rows, smallest size 4 with 66 witnesses) are
frozen throughout the suite, and the engine loop with no skipped step that
the engine's tests compare against."""

import itertools

import pytest

from transversals import Row, impose, is_feasible, parse_hypergraph, run, vertex_mask


def mask_vertices(mask):
    """The vertex set of a row part's bitmask, read bit by bit."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def is_member(parts, xs):
    """The membership oracle: True iff the vertex set xs is a member of the
    row with parts ``(zeros, ones, twos, bubbles)``, that is, it avoids the
    0s, holds the 1s and meets every bubble.  It reads the parts as vertex
    sets and calls no Row method."""
    zeros, ones, _, bubbles = parts
    xs = frozenset(xs)
    return (xs.isdisjoint(mask_vertices(zeros)) and mask_vertices(ones) <= xs
            and all(not xs.isdisjoint(mask_vertices(b)) for b in bubbles))


def brute_members(w, parts, k=None):
    """Every subset of {1..w}, or every k-subset, that is_member accepts
    for the row with these parts, as sorted tuples in sorted order."""
    return sorted(x for size in range(w + 1) if k in (None, size)
                  for x in itertools.combinations(range(1, w + 1), size)
                  if is_member(parts, x))


def drain(stream):
    """The rows of an engine stream, in order, and its return value."""
    rows = []
    while True:
        try:
            rows.append(next(stream))
        except StopIteration as stop:
            return rows, stop.value


def reference_bound(row, pending):
    """The packing bound spelled out: c_min plus a greedy packing, in the
    given order, of the pending edges lying inside zeros and twos, whose
    live parts (the edge minus the zeros) are pairwise disjoint."""
    zeros, _, twos, _ = row
    packed = []
    for edge in map(mask_vertices, pending):
        live = edge - mask_vertices(zeros)
        if edge <= mask_vertices(zeros | twos) and all(
                live.isdisjoint(other) for other in packed):
            packed.append(live)
    return row.c_min + len(packed)


def reference_run(hg, k, log=None):
    """The engine loop with no skipped check: push the root and every son
    that is feasible and, if k is set, has k in reference_bound..c_max;
    pop a row and impose its next edge.  With a list ``log``, append each
    imposition's row parts and edge to it, in order."""
    edges = [vertex_mask(e) for e in hg.edges]

    def admissible(row, done):
        return (is_feasible(row, edges[done:])
                and (k is None or reference_bound(row, edges[done:]) <= k <= row.c_max))

    impositions = s_max = max_stack = 0
    final, stack = [], []
    root = Row.powerset(hg.w)
    if admissible(root, 0):
        stack.append((root, 0))
    while stack:
        max_stack = max(max_stack, len(stack))
        row, done = stack.pop()
        if done == len(edges):
            final.append(row)
            continue
        sons = [Row(hg.w, *son) for son in impose(row, edges[done])]
        if log is not None:
            log.append((tuple(row), edges[done]))
        impositions += 1
        s_max = max(s_max, len(sons))
        stack.extend((son, done + 1) for son in reversed(sons)
                     if admissible(son, done + 1))
    return final, (impositions, s_max, max_stack)


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
