"""Independent ground-truth engines for verification: power-set sweep,
inclusion-exclusion counting, the census of rows of a given length, and the
subset/superset reductions that check query filtering.

These are deliberately written against different machinery than the engine
(bitmasks and alternating sums instead of row splitting) so that agreement
between the two sides is meaningful.

Each exponential oracle keeps its own budget: past it, the oracle raises
ValueError before any work, with a message naming the work it refused
(``w > 24: 2^25 masks``) that a caller can print as its skip reason.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Iterator

from .hypergraph import Hypergraph
from .rows import Row, vertex_mask

BRUTE_VERTEX_LIMIT = 24
IE_EDGE_LIMIT = 20
CENSUS_BRUTE_LIMIT = 5


def _transversal_masks(hg: Hypergraph) -> Iterator[int]:
    """The vertex mask (bit v - 1 for vertex v) of every transversal, from one
    lazy sweep of the 2^w bitmasks; w > 24 raises ValueError at once."""
    if hg.w > BRUTE_VERTEX_LIMIT:
        raise ValueError(f"w > {BRUTE_VERTEX_LIMIT}: 2^{hg.w} masks")
    masks = [sum(1 << (v - 1) for v in edge) for edge in hg.edges]
    return (m for m in range(1 << hg.w) if all(m & em for em in masks))


def brute_transversals(hg: Hypergraph) -> list[tuple[int, ...]]:
    """All transversals by sweeping the 2^w bitmasks; lexicographic order."""
    return sorted(tuple(v for v in range(1, hg.w + 1) if m >> (v - 1) & 1)
                  for m in _transversal_masks(hg))


def brute_count(hg: Hypergraph, *, at_least: int = 0) -> int:
    """The number of transversals of at least ``at_least`` vertices from the
    same sweep, in constant memory: no transversal is kept.  Same budget as
    :func:`brute_transversals`."""
    return sum(1 for m in _transversal_masks(hg) if m.bit_count() >= at_least)


def inclusion_exclusion_count(hg: Hypergraph, k: int | None = None) -> int:
    """Transversal count by the alternating sum over edge subsets S of the
    sets avoiding union(S); counts k-element transversals when k is given.

    Subsets are walked in Gray-code order so each step toggles one edge in
    per-vertex coverage counters, keeping the running union size cheap.
    h > 20 raises ValueError before any work, k outside 0..w or not.
    """
    h = hg.h
    if h > IE_EDGE_LIMIT:
        raise ValueError(f"h > {IE_EDGE_LIMIT}: 2^{h} subsets")
    if k is not None and (k < 0 or k > hg.w):
        return 0

    def term(uncovered: int) -> int:
        if k is None:
            return 1 << uncovered
        return comb(uncovered, k)

    total = term(hg.w)
    cover = [0] * (hg.w + 1)
    covered = 0
    selected = [False] * h
    picked = 0
    for step in range(1, 1 << h):
        j = (step & -step).bit_length() - 1
        if selected[j]:
            selected[j] = False
            picked -= 1
            for v in hg.edges[j]:
                cover[v] -= 1
                if cover[v] == 0:
                    covered -= 1
        else:
            selected[j] = True
            picked += 1
            for v in hg.edges[j]:
                cover[v] += 1
                if cover[v] == 1:
                    covered += 1
        if picked % 2:
            total -= term(hg.w - covered)
        else:
            total += term(hg.w - covered)
    return total


def bell_numbers(n: int) -> list[int]:
    """[Bell(0), ..., Bell(n)] via the Bell triangle."""
    values = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        values.append(nxt[0])
        row = nxt
    return values[: n + 1]


def row_census(w: int) -> int:
    """Number of distinct rows of length w: Bell(w+2) - Bell(w+1)."""
    if w < 0:
        raise ValueError("w must be >= 0")
    bells = bell_numbers(w + 2)
    return bells[w + 2] - bells[w + 1]


def all_rows(w: int) -> Iterator[Row]:
    """Every valid row of length w, built literally: choose the bubble
    region, partition it into blocks of size >= 2, and label the rest."""
    universe = list(range(1, w + 1))
    for region_mask in range(1 << w):
        region = [v for v in universe if region_mask >> (v - 1) & 1]
        rest = [v for v in universe if not region_mask >> (v - 1) & 1]
        for blocks in _partitions_min2(region):
            for labels in itertools.product((0, 1, 2), repeat=len(rest)):
                parts = ([], [], [])
                for v, label in zip(rest, labels):
                    parts[label].append(v)
                yield Row(w, *map(vertex_mask, parts), map(vertex_mask, blocks))


def row_census_brute(w: int) -> int:
    if w > CENSUS_BRUTE_LIMIT:
        raise ValueError(f"w={w} exceeds census brute-force limit {CENSUS_BRUTE_LIMIT}")
    return sum(1 for _ in all_rows(w))


def _partitions_min2(items: list[int]) -> Iterator[list[list[int]]]:
    """Set partitions of ``items`` with every block of size >= 2."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    n = len(rest)
    for mask in range(1 << n):
        mates = [rest[i] for i in range(n) if mask >> i & 1]
        if not mates:
            continue
        block = [first] + mates
        remaining = [rest[i] for i in range(n) if not mask >> i & 1]
        for tail in _partitions_min2(remaining):
            yield [block] + tail


def subset_reduced(hg: Hypergraph, allowed: Iterable[int]) -> Hypergraph | None:
    """Intersect every edge with ``allowed``, keeping the original labels.

    Transversals of the result drawn from within ``allowed`` are exactly
    the transversals of ``hg`` contained in ``allowed``.  Returns None when
    some edge misses ``allowed`` entirely, since then no subset of
    ``allowed`` can hit that edge.
    """
    allowed = frozenset(allowed)
    if any(v < 1 or v > hg.w for v in allowed):
        raise ValueError(f"allowed set not within 1..{hg.w}")
    reduced = []
    for edge in hg.edges:
        cut = tuple(v for v in edge if v in allowed)
        if not cut:
            return None
        reduced.append(cut)
    return Hypergraph(hg.w, tuple(reduced))


def superset_reduced(hg: Hypergraph, fixed: Iterable[int]) -> Hypergraph:
    """Keep only the edges disjoint from ``fixed``.

    Transversals of ``hg`` containing ``fixed`` are exactly the unions of
    ``fixed`` with transversals of the result.
    """
    fixed = frozenset(fixed)
    if any(v < 1 or v > hg.w for v in fixed):
        raise ValueError(f"fixed set not within 1..{hg.w}")
    return Hypergraph(hg.w, tuple(e for e in hg.edges if fixed.isdisjoint(e)))
