"""Whole-family counting, generation and query filtering on top of a
RowFamily produced by the engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .engine import RowFamily
from .rows import Row, size_counts


class Infeasible(Exception):
    """Raised when asked for the transversal number of an empty family."""


@dataclass(frozen=True)
class Spectrum:
    """Per-cardinality transversal counts, indexed k = 0..w, plus the total."""

    counts: tuple[int, ...]
    total: int


def _refuse_pruned(family: RowFamily, lo: int = 0, hi: int | None = None) -> None:
    """The one rule for pruned families: answer a query about sizes lo..hi
    (the whole family by default) only if every size in it that a
    transversal can have, 0..w, lies inside the run's window
    min_card..max_card, since the run may have discarded the others."""
    w = family.w
    lo, hi = max(lo, 0), min(w if hi is None else hi, w)
    floor = family.min_card or 0
    ceiling = w if family.max_card is None else family.max_card
    if lo <= hi and (lo < floor or hi > ceiling):
        raise ValueError(
            f"family was pruned to cardinalities {floor}..{ceiling}; "
            f"an answer involving sizes {lo}..{hi} would be incomplete")


def count_total(family: RowFamily) -> int:
    """Total number of represented transversals."""
    _refuse_pruned(family)
    return sum(row.size() for row in family.rows)


def spectrum(family: RowFamily) -> Spectrum:
    """Exact transversal counts for every cardinality 0..w."""
    _refuse_pruned(family)
    counts = size_counts(family.rows, family.w)
    return Spectrum(tuple(counts), sum(counts))


def count_at_least(family: RowFamily, k: int) -> int:
    """Number of transversals of cardinality >= k: the spectrum's tail."""
    _refuse_pruned(family, k)
    return sum(size_counts(family.rows, family.w)[max(k, 0):])


def transversal_number(family: RowFamily) -> tuple[int, int]:
    """(smallest transversal size, number of transversals of that size).

    The count is the product of bubble sizes summed over the rows whose
    minimum member size attains the overall minimum; minimum members take
    the forced positions plus exactly one position per bubble.
    """
    _refuse_pruned(family)
    if not family.rows:
        raise Infeasible("empty row family has no transversals")
    k_min = min(row.c_min for row in family.rows)
    tau_min = 0
    for row in family.rows:
        if row.c_min != k_min:
            continue
        count = 1
        for bubble in row.bubble_masks:
            count *= bubble.bit_count()
        tau_min += count
    return k_min, tau_min


def transversals_of_size(family: RowFamily, k: int) -> Iterator[tuple[int, ...]]:
    """Every represented transversal of cardinality k exactly once, row by
    row; row disjointness rules out duplicates."""
    _refuse_pruned(family, k, k)

    def generate() -> Iterator[tuple[int, ...]]:
        for row in family.rows:
            yield from row.members_of_size(k)

    return generate()


def check_conditions(w: int, require: Iterable[int],
                     forbid: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """The one check of query conditions, made before any row is touched:
    no vertex both required and forbidden, each vertex a non-bool int in 1..w."""
    require, forbid = frozenset(require), frozenset(forbid)
    if require & forbid:
        raise ValueError(
            f"require and forbid overlap on {sorted(require & forbid)}")
    for v in sorted(require | forbid):
        if type(v) is not int or not 1 <= v <= w:
            raise ValueError(f"vertex {v} not in ground set 1..{w}")
    return require, forbid


def filter_family(family: RowFamily, require: Iterable[int] = (),
                  forbid: Iterable[int] = ()) -> RowFamily:
    """Restrict the family to members containing all of ``require`` and none
    of ``forbid``, by single-vertex surgery on each row.

    Filtering the already-built family replaces re-running the engine for
    every query; rows whose members all violate a condition drop out.
    """
    require, forbid = check_conditions(family.w, require, forbid)
    surgery = ([(Row.require, v) for v in sorted(require)]
               + [(Row.forbid, v) for v in sorted(forbid)])
    filtered = []
    for row in family.rows:
        for cut, v in surgery:
            row = cut(row, v)
            if row is None:
                break
        else:
            filtered.append(row)
    return RowFamily(w=family.w, rows=tuple(filtered),
                     min_card=family.min_card, max_card=family.max_card,
                     stats=None)
