"""Counting, generation and query filtering over the engine's final rows,
stored in a RowFamily or streamed by :func:`~transversals.engine.final_rows`.
A stored family always holds every transversal, so its answers need no
size check; a fixed cardinality k exists only on the stream, as in
:func:`count_exactly`.

Every answer is one pass over the rows: :class:`Tally` (R, N, k_min and
tau_min) and :meth:`Spectrum.of` (per-size counts) fold them, and
:func:`filter_rows` cuts each row with one multi-vertex
:meth:`Row.restrict`, so a stored family and an engine stream get the same
formulas and no row of a stream is stored.
:func:`count_total` sums :meth:`Row.size` as Tally does, without Tally's
work for k_min; :func:`count_at_least` takes N less the counts of the
sizes below k (:func:`~transversals.rows.size_counts` with a limit), as
``count --at-least`` does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .engine import RowFamily, RunStats, final_rows
from .hypergraph import Hypergraph, brief_repr
from .rows import Row, size_counts, vertex_mask


class Infeasible(Exception):
    """Raised when asked for the transversal number of an empty family."""


@dataclass(frozen=True)
class Spectrum:
    """Per-cardinality transversal counts, indexed k = 0..w, plus the total."""

    counts: tuple[int, ...]
    total: int

    @classmethod
    def of(cls, rows: Iterable[Row], w: int) -> "Spectrum":
        """The spectrum of disjoint rows over {1..w}, read once."""
        counts = size_counts(rows, w)
        return cls(tuple(counts), sum(counts))


class Tally:
    """The row count R, the total N, the smallest member size k_min and the
    number tau_min of members of that size, added up one row at a time.

    tau_min sums, over the rows whose ``c_min`` attains k_min, the product
    of their bubble sizes: a minimum member takes the forced positions plus
    exactly one position per bubble.
    """

    def __init__(self) -> None:
        self.r_final = 0
        self.n_total = 0
        self.k_min: int | None = None
        self.tau_min = 0
        self.stats: RunStats | None = None

    @classmethod
    def of(cls, rows: Iterable[Row]) -> "Tally":
        """Add up ``rows`` without keeping them."""
        tally = cls()
        deque(tally.tap(iter(rows)), maxlen=0)
        return tally

    def tap(self, rows: Iterator[Row]) -> Iterator[Row]:
        """Yield ``rows`` unchanged, adding each one up, so another fold can
        read the same stream.  The answers and the return value of ``rows``
        (an engine stream's RunStats) are stored when the rows run out."""
        r_final = n_total = tau_min = 0
        k_min = None
        while True:
            try:
                row = next(rows)
            except StopIteration as stop:
                self.r_final, self.n_total = r_final, n_total
                self.k_min, self.tau_min = k_min, tau_min
                self.stats = stop.value
                return
            r_final += 1
            n_total += row.size()
            c_min = row.c_min
            if k_min is None or c_min < k_min:
                k_min, tau_min = c_min, 0
            if c_min == k_min:
                count = 1
                for bubble in row.bubble_masks:
                    count *= bubble.bit_count()
                tau_min += count
            yield row


def count_total(family: RowFamily) -> int:
    """Total number of represented transversals."""
    return sum(row.size() for row in family.rows)


def spectrum(family: RowFamily) -> Spectrum:
    """Exact transversal counts for every cardinality 0..w."""
    return Spectrum.of(family.rows, family.w)


def count_at_least(family: RowFamily, k: int) -> int:
    """Number of transversals of cardinality >= k: N less the counts of the
    sizes below k, the only ones computed; a k past w gives 0 with none."""
    if k > family.w:
        return 0
    return count_total(family) - sum(size_counts(family.rows, family.w, k - 1))


def transversal_number(family: RowFamily) -> tuple[int, int]:
    """(smallest transversal size, number of transversals of that size)."""
    tally = Tally.of(family.rows)
    if tally.k_min is None:
        raise Infeasible("empty row family has no transversals")
    return tally.k_min, tally.tau_min


def count_exactly(hg: Hypergraph, k: int) -> int:
    """Number of transversals of cardinality exactly k, the paper's counting
    task, with no transversal generated and no row stored.

    The engine run for k keeps only the final rows holding a size-k
    transversal (see :func:`~transversals.engine.final_rows`), and the
    answer is digit k of the rows' summed size polynomials.  An int k
    outside 0..w gives 0 without a run; the engine refuses any other k
    (``True``, ``2.5`` or ``"3"``) with ValueError.
    """
    if type(k) is int and not 0 <= k <= hg.w:
        return 0
    return size_counts(final_rows(hg, k), hg.w, k)[k]


def transversals_of_size(family: RowFamily, k: int) -> Iterator[tuple[int, ...]]:
    """Every represented transversal of cardinality k exactly once, row by
    row; row disjointness rules out duplicates."""
    return chain.from_iterable(row.members_of_size(k) for row in family.rows)


def check_conditions(w: int, require: Iterable[int],
                     forbid: Iterable[int]) -> tuple[int, int]:
    """The one check of query conditions, made before any row is touched:
    no vertex both required and forbidden, each vertex a non-bool int in
    1..w.  Returns the two vertex masks."""
    require, forbid = frozenset(require), frozenset(forbid)
    # a message names at most three vertices, each briefly, so it stays one
    # short line however many or however long the vertices are
    if shared := sorted(require & forbid):
        listed = ", ".join(map(brief_repr, shared[:3]))
        raise ValueError(f"require and forbid overlap on "
                         f"[{listed}{', ...' if len(shared) > 3 else ''}]")
    for v in sorted(require | forbid):
        if type(v) is not int or not 1 <= v <= w:
            raise ValueError(f"vertex {brief_repr(v)} not in ground set 1..{w}")
    return vertex_mask(require), vertex_mask(forbid)


def filter_rows(rows: Iterable[Row], require: int,
                forbid: int) -> Iterator[Row]:
    """Cut each row down to its members containing every vertex of the mask
    ``require`` and none of the mask ``forbid``, with one :meth:`Row.restrict`
    per row, reading ``rows`` once; rows whose members all violate a
    condition drop out.  The masks come from :func:`check_conditions`."""
    for row in rows:
        row = row.restrict(require, forbid)
        if row is not None:
            yield row


def filter_family(family: RowFamily, require: Iterable[int] = (),
                  forbid: Iterable[int] = ()) -> RowFamily:
    """Restrict the family to members containing all of ``require`` and none
    of ``forbid`` (see :func:`filter_rows`), with no engine re-run."""
    require, forbid = check_conditions(family.w, require, forbid)
    return RowFamily(w=family.w,
                     rows=tuple(filter_rows(family.rows, require, forbid)))
