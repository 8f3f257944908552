"""Counting, generation and query filtering over the engine's final rows,
stored in a RowFamily or streamed as their parts by
:func:`~transversals.engine.final_parts`.
A stored family always holds every transversal, so its answers need no
size check; a fixed cardinality k exists only on the stream, as in
:func:`count_exactly`.

Every answer is one pass over the rows: :class:`Tally` (R, N, k_min and
tau_min) and :meth:`Spectrum.of` (per-size counts) fold them, and
:func:`filter_rows` cuts each row's parts with one multi-vertex
:func:`~transversals.rows.restrict`, so a stored family and an engine
stream get the same formulas, no row of a stream is stored, and a
:class:`Row` is built only for a row that a caller keeps.  The two folds
and the filter read each row as its parts ``(zeros, ones, twos,
bubbles)``: a tuple of :func:`~transversals.engine.final_parts`, so
counting a stream builds no row, or a stored row's ``Row.parts``.  :func:`count_total` sums
:meth:`Row.size` over a stored family, the product Tally forms from the
parts, without Tally's work for k_min;
:func:`count_at_least` takes N less the counts of the sizes below k
(:func:`~transversals.rows.size_counts` with a limit), as
``count --at-least`` does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .engine import RowFamily, RunStats, final_parts
from .hypergraph import Hypergraph, brief_repr
from .rows import Row, restrict, size_counts, vertex_mask


class Infeasible(Exception):
    """Raised when asked for the transversal number of an empty family."""


@dataclass(frozen=True)
class Spectrum:
    """Per-cardinality transversal counts, indexed k = 0..w, plus the total."""

    counts: tuple[int, ...]
    total: int

    @classmethod
    def of(cls, rows: Iterable, w: int) -> "Spectrum":
        """The spectrum of disjoint rows over {1..w}, read once, each as its
        parts (see :func:`~transversals.rows.size_counts`)."""
        counts = size_counts(rows, w)
        return cls(tuple(counts), sum(counts))


class Tally:
    """The row count R, the total N, the smallest member size k_min and the
    number tau_min of members of that size, added up one row at a time.

    A row is unpacked as its parts ``(zeros, ones, twos, bubbles)``, so a
    tuple of :func:`~transversals.engine.final_parts`, a ``Row.parts`` and
    a :class:`Row` are added up alike: its size is 2^|twos| times the
    product of 2^|b| - 1 over its bubbles b, as :meth:`Row.size`, and its
    ``c_min`` is |ones| + |bubbles|.  tau_min sums, over the rows whose
    ``c_min`` attains k_min, the product of their bubble sizes: a minimum
    member takes the forced positions plus exactly one position per bubble.
    """

    def __init__(self) -> None:
        self.r_final = 0
        self.n_total = 0
        self.k_min: int | None = None
        self.tau_min = 0
        self.stats: RunStats | None = None

    @classmethod
    def of(cls, rows: Iterable) -> "Tally":
        """Add up ``rows`` without keeping them."""
        tally = cls()
        deque(tally.tap(iter(rows)), maxlen=0)
        return tally

    def tap(self, rows: Iterator) -> Iterator:
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
            _, ones, twos, bubbles = row
            size = 1 << twos.bit_count()
            for bubble in bubbles:
                size *= (1 << bubble.bit_count()) - 1
            n_total += size
            c_min = ones.bit_count() + len(bubbles)
            if k_min is None or c_min < k_min:
                k_min, tau_min = c_min, 0
            if c_min == k_min:
                count = 1
                for bubble in bubbles:
                    count *= bubble.bit_count()
                tau_min += count
            yield row


def count_total(family: RowFamily) -> int:
    """Total number of represented transversals."""
    return sum(row.size() for row in family.rows)


def spectrum(family: RowFamily) -> Spectrum:
    """Exact transversal counts for every cardinality 0..w."""
    return Spectrum.of([row.parts for row in family.rows], family.w)


def count_at_least(family: RowFamily, k: int) -> int:
    """Number of transversals of cardinality >= k: N less the counts of the
    sizes below k, the only ones computed; a k past w gives 0 with none."""
    if k > family.w:
        return 0
    return count_total(family) - sum(
        size_counts([row.parts for row in family.rows], family.w, k - 1))


def transversal_number(family: RowFamily) -> tuple[int, int]:
    """(smallest transversal size, number of transversals of that size)."""
    tally = Tally.of([row.parts for row in family.rows])
    if tally.k_min is None:
        raise Infeasible("empty row family has no transversals")
    return tally.k_min, tally.tau_min


def count_exactly(hg: Hypergraph, k: int) -> int:
    """Number of transversals of cardinality exactly k, the paper's counting
    task, with no transversal generated and no row stored.

    The engine run for k keeps only the final rows holding a size-k
    transversal (see :func:`~transversals.engine.final_parts`), and the
    answer is digit k of the rows' summed size polynomials, read from
    their parts, so no row is built.  An int k
    outside 0..w gives 0 without a run; the engine refuses any other k
    (``True``, ``2.5`` or ``"3"``) with ValueError.
    """
    if type(k) is int and not 0 <= k <= hg.w:
        return 0
    return size_counts(final_parts(hg, k), hg.w, k)[k]


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
    if shared := _ordered(require & forbid):
        listed = ", ".join(map(brief_repr, shared[:3]))
        raise ValueError(f"require and forbid overlap on "
                         f"[{listed}{', ...' if len(shared) > 3 else ''}]")
    for v in _ordered(require | forbid):
        if type(v) is not int or not 1 <= v <= w:
            raise ValueError(f"vertex {brief_repr(v)} not in ground set 1..{w}")
    return vertex_mask(require), vertex_mask(forbid)


def _ordered(vertices: frozenset) -> list:
    """The vertices in their natural order, or, where they do not compare,
    in the order of their :func:`brief_repr`, so that a message names the
    same vertex on every run."""
    try:
        return sorted(vertices)
    except TypeError:
        return sorted(vertices, key=brief_repr)


def filter_rows(rows: Iterable[tuple], require: int,
                forbid: int) -> Iterator[tuple]:
    """Cut each row, read as its parts ``(zeros, ones, twos, bubbles)``,
    down to its members containing every vertex of the mask ``require``
    and none of the mask ``forbid``, with one
    :func:`~transversals.rows.restrict` per row, reading ``rows`` once, and
    yield the parts of each row that keeps a member: a row's own parts
    where all of its members do, else the cut parts, which are normal.
    The masks come from :func:`check_conditions`; no row is built here."""
    for parts in rows:
        parts = restrict(parts, require, forbid)
        if parts is not None:
            yield parts


def filter_family(family: RowFamily, require: Iterable[int] = (),
                  forbid: Iterable[int] = ()) -> RowFamily:
    """Restrict the family to members containing all of ``require`` and none
    of ``forbid``, with no engine re-run: the cut of :func:`filter_rows`,
    made on each stored row's parts.  A row whose members all pass comes
    back as the same object, and a :class:`Row` is built only for each row
    that the cut changed and kept."""
    require, forbid = check_conditions(family.w, require, forbid)
    w, rows = family.w, []
    for row in family.rows:
        parts = restrict(row.parts, require, forbid)
        if parts is not None:
            rows.append(row if parts is row.parts else Row(w, *parts))
    return RowFamily(w=w, rows=tuple(rows))
