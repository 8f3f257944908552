"""Counting, generation and query filtering over the engine's final rows,
each read as its part tuple ``(zeros, ones, twos, bubbles)``: stored in
a RowFamily's ``parts`` or streamed by
:func:`~transversals.engine.final_parts`.
A stored family always holds every transversal, so its answers need no
size check; a fixed cardinality k exists only on the stream, as in
:func:`count_exactly`.

Every answer is at most one pass over the parts per stored family and
answer: :class:`Tally` (R, N, k_min and tau_min) and :meth:`Spectrum.of`
(per-size counts) fold them, and :func:`filter_rows` cuts each row's
parts with one multi-vertex :func:`~transversals.rows.restrict`, so a
stored family and an engine stream get the same formulas, no row of a
stream is stored, and no :class:`~transversals.rows.Row` is built here.
:func:`count_at_least` sums the tail of the spectrum where the family
keeps one, and else takes N less the counts of the sizes below k
(:func:`~transversals.rows.size_counts` with a limit), as
``count --at-least`` does.

A stored family never changes, so its answers are folded on their first
ask and kept on the family (see :class:`RowFamily`): one :class:`Tally`,
which :func:`count_total` and :func:`transversal_number` share, the
spectrum, and the count from each k of :func:`count_at_least`, at most
w + 3 values.  :func:`filter_family` returns a new family, with an empty
memo, and generation is a stream, so neither is kept.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .engine import RowFamily, RunStats, final_parts
from .hypergraph import Hypergraph, brief_repr
from .rows import _members, restrict, size_counts, vertex_mask


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
    a :class:`~transversals.rows.Row` are added up alike: its size is
    2^|twos| times the product of 2^|b| - 1 over its bubbles b, as
    :meth:`~transversals.rows.Row.size`, and its ``c_min`` is |ones| +
    |bubbles|.  tau_min sums, over the rows whose ``c_min`` attains k_min,
    the product of their bubble sizes: a minimum member takes the forced
    positions plus exactly one position per bubble.
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


def _folded(family: RowFamily, key, fold):
    """The answer ``fold(family)``, folded on the first ask for ``key`` and
    kept in the family's memo after that."""
    folds = family._folds
    if key not in folds:
        folds[key] = fold(family)
    return folds[key]


def _tally(family: RowFamily) -> Tally:
    """The family's :class:`Tally`, folded on the first ask and kept."""
    return _folded(family, "tally", lambda f: Tally.of(f.parts))


def count_total(family: RowFamily) -> int:
    """Total number of represented transversals."""
    return _tally(family).n_total


def spectrum(family: RowFamily) -> Spectrum:
    """Exact transversal counts for every cardinality 0..w."""
    return _folded(family, "spectrum", lambda f: Spectrum.of(f.parts, f.w))


def count_at_least(family: RowFamily, k: int) -> int:
    """Number of transversals of cardinality >= k: the tail of the kept
    spectrum where the family keeps one, else N less the counts of the
    sizes below k, the only ones computed; a k past w gives 0 with none.
    A k other than an int (``True``, ``2.5`` or ``"2"``) is refused with
    ValueError."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, not {k!r}")
    if k > family.w:
        return 0

    def fold(f: RowFamily) -> int:
        if (kept := f._folds.get("spectrum")) is not None:
            return sum(kept.counts[max(k, 0):])
        return count_total(f) - sum(size_counts(f.parts, f.w, k - 1))

    return _folded(family, ("at least", max(k, 0)), fold)


def transversal_number(family: RowFamily) -> tuple[int, int]:
    """(smallest transversal size, number of transversals of that size)."""
    tally = _tally(family)
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
    row; row disjointness rules out duplicates.  A k other than an int
    (``True``, ``2.5`` or ``"2"``) is refused with ValueError at the call,
    even on a family with no rows."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, not {k!r}")
    return map(tuple, chain.from_iterable(_members(p, k) for p in family.parts))


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
    cuts = (restrict(parts, require, forbid) for parts in rows)
    return (parts for parts in cuts if parts is not None)


def filter_family(family: RowFamily, require: Iterable[int] = (),
                  forbid: Iterable[int] = ()) -> RowFamily:
    """Restrict the family to members containing all of ``require`` and none
    of ``forbid``, with no engine re-run: the cut of :func:`filter_rows`,
    made on the stored parts.  A row whose members all pass comes back as
    the same part tuple, and no :class:`~transversals.rows.Row` is built."""
    require, forbid = check_conditions(family.w, require, forbid)
    return RowFamily(family.w, filter_rows(family.parts, require, forbid))
