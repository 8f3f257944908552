"""The transversal engine: impose hyperedges one at a time on a LIFO stack
of rows, splitting each row into disjoint sons that still hit the edge and
pruning sons that cannot survive the remaining edges.  The surviving final
rows form a disjoint family whose union is the set of all transversals.

The run loop, :func:`final_parts`, works on a row's parts, the tuple
``(zeros, ones, twos, bubbles)`` of int masks with ``bubbles`` a tuple,
the shape a :class:`~transversals.rows.Row` stores as ``parts``, and
yields each final row's parts as it holds them; the counting folds read
them, and :func:`run` stores them as they come.  It holds
only the work stack, yields the final rows in one deterministic order
(for an int ``k``, the full run's rows holding a size-k transversal, in
that order), returns the run's :class:`RunStats` (the value of its
``StopIteration``) and raises ValueError for a ``k`` other than None or
an int >= 0 when the first row is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Generator, Iterable

from .hypergraph import Hypergraph
from .rows import Row, vertex_mask


@dataclass(frozen=True)
class RunStats:
    impositions: int
    s_max: int
    max_stack: int


@dataclass(frozen=True)
class RowFamily:
    """Ordered list of pairwise-disjoint rows whose members are exactly the
    transversals, plus the run bookkeeping.  A stored family is always
    complete; a fixed cardinality k lives only on :func:`final_parts`.

    ``parts`` holds each row as the engine's part tuple ``(zeros, ones,
    twos, bubbles)``; any iterable of them is stored as a tuple, read once.
    The analytics read ``parts`` and build no :class:`~transversals.rows.Row`.
    ``rows`` is the validated view for callers that want ``Row`` objects:
    each ``Row(w, *p)`` is built through the one validating constructor on
    the first read, and kept.  Equality compares the part tuples, so two
    families whose rows differ only in bubble order differ.

    The analytics fold each answer over the parts on its first ask and keep
    it in ``_folds``, so the parts must never change.  The memo takes no
    part in ``==``, ``hash`` or ``repr``, and ``dataclasses.replace``
    starts it empty.
    """

    w: int
    parts: tuple[tuple, ...]
    stats: RunStats | None = None
    _folds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """Each stored row as a validated :class:`Row`, built on the first
        read and kept."""
        return tuple(Row(self.w, *p) for p in self.parts)


def impose(row: tuple, edge: int) -> list[tuple]:
    """Split the row with parts ``row`` (a ``(zeros, ones, twos, bubbles)``
    tuple, or a :class:`~transversals.rows.Row`, which unpacks into one) into
    disjoint rows whose union is the members hitting the edge with vertex
    mask ``edge`` (see :func:`~transversals.rows.vertex_mask`); the sons are
    returned as such tuples.

    If the edge meets the 1s or holds a whole bubble, every member already
    hits it and ``[row]`` comes back, the same object; the split loop finds
    such a bubble as a cut one with an empty rest, dropping the sons so far.
    Otherwise son s hits the edge inside the s-th cut bubble (the hit part
    becomes a fresh bubble and the rest of that bubble goes free), while the
    earlier cut parts are zeroed out with their rests staying bubbles.  A
    last son catches members hitting the edge only among the free positions,
    its free hit becoming a bubble; it exists only when the edge meets them.
    Sons are returned in that order.

    Sons come out normal: a one-position part, rest or free hit goes to the
    1s here, so ``Row(w, *son)`` neither promotes nor reorders a bubble.  A
    son's bubbles keep the row's stored order, which drives
    :meth:`~transversals.rows.Row.members_of_size`: first the earlier rests
    and untouched bubbles in place, then the part (or the free hit), then
    the later bubbles.
    """
    zeros, ones, twos, bubbles = row
    if edge & ones:
        return [row]
    sons = []
    if edge & ~(zeros | ones | twos):
        # the earlier rests that stay bubbles and the untouched bubbles, in place
        kept = []
        for i, bubble in enumerate(bubbles):
            part = bubble & edge
            if not part:
                kept.append(bubble)
                continue
            rest = bubble ^ part
            if not rest:
                # the bubble lies inside the edge
                return [row]
            if part & part - 1:
                sons.append((zeros, ones, twos | rest, (*kept, part, *bubbles[i + 1:])))
            else:
                sons.append((zeros, ones | part, twos | rest, (*kept, *bubbles[i + 1:])))
            zeros |= part
            if rest & rest - 1:
                kept.append(rest)
            else:
                ones |= rest
    else:
        # the edge meets no bubble: all are kept, and only the free son is built
        kept = bubbles
    free_hit = twos & edge
    if free_hit:
        if free_hit & free_hit - 1:
            sons.append((zeros, ones, twos ^ free_hit, (*kept, free_hit)))
        else:
            sons.append((zeros, ones | free_hit, twos ^ free_hit, tuple(kept)))
    return sons


def is_feasible(row: tuple, pending: Iterable[int], k: int | None = None) -> bool:
    """True iff no pending edge (a vertex mask) lies entirely inside the
    zeros of the row with parts ``row`` (as for :func:`impose`), i.e. the
    member taking everything outside the zeros hits every pending edge;
    with an int ``k``, also iff the packing bound LB is at most k.

    LB = ``c_min`` + the size of a greedy packing: the pending edges, in
    the order given, whose live part (the edge minus the zeros) lies inside
    the free positions, each kept if its live part misses those kept
    before.  Every member hitting the pending edges holds the 1s, a
    position of each bubble and, for each packed edge, a free position of
    its own, so none is smaller than LB.  One scan checks both for every
    k, and it stops once the packing has used up the slack k - ``c_min``.
    Without k, ``packed`` is -1: every live part meets it, so nothing is
    packed and only the feasibility test can fail.
    """
    zeros, ones, twos, bubbles = row
    if k is None:
        slack, packed = 0, -1
    else:
        slack, packed = k - ones.bit_count() - len(bubbles), 0
        if slack < 0:
            return False
    # the 1s and the bubbles: an edge meeting them is neither packable nor
    # inside the zeros
    fixed = ~(zeros | twos)
    for edge in pending:
        if edge & fixed:
            continue
        live = edge & twos
        if not live:
            return False
        if not live & packed:
            if not slack:
                return False
            slack -= 1
            packed |= live
    return True


def final_parts(hg: Hypergraph, k: int | None = None) -> Generator[tuple, None, RunStats]:
    """The run loop (see the module docstring): impose all edges in input
    order and yield each final row's parts; no
    :class:`~transversals.rows.Row` is built.

    The work stack is LIFO: a split pushes its later sons last-first and
    goes on with its first son, so the first son is processed first and the
    second is popped next; together with the fixed son order of
    :func:`impose` this makes the traversal, the final row order and all
    statistics deterministic.

    A stack item is a row's parts ``(zeros, ones, twos, bubbles)``, as
    :func:`impose` and :func:`is_feasible` take and return them, with the
    number of edges already imposed.  A final row's parts are yielded as
    they are; the suite checks that the one validating constructor would
    accept every son and every final row's parts unchanged.

    With an int ``k`` the run keeps exactly the final rows of the full run
    that hold a transversal of size k, in the same order: sons with
    ``c_max < k`` or with a packing bound LB > k (see :func:`is_feasible`;
    LB >= ``c_min``) are pruned.

    Pruning by ``c_min`` and ``c_max`` is sound because along every path
    ``c_min`` never falls and ``c_max`` never rises.  :func:`impose` keeps
    the ones, gives every cut bubble a non-empty part in its own son and
    leaves the earlier cut bubbles a non-empty rest (an empty rest would
    mean the bubble lies inside the edge, and the row passes through); a
    one-position part or rest becomes a forced 1 in :func:`impose` itself,
    and the free son adds one bubble or 1.  So ``c_min`` = |ones| +
    |bubbles| cannot fall, and ``c_max`` = w - |zeros| cannot rise since
    zeros only grow.  A pruned row therefore has no final descendant with k
    in ``c_min..c_max``, and every final row of the full run that has it
    there has only unpruned ancestors.  Member sizes of a row are
    contiguous from ``c_min`` to ``c_max`` (add free positions or bubble
    positions one at a time), so these are exactly the rows holding a
    size-k transversal.

    Pruning by LB keeps the same final rows.  Sound: the members of a final
    descendant of a row are members of that row that hit every edge, the
    row's pending edges included, so none is smaller than the row's LB; a
    row with LB > k has no final descendant holding size k.  Exact: a
    size-k member X of a final row F of the full run is a member of every
    ancestor of F and hits that ancestor's pending edges, so each ancestor
    has LB <= |X| = k and is kept; F itself has no pending edge, so its LB
    is ``c_min``.  Only whole subtrees without such an F are cut from the
    same traversal, so the kept final rows come in the full run's order.

    One loop serves every k, and it skips six steps whose outcome is
    known.  A row is on the stack only if it was admissible (feasible for
    its pending edges, and with k in LB..``c_max`` if k is set), and a
    suffix of them is a subset.  (1) The root has no zeros and
    :class:`~transversals.hypergraph.Hypergraph` rejects empty edges, so no
    edge lies inside its zeros; only a set k checks it, for ``k <= w`` and
    LB.  (2) When :func:`impose` passes the row through, it keeps its
    zeros, ones, twos and bubbles, and the edge it drops from the pending
    ones meets its ones or holds a bubble, so no packing took it and LB is
    unchanged: the row stays admissible.  Pushing and popping it at once
    would change neither the final order nor ``max_stack`` (see (5)), nor
    ``s_max``, which the first imposition (a split of the all-free root)
    has already raised to 1; so the next edge is imposed on it directly.
    (3) An edge meeting the row's ones is such a pass-through: every member
    holds the ones, and :func:`impose` would return ``[row]``, the same
    object, at its first test.  So the loop counts it as an imposition and
    goes on without calling :func:`impose`; the row, LB and admissibility
    are those of (2).  (4) :func:`impose` builds its first son before
    zeroing any cut part, so that son keeps the row's zeros and ``c_max``
    and is feasible with ``c_max >= k``; only a set k checks it, for LB.
    An admissible row always has a son, since no pending edge lies inside
    its zeros.  (5) An admissible first son is not pushed: the
    push-and-pop loop would put it on top of the later sons and pop it at
    once, so going on with it processes the same rows in the same order.
    ``max_stack``, the highest that loop's stack gets, is reached just
    before a pop, so one rule at the top of the descent counts
    ``len(stack) + 1`` for the row in hand: the height before its pop, or
    before the pop that a first son skips.  A first son that fails LB would
    not be pushed; the descent breaks before the rule counts it, and the
    next pop is the second son, as before.  A pass-through of (2) keeps
    that height, so counting it again would change nothing.  (6) Without
    k, a later son is checked only against the pending edges that meet the
    split edge E = ``edges[done - 1]``.  The row P being split is
    admissible, so no edge of ``edges[done:]`` lies inside P's zeros.
    :func:`impose` zeroes only parts of cut bubbles, which lie in E, so a
    later son's zeros lie in zeros(P) | E, and a pending edge inside them
    must meet E.  Without k, :func:`is_feasible` asks exactly whether some
    pending edge lies inside the zeros (``packed = -1`` packs nothing), so
    it gives the same verdict on those edges alone.  Runs for k keep
    ``edges[done:]``, since the packing bound reads every pending edge in
    order.
    """
    if k is not None and (type(k) is not int or k < 0):
        raise ValueError(f"k must be None or an int >= 0, not {k!r}")
    w = hg.w
    edges = [vertex_mask(e) for e in hg.edges]
    h = len(edges)
    impositions = 0
    s_max = 0
    max_stack = 0
    # (parts, done): every member of the row with these parts hits the first
    # done edges, so the next edge is edges[done] and done == h marks a
    # final row
    stack: list[tuple[tuple, int]] = []
    # meets[done]: the edges after edges[done - 1] that meet it, in order
    meets: list[list[int] | None] = [None] * (h + 1)
    # the all-free root, every subset of 1..w
    root = (0, 0, (1 << w + 1) - 2, ())
    if k is None or k <= w and is_feasible(root, edges, k):
        stack.append((root, 0))
    while stack:
        parts, done = stack.pop()
        # descend: each split goes on with its first son, not pushed
        while True:
            # the row in hand counts as the top of the stack
            if len(stack) >= max_stack:
                max_stack = len(stack) + 1
            # fast-forward: impose the next edge while the row passes
            # through; an edge meeting the 1s is skipped without a call
            ones = parts[1]
            start = done
            while done < h:
                edge = edges[done]
                done += 1
                if not edge & ones:
                    sons = impose(parts, edge)
                    if sons[0] is not parts:
                        break
            else:
                impositions += done - start
                yield parts
                break
            impositions += done - start
            if len(sons) > s_max:
                s_max = len(sons)
            if len(sons) > 1 or k is not None:
                if k is not None:
                    # the packing bound reads every pending edge in order
                    rest = edges[done:]
                else:
                    # (6) only the pending edges meeting the split edge can
                    # lie inside a later son's zeros; built at the first split
                    # at this index with later sons, and reused, so the run
                    # holds one list per such index, of at most h - done
                    # references each
                    rest = meets[done]
                    if rest is None:
                        meets[done] = rest = [e for e in edges[done:] if e & edge]
                # pushed last-son-first, so the first son, which goes on
                # here, is followed by the second; c_max = w - |zeros|
                for son in sons[:0:-1]:
                    if (k is None or k + son[0].bit_count() <= w) and is_feasible(son, rest, k):
                        stack.append((son, done))
                # the first son is feasible with c_max >= k, so it can lose
                # only by LB
                if k is not None and not is_feasible(sons[0], rest, k):
                    break
            parts = sons[0]
    return RunStats(impositions, s_max, max_stack)


def run(hg: Hypergraph) -> RowFamily:
    """The final rows of the full run of :func:`final_parts`, stored in
    order as the parts it yields, with the run's :class:`RunStats`; no
    :class:`~transversals.rows.Row` is built."""
    stream = final_parts(hg)
    parts = []
    while True:
        try:
            parts.append(next(stream))
        except StopIteration as stop:
            return RowFamily(hg.w, tuple(parts), stop.value)
