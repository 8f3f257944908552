"""{0,1,2,e}-valued rows: compressed blocks of set families.

A row partitions the ground set {1..w} into forbidden positions (0),
forced positions (1), free positions (2) and e-bubbles, each bubble being
a block of at least two positions that must contain at least one member.
A row denotes the family of all X that avoid every 0, contain every 1 and
hit every bubble; distinct rows built by the engine denote disjoint
families, which is what makes exact counting a matter of big-integer
products instead of enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, eq=False)
class Row:
    """One {0,1,2,e}-valued row over the ground set {1..w}.

    ``bubbles`` keeps the order given at construction; generation walks the
    bubbles in that order, so the order is part of the row's behaviour even
    though it does not change the represented family.  Equality, hashing
    and :meth:`render` use the canonical order (bubbles sorted by their
    smallest element), so two rows denoting the same family built with the
    same blocks compare equal regardless of bubble order.

    Bubbles of size one are promoted to forced positions on construction;
    an empty bubble is rejected since no set can hit it.
    """

    w: int
    zeros: frozenset[int]
    ones: frozenset[int]
    twos: frozenset[int]
    bubbles: tuple[frozenset[int], ...] = ()

    def __post_init__(self) -> None:
        zeros = frozenset(self.zeros)
        ones = frozenset(self.ones)
        twos = frozenset(self.twos)
        bubbles = []
        for bubble in self.bubbles:
            bubble = frozenset(bubble)
            if not bubble:
                raise ValueError("empty e-bubble")
            if len(bubble) == 1:
                ones |= bubble
            else:
                bubbles.append(bubble)
        parts = [zeros, ones, twos, *bubbles]
        covered = frozenset().union(*parts)
        if sum(len(p) for p in parts) != len(covered):
            raise ValueError("row parts overlap")
        if covered != frozenset(range(1, self.w + 1)):
            raise ValueError(f"row parts do not partition 1..{self.w}")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "ones", ones)
        object.__setattr__(self, "twos", twos)
        object.__setattr__(self, "bubbles", tuple(bubbles))

    @classmethod
    def powerset(cls, w: int) -> "Row":
        """The all-free row denoting every subset of {1..w}."""
        return cls(w, frozenset(), frozenset(), frozenset(range(1, w + 1)))

    def _key(self):
        return (self.w, self.zeros, self.ones, self.twos, frozenset(self.bubbles))

    def __eq__(self, other) -> bool:
        return isinstance(other, Row) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Row({self.render()!r})"

    # ----- membership and size -------------------------------------------

    def contains(self, xs: Iterable[int]) -> bool:
        """True iff the set avoids every 0, holds every 1, hits every bubble."""
        members = frozenset(xs)
        if members & self.zeros or not self.ones <= members:
            return False
        return all(bubble & members for bubble in self.bubbles)

    def size(self) -> int:
        """Number of represented sets: 2^|twos| * prod(2^|bubble| - 1)."""
        n = 1 << len(self.twos)
        for bubble in self.bubbles:
            n *= (1 << len(bubble)) - 1
        return n

    @property
    def c_min(self) -> int:
        """Smallest member cardinality: one per bubble plus the forced 1s."""
        return len(self.ones) + len(self.bubbles)

    @property
    def c_max(self) -> int:
        """Largest member cardinality: everything but the 0s."""
        return self.w - len(self.zeros)

    # ----- counting by cardinality ---------------------------------------

    def size_poly(self, bits: int) -> int:
        """The size polynomial X^|ones| (1+X)^|twos| prod((1+X)^|b| - 1), whose
        X^k coefficient counts the members of cardinality k, evaluated at
        X = 2^bits."""
        x = 1 << bits
        value = (x + 1) ** len(self.twos) << bits * len(self.ones)
        for bubble in self.bubbles:
            value *= (x + 1) ** len(bubble) - 1
        return value

    def counts_by_size(self, limit: int) -> list[int]:
        """Exact member counts per cardinality, indexed k = 0..limit."""
        return size_counts((self,), limit)

    def count_of_size(self, k: int) -> int:
        """Number of represented sets of cardinality exactly k."""
        if k < 0 or k > self.w:
            return 0
        return self.counts_by_size(k)[k]

    # ----- generation ------------------------------------------------------

    def members_of_size(self, k: int) -> Iterator[tuple[int, ...]]:
        """Yield every represented set of cardinality k, each exactly once.

        Depth-first over pick blocks (the free block first, then bubbles in
        stored order) with a stack of (accumulated set, block index, pick
        interval) items.  The admissible pick interval for a block is
        [max(lower, need - capacity_after), min(|block|, need - forced_after)]
        where need is the cardinality still missing, lower is 0 for the
        free block and 1 for a bubble, capacity_after is the total size of
        the later blocks and forced_after the number of later bubbles.
        Items with an empty interval are never pushed.
        """
        if k < 0 or k > self.w:
            return
        base = tuple(sorted(self.ones))
        blocks: list[tuple[tuple[int, ...], int]] = []
        if self.twos:
            blocks.append((tuple(sorted(self.twos)), 0))
        for bubble in self.bubbles:
            blocks.append((tuple(sorted(bubble)), 1))
        if not blocks:
            if len(base) == k:
                yield base
            return

        nblocks = len(blocks)
        capacity_after = [0] * nblocks
        forced_after = [0] * nblocks
        capacity = forced = 0
        for p in range(nblocks - 1, -1, -1):
            capacity_after[p] = capacity
            forced_after[p] = forced
            capacity += len(blocks[p][0])
            forced += blocks[p][1]

        def interval(p: int, have: int) -> tuple[int, int]:
            need = k - have
            positions, lower = blocks[p]
            return (max(lower, need - capacity_after[p]),
                    min(len(positions), need - forced_after[p]))

        lo, hi = interval(0, len(base))
        if lo > hi:
            return
        last = nblocks - 1
        stack = [(base, 0, lo, hi)]
        while stack:
            acc, p, lo, hi = stack.pop()
            positions, _ = blocks[p]
            if p == last:
                for j in range(lo, hi + 1):
                    for picked in itertools.combinations(positions, j):
                        yield tuple(sorted(acc + picked))
                continue
            children = []
            for j in range(lo, hi + 1):
                for picked in itertools.combinations(positions, j):
                    child = acc + picked
                    clo, chi = interval(p + 1, len(child))
                    if clo <= chi:
                        children.append((child, p + 1, clo, chi))
            stack.extend(children)

    def members(self) -> Iterator[tuple[int, ...]]:
        """Yield every represented set once, by increasing cardinality."""
        for k in range(self.c_min, self.c_max + 1):
            yield from self.members_of_size(k)

    # ----- single-vertex surgery -------------------------------------------

    def require(self, v: int) -> "Row | None":
        """Restrict to members containing v; None if no member does."""
        if v in self.zeros:
            return None
        if v in self.ones:
            return self
        if v in self.twos:
            return Row(self.w, self.zeros, self.ones | {v}, self.twos - {v},
                       self.bubbles)
        for i, bubble in enumerate(self.bubbles):
            if v in bubble:
                # v satisfies the bubble; the other positions become free
                rest = self.bubbles[:i] + self.bubbles[i + 1:]
                return Row(self.w, self.zeros, self.ones | {v},
                           self.twos | (bubble - {v}), rest)
        raise ValueError(f"vertex {v} not in ground set 1..{self.w}")

    def forbid(self, v: int) -> "Row | None":
        """Restrict to members avoiding v; None if every member holds v."""
        if v in self.ones:
            return None
        if v in self.zeros:
            return self
        if v in self.twos:
            return Row(self.w, self.zeros | {v}, self.ones, self.twos - {v},
                       self.bubbles)
        for i, bubble in enumerate(self.bubbles):
            if v in bubble:
                # constructor promotes a singleton remainder to a forced 1
                shrunk = self.bubbles[:i] + (bubble - {v},) + self.bubbles[i + 1:]
                return Row(self.w, self.zeros | {v}, self.ones, self.twos, shrunk)
        raise ValueError(f"vertex {v} not in ground set 1..{self.w}")

    # ----- canonical text form ----------------------------------------------

    def render(self) -> str:
        """Space-separated position tokens, bubbles numbered by least element."""
        token = {}
        for v in self.zeros:
            token[v] = "0"
        for v in self.ones:
            token[v] = "1"
        for v in self.twos:
            token[v] = "2"
        for i, bubble in enumerate(sorted(self.bubbles, key=min), start=1):
            for v in bubble:
                token[v] = f"e{i}"
        return " ".join(token[v] for v in range(1, self.w + 1))


def size_counts(rows: Sequence[Row], limit: int) -> list[int]:
    """Exact member counts per cardinality k = 0..limit, summed over rows.

    Kronecker substitution: the counts are the base-2^bits digits of the
    summed size polynomials evaluated at 2^bits.  No coefficient exceeds the
    summed row sizes, disjoint rows or not, so digits that hold that sum
    never carry into each other.
    """
    bits = max(1, sum(row.size() for row in rows).bit_length())
    value = sum(row.size_poly(bits) for row in rows)
    mask = (1 << bits) - 1
    return [(value >> k * bits) & mask for k in range(limit + 1)]


def bubble_segment_counts(sizes: Iterable[int], limit: int) -> list[list[int]]:
    """Running per-cardinality counts as bubbles of the given sizes are
    appended to an initially empty row; one list (indexed 0..limit) per
    appended bubble."""
    row = Row(0, (), (), ())
    segments = []
    for n in sizes:
        # size-1 bubbles are promoted to forced positions, so carry the ones
        row = Row(row.w + n, (), row.ones, (),
                  row.bubbles + (range(row.w + 1, row.w + n + 1),))
        segments.append(row.counts_by_size(limit))
    return segments


def row_from_tokens(text: str) -> Row:
    """Build a Row from position tokens like "2 2 e1 e1 0 1 e2 e2".

    Bubble order follows the numeric labels (a bare "e" sorts first), so a
    token string controls the generation order of the resulting row.
    """
    tokens = text.split()
    zeros, ones, twos = set(), set(), set()
    groups: dict[str, set[int]] = {}
    for pos, tok in enumerate(tokens, start=1):
        if tok == "0":
            zeros.add(pos)
        elif tok == "1":
            ones.add(pos)
        elif tok == "2":
            twos.add(pos)
        elif tok == "e" or (tok.startswith("e") and tok[1:].isdigit()):
            groups.setdefault(tok, set()).add(pos)
        else:
            raise ValueError(f"bad row token {tok!r}")
    order = sorted(groups, key=lambda t: 0 if t == "e" else int(t[1:]))
    return Row(len(tokens), zeros, ones, twos,
               tuple(frozenset(groups[t]) for t in order))
