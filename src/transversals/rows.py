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
from typing import Collection, Iterable, Iterator


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex set: bit v is set for every vertex v.

    The one vertex-to-mask converter.  Vertices are ints >= 1, so bit 0
    stays clear; anything else raises ValueError.
    """
    mask = 0
    for v in vertices:
        if type(v) is not int or v < 1:
            raise ValueError(f"vertex {v!r} is not an int >= 1")
        mask |= 1 << v
    return mask


def _picks(block: list[int], d: int) -> Iterator[Collection[int]]:
    """The d-position picks of an ascending block, in reverse lexicographic
    order (see :meth:`Row.members_of_size`): from the reversed block for
    d <= 1, else as the complements of the forward picks of the rest."""
    if d <= 1:
        return itertools.combinations(block[::-1], d)
    return map(frozenset(block).difference,
               itertools.combinations(block, len(block) - d))


# a binary digit's character to the byte 0 or 1, a selector for compress
_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _vertices(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending: one pass over its binary
    digits read from bit 0 up, so a wide mask costs time linear in its
    width, with no big-int step per set bit.  A list, as ``tuple()`` of
    this iterator raised the fixed-k benchmark's peak RSS by 5 % on
    CPython 3.11."""
    return list(itertools.compress(itertools.count(),
                                   bin(mask)[:1:-1].encode().translate(_DIGIT)))


class Row:
    """One {0,1,2,e}-valued row over the ground set {1..w}.

    ``Row(w, zeros, ones, twos, bubbles)`` takes the parts as int bitmasks,
    bit v standing for vertex v, and ``bubbles`` as an iterable of masks;
    :func:`vertex_mask` converts a vertex set and :func:`row_from_tokens`
    parses text.  They are stored as ``zero_mask``, ``one_mask``,
    ``two_mask`` and the tuple ``bubble_masks``.  Rows are immutable.

    ``bubble_masks`` keeps the order given at construction; generation walks
    the bubbles in that order, so the order is part of the row's behaviour
    even though it does not change the represented family.  Equality,
    hashing and :meth:`render` use the canonical order (bubbles sorted by
    their smallest element), so two rows denoting the same family built with
    the same blocks compare equal regardless of bubble order.

    Bubbles of size one are promoted to forced positions on construction;
    an empty bubble is rejected since no set can hit it.  The promotion
    serves :func:`row_from_tokens`, :meth:`restrict` and
    :func:`bubble_segment_counts`.  The engine builds a row only for a final
    row, from parts that :func:`~transversals.engine.impose` made with no
    one-position bubble, so the promotion never fires there.

    A row unpacks into its parts: ``zeros, ones, twos, bubbles = row``, and
    ``Row(row.w, *row)`` rebuilds it with the same bubble order.  This is
    the form the engine steps take and return.
    """

    __slots__ = ("w", "zero_mask", "one_mask", "two_mask", "bubble_masks")

    def __init__(self, w: int, zeros: int, ones: int, twos: int,
                 bubbles: Iterable[int] = ()) -> None:
        _set_w(self, w)
        _set_zeros(self, zeros)
        _set_ones(self, ones)
        _set_twos(self, twos)
        _set_bubbles(self, tuple(bubbles))
        self.__post_init__()

    def __post_init__(self) -> None:
        """The one validation path, run on every row built: promote
        one-position bubbles to forced positions, reject an empty bubble,
        and check that the parts are int masks, disjoint (their popcounts
        add up to the popcount of their union) and cover exactly 1..w.  The
        benchmark's tracer times row construction by wrapping this name."""
        w, zeros, ones, twos = self.w, self.zero_mask, self.one_mask, self.two_mask
        bubbles = self.bubble_masks
        if type(w) is not int or w < 0:
            raise ValueError(f"row width must be an int >= 0, not {w!r}")
        union = zeros | ones | twos
        if type(union) is not int:
            raise TypeError("row parts must be int bitmasks")
        total = zeros.bit_count() + ones.bit_count() + twos.bit_count()
        promote = False
        for bubble in bubbles:
            union |= bubble
            n = bubble.bit_count()
            total += n
            if n < 2:
                if not n:
                    raise ValueError("empty e-bubble")
                promote = True
        if total != union.bit_count():
            raise ValueError("row parts overlap")
        if union != (1 << w + 1) - 2:
            raise ValueError(f"row parts do not partition 1..{w}")
        if promote:
            for bubble in bubbles:
                if not bubble & bubble - 1:
                    ones |= bubble
            _set_ones(self, ones)
            _set_bubbles(self, tuple(bubble for bubble in bubbles if bubble & bubble - 1))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Row is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Row is immutable; cannot delete {name!r}")

    def __iter__(self) -> Iterator:
        return iter((self.zero_mask, self.one_mask, self.two_mask, self.bubble_masks))

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor
        return Row, (self.w, *self)

    @classmethod
    def powerset(cls, w: int) -> "Row":
        """The all-free row denoting every subset of {1..w}."""
        return cls(w, 0, 0, (1 << w + 1) - 2)

    def _key(self):
        return (self.w, self.zero_mask, self.one_mask, self.two_mask,
                frozenset(self.bubble_masks))

    def __eq__(self, other) -> bool:
        return isinstance(other, Row) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Row({self.render()!r})"

    # ----- membership and size -------------------------------------------

    def contains(self, xs: Iterable[int]) -> bool:
        """True iff the set avoids every 0, holds every 1, hits every bubble."""
        members = vertex_mask(xs)
        if members & self.zero_mask or self.one_mask & ~members:
            return False
        return all(bubble & members for bubble in self.bubble_masks)

    def size(self) -> int:
        """Number of represented sets: 2^|twos| * prod(2^|bubble| - 1)."""
        n = 1 << self.two_mask.bit_count()
        for bubble in self.bubble_masks:
            n *= (1 << bubble.bit_count()) - 1
        return n

    @property
    def c_min(self) -> int:
        """Smallest member cardinality: one per bubble plus the forced 1s."""
        return self.one_mask.bit_count() + len(self.bubble_masks)

    @property
    def c_max(self) -> int:
        """Largest member cardinality: everything but the 0s."""
        return self.w - self.zero_mask.bit_count()

    # ----- counting by cardinality ---------------------------------------

    def count_of_size(self, k: int) -> int:
        """Number of represented sets of cardinality exactly k."""
        if k < 0 or k > self.w:
            return 0
        return size_counts((self,), self.w, k)[k]

    # ----- generation ------------------------------------------------------

    def members_of_size(self, k: int) -> Iterator[tuple[int, ...]]:
        """Yield every represented set of cardinality k exactly once, as a
        sorted tuple.

        A member is the forced 1s plus one pick from each block: the free
        block (possibly empty), then the bubbles in stored order.  With
        ``need`` positions missing, a block other than the last picks a size
        d from min(|block|, need - later bubbles) down to max(0 for the free
        block or 1 for a bubble, need - later positions), so every pick can
        be completed; the last block takes the ``need`` positions left, in
        lexicographic order.  Each size d has its own pick source, in
        reverse lexicographic order (:func:`_picks`).  For d <= 1 that is
        the block reversed.  For d >= 2 it is the forward order of the
        complements: for subsets of equal size, S precedes T iff T's
        complement precedes S's, as the least element of their symmetric
        difference lies in S iff it lies in T's complement.  A stack holds
        one pick iterator per open block, so the memory is O(w) however
        many members the row has.
        """
        if not self.c_min <= k <= self.c_max:
            return
        blocks = [_vertices(self.two_mask), *map(_vertices, self.bubble_masks)]
        last = len(blocks) - 1
        # room[p]: the positions in blocks p..last
        room = list(itertools.accumulate(map(len, reversed(blocks)), initial=0))[::-1]
        # stack[p] holds the picks of block p - 1 and the need before them,
        # chosen[p] the current one; stack[0] holds the forced 1s as one pick
        stack = [(iter((_vertices(self.one_mask),)), k)]
        chosen = [()] * last
        while stack:
            picks, need = stack[-1]
            p = len(stack) - 1
            block = blocks[p]
            if p == last:
                head = tuple(itertools.chain.from_iterable(chosen))
                for pick in picks:
                    acc = (*head, *pick)
                    for rest in itertools.combinations(block, need - len(pick)):
                        yield tuple(sorted(acc + rest))
                stack.pop()
                continue
            for pick in picks:
                chosen[p] = pick
                need -= len(pick)
                hi = min(len(block), need - (last - p))
                lo = max(1 if p else 0, need - room[p + 1])
                # repeat() binds this block now; the loop rebinds ``block``
                # before the later sizes' picks are read
                stack.append((itertools.chain.from_iterable(
                    map(_picks, itertools.repeat(block), range(hi, lo - 1, -1))), need))
                break
            else:  # block p - 1 has no pick left
                stack.pop()

    def members(self) -> Iterator[tuple[int, ...]]:
        """Yield every represented set once, by increasing cardinality."""
        for k in range(self.c_min, self.c_max + 1):
            yield from self.members_of_size(k)

    # ----- query surgery ------------------------------------------------------

    def restrict(self, require: int, forbid: int) -> "Row | None":
        """Restrict to the members holding every vertex of the mask
        ``require`` and none of the mask ``forbid``, in one cut: None if no
        member does, the row itself if all do.  A bubble that ``require``
        hits is satisfied, so its positions that neither mask names are
        freed; any other bubble loses the forbidden positions and keeps its
        place in the bubble order, and the constructor promotes a
        one-position remainder.  A bit outside 1..w, or in both masks,
        fails the constructor's partition check."""
        zeros, ones = self.zero_mask, self.one_mask
        if require & zeros or forbid & ones:
            return None
        cut = require | forbid
        if not cut & ~(zeros | ones):
            return self
        freed, bubbles = 0, []
        for bubble in self.bubble_masks:
            if bubble & require:
                freed |= bubble
            elif bubble & ~forbid:
                bubbles.append(bubble & ~forbid)
            else:  # every position of the bubble is forbidden
                return None
        return Row(self.w, zeros | forbid, ones | require,
                   (self.two_mask | freed) & ~cut, bubbles)

    # ----- canonical text form ----------------------------------------------

    def render(self) -> str:
        """Space-separated position tokens, bubbles numbered by least element."""
        token = ["0"] * (self.w + 1)
        for v in _vertices(self.one_mask):
            token[v] = "1"
        for v in _vertices(self.two_mask):
            token[v] = "2"
        # the lowest set bit orders bubbles by their least element
        for i, bubble in enumerate(sorted(self.bubble_masks, key=lambda b: b & -b),
                                   start=1):
            for v in _vertices(bubble):
                token[v] = f"e{i}"
        return " ".join(token[1:])


# The slot descriptors' setters, bound once: they store past the immutable
# __setattr__, which object.__setattr__ would look up on every call.
_set_w, _set_zeros, _set_ones, _set_twos, _set_bubbles = (
    getattr(Row, name).__set__ for name in Row.__slots__)


class _Memo(dict):
    """A dict that computes a missing value with its function, once."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def size_counts(rows: Iterable[Row], w: int, limit: int | None = None) -> list[int]:
    """Exact member counts per cardinality j = 0..limit (default w; zero past
    w, none for a negative limit), summed over pairwise disjoint rows over
    {1..w}, or over a single row.  The rows are read once, so they may come
    from a stream; the first row is pulled before ``limit`` is used, since
    an engine stream checks its k, often this same limit, only then.

    Kronecker substitution: a row's size polynomial X^|ones| (1+X)^|twos|
    prod((1+X)^|b| - 1) has as X^j coefficient its number of members of
    size j, and the counts are the base-2^bits digits of the polynomials'
    sum at X = 2^bits.  Only the digits 0..limit are made.  The factor
    (1+X)^n of a free block, and (1+X)^n - 1 of a bubble, is computed once
    per distinct n, on first use, so a row costs one shift and one product
    per bubble; a row with more than ``limit`` forced positions and
    bubbles has no member of size <= limit and is skipped.

    Digit width.  With L = w.bit_length(), bits is min(w, limit * L) + 1
    rounded up to whole bytes.  No count of size j <= limit reaches 2^bits:
    the members of size j of disjoint rows, or of one row, are distinct
    j-subsets of {1..w}, so there are at most C(w, j) <= 2^w of them, and
    C(w, j) is 1 for j = 0 and at most w^j < 2^(j * L) for j >= 1.  The
    same bound holds for every partial product of one row's factors, which
    counts the members of a smaller row.  So no digit 0..limit carries.

    Truncation.  For limit < w every product is reduced with ``& keep``,
    keep = 2^(bits * (limit + 1)) - 1.  A sum of products has the same
    value mod 2^(bits * (limit + 1)) whether its parts are reduced or not,
    carries only move upward, and the digits 0..limit, each below 2^bits,
    are that value's.  For limit >= w nothing is reduced: the polynomials
    have degree <= w, and a mask would only copy the products.

    Factors.  (1+X)^n is written digit by digit from the binomials C(n, j),
    j <= limit, through bytes, which is what the whole-byte digits are for.
    Digit 0 is 1, so a bubble factor's - 1 borrows nothing.  No power is
    raised: squaring up to (1+X)^7998 at w = 8000 takes over half a
    minute, where its digits take a tenth of a second, and three-argument
    ``pow`` would reduce by long division, quadratic in the modulus.
    """
    rows = iter(rows)
    head = list(itertools.islice(rows, 1))
    top = w if limit is None else limit
    width = (min(w, max(top, 0) * w.bit_length()) + 8) // 8
    bits = 8 * width
    keep = (1 << bits * (top + 1)) - 1 if 0 <= top < w else None

    def power(n: int) -> int:
        """(1 + X)^n, its digits 0..limit."""
        digits, c = [], 1
        for j in range(min(n, top) + 1):
            digits.append(c.to_bytes(width, "little"))
            c = c * (n - j) // (j + 1)
        return int.from_bytes(b"".join(digits), "little")

    free = _Memo(power)
    bubble = _Memo(lambda n: free[n] - 1)
    total = 0
    for row in itertools.chain(head, rows):
        ones = row.one_mask.bit_count()
        bubbles = row.bubble_masks
        if ones + len(bubbles) > top:
            continue
        term = free[row.two_mask.bit_count()] << bits * ones
        if keep is None:
            for b in bubbles:
                term *= bubble[b.bit_count()]
        else:
            term &= keep
            for b in bubbles:
                term = term * bubble[b.bit_count()] & keep
        total += term
    if keep is not None:
        total &= keep
    data = total.to_bytes(width * max(top + 1, 0), "little")
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def bubble_segment_counts(sizes: Iterable[int], limit: int) -> list[list[int]]:
    """Running per-cardinality counts as bubbles of the given sizes are
    appended to an initially empty row; one list (indexed 0..limit) per
    appended bubble."""
    row = Row.powerset(0)
    segments = []
    for n in sizes:
        # size-1 bubbles are promoted to forced positions, so carry the ones
        bubble = (1 << row.w + n + 1) - (1 << row.w + 1)
        row = Row(row.w + n, 0, row.one_mask, 0, row.bubble_masks + (bubble,))
        segments.append(size_counts((row,), row.w, limit))
    return segments


def row_from_tokens(text: str) -> Row:
    """Build a Row from position tokens like "2 2 e1 e1 0 1 e2 e2".

    Bubble order follows the numeric labels (a bare "e" sorts first), so a
    token string controls the generation order of the resulting row.
    """
    tokens = text.split()
    parts = {"0": 0, "1": 0, "2": 0}
    groups: dict[str, int] = {}
    for pos, tok in enumerate(tokens, start=1):
        if tok in parts:
            parts[tok] |= 1 << pos
        elif tok == "e" or (tok.startswith("e") and tok[1:].isdigit()):
            groups[tok] = groups.get(tok, 0) | 1 << pos
        else:
            raise ValueError(f"bad row token {tok!r}")
    order = sorted(groups, key=lambda t: 0 if t == "e" else int(t[1:]))
    return Row(len(tokens), parts["0"], parts["1"], parts["2"],
               [groups[t] for t in order])
