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
from typing import Callable, Collection, Iterable, Iterator


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex set: bit v is set for every vertex v.

    The one vertex-to-mask converter.  Vertices are ints >= 1, so bit 0
    stays clear; anything else raises ValueError, naming the first bad
    vertex in order.  The bits are set in a byte array and read as one int,
    so the cost is linear in the largest vertex; setting them in an int
    would copy the growing mask for every vertex.
    """
    vertices = tuple(vertices)
    top = 0
    for v in vertices:
        if type(v) is not int or v < 1:
            raise ValueError(f"vertex {v!r} is not an int >= 1")
        if v > top:
            top = v
    data = bytearray((top >> 3) + 1)
    for v in vertices:
        data[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(data, "little")


def _picks(block: list[int], d: int) -> Iterator[Collection[int]]:
    """The d-position picks of an ascending block, in reverse lexicographic
    order (see :meth:`Row.members_of_size`): from the reversed block for
    d <= 1, else as the complements of the forward picks of the rest."""
    if d <= 1:
        return itertools.combinations(block[::-1], d)
    return map(frozenset(block).difference,
               itertools.combinations(block, len(block) - d))


# the most positions that Row.members_of_size keeps in a listed tail
_REPLAY = 4096


def _tails(bubbles: list[list[int]], need: int) -> Iterator[tuple[int, ...]]:
    """The picks of ``need`` positions from the bubbles, at least one from
    each, as tuples in :meth:`Row.members_of_size`'s order; a stack holds
    one pick iterator per open bubble.  With one position from each
    bubble, every bubble's sizes run from 1 down to 1, its picks are its
    positions reversed, the last bubble's in order, and the product of
    these, first factor slowest, nests them as the stack does."""
    last = len(bubbles) - 1
    if need == last + 1:
        return itertools.product(*[b[::-1] for b in bubbles[:-1]], bubbles[-1])
    # room[p]: the positions in bubbles p..last
    room = list(itertools.accumulate(map(len, reversed(bubbles)), initial=0))[::-1]

    def walk() -> Iterator[Iterator[tuple[int, ...]]]:
        # stack[p] holds the picks of bubble p - 1 and the need before them,
        # chosen[p] the current one; stack[0] holds the empty pick
        stack = [(iter(((),)), need)]
        chosen = [()] * last
        while stack:
            picks, left = stack[-1]
            p = len(stack) - 1
            block = bubbles[p]
            if p == last:
                head = tuple(itertools.chain.from_iterable(chosen))
                for pick in picks:
                    yield map((*head, *pick).__add__,
                              itertools.combinations(block, left - len(pick)))
                stack.pop()
                continue
            for pick in picks:
                chosen[p] = pick
                left -= len(pick)
                hi = min(len(block), left - (last - p))
                lo = max(1, left - room[p + 1])
                # repeat() binds this bubble now; the loop rebinds ``block``
                # before the later sizes' picks are read
                stack.append((itertools.chain.from_iterable(
                    map(_picks, itertools.repeat(block), range(hi, lo - 1, -1))), left))
                break
            else:  # bubble p - 1 has no pick left
                stack.pop()

    return itertools.chain.from_iterable(walk())


def _replay(ones: tuple, free: list[int], bubbles: list[list], need: int,
            label) -> Iterator[Iterator[tuple]]:
    """The members of :func:`_members`, unsorted, as a run of iterators:
    for each free pick size d, the 1s and each free pick joined with every
    tail of ``need - d`` positions."""
    room = sum(map(len, bubbles))
    for d in range(min(len(free), need - len(bubbles)), max(0, need - room) - 1, -1):
        t = need - d
        # a pass of one free pick walks its tails once, and needs no list
        walked = d in (0, len(free))
        if not walked:
            kept = tuple(itertools.islice(_tails(bubbles, t), _REPLAY // t + 1))
            # a tail too long to keep is walked again for each free pick
            walked = len(kept) * t > _REPLAY
        for pick in map(ones.__add__, _labelled(_picks(free, d), label)):
            yield map(pick.__add__, _tails(bubbles, t) if walked else kept)


def _labelled(picks: Iterable[Collection[int]], label) -> Iterator[tuple]:
    """The free block's picks as tuples of their positions, or with a
    ``label`` function, of their positions' labels, made as each pick is
    taken."""
    if label is not None:
        picks = map(map, itertools.repeat(label), picks)
    return map(tuple, picks)


def _members(parts: tuple, k: int, label: Callable[[int], str] | None = None
             ) -> Iterator[list]:
    """Every member of cardinality k of the row with these parts ``(zeros,
    ones, twos, bubbles)``, once each, as a sorted list of its positions,
    or with a ``label`` function, of its positions' labels; an iterator
    that runs no Python frame per member.  The walk and its order are
    those of :meth:`Row.members_of_size`, which reads each list as a tuple
    of ints; ``enumerate --k`` reads the engine's parts with labels, so it
    builds no :class:`Row` and formats no int per member.  A k that is not
    an int (``True``, ``2.5``, ``"2"``) raises ValueError at the call; an
    int k the row has no members of gives none.

    Labels.  ``label`` must map the vertices to strings that sort as the
    vertices do.  ``enumerate --k`` labels vertex v with ``str(v)``
    left-padded with NULs (``"\\0"``) to the number of digits of w.  Labels
    of one width compare character by character, and a NUL sorts below
    every digit, so a shorter number, padded, sorts below a longer one and
    numbers of one length sort by their digits: the per-member ``sorted``
    puts the labels in vertex order.  The caller joins them with spaces and
    drops the NULs from the joined text.

    At k = c_min a member is the 1s plus one position per bubble, so the
    members are the 1s joined with the bubbles' product (:func:`_tails`),
    and the free block is decoded only when a free pick is taken.

    Lazy labels.  The 1s and the bubbles are labelled when the row is
    decoded; their positions lie in the hypergraph's edges, so their
    number is bounded by the input size.  The free block stays a list of
    ints, and each free pick is labelled as it is taken (:func:`_labelled`);
    ``enumerate`` passes the lookup of a :class:`_Memo`, so each vertex is
    formatted at most once per run.  So a wide free block of which few
    picks are taken, as under ``--limit``, gets a label only for the
    positions those picks hold: labels add memory for the positions
    picked, not for the w positions of the row, whose decoded ints a walk
    that takes free picks holds in any case.
    """
    if type(k) is not int:
        raise ValueError(f"k must be an int, not {k!r}")
    _, ones, twos, bubbles = parts
    need = k - ones.bit_count()
    # the positions a member takes beyond one per bubble
    extra = need - len(bubbles)
    if extra < 0 or extra and need > twos.bit_count() + sum(b.bit_count() for b in bubbles):
        return iter(())
    ones = _vertices(ones)
    bubbles = [*map(_vertices, bubbles)]
    if label is not None:
        ones = [*map(label, ones)]
        bubbles = [[*map(label, bubble)] for bubble in bubbles]
    ones = tuple(ones)
    if not extra:
        if not bubbles:
            return iter((sorted(ones),))
        return map(sorted, map(ones.__add__, _tails(bubbles, need)))
    free = _vertices(twos)
    if not bubbles:
        return map(sorted, map(ones.__add__,
                               _labelled(itertools.combinations(free, need), label)))
    return map(sorted, itertools.chain.from_iterable(_replay(ones, free, bubbles, need, label)))


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
    parses text.  A row stores ``w`` and one tuple ``parts`` = ``(zeros,
    ones, twos, bubbles)``, ``bubbles`` a tuple: the shape in which the
    engine passes parts on, so ``Row(w, *parts).parts == parts`` for the
    parts of :func:`~transversals.engine.final_parts`.  Rows are immutable.

    The bubbles keep the order given at construction; generation walks
    the bubbles in that order, so the order is part of the row's behaviour
    even though it does not change the represented family.  Equality,
    hashing and :meth:`render` use the canonical order (bubbles sorted by
    their smallest element), so two rows denoting the same family built with
    the same blocks compare equal regardless of bubble order.

    Bubbles of size one are promoted to forced positions on construction;
    an empty bubble is rejected since no set can hit it.  The promotion
    serves :func:`row_from_tokens`, :func:`bubble_segment_counts` and
    external callers only.  The parts that
    :func:`~transversals.engine.final_parts` yields and the parts that
    :func:`restrict` cuts hold no one-position bubble
    (:func:`~transversals.engine.impose` and :func:`restrict` make none),
    so the promotion never fires on a row built from them.

    A row unpacks into its parts: ``zeros, ones, twos, bubbles = row``, and
    ``Row(row.w, *row)`` rebuilds it with the same bubble order.
    """

    __slots__ = ("w", "parts")

    def __init__(self, w: int, zeros: int, ones: int, twos: int,
                 bubbles: Iterable[int] = ()) -> None:
        _set_w(self, w)
        _set_parts(self, (zeros, ones, twos, tuple(bubbles)))
        self.__post_init__()

    def __post_init__(self) -> None:
        """The one validation path, run on every row built: promote
        one-position bubbles to forced positions, reject an empty bubble,
        and check that the parts are int masks, disjoint (their popcounts
        add up to the popcount of their union) and cover exactly 1..w.  The
        benchmark's tracer times row construction by wrapping this name."""
        w, (zeros, ones, twos, bubbles) = self.w, self.parts
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
            _set_parts(self, (zeros, ones, twos,
                              tuple(bubble for bubble in bubbles if bubble & bubble - 1)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Row is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Row is immutable; cannot delete {name!r}")

    def __iter__(self) -> Iterator:
        return iter(self.parts)

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor
        return Row, (self.w, *self.parts)

    @classmethod
    def powerset(cls, w: int) -> "Row":
        """The all-free row denoting every subset of {1..w}."""
        return cls(w, 0, 0, (1 << w + 1) - 2)

    def _key(self):
        zeros, ones, twos, bubbles = self.parts
        return (self.w, zeros, ones, twos, frozenset(bubbles))

    def __eq__(self, other) -> bool:
        return isinstance(other, Row) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Row({self.render()!r})"

    # ----- size ------------------------------------------------------------

    def size(self) -> int:
        """Number of represented sets: 2^|twos| * prod(2^|bubble| - 1)."""
        _, _, twos, bubbles = self.parts
        n = 1 << twos.bit_count()
        for bubble in bubbles:
            n *= (1 << bubble.bit_count()) - 1
        return n

    @property
    def c_min(self) -> int:
        """Smallest member cardinality: one per bubble plus the forced 1s."""
        return self.parts[1].bit_count() + len(self.parts[3])

    @property
    def c_max(self) -> int:
        """Largest member cardinality: everything but the 0s."""
        return self.w - self.parts[0].bit_count()

    # ----- counting by cardinality ---------------------------------------

    def count_of_size(self, k: int) -> int:
        """Number of represented sets of cardinality exactly k; a k other
        than an int is refused with ValueError, as in :func:`_members`."""
        if type(k) is not int:
            raise ValueError(f"k must be an int, not {k!r}")
        if k < 0 or k > self.w:
            return 0
        return size_counts((self.parts,), self.w, k)[k]

    # ----- generation ------------------------------------------------------

    def members_of_size(self, k: int) -> Iterator[tuple[int, ...]]:
        """Every represented set of cardinality k exactly once, as a sorted
        tuple, from an iterator that runs no Python frame per member: the
        walk of :func:`_members`, described here.

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
        difference lies in S iff it lies in T's complement.

        Replay.  After a free pick of size d, the bubbles' picks (the
        tail, :func:`_tails`) have the bounds above with the same need - d
        positions missing, whatever the pick was; so the tail is the same
        sequence for every pick of size d.  It is listed once, and each
        free pick is joined with the listed tails, one map per pick.  So
        every free pick meets the whole tail in the tail's order before the
        next pick, in the order of one walk of all the blocks, and the
        first member comes after at most ``_REPLAY`` listed positions plus
        one tail.  A size with one free pick, the empty pick or the whole
        block, walks its tails once and lists none.  A row without bubbles
        is one map over the free block's combinations.

        At c_min.  For k = c_min no free position is picked: the members
        are the 1s joined with the bubbles' product, each bubble's
        positions reversed and the last bubble's in order, and the free
        block is not decoded.  Every row that the run for k = k_min keeps
        has c_min = k, so ``enumerate --k`` at the transversal number
        reads each row as its 1s and its bubbles.

        Memory.  The pick sources and a walk of the tail hold O(w)
        positions however many members the row has.  A tail list holds at
        most ``_REPLAY`` positions, a fixed internal bound, plus one tail;
        a tail that would need more is walked again for each free pick.
        """
        return map(tuple, _members(self.parts, k))

    # ----- canonical text form ----------------------------------------------

    def render(self) -> str:
        """The row's canonical text form, :func:`render` of its parts."""
        return render(self.w, self.parts)


# The slot descriptors' setters, bound once: they store past the immutable
# __setattr__, which object.__setattr__ would look up on every call.
_set_w, _set_parts = (getattr(Row, name).__set__ for name in Row.__slots__)


def render(w: int, parts: tuple) -> str:
    """The canonical text form of the row over {1..w} with parts ``(zeros,
    ones, twos, bubbles)``: space-separated position tokens, bubbles
    numbered by least element.  The parts are not checked here, so the
    CLI renders the engine's parts with no :class:`Row` built."""
    _, ones, twos, bubbles = parts
    token = ["0"] * (w + 1)
    for v in _vertices(ones):
        token[v] = "1"
    for v in _vertices(twos):
        token[v] = "2"
    # the lowest set bit orders bubbles by their least element
    for i, bubble in enumerate(sorted(bubbles, key=lambda b: b & -b),
                               start=1):
        for v in _vertices(bubble):
            token[v] = f"e{i}"
    return " ".join(token[1:])


def restrict(parts: tuple, require: int, forbid: int) -> tuple | None:
    """Cut the row with parts ``(zeros, ones, twos, bubbles)`` down to its
    members holding every vertex of the mask ``require`` and none of the
    mask ``forbid``, in one pass over the bubbles: None if no member does,
    ``parts`` itself if all do, else the cut row's parts.

    A bubble that ``require`` hits is satisfied, so its positions that
    neither mask names are freed; any other bubble loses the forbidden
    positions and keeps its place in the bubble order.  The cut parts are
    normal: a one-position rest goes to the 1s here, as in
    :func:`~transversals.engine.impose`, so ``Row(w, *cut).parts == cut``.
    The masks are not checked here: they come from
    :func:`~transversals.analytics.check_conditions`, which refuses a
    vertex outside 1..w or in both masks before any row is cut.  ``query``
    renders the cut parts with :func:`render` and builds no :class:`Row`;
    the tests build one from every cut, so the one validator checks them.
    """
    zeros, ones, twos, bubbles = parts
    if require & zeros or forbid & ones:
        return None
    cut = require | forbid
    if not cut & ~(zeros | ones):
        return parts
    if not cut & ~(zeros | ones | twos):
        # the cut meets no bubble: the bubbles stay as they are
        return zeros | forbid, ones | require, twos & ~cut, bubbles
    ones |= require
    freed, kept = 0, []
    for bubble in bubbles:
        if bubble & require:
            freed |= bubble
            continue
        rest = bubble & ~forbid
        if rest & rest - 1:
            kept.append(rest)
        elif rest:
            ones |= rest
        else:  # every position of the bubble is forbidden
            return None
    return zeros | forbid, ones, (twos | freed) & ~cut, tuple(kept)


class _Memo(dict):
    """A dict that computes a missing value with its function, once."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def size_counts(rows: Iterable, w: int, limit: int | None = None) -> list[int]:
    """Exact member counts per cardinality j = 0..limit (default w; zero past
    w, none for a negative limit), summed over pairwise disjoint rows over
    {1..w}, or over a single row.  A row is read as its parts ``(zeros,
    ones, twos, bubbles)``: a ``Row.parts`` tuple, a tuple that
    :func:`~transversals.engine.final_parts` yields, or a :class:`Row`,
    which unpacks into its parts at the cost of a call.  The rows are
    read once, so they may come from a stream; the first row is pulled
    before ``limit`` is used, since an engine stream checks its k, often
    this same limit, only then.

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
    for _, ones, twos, bubbles in itertools.chain(head, rows):
        ones = ones.bit_count()
        if ones + len(bubbles) > top:
            continue
        term = free[twos.bit_count()] << bits * ones
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
        _, ones, _, bubbles = row.parts
        row = Row(row.w + n, 0, ones, 0, bubbles + (bubble,))
        segments.append(size_counts((row.parts,), row.w, limit))
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
        elif tok == "e" or (tok.startswith("e") and tok[1:].isdecimal()):
            groups[tok] = groups.get(tok, 0) | 1 << pos
        else:
            raise ValueError(f"bad row token {tok!r}")
    order = sorted(groups, key=lambda t: 0 if t == "e" else int(t[1:]))
    return Row(len(tokens), parts["0"], parts["1"], parts["2"],
               [groups[t] for t in order])
