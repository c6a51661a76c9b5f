"""Lighted shades: sequences of integer tuples with light labels.

An m-lighted n-shade is a top-down sequence of positions, each holding a
(possibly empty) tuple of positive integers and a (possibly empty) set of
light labels, such that the tuple entries sum to n, every empty tuple carries
at least one light, and the light sets partition {1, ..., m}.

The record-per-position storage makes both classical views (the triple of
sequence, distinguished positions and ordered partition, and the pair of
parallel sequences) directly derivable.
One rank rule, `sequence_rank`, reads the tuple sequence only; the ``rank``
property reads it, and the generators and the census in `tables` add it up
one position at a time.  One generator, `_shades`, builds the shades of
every rank position by position, already in canonical order (the
lexicographic order of the entries, each light set read as a sorted tuple),
so nothing is sorted; a rank filter prunes each position by the same rule,
and rank 0 gives the unary shades.  `canonical_shades` walks the same way
with consecutive label intervals in place of the label subsets: one shade
per orbit of the label permutations, with its orbit size, which the
Hochschild face closure reads instead of the cell, and the census in
`tables` at rank 0 instead of the unary shades.  The shades share their
light sets: one frozenset per set of labels, the empty one `_UNLIT`, from
the table of label subsets that `painted.ordered_partitions` reads too.
The generators and the shadow map hand their entries over as they are,
through the internal constructor ``LightedShade._new``; the public
constructor normalises every entry again.

The refinement moves build their results as shades, in generation order.
The rotation moves build none: `rotation_covers` reads a unary shade as its
sequence of values and cuts plus its labels top to bottom, computes each
sequence's moves once (`_sequence_moves`) and finds each successor's index
in one dict.

``entries`` is the only stored form.  A derived member is a cached property
only when the checks read it again; ``size`` is computed on every read.
"""

from __future__ import annotations

from functools import lru_cache
import json
from math import factorial

from .painted import (
    _LABEL_SETS,
    _check_params,
    _json_array,
    _json_fields,
    _json_int_set,
    _json_ints,
    _label_subsets,
)
from .preposets import Preposet, cached_view

_UNLIT = _LABEL_SETS[0]  # the light set of every unlit position


class LightedShade:
    """An m-lighted n-shade.

    Attributes:
        m, n: size parameters.
        entries: tuple of (values, lights) pairs, topmost position first,
            where values is a tuple of ints >= 1 and lights a frozenset.
    """

    __slots__ = ("m", "n", "entries", "__dict__")

    def __init__(self, m, n, entries):
        self.m = m
        self.n = n
        self.entries = tuple(
            (tuple(vals), frozenset(lights)) for vals, lights in entries
        )

    @classmethod
    def _new(cls, m, n, entries) -> "LightedShade":
        """The internal constructor: ``entries`` is already a tuple of
        (tuple, frozenset) pairs and is stored as it is, with no copy."""
        ls = cls.__new__(cls)
        ls.m, ls.n, ls.entries = m, n, entries
        return ls

    # -- basic views ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of positions |S|."""
        return len(self.entries)

    @cached_view
    def rank(self) -> int:
        """Dimension of the corresponding face of the Hochschild polytope."""
        return sequence_rank(self.m, [vals for vals, _ in self.entries])

    @cached_view
    def is_unary(self) -> bool:
        return self.rank == 0

    @cached_view
    def cut_positions(self) -> tuple[int, ...]:
        """Positions holding at least one light, top to bottom."""
        return tuple(i for i, (_, l) in enumerate(self.entries) if l)

    @cached_view
    def mu(self) -> tuple[frozenset, ...]:
        """Ordered partition of the labels, one part per cut, top cut first."""
        return tuple(self.entries[i][1] for i in self.cut_positions)

    @cached_view
    def flat_entries(self):
        """All integer entries as (position, index, value, preceding_sum)."""
        out = []
        acc = self.m
        for pos, (vals, _) in enumerate(self.entries):
            for idx, v in enumerate(vals):
                acc += v
                out.append((pos, idx, v, acc))
        return tuple(out)

    def cuts_below_position(self, pos: int) -> int:
        """Number of cuts strictly below the given position."""
        return sum(1 for c in self.cut_positions if c > pos)

    @cached_view
    def singletons(self):
        """For unary shades: the (position, value, preceding_sum) of each tuple."""
        return tuple(
            (pos, v, ps) for pos, idx, v, ps in self.flat_entries
        )

    # -- preposet --------------------------------------------------------------

    @cached_view
    def preposet(self) -> Preposet:
        """Preposet on {1, ..., m + n}, built as closed rows.

        Its four relation clauses say: a label is below every label lit at or
        above its position and below the top (last element) of every entry
        at or above it; an element of an entry's block is below the same two
        sets, taken at the entry's position.  So one prefix mask per position,
        the labels lit and the entry tops at or above it, ORed with the
        element's own bit, is its row.  The rows are already closed: every
        label or top in a row at position p sits at a position q <= p, and
        its own row is the prefix mask at q, which lies inside the one at p.
        """
        m = self.m
        rows = [0] * (m + self.n)
        above = 0
        top = m  # the last element of the entries passed; the labels come first
        for vals, lights in self.entries:
            for x in lights:
                above |= 1 << x - 1
            for v in vals:
                top += v
                above |= 1 << top - 1
            for x in lights:
                rows[x - 1] = above
            for k in range(top - sum(vals), top):
                rows[k] = above | 1 << k
        return Preposet(m + self.n, tuple(rows))

    # -- canonical forms ---------------------------------------------------------

    def canonical(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    def to_json_obj(self):
        return {
            "m": self.m,
            "n": self.n,
            "entries": [
                {"tuple": list(vals), "lights": sorted(l)}
                for vals, l in self.entries
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "LightedShade":
        m, n, entries = _json_fields(obj, "m", "n", "entries")
        m, n = _json_ints([m, n])
        rows = []
        for e in _json_array(entries):
            vals, lights = _json_fields(e, "tuple", "lights")
            rows.append((_json_ints(vals), _json_int_set(lights)))
        ls = cls(m, n, rows)
        ls.validate()
        return ls

    def __eq__(self, other):
        return (
            isinstance(other, LightedShade)
            and self.m == other.m
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.m, self.n, self.entries))

    def __repr__(self):
        return f"LightedShade({self.canonical()})"

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError("need m >= 0, n >= 0, m + n >= 1")
        total = 0
        seen = set()
        for vals, lights in self.entries:
            if any(v < 1 for v in vals):
                raise ValueError("tuple entries must be >= 1")
            total += sum(vals)
            if not vals and not lights:
                raise ValueError("empty tuples must carry a light")
            if lights & seen:
                raise ValueError("light sets must be disjoint")
            seen |= lights
        if total != self.n:
            raise ValueError("tuple entries must sum to n")
        if seen != set(range(1, self.m + 1)):
            raise ValueError("lights must partition {1, ..., m}")
        if not self.entries:
            raise ValueError("a shade has at least one position")


# -- enumeration ---------------------------------------------------------------


def sequence_rank(m, tuples) -> int:
    """Rank (face dimension) of every m-lighted shade on a sequence of tuples:
    m minus the positions plus the integer entries."""
    return m - len(tuples) + sum(map(len, tuples))


@lru_cache(maxsize=None)
def _tuples_upto(s):
    """The tuples of positive integers with sum at most s, in lexicographic
    order with () first, each as (tuple, its sum, its rank step len - 1)."""
    return (((), 0, -1),) + tuple(
        ((v, *vals), v + used, step + 1)
        for v in range(1, s + 1)
        for vals, used, step in _tuples_upto(s - v)
    )


def _reachable(need, left, count):
    """Whether positions still to come, over a sum ``left`` and ``count``
    labels, can add up ``need`` rank steps: the totals -count .. left - 1
    are reachable (-count .. -1 with no sum left, only 0 with nothing left)."""
    return -count <= need < (left or count == 0)


def _shades(m, n, rank=None):
    """Every m-lighted n-shade of the given rank (of every rank with None),
    built position by position in canonical order.

    Each position tries its entries (tuple, lights) in order: the tuples of
    sum at most what is left in lexicographic order with () first, then for
    each the subsets of the labels left, as sorted tuples with the empty set
    first; an entry with neither is skipped.  A shade is complete once the
    sum and the labels are used up, and a complete one extends no further,
    so no shade is a prefix of another and the shades come in the
    lexicographic order of their entries: the canonical order.  Each entry
    adds len(tuple) - 1 to the rank minus m (`sequence_rank`); with
    ``rank`` an entry after which that rank is out of reach is skipped, so
    every branch ends in a shade.
    """

    def walk(left, labels, need, entries):
        if not (left or labels):
            yield LightedShade._new(m, n, entries)
        for vals, used, step in _tuples_upto(left):
            rest, later = left - used, None if need is None else need - step
            for lights, after, count in _label_subsets(labels):
                if (vals or lights) and (need is None or _reachable(later, rest, count)):
                    yield from walk(rest, after, later, entries + ((vals, lights),))

    return walk(n, (1 << m) - 1, None if rank is None else rank - m, ())


def enum_lighted_shades(m, n, rank=None) -> list[LightedShade]:
    """All m-lighted n-shades in canonical order, optionally rank filtered."""
    _check_params(m, n, rank)
    return list(_shades(m, n, rank))


def unary_lighted_shades(m, n) -> list[LightedShade]:
    """All unary (rank 0) m-lighted n-shades in canonical order."""
    _check_params(m, n)
    return list(_shades(m, n, 0))


@lru_cache(maxsize=None)
def _label_intervals(first, m):
    """The intervals {first, ..., first + k - 1} of the labels first..m,
    k = 0 first, each as (the interval, the first label after it, k!).  Each
    interval is the one frozenset of `_LABEL_SETS` for its labels."""
    out = []
    for k in range(m - first + 2):
        mask = (1 << k) - 1 << first - 1
        lights = _LABEL_SETS.setdefault(mask, frozenset(range(first, first + k)))
        out.append((lights, first + k, factorial(k)))
    return tuple(out)


def canonical_shades(m, n, rank=None):
    """One m-lighted n-shade per orbit of the label permutations, with the
    size of its orbit: (shade, m!/prod k_i!), in canonical order (of one
    ``rank`` only, if given).

    S_m renames the labels and keeps the tuples, so an orbit is a tuple
    sequence with k_i labels at its i-th position, and it has one shade
    whose light sets, read top to bottom, are the consecutive intervals
    {1..k_1}, {k_1+1..k_1+k_2}, ...; its other members light each position
    with another k_i labels, m!/prod k_i! shades in all.  `_shades`' walk
    with these intervals in place of the label subsets builds exactly those
    shades, and prunes by rank as it does (m + 1 - ``after`` labels left).
    Their label rows are prefix masks that strictly grow down the
    positions, so the shade's preposet is its own `relabel_canonically`
    form.  At rank 0 the lights read 1..m from the top.
    """
    _check_params(m, n, rank)

    def walk(left, first, need, size, entries):
        if not left and first > m:
            yield LightedShade._new(m, n, entries), size
        for vals, used, step in _tuples_upto(left):
            rest, later = left - used, None if need is None else need - step
            for lights, after, ways in _label_intervals(first, m):
                if (vals or lights) and (need is None or _reachable(later, rest, m + 1 - after)):
                    yield from walk(rest, after, later, size // ways, entries + ((vals, lights),))

    return walk(n, 1, None if rank is None else rank - m, factorial(m), ())


# -- rotation covers -------------------------------------------------------------


def _sequence_moves(seq):
    """The right rotations of a unary shade that keep its labels in order,
    on its sequence of values and cuts (0 for a cut), top first: split a
    value r >= 2 into s, r - s, or move a cut above the value just above it."""
    out = [
        seq[:i] + (s, r - s) + seq[i + 1:]
        for i, r in enumerate(seq)
        for s in range(1, r)
    ]
    out += (
        seq[:i] + (0, seq[i]) + seq[i + 2:]
        for i in range(len(seq) - 1)
        if seq[i] and not seq[i + 1]
    )
    return out


def labeling(ls):
    """A unary shade as its sequence of values and cuts (0 for a cut), top
    first, and its labels read top to bottom.  S_m renames the labels and
    keeps the sequence, and the shade whose labels read 1..m is the
    `canonical_shades` representative of its orbit."""
    return (
        tuple([vals[0] if vals else 0 for vals, _ in ls.entries]),
        tuple([x for _, lights in ls.entries for x in lights]),
    )


def rotation_covers(objs) -> list[tuple[int, int]]:
    """The covers of the rotation order on the unary shades ``objs``, as
    (lower, upper) index pairs, in no particular order.

    A unary shade is its sequence of values and cuts (`_sequence_moves`)
    plus its labels read top to bottom (`labeling`), and one dict built in
    one pass maps that pair to the shade's index.  The shape moves, memoised per sequence,
    keep the labels; the one label move swaps two adjacent cuts when the
    lower one holds the smaller label.  A move that reaches no shade of
    ``objs`` raises ValueError.
    """
    if not objs:
        return []
    m, n = objs[0].m, objs[0].n
    index = {labeling(ls): i for i, ls in enumerate(objs)}

    def reach(seq, labels):
        upper = index.get((seq, labels))
        if upper is None:
            left = iter(labels)
            stray = LightedShade(m, n, [((v,), ()) if v else ((), {next(left)}) for v in seq])
            raise ValueError(f"a move reaches {stray!r}, which is not an element")
        return upper

    memo = {}  # sequence -> (its shape moves, the cut index of each adjacent cut pair)
    covers = []
    for (seq, labels), lower in index.items():
        moves = memo.get(seq)
        if moves is None:
            cuts = [p for p, v in enumerate(seq) if not v]
            pairs = [c for c, (p, q) in enumerate(zip(cuts, cuts[1:])) if q == p + 1]
            moves = memo[seq] = _sequence_moves(seq), pairs
        for moved in moves[0]:
            covers.append((lower, reach(moved, labels)))
        for c in moves[1]:
            if labels[c + 1] < labels[c]:
                swapped = labels[:c] + (labels[c + 1], labels[c]) + labels[c + 2:]
                covers.append((lower, reach(seq, swapped)))
    return covers


# -- refinement covers -----------------------------------------------------------


def refinement_covers(objs) -> list[tuple[int, int]]:
    """The covers of the refinement order on the shades ``objs``, as
    (coarser, finer) index pairs, in no particular order.

    Move (i) concatenates two consecutive positions, move (ii) splits one
    integer entry in place; each result has rank one higher and a strictly
    larger preposet.  Each move is computed as an entries tuple and looked
    up in one dict from entries to index, so no shade is built per move.  A
    move that reaches no shade of ``objs`` raises ValueError.
    """
    if not objs:
        return []
    m, n = objs[0].m, objs[0].n
    index = {ls.entries: i for i, ls in enumerate(objs)}

    def reach(entries):
        upper = index.get(entries)
        if upper is None:
            stray = LightedShade(m, n, entries)
            raise ValueError(f"a move reaches {stray!r}, which is not an element")
        return upper

    covers = []
    for ent, lower in index.items():
        for i in range(len(ent) - 1):
            (a, la), (b, lb) = ent[i], ent[i + 1]
            covers.append((reach(ent[:i] + ((a + b, la | lb),) + ent[i + 2:]), lower))
        for i, (vals, lights) in enumerate(ent):
            for j, v in enumerate(vals):
                for y in range(1, v):
                    split = vals[:j] + (y, v - y) + vals[j + 1:]
                    covers.append((reach(ent[:i] + ((split, lights),) + ent[i + 1:]), lower))
    return covers
