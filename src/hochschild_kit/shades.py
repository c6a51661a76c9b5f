"""Lighted shades: sequences of integer tuples with light labels.

An m-lighted n-shade is a top-down sequence of positions, each holding a
(possibly empty) tuple of positive integers and a (possibly empty) set of
light labels, such that the tuple entries sum to n, every empty tuple carries
at least one light, and the light sets partition {1, ..., m}.

The record-per-position storage makes both classical views (the triple of
sequence, distinguished positions and ordered partition, and the pair of
parallel sequences) directly derivable.
One rank rule, `sequence_rank`, reads the tuple sequence only; the ``rank``
property, the census in `tables` and the enumerators read it, and a rank
filter skips a sequence before its lights are distributed.  The lights of a
sequence are the cached ordered partitions of the labels
(`painted.ordered_partitions`) placed on its lit positions, so the shades
share their light sets: the partitions' blocks and one empty set, `_UNLIT`.
The unary shades of a call share `_UNLIT` and one singleton per label.
Only the enumerators sort; the moves come in generation order.

``entries`` is the only stored form.  A derived member is a cached property
only when the checks read it again; ``key`` (read by the enumerators' one
sort) and ``size`` are computed on every read.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations
import json
from types import MappingProxyType

from .painted import (
    _check_params,
    _json_array,
    _json_fields,
    _json_int_set,
    _json_ints,
    ordered_partitions,
)
from .preposets import Preposet

_UNLIT = frozenset()  # the light set of every unlit position


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

    # -- basic views ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of positions |S|."""
        return len(self.entries)

    @cached_property
    def rank(self) -> int:
        """Dimension of the corresponding face of the Hochschild polytope."""
        return sequence_rank(self.m, [vals for vals, _ in self.entries])

    @cached_property
    def is_unary(self) -> bool:
        return self.rank == 0

    @cached_property
    def cut_positions(self) -> tuple[int, ...]:
        """Positions holding at least one light, top to bottom."""
        return tuple(i for i, (_, l) in enumerate(self.entries) if l)

    @cached_property
    def mu(self) -> tuple[frozenset, ...]:
        """Ordered partition of the labels, one part per cut, top cut first."""
        return tuple(self.entries[i][1] for i in self.cut_positions)

    @cached_property
    def light_position(self) -> MappingProxyType:
        """Position of the cut carrying each label, read-only: the shade is
        shared by every caller of the poset caches."""
        out = {}
        for i, (_, lights) in enumerate(self.entries):
            for x in lights:
                out[x] = i
        return MappingProxyType(out)

    @cached_property
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

    @cached_property
    def singletons(self):
        """For unary shades: the (position, value, preceding_sum) of each tuple."""
        return tuple(
            (pos, v, ps) for pos, idx, v, ps in self.flat_entries
        )

    # -- preposet --------------------------------------------------------------

    @cached_property
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

    @property
    def key(self):
        return tuple((vals, tuple(sorted(l))) for vals, l in self.entries)

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

    # -- moves ------------------------------------------------------------------

    def refinement_covers_down(self) -> list["LightedShade"]:
        """Shades covered by this one in the refinement order.

        Move (i) concatenates two consecutive positions; move (ii) splits one
        integer entry in place.  Each result has rank one higher and a strictly
        larger preposet.  The results come in generation order; a poset
        orders its covers by element index.
        """
        out = []
        ent = self.entries
        for i in range(len(ent) - 1):
            merged = (ent[i][0] + ent[i + 1][0], ent[i][1] | ent[i + 1][1])
            out.append(
                LightedShade(self.m, self.n, ent[:i] + (merged,) + ent[i + 2:])
            )
        for i, (vals, lights) in enumerate(ent):
            for j, v in enumerate(vals):
                for y in range(1, v):
                    split = vals[:j] + (y, v - y) + vals[j + 1:]
                    out.append(
                        LightedShade(
                            self.m, self.n, ent[:i] + ((split, lights),) + ent[i + 1:]
                        )
                    )
        return out

    def rotation_successors(self) -> list["LightedShade"]:
        """Right-rotation successors of a unary shade, in generation order;
        a poset orders its covers by element index."""
        if not self.is_unary:
            raise ValueError("rotations are defined on unary shades")
        out = []
        ent = self.entries
        for i, (vals, lights) in enumerate(ent):
            if len(vals) == 1 and vals[0] >= 2:
                r = vals[0]
                for s in range(1, r):
                    new = ent[:i] + (((s,), frozenset()), ((r - s,), frozenset())) + ent[i + 1:]
                    out.append(LightedShade(self.m, self.n, new))
        for i in range(len(ent) - 1):
            a, b = ent[i], ent[i + 1]
            if a[0] and not a[1] and b[1] and not b[0]:
                out.append(
                    LightedShade(self.m, self.n, ent[:i] + (b, a) + ent[i + 2:])
                )
            elif a[1] and b[1] and not a[0] and not b[0]:
                if min(b[1]) < min(a[1]):
                    out.append(
                        LightedShade(self.m, self.n, ent[:i] + (b, a) + ent[i + 2:])
                    )
        return out


# -- enumeration ---------------------------------------------------------------


def sequence_rank(m, tuples) -> int:
    """Rank (face dimension) of every m-lighted shade on a sequence of tuples:
    m minus the positions plus the integer entries."""
    return m - len(tuples) + sum(map(len, tuples))


def _compositions(n):
    """All tuples of positive integers summing to n (n >= 1)."""
    for first in range(1, n):
        for rest in _compositions(n - first):
            yield (first,) + rest
    yield (n,)


def _tuple_sequences(n, max_empty):
    """Sequences of tuples (each possibly empty) with total sum n.

    At most ``max_empty`` empty tuples; at least one position overall.
    """

    def rec(remaining, empties_left):
        if remaining == 0:
            yield []
        for s in range(1, remaining + 1):
            for comp in _compositions(s):
                for rest in rec(remaining - s, empties_left):
                    yield [comp] + rest
        if empties_left:
            for rest in rec(remaining, empties_left - 1):
                yield [()] + rest

    for seq in rec(n, max_empty):
        if seq:
            yield seq


def _light_distributions(seq, m):
    """Assign disjoint label sets covering {1, ..., m} to the positions.

    Every position holding an empty tuple is lit, and so is any subset of
    the other positions, at most m lit in all; each ordered partition of the
    labels into as many blocks as lit positions is placed on them, top
    first.
    """
    empty = [pos for pos, t in enumerate(seq) if not t]
    others = [pos for pos, t in enumerate(seq) if t]
    for extra in range(m - len(empty) + 1):
        for chosen in combinations(others, extra):
            lit = sorted(empty + list(chosen))
            for parts in ordered_partitions(m, len(lit)):
                lights = [_UNLIT] * len(seq)
                for pos, part in zip(lit, parts):
                    lights[pos] = part
                yield lights


def _lighted_shades(m, n, rank=None):
    """Generate every m-lighted n-shade once, in generation order (unsorted);
    with ``rank`` only the tuple sequences of that rank are lighted."""
    for seq in _tuple_sequences(n, m):
        if rank is None or sequence_rank(m, seq) == rank:
            for lights in _light_distributions(seq, m):
                yield LightedShade(m, n, list(zip(seq, lights)))


def _unary_shades(m, n, orders=None):
    """Generate every unary m-lighted n-shade once, in generation order.

    ``orders`` are the orders, top to bottom, in which the labels may light
    the cuts; by default every permutation of 1, ..., m.  The shades share
    `_UNLIT` and one singleton light set per label.
    """
    lit = [_UNLIT, *(frozenset({x}) for x in range(1, m + 1))]  # lit[x] lights x
    comps = [()] if n == 0 else _compositions(n)
    for comp in comps:
        k = len(comp)
        for pattern in _merge_patterns(k, m):
            for perm in orders or permutations(range(1, m + 1)):
                entries = []
                ci = si = 0
                for is_cut in pattern:
                    if is_cut:
                        entries.append(((), lit[perm[ci]]))
                        ci += 1
                    else:
                        entries.append(((comp[si],), _UNLIT))
                        si += 1
                yield LightedShade(m, n, entries)


def enum_lighted_shades(m, n, rank=None) -> list[LightedShade]:
    """All m-lighted n-shades in canonical order, optionally rank filtered."""
    _check_params(m, n, rank)
    if rank == 0:
        return unary_lighted_shades(m, n)
    return sorted(_lighted_shades(m, n, rank=rank), key=lambda x: x.key)


def unary_lighted_shades(m, n) -> list[LightedShade]:
    """All unary (rank 0) m-lighted n-shades in canonical order."""
    _check_params(m, n)
    return sorted(_unary_shades(m, n), key=lambda x: x.key)


def _merge_patterns(k, m):
    """0/1 sequences with k zeros (singletons) and m ones (cuts)."""
    for cut_slots in combinations(range(k + m), m):
        pattern = [False] * (k + m)
        for c in cut_slots:
            pattern[c] = True
        yield pattern
