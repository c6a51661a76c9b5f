"""Lighted shades: sequences of integer tuples with light labels.

An m-lighted n-shade is a top-down sequence of positions, each holding a
(possibly empty) tuple of positive integers and a (possibly empty) set of
light labels, such that the tuple entries sum to n, every empty tuple carries
at least one light, and the light sets partition {1, ..., m}.

The record-per-position storage makes both classical views (the triple of
sequence, distinguished positions and ordered partition, and the pair of
parallel sequences) directly derivable.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations
import json

from .preposets import Preposet


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

    @cached_property
    def size(self) -> int:
        """Number of positions |S|."""
        return len(self.entries)

    @cached_property
    def weight(self) -> int:
        """Total number of integer entries."""
        return sum(len(vals) for vals, _ in self.entries)

    @cached_property
    def rank(self) -> int:
        """Dimension of the corresponding face of the Hochschild polytope."""
        return self.m - self.size + self.weight

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
    def light_position(self) -> dict:
        """Position of the cut carrying each label."""
        out = {}
        for i, (_, lights) in enumerate(self.entries):
            for x in lights:
                out[x] = i
        return out

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
        """Preposet on {1, ..., m + n} generated by the four relation clauses."""
        m = self.m
        pairs = []
        lp = self.light_position
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i != j and lp[i] >= lp[j]:
                    pairs.append((i, j))
        flat = self.flat_entries
        for xpos, _, xval, xps in flat:
            for ypos, _, _, yps in flat:
                if xpos >= ypos:
                    for k in range(xps - xval + 1, xps + 1):
                        pairs.append((k, yps))
        for i in range(1, m + 1):
            cpos = lp[i]
            for xpos, _, xval, xps in flat:
                if xpos <= cpos:
                    pairs.append((i, xps))
                if xpos >= cpos:
                    for k in range(xps - xval + 1, xps + 1):
                        pairs.append((k, i))
        return Preposet.from_pairs(m + self.n, pairs)

    # -- canonical forms ---------------------------------------------------------

    @cached_property
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
        ls = cls(
            obj["m"],
            obj["n"],
            [(e["tuple"], e["lights"]) for e in obj["entries"]],
        )
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
        larger preposet.
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
        return sorted(out, key=lambda x: x.key)

    def rotation_successors(self) -> list["LightedShade"]:
        """Right-rotation successors of a unary shade."""
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
        return sorted(out, key=lambda x: x.key)


# -- enumeration ---------------------------------------------------------------


def _compositions(n):
    """All tuples of positive integers summing to n (n >= 1)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


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
    """Assign disjoint label subsets covering {1, ..., m} to the positions.

    Positions holding an empty tuple must receive at least one label.
    """
    positions = len(seq)

    def rec(pos, remaining):
        if pos == positions:
            if not remaining:
                yield []
            return
        need = sum(1 for t in seq[pos:] if t == ())
        if len(remaining) < need:
            return
        subsets = _subsets_of(remaining)
        for sub in subsets:
            if seq[pos] == () and not sub:
                continue
            for rest in rec(pos + 1, remaining - sub):
                yield [sub] + rest

    yield from rec(0, frozenset(range(1, m + 1)))


def _subsets_of(s):
    """Every subset of s, the empty one included."""
    items = sorted(s)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def _lighted_shades(m, n):
    """Generate every m-lighted n-shade once, in generation order (unsorted)."""
    for seq in _tuple_sequences(n, m):
        for lights in _light_distributions(seq, m):
            yield LightedShade(m, n, list(zip(seq, lights)))


def _unary_shades(m, n):
    """Generate every unary m-lighted n-shade once, in generation order."""
    comps = [()] if n == 0 else _compositions(n)
    for comp in comps:
        k = len(comp)
        for pattern in _merge_patterns(k, m):
            for perm in permutations(range(1, m + 1)):
                entries = []
                ci = si = 0
                for is_cut in pattern:
                    if is_cut:
                        entries.append(((), frozenset({perm[ci]})))
                        ci += 1
                    else:
                        entries.append(((comp[si],), frozenset()))
                        si += 1
                yield LightedShade(m, n, entries)


def enum_lighted_shades(m, n, rank=None) -> list[LightedShade]:
    """All m-lighted n-shades in canonical order, optionally rank filtered."""
    _check_params(m, n)
    if rank is not None and not 0 <= rank <= m + n - 1:
        raise ValueError(f"rank must lie in [0, {m + n - 1}]")
    if rank == 0:
        return unary_lighted_shades(m, n)
    out = [ls for ls in _lighted_shades(m, n) if rank is None or ls.rank == rank]
    out.sort(key=lambda x: x.key)
    return out


def unary_lighted_shades(m, n) -> list[LightedShade]:
    """All unary (rank 0) m-lighted n-shades in canonical order."""
    _check_params(m, n)
    return sorted(_unary_shades(m, n), key=lambda x: x.key)


def _check_params(m, n):
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m >= 0, n >= 0 and m + n >= 1")


def _merge_patterns(k, m):
    """0/1 sequences with k zeros (singletons) and m ones (cuts)."""
    for cut_slots in combinations(range(k + m), m):
        pattern = [False] * (k + m)
        for c in cut_slots:
            pattern[c] = True
        yield pattern
