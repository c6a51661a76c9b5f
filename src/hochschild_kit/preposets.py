"""Preposets (reflexive transitive relations) on the ground set {1, ..., d}.

A preposet is stored as a tuple of d bitmask rows: bit j-1 of ``rows[i-1]``
is set iff i is below j.  The same rows side by side form one int,
``packed``, with row i-1 at bits [(i-1)*d, i*d), so containment is a single
int test.  All instances are immutable and hashable, so they can be used as
dictionary keys.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations


class Preposet:
    """A reflexive transitive binary relation on {1, ..., d}."""

    __slots__ = ("d", "rows", "packed", "__dict__")

    def __init__(self, d: int, rows: tuple[int, ...]):
        self.d = d
        self.rows = rows
        packed = 0
        for i, row in enumerate(rows):
            packed |= row << i * d
        self.packed = packed

    @classmethod
    def from_pairs(cls, d: int, pairs) -> "Preposet":
        """Build the reflexive transitive closure of the given (i, j) pairs."""
        rows = [1 << i for i in range(d)]
        for i, j in pairs:
            rows[i - 1] |= 1 << (j - 1)
        _close(rows)
        return cls(d, tuple(rows))

    @classmethod
    def chain(cls, d: int, order) -> "Preposet":
        """Total order with ``order[0]`` at the bottom."""
        order = list(order)
        pairs = [(order[a], order[b]) for a in range(d) for b in range(a + 1, d)]
        return cls.from_pairs(d, pairs)

    def le(self, i: int, j: int) -> bool:
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def pairs(self):
        """All strict pairs (i, j) with i below j, i != j."""
        for i in range(self.d):
            row = self.rows[i]
            for j in range(self.d):
                if j != i and row >> j & 1:
                    yield (i + 1, j + 1)

    def strict_pairs(self) -> frozenset:
        """Pairs (i, j) with i below j but j not below i."""
        return frozenset(
            (i, j) for i, j in self.pairs() if not self.le(j, i)
        )

    def contains(self, other: "Preposet") -> bool:
        """True iff every relation of ``other`` also holds in ``self``."""
        if self.d != other.d:
            raise ValueError("ground sets differ")
        return other.packed & ~self.packed == 0

    @cached_property
    def classes(self) -> tuple[frozenset, ...]:
        """Equivalence classes of mutual relation, ordered by least element."""
        seen = 0
        out = []
        for i in range(self.d):
            if seen >> i & 1:
                continue
            cls_mask = 0
            for j in range(self.d):
                if self.rows[i] >> j & 1 and self.rows[j] >> i & 1:
                    cls_mask |= 1 << j
            seen |= cls_mask
            out.append(frozenset(j + 1 for j in range(self.d) if cls_mask >> j & 1))
        return tuple(out)

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (a, b) of class indices: class a directly below class b."""
        classes = self.classes
        k = len(classes)
        reps = [min(c) for c in classes]
        below = [
            [
                a != b and self.le(reps[a], reps[b]) and not self.le(reps[b], reps[a])
                for b in range(k)
            ]
            for a in range(k)
        ]
        edges = []
        for a in range(k):
            for b in range(k):
                if below[a][b] and not any(
                    below[a][c] and below[c][b] for c in range(k)
                ):
                    edges.append((a, b))
        return tuple(edges)

    @cached_property
    def hasse_is_forest(self) -> bool:
        """True iff the Hasse diagram of the quotient poset is acyclic as an
        undirected graph (no two distinct paths between classes)."""
        k = len(self.classes)
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.hasse_edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    def contract_hasse_edge(self, edge_index: int) -> "Preposet":
        """Merge the two classes of one Hasse cover into a coarser preposet."""
        a, b = self.hasse_edges[edge_index]
        ca, cb = self.classes[a], self.classes[b]
        extra = [(y, x) for x in ca for y in cb]
        rows = list(self.rows)
        for i, j in extra:
            rows[i - 1] |= 1 << (j - 1)
        _close(rows)
        return Preposet(self.d, tuple(rows))

    def __eq__(self, other):
        return isinstance(other, Preposet) and self.rows == other.rows

    def __hash__(self):
        return hash((self.d, self.rows))

    def __repr__(self):
        return f"Preposet({self.d}, {sorted(self.pairs())})"


def _close(rows: list[int]) -> None:
    """In-place reflexive transitive closure of bitmask rows."""
    d = len(rows)
    for i in range(d):
        rows[i] |= 1 << i
    changed = True
    while changed:
        changed = False
        for i in range(d):
            row = rows[i]
            acc = row
            m = row
            while m:
                j = (m & -m).bit_length() - 1
                acc |= rows[j]
                m &= m - 1
            if acc != row:
                rows[i] = acc
                changed = True


def transitive_closure_pairs(d: int, pairs) -> frozenset:
    """Independent helper: the set of strict pairs generated by ``pairs``.

    Kept deliberately naive (Warshall on a dict of sets); used by tests as an
    oracle against the bitmask implementation.
    """
    reach = {i: {i} for i in range(1, d + 1)}
    for i, j in pairs:
        reach[i].add(j)
    for k in range(1, d + 1):
        for i in range(1, d + 1):
            if k in reach[i]:
                reach[i] |= reach[k]
    return frozenset((i, j) for i in reach for j in reach[i] if i != j)
