"""Preposets (reflexive transitive relations) on the ground set {1, ..., d}.

A preposet is stored as a tuple of d bitmask rows: bit j-1 of ``rows[i-1]``
is set iff i is below j.  The same rows side by side form one int,
``packed``, built on first use, so containment is a single int test.  All
instances are immutable and hashable, so they can be used as dictionary keys.

The bitmask order kernel lives here, shared with `posets`.  Every preposet
the library builds is born closed, so the kernel has no closure pass: a
shade's rows are prefix masks (`LightedShade.preposet`), a painted tree's are
read off its cut levels (`PaintedTree.preposet`), a chain's are suffix masks,
and contracting a Hasse edge is one OR per row, because adding one relation
to a closed relation needs no second closure (see `contract_hasse_edge`).
Two elements share a class exactly when their rows are equal.  `cover_pairs`
is the one transitive reduction: `FinitePoset.from_leq` calls it on its rows,
and a preposet calls it once on its rows cut down to one representative per
class (a bitmask); that one pass serves `hasse_edges`, `hasse_is_forest` and
the contractions.  `relabel_canonically` renumbers the first m elements, the
labels, in order of row size; the Hochschild face closure calls it on the
Hasse-edge contractions of its label-orbit representatives alone, to look
each one up among the representatives' rows.

`cached_view` is the cached property of every class in the kit.
"""

from __future__ import annotations

from functools import cached_property


class cached_view(cached_property):
    """A `functools.cached_property` that takes no lock.

    The first read computes the value and stores it in the instance
    ``__dict__``, where every later read finds it without calling the
    descriptor; Python 3.12's `cached_property` does the same.  Python
    3.11's takes an RLock on each first read instead, and the kit makes
    thousands of them per certificate.  Every view the kit caches is a pure
    function of immutable fields, so two threads that race on a first read
    compute equal values and either one may stay.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relabel_canonically(rows, m) -> tuple[int, ...]:
    """The rows with the elements 1..m renumbered in order of (popcount of
    the element's row, element), and the elements above m left in place.

    The renumbering is a relabeling, so the result is an isomorphic
    preposet, and its rows of 1..m have nondecreasing popcounts; so it is
    its own canonical form, and the rows come back unchanged exactly when
    their first m popcounts are already nondecreasing.
    """
    counts = [row.bit_count() for row in rows[:m]]
    order = sorted(range(m), key=counts.__getitem__)
    if order == list(range(m)):
        return tuple(rows)
    image = [0] * m  # the bit old element i + 1 moves to
    for k, i in enumerate(order):
        image[i] = 1 << k
    low = (1 << m) - 1
    relabeled = []
    for row in [rows[i] for i in order] + list(rows[m:]):
        moved = row & low
        row ^= moved
        while moved:  # `_bits` inline: this runs once per contraction
            bit = moved & -moved
            row |= image[bit.bit_length() - 1]
            moved ^= bit
        relabeled.append(row)
    return tuple(relabeled)


def cover_pairs(up_rows) -> list[tuple[int, int]]:
    """The covers (i, j) of a partial order, in ascending (i, j) order.

    Bit j of ``up_rows[i]`` says i is below j; the rows must be transitively
    closed, with or without the diagonal.  j covers i when j is strictly
    above i and above nothing strictly above i.  Raises ValueError when two
    elements are each below the other.
    """
    strict = [row & ~(1 << i) for i, row in enumerate(up_rows)]
    covers = []
    for i, above in enumerate(strict):
        # a candidate already in reach lies above a visited element, so by
        # transitivity its strict up-set is in reach too: skip it
        reach = 0
        rest = above
        while rest:
            low = rest & -rest
            reach |= strict[low.bit_length() - 1]
            rest = (rest ^ low) & ~reach
        if reach >> i & 1:
            raise ValueError("relation is not antisymmetric")
        covers.extend((i, j) for j in _bits(above & ~reach))
    return covers


class Preposet:
    """A reflexive transitive binary relation on {1, ..., d}."""

    __slots__ = ("d", "rows", "__dict__")

    def __init__(self, d: int, rows: tuple[int, ...]):
        self.d = d
        self.rows = rows

    @cached_view
    def packed(self) -> int:
        """The rows side by side in one int, row i-1 at bits [(i-1)*d, i*d)."""
        packed = 0
        for i, row in enumerate(self.rows):
            packed |= row << i * self.d
        return packed

    @classmethod
    def chain(cls, d: int, order) -> "Preposet":
        """Total order with ``order[0]`` at the bottom: each element's row is
        the mask of itself and everything after it."""
        rows = [0] * d
        suffix = 0
        for x in reversed(order):
            suffix |= 1 << (x - 1)
            rows[x - 1] = suffix
        return cls(d, tuple(rows))

    def le(self, i: int, j: int) -> bool:
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def pairs(self):
        """All strict pairs (i, j) with i below j, i != j."""
        for i in range(self.d):
            row = self.rows[i]
            for j in range(self.d):
                if j != i and row >> j & 1:
                    yield (i + 1, j + 1)

    def contains(self, other: "Preposet") -> bool:
        """True iff every relation of ``other`` also holds in ``self``."""
        if self.d != other.d:
            raise ValueError("ground sets differ")
        return other.packed & ~self.packed == 0

    @cached_view
    def classes(self) -> tuple[frozenset, ...]:
        """Equivalence classes of mutual relation, ordered by least element.

        i and j are each below the other iff their up-set rows are equal, so
        a class is the set of elements sharing one row.
        """
        members = {}
        for i, row in enumerate(self.rows):
            members[row] = members.get(row, 0) | 1 << i
        return tuple(frozenset(j + 1 for j in _bits(mask)) for mask in members.values())

    @cached_view
    def _reps(self) -> int:
        """Mask of the class representatives: i is one when no lower element
        has its row, so each class is represented by its least element."""
        seen = set()
        reps = 0
        for i, row in enumerate(self.rows):
            if row not in seen:
                seen.add(row)
                reps |= 1 << i
        return reps

    @cached_view
    def _covers(self) -> tuple[tuple[int, int], ...]:
        """The Hasse covers as pairs of representatives (0-based elements), in
        ascending order: `cover_pairs` of the rows cut down to the
        representatives.  Representatives ascend with their class index, so
        this is `hasse_edges` in the same order; it is the one pass that
        `hasse_edges`, `hasse_is_forest` and the contractions read."""
        reps = self._reps
        return tuple(cover_pairs([row & reps if reps >> i & 1 else 0
                                  for i, row in enumerate(self.rows)]))

    @property
    def is_antisymmetric(self) -> bool:
        """True iff every class is a single element (the preposet is a poset)."""
        return self._reps == (1 << self.d) - 1

    @cached_view
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (a, b) of class indices, class a directly below class b,
        in ascending order."""
        reps = self._reps
        index = {i: k for k, i in enumerate(_bits(reps))}
        return tuple((index[a], index[b]) for a, b in self._covers)

    @property
    def hasse_edge_count(self) -> int:
        """``len(hasse_edges)``, with no class indices built."""
        return len(self._covers)

    @cached_view
    def hasse_is_forest(self) -> bool:
        """True iff the Hasse diagram of the quotient poset is acyclic as an
        undirected graph (no two distinct paths between classes)."""
        parent = list(range(self.d))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self._covers:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    def contract_hasse_edge(self, edge_index: int) -> "Preposet":
        """Merge the two classes of one Hasse cover into a coarser preposet.

        For the cover a < b this adds b <= a.  In the closed relation a new
        pair u <= v needs a path u <= b, b <= a, a <= v, and a path through
        the new pair twice, u <= b <= a <= w <= b <= a <= v, already has
        u <= b and a <= v.  So the closure adds exactly the rows below b
        times the up-set of a: it ORs row a into every row with bit b set.
        """
        a, b = self._covers[edge_index]
        up_a, bit_b = self.rows[a], 1 << b
        return Preposet(self.d, tuple(row | up_a if row & bit_b else row for row in self.rows))

    @cached_view
    def down_rows(self) -> tuple[int, ...]:
        """The rows of the opposite relation: bit i-1 of ``down_rows[j-1]``
        is set iff i is below j, so each is a principal down-set."""
        down = [0] * self.d
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                down[j] |= 1 << i
        return tuple(down)

    def linear_extension_count(self) -> int:
        """The number of orders whose `chain` contains this preposet.

        Counts the orders by their prefixes: an element may come next once
        everything strictly below it has come, so one pass per length over
        the reachable prefix sets (the down-sets) adds up the ways to reach
        each.  Two elements each below the other never come, so a preposet
        that is not antisymmetric counts 0.

        A chain has one, read with no pass: a closed relation whose rows
        hold 1, ..., d elements has d(d - 1)/2 strict pairs and no two equal
        rows, so every two elements are comparable one way.
        """
        if sorted(row.bit_count() for row in self.rows) == list(range(1, self.d + 1)):
            return 1
        below = [row & ~(1 << j) for j, row in enumerate(self.down_rows)]
        ways = {0: 1}
        for _ in range(self.d):
            longer = {}
            for prefix, count in ways.items():
                for x, need in enumerate(below):
                    if not prefix >> x & 1 and need & ~prefix == 0:
                        grown = prefix | 1 << x
                        longer[grown] = longer.get(grown, 0) + count
            ways = longer
        return sum(ways.values())

    def __eq__(self, other):
        return isinstance(other, Preposet) and self.rows == other.rows

    def __hash__(self):
        return hash((self.d, self.rows))

    def __repr__(self):
        return f"Preposet({self.d}, {sorted(self.pairs())})"

