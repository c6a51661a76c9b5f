"""Painted trees: plane rooted trees with a stack of labeled horizontal cuts.

A painted tree on parameters (m, n) is a plane rooted tree with n + 1 leaves
together with an ordered sequence of cuts (each cut meets every root-to-leaf
path in exactly one node, and consecutive cuts are strictly stacked), plus an
ordered partition of {1, ..., m} labeling the cuts from bottom to top.  Every
unary node must lie on some cut.

A painted tree is stored as a tagged tree: a leaf is ``None`` and an internal
node is the pair ``(cut index or None, children)``, cut 0 being the bottom
cut.  Enumeration, the moves and the shadow map work on this form.  The
node-id form of the JSON documents (nested tuples, each cut its ascending
preorder node ids) is a view of it computed on read, by one preorder walk
over the tagged tree; ``PaintedTree.from_cuts`` converts back.

Shapes come from one grammar read top down (with no cut when m = 0).
T(j, L, f), `_shape_trees`, is the set of tagged trees over L leaves with f
uncut internal nodes in which every root-to-leaf path crosses the cuts
j - 1, ..., 0: a leaf, a node on cut j - 1 over trees of T(j - 1), or an
uncut node over at least two trees of T(j).  T and the child sequences are
memoised in one dict per enumeration, so each subtree is built once and the
memo goes with the generator.  The one rank rule, `shape_rank`, is
m + n - k minus the uncut internal nodes.  The ``rank`` property counts them
on the tagged shape; the generator carries the count with each shape, so the
enumerators read ranks without walking a shape, and a rank filter reads
only T(k, n + 1, m + n - k - rank).  The census in `tables`
builds no shape: `_painted_shape_counts` counts the shapes bottom-up, one
cut layer at a time, and `_binary_shape_counts` the binary trees of each
T(j, s, s - 1) top down, which hang left of a binary shape's right spine.

The canonical order of painted trees compares the plane tree's shape,
then the cuts, then the parts, each part a sorted tuple (`_parts_key`),
bottom cut first.  The enumerators sort shapes, not trees.  The shape half
of that order is one bytes key from one preorder walk (`_shape_sort_key`):
the plane tree's bracket word, "(" = 2 and ")" = 1, then each cut's
preorder ids + 1 in fixed width with a zero terminator.  Balanced words
are prefix-free and the terminators sort low, so the bytes order the
shapes as the nested tuples of child shapes and of cut ids do.  It
determines the shape, and the cached `ordered_partitions` come in the
order of the parts, each block chosen among the subsets of the labels left
(`_label_subsets`, which the shades read too), so the shapes are sorted
once and each one's labelings emitted in turn.  The enumerators hand the parts over as they are, through
the internal constructor ``PaintedTree._new``; the public constructor
freezes every part again.

Neither kind of move builds a tree.  The refinement moves that keep the
cuts (edge contraction, parent absorption) act on the shape alone, and a
cut join sends each labeling through a table cached per (m, k, i)
(`_join_table`), so `refinement_covers` reads each shape's moves once as
index pairs.  Likewise for the rotation moves: every rotation but one
acts on the shape alone, and S_m acts freely on the binary trees, so
`rotation_covers` computes each shape's moves once (`_shape_moves`) and
lifts them to its m! labelings, which the enumerator lays out one shape
after another.  The one label move, the swap of two adjacent cuts, reads
a table cached per m (`_swap_table`).

The maps on a painted tree (preposet, validation, multiplihedron vertex and
facet, cubic and bracket vectors, the tree-side singleton test) read one
cached preorder walk, ``PaintedTree.walk``.  It records, per internal node,
the cut tag, the parent, the separator labels, the child leaf counts, the
subtree size and the number of cuts passing below, so that "cut i passes
below v", "v lies below cut i" and "u descends from v" are integer tests.
The preposet is written from the walk as closed rows, one per cut level and
one per node off the cuts, with no closure pass.

The walk, the rank and the nodes' label masks that the preposet starts
from depend on the shape alone, so the labelings that one enumeration
yields from a shape share them, each computed on the first read of any of
them.

Instances are immutable.  A derived member is a cached property only when
the checks read it again (``walk``, ``rank``, ``is_binary``, ``preposet``);
the views that no check reads twice (``cuts``, ``tree``, ``k``) are
computed on every read, so a face that a cached poset keeps for the whole
process holds one form.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
import json
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .preposets import Preposet, cached_view

LEAF = None


def tree_leaves(tagged) -> int:
    """Number of leaves of a tagged tree."""
    if tagged is LEAF:
        return 1
    return sum(tree_leaves(c) for c in tagged[1])


def shape_rank(m, n, shape, k) -> int:
    """Rank (face dimension) of every m-painted n-tree on a tagged shape with
    k cuts: m + n - k minus the internal nodes on no cut."""
    return m + n - k - _free_nodes(shape)


def _free_nodes(tagged) -> int:
    """The internal nodes of a tagged tree that lie on no cut."""
    tag, children = tagged
    free = tag is None
    for child in children:
        if child is not LEAF:
            free += _free_nodes(child)
    return free


class PaintedTree:
    """An m-painted n-tree.

    Attributes:
        m, n: the two size parameters.
        tagged: the tagged tree, the only stored form of the tree and its cuts.
        parts: tuple of frozensets of labels, ``parts[i]`` labeling cut i.

    ``tree`` (the nested-tuple plane tree with n + 1 leaves), ``cuts`` (per
    cut, bottom cut first, the ascending tuple of its preorder node ids),
    ``walk`` (one record per internal node, read by the maps) and ``rank``
    are views of ``tagged``.  ``walk`` and ``rank`` are cached; ``tree``,
    ``cuts`` and ``k`` are computed on each read.
    """

    __slots__ = ("m", "n", "tagged", "parts", "_walk_from", "__dict__")

    def __init__(self, m, n, tagged, parts):
        self.m = m
        self.n = n
        self.tagged = tagged
        self.parts = tuple(frozenset(p) for p in parts)
        self._walk_from = None

    @classmethod
    def _new(cls, m, n, tagged, parts, walk_from=None) -> "PaintedTree":
        """The internal constructor: ``parts`` is already a tuple of
        frozensets and is stored as it is, with no copy.  ``walk_from`` is a
        tree on the same ``tagged`` whose walk this one reads, or None."""
        pt = cls.__new__(cls)
        pt.m, pt.n, pt.tagged, pt.parts, pt._walk_from = m, n, tagged, parts, walk_from
        return pt

    @classmethod
    def from_cuts(cls, m, n, tree, cuts, parts) -> "PaintedTree":
        """The painted tree of a nested-tuple tree whose cuts hold preorder node ids.

        Raises ValueError when the numbers of cuts and parts differ, when an
        id lies on two cuts, or when an id names no internal node.
        """
        if len(cuts) != len(parts):
            raise ValueError("need one part per cut")
        if tree is LEAF:
            raise ValueError("a painted tree has an internal node")
        cut_of = {}
        for i, cut in enumerate(cuts):
            for nid in frozenset(cut):
                if nid in cut_of:
                    raise ValueError(f"node {nid!r} lies on two cuts")
                cut_of[nid] = i
        counter = [0]

        def tag(node):
            nid = counter[0]
            counter[0] += 1
            children = tuple(LEAF if c is LEAF else tag(c) for c in node)
            return (cut_of.pop(nid, None), children)

        tagged = tag(tree)
        if cut_of:
            raise ValueError(f"cut id {next(iter(cut_of))!r} names no internal node")
        return cls(m, n, tagged, parts)

    # -- structural data ---------------------------------------------------

    @cached_view
    def walk(self) -> tuple["Node", ...]:
        """The internal nodes in preorder, indexed by their preorder node id.

        With ``node = walk[v]``, the relations to the cuts and the tree order
        are integer tests:

        * cut i passes strictly below v iff ``i < node.below``;
        * v lies strictly below cut i iff
          ``i >= node.below + (node.tag is not None)``;
        * u is a strict descendant of v iff ``v < u < v + node.size``.

        The walk depends on ``tagged`` alone, so the labelings that the
        enumerators yield from one shape read the walk of its first
        labeling, built on the first read of any of them.
        """
        if self._walk_from is not None:
            return self._walk_from.walk
        nodes = []

        def visit(t, parent, lo):
            tag, children = t
            v = len(nodes)
            nodes.append(None)
            counts, labels, below, left = [], [], 0, lo
            for c in children:
                # the separator before each child but the first is numbered
                # by the leaves left of it
                if left != lo:
                    labels.append(left)
                if c is LEAF:
                    counts.append(1)
                    left += 1
                else:
                    leaves, cuts = visit(c, v, left)
                    counts.append(leaves)
                    left += leaves
                    below = max(below, cuts)
            nodes[v] = Node(tag, parent, tuple(labels), tuple(counts), len(nodes) - v, below)
            return left - lo, below + (tag is not None)

        visit(self.tagged, -1, 0)
        return tuple(nodes)

    @property
    def tree(self):
        """The nested-tuple plane tree: a leaf is ``None``, a node its children."""
        return _untag(self.tagged)

    @property
    def cuts(self) -> tuple[tuple[int, ...], ...]:
        """Per cut, bottom cut first, the ascending preorder ids of its nodes."""
        return _cut_ids(self.tagged, len(self.parts))

    @property
    def k(self) -> int:
        return len(self.parts)

    # -- rank and preposet ----------------------------------------------------

    @cached_view
    def rank(self) -> int:
        """Dimension of the corresponding face of the multiplihedron.  It
        depends on the shape alone, so it is read off the tree whose walk
        this one reads, as ``walk`` is."""
        if self._walk_from is not None:
            return self._walk_from.rank
        return shape_rank(self.m, self.n, self.tagged, self.k)

    @cached_view
    def is_binary(self) -> bool:
        return self.rank == 0

    @cached_view
    def preposet(self) -> Preposet:
        """Preposet on {1, ..., m + n}, built as closed rows: cut labels first,
        tree labels shifted by m.

        Nodes of each cut are merged with the cut's part into one class, every
        node off the cuts is a class of its own, and each class lies below its
        parent's.  Call a node's level ``below + (tag is not None)``, so cut i
        passes strictly below v iff v's level exceeds i.  The row of cut i is
        the parts of cuts i, i+1, ... and the labels of every node of level
        above i.  That is closed: each node above cut i is an ancestor of some
        node on cut i (every root-leaf path meets the cut), its ancestors are
        above cut i too, and nothing else lies above the class.  A node off
        the cuts has its own labels ORed with its parent's row, which preorder
        has already built.
        """
        m, walk, k = self.m, self.walk, len(self.parts)
        # the labelings of a shape read the masks of the tree they take the walk from
        own, levels = (self._walk_from or self)._node_labels
        node_rows = list(own)  # each node's own labels, until its row replaces them
        rows = [0] * (m + self.n)
        cut_rows = [0] * k
        above = 0
        for i in reversed(range(k)):
            part = self.parts[i]
            above |= sum(1 << x - 1 for x in part) | levels[i + 1]
            cut_rows[i] = above
            for x in part:
                rows[x - 1] = above
        for v, node in enumerate(walk):
            if node.tag is not None:
                node_rows[v] = cut_rows[node.tag]
            elif node.parent >= 0:
                node_rows[v] |= node_rows[node.parent]
            for x in node.labels:
                rows[m + x - 1] = node_rows[v]
        return Preposet(m + self.n, tuple(rows))

    @cached_view
    def _node_labels(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Each node's own labels as a mask of the preposet's elements, in
        preorder, and the OR of those masks at each level: the part of the
        preposet that the shape alone fixes."""
        m = self.m
        own = []
        levels = [0] * (len(self.parts) + 1)
        for node in self.walk:
            mask = 0
            for x in node.labels:
                mask |= 1 << m + x - 1
            own.append(mask)
            levels[node.below + (node.tag is not None)] |= mask
        return tuple(own), tuple(levels)

    # -- canonical forms ------------------------------------------------------

    def canonical(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    def to_json_obj(self):
        return {
            "m": self.m,
            "n": self.n,
            "tree": _tree_json(self.tagged),
            "cuts": [list(c) for c in self.cuts],
            "parts": [sorted(p) for p in self.parts],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PaintedTree":
        m, n, tree, cuts, parts = _json_fields(obj, "m", "n", "tree", "cuts", "parts")
        m, n = _json_ints([m, n])
        cuts = [_json_int_set(cut) for cut in _json_array(cuts)]
        parts = [_json_int_set(part) for part in _json_array(parts)]
        pt = cls.from_cuts(m, n, _tree_unjson(tree), cuts, parts)
        pt.validate()
        return pt

    def __eq__(self, other):
        return (
            isinstance(other, PaintedTree)
            and self.m == other.m
            and self.n == other.n
            and self.tagged == other.tagged
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.m, self.n, self.tagged, self.parts))

    def __repr__(self):
        return f"PaintedTree({self.canonical()})"

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError if any painted-tree invariant fails."""
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError("need m >= 0, n >= 0, m + n >= 1")
        if tree_leaves(self.tagged) != self.n + 1:
            raise ValueError("tree must have n + 1 leaves")
        walk = self.walk
        if self.m == 0:
            if self.parts:
                raise ValueError("no cuts allowed when m = 0")
            if any(len(node.counts) == 1 for node in walk):
                raise ValueError("unary nodes require cuts")
            return
        k = self.k
        if not 1 <= k <= self.m:
            raise ValueError("need 1 <= k <= m cuts, one part per cut")
        seen = set()
        for p in self.parts:
            if not p or p & seen:
                raise ValueError("parts must be disjoint and nonempty")
            seen |= p
        if seen != set(range(1, self.m + 1)):
            raise ValueError("parts must partition {1, ..., m}")
        # the cut tags met from the root down to each node, then to each leaf
        above = []
        for node in walk:
            tags = above[node.parent] if node.parent >= 0 else ()
            above.append(tags if node.tag is None else tags + (node.tag,))
        inner_children = Counter(node.parent for node in walk)
        paths = {
            above[v] for v, node in enumerate(walk)
            if len(node.counts) > inner_children[v]
        }
        if any(sorted(path) != list(range(k)) for path in paths):
            raise ValueError("cut must meet every root-leaf path once")
        if any(path != tuple(range(k - 1, -1, -1)) for path in paths):
            raise ValueError("cuts must be strictly stacked")
        if any(len(node.counts) == 1 and node.tag is None for node in walk):
            raise ValueError("every unary node must lie on a cut")


class Node(NamedTuple):
    """One internal node of a painted tree's preorder walk.

    Attributes:
        tag: the index of the cut through the node, or None.
        parent: the preorder id of the parent, -1 at the root.
        labels: the inorder separator labels, one between each pair of
            consecutive children, so a - 1 of them at arity a.
        counts: the leaf count of each child subtree, left to right.
        size: the internal nodes of the subtree, the node included, so its
            preorder ids are the interval [id, id + size).
        below: the number of cuts passing strictly below the node.
    """

    tag: int | None
    parent: int
    labels: tuple[int, ...]
    counts: tuple[int, ...]
    size: int
    below: int


def _untag(tagged):
    return tuple(LEAF if c is LEAF else _untag(c) for c in tagged[1])


def _cut_ids(tagged, k):
    """Per cut of the k, bottom cut first, the ascending preorder ids of its
    nodes: one preorder walk meets each cut's nodes in ascending order."""
    cuts = [[] for _ in range(k)]
    stack = [tagged]
    nid = 0
    while stack:
        tag, children = stack.pop()
        if tag is not None:
            cuts[tag].append(nid)
        nid += 1
        stack.extend(c for c in reversed(children) if c is not LEAF)
    return tuple(map(tuple, cuts))


def _id_width(m, n) -> int:
    """Bytes per node id in `_shape_sort_key`: enough for id + 1 with up to
    n + m(n + 1) internal nodes, at most n off the cuts and n + 1 per cut."""
    return max(1, (n + m * (n + 1)).bit_length() + 7 >> 3)


_CLOSE = object()  # a node's closing bracket on the walk's stack


def _shape_sort_key(tagged, k, width):
    """The shape half of the canonical order as one bytes key, from one
    preorder walk: the plane tree's bracket word, "(" = 2 and ")" = 1 with
    a leaf "()", then per cut, bottom cut first, its preorder node ids + 1
    in ``width`` big-endian bytes (`_id_width`) and a zero terminator.

    It orders shapes as the tuple of the nested child tuples and the cuts'
    id tuples does (`oracles.shape_sort_tuple`): a node's word is its
    children's words in brackets, balanced words are prefix-free, so two
    words first differ inside the first children that differ, and a node
    with fewer children closes where the other opens; the ids are
    fixed-width, and a cut that ends first meets its terminator where the
    other has an id of at least 1.  It determines the shape
    (`PaintedTree.from_cuts`).
    """
    word = bytearray()
    cuts = [[] for _ in range(k)]
    stack = [tagged]
    pop, push, emit = stack.pop, stack.append, word.append
    nid = 0
    while stack:
        t = pop()
        if t is LEAF:
            emit(2)
            emit(1)
        elif t is _CLOSE:
            emit(1)
        else:
            emit(2)
            nid += 1
            if t[0] is not None:
                cuts[t[0]].append(nid)
            push(_CLOSE)
            stack.extend(t[1][::-1])
    for cut in cuts:
        cut.append(0)
        word += bytes(cut) if width == 1 else b"".join(i.to_bytes(width, "big") for i in cut)
    return bytes(word)


def _parts_key(parts):
    """The last part of the canonical order: each part as a sorted tuple."""
    return tuple(tuple(sorted(p)) for p in parts)


def _tree_json(tagged):
    if tagged is LEAF:
        return 0
    return [_tree_json(c) for c in tagged[1]]


def _tree_unjson(obj):
    if type(obj) is int and obj == 0:
        return LEAF
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"a tree entry is 0 or a non-empty array, not {obj!r}")
    return tuple(_tree_unjson(c) for c in obj)


def _json_ints(values):
    """A JSON array of integers; ValueError for anything else, booleans included."""
    if any(type(v) is not int for v in _json_array(values)):
        raise ValueError(f"expected an array of integers, not {values!r}")
    return values


def _json_int_set(values):
    """A JSON array of distinct integers; ValueError for a repeat."""
    if len(set(_json_ints(values))) != len(values):
        raise ValueError(f"expected distinct integers, not {values!r}")
    return values


def _json_array(values):
    """A JSON array; ValueError for anything else."""
    if not isinstance(values, list):
        raise ValueError(f"expected an array, not {values!r}")
    return values


def _json_fields(obj, *names):
    """The named fields of a JSON object; ValueError for a non-object or a
    missing field."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, not {obj!r}")
    missing = [name for name in names if name not in obj]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    return [obj[name] for name in names]


# -- tagged-tree surgery ---------------------------------------------------
#
# Every move except the cut join is a node-local rule that yields the
# replacements of one tagged node; `_rewrites` applies a rule at every node.


def _rewrites(tagged, local):
    """Every tree made by replacing one internal node t with a result of local(t).

    Only the path from the replaced node to the root is rebuilt; every other
    subtree is shared with the input.
    """
    yield from local(tagged)
    tag, children = tagged
    for i, c in enumerate(children):
        if c is not LEAF:
            for new in _rewrites(c, local):
                yield (tag, children[:i] + (new,) + children[i + 1:])


def _contract_free_edge(t):
    """Contract one edge whose child carries no cut tag (move i)."""
    tag, children = t
    for i, c in enumerate(children):
        if c is not LEAF and c[0] is None:
            yield (tag, children[:i] + c[1] + children[i + 1:])


def _absorb_parent(t):
    """Merge an untagged parent into the common cut of all its children (move ii)."""
    tag, children = t
    if tag is None and all(c is not LEAF and c[0] is not None for c in children):
        tags = {c[0] for c in children}
        if len(tags) == 1:
            yield (tags.pop(), tuple(gc for c in children for gc in c[1]))


def _join_cuts(tagged, i):
    """Join cuts i and i + 1 if no node lies between them (move iii).

    Contracts every edge from a cut-i node to its cut-(i + 1) parent; returns
    None when the cuts are not adjacent (some cut-i node hangs elsewhere).
    """
    ok = [True]

    def retag(tag):
        if tag is None or tag < i:
            return tag
        if tag == i + 1:
            return i
        return tag - 1

    def walk(t):
        tag, children = t
        new_children = []
        for c in children:
            if c is LEAF:
                new_children.append(LEAF)
                continue
            if c[0] == i:
                if tag != i + 1:
                    ok[0] = False
                    return (None, ())
                for gc in c[1]:
                    new_children.append(LEAF if gc is LEAF else walk(gc))
            else:
                new_children.append(walk(c))
        return (retag(tag), tuple(new_children))

    if tagged[0] == i:
        return None
    result = walk(tagged)
    return result if ok[0] else None


def _rotate_right(t):
    """Right rotation of an edge joining two untagged binary nodes (move i)."""
    tag, children = t
    if tag is None and len(children) == 2:
        left, right = children
        if left is not LEAF and left[0] is None and len(left[1]) == 2:
            a, b = left[1]
            yield (None, (a, (None, (b, right))))


def _sweep_cut(t):
    """Sweep a binary node by the cut just below it (move ii)."""
    tag, children = t
    if tag is None and len(children) == 2:
        l, r = children
        if (
            l is not LEAF
            and r is not LEAF
            and l[0] is not None
            and l[0] == r[0]
            and len(l[1]) == 1
            and len(r[1]) == 1
        ):
            yield (l[0], ((None, (l[1][0], r[1][0])),))


# -- rotation covers -----------------------------------------------------------


def _shape_moves(shape):
    """The right rotations of a binary tagged shape, which keep every label
    in place: rotations (move i) and cut sweeps (move ii), in generation
    order."""
    return [t for rule in (_rotate_right, _sweep_cut) for t in _rewrites(shape, rule)]


def labeling(pt):
    """A binary painted tree as its tagged shape and its labels, bottom cut
    first.  S_m renames the labels and keeps the shape, and the tree whose
    labels read 1..m is labeling 0 of its shape in `ordered_partitions(m, m)`."""
    return pt.tagged, tuple(x for part in pt.parts for x in part)


@lru_cache(maxsize=None)
def _swap_table(m):
    """For each pair of adjacent cuts i, i + 1 of a binary m-painted tree,
    the index pairs (j, j') into `ordered_partitions(m, m)` of the
    labelings whose label on cut i is smaller than the one on cut i + 1 and
    of the same labeling with those two labels swapped: the label moves up
    the order."""
    # every part is one label, so a labeling reads as its tuple of labels
    orders = [tuple(label for (label,) in parts) for parts in ordered_partitions(m, m)]
    index = {order: j for j, order in enumerate(orders)}
    return tuple(
        tuple(
            (j, index[order[:i] + (order[i + 1], order[i]) + order[i + 2:]])
            for j, order in enumerate(orders)
            if order[i] < order[i + 1]
        )
        for i in range(m - 1)
    )


def rotation_covers(objs) -> list[tuple[int, int]]:
    """The covers of the rotation order on the binary painted trees
    ``objs``, as (lower, upper) index pairs, in no particular order.

    ``objs`` is read in the layout `binary_painted_trees` yields: each
    tagged shape, then its m! labelings in `ordered_partitions(m, m)`
    order, so vertex s * m! + j is labeling j of shape s.  The layout is
    checked as it is read; a vertex that is not the expected labeling raises
    ValueError.  S_m acts freely on the vertices, and every move but one
    acts on the shape alone, so the moves are computed once per shape: a
    rotation or a cut sweep taking shape s to shape t is the m! covers
    (s * m! + j, t * m! + j).  The one label move swaps the labels of two
    adjacent cuts i, i + 1 (`_join_cuts` finds no node between them) when
    the lower cut holds the smaller label; `_swap_table` lists it per i.
    A shape move that reaches no vertex raises ValueError.
    """
    if not objs:
        return []
    m, n = objs[0].m, objs[0].n
    labelings = ordered_partitions(m, m)
    orbit = len(labelings)
    if len(objs) % orbit:
        raise ValueError(f"{len(objs)} binary painted trees are not whole orbits of {orbit}")
    shapes = {}
    for base in range(0, len(objs), orbit):
        shape = objs[base].tagged
        for j, parts in enumerate(labelings):
            pt = objs[base + j]
            if pt.tagged != shape or pt.parts != parts:
                raise ValueError(f"vertex {base + j} is {pt!r}, not labeling {j} of its shape")
        shapes[shape] = base
    swaps = _swap_table(m)
    covers = []
    for shape, base in shapes.items():
        for moved in _shape_moves(shape):
            upper = shapes.get(moved)
            if upper is None:
                stray = PaintedTree(m, n, moved, labelings[0])
                raise ValueError(f"a move reaches {stray!r}, which is not an element")
            covers += zip(range(base, base + orbit), range(upper, upper + orbit))
        for i in range(m - 1):
            if _join_cuts(shape, i) is not None:
                covers += ((base + j, base + swapped) for j, swapped in swaps[i])
    return covers


# -- refinement covers --------------------------------------------------------


@lru_cache(maxsize=None)
def _join_table(m, k, i):
    """For each labeling j of `ordered_partitions(m, k)`, the index in
    `ordered_partitions(m, k - 1)` of the labeling with parts i and i + 1
    joined into one."""
    index = {parts: j for j, parts in enumerate(ordered_partitions(m, k - 1))}
    return tuple(
        index[parts[:i] + (parts[i] | parts[i + 1],) + parts[i + 2:]]
        for parts in ordered_partitions(m, k)
    )


def refinement_covers(objs) -> list[tuple[int, int]]:
    """The covers of the refinement order on the painted trees ``objs``, as
    (coarser, finer) index pairs, in no particular order.

    ``objs`` is read in the layout `enum_painted_trees` yields: each tagged
    shape with k cuts, then its labelings in `ordered_partitions(m, k)`
    order.  The layout is checked as it is read; a tree that is not the
    expected labeling, or a shape met twice, raises ValueError.  The edge
    contractions (move i) and parent absorptions (move ii) keep the cuts
    and so every label in place: they act on the shape alone, so they are
    computed once per shape and lifted to its labelings at the same offset.
    A cut join (`_join_cuts`) of cuts i, i + 1 takes labeling j of a shape
    with k cuts to labeling `_join_table(m, k, i)[j]` of the joined shape.
    A move that reaches no tree of ``objs`` raises ValueError.
    """
    if not objs:
        return []
    m, n = objs[0].m, objs[0].n
    shapes = {}  # shape -> (index of its first labeling, its cut count)
    base = 0
    while base < len(objs):
        shape, k = objs[base].tagged, len(objs[base].parts)
        labelings = ordered_partitions(m, k)
        for j, parts in enumerate(labelings):
            pt = objs[base + j] if base + j < len(objs) else None
            if pt is None or pt.tagged != shape or pt.parts != parts:
                raise ValueError(f"tree {base + j} is {pt!r}, not labeling {j} of its shape")
        if shapes.setdefault(shape, (base, k))[0] != base:
            raise ValueError(f"tree {base} repeats the shape of tree {shapes[shape][0]}")
        base += len(labelings)

    def reach(moved, k):
        upper = shapes.get(moved)
        if upper is None or upper[1] != k:
            stray = PaintedTree(m, n, moved, ordered_partitions(m, k)[0])
            raise ValueError(f"a move reaches {stray!r}, which is not an element")
        return upper[0]

    covers = []
    for shape, (base, k) in shapes.items():
        size = len(ordered_partitions(m, k))
        for rule in (_contract_free_edge, _absorb_parent):
            for moved in _rewrites(shape, rule):
                upper = reach(moved, k)
                covers += zip(range(upper, upper + size), range(base, base + size))
        for i in range(k - 1):
            joined = _join_cuts(shape, i)
            if joined is not None:
                upper = reach(joined, k - 1)
                covers += ((upper + j, base + lo) for lo, j in enumerate(_join_table(m, k, i)))
    return covers


# -- enumeration ------------------------------------------------------------


_LABEL_SETS = {0: frozenset()}  # label bitmask -> its one shared frozenset


@lru_cache(maxsize=None)
def _label_subsets(left):
    """The subsets of the labels in the bitmask ``left``, in the order of
    their sorted tuples with the empty set first, each as (the subset, the
    labels still left, how many).  Each subset is the one frozenset of
    `_LABEL_SETS` for its labels: the parts of the painted trees and the
    lights of the shades share them."""
    labels = [x for x in range(1, left.bit_length() + 1) if left >> x - 1 & 1]
    out = []

    def rec(mask, start):
        subset = _LABEL_SETS.setdefault(mask, frozenset(x for x in labels if mask >> x - 1 & 1))
        rest = left & ~mask
        out.append((subset, rest, rest.bit_count()))
        for i in range(start, len(labels)):
            rec(mask | 1 << labels[i] - 1, i + 1)

    rec(0, 0)
    return tuple(out)


@lru_cache(maxsize=None)
def ordered_partitions(m, k):
    """Ordered partitions of {1, ..., m} into k nonempty blocks, as a shared
    tuple in canonical order: by the blocks as sorted tuples, bottom cut
    first (`_parts_key`).

    Block 0 is each nonempty subset of the labels left, in the order of
    `_label_subsets`, that leaves a label for each block still to come, and
    the rest is a partition of what it leaves, so the partitions come in
    canonical order with no sort; the partitions of each (labels left,
    blocks to come) are built once.  At k = m they are the m! permutations.
    Equal blocks are one frozenset."""
    memo = {}

    def rec(left, k):
        if k == 0:
            return [()] if not left else []
        if (left, k) not in memo:
            memo[left, k] = [
                (block, *tail)
                for block, rest, count in _label_subsets(left)[1:]
                if count >= k - 1
                for tail in rec(rest, k - 1)
            ]
        return memo[left, k]

    return tuple(rec((1 << m) - 1, k))


def _painted_shapes(m, n, binary, rank=None):
    """Tagged tree shapes, without the label partition, as (shape, k, free):
    k cuts and ``free`` internal nodes on no cut, so of rank m + n - k - free
    (`shape_rank`).

    A shape with k cuts is a tree of T(k, n + 1, free) (`_shape_trees`), so
    with ``rank`` only free = m + n - k - rank is read.  The memo of the
    grammar is local to the call: each subtree is built once per
    enumeration, and nothing outlives it.
    """
    if m + n == 0:
        return
    memo = {}
    for k in [m] if binary or m == 0 else range(1, m + 1):
        for free in range(n + 1) if rank is None else [m + n - k - rank]:
            for shape in _shape_trees(memo, binary, k, n + 1, free):
                yield shape, k, free


def _shape_trees(memo, binary, j, leaves, free):
    """T(j, leaves, free): the tagged trees over ``leaves`` leaves with
    ``free`` uncut internal nodes in which every root-to-leaf path crosses
    the j cuts j - 1, ..., 0, top down.

    Such a tree is a leaf (j = 0, one leaf, free = 0), a node on cut j - 1
    over r >= 1 trees of T(j - 1), or an uncut node over r >= 2 trees of
    T(j); with ``binary`` r is 1 and 2.  Each tree is one such choice, so
    none comes twice, and ``memo`` keeps every list it builds.
    """
    key = j, leaves, free
    trees = memo.get(key)
    if trees is None:
        trees = [LEAF] if key == (0, 1, 0) else []
        if j:
            for r in [1] if binary else range(1, leaves + 1):
                trees += [(j - 1, row) for row in _shape_rows(memo, binary, j - 1, leaves, free, r)]
        if free:
            for r in [2] if binary else range(2, leaves + 1):
                trees += [(None, row) for row in _shape_rows(memo, binary, j, leaves, free - 1, r)]
        memo[key] = trees
    return trees


def _shape_rows(memo, binary, j, leaves, free, r):
    """The sequences of r trees of T(j) (`_shape_trees`) over ``leaves``
    leaves and with ``free`` uncut nodes in all: the children of one node."""
    key = j, leaves, free, r
    rows = memo.get(key)
    if rows is None:
        if r == 1:
            rows = [(tree,) for tree in _shape_trees(memo, binary, j, leaves, free)]
        else:
            rows = [
                (tree, *rest)
                for first in range(1, leaves - r + 2)
                for own in range(min(free, first - 1) + 1)
                for tree, rest in product(
                    _shape_trees(memo, binary, j, first, own),
                    _shape_rows(memo, binary, j, leaves - first, free - own, r - 1),
                )
            ]
        memo[key] = rows
    return rows


def _painted_shape_counts(m, n):
    """The tagged shapes of `_painted_shapes(m, n, binary=False)`, counted
    with none built: a Counter from (k, free) to the number of shapes with k
    cuts (none when m = 0) and ``free`` uncut internal nodes.

    It counts the shapes bottom-up, building none.  A shape is one sequence
    of choices, bottom cut first: a forest of r consecutive trees over the
    boundary, a grouping of its r roots into the g nodes of the cut, which
    are the next boundary, and at the top one tree over the last boundary.
    Distinct sequences give distinct shapes, since the cut nodes of a shape
    determine every layer, and how many choices a step has depends only on
    the lengths before it: ``trees[L][c]`` counts the trees with no unary
    node over L items with c uncut nodes (one item, or an uncut root over
    r >= 2 consecutive trees), ``forests[L][r][c]`` the forests of r
    consecutive trees over L items, and C(r - 1, g - 1) the groupings.  So
    each product of table entries along a sequence of lengths counts its
    shapes once, and a state (boundary length, uncut nodes so far) ->
    multiplicity, advanced one layer per cut, sums them.
    """
    trees, forests = [None, {0: 1}], [None, [None, {0: 1}]]
    for length in range(2, n + 2):
        row = [None, None]
        for r in range(2, length + 1):
            row.append(Counter())
            for first in range(1, length - r + 2):
                for a, u in trees[first].items():
                    for b, v in forests[length - first][r - 1].items():
                        row[r][a + b] += u * v
        row[1] = Counter()
        for forest in row[2:]:
            for c, v in forest.items():
                row[1][c + 1] += v
        trees.append(row[1])
        forests.append(row)
    counts, states = Counter(), {(n + 1, 0): 1}
    for k in range(1, m + 1) if m else [0]:
        if k:
            layer = Counter()
            for (b, c), mult in states.items():
                for r in range(1, b + 1):
                    for g in range(1, r + 1):
                        ways = mult * comb(r - 1, g - 1)
                        for free, v in forests[b][r].items():
                            layer[g, c + free] += ways * v
            states = layer
        for (b, c), mult in states.items():
            for free, v in trees[b].items():
                counts[k, c + free] += mult * v
    return counts


def _binary_shape_counts(m, n):
    """``trees[j][s]`` for j <= m and s <= n: the binary shapes of
    T(j, s, s - 1) (`_shape_trees` with ``binary``), counted top down with
    none built.  Such a tree is a leaf (j = 0, s = 1), a node on cut j - 1
    over one tree of T(j - 1, s), or an uncut node over a tree of T(j, a)
    and one of T(j, s - a)."""
    trees = [[0] * (n + 1) for _ in range(m + 1)]
    for j in range(m + 1):
        for s in range(1, n + 1):
            trees[j][s] = (
                (j == 0 and s == 1)
                + (j and trees[j - 1][s])
                + sum(trees[j][a] * trees[j][s - a] for a in range(1, s))
            )
    return trees


def _painted_trees(m, n, binary=False, rank=None):
    """Generate every m-painted n-tree once, in canonical order.

    The shapes are sorted once by the shape half of the canonical order, and
    each shape's labelings follow from `ordered_partitions`, already in the
    order of the parts.  With ``binary`` only the binary (rank 0) trees
    are generated, with ``rank`` only the shapes of that rank are labeled.
    """
    width = _id_width(m, n)
    shapes = sorted(
        (
            (_shape_sort_key(shape, k, width), shape, k)
            for shape, k, _ in _painted_shapes(m, n, binary, rank)
        ),
        key=itemgetter(0),
    )
    for _, shape, k in shapes:
        first = None
        for parts in ordered_partitions(m, k):
            pt = PaintedTree._new(m, n, shape, parts, first)
            first = first or pt
            yield pt


def enum_painted_trees(m, n, rank=None) -> list[PaintedTree]:
    """All m-painted n-trees in canonical order, optionally filtered by rank."""
    _check_params(m, n, rank)
    if rank == 0:
        return binary_painted_trees(m, n)
    return list(_painted_trees(m, n, rank=rank))


def binary_painted_trees(m, n) -> list[PaintedTree]:
    """All binary (rank 0) m-painted n-trees in canonical order."""
    _check_params(m, n)
    return list(_painted_trees(m, n, binary=True))


def _check_params(m, n, rank=None):
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m >= 0, n >= 0 and m + n >= 1")
    if rank is not None and not 0 <= rank <= m + n - 1:
        raise ValueError(f"rank must lie in [0, {m + n - 1}]")
