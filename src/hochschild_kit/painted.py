"""Painted trees: plane rooted trees with a stack of labeled horizontal cuts.

A painted tree on parameters (m, n) is a plane rooted tree with n + 1 leaves
together with an ordered sequence of cuts (each cut meets every root-to-leaf
path in exactly one node, and consecutive cuts are strictly stacked), plus an
ordered partition of {1, ..., m} labeling the cuts from bottom to top.  Every
unary node must lie on some cut.

Trees are nested tuples: a leaf is ``None`` and an internal node is the tuple
of its children.  Internal nodes are identified by their preorder index.
Instances are immutable; all derived data is computed on demand and cached.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
import json

from .preposets import Preposet

LEAF = None


def tree_leaves(tree) -> int:
    """Number of leaves of a nested-tuple tree."""
    if tree is LEAF:
        return 1
    return sum(tree_leaves(c) for c in tree)


def _preorder(tree):
    """Preorder list of internal nodes as (id, children) with parent links."""
    nodes = []

    def walk(node, parent):
        if node is LEAF:
            return None
        nid = len(nodes)
        nodes.append([nid, node, parent, []])
        for child in node:
            cid = walk(child, nid)
            nodes[nid][3].append(cid)
        return nid

    walk(tree, -1)
    return nodes


class PaintedTree:
    """An m-painted n-tree.

    Attributes:
        m, n: the two size parameters.
        tree: nested-tuple plane tree with n + 1 leaves.
        cuts: tuple of frozensets of node ids, bottom cut first.
        parts: tuple of frozensets of labels, ``parts[i]`` labeling ``cuts[i]``.
    """

    __slots__ = ("m", "n", "tree", "cuts", "parts", "__dict__")

    def __init__(self, m, n, tree, cuts, parts):
        self.m = m
        self.n = n
        self.tree = tree
        self.cuts = tuple(frozenset(c) for c in cuts)
        self.parts = tuple(frozenset(p) for p in parts)

    # -- structural data ---------------------------------------------------

    @cached_property
    def _nodes(self):
        """List of [id, node, parent, child_ids] in preorder (leaf child -> None)."""
        return _preorder(self.tree)

    @cached_property
    def node_count(self) -> int:
        return len(self._nodes)

    @cached_property
    def arity(self):
        return {nid: len(node) for nid, node, _, _ in self._nodes}

    @cached_property
    def parent(self):
        return {nid: par for nid, _, par, _ in self._nodes}

    @cached_property
    def leaf_count(self):
        """Leaves of the subtree rooted at each node id."""
        counts = {}
        for nid, node, _, _ in reversed(self._nodes):
            counts[nid] = sum(
                1 if c is LEAF else counts[cid]
                for c, cid in zip(node, self._nodes[nid][3])
            )
        return counts

    @cached_property
    def labels(self):
        """Inorder separator labels of each node, as a sorted tuple.

        A node of arity a carries a - 1 labels, one between each pair of
        consecutive child subtrees; unary nodes carry none.
        """
        out = {nid: [] for nid, _, _, _ in self._nodes}
        counter = [0]

        def walk(node, nid):
            children = self._nodes[nid][3]
            for pos, (child, cid) in enumerate(zip(node, children)):
                if child is not LEAF:
                    walk(child, cid)
                if pos < len(node) - 1:
                    counter[0] += 1
                    out[nid].append(counter[0])

        if self.tree is not LEAF:
            walk(self.tree, 0)
        return {nid: tuple(v) for nid, v in out.items()}

    @cached_property
    def node_of_label(self):
        return {x: nid for nid, xs in self.labels.items() for x in xs}

    @cached_property
    def descendants(self):
        """Strict descendant node ids of each node."""
        desc = {}
        for nid, _, _, children in reversed(self._nodes):
            d = set()
            for cid in children:
                if cid is not None:
                    d.add(cid)
                    d |= desc[cid]
            desc[nid] = d
        return desc

    @cached_property
    def cut_of_node(self):
        out = {}
        for i, cut in enumerate(self.cuts):
            for nid in cut:
                out[nid] = i
        return out

    @cached_property
    def unary_nodes(self):
        return frozenset(nid for nid, a in self.arity.items() if a == 1)

    @cached_property
    def right_branch(self):
        """Node ids from the root to the rightmost leaf."""
        if self.tree is LEAF:
            return ()
        out = []
        nid = 0
        while nid is not None:
            out.append(nid)
            nid = self._nodes[nid][3][-1]
        return tuple(out)

    @cached_property
    def k(self) -> int:
        return len(self.cuts)

    # -- rank and preposet ----------------------------------------------------

    @cached_property
    def rank(self) -> int:
        """Dimension of the corresponding face of the multiplihedron."""
        union = set()
        for c in self.cuts:
            union |= c
        return self.m + self.n - self.node_count - self.k + len(union)

    @cached_property
    def is_binary(self) -> bool:
        return self.rank == 0

    @cached_property
    def preposet(self) -> Preposet:
        """Preposet on {1, ..., m + n}: cut labels first, tree labels shifted by m.

        Nodes of each cut are merged; relations are oriented towards the root.
        """
        m = self.m
        class_of = {}
        class_elems = []
        for i, cut in enumerate(self.cuts):
            elems = set(self.parts[i])
            for nid in cut:
                elems |= {m + x for x in self.labels[nid]}
            idx = len(class_elems)
            class_elems.append(elems)
            for nid in cut:
                class_of[nid] = idx
        for nid, _, _, _ in self._nodes:
            if nid not in class_of:
                idx = len(class_elems)
                class_elems.append({m + x for x in self.labels[nid]})
                class_of[nid] = idx
        pairs = []
        for elems in class_elems:
            first = min(elems)
            for e in elems:
                if e != first:
                    pairs.append((first, e))
                    pairs.append((e, first))
        for nid, _, par, _ in self._nodes:
            if par >= 0 and class_of[nid] != class_of[par]:
                pairs.append(
                    (min(class_elems[class_of[nid]]), min(class_elems[class_of[par]]))
                )
        return Preposet.from_pairs(m + self.n, pairs)

    # -- relations to cuts ---------------------------------------------------

    def cut_below_node(self, cut_index: int, nid: int) -> bool:
        """True iff the given cut passes strictly below node ``nid``."""
        return any(v in self.descendants[nid] for v in self.cuts[cut_index])

    def node_below_cut(self, nid: int, cut_index: int) -> bool:
        """True iff node ``nid`` lies strictly below the given cut."""
        return any(nid in self.descendants[v] for v in self.cuts[cut_index])

    # -- canonical forms ------------------------------------------------------

    @cached_property
    def key(self):
        """Canonical sortable form (tree shape, cuts, parts)."""
        return (
            _shape_key(self.tree),
            tuple(tuple(sorted(c)) for c in self.cuts),
            tuple(tuple(sorted(p)) for p in self.parts),
        )

    def canonical(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    def to_json_obj(self):
        return {
            "m": self.m,
            "n": self.n,
            "tree": _tree_json(self.tree),
            "cuts": [sorted(c) for c in self.cuts],
            "parts": [sorted(p) for p in self.parts],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PaintedTree":
        pt = cls(
            obj["m"],
            obj["n"],
            _tree_unjson(obj["tree"]),
            [frozenset(c) for c in obj["cuts"]],
            [frozenset(p) for p in obj["parts"]],
        )
        pt.validate()
        return pt

    def __eq__(self, other):
        return (
            isinstance(other, PaintedTree)
            and self.m == other.m
            and self.n == other.n
            and self.tree == other.tree
            and self.cuts == other.cuts
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.m, self.n, self.tree, self.cuts, self.parts))

    def __repr__(self):
        return f"PaintedTree({self.canonical()})"

    # -- validation ------------------------------------------------------------

    def root_leaf_paths(self):
        """Node-id paths from the root to each leaf, left to right."""
        paths = []

        def walk(nid, acc):
            acc = acc + [nid]
            for child, cid in zip(self._nodes[nid][1], self._nodes[nid][3]):
                if child is LEAF:
                    paths.append(acc)
                else:
                    walk(cid, acc)

        if self.tree is not LEAF:
            walk(0, [])
        return paths

    def validate(self) -> None:
        """Raise ValueError if any painted-tree invariant fails."""
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError("need m >= 0, n >= 0, m + n >= 1")
        if tree_leaves(self.tree) != self.n + 1:
            raise ValueError("tree must have n + 1 leaves")
        if self.m == 0:
            if self.cuts or self.parts:
                raise ValueError("no cuts allowed when m = 0")
            if self.unary_nodes:
                raise ValueError("unary nodes require cuts")
            return
        k = self.k
        if not 1 <= k <= self.m or len(self.parts) != k:
            raise ValueError("need 1 <= k <= m cuts, one part per cut")
        seen = set()
        for p in self.parts:
            if not p or p & seen:
                raise ValueError("parts must be disjoint and nonempty")
            seen |= p
        if seen != set(range(1, self.m + 1)):
            raise ValueError("parts must partition {1, ..., m}")
        paths = self.root_leaf_paths()
        for cut in self.cuts:
            for path in paths:
                if sum(1 for v in path if v in cut) != 1:
                    raise ValueError("cut must meet every root-leaf path once")
        for i in range(k - 1):
            lo, hi = self.cuts[i], self.cuts[i + 1]
            for path in paths:
                pos = {v: p for p, v in enumerate(path)}
                lo_pos = [pos[v] for v in lo if v in pos]
                hi_pos = [pos[v] for v in hi if v in pos]
                if lo_pos[0] <= hi_pos[0]:
                    raise ValueError("cuts must be strictly stacked")
        covered = set()
        for c in self.cuts:
            covered |= c
        if not self.unary_nodes <= covered:
            raise ValueError("every unary node must lie on a cut")

    # -- moves -----------------------------------------------------------------

    def refinement_covers_down(self) -> list["PaintedTree"]:
        """Painted trees covered by this one in the refinement order.

        Each result is one move coarser: its preposet strictly contains this
        tree's preposet and its rank is one higher.
        """
        tagged = self._tagged()
        out = [
            _from_tagged(self.m, self.n, t, self.parts)
            for rule in (_contract_free_edge, _absorb_parent)
            for t in _rewrites(tagged, rule)
        ]
        for i in range(self.k - 1):
            t = _join_cuts(tagged, i)
            if t is not None:
                parts = list(self.parts)
                parts[i: i + 2] = [self.parts[i] | self.parts[i + 1]]
                out.append(_from_tagged(self.m, self.n, t, parts))
        return sorted(out, key=lambda x: x.key)

    def rotation_successors(self) -> list["PaintedTree"]:
        """Right-rotation successors of a binary painted tree."""
        if not self.is_binary:
            raise ValueError("rotations are defined on binary painted trees")
        tagged = self._tagged()
        out = [
            _from_tagged(self.m, self.n, t, self.parts)
            for rule in (_rotate_right, _sweep_cut)
            for t in _rewrites(tagged, rule)
        ]
        for i in range(self.k - 1):
            a, b = min(self.parts[i]), min(self.parts[i + 1])
            if a < b and _cuts_adjacent(self, i):
                parts = list(self.parts)
                parts[i], parts[i + 1] = parts[i + 1], parts[i]
                out.append(PaintedTree(self.m, self.n, self.tree, self.cuts, parts))
        return sorted(out, key=lambda x: x.key)

    def _tagged(self):
        cut_of = self.cut_of_node

        def walk(nid):
            node = self._nodes[nid][1]
            children = tuple(
                LEAF if c is LEAF else walk(cid)
                for c, cid in zip(node, self._nodes[nid][3])
            )
            return (cut_of.get(nid), children)

        return walk(0)


def _shape_key(tree):
    if tree is LEAF:
        return ()
    return tuple(_shape_key(c) for c in tree)


def _tree_json(tree):
    if tree is LEAF:
        return 0
    return [_tree_json(c) for c in tree]


def _tree_unjson(obj):
    if obj == 0:
        return LEAF
    return tuple(_tree_unjson(c) for c in obj)


# -- tagged-tree surgery ---------------------------------------------------
#
# During enumeration and moves, trees carry per-node cut tags:
# a tagged node is (cut_index_or_None, children) and a leaf is LEAF.
# Every move except the cut join is a node-local rule that yields the
# replacements of one node; `_rewrites` applies a rule at every node.


def _from_tagged(m, n, tagged, parts) -> PaintedTree:
    """Untag in one preorder walk, collecting the node ids of each cut."""
    cuts: dict[int, set] = {}
    counter = [0]

    def walk(t):
        tag, children = t
        nid = counter[0]
        counter[0] += 1
        if tag is not None:
            cuts.setdefault(tag, set()).add(nid)
        return tuple(LEAF if c is LEAF else walk(c) for c in children)

    tree = walk(tagged)
    k = len(parts)
    cut_list = [frozenset(cuts.get(i, ())) for i in range(k)]
    pt = PaintedTree(m, n, tree, cut_list, parts)
    pt.__dict__["node_count"] = counter[0]  # the walk counted them; rank needs it
    return pt


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


def _cuts_adjacent(pt: PaintedTree, i: int) -> bool:
    """No node strictly between cuts i and i + 1."""
    upper = pt.cuts[i + 1]
    return all(pt.parent[v] in upper for v in pt.cuts[i])


# -- enumeration ------------------------------------------------------------


def _tree_structures(items, lo, hi, binary):
    """Plane trees with no unary node whose leaf sequence is items[lo:hi].

    Leaves of the generated tree are the (already tagged) boundary items;
    a single item is itself a valid tree.
    """
    if hi - lo == 1:
        yield items[lo]
        return
    arities = [2] if binary else range(2, hi - lo + 1)
    for c in arities:
        for blocks in _compositions_blocks(lo, hi, c):
            for children in _product_trees(items, blocks, 0, binary):
                yield (None, tuple(children))


def _product_trees(items, blocks, i, binary):
    if i == len(blocks):
        yield []
        return
    lo, hi = blocks[i]
    for t in _tree_structures(items, lo, hi, binary):
        for rest in _product_trees(items, blocks, i + 1, binary):
            yield [t] + rest


def _compositions_blocks(lo, hi, c):
    """Split [lo, hi) into c consecutive nonempty blocks."""
    if c == 1:
        yield [(lo, hi)]
        return
    for mid in range(lo + 1, hi - c + 2):
        for rest in _compositions_blocks(mid, hi, c - 1):
            yield [(lo, mid)] + rest


def _forest_structures(items, binary):
    """All no-unary forests over the item sequence (any number of roots)."""
    n = len(items)

    def f(lo):
        if lo == n:
            yield []
            return
        for mid in range(lo + 1, n + 1):
            for t in _tree_structures(items, lo, mid, binary):
                for rest in f(mid):
                    yield [t] + rest

    return f(0)


@lru_cache(maxsize=None)
def ordered_partitions(m, k):
    """Ordered partitions of {1, ..., m} into k nonempty blocks."""
    if k == 0:
        return [()] if m == 0 else []
    out = []

    def rec(label, blocks):
        if label > m:
            if all(blocks):
                out.append(tuple(frozenset(b) for b in blocks))
            return
        remaining = m - label + 1
        empty = sum(1 for b in blocks if not b)
        if empty > remaining:
            return
        for b in blocks:
            b.append(label)
            rec(label + 1, blocks)
            b.pop()

    rec(1, [[] for _ in range(k)])
    return out


def _painted_shapes(m, n, binary):
    """Tagged tree shapes with k cuts, without the label partition."""
    if m == 0:
        if n == 0:
            return
        leaves = [LEAF] * (n + 1)
        yield from ((t, 0) for t in _tree_structures(leaves, 0, n + 1, binary))
        return
    k_range = [m] if binary else range(1, m + 1)
    leaves = [LEAF] * (n + 1)
    for k in k_range:
        for shape in _stack_layers(leaves, 0, k, binary):
            yield shape, k


def _stack_layers(boundary, level, k, binary):
    """Grow forests and cut layers bottom-up; yields the final tagged root."""
    for forest in _forest_structures(boundary, binary):
        for grouped in _cut_groupings(forest, level, binary):
            if level + 1 < k:
                yield from _stack_layers(grouped, level + 1, k, binary)
            else:
                yield from _tree_structures(grouped, 0, len(grouped), binary)


def _cut_groupings(forest, level, binary):
    """Partition the forest roots into consecutive groups, one per cut node."""
    n = len(forest)
    if binary:
        yield [(level, (t,)) for t in forest]
        return

    def rec(lo):
        if lo == n:
            yield []
            return
        for hi in range(lo + 1, n + 1):
            head = (level, tuple(forest[lo:hi]))
            for rest in rec(hi):
                yield [head] + rest

    yield from rec(0)


def _painted_trees(m, n, binary=False):
    """Generate every m-painted n-tree once, in generation order (unsorted).

    With ``binary`` only the binary (rank 0) trees are generated.
    """
    for shape, k in _painted_shapes(m, n, binary):
        for parts in ordered_partitions(m, k):
            yield _from_tagged(m, n, shape, parts)


def enum_painted_trees(m, n, rank=None) -> list[PaintedTree]:
    """All m-painted n-trees in canonical order, optionally filtered by rank."""
    _check_params(m, n)
    if rank is not None and not 0 <= rank <= m + n - 1:
        raise ValueError(f"rank must lie in [0, {m + n - 1}]")
    if rank == 0:
        return binary_painted_trees(m, n)
    out = [pt for pt in _painted_trees(m, n) if rank is None or pt.rank == rank]
    out.sort(key=lambda x: x.key)
    return out


def binary_painted_trees(m, n) -> list[PaintedTree]:
    """All binary (rank 0) m-painted n-trees in canonical order."""
    _check_params(m, n)
    return sorted(_painted_trees(m, n, binary=True), key=lambda x: x.key)


def _check_params(m, n):
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m >= 0, n >= 0 and m + n >= 1")


def left_comb(n):
    """Nested-tuple left comb with n binary nodes (n + 1 leaves)."""
    t = LEAF
    for _ in range(n):
        t = (t, LEAF)
    return t


def right_comb(n):
    """Nested-tuple right comb with n binary nodes."""
    t = LEAF
    for _ in range(n):
        t = (LEAF, t)
    return t
