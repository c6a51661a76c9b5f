from collections import Counter
from itertools import permutations
import json

import pytest

from hochschild_kit.painted import (
    LEAF,
    PaintedTree,
    _id_width,
    _painted_shapes,
    _parts_key,
    _shape_sort_key,
    _swap_table,
    binary_painted_trees,
    enum_painted_trees,
    ordered_partitions,
    shape_rank,
)
from hochschild_kit import posets
from hochschild_kit.series import surjection_count
from hochschild_kit.shades import LightedShade

from oracles import (
    class_pair_painted_preposet,
    frozenset_cuts,
    interval_table_painted_shapes,
    inverted_pairs,
    left_comb,
    min_swap_table,
    recursive_painted_shapes,
    refinement_covers_down,
    right_comb,
    rotation_successors,
    shape_sort_tuple,
    sorted_ordered_partitions,
    sorted_painted_json,
    sorted_painted_key,
)

# spot values from the enumeration tables
BINARY_COUNTS = {(1, 3): 21, (0, 4): 14, (2, 2): 24, (1, 0): 1, (2, 0): 2, (3, 0): 6}
FACE_COUNTS = {(1, 3): 67, (0, 3): 11, (2, 2): 75, (1, 1): 3, (3, 0): 13}


@pytest.mark.parametrize("mn,count", sorted(BINARY_COUNTS.items()))
def test_binary_counts(mn, count):
    assert len(binary_painted_trees(*mn)) == count


@pytest.mark.parametrize("mn,count", sorted(FACE_COUNTS.items()))
def test_face_counts(mn, count):
    assert len(enum_painted_trees(*mn)) == count


def test_cached_partitions_cannot_be_changed_by_a_caller():
    # the partitions are cached for the process, so a changed result would
    # change every later enumeration
    with pytest.raises(AttributeError):
        ordered_partitions(2, 1).append("junk")
    assert len(enum_painted_trees(2, 0)) == 3


@pytest.mark.parametrize("m", range(6))
def test_ordered_partitions_come_in_key_order(m):
    # the order of the parts in the canonical order, so a shape's labelings need no sort
    for k in range(m + 2):
        keys = [tuple(tuple(sorted(p)) for p in parts) for parts in ordered_partitions(m, k)]
        assert keys == sorted(set(keys))
        assert len(keys) == surjection_count(m, k)
        blocks = [block for parts in ordered_partitions(m, k) for block in parts]
        assert len({id(block) for block in blocks}) == len(set(blocks))


@pytest.mark.parametrize("m", range(8))
def test_ordered_partitions_match_the_sorting_oracle(m):
    for k in range(m + 2):
        assert list(ordered_partitions(m, k)) == sorted_ordered_partitions(m, k), k
    # with one block per label they are the permutations, as singletons
    perms = [tuple(next(iter(p)) for p in parts) for parts in ordered_partitions(m, m)]
    assert perms == sorted(permutations(range(1, m + 1)))


def test_rank_zero_filter_is_binary():
    assert enum_painted_trees(1, 3, rank=0) == binary_painted_trees(1, 3)


def test_rank_filter_rejects_out_of_range():
    with pytest.raises(ValueError):
        enum_painted_trees(1, 3, rank=4)
    with pytest.raises(ValueError):
        enum_painted_trees(1, 3, rank=-1)


def test_degenerate_parameters_rejected():
    with pytest.raises(ValueError):
        enum_painted_trees(0, 0)


def test_every_enumerated_tree_is_valid():
    for m, n in [(1, 2), (2, 1), (0, 3), (2, 2)]:
        for pt in enum_painted_trees(m, n):
            pt.validate()


def test_left_comb_preposet_is_a_chain():
    pt = PaintedTree.from_cuts(0, 3, left_comb(3), [], [])
    assert sorted(pt.preposet.pairs()) == [(1, 2), (1, 3), (2, 3)]


def test_right_comb_preposet_is_reversed_chain():
    pt = PaintedTree.from_cuts(0, 3, right_comb(3), [], [])
    assert sorted(pt.preposet.pairs()) == [(2, 1), (3, 1), (3, 2)]


def test_single_cut_preposet_on_one_element():
    # m = 1, n = 0: one unary node carrying the only cut
    pt = PaintedTree.from_cuts(1, 0, (None,), [{0}], [{1}])
    pt.validate()
    assert list(pt.preposet.pairs()) == []
    assert pt.preposet.d == 1


def test_binary_1_1_preposets_are_the_two_total_orders():
    pts = binary_painted_trees(1, 1)
    orders = {frozenset(pt.preposet.pairs()) for pt in pts}
    assert orders == {frozenset({(1, 2)}), frozenset({(2, 1)})}


def test_mu_restriction_is_cut_order():
    # labels of lower cuts precede labels of upper cuts
    for pt in binary_painted_trees(2, 1):
        pre = pt.preposet
        lower, upper = min(pt.parts[0]), min(pt.parts[1])
        assert pre.le(lower, upper) and not pre.le(upper, lower)


def test_refinement_moves_grow_preposet_and_rank():
    for m, n in [(1, 2), (2, 1), (0, 4), (2, 2)]:
        for pt in enum_painted_trees(m, n):
            for cov in refinement_covers_down(pt):
                cov.validate()
                assert cov.rank == pt.rank + 1
                assert cov.preposet.contains(pt.preposet)
                assert cov.preposet != pt.preposet


@pytest.mark.parametrize("d", range(1, 6))
def test_level_rows_match_the_class_pair_route(d):
    # every painted tree with m + n <= 5: 3,096 in all
    count = 0
    for m in range(d + 1):
        for pt in enum_painted_trees(m, d - m):
            assert pt.preposet.rows == class_pair_painted_preposet(pt).rows, pt
            count += 1
    assert count == {1: 2, 2: 9, 3: 50, 4: 337, 5: 2698}[d]


def test_rotation_rejects_non_binary():
    corolla = PaintedTree.from_cuts(0, 2, (None, None, None), [], [])
    with pytest.raises(ValueError):
        rotation_successors(corolla)


def test_rotation_flips_exactly_one_inverted_pair():
    for m, n in [(1, 2), (2, 1), (0, 4), (2, 2), (1, 3)]:
        for pt in binary_painted_trees(m, n):
            for succ in rotation_successors(pt):
                flips = inverted_pairs(pt.preposet, succ.preposet)
                back = inverted_pairs(succ.preposet, pt.preposet)
                assert len(flips) == 1 and not back


def test_the_labelings_of_a_shape_share_one_walk():
    trees = binary_painted_trees(3, 2)
    by_shape = {}
    for pt in trees:
        by_shape.setdefault(pt.tagged, []).append(pt)
    assert all(len(pts) == 6 for pts in by_shape.values())
    for shape, pts in by_shape.items():
        # a later labeling read first builds the walk of the shape's first one
        walks = [pt.walk for pt in reversed(pts)]
        assert all(walk is walks[0] for walk in walks)
        assert walks[0] == PaintedTree(3, 2, shape, pts[0].parts).walk
        assert pts[0].__dict__["walk"] is walks[0]


def test_the_rotation_order_reads_no_walk():
    poset = posets.rotation_poset("painted", 3, 2)
    assert poset.elements and not any("walk" in vars(pt) for pt in poset.elements)


def test_canonical_json_round_trip():
    for pt in binary_painted_trees(2, 2)[:6]:
        again = PaintedTree.from_json_obj(pt.to_json_obj())
        assert again == pt


def test_enumeration_is_canonically_sorted_and_duplicate_free():
    objs = enum_painted_trees(2, 2)
    keys = [sorted_painted_key(o) for o in objs]
    assert keys == sorted(keys)
    assert len(set(objs)) == len(objs)


def test_validation_rejects_uncovered_unary():
    # unary node without a cut through it
    with pytest.raises(ValueError):
        PaintedTree.from_cuts(0, 1, (((None, None),),), [], []).validate()


def test_validation_rejects_bad_partition():
    pt = PaintedTree.from_cuts(2, 0, ((),), [{0}], [{1}])
    with pytest.raises(ValueError):
        pt.validate()


# -- the node-id form, rebuilt from the tagged tree by the walks the kit
# stored it with before the tagged tree became the only stored form


def _preorder(tree):
    """Preorder list of internal nodes as [id, node, parent, child_ids]."""
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


def _untag(tagged, k):
    """(tree, cuts) of a tagged tree with k cuts, in one preorder walk."""
    cuts = {}
    counter = [0]

    def walk(t):
        tag, children = t
        nid = counter[0]
        counter[0] += 1
        if tag is not None:
            cuts.setdefault(tag, set()).add(nid)
        return tuple(LEAF if c is LEAF else walk(c) for c in children)

    tree = walk(tagged)
    return tree, tuple(frozenset(cuts.get(i, ())) for i in range(k))


def _shape_key(tree):
    if tree is LEAF:
        return ()
    return tuple(_shape_key(c) for c in tree)


def _descendants(nodes):
    """Strict descendant node ids of each node."""
    desc = {}
    for nid, _, _, children in reversed(nodes):
        d = set()
        for cid in children:
            if cid is not None:
                d.add(cid)
                d |= desc[cid]
        desc[nid] = d
    return desc


def _labels(nodes):
    """Inorder separator labels of each node, numbered by one counter."""
    out = {nid: [] for nid, _, _, _ in nodes}
    counter = [0]

    def walk(nid):
        _, node, _, children = nodes[nid]
        for pos, cid in enumerate(children):
            if cid is not None:
                walk(cid)
            if pos < len(node) - 1:
                counter[0] += 1
                out[nid].append(counter[0])

    walk(0)
    return {nid: tuple(v) for nid, v in out.items()}


def _leaf_counts(tree):
    return 1 if tree is LEAF else sum(_leaf_counts(c) for c in tree)


def cut_below_node(cuts, desc, i, nid):
    """True iff cut i passes strictly below node ``nid``."""
    return any(v in desc[nid] for v in cuts[i])


def node_below_cut(cuts, desc, nid, i):
    """True iff node ``nid`` lies strictly below cut i."""
    return any(nid in desc[v] for v in cuts[i])


ALL_CELLS_TO_5 = [(m, d - m) for d in range(1, 6) for m in range(d + 1)]


def same_order(keys, oracle_keys) -> bool:
    """Whether two key lists order their items alike: equal keys on the same
    items, and the same stable sort."""
    pairs = set(zip(keys, oracle_keys))
    if not len(pairs) == len(set(keys)) == len(set(oracle_keys)):
        return False
    items = range(len(keys))
    return sorted(items, key=keys.__getitem__) == sorted(items, key=oracle_keys.__getitem__)


@pytest.mark.parametrize("mn", ALL_CELLS_TO_5)
def test_node_id_views_match_the_untag_oracle(mn):
    # the bytes key orders the trees as the tuple of the untagged tree's
    # child tuples and its sorted cuts does
    width = _id_width(*mn)
    keys, oracle_keys = [], []
    for pt in enum_painted_trees(*mn):
        tree, cuts = _untag(pt.tagged, len(pt.parts))
        nodes = _preorder(tree)
        on_cuts = set().union(*cuts)
        assert pt.tree == tree and pt.cuts == tuple(tuple(sorted(c)) for c in cuts)
        desc, labels = _descendants(nodes), _labels(nodes)
        assert len(pt.walk) == len(nodes)
        for (nid, node, parent, _), w in zip(nodes, pt.walk):
            tag = next((i for i, cut in enumerate(cuts) if nid in cut), None)
            assert w.parent == parent and w.tag == tag
            assert w.labels == labels[nid]
            assert w.counts == tuple(_leaf_counts(c) for c in node)
            assert set(range(nid + 1, nid + w.size)) == desc[nid]
            for i in range(len(cuts)):
                assert (i < w.below) == cut_below_node(cuts, desc, i, nid)
                assert (i >= w.below + (w.tag is not None)) == node_below_cut(
                    cuts, desc, nid, i
                )
        assert pt.rank == pt.m + pt.n - len(nodes) - len(cuts) + len(on_cuts)
        keys.append(_shape_sort_key(pt.tagged, len(pt.parts), width))
        oracle_keys.append((_shape_key(tree), tuple(tuple(sorted(c)) for c in cuts)))
        again = PaintedTree.from_cuts(pt.m, pt.n, pt.tree, pt.cuts, pt.parts)
        assert again == pt and hash(again) == hash(pt)
        assert again.tagged == pt.tagged
    assert same_order(keys, oracle_keys)


@pytest.mark.parametrize("mn", ALL_CELLS_TO_5)
def test_views_match_the_sorted_frozenset_route(mn):
    # the cuts come ascending from one preorder walk; the route they replace
    # collects frozensets and sorts each cut in the key and the JSON writer
    pts = enum_painted_trees(*mn)
    width = _id_width(*mn)
    # the enumerators' two sort keys, the shapes' and the parts', order the
    # trees as the key with each cut sorted on read does, which is the
    # enumeration order
    keys = [(_shape_sort_key(pt.tagged, len(pt.parts), width), _parts_key(pt.parts)) for pt in pts]
    assert same_order(keys, [sorted_painted_key(pt) for pt in pts])
    assert sorted(range(len(pts)), key=keys.__getitem__) == list(range(len(pts)))
    for pt in pts:
        assert pt.cuts == tuple(tuple(sorted(c)) for c in frozenset_cuts(pt))
        assert pt.to_json_obj() == sorted_painted_json(pt)
        assert pt.canonical() == json.dumps(sorted_painted_json(pt), separators=(",", ":"))


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 8) for m in range(s + 1)])
def test_the_bytes_key_orders_binary_shapes_as_the_tuple_key(mn):
    shapes = [(shape, k) for shape, k, _ in _painted_shapes(*mn, binary=True)]
    width = _id_width(*mn)
    keys = [_shape_sort_key(shape, k, width) for shape, k in shapes]
    assert same_order(keys, [shape_sort_tuple(shape, k) for shape, k in shapes])


def _comb(internal):
    """A left comb: ``internal`` uncut binary nodes, a leaf on each right."""
    tree = LEAF
    for _ in range(internal):
        tree = (None, (tree, LEAF))
    return tree


def test_two_byte_ids_order_large_shapes_as_the_tuple_key():
    # a root over a 253-node comb X and a node Y over two cherries: Y has
    # preorder id 254.  One cut meets X's root and Y, the other X's root and
    # Y's two children, so the first ids + 1 that differ are 255 and 256,
    # which need two bytes: 257 internal nodes, 258 leaves and one label
    cherry = (None, (LEAF, LEAF))
    comb = _comb(253)
    low = (None, ((0, comb[1]), (0, (cherry, cherry))))
    high = (None, ((0, comb[1]), (None, ((0, cherry[1]), (0, cherry[1])))))
    m, n = 1, 257
    width = _id_width(m, n)
    assert width == 2
    for shape in (low, high):
        pt = PaintedTree(m, n, shape, [{1}])
        pt.validate()
        assert len(pt.walk) == 257
    assert PaintedTree(m, n, low, [{1}]).cuts == ((1, 254),)
    assert PaintedTree(m, n, high, [{1}]).cuts == ((1, 255, 256),)
    keys = [_shape_sort_key(shape, 1, width) for shape in (low, high)]
    oracle_keys = [shape_sort_tuple(shape, 1) for shape in (low, high)]
    assert same_order(keys, oracle_keys) and same_order(keys[::-1], oracle_keys[::-1])
    assert keys[0] < keys[1] and oracle_keys[0] < oracle_keys[1]
    # ids + 1, two bytes each, then the terminator
    assert keys[0].endswith(bytes([0, 2, 0, 255, 0, 0]))
    assert keys[1].endswith(bytes([0, 2, 1, 0, 1, 1, 0, 0]))
    assert keys[0][:-6] == keys[1][:-8]  # one plane tree


@pytest.mark.parametrize(
    "obj,message",
    [
        # node 7 does not exist; the tree used to be accepted with rank 1
        ({"m": 1, "n": 1, "tree": [[0, 0]], "cuts": [[0, 7]], "parts": [[1]]},
         "names no internal node"),
        ({"m": 2, "n": 1, "tree": [[[0, 0]]], "cuts": [[1], [1]], "parts": [[1], [2]]},
         "lies on two cuts"),
        ({"m": 1, "n": 1, "tree": [[0, 0]], "cuts": [[1], [0]], "parts": [[1]]},
         "one part per cut"),
        # a bare leaf has no node for the cut; it used to be accepted with rank 0
        ({"m": 1, "n": 0, "tree": 0, "cuts": [[]], "parts": [[1]]},
         "has an internal node"),
        ({"m": 1, "n": 2, "tree": [0, [0, 0]], "cuts": [[1]], "parts": [[1]]},
         "cut must meet every root-leaf path once"),
        ({"m": 2, "n": 1, "tree": [[[0, 0]]], "cuts": [[0], [1]], "parts": [[1], [2]]},
         "cuts must be strictly stacked"),
        # repeats used to be dropped silently and the tree re-serialized without them
        ({"m": 1, "n": 1, "tree": [[0, 0]], "cuts": [[0, 0]], "parts": [[1]]},
         "distinct"),
        ({"m": 1, "n": 1, "tree": [[0, 0]], "cuts": [[0]], "parts": [[1, 1]]},
         "distinct"),
    ],
    ids=["no-such-node", "node-on-two-cuts", "cut-part-mismatch", "bare-leaf",
         "cut-misses-a-path", "cuts-not-stacked", "repeated-cut-id", "repeated-part-label"],
)
def test_from_json_rejects_malformed_cuts(obj, message):
    with pytest.raises(ValueError, match=message):
        PaintedTree.from_json_obj(obj)


@pytest.mark.parametrize(
    "cls,obj",
    [
        (PaintedTree, {"m": 0, "n": 1, "tree": [0, 5], "cuts": [], "parts": []}),
        (PaintedTree, {"m": 0, "n": 1, "tree": [0, True], "cuts": [], "parts": []}),
        (PaintedTree, {"m": 1, "n": 1, "tree": [0, 0], "cuts": [[[0]]], "parts": [[1]]}),
        (PaintedTree, {"m": 1, "n": 1, "tree": [0, 0], "cuts": [[0]], "parts": [[True]]}),
        (LightedShade, {"m": 1, "n": 1, "entries": [{"tuple": [1], "lights": [[1]]}]}),
        (LightedShade, {"m": 0, "n": 1, "entries": [{"tuple": [1.0], "lights": []}]}),
        (LightedShade, {"m": 0, "n": 1, "entries": [{"tuple": [True], "lights": []}]}),
        (LightedShade, {"m": 0, "n": 1, "entries": [{"tuple": 1, "lights": []}]}),
    ],
    ids=["tree-5", "tree-true", "nested-cut", "part-true", "nested-lights", "tuple-float",
         "tuple-true", "tuple-not-array"],
)
def test_json_readers_reject_non_integer_entries(cls, obj):
    with pytest.raises(ValueError):
        cls.from_json_obj(obj)


@pytest.mark.parametrize(
    "cls,obj",
    [
        (PaintedTree, {"m": 1, "n": 1, "tree": [0, 0], "cuts": 5, "parts": [[1]]}),
        (PaintedTree, {"m": 1, "n": 1, "tree": [0, 0], "cuts": [[0]], "parts": 5}),
        (PaintedTree, {"m": 1, "n": 1, "tree": [0, 0], "cuts": [[0]]}),
        (PaintedTree, [1, 1]),
        (PaintedTree, {"m": 1, "n": 0, "tree": [[], 0], "cuts": [[0]], "parts": [[1]]}),
        (PaintedTree, {"m": 0, "n": 1, "tree": [[], 0, 0], "cuts": [], "parts": []}),
        (LightedShade, {"m": 0, "n": 1, "entries": [5]}),
        (LightedShade, {"m": 0, "n": 1, "entries": 5}),
        (LightedShade, {"m": 0, "n": 1, "entries": [{"tuple": [1]}]}),
        (LightedShade, {"m": 0, "n": 1}),
        (LightedShade, [0, 1]),
        (LightedShade, {"m": 1, "n": 1, "entries": [{"tuple": [], "lights": [1, 1]},
                                                    {"tuple": [1], "lights": []}]}),
    ],
    ids=["cuts-int", "parts-int", "parts-missing", "tree-not-object", "empty-node-binary",
         "empty-node-ternary", "entry-int", "entries-int", "lights-missing",
         "entries-missing", "shade-not-object", "repeated-light"],
)
def test_json_readers_reject_malformed_containers(cls, obj):
    with pytest.raises(ValueError):
        cls.from_json_obj(obj)


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("mn", [(m, s - m) for s in range(7) for m in range(s + 1)])
def test_interval_table_shapes_match_the_recursive_oracle(mn, binary):
    shapes = Counter((shape, k) for shape, k, _ in interval_table_painted_shapes(*mn, binary))
    assert shapes == Counter(recursive_painted_shapes(*mn, binary))
    assert set(shapes.values()) <= {1}


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("mn", [(m, s - m) for s in range(8) for m in range(s + 1)])
def test_grammar_shapes_match_both_oracles_at_every_rank(mn, binary):
    m, n = mn
    ranked = [(shape, k, shape_rank(m, n, shape, k))
              for shape, k in recursive_painted_shapes(m, n, binary)]
    for rank in [None, *range(m + n)]:
        shapes = Counter(_painted_shapes(m, n, binary, rank))
        assert set(shapes.values()) <= {1}
        assert shapes == Counter(interval_table_painted_shapes(m, n, binary, rank)), rank
        assert shapes == Counter(
            (shape, k, m + n - k - r) for shape, k, r in ranked if rank in (None, r)
        ), rank


@pytest.mark.parametrize("m", range(8))
def test_swap_table_matches_the_min_route(m):
    # each part of a binary tree is one label, read without `min`
    assert _swap_table(m) == min_swap_table(m)
