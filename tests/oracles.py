"""Oracles shared by the test modules: simple routes the kit's fast code is
compared with."""

import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from unittest import mock

from hochschild_kit import geometry
from hochschild_kit.geometry import (
    _affine_rank,
    _polytope_objects,
    _shade_edge_delta,
    greedy_vertex,
)
from hochschild_kit.families import family
from hochschild_kit.ledger import Ledger
from hochschild_kit.painted import (
    LEAF,
    PaintedTree,
    _absorb_parent,
    _check_params,
    _contract_free_edge,
    _cut_ids,
    _join_cuts,
    _painted_shapes,
    _painted_trees,
    _parts_key,
    _rewrites,
    _rotate_right,
    _sweep_cut,
    _tree_json,
    binary_painted_trees,
    ordered_partitions,
    shape_rank,
    tree_leaves,
)
from hochschild_kit.posets import (
    CongruenceReport,
    FinitePoset,
    MorphismCheckReport,
    build_rotation_poset,
)
from hochschild_kit.preposets import Preposet, _bits, cover_pairs, relabel_canonically
from hochschild_kit.series import TruncatedSeries, schroder_gf, surjection_count
from hochschild_kit.shades import _UNLIT, LightedShade, _tuples_upto, sequence_rank
from hochschild_kit.shadow import fiber_min, shadow


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


def singleton_tree_condition(pt: PaintedTree) -> bool:
    """Equivalent tree-side singleton test, used as a cross-check.

    Every binary node must lie on the right branch, or hang off a right-branch
    node strictly below the bottom cut.  A binary node lies on the right
    branch iff its last child holds the last leaf; the parent of a binary node
    off the branch is off it too when unary, since it holds the same leaves.
    """
    if not pt.is_binary:
        raise ValueError("singletons are defined for binary painted trees")

    def on_branch(node):
        return len(node.counts) == 2 and node.labels[-1] + node.counts[-1] == pt.n + 1

    for node in pt.walk:
        if len(node.counts) != 2 or on_branch(node):
            continue
        if not on_branch(pt.walk[node.parent]):
            return False
        if pt.k and node.below + (node.tag is not None) > 0:
            return False
    return True


def table_lattice_flags(p):
    """(lattice, meet SD, join SD) read off the full meet and join tables:
    every pair has both bounds, and the table fold finds no SD triple."""
    tables = (p._bound_table(p.down), p._bound_table(p.leq))
    lattice = p.is_bounded and all(-1 not in row for table in tables for row in table)
    if not lattice:
        return False, False, False
    return (
        True,
        p.semidistributive_counterexample("meet") is None,
        p.semidistributive_counterexample("join") is None,
    )


def table_morphism_check(f, src, dst) -> MorphismCheckReport:
    """The bound-preservation check on the full tables: for each side the
    first source row whose mapped bounds differ from the destination's, and
    in it the first column, with a missing bound (-1) on both sides agreeing."""
    fi = [dst.index(f[e]) for e in src.elements]
    f_or_missing = fi + [-1]
    example = {}
    for side in ("meet", "join"):
        src_t = src._bound_table(src.down if side == "meet" else src.leq)
        dst_t = dst._bound_table(dst.down if side == "meet" else dst.leq)
        example[side] = None
        for a, row in enumerate(src_t):
            mapped = [f_or_missing[c] for c in row]
            dst_row = dst_t[fi[a]]
            expected = [dst_row[j] for j in fi]
            if mapped != expected:
                b = next(b for b, (x, y) in enumerate(zip(mapped, expected)) if x != y)
                example[side] = (src.elements[a], src.elements[b])
                break
    return MorphismCheckReport(
        example["meet"] is None, example["join"] is None, example["meet"], example["join"]
    )


def row_certificate(f, src, dst) -> tuple[bool, bool]:
    """(meet, join) verdicts of the per-irreducible row certificate: both
    posets lattices, f(top) = top and f(a ∧ m) = f(a) ∧ f(m) for every a and
    every meet-irreducible m, each meet one lookup of a down-row AND (joins
    dual, with bottom and the join-irreducibles).  Every b is the meet of the
    meet-irreducibles above it, so this is sound by induction on their
    number: the route `check_meet_morphism` took before the adjoint
    certificate."""
    fi = [dst.index(f[e]) for e in src.elements]
    lattices = src.is_lattice and dst.is_lattice
    verdicts = []
    for rows, bound_of, d_rows, d_bound_of, ends, irreducibles in (
        (src.down, src._meet_of, dst.down, dst._meet_of,
         (src.top, dst.top), src.meet_irreducibles),
        (src.leq, src._join_of, dst.leq, dst._join_of,
         (src.bottom, dst.bottom), src.join_irreducibles),
    ):
        images = [d_rows[j] for j in fi]
        verdicts.append(
            lattices
            and fi[ends[0]] == ends[1]
            and all(
                [fi[bound_of(r & rows[i])] for r in rows]
                == [d_bound_of(d & images[i]) for d in images]
                for i in irreducibles
            )
        )
    return tuple(verdicts)


def per_tree_images(trees, shades) -> list[int]:
    """The index in ``shades`` of each tree's shadow, -1 if none: one shadow
    built and hashed per tree, looked up in an element index as
    `FinitePoset._index` holds it; the route the morphism suite took before
    `shadow.shadow_images`."""
    index = {ls: i for i, ls in enumerate(shades)}
    return [index.get(shadow(pt), -1) for pt in trees]


def row_congruence_projection(m, n, images) -> CongruenceReport:
    """`check_congruence_projection` with each fiber's extremes read off the
    rows (`FinitePoset.extremes`) and each minimum compared with `fiber_min`
    of its shade: the route the check took before it read the covers."""
    poset = build_rotation_poset("painted", m, n)
    shades = build_rotation_poset("shade", m, n).elements
    fibers = {}
    for i, y in enumerate(images):
        if y >= 0:
            fibers.setdefault(y, []).append(i)
    unique = match = True
    down, up = {}, {}
    for y, idxs in fibers.items():
        minima, maxima = poset.extremes(idxs)
        if len(minima) != 1 or len(maxima) != 1:
            unique = False
            continue
        if poset.elements[minima[0]] != fiber_min(shades[y]):
            match = False
        for i in idxs:
            down[i] = minima[0]
            up[i] = maxima[0]
    covers = [(lo, hi) for lo, hi in poset.covers if lo in down and hi in down]
    down_ok = all(poset.le(down[lo], down[hi]) for lo, hi in covers)
    up_bad = next(((poset.elements[lo], poset.elements[hi]) for lo, hi in covers
                   if not poset.le(up[lo], up[hi])), None)
    return CongruenceReport(unique, match, down_ok, up_bad is None, up_bad)


def patch_spines(monkeypatch, m, n, rewrite):
    """Read the spine of every binary shape of (m, n) as ``rewrite`` of its
    true spine: `shadow.spine`, the one reader `shadow.shadow_images` calls,
    gives the morphism suite and the congruence check the faulty map."""
    module = sys.modules["hochschild_kit.shadow"]
    real = module.spine
    shapes = {pt.tagged for pt in binary_painted_trees(m, n)}

    def patched(shape, leaves=tree_leaves):
        found = real(shape, leaves)
        return rewrite(found) if shape in shapes else found

    monkeypatch.setattr(module, "spine", patched)


def labeled_vertex_census(m, n):
    """(binary painted trees, unary shades, singleton fibers) of (m, n), from
    every labeled binary painted tree and unary shade: the pass that
    `tables._vertex_census` runs on orbit representatives only."""
    unary = list(filtered_lighted_shades(m, n, rank=0))
    sizes = Counter(dict.fromkeys(unary, 0))
    sizes.update(shadow(pt) for pt in _painted_trees(m, n, binary=True))
    assert len(sizes) == len(unary) and all(sizes.values())
    return sum(sizes.values()), len(unary), sum(1 for size in sizes.values() if size == 1)


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


def closed_preposet(d: int, pairs) -> Preposet:
    """Build the reflexive transitive closure of the given (i, j) pairs.

    Warshall: pass k ORs row k into every row that reaches k, so after
    it each row holds every element it reaches through paths whose inner
    elements are among the first k + 1.
    """
    rows = [1 << i for i in range(d)]
    for i, j in pairs:
        rows[i - 1] |= 1 << (j - 1)
    for k in range(d):
        row_k, bit = rows[k], 1 << k
        rows = [row | row_k if row & bit else row for row in rows]
    return Preposet(d, tuple(rows))


def light_position(ls) -> dict:
    """The position of the cut carrying each label of a shade."""
    return {x: i for i, (_, lights) in enumerate(ls.entries) for x in lights}


def clause_shade_preposet(ls) -> Preposet:
    """The shade preposet from its four relation clauses as a pair list,
    closed by `closed_preposet`: the route `LightedShade.preposet` took
    before it ORed prefix masks into rows."""
    m = ls.m
    pairs = []
    lp = light_position(ls)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j and lp[i] >= lp[j]:
                pairs.append((i, j))
    flat = ls.flat_entries
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
    return closed_preposet(m + ls.n, pairs)


def class_pair_painted_preposet(pt) -> Preposet:
    """The painted-tree preposet from one class per cut and one per node off
    the cuts, each class paired both ways with its least element and below
    its parent's, closed by `closed_preposet`: the route
    `PaintedTree.preposet` took before it wrote rows from the cut levels."""
    m = pt.m
    # one class per cut, then one per node off the cuts
    class_elems = [set(p) for p in pt.parts]
    class_of = []
    for node in pt.walk:
        if node.tag is None:
            class_of.append(len(class_elems))
            class_elems.append(set())
        else:
            class_of.append(node.tag)
        class_elems[class_of[-1]].update(m + x for x in node.labels)
    firsts = [min(elems) for elems in class_elems]
    pairs = []
    for first, elems in zip(firsts, class_elems):
        for e in elems:
            if e != first:
                pairs.append((first, e))
                pairs.append((e, first))
    for v, node in enumerate(pt.walk):
        if node.parent >= 0 and class_of[v] != class_of[node.parent]:
            pairs.append((firsts[class_of[v]], firsts[class_of[node.parent]]))
    return closed_preposet(m + pt.n, pairs)


def inverted_pairs(lo: Preposet, hi: Preposet):
    """Pairs (i, j), i < j, strictly below in lo and strictly reversed in hi:
    the certificate called it once each way per cover before
    `geometry._single_flip` read both ways in one pass.

    Bit j of ``lo.rows[i] & ~hi.rows[i]`` says i is below j in lo and not in
    hi; of those bits above i, keep the j below i in hi and not in lo.
    """
    out = []
    for i, (lo_row, hi_row) in enumerate(zip(lo.rows, hi.rows)):
        for j in _bits((lo_row & ~hi_row) >> i + 1 << i + 1):
            if hi.rows[j] >> i & 1 and not lo.rows[j] >> i & 1:
                out.append((i + 1, j + 1))
    return out


def le_inverted_pairs(lo: Preposet, hi: Preposet):
    """`inverted_pairs` by four `Preposet.le` calls per pair (i, j), i < j:
    the route it took before it walked the row bits."""
    out = []
    for i in range(1, lo.d + 1):
        for j in range(i + 1, lo.d + 1):
            if lo.le(i, j) and not lo.le(j, i) and hi.le(j, i) and not hi.le(i, j):
                out.append((i, j))
    return out


def first_missing(table):
    """The first pair (a, b), a < b in row-major order, with no bound, or None:
    the scan `geometry.freehedron_report` ran on the full meet and join tables."""
    for a, row in enumerate(table):
        for b in range(a + 1, len(row)):
            if row[b] < 0:
                return (a, b)
    return None


def frozenset_class_hasse(p: Preposet):
    """(hasse_edges, hasse_is_forest, the rows of every contraction) of a
    preposet, each read off its frozenset classes and their least elements:
    the route `Preposet` took before it kept one representative mask."""
    reps = [min(c) - 1 for c in p.classes]
    up = [sum(1 << b for b, rb in enumerate(reps) if p.rows[ra] >> rb & 1) for ra in reps]
    edges = tuple(cover_pairs(up))
    parent = list(range(len(reps)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    forest = True
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            forest = False
        parent[ra] = rb
    contractions = []
    for a, b in edges:
        up_a = p.rows[min(p.classes[a]) - 1]
        bit_b = 1 << (min(p.classes[b]) - 1)
        contractions.append(tuple(row | up_a if row & bit_b else row for row in p.rows))
    return edges, forest, contractions


def pairwise_fan_checks(kind, m, n, vert_objs, ledger):
    """The fan checks with the coarsening witness as all-pairs `contains`
    counts (each binary painted cone of the Hochschild fan, then each braid
    chamber, against every cone) and the face closure on a set of
    preposets: the fan checks as they stood before the chamber labels, and
    the count `geometry._fan_checks` falls back to when the tight route does
    not close."""
    d = m + n
    fam = family(kind)
    probes = []
    if fam.simple:
        all_shades = fam.enum(m, n)
        preposet_set = {ls.preposet for ls in all_shades}
        ledger.record("cones_simplicial", True)
        ledger.record("fan_face_closure", True)
        for ls in all_shades:
            pre = ls.preposet
            if not pre.hasse_is_forest:
                ledger.record("cones_simplicial", False, ls.canonical())
            for e in range(len(pre.hasse_edges)):
                if pre.contract_hasse_edge(e) not in preposet_set:
                    ledger.record("fan_face_closure", False, f"{ls.canonical()} edge {e}")
        for pt in _polytope_objects("multiplihedron", m, n).rotation.elements:
            probes.append((pt.canonical(), pt.preposet))
    for perm in permutations(range(1, d + 1)):
        probes.append((f"chain {perm}", Preposet.chain(d, perm)))
    cones = [o.preposet for o in vert_objs]
    ledger.record("coarsening_witness", True)
    for name, probe in probes:
        hits = sum(1 for p in cones if probe.contains(p))
        if hits != 1:
            ledger.record("coarsening_witness", False, f"{name} lands in {hits} cones")


def summed_shade_vertex(ls) -> tuple[int, ...]:
    """The Hochschild vertex of a unary shade, per label and per value: a
    label takes the cut positions at or below its position plus the values
    below it, each summed over the positions; the route
    `geometry.vertex_of_lighted_shade` replaced with one pass."""
    m, n = ls.m, ls.n
    coords = [1] * (m + n)
    for p, pos in light_position(ls).items():
        weakly_below = sum(1 for c in ls.cut_positions if c >= pos)
        entries_below = sum(
            vals[0] for q, (vals, _) in enumerate(ls.entries) if q > pos and vals
        )
        coords[p - 1] = weakly_below + entries_below
    for pos, s, ps in ls.singletons:
        c_p = ls.cuts_below_position(pos)
        coords[ps - 1] = 1 + s * (m + n - ps + c_p) + comb(s, 2)
    return tuple(coords)


def full_route_certificate(kind, m, n):
    """A fresh certificate with no label orbit: every vertex, binary painted
    tree and subset J read on its own, the route the orbit route of
    `geometry.certify_polytope` falls back to when a premise fails."""
    with mock.patch.object(geometry, "_label_orbits", lambda poly: None):
        return geometry.certify_polytope.__wrapped__(kind, m, n)


def per_face_closure(objs, ledger):
    """``cones_simplicial`` and ``fan_face_closure`` one face at a time over
    every face of ``objs``, against the set of their rows: the scan that
    `geometry._face_closure` falls back to."""
    faces = {o.preposet.rows for o in objs}
    ledger.record("cones_simplicial", True)
    ledger.record("fan_face_closure", True)
    for o in objs:
        pre = o.preposet
        if not pre.hasse_is_forest:
            ledger.record("cones_simplicial", False, o.canonical())
        for e in range(pre.hasse_edge_count):
            if pre.contract_hasse_edge(e).rows not in faces:
                ledger.record("fan_face_closure", False, f"{o.canonical()} edge {e}")


def orbit_face_closure(objs, m, ledger):
    """The face closure on label orbits found among every face of ``objs``:
    with m >= 2 labels, when ``orbit_representatives`` proves the faces
    closed under S_m and each representative `closes`, nothing fails;
    otherwise (and with m <= 1) `per_face_closure` scans every face.  It
    relabels every face, so it is the oracle of the stream that
    `geometry._face_closure` reads instead."""
    faces = {o.preposet.rows for o in objs}
    if m >= 2:
        reps = orbit_representatives(objs, m, faces)
        if reps is not None and all(closes(o.preposet, faces) for o in reps):
            ledger.record("cones_simplicial", True)
            ledger.record("fan_face_closure", True)
            return
    per_face_closure(objs, ledger)


def orbit_representatives(objs, m, faces):
    """The objects whose preposet rows are their own `relabel_canonically`
    form, when that shows ``faces``, the set of the objects' rows, to be
    closed under S_m; None otherwise.

    The premises: the canonical form of every object's rows is in
    ``faces``, and the weights m!/prod(k_i!) of the canonical objects sum to
    ``len(faces)``, where the k_i are the sizes of the classes of labels
    with equal rows.  Labels with equal rows have equal columns, so each
    weight bounds its orbit from above, and the equality forces every orbit
    that meets ``faces`` to lie in it whole.
    """
    whole = factorial(m)
    reps, weight = [], 0
    for o in objs:
        rows = o.preposet.rows
        canonical = relabel_canonically(rows, m)
        if canonical == rows:
            reps.append(o)
            weight += whole // prod(map(factorial, Counter(rows[:m]).values()))
        elif canonical not in faces:
            return None
    return reps if weight == len(faces) else None


def closes(pre: Preposet, faces) -> bool:
    """True when the Hasse diagram of ``pre`` is a forest and the rows of each
    of its Hasse-edge contractions are in ``faces``."""
    return pre.hasse_is_forest and all(
        pre.contract_hasse_edge(e).rows in faces for e in range(pre.hasse_edge_count)
    )


def relabeled_shade(ls, sigma) -> LightedShade:
    """The shade with each label x renamed sigma[x - 1] + 1."""
    return LightedShade(ls.m, ls.n, [
        (vals, {sigma[x - 1] + 1 for x in lights}) for vals, lights in ls.entries
    ])


def relabeled_rows(rows, sigma):
    """The rows of a relation with each element i + 1 renamed sigma[i] + 1,
    rebuilt pair by pair: i below j becomes sigma(i) below sigma(j)."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row >> j & 1:
                out[sigma[i]] |= 1 << sigma[j]
    return tuple(out)


def label_orbit(rows, m):
    """Every relabeling of the rows by a permutation of the labels 1..m."""
    rest = tuple(range(m, len(rows)))
    return {relabeled_rows(rows, sigma + rest) for sigma in permutations(range(m))}


def chamber_cones(poly):
    """The chamber labels of one `PolytopeObjects` record: for each permutation,
    in `permutations` order, the preposet of its greedy vertex, or None for
    a greedy vertex that is no vertex of the record."""
    d = poly.m + poly.n
    cone_of = {v: o.preposet for v, o in zip(poly.vertices, poly.rotation.elements)}
    return [cone_of.get(greedy_vertex(poly.z, d, p)) for p in permutations(range(1, d + 1))]


def cones_partition_chambers(d, cones, labels) -> bool:
    """True when every braid chamber lies in exactly one of the cones, on
    chamber labels: the d! route `geometry._tight_partition` replaced.

    ``cones`` are preposets, one per maximal cone (repeats count twice), and
    ``labels`` one candidate cone per chamber, in `permutations` order.  A
    chamber lies in a cone when its `Preposet.chain` contains the cone's
    preposet.  If every chamber lies in its label's cone, and the cones hold
    sum e(P) = d! chambers in all (e counts linear extensions, so a cone
    that is not antisymmetric holds none), then no chamber lies in two
    cones: d! incidences fall on d! chambers with at least one each.  d!
    `contains` calls.
    """
    members = set(cones)
    for perm, label in zip(permutations(range(1, d + 1)), labels, strict=True):
        if label not in members or not Preposet.chain(d, perm).contains(label):
            return False
    return sum(p.linear_extension_count() for p in cones) == factorial(d)


def label_hochschild_witness(d, binary, unary_cones, shade_labels, painted_labels) -> bool:
    """True when every binary painted cone lies in exactly one unary shade
    cone, on the chamber labels of both polytopes.

    Once the shade cones partition the chambers, a binary cone P lies in a
    shade cone Q exactly when its chambers (the linear extensions of P, at
    least one when P is antisymmetric) lie in Q's, so in at most one.  The
    candidate Q is the shade label of a chamber that carries P's painted
    label; one `contains` call per binary tree shows that P lies in it.
    """
    if not cones_partition_chambers(d, unary_cones, shade_labels):
        return False
    over = dict(zip(painted_labels, shade_labels))
    for pt in binary:
        cone = over.get(pt.preposet)
        if cone is None or not pt.preposet.is_antisymmetric or not pt.preposet.contains(cone):
            return False
    return True


def rotation_successors(obj) -> list:
    """Right-rotation successors of a binary painted tree or a unary shade,
    each built as an object, in generation order: the route the rotation
    posets took before their covers came from moves on shapes."""
    if isinstance(obj, PaintedTree):
        return _painted_rotation_successors(obj)
    return _shade_rotation_successors(obj)


def _painted_rotation_successors(pt):
    if not pt.is_binary:
        raise ValueError("rotations are defined on binary painted trees")
    out = [
        PaintedTree(pt.m, pt.n, t, pt.parts)
        for rule in (_rotate_right, _sweep_cut)
        for t in _rewrites(pt.tagged, rule)
    ]
    for i in range(pt.k - 1):
        a, b = min(pt.parts[i]), min(pt.parts[i + 1])
        if a < b and _join_cuts(pt.tagged, i) is not None:
            parts = list(pt.parts)
            parts[i], parts[i + 1] = parts[i + 1], parts[i]
            out.append(PaintedTree(pt.m, pt.n, pt.tagged, parts))
    return out


def _shade_rotation_successors(ls):
    if not ls.is_unary:
        raise ValueError("rotations are defined on unary shades")
    out = []
    ent = ls.entries
    for i, (vals, lights) in enumerate(ent):
        if len(vals) == 1 and vals[0] >= 2:
            r = vals[0]
            for s in range(1, r):
                new = ent[:i] + (((s,), frozenset()), ((r - s,), frozenset())) + ent[i + 1:]
                out.append(LightedShade(ls.m, ls.n, new))
    for i in range(len(ent) - 1):
        a, b = ent[i], ent[i + 1]
        if a[0] and not a[1] and b[1] and not b[0]:
            out.append(LightedShade(ls.m, ls.n, ent[:i] + (b, a) + ent[i + 2:]))
        elif a[1] and b[1] and not a[0] and not b[0]:
            if min(b[1]) < min(a[1]):
                out.append(LightedShade(ls.m, ls.n, ent[:i] + (b, a) + ent[i + 2:]))
    return out


def poset_from_moves(elements, moves) -> FinitePoset:
    """A poset built from local moves, given as (lower, upper) pairs of
    elements, each hashed back to its index; the moves must be exactly the
    covers, all inside the elements."""
    index = {e: i for i, e in enumerate(elements)}
    try:
        return FinitePoset(elements, [(index[lo], index[hi]) for lo, hi in moves])
    except KeyError as exc:
        raise ValueError(f"a move reaches {exc.args[0]!r}, which is not an element") from None


def successor_rotation_poset(kind, m, n) -> FinitePoset:
    """The rotation poset built from `rotation_successors`: every successor
    an object, hashed back to its index by `poset_from_moves`."""
    objs = family(kind).vertices(m, n)
    return poset_from_moves(objs, ((o, r) for o in objs for r in rotation_successors(o)))


def refinement_covers_down(obj) -> list:
    """The painted trees or shades covered by ``obj`` in the refinement
    order, each built as an object, in generation order: the object route
    that `Family.refinement_covers` is checked against.

    Each result is one move coarser: its preposet strictly contains the
    object's and its rank is one higher.  A painted tree contracts an edge
    to an uncut child (move i), absorbs an uncut parent into its children's
    common cut (move ii) or joins two adjacent cuts (move iii); a shade
    concatenates two consecutive positions (move i) or splits one integer
    entry in place (move ii).
    """
    if isinstance(obj, PaintedTree):
        out = [
            PaintedTree(obj.m, obj.n, t, obj.parts)
            for rule in (_contract_free_edge, _absorb_parent)
            for t in _rewrites(obj.tagged, rule)
        ]
        parts = obj.parts
        for i in range(obj.k - 1):
            t = _join_cuts(obj.tagged, i)
            if t is not None:
                joined = parts[:i] + (parts[i] | parts[i + 1],) + parts[i + 2:]
                out.append(PaintedTree(obj.m, obj.n, t, joined))
        return out
    out = []
    ent = obj.entries
    for i in range(len(ent) - 1):
        merged = (ent[i][0] + ent[i + 1][0], ent[i][1] | ent[i + 1][1])
        out.append(LightedShade(obj.m, obj.n, ent[:i] + (merged,) + ent[i + 2:]))
    for i, (vals, lights) in enumerate(ent):
        for j, v in enumerate(vals):
            for y in range(1, v):
                split = vals[:j] + (y, v - y) + vals[j + 1:]
                out.append(LightedShade(obj.m, obj.n, ent[:i] + ((split, lights),) + ent[i + 1:]))
    return out


def move_refinement_poset(kind, m, n) -> FinitePoset:
    """The refinement poset built from `refinement_covers_down`: every move
    an object, hashed back to its index by `poset_from_moves`."""
    objs = family(kind).enum(m, n)
    return poset_from_moves(objs, ((r, o) for o in objs for r in refinement_covers_down(o)))


def min_swap_table(m):
    """`painted._swap_table` read with `min` on each part: the route that
    compared two frozensets' least labels per labeling and pair."""
    labelings = ordered_partitions(m, m)
    index = {parts: j for j, parts in enumerate(labelings)}
    return tuple(
        tuple(
            (j, index[parts[:i] + (parts[i + 1], parts[i]) + parts[i + 2:]])
            for j, parts in enumerate(labelings)
            if min(parts[i]) < min(parts[i + 1])
        )
        for i in range(m - 1)
    )


def count_constructions(monkeypatch, cls):
    """A one-item list counting the objects of ``cls`` built from now on
    through either constructor, the public ``__init__`` or the internal
    ``_new``."""
    built = [0]
    init, new = cls.__init__, cls._new.__func__

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counted_new(klass, *args):
        built[0] += 1
        return new(klass, *args)

    monkeypatch.setattr(cls, "__init__", counted_init)
    monkeypatch.setattr(cls, "_new", classmethod(counted_new))
    return built


def force_the_shape_walk(monkeypatch):
    """Make `tables._vertex_census` fall back to its walk over the binary
    shapes, as it does when a premise of its spine count fails."""
    from hochschild_kit import tables

    monkeypatch.setattr(tables, "_spine_fibers", lambda *args: None)


def object_rank(obj) -> int:
    """The rank read off a labeled object, with no shape-level rule.

    A painted tree: m + n - (internal nodes) - (cuts) + (nodes on a cut).
    A lighted shade: m - (positions) + (integer entries).
    """
    if isinstance(obj, PaintedTree):
        on_cuts = sum(node.tag is not None for node in obj.walk)
        return obj.m + obj.n - len(obj.walk) - len(obj.parts) + on_cuts
    return obj.m - len(obj.entries) + sum(len(vals) for vals, _ in obj.entries)


def rank_filtered(objects, rank) -> list:
    """The objects of one rank in canonical order, filtered object by object
    after every labeled object was built."""
    return key_sorted(obj for obj in objects if object_rank(obj) == rank)


def key_sorted(objects) -> list:
    """Objects in canonical order, the order in which the move methods once
    returned their results."""
    return sorted(
        objects,
        key=lambda obj: sorted_painted_key(obj) if isinstance(obj, PaintedTree) else sorted_shade_key(obj),
    )


def rank_vector(p):
    """A cover-consistent rank function of a finite poset, its minimal
    elements at rank 0, or None if the poset is not graded."""
    rank = [None] * p.n
    for i in p.minimal_elements:
        rank[i] = 0
    for i in p.topological_order:
        for hi in p._covers_up[i]:
            if rank[hi] is None:
                rank[hi] = rank[i] + 1
            elif rank[hi] != rank[i] + 1:
                return None
    return tuple(rank)


# -- node-id views by frozenset cuts, sorted on every read ------------------


def frozenset_cuts(pt):
    """Per cut of a painted tree, bottom cut first, the frozenset of its
    preorder node ids."""
    cuts = [set() for _ in pt.parts]
    stack = [pt.tagged]
    nid = 0
    while stack:
        tag, children = stack.pop()
        if tag is not None:
            cuts[tag].add(nid)
        nid += 1
        stack.extend(c for c in reversed(children) if c is not LEAF)
    return tuple(frozenset(c) for c in cuts)


def _shape_key(tagged):
    """The plane tree of a tagged shape as nested tuples of its children's
    keys, a leaf the empty tuple."""
    return tuple(() if c is LEAF else _shape_key(c) for c in tagged[1])


def shape_sort_tuple(tagged, k):
    """The shape half of the canonical order as a tuple, from two recursive
    walks: the nested child tuples, then the cuts' preorder id tuples, bottom
    cut first.  `painted._shape_sort_key` is the one-walk bytes key."""
    return _shape_key(tagged), _cut_ids(tagged, k)


def sorted_painted_key(pt):
    """The canonical sort key of a painted tree, each cut sorted on read."""
    return (
        _shape_key(pt.tagged),
        tuple(tuple(sorted(c)) for c in frozenset_cuts(pt)),
        tuple(tuple(sorted(p)) for p in pt.parts),
    )


def sorted_painted_json(pt):
    """The JSON object of a painted tree, each cut sorted on read."""
    return {
        "m": pt.m,
        "n": pt.n,
        "tree": _tree_json(pt.tagged),
        "cuts": [sorted(c) for c in frozenset_cuts(pt)],
        "parts": [sorted(p) for p in pt.parts],
    }


def sorted_shade_key(ls):
    """The canonical sort key of a lighted shade, each light set sorted."""
    return tuple((vals, tuple(sorted(lights))) for vals, lights in ls.entries)


def sorted_shade_json(ls):
    """The JSON object of a lighted shade, each light set sorted."""
    return {
        "m": ls.m,
        "n": ls.n,
        "entries": [
            {"tuple": list(vals), "lights": sorted(lights)}
            for vals, lights in ls.entries
        ],
    }


def subset_sums(verts, d) -> dict:
    """Each nonempty coordinate subset J mapped to the tuple of sum(v_i for i
    in J) over the vertices, one vertex and one J at a time."""
    return {
        frozenset(c): tuple(sum(v[i - 1] for i in c) for v in verts)
        for r in range(1, d + 1)
        for c in combinations(range(1, d + 1), r)
    }


def halfspace_values(verts, facets) -> list:
    """``Halfspace.value`` of every vertex on every facet, vertex-major."""
    return [[f.value(v) for f in facets] for v in verts]


class FailureLog(Ledger):
    """A ledger that also keeps every failed record, as (name, detail) in
    the order recorded."""

    def __init__(self):
        super().__init__()
        self.failures = []

    def record(self, name, ok, detail=""):
        super().record(name, ok, detail)
        if not ok:
            self.failures.append((name, detail))


def polytope_edges(verts, facets):
    """Vertex adjacency from tight facet sets (no third vertex dominates)."""
    tight = []
    for v in verts:
        tight.append(frozenset(i for i, f in enumerate(facets) if f.is_tight(v)))
    edges = []
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            common = tight[a] & tight[b]
            if not any(
                c != a and c != b and common <= tight[c] for c in range(len(verts))
            ):
                edges.append((a, b))
    return edges


def per_pair_certificate(kind, m, n, rotation, verts, facet_objs, facets):
    """The polytope certificate's (checks, counterexample), comparing each
    vertex with each facet and each subset J by its own sum.

    Same checks, order and messages as `geometry.certify_polytope`, which
    reads one table of subset sums and per-facet vertex masks instead,
    checks supermodularity on squares, caps the facet ranks, and proves the
    fan witnesses and the greedy vertices on tight ideals where this counts
    every pair and every permutation.
    """
    d = m + n
    vert_objs = rotation.elements
    ledger = Ledger()
    record = ledger.record
    for name, items in (("vertices", verts), ("facets", facets)):
        distinct = len(set(items))
        detail = f"{distinct} of {len(items)} {name} distinct"
        record(f"{name}_distinct", distinct == len(items), detail)
    record("vertices_on_hyperplane", True)
    for v in verts:
        if sum(v) != comb(d + 1, 2):
            record("vertices_on_hyperplane", False, f"{v} has coordinate sum {sum(v)}")
    record("halfspaces_satisfied", True)
    record("incidence_iff_refinement", True)
    for vo, v in zip(vert_objs, verts):
        for fo, f in zip(facet_objs, facets):
            val = f.value(v)
            if val < f.rhs:
                record("halfspaces_satisfied", False, f"{v} violates {f}")
            tight = val == f.rhs
            refines = fo.preposet.contains(vo.preposet)
            if tight != refines:
                record(
                    "incidence_iff_refinement",
                    False,
                    f"vertex {vo.canonical()} vs facet {fo.canonical()}: "
                    f"tight={tight} refines={refines}",
                )
    record("edge_directions", True)
    record("edge_single_flip", True)
    for lo, hi in rotation.covers:
        lo_obj, hi_obj = vert_objs[lo], vert_objs[hi]
        delta = tuple(b - a for a, b in zip(verts[lo], verts[hi]))
        flips = le_inverted_pairs(lo_obj.preposet, hi_obj.preposet)
        back = le_inverted_pairs(hi_obj.preposet, lo_obj.preposet)
        if len(flips) != 1 or back:
            record("edge_single_flip", False, f"{lo_obj.canonical()} -> {hi_obj.canonical()}")
            continue
        i, j = flips[0]
        expected_dir = [0] * d
        lam = delta[i - 1]
        expected_dir[i - 1] = lam
        expected_dir[j - 1] = -lam
        if lam <= 0 or tuple(expected_dir) != delta:
            detail = f"{lo_obj.canonical()} -> {hi_obj.canonical()}: delta {delta}"
            record("edge_directions", False, detail)
        if kind == "hochschild" and _shade_edge_delta(lo_obj, hi_obj) != delta:
            record("edge_directions", False, f"shade case formula differs: {delta}")
    pairwise_fan_checks(kind, m, n, vert_objs, ledger)
    z_fn = family(kind).z
    record("z_support_minimum", True)
    record("z_supermodular", True)
    subsets = list(subset_sums(verts, d))
    z = {s: z_fn(s, m, n) for s in subsets}
    for s in subsets:
        if min(sum(v[i - 1] for i in s) for v in verts) != z[s]:
            record("z_support_minimum", False, f"J={sorted(s)}")
    z[frozenset()] = 0
    for s in subsets:
        for t in subsets:
            if z[s] + z[t] > z[s | t] + z[s & t]:
                record("z_supermodular", False, f"I={sorted(s)}, J={sorted(t)}")
                break
        else:
            continue
        break
    record("greedy_vertices_match", True)
    greedy = {greedy_vertex(z, d, perm) for perm in permutations(range(1, d + 1))}
    if greedy != set(verts):
        record("greedy_vertices_match", False, f"{len(greedy)} greedy vs {len(verts)} claimed")
    record("facets_identified", True)
    if d >= 2:
        claimed = {f.support for f in facets}
        for s in subsets:
            if len(s) == d:
                continue
            tight_pts = [v for v in verts if sum(v[i - 1] for i in s) == z[s]]
            is_facet = _affine_rank(tight_pts) == d - 2
            if is_facet != (s in claimed):
                detail = f"J={sorted(s)}: facet={is_facet} claimed={s in claimed}"
                record("facets_identified", False, detail)
    if kind == "hochschild" and d >= 2:
        record("simple", True)
        for vo, v in zip(vert_objs, verts):
            tight = sum(1 for f in facets if f.is_tight(v))
            if tight != d - 1:
                record("simple", False, f"{vo.canonical()} lies on {tight} facets")
    return dict(ledger.verdicts()), ledger.first_failure()


# -- painted shapes by recursive generators --------------------------------
#
# The route `painted._painted_shapes` took before its interval table; each
# generator rebuilds the subtrees of every prefix it extends.


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


def recursive_painted_shapes(m, n, binary):
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



# -- painted shapes by interval tables --------------------------------------
#
# The route `painted._painted_shapes` took before its top-down grammar: shapes
# grow bottom-up one cut layer at a time, and each layer boundary gets a
# fresh interval table of plane trees, so one subtree is rebuilt once per
# boundary.  A rank filter prunes by a budget of uncut nodes.


def interval_table_painted_shapes(m, n, binary, rank=None):
    """Tagged shapes as (shape, k, free), like `painted._painted_shapes`."""
    if m + n == 0:
        return
    k_range = [m] if binary or m == 0 else range(1, m + 1)
    for k in k_range:
        budget = m + n - k - (rank or 0)
        if budget < 0:
            continue
        for shape, free in _table_layers([LEAF] * (n + 1), 0, k, binary, 0, budget):
            if rank is None or free == budget:
                yield shape, k, free


def _splits(lo, hi, parts):
    """The splits of [lo, hi) into ``parts`` consecutive nonempty blocks."""
    for cuts in combinations(range(lo + 1, hi), parts - 1):
        bounds = (lo, *cuts, hi)
        yield tuple(zip(bounds, bounds[1:]))


def _tree_table(items, binary, budget):
    """The plane trees with no unary node over each interval items[lo:hi],
    as a dict from (lo, hi) to a dict from a count of uncut internal nodes
    to the trees with that many; counts over ``budget`` are dropped."""
    table = {(lo, lo + 1): {0: [item]} for lo, item in enumerate(items)}
    for length in range(2, len(items) + 1):
        for lo in range(len(items) - length + 1):
            hi = lo + length
            trees = {}
            for arity in [2] if binary else range(2, length + 1):
                for split in _splits(lo, hi, arity):
                    blocks = [table[block] for block in split]
                    for counts in product(*blocks):
                        free = 1 + sum(counts)
                        if free <= budget:
                            trees.setdefault(free, []).extend(
                                (None, children) for children in _pick(blocks, counts)
                            )
            table[lo, hi] = trees
    return table


def _pick(blocks, counts):
    """Every choice of one tree per block, each of the given count."""
    return product(*(block[count] for block, count in zip(blocks, counts)))


def _table_layers(boundary, level, k, binary, free, budget):
    """Grow forests and cut layers bottom-up over one interval table per
    boundary; yields each final tagged root with its count of uncut nodes."""
    table = _tree_table(boundary, binary, budget - free)
    if level == k:
        for count, trees in table[0, len(boundary)].items():
            for tree in trees:
                yield tree, free + count
        return
    for roots in range(1, len(boundary) + 1):
        for split in _splits(0, len(boundary), roots):
            blocks = [table[block] for block in split]
            for counts in product(*blocks):
                below = free + sum(counts)
                if below > budget:
                    continue
                for forest in _pick(blocks, counts):
                    for groups in [roots] if binary else range(1, roots + 1):
                        for cut in _splits(0, roots, groups):
                            layer = [(level, forest[lo:hi]) for lo, hi in cut]
                            yield from _table_layers(layer, level + 1, k, binary, below, budget)


# -- ordered partitions by assigning labels and sorting ---------------------
#
# The route `painted.ordered_partitions` took before it chose each block
# among the subsets of the labels left: every label goes to every block, and
# the partitions are sorted by their key.


def sorted_ordered_partitions(m, k):
    """Ordered partitions of {1, ..., m} into k nonempty blocks, in
    canonical order, as tuples of frozensets."""
    if k == 0:
        return [()] if m == 0 else []
    out = []

    def rec(label, blocks):
        if label > m:
            if all(blocks):
                out.append(tuple(frozenset(b) for b in blocks))
            return
        if sum(1 for b in blocks if not b) > m - label + 1:
            return
        for b in blocks:
            b.append(label)
            rec(label + 1, blocks)
            b.pop()

    rec(1, [[] for _ in range(k)])
    return sorted(out, key=_parts_key)


# -- the painted census by walking every shape ------------------------------
#
# The route `tables._painted_rank_histogram` took before it counted the
# shapes: every tagged shape of every rank is built and binned.


def shape_walk_rank_histogram(m, n):
    """Painted trees by rank: each tagged shape with k cuts, weighted by the
    surjection_count(m, k) label partitions it carries, at the rank
    (`painted.shape_rank`) of the uncut-node count it comes with."""
    hist = [0] * (m + n)
    labelings = [surjection_count(m, k) for k in range(m + 1)]
    for _, k, free in _painted_shapes(m, n, binary=False):
        hist[m + n - k - free] += labelings[k]
    return tuple(hist)


# -- enumeration by building, filtering and sorting every object ------------
#
# The routes the four enumerators took before they sorted shapes instead of
# trees, pruned ranks inside the shape tables and built the shades in
# canonical order: every shape of every rank is built and those of another
# rank dropped, every labeled object is sorted by its key, and the lights
# are distributed recursively over fresh subsets of the labels left.


def filtered_painted_trees(m, n, binary=False, rank=None):
    """Every m-painted n-tree once, in generation order; with ``rank``,
    every shape is built and those of another rank are dropped."""
    for shape, k in recursive_painted_shapes(m, n, binary):
        if rank is None or shape_rank(m, n, shape, k) == rank:
            for parts in ordered_partitions(m, k):
                yield PaintedTree(m, n, shape, parts)


def key_sorted_painted_trees(m, n, rank=None):
    """`enum_painted_trees` by sorting every tree by its key."""
    _check_params(m, n, rank)
    if rank == 0:
        return key_sorted_binary_painted_trees(m, n)
    return sorted(filtered_painted_trees(m, n, rank=rank), key=sorted_painted_key)


def key_sorted_binary_painted_trees(m, n):
    """`binary_painted_trees` by sorting every tree by its key."""
    _check_params(m, n)
    return sorted(filtered_painted_trees(m, n, binary=True), key=sorted_painted_key)


def recursive_light_distributions(seq, m):
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


def tuple_sequences(n, max_empty):
    """Sequences of tuples (each possibly empty) with total sum n.

    At most ``max_empty`` empty tuples; at least one position overall.
    """

    def rec(remaining, empties_left):
        if remaining == 0:
            yield []
        for vals, used, _ in _tuples_upto(remaining):
            if vals or empties_left:
                for rest in rec(remaining - used, empties_left - (not vals)):
                    yield [vals] + rest

    for seq in rec(n, max_empty):
        if seq:
            yield seq


def filtered_lighted_shades(m, n, rank=None):
    """Every m-lighted n-shade once, in generation order, lit by
    `recursive_light_distributions`; with ``rank`` only the tuple sequences
    of that rank are lighted."""
    for seq in tuple_sequences(n, m):
        if rank is None or sequence_rank(m, seq) == rank:
            for lights in recursive_light_distributions(seq, m):
                yield LightedShade(m, n, list(zip(seq, lights)))


def key_sorted_lighted_shades(m, n, rank=None):
    """`enum_lighted_shades` by the recursive lights; rank 0 is the unary
    shades, here filtered from every sequence rather than generated."""
    _check_params(m, n, rank)
    return sorted(filtered_lighted_shades(m, n, rank=rank), key=sorted_shade_key)


# -- series by per-term composition and a Neumann inverse ------------------
#
# The routes `series` took before every series operation was built from one
# sum, one product and fixed points: `TruncatedSeries.substitute_y` and
# `TruncatedSeries.geometric_inverse` unchanged (as functions of the series),
# and the face rows and the three-variable series built on them; and the sum
# and product before they skipped the checked constructor.


def substitute_y(self, inner: "TruncatedSeries") -> "TruncatedSeries":
    """Compose in y: substitute ``inner`` (with zero y-constant) for y."""
    if any(b == 0 for (a, b, c) in inner.coeffs if inner.coeffs[(a, b, c)]):
        raise ValueError("composition needs a series with zero y-constant term")
    powers = {0: TruncatedSeries.constant(1, self.orders)}
    max_pow = max((b for (_, b, _) in self.coeffs), default=0)
    for i in range(1, max_pow + 1):
        powers[i] = powers[i - 1] * inner
    out = TruncatedSeries(self.orders)
    for (a, b, c), u in self.coeffs.items():
        term = powers[b] * u
        shift = {}
        ox, oy, oz = self.orders
        for (a2, b2, c2), v in term.coeffs.items():
            na, nc = a + a2, c + c2
            if na <= ox and nc <= oz:
                shift[(na, b2, nc)] = shift.get((na, b2, nc), 0) + v
        out = out + TruncatedSeries(self.orders, shift)
    return out


def geometric_inverse(self) -> "TruncatedSeries":
    """Inverse of a series with constant term 1 and no other x^0 y^0 z^0."""
    one = TruncatedSeries.constant(1, self.orders)
    u = one - self
    if u.coefficient(0, 0, 0) != 0:
        raise ValueError("inverse needs constant term 1")
    out = TruncatedSeries.constant(1, self.orders)
    term = TruncatedSeries.constant(1, self.orders)
    bound = sum(self.orders) + 1
    for _ in range(bound):
        term = term * u
        if not term.coeffs:
            break
        out = out + term
    return out


def checked_add(self, other):
    """`TruncatedSeries.__add__` when every sum went through the checked constructor."""
    theirs = {(0, 0, 0): other} if isinstance(other, (int, Fraction)) else other.coeffs
    out = self.coeffs.copy()  # a dict copy; dict() of the view copies key by key
    for e, c in theirs.items():
        out[e] = out.get(e, 0) + c
    return TruncatedSeries(self.orders, out)


def checked_mul(self, other):
    """`TruncatedSeries.__mul__` when every product went through the checked
    constructor and scanned every pair of terms."""
    if isinstance(other, (int, Fraction)):
        return TruncatedSeries(
            self.orders, {e: c * other for e, c in self.coeffs.items()}
        )
    out = {}
    ox, oy, oz = self.orders
    theirs = other.coeffs.items()
    for (a1, b1, c1), u in self.coeffs.items():
        for (a2, b2, c2), v in theirs:
            a, b, c = a1 + a2, b1 + b2, c1 + c2
            if a <= ox and b <= oy and c <= oz:
                key = (a, b, c)
                out[key] = out.get(key, 0) + u * v
    return TruncatedSeries(self.orders, out)


def _schroder_shifted(i, oy, oz):
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    if i == 0:
        return y
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    t1 = (one + z) * schroder_gf(oy, oz) - y * z
    if i == 1:
        return t1
    return substitute_y(_schroder_shifted(i - 1, oy, oz), t1)


def per_term_painted_face_row(m, oy, oz):
    """`series.painted_face_row` with every composition by `substitute_y`."""
    orders = (0, oy, oz)
    out = TruncatedSeries(orders)
    z = TruncatedSeries.variable("z", orders)
    s = schroder_gf(oy, oz)
    for k in range(m + 1):
        cnt = surjection_count(m, k)
        if cnt == 0:
            continue
        term = substitute_y(s, _schroder_shifted(k, oy, oz)) * cnt * z.power(m - k)
        out = out + term
    return out


def neumann_shade_face_row(m, oy, oz):
    """`series.shade_face_row` with the denominator by `geometric_inverse`."""
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    out = TruncatedSeries(orders)
    denom_inv = geometric_inverse(one - y * (z + 2 * one))
    for k in range(m + 1):
        cnt = surjection_count(m, k)
        if cnt == 0:
            continue
        num = (one - y).power(k) * (one - y * (z + one))
        term = num * denom_inv.power(k + 1) * cnt * z.power(m - k)
        out = out + term
    return out


# The face rows before they were read off one tower per family: each row
# composes its own Schroeder tower, two compositions per term, at its own
# orders, and carries the shade powers from term to term.


@lru_cache(maxsize=None)
def _per_row_schroder_shifted(i, oy, oz):
    """The tower of substituted Schroeder series feeding `per_row_painted_face_row`."""
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    if i == 0:
        return y
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    t1 = (one + z) * schroder_gf(oy, oz) - y * z
    return _per_row_schroder_shifted(i - 1, oy, oz).substitute_y(t1)


def per_row_painted_face_row(m, oy, oz):
    """`series.painted_face_row` with the terms composed at the row's orders
    and added up by Horner's rule in z."""
    orders = (0, oy, oz)
    out = TruncatedSeries(orders)
    z = TruncatedSeries.variable("z", orders)
    s = schroder_gf(oy, oz)
    for k in range(m + 1):
        out = out * z
        cnt = surjection_count(m, k)
        if cnt:
            out = out + s.substitute_y(_per_row_schroder_shifted(k, oy, oz)) * cnt
    return out


def per_row_shade_face_row(m, oy, oz):
    """`series.shade_face_row` with the terms built at the row's orders, both
    powers carried from the term before, and added up by Horner's rule in z."""
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    out = TruncatedSeries(orders)
    denom_inv = TruncatedSeries(orders)
    for _ in range(oy + 1):  # the fixed point of d = 1 + y(z + 2) d is 1 / (1 - y(z + 2))
        denom_inv = one + y * (z + 2 * one) * denom_inv
    one_minus_y = one - y
    num, den = one - y * (z + one), denom_inv
    for k in range(m + 1):
        if k:
            num, den = num * one_minus_y, den * denom_inv
        out = out * z
        cnt = surjection_count(m, k)
        if cnt:
            out = out + num * den * cnt
    return out


def shifted_face_generating_function(kind, m_max, n_max):
    """`series.face_generating_function` with x^m put on by rebuilt keys."""
    face_row, row_shift = {
        "painted": (per_term_painted_face_row, 1),
        "shade": (neumann_shade_face_row, 0),
    }[kind]
    oy = n_max + row_shift
    oz = m_max + n_max
    orders = (m_max, oy, oz)
    out = TruncatedSeries(orders)
    for m in range(m_max + 1):
        row = face_row(m, oy, oz)
        shifted = {(m, b, c): v for (_, b, c), v in row.coeffs.items()}
        out = out + TruncatedSeries(orders, shifted)
    return out


# -- the census by representative trees, sequence walks and full orders ------
#
# The routes `tables` and `series` took before the census read its shadows
# off the binary shapes, counted the tuple sequences and solved each fixed
# point degree by degree: a representative painted tree and its `shadow` per
# binary shape, matched with the unary shades whose lights read m, ..., 1
# from the top; every tuple sequence walked and binned; and every fixed-point
# iteration run at the full y-order.


def representative_unary_shades(m, n):
    """The unary shades whose lights read m, ..., 1 from top to bottom: each
    position holds a one-entry tuple or the next label's cut."""
    cuts = [((), frozenset({label})) for label in range(m, 0, -1)]

    def walk(left, k, entries):
        if not left and k == m:
            yield LightedShade(m, n, entries)
        if k < m:
            yield from walk(left, k + 1, entries + [cuts[k]])
        for v in range(1, left + 1):
            yield from walk(left - v, k, entries + [((v,), _UNLIT)])

    return walk(n, 0, [])


def shape_walk_vertex_census(m, n):
    """(binary painted trees, unary shades, singleton fibers) of (m, n): a
    painted tree with the parts ({1}, ..., {m}), bottom cut first, built on
    each binary shape, and its shadow matched with
    `representative_unary_shades`, times m!."""
    parts = tuple(frozenset({label}) for label in range(1, m + 1))
    unary = list(representative_unary_shades(m, n))
    sizes = Counter(dict.fromkeys(unary, 0))
    sizes.update(
        shadow(PaintedTree(m, n, shape, parts))
        for shape, _, _ in _painted_shapes(m, n, binary=True)
    )
    assert len(sizes) == len(unary) and all(sizes.values())
    orbit = factorial(m)
    singletons = sum(1 for size in sizes.values() if size == 1)
    return orbit * sum(sizes.values()), orbit * len(unary), orbit * singletons


def walk_shade_rank_histogram(m, n):
    """Lighted shades by rank: each tuple sequence, weighted by its number of
    light distributions (by inclusion-exclusion over the missed empty
    tuples), at its `sequence_rank`."""
    hist = [0] * (m + n)
    for seq in tuple_sequences(n, m):
        p = len(seq)
        e = seq.count(())
        hist[sequence_rank(m, seq)] += sum(
            (-1) ** i * comb(e, i) * (p - i) ** m for i in range(e + 1)
        )
    return tuple(hist)


def full_order_catalan_gf(oy):
    """C = y + C^2, oy + 1 iterations at y-order oy."""
    orders = (0, oy, 0)
    y = TruncatedSeries.variable("y", orders)
    s = TruncatedSeries(orders)
    for _ in range(oy + 1):
        s = y + s * s
    return s


def full_order_schroder_gf(oy, oz):
    """S = y + (z + 1) S^2 - yz S, oy + 1 iterations at y-order oy."""
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    s = TruncatedSeries(orders)
    for _ in range(oy + 1):
        s = y + (z + one) * s * s - y * z * s
    return s


def full_order_shade_denominator(oy, oz):
    """1 / (1 - y(z + 2)) as the fixed point of d = 1 + y(z + 2) d, oy + 1
    iterations at y-order oy."""
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    d = TruncatedSeries(orders)
    for _ in range(oy + 1):
        d = one + y * (z + 2) * d
    return d
