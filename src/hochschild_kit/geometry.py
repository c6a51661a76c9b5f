"""Exact rational geometry of multiplihedra and Hochschild polytopes.

Vertices, facet halfspaces, Minkowski parametrizations and the runtime
polytopality certificate.  Everything is computed over exact rationals
(integer coordinates, Fraction barycenters); there is no floating point and
no convex-hull or LP dependency: polytopality is certified through vertex /
facet incidence, edge directions and fan witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

from .painted import PaintedTree, binary_painted_trees, enum_painted_trees
from .preposets import Preposet
from .shades import LightedShade, enum_lighted_shades, unary_lighted_shades
from .shadow import is_singleton, shadow


def omega(d: int) -> tuple[int, ...]:
    """The orientation vector (d, d-1, ..., 1) - (1, 2, ..., d)."""
    return tuple(d + 1 - 2 * i for i in range(1, d + 1))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class Halfspace:
    """The halfspace sum(x_i for i in support) >= rhs."""

    support: frozenset
    rhs: int

    def value(self, point):
        return sum(point[i - 1] for i in sorted(self.support))

    def satisfied(self, point) -> bool:
        return self.value(point) >= self.rhs

    def is_tight(self, point) -> bool:
        return self.value(point) == self.rhs


@dataclass(frozen=True)
class PreposetCone:
    """The cone of points with x_i <= x_j whenever i is below j.

    Its facet inequalities come from the Hasse covers of the quotient poset;
    the cone is simplicial exactly when that Hasse diagram is a forest.
    """

    preposet: Preposet

    def inequalities(self):
        """One (i, j) pair per Hasse cover, read as x_i <= x_j."""
        classes = self.preposet.classes
        return [
            (min(classes[a]), min(classes[b]))
            for a, b in self.preposet.hasse_edges
        ]

    @property
    def is_simplicial(self) -> bool:
        return self.preposet.hasse_is_forest

    def contains(self, point) -> bool:
        return all(
            point[i - 1] <= point[j - 1] for i, j in self.preposet.pairs()
        )


# -- vertex maps ---------------------------------------------------------------


def vertex_of_painted_tree(pt: PaintedTree) -> tuple[int, ...]:
    """Vertex of the multiplihedron for a binary painted tree."""
    if not pt.is_binary:
        raise ValueError("vertices come from binary painted trees")
    m, n = pt.m, pt.n
    coords = [0] * (m + n)
    binary_nodes = [v for v, a in pt.arity.items() if a == 2]
    for i, part in enumerate(pt.parts):
        below = sum(1 for v in binary_nodes if pt.node_below_cut(v, i))
        for p in part:
            coords[p - 1] = (i + 1) + below
    for v in binary_nodes:
        label = pt.labels[v][0]
        node, child_ids = pt._nodes[v][1], pt._nodes[v][3]
        prod = 1
        for c, cid in zip(node, child_ids):
            prod *= 1 if c is None else pt.leaf_count[cid]
        cuts_below = sum(1 for i in range(pt.k) if pt.cut_below_node(i, v))
        coords[m + label - 1] = cuts_below + prod
    return tuple(coords)


def vertex_of_lighted_shade(ls: LightedShade) -> tuple[int, ...]:
    """Vertex of the Hochschild polytope for a unary shade."""
    if not ls.is_unary:
        raise ValueError("vertices come from unary shades")
    m, n = ls.m, ls.n
    coords = [1] * (m + n)
    for p, pos in ls.light_position.items():
        weakly_below = sum(1 for c in ls.cut_positions if c >= pos)
        entries_below = sum(
            vals[0] for q, (vals, _) in enumerate(ls.entries) if q > pos and vals
        )
        coords[p - 1] = weakly_below + entries_below
    for pos, s, ps in ls.singletons:
        c_p = ls.cuts_below_position(pos)
        coords[ps - 1] = 1 + s * (m + n - ps + c_p) + comb(s, 2)
    return tuple(coords)


# -- facet maps ----------------------------------------------------------------


def facet_of_painted_tree(pt: PaintedTree) -> Halfspace:
    """Facet halfspace of the multiplihedron for a rank m+n-2 painted tree."""
    m, n = pt.m, pt.n
    if pt.rank != m + n - 2:
        raise ValueError("facets come from rank m+n-2 painted trees")
    a_set = set()
    for i, cut in enumerate(pt.cuts):
        if 0 not in cut:
            a_set |= pt.parts[i]
    blocks = []
    for v, _, _, _ in pt._nodes:
        if v != 0 and pt.arity[v] >= 2:
            blocks.append({m + x for x in pt.labels[v]})
    b_set = set().union(*blocks) if blocks else set()
    rhs = comb(len(a_set) + 1, 2) + sum(comb(len(b) + 1, 2) for b in blocks)
    rhs += len(a_set) * len(b_set)
    return Halfspace(frozenset(a_set | b_set), rhs)


def facet_of_lighted_shade(ls: LightedShade) -> Halfspace:
    """Facet halfspace of the Hochschild polytope for a rank m+n-2 shade."""
    m, n = ls.m, ls.n
    if ls.rank != m + n - 2:
        raise ValueError("facets come from rank m+n-2 shades")
    if ls.size == 1:
        vals = ls.entries[0][0]
        q = vals.index(2) + 1
        a_set = frozenset()
        b_set = frozenset({m + q})
    else:
        q = sum(ls.entries[0][0])
        a_set = ls.entries[1][1]
        b_set = frozenset(range(m + q + 1, m + n + 1))
    rhs = comb(len(a_set) + len(b_set) + 1, 2)
    return Halfspace(frozenset(a_set) | b_set, rhs)


# -- Minkowski parametrizations ---------------------------------------------------


def z_multiplihedron(subset, m, n) -> int:
    """Tight right-hand side of the multiplihedron on a coordinate subset."""
    a_set = {i for i in subset if i <= m}
    rest = sorted(i for i in subset if i > m)
    blocks = _interval_blocks(rest)
    b_len = len(rest)
    return (
        comb(len(a_set) + 1, 2)
        + sum(comb(len(b) + 1, 2) for b in blocks)
        + len(a_set) * b_len
    )


def z_hochschild(subset, m, n) -> int:
    """Tight right-hand side of the Hochschild polytope."""
    a_set = {i for i in subset if i <= m}
    rest = set(i for i in subset if i > m)
    c_set = set()
    j = m + n
    while j in rest:
        c_set.add(j)
        j -= 1
    b_set = rest - c_set
    return comb(len(a_set) + len(c_set) + 1, 2) + len(b_set)


def _interval_blocks(sorted_vals):
    blocks = []
    for v in sorted_vals:
        if blocks and blocks[-1][-1] == v - 1:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return blocks


def y_multiplihedron(subset, m, n) -> int:
    """Minkowski coefficient of the multiplihedron on a simplex face."""
    s = frozenset(subset)
    tree_part = {i for i in s if i > m}
    if len(s) <= 2 and len(tree_part) <= 1:
        return 1
    if s == tree_part and tree_part and _is_interval(sorted(tree_part)):
        return 1
    return 0


def y_hochschild(subset, m, n) -> int:
    """Minkowski coefficient of the Hochschild polytope on a simplex face."""
    s = frozenset(subset)
    if len(s) == 1:
        return 1
    if len(s) == 2 and all(i <= m for i in s):
        return 1
    tree_part = sorted(i for i in s if i > m)
    label_part = [i for i in s if i <= m]
    if tree_part and tree_part[-1] == m + n and _is_interval(tree_part):
        if len(label_part) == 1:
            return 1
        if not label_part:
            j = tree_part[0] - m
            return n - j
    return 0


def _is_interval(sorted_vals) -> bool:
    return all(b == a + 1 for a, b in zip(sorted_vals, sorted_vals[1:]))


@dataclass
class MinkowskiData:
    """Minkowski coefficients y and tight right-hand sides z, both exact."""

    kind: str
    m: int
    n: int
    y: dict
    z: dict

    def to_json_obj(self):
        def key(s):
            return ",".join(str(i) for i in sorted(s))

        return {
            "kind": self.kind,
            "m": self.m,
            "n": self.n,
            "y": {key(s): v for s, v in sorted(self.y.items(), key=lambda kv: sorted(kv[0]))},
            "z": {key(s): v for s, v in sorted(self.z.items(), key=lambda kv: sorted(kv[0]))},
        }


def _subsets(d):
    items = list(range(1, d + 1))
    for r in range(1, d + 1):
        yield from (frozenset(c) for c in combinations(items, r))


def minkowski_data(kind: str, m: int, n: int) -> MinkowskiData:
    """Both parametrizations, validated against each other and the vertices.

    Checks the Moebius inversion identity z_J = sum of y_I over I inside J
    exactly, and that every z_J equals the minimum of the coordinate sum over
    the polytope vertices.
    """
    d = m + n
    if kind == "multiplihedron":
        y_fn, z_fn = y_multiplihedron, z_multiplihedron
        verts = [vertex_of_painted_tree(pt) for pt in binary_painted_trees(m, n)]
    elif kind == "hochschild":
        y_fn, z_fn = y_hochschild, z_hochschild
        verts = [vertex_of_lighted_shade(ls) for ls in unary_lighted_shades(m, n)]
    else:
        raise ValueError("kind must be 'multiplihedron' or 'hochschild'")
    y = {s: y_fn(s, m, n) for s in _subsets(d)}
    z = {s: z_fn(s, m, n) for s in _subsets(d)}
    for s in z:
        total = sum(v for i, v in y.items() if i <= s)
        if total != z[s]:
            raise AssertionError(f"Moebius inversion fails at {sorted(s)}")
        support_min = min(sum(v[i - 1] for i in s) for v in verts)
        if support_min != z[s]:
            raise AssertionError(f"support minimum differs from z at {sorted(s)}")
    return MinkowskiData(kind, m, n, y, z)


# -- certification -----------------------------------------------------------------


@dataclass
class CertificationReport:
    kind: str
    m: int
    n: int
    num_vertices: int
    num_facets: int
    checks: dict = field(default_factory=dict)
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _polytope_objects(kind, m, n):
    d = m + n
    if kind == "multiplihedron":
        vert_objs = binary_painted_trees(m, n)
        verts = [vertex_of_painted_tree(o) for o in vert_objs]
        facet_objs = enum_painted_trees(m, n, rank=d - 2) if d >= 2 else []
        facets = [facet_of_painted_tree(o) for o in facet_objs]
    elif kind == "hochschild":
        vert_objs = unary_lighted_shades(m, n)
        verts = [vertex_of_lighted_shade(o) for o in vert_objs]
        facet_objs = enum_lighted_shades(m, n, rank=d - 2) if d >= 2 else []
        facets = [facet_of_lighted_shade(o) for o in facet_objs]
    else:
        raise ValueError("kind must be 'multiplihedron' or 'hochschild'")
    return vert_objs, verts, facet_objs, facets


def inverted_pairs(lo: Preposet, hi: Preposet):
    """Pairs (i, j), i < j, strictly below in lo and strictly reversed in hi."""
    out = []
    for i in range(1, lo.d + 1):
        for j in range(i + 1, lo.d + 1):
            if lo.le(i, j) and not lo.le(j, i) and hi.le(j, i) and not hi.le(i, j):
                out.append((i, j))
    return out


def _shade_edge_delta(lo: LightedShade, hi: LightedShade):
    """Expected vertex difference along a shade rotation, by move type."""
    m, n = lo.m, lo.n
    d = m + n
    lo_e, hi_e = lo.entries, hi.entries
    if len(hi_e) == len(lo_e) + 1:
        i = next(k for k in range(len(lo_e)) if lo_e[k] != hi_e[k])
        r = lo_e[i][0][0]
        s, t = hi_e[i][0][0], hi_e[i + 1][0][0]
        if s + t != r:
            raise RuntimeError(f"{lo} -> {hi} splits {r} into {s} + {t}")
        p = next(ps for pos, v, ps in lo.singletons if pos == i)
        c_p = lo.cuts_below_position(i)
        coeff = s * (m + n - p + t + c_p) + comb(s, 2)
        return _scaled_basis_diff(d, coeff, p - t, p)
    i = next(k for k in range(len(lo_e)) if lo_e[k] != hi_e[k])
    a, b = lo_e[i], lo_e[i + 1]
    if a[0] and b[1]:
        # singleton (s) passes below the cut c: both the cut coordinate and
        # the singleton coordinate move by s, not by 1
        c = min(b[1])
        s = a[0][0]
        p = next(ps for pos, v, ps in lo.singletons if pos == i)
        return _scaled_basis_diff(d, s, c, p)
    c_upper, c_lower = min(a[1]), min(b[1])
    return _scaled_basis_diff(d, 1, c_lower, c_upper)


def _scaled_basis_diff(d, coeff, plus, minus):
    v = [0] * d
    v[plus - 1] += coeff
    v[minus - 1] -= coeff
    return tuple(v)


@lru_cache(maxsize=None)
def certify_polytope(kind: str, m: int, n: int) -> CertificationReport:
    """Run the full polytopality certificate for one polytope.

    Sub-checks: (a) every vertex satisfies every facet halfspace; (b) a vertex
    is on a facet hyperplane iff its preposet is contained in the facet
    object's preposet; (c) every rotation edge moves by a positive multiple of
    e_i - e_j for its unique inverted pair (with the exact shade formulas);
    (d) fan sanity: simplicial maximal cones, face closure, and the coarsening
    witnesses; plus z support minima, supermodularity, and simplicity for the
    Hochschild polytope.
    """
    d = m + n
    vert_objs, verts, facet_objs, facets = _polytope_objects(kind, m, n)
    report = CertificationReport(kind, m, n, len(verts), len(facets))
    checks = report.checks

    def fail(name, message):
        checks[name] = False
        if report.counterexample is None:
            report.counterexample = f"{name}: {message}"

    checks["vertices_distinct"] = len(set(verts)) == len(verts)
    checks["facets_distinct"] = len(set(facets)) == len(facets)

    plane = comb(d + 1, 2)
    checks["vertices_on_hyperplane"] = True
    for v in verts:
        if sum(v) != plane:
            fail("vertices_on_hyperplane", f"{v} has coordinate sum {sum(v)}")

    checks["halfspaces_satisfied"] = True
    checks["incidence_iff_refinement"] = True
    for vo, v in zip(vert_objs, verts):
        for fo, f in zip(facet_objs, facets):
            val = f.value(v)
            if val < f.rhs:
                fail("halfspaces_satisfied", f"{v} violates {f}")
            tight = val == f.rhs
            refines = fo.preposet.contains(vo.preposet)
            if tight != refines:
                fail(
                    "incidence_iff_refinement",
                    f"vertex {vo.canonical()} vs facet {fo.canonical()}: "
                    f"tight={tight} refines={refines}",
                )

    checks["edge_directions"] = True
    checks["edge_single_flip"] = True
    vert_index = {o: i for i, o in enumerate(vert_objs)}
    for lo_obj in vert_objs:
        for hi_obj in lo_obj.rotation_successors():
            lo_v = verts[vert_index[lo_obj]]
            hi_v = verts[vert_index[hi_obj]]
            delta = tuple(b - a for a, b in zip(lo_v, hi_v))
            flips = inverted_pairs(lo_obj.preposet, hi_obj.preposet)
            back = inverted_pairs(hi_obj.preposet, lo_obj.preposet)
            if len(flips) != 1 or back:
                fail("edge_single_flip", f"{lo_obj.canonical()} -> {hi_obj.canonical()}")
                continue
            i, j = flips[0]
            expected_dir = [0] * d
            lam = delta[i - 1]
            expected_dir[i - 1] = lam
            expected_dir[j - 1] = -lam
            if lam <= 0 or tuple(expected_dir) != delta:
                fail(
                    "edge_directions",
                    f"{lo_obj.canonical()} -> {hi_obj.canonical()}: delta {delta}",
                )
            if kind == "hochschild":
                if _shade_edge_delta(lo_obj, hi_obj) != delta:
                    fail("edge_directions", f"shade case formula differs: {delta}")

    _fan_checks(kind, m, n, report, fail)

    z_fn = z_multiplihedron if kind == "multiplihedron" else z_hochschild
    checks["z_support_minimum"] = True
    checks["z_supermodular"] = True
    z = {s: z_fn(s, m, n) for s in _subsets(d)}
    z[frozenset()] = 0
    for s in list(z):
        if not s:
            continue
        if min(sum(v[i - 1] for i in s) for v in verts) != z[s]:
            fail("z_support_minimum", f"J={sorted(s)}")
    subsets = [s for s in z if s]
    for s in subsets:
        for t in subsets:
            if z[s] + z[t] > z[s | t] + z[s & t]:
                fail("z_supermodular", f"I={sorted(s)}, J={sorted(t)}")
                break
        else:
            continue
        break

    # with z supermodular, the polytope it defines has exactly the greedy
    # vertices; matching them against the claimed vertex set closes the loop
    checks["greedy_vertices_match"] = True
    greedy = {greedy_vertex(z, d, perm) for perm in permutations(range(1, d + 1))}
    if greedy != set(verts):
        fail("greedy_vertices_match", f"{len(greedy)} greedy vs {len(verts)} claimed")

    checks["facets_identified"] = True
    if d >= 2:
        claimed = {f.support for f in facets}
        for s in _subsets(d):
            if len(s) == d:
                continue
            tight_pts = [v for v in verts if sum(v[i - 1] for i in s) == z[s]]
            is_facet = _affine_rank(tight_pts) == d - 2
            if is_facet != (s in claimed):
                fail(
                    "facets_identified",
                    f"J={sorted(s)}: facet={is_facet} claimed={s in claimed}",
                )

    if kind == "hochschild" and d >= 2:
        checks["simple"] = True
        for vo, v in zip(vert_objs, verts):
            tight = sum(1 for f in facets if f.is_tight(v))
            if tight != d - 1:
                fail("simple", f"{vo.canonical()} lies on {tight} facets")
    return report


def greedy_vertex(z, d, perm) -> tuple[int, ...]:
    """Vertex of the deformed permutahedron P_z selected by a permutation."""
    coords = [0] * d
    acc = frozenset()
    prev = 0
    for i in perm:
        acc = acc | {i}
        coords[i - 1] = z[acc] - prev
        prev = z[acc]
    return tuple(coords)


def _affine_rank(points) -> int:
    """Dimension of the affine hull of exact integer points (-1 when empty)."""
    if not points:
        return -1
    base = points[0]
    rows = []
    for p in points[1:]:
        rows.append([Fraction(a - b) for a, b in zip(p, base)])
    rank = 0
    cols = len(base)
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _fan_checks(kind, m, n, report, fail):
    checks = report.checks
    d = m + n
    if kind == "hochschild":
        all_shades = enum_lighted_shades(m, n)
        preposet_set = {ls.preposet for ls in all_shades}
        checks["cones_simplicial"] = True
        checks["fan_face_closure"] = True
        for ls in all_shades:
            pre = ls.preposet
            if not pre.hasse_is_forest:
                fail("cones_simplicial", ls.canonical())
            for e in range(len(pre.hasse_edges)):
                if pre.contract_hasse_edge(e) not in preposet_set:
                    fail("fan_face_closure", f"{ls.canonical()} edge {e}")
        unary_pre = [ls.preposet for ls in unary_lighted_shades(m, n)]
        checks["coarsening_witness"] = True
        for pt in binary_painted_trees(m, n):
            hits = sum(1 for p in unary_pre if pt.preposet.contains(p))
            if hits != 1:
                fail("coarsening_witness", f"{pt.canonical()} lands in {hits} cones")
    else:
        # maximal painted cones need not be simplicial (the multiplihedron is
        # not simple), so only the braid coarsening witness is checked here
        binary_pre = [pt.preposet for pt in binary_painted_trees(m, n)]
        checks["coarsening_witness"] = True
        for perm in permutations(range(1, d + 1)):
            chain = Preposet.chain(d, perm)
            hits = sum(1 for p in binary_pre if chain.contains(p))
            if hits != 1:
                fail("coarsening_witness", f"chain {perm} lands in {hits} cones")


# -- oriented skeleton ----------------------------------------------------------------


@dataclass
class OrientedSkeleton:
    kind: str
    m: int
    n: int
    objects: list
    coordinates: list
    edges: list  # (lo_index, hi_index) with omega increasing


def oriented_skeleton(kind: str, m: int, n: int) -> OrientedSkeleton:
    """Polytope skeleton oriented by omega; must match the rotation digraph."""
    report = certify_polytope(kind, m, n)
    if not report.passed:
        raise AssertionError(f"certification failed: {report.counterexample}")
    vert_objs, verts, _, _ = _polytope_objects(kind, m, n)
    w = omega(m + n)
    index = {o: i for i, o in enumerate(vert_objs)}
    edges = []
    for lo_obj in vert_objs:
        for hi_obj in lo_obj.rotation_successors():
            lo, hi = index[lo_obj], index[hi_obj]
            gain = dot(verts[hi], w) - dot(verts[lo], w)
            if gain == 0:
                raise AssertionError(f"omega tie on edge {lo_obj} -> {hi_obj}")
            if gain < 0:
                raise AssertionError(
                    f"omega orientation disagrees with rotation {lo_obj} -> {hi_obj}"
                )
            edges.append((lo, hi))
    return OrientedSkeleton(kind, m, n, list(vert_objs), list(verts), sorted(edges))


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


def barycenter(kind: str, m: int, n: int) -> tuple[Fraction, ...]:
    """Vertex barycenter, as exact fractions."""
    _, verts, _, _ = _polytope_objects(kind, m, n)
    k = len(verts)
    return tuple(Fraction(sum(col), k) for col in zip(*verts))


# -- shared facets and singleton vertices ------------------------------------------


@dataclass
class SharedFacetReport:
    m: int
    n: int
    facets_subset: bool
    shared_iff_singleton_tight: bool
    common_vertices_are_singletons: bool
    num_shared: int
    num_singletons: int


def shared_facet_report(m: int, n: int) -> SharedFacetReport:
    """Compare the two facet descriptions and locate the common vertices.

    The Hochschild halfspaces must form a subset of the multiplihedron ones,
    and a multiplihedron halfspace is shared exactly when it is tight at some
    common vertex of the two polytopes (a shadow singleton vertex).
    """
    vert_objs, m_verts, _, m_facets = _polytope_objects("multiplihedron", m, n)
    _, h_verts, _, h_facets = _polytope_objects("hochschild", m, n)
    m_set, h_set = set(m_facets), set(h_facets)
    subset = h_set <= m_set
    singleton_verts = [
        v for vo, v in zip(vert_objs, m_verts) if is_singleton(vo)
    ]
    common_pts = set(m_verts) & set(h_verts)
    common_ok = common_pts == set(singleton_verts)
    shared_ok = True
    for f in m_facets:
        shared = f in h_set
        tight_at_singleton = any(f.is_tight(v) for v in singleton_verts)
        if shared != tight_at_singleton:
            shared_ok = False
    return SharedFacetReport(
        m, n, subset, shared_ok, common_ok, len(h_set & m_set), len(singleton_verts)
    )


# -- the freehedron counterexample ---------------------------------------------------


@dataclass
class FreehedronReport:
    n: int
    num_vertices: int
    num_edges: int
    is_lattice: bool
    joinless_pair: tuple | None
    meetless_pair: tuple | None
    vertices: list
    edges: list  # omega-oriented index pairs


def freehedron_minkowski(n: int):
    """Minkowski coefficients of the n-dimensional freehedron in R^(n+1).

    One summand per initial interval {1..i} and final interval {i..n+1} of
    the simplex coordinates; the full interval is counted twice.
    """
    d = n + 1
    y = {}
    for i in range(1, d + 1):
        s = frozenset(range(1, i + 1))
        y[s] = y.get(s, 0) + 1
        t = frozenset(range(i, d + 1))
        y[t] = y.get(t, 0) + 1
    return y


def freehedron_report(n: int) -> FreehedronReport:
    """Build the freehedron, orient its skeleton by omega, test lattice-ness.

    The skeleton is the same graph as the unary 1-lighted n-shade rotation
    graph, but the omega orientation is not the rotation lattice: for n = 3
    some pair has no join and some pair has no meet.
    """
    d = n + 1
    y = freehedron_minkowski(n)
    z = {}
    for s in _subsets(d):
        z[s] = sum(v for i, v in y.items() if i <= s)
    z[frozenset()] = 0
    verts = sorted({greedy_vertex(z, d, perm) for perm in permutations(range(1, d + 1))})
    halfspaces = [Halfspace(s, z[s]) for s in _subsets(d) if len(s) < d]
    edges = polytope_edges(verts, halfspaces)
    w = omega(d)
    oriented = []
    for a, b in edges:
        ga, gb = dot(verts[a], w), dot(verts[b], w)
        if ga == gb:
            raise AssertionError("omega tie on a freehedron edge")
        oriented.append((a, b) if ga < gb else (b, a))
    poset = _reachability_poset(len(verts), oriented)
    joinless = _missing_bound(poset, upper=True)
    meetless = _missing_bound(poset, upper=False)
    return FreehedronReport(
        n,
        len(verts),
        len(edges),
        joinless is None and meetless is None,
        joinless,
        meetless,
        verts,
        sorted(oriented),
    )


def _reachability_poset(n, edges):
    reach = [1 << i for i in range(n)]
    changed = True
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    while changed:
        changed = False
        for a in range(n):
            acc = reach[a]
            for b in succ[a]:
                acc |= reach[b]
            if acc != reach[a]:
                reach[a] = acc
                changed = True
    return reach


def _missing_bound(reach, upper: bool):
    """A pair with no least upper (or greatest lower) bound, else None."""
    n = len(reach)
    if upper:
        above = reach
    else:
        above = [0] * n
        for a in range(n):
            for b in range(n):
                if reach[b] >> a & 1:
                    above[a] |= 1 << b
    for a in range(n):
        for b in range(a + 1, n):
            common = above[a] & above[b]
            if not common:
                return (a, b)
            best = None
            mask = common
            while mask:
                c = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if common & ~above[c] == 0:
                    best = c
                    break
            if best is None:
                return (a, b)
    return None
