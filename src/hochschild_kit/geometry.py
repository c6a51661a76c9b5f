"""Exact rational geometry of multiplihedra and Hochschild polytopes.

Vertices, facet halfspaces, Minkowski parametrizations and the runtime
polytopality certificate.  Everything is exact: coordinates are integers,
affine ranks come from fraction-free integer elimination, and `Fraction`
appears only in barycenters.  There is no floating point and no convex-hull
or LP dependency: polytopality is certified through vertex / facet
incidence, edge directions and fan witnesses.

Every check of a polytope reads one `PolytopeObjects` record (rotation poset,
vertices, facets, z table and vertex subset sums), built once per (m, n) cell
by `_polytope_objects` from the objects and maps of `families.family`, and
uncached beyond that cell.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from operator import add
from types import MappingProxyType

from .families import family
from .painted import PaintedTree
from .posets import FinitePoset
from .preposets import Preposet
from .shades import LightedShade
from .shadow import is_singleton


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
        return sum(point[i - 1] for i in self.support)

    def is_tight(self, point) -> bool:
        return self.value(point) == self.rhs


# -- vertex maps ---------------------------------------------------------------


def vertex_of_painted_tree(pt: PaintedTree) -> tuple[int, ...]:
    """Vertex of the multiplihedron for a binary painted tree."""
    if not pt.is_binary:
        raise ValueError("vertices come from binary painted trees")
    m, n = pt.m, pt.n
    coords = [0] * (m + n)
    binary_nodes = [node for node in pt.walk if len(node.counts) == 2]
    for i, part in enumerate(pt.parts):
        below = sum(
            1 for node in binary_nodes if i >= node.below + (node.tag is not None)
        )
        for p in part:
            coords[p - 1] = (i + 1) + below
    for node in binary_nodes:
        left, right = node.counts
        coords[m + node.labels[0] - 1] = node.below + left * right
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
    root_cut = pt.walk[0].tag
    a_set = set()
    for i, part in enumerate(pt.parts):
        if i != root_cut:
            a_set |= part
    blocks = [{m + x for x in node.labels} for node in pt.walk[1:] if node.labels]
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
    poly = _polytope_objects(kind, m, n)
    y_fn = family(kind).y
    y = {s: y_fn(s, m, n) for s in _subsets(m + n)}
    z = dict(poly.z)
    for s in z:
        total = sum(v for i, v in y.items() if i <= s)
        if total != z[s]:
            raise AssertionError(f"Moebius inversion fails at {sorted(s)}")
        if min(poly.sums[s]) != z[s]:
            raise AssertionError(f"support minimum differs from z at {sorted(s)}")
    return MinkowskiData(kind, m, n, y, z)


# -- certification -----------------------------------------------------------------


@dataclass(frozen=True)
class CertificationReport:
    """The outcome of one certificate; shared by every caller, so read-only."""

    kind: str
    m: int
    n: int
    num_vertices: int
    num_facets: int
    checks: Mapping[str, bool]
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class PolytopeObjects:
    """``vertices[i]`` is the point of ``rotation.elements[i]``, ``facets[i]``
    the halfspace of ``facet_objects[i]``; the read-only ``z`` and ``sums`` map
    each nonempty J to z_J and to the vertex sums over J, in vertex order."""

    rotation: FinitePoset
    vertices: tuple
    facet_objects: tuple
    facets: tuple
    z: Mapping
    sums: Mapping


@lru_cache(maxsize=2)
def _polytope_objects(kind, m, n) -> PolytopeObjects:
    """The `PolytopeObjects` record of one polytope, from the objects and
    maps of its `families.family` record.

    Memoised for the two polytopes of the current (m, n) cell only, so every
    check of a cell shares one record (and the objects' cached preposets)
    without keeping earlier cells alive; `fan_suite` clears it when done.
    """
    d = m + n
    fam = family(kind)
    objs = fam.vertices(m, n)
    verts = tuple(fam.vertex_of(o) for o in objs)
    facet_objs = tuple(fam.enum(m, n, rank=d - 2)) if d >= 2 else ()
    facets = tuple(fam.facet_of(o) for o in facet_objs)
    rot = FinitePoset.from_moves(objs, ((o, r) for o in objs for r in o.rotation_successors()))
    z = {s: fam.z(s, m, n) for s in _subsets(d)}
    # subsets come by size, so J minus its largest coordinate is already summed
    columns = tuple(zip(*verts))
    sums = {}
    for s in z:
        top = max(s)
        rest = s - {top}
        sums[s] = tuple(map(add, sums[rest], columns[top - 1])) if rest else columns[top - 1]
    z, sums = MappingProxyType(z), MappingProxyType(sums)
    return PolytopeObjects(rot, verts, facet_objs, facets, z, sums)


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
    simple = family(kind).simple
    poly = _polytope_objects(kind, m, n)
    rot, verts, facets, sums = poly.rotation, poly.vertices, poly.facets, poly.sums
    vert_objs = rot.elements
    facet_sums = [sums[f.support] for f in facets]
    checks = {}
    counterexample = None

    def fail(name, message):
        nonlocal counterexample
        checks[name] = False
        if counterexample is None:
            counterexample = f"{name}: {message}"

    checks["vertices_distinct"] = len(set(verts)) == len(verts)
    checks["facets_distinct"] = len(set(facets)) == len(facets)

    plane = comb(d + 1, 2)
    checks["vertices_on_hyperplane"] = True
    for v in verts:
        if sum(v) != plane:
            fail("vertices_on_hyperplane", f"{v} has coordinate sum {sum(v)}")

    checks["halfspaces_satisfied"] = True
    checks["incidence_iff_refinement"] = True
    for k, (vo, v) in enumerate(zip(vert_objs, verts)):
        for fo, f, values in zip(poly.facet_objects, facets, facet_sums):
            val = values[k]
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
    for lo, hi in rot.covers:
        lo_obj, hi_obj = vert_objs[lo], vert_objs[hi]
        delta = tuple(b - a for a, b in zip(verts[lo], verts[hi]))
        flips = inverted_pairs(lo_obj.preposet, hi_obj.preposet)
        back = inverted_pairs(hi_obj.preposet, lo_obj.preposet)
        if len(flips) != 1 or back:
            fail("edge_single_flip", f"{lo_obj.canonical()} -> {hi_obj.canonical()}")
            continue
        i, j = flips[0]
        lam = delta[i - 1]
        if lam <= 0 or _scaled_basis_diff(d, lam, i, j) != delta:
            fail(
                "edge_directions",
                f"{lo_obj.canonical()} -> {hi_obj.canonical()}: delta {delta}",
            )
        if simple and _shade_edge_delta(lo_obj, hi_obj) != delta:
            fail("edge_directions", f"shade case formula differs: {delta}")

    _fan_checks(kind, m, n, vert_objs, checks, fail)

    checks["z_support_minimum"] = True
    checks["z_supermodular"] = True
    subsets = list(poly.z)
    for s in subsets:
        if min(sums[s]) != poly.z[s]:
            fail("z_support_minimum", f"J={sorted(s)}")
    z = {**poly.z, frozenset(): 0}
    pair = next(
        ((s, t) for s in subsets for t in subsets if z[s] + z[t] > z[s | t] + z[s & t]), None
    )
    if pair:
        fail("z_supermodular", f"I={sorted(pair[0])}, J={sorted(pair[1])}")

    # with z supermodular, the polytope it defines has exactly the greedy
    # vertices; matching them against the claimed vertex set closes the loop
    checks["greedy_vertices_match"] = True
    greedy = {greedy_vertex(z, d, perm) for perm in permutations(range(1, d + 1))}
    if greedy != set(verts):
        fail("greedy_vertices_match", f"{len(greedy)} greedy vs {len(verts)} claimed")

    checks["facets_identified"] = True
    if d >= 2:
        claimed = {f.support for f in facets}
        for s in subsets:
            if len(s) == d:
                continue
            tight_pts = [v for v, total in zip(verts, sums[s]) if total == z[s]]
            is_facet = _affine_rank(tight_pts) == d - 2
            if is_facet != (s in claimed):
                fail(
                    "facets_identified",
                    f"J={sorted(s)}: facet={is_facet} claimed={s in claimed}",
                )

    if simple and d >= 2:
        checks["simple"] = True
        for k, vo in enumerate(vert_objs):
            tight = sum(1 for f, values in zip(facets, facet_sums) if values[k] == f.rhs)
            if tight != d - 1:
                fail("simple", f"{vo.canonical()} lies on {tight} facets")
    return CertificationReport(
        kind, m, n, len(verts), len(facets), MappingProxyType(checks), counterexample
    )


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
    """Dimension of the affine hull of exact integer points (-1 when empty).

    Fraction-free forward elimination on the integer difference rows: a row
    below the pivot becomes pv*row - f*pivot_row, which zeroes its pivot
    column exactly and keeps every entry an integer.
    """
    if not points:
        return -1
    base = points[0]
    rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        pv = prow[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [pv * a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


def _fan_checks(kind, m, n, vert_objs, checks, fail):
    d = m + n
    fam = family(kind)
    if fam.simple:
        all_shades = fam.enum(m, n)
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
        unary_pre = [ls.preposet for ls in vert_objs]
        checks["coarsening_witness"] = True
        for pt in _polytope_objects("multiplihedron", m, n).rotation.elements:
            hits = sum(1 for p in unary_pre if pt.preposet.contains(p))
            if hits != 1:
                fail("coarsening_witness", f"{pt.canonical()} lands in {hits} cones")
    else:
        # maximal painted cones need not be simplicial (the multiplihedron is
        # not simple), so only the braid coarsening witness is checked here
        binary_pre = [pt.preposet for pt in vert_objs]
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
    poly = _polytope_objects(kind, m, n)
    rot, verts = poly.rotation, poly.vertices
    vert_objs = rot.elements
    w = omega(m + n)
    for lo, hi in rot.covers:
        gain = dot(verts[hi], w) - dot(verts[lo], w)
        if gain == 0:
            raise AssertionError(f"omega tie on edge {vert_objs[lo]} -> {vert_objs[hi]}")
        if gain < 0:
            raise AssertionError(
                f"omega orientation disagrees with rotation {vert_objs[lo]} -> {vert_objs[hi]}"
            )
    return OrientedSkeleton(kind, m, n, list(vert_objs), list(verts), list(rot.covers))


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
    verts = _polytope_objects(kind, m, n).vertices
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
    mult = _polytope_objects("multiplihedron", m, n)
    hoch = _polytope_objects("hochschild", m, n)
    m_set, h_set = set(mult.facets), set(hoch.facets)
    subset = h_set <= m_set
    singletons = [
        k for k, vo in enumerate(mult.rotation.elements) if is_singleton(vo)
    ]
    singleton_verts = [mult.vertices[k] for k in singletons]
    common_pts = set(mult.vertices) & set(hoch.vertices)
    common_ok = common_pts == set(singleton_verts)
    shared_ok = True
    for f in mult.facets:
        shared = f in h_set
        values = mult.sums[f.support]
        tight_at_singleton = any(values[k] == f.rhs for k in singletons)
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
    # only the order is read, so redundant skeleton edges may stand as covers
    poset = FinitePoset(range(len(verts)), oriented)
    joinless = _first_missing(poset.join_table)
    meetless = _first_missing(poset.meet_table)
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


def _first_missing(table):
    """The first pair (a, b), a < b in row-major order, with no bound, or None."""
    for a, row in enumerate(table):
        for b in range(a + 1, len(row)):
            if row[b] < 0:
                return (a, b)
    return None
