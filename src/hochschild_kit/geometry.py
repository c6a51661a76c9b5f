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

The fan's coarsening witnesses stand on tight sets.  For supermodular z, the
sets J tight at a point of the polytope (its coordinate sum over J is z_J)
are closed under union and intersection, and the greedy vertex of a
permutation sigma is the one point at which every prefix of sigma is tight
(Edmonds, "Submodular functions, matroids, and certain polyhedra", 1970;
Fujishige, "Submodular Functions and Optimization", 2nd ed., 2005).  The
prefixes of the linear extensions of a vertex preposet P are the down-sets of
P, and each is a union of principal ones.  So when every principal down-set
of P is tight at P's vertex, that vertex is the greedy vertex of every
linear extension of P: d lookups in the vertex sums (`_tight_partition`).
Distinct vertices then have disjoint cones, and if the cones hold
sum e(P) = d! linear extensions, each at least one, they partition the braid
chambers.  That proves the multiplihedron's coarsening witness and
``greedy_vertices_match`` for both polytopes.  A binary painted cone lies in
a shade cone only if one linear extension of it does, and that extension
lies in the cone of its greedy vertex alone: one `greedy_vertex` and one
`contains` call per binary tree (`_binary_cones_fit`).  When a premise or
the route fails, the witness counts every pair and the greedy vertices are
read off all d! permutations, so each failure and its message come from
those counts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations
from math import comb, factorial
from operator import add
from types import MappingProxyType

from .families import family
from .ledger import Ledger
from .painted import PaintedTree
from .posets import FinitePoset, rotation_poset
from .preposets import Preposet, _bits
from .shades import LightedShade
from .shadow import is_singleton


def omega(d: int) -> tuple[int, ...]:
    """The orientation vector (d, d-1, ..., 1) - (1, 2, ..., d)."""
    return tuple(d + 1 - 2 * i for i in range(1, d + 1))


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
    each nonempty J to z_J and to the vertex sums over J, in vertex order.
    The facets are built on first use: the fan checks read a record for its
    vertex sums and never for its facets."""

    kind: str
    m: int
    n: int
    rotation: FinitePoset
    vertices: tuple
    z: Mapping
    sums: Mapping

    @cached_property
    def facet_objects(self) -> tuple:
        """The objects of rank m + n - 2, one per facet."""
        d = self.m + self.n
        return tuple(family(self.kind).enum(self.m, self.n, rank=d - 2)) if d >= 2 else ()

    @cached_property
    def facets(self) -> tuple:
        """The halfspace of each facet object."""
        facet_of = family(self.kind).facet_of
        return tuple(facet_of(o) for o in self.facet_objects)


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
    rot = rotation_poset(kind, m, n)
    verts = tuple(fam.vertex_of(o) for o in rot.elements)
    z = {s: fam.z(s, m, n) for s in _subsets(d)}
    # subsets come by size, so J minus its largest coordinate is already summed
    columns = tuple(zip(*verts))
    sums = {}
    for s in z:
        top = max(s)
        rest = s - {top}
        sums[s] = tuple(map(add, sums[rest], columns[top - 1])) if rest else columns[top - 1]
    z, sums = MappingProxyType(z), MappingProxyType(sums)
    return PolytopeObjects(kind, m, n, rot, verts, z, sums)


def inverted_pairs(lo: Preposet, hi: Preposet):
    """Pairs (i, j), i < j, strictly below in lo and strictly reversed in hi.

    Bit j of ``lo.rows[i] & ~hi.rows[i]`` says i is below j in lo and not in
    hi; of those bits above i, keep the j below i in hi and not in lo.
    """
    out = []
    for i, (lo_row, hi_row) in enumerate(zip(lo.rows, hi.rows)):
        for j in _bits((lo_row & ~hi_row) >> i + 1 << i + 1):
            if hi.rows[j] >> i & 1 and not lo.rows[j] >> i & 1:
                out.append((i + 1, j + 1))
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
    witnesses, which place every braid chamber in exactly one maximal cone
    (and, for the Hochschild polytope, every binary painted cone in exactly
    one unary shade cone); plus z support minima, supermodularity, the
    greedy vertices, and simplicity for the Hochschild polytope.

    The witnesses and the greedy vertices stand on tight ideals (Edmonds
    1970; Fujishige 2005; see the module docstring): when the vertices are
    distinct and satisfy every z halfspace, and z is supermodular, every
    principal down-set of each vertex preposet tight at its vertex and
    sum e(P) = d! over the cones prove both.  The z checks run before the
    fan checks for that, and are recorded after them.  Otherwise the
    witnesses count every pair and the greedy vertices of all d!
    permutations are compared with the claimed ones.
    """
    d = m + n
    simple = family(kind).simple
    poly = _polytope_objects(kind, m, n)
    rot, verts, facets, sums = poly.rotation, poly.vertices, poly.facets, poly.sums
    vert_objs = rot.elements
    facet_sums = [sums[f.support] for f in facets]
    ledger = Ledger()
    for name, items in (("vertices", verts), ("facets", facets)):
        distinct = len(set(items))
        detail = f"{distinct} of {len(items)} {name} distinct"
        ledger.record(f"{name}_distinct", distinct == len(items), detail)

    plane = comb(d + 1, 2)
    ledger.record("vertices_on_hyperplane", True)
    for v in verts:
        if sum(v) != plane:
            ledger.record("vertices_on_hyperplane", False, f"{v} has coordinate sum {sum(v)}")

    ledger.record("halfspaces_satisfied", True)
    ledger.record("incidence_iff_refinement", True)
    for k, (vo, v) in enumerate(zip(vert_objs, verts)):
        for fo, f, values in zip(poly.facet_objects, facets, facet_sums):
            val = values[k]
            if val < f.rhs:
                ledger.record("halfspaces_satisfied", False, f"{v} violates {f}")
            tight = val == f.rhs
            refines = fo.preposet.contains(vo.preposet)
            if tight != refines:
                detail = f"vertex {vo.canonical()} vs facet {fo.canonical()}: "
                detail += f"tight={tight} refines={refines}"
                ledger.record("incidence_iff_refinement", False, detail)

    ledger.record("edge_directions", True)
    ledger.record("edge_single_flip", True)
    for lo, hi in rot.covers:
        lo_obj, hi_obj = vert_objs[lo], vert_objs[hi]
        delta = tuple(b - a for a, b in zip(verts[lo], verts[hi]))
        flips = inverted_pairs(lo_obj.preposet, hi_obj.preposet)
        back = inverted_pairs(hi_obj.preposet, lo_obj.preposet)
        if len(flips) != 1 or back:
            detail = f"{lo_obj.canonical()} -> {hi_obj.canonical()}"
            ledger.record("edge_single_flip", False, detail)
            continue
        i, j = flips[0]
        lam = delta[i - 1]
        if lam <= 0 or _scaled_basis_diff(d, lam, i, j) != delta:
            detail = f"{lo_obj.canonical()} -> {hi_obj.canonical()}: delta {delta}"
            ledger.record("edge_directions", False, detail)
        if simple and _shade_edge_delta(lo_obj, hi_obj) != delta:
            ledger.record("edge_directions", False, f"shade case formula differs: {delta}")

    # the fan's tight route stands on the z checks, so they run first and
    # are recorded after the fan checks, in the ledger's order
    subsets = list(poly.z)
    z = {**poly.z, frozenset(): 0}
    gaps = [min(sums[s]) - z[s] for s in subsets]
    pair = next(
        ((s, t) for s in subsets for t in subsets if z[s] + z[t] > z[s | t] + z[s & t]), None
    )
    premises = ledger.verdicts()["vertices_distinct"] and min(gaps) >= 0 and pair is None
    partitioned = _fan_checks(kind, m, n, vert_objs, ledger, premises)

    ledger.record("z_support_minimum", True)
    ledger.record("z_supermodular", True)
    for s, gap in zip(subsets, gaps):
        if gap:
            ledger.record("z_support_minimum", False, f"J={sorted(s)}")
    if pair:
        ledger.record("z_supermodular", False, f"I={sorted(pair[0])}, J={sorted(pair[1])}")

    # with z supermodular, the polytope it defines has exactly the greedy
    # vertices; the tight route has matched them with the claimed ones, and
    # without it every permutation's greedy vertex is read
    ledger.record("greedy_vertices_match", True)
    if not partitioned:
        greedy = {greedy_vertex(z, d, perm) for perm in permutations(range(1, d + 1))}
        if greedy != set(verts):
            detail = f"{len(greedy)} greedy vs {len(verts)} claimed"
            ledger.record("greedy_vertices_match", False, detail)

    ledger.record("facets_identified", True)
    if d >= 2:
        claimed = {f.support for f in facets}
        for s in subsets:
            if len(s) == d:
                continue
            tight_pts = [v for v, total in zip(verts, sums[s]) if total == z[s]]
            is_facet = _affine_rank(tight_pts) == d - 2
            if is_facet != (s in claimed):
                detail = f"J={sorted(s)}: facet={is_facet} claimed={s in claimed}"
                ledger.record("facets_identified", False, detail)

    if simple and d >= 2:
        ledger.record("simple", True)
        for k, vo in enumerate(vert_objs):
            tight = sum(1 for f, values in zip(facets, facet_sums) if values[k] == f.rhs)
            if tight != d - 1:
                ledger.record("simple", False, f"{vo.canonical()} lies on {tight} facets")
    return CertificationReport(
        kind, m, n, len(verts), len(facets), ledger.verdicts(), ledger.first_failure()
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


def _tight_partition(poly: PolytopeObjects, cones) -> bool:
    """True when ``cones[k]`` holds exactly the braid chambers whose greedy
    vertex is the record's vertex k, and the cones partition the chambers.

    Sound when the record's vertices are distinct and satisfy every z
    halfspace, and z is supermodular (see the module docstring).  Every
    principal down-set of ``cones[k]`` must be tight at vertex k, read from
    ``poly.sums``; each cone must hold a chamber, and all of them d!.
    """
    if len(cones) != len(poly.vertices):
        return False
    d = poly.m + poly.n
    # each subset J as a mask, with its vertex sums and z_J
    by_mask = {sum(1 << i - 1 for i in s): (poly.sums[s], z) for s, z in poly.z.items()}
    total = 0
    for k, pre in enumerate(cones):
        count = pre.linear_extension_count()
        if count < 1 or any(sums[k] != z for sums, z in map(by_mask.get, pre.down_rows)):
            return False
        total += count
    return total == factorial(d)


def _binary_cones_fit(poly: PolytopeObjects, cones, binary) -> bool:
    """True when every binary painted cone lies in exactly one shade cone,
    given that the shade cones ``cones`` pass `_tight_partition`.

    A binary cone P that holds a chamber (P is antisymmetric) lies in the
    shade cone Q only if that chamber does, and the chamber lies only in
    the cone of its greedy vertex.  Sorting 1..d by descending up-set size
    gives one chamber of P, so one `greedy_vertex` call finds Q and one
    `contains` call shows that P lies in it.
    """
    d = poly.m + poly.n
    cone_of = dict(zip(poly.vertices, cones))
    for pt in binary:
        pre = pt.preposet
        order = sorted(range(1, d + 1), key=lambda i: -pre.rows[i - 1].bit_count())
        if not (pre.is_antisymmetric and pre.contains(cone_of[greedy_vertex(poly.z, d, order)])):
            return False
    return True


def _fan_checks(kind, m, n, vert_objs, ledger, premises) -> bool:
    """Face closure, simplicial cones and the coarsening witness of one fan.

    ``premises`` says that the record's vertices are distinct and satisfy
    every z halfspace, and that z is supermodular.  Then the witness runs on
    tight ideals (`_tight_partition` on the cones of ``vert_objs``, paired
    with the record's vertices, and `_binary_cones_fit`), and the result of
    `_tight_partition` is returned.  Otherwise, or when that route does not
    close, every pair is counted, so each failure and its message come from
    the pairwise count: each braid chamber against the cones, after each
    binary painted cone for the Hochschild fan.
    """
    d = m + n
    fam = family(kind)
    poly = _polytope_objects(kind, m, n)
    cones = [o.preposet for o in vert_objs]
    tight = premises and _tight_partition(poly, cones)
    if fam.simple:
        all_shades = fam.enum(m, n)
        faces = {ls.preposet.rows for ls in all_shades}
        ledger.record("cones_simplicial", True)
        ledger.record("fan_face_closure", True)
        for ls in all_shades:
            pre = ls.preposet
            if not pre.hasse_is_forest:
                ledger.record("cones_simplicial", False, ls.canonical())
            for e in range(pre.hasse_edge_count):
                if pre.contract_hasse_edge(e).rows not in faces:
                    ledger.record("fan_face_closure", False, f"{ls.canonical()} edge {e}")
        binary = _polytope_objects("multiplihedron", m, n).rotation.elements
        fits = tight and _binary_cones_fit(poly, cones, binary)
        binaries = ((pt.canonical(), pt.preposet) for pt in binary)
        probes = () if fits else chain(binaries, _chamber_probes(d))
    else:
        # maximal painted cones need not be simplicial (the multiplihedron is
        # not simple), so only the braid coarsening witness is checked here
        probes = () if tight else _chamber_probes(d)
    ledger.record("coarsening_witness", True)
    for name, probe in probes:
        hits = sum(1 for p in cones if probe.contains(p))
        if hits != 1:
            ledger.record("coarsening_witness", False, f"{name} lands in {hits} cones")
    return tight


def _chamber_probes(d):
    """Each braid chamber, in `permutations` order, as its name and chain."""
    for p in permutations(range(1, d + 1)):
        yield f"chain {p}", Preposet.chain(d, p)


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
    """The polytope skeleton oriented by omega, read off the certificate.

    A passed certificate has checked `edge_directions`: every rotation cover
    lo -> hi moves the vertex by lam * (e_i - e_j) with lam > 0 and i < j.
    Since omega_i = d + 1 - 2i, omega gains lam * (omega_i - omega_j) =
    2 * lam * (j - i) > 0 along the cover, so the omega orientation of the
    edges is the rotation order and the oriented skeleton is the covers.
    """
    report = certify_polytope(kind, m, n)
    if not report.passed:
        raise AssertionError(f"certification failed: {report.counterexample}")
    poly = _polytope_objects(kind, m, n)
    rot = poly.rotation
    return OrientedSkeleton(kind, m, n, list(rot.elements), list(poly.vertices), list(rot.covers))


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
    shared_ok = all(
        (f in h_set) == any(mult.sums[f.support][k] == f.rhs for k in singletons)
        for f in mult.facets
    )
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
    z = {s: sum(v for i, v in y.items() if i <= s) for s in _subsets(d)}
    z[frozenset()] = 0
    # a chamber keeps the number of its vertex, in order of first appearance,
    # so one vertex tuple per vertex outlives the greedy pass
    first = {}
    chamber = {
        perm: first.setdefault(greedy_vertex(z, d, perm), len(first))
        for perm in permutations(range(1, d + 1))
    }
    verts = sorted(first)
    index = [0] * len(verts)  # number of first appearance -> sorted index
    for k, v in enumerate(verts):
        index[first[v]] = k
    # z is supermodular, so the normal fan coarsens the braid fan: the edges
    # are the walls between adjacent chambers (perm, and perm with its entries
    # a, b at positions i, i + 1 swapped) whose greedy vertices differ.  The
    # swap moves the vertex by delta * (e_a - e_b), where delta >= 0 is z's
    # supermodular gap at that wall, and omega by 2 * delta * (b - a).  So
    # every edge is found omega-increasing from the ascents a < b alone.
    edges = set()
    for perm, v in chamber.items():
        for i in range(d - 1):
            if perm[i] < perm[i + 1]:
                u = chamber[perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2:]]
                if u != v:
                    edges.add((index[v], index[u]))
    # only the order is read, so redundant skeleton edges may stand as covers
    poset = FinitePoset(range(len(verts)), edges)
    # the first pairs a < b, row-major, with no join and with no meet; the
    # elements are their own indices
    joinless, meetless = (
        next((p for p in combinations(range(poset.n), 2) if bound(*p) is None), None)
        for bound in (poset.join, poset.meet)
    )
    return FreehedronReport(
        n,
        len(verts),
        len(edges),
        joinless is None and meetless is None,
        joinless,
        meetless,
        verts,
        sorted(edges),
    )
