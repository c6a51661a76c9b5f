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

The rest of the certificate reads whole columns instead of pairs, on three
arguments.  (1) Bulk predicates: per facet, one vertex mask holds the
vertices tight on it, read from the vertex sums, and one the vertices whose
packed preposet it contains, the complement of the OR of one vertex column
per relation the facet preposet lacks.  ``halfspaces_satisfied``,
``incidence_iff_refinement`` and ``simple`` are these masks and their
per-vertex counts; a cover's single flip is one pass over the relations
its two preposets differ in.  Each is the per-pair predicate evaluated at
once, not a weaker one.  (2) Local supermodularity: on the Boolean lattice,
z(I) + z(J) <= z(I | J) + z(I & J) for all I, J iff it holds on every
square, z(S + i) + z(S + j) <= z(S + i + j) + z(S) (Topkis, "Minimizing a
submodular function on a lattice", 1978; Fujishige 2005), so C(d, 2) 2^(d-2)
squares replace the 4^d pairs.  (3) The rank cap: when every vertex lies on
the hyperplane sum(x) = C(d + 1, 2), the tight points of a proper subset J
lie on sum over J = z_J too, two independent hyperplanes, so their affine
rank is at most d - 2, and elimination stops there without changing the
rank; the tight points come in a strided order (`_spread`), which reaches
the cap after far fewer points than the vertex order.  When a bulk
predicate fails, that check runs its per-pair scan, so every verdict,
message and first counterexample is the scan's.

The Hochschild face closure runs on one shade per orbit of the labels.
Its faces are the lighted shades, and their preposets must have forest
Hasse diagrams whose edge contractions are again face preposets
(Postnikov, Reiner and Williams, "Faces of generalized permutohedra",
2008).  S_m acts on the shades by renaming their labels 1..m, and on the
preposets on {1, ..., d} by renaming the elements 1..m.
`LightedShade.preposet` commutes with that action: a label's row is the
prefix mask at its light's position, and the labels enter the masks only
as a set.  A renaming is an isomorphism, so it maps Hasse diagrams to
Hasse diagrams and commutes with contraction: a shade passes iff every
shade of its orbit does.  `shades.canonical_shades` yields one shade per
orbit, the one lit by consecutive label intervals from the top, with its
orbit size m!/prod k_i!.  They are shades and S_m maps shades to shades,
so their orbits hold shades only.  An orbit holds one interval shade, so
representatives with distinct rows have disjoint orbits, and when the
orbit sizes sum to the cell's shade count (the light-distribution census,
`tables._shade_rank_histogram`, which builds no shade) the orbits are all
of the shades.  A shade's label rows strictly
grow down its positions, so `relabel_canonically`, which renumbers the
labels by row size, maps a shade's preposet to that of the interval shade
of its orbit, and a preposet whose canonical form is a representative's
rows is a relabeling of it.  So a contraction is a face iff its canonical
form is a representative's rows, and `_face_closure` checks the two
premises and runs the Hasse pass on the representatives alone, with one
relabeling per contraction and none with m <= 1, where every shade is its
own representative: the symmetry reduction of Bremner, Dutour Sikirić and
Schürmann ("Polyhedral representation conversion up to symmetries",
2009).  No list of the cell is built: Hochschild (7,1) has 545,835 faces
in 576 orbits.  When a premise or a representative fails, every face of
``fam.enum(m, n)`` is scanned, so every verdict and message is the scan's.

The vertex side runs on the same orbits.  Both polytopes are P(z) for a z
that reads the coordinates 1..m only through |J & [m]|, so a renaming
sigma of the labels, which permutes those coordinates, maps each polytope
onto itself; and S_m acts freely on the binary painted trees and the unary
shades, whose cuts or lights hold one label each.  `Family.labeling` reads
a vertex object as its label-free form and its labels, and the object of a
form labeled 1..m represents the m! objects of its orbit.  The vertex and
preposet maps read a label only through the cut or light it sits on, so
sigma takes the object of vertex v and cone P to one of vertex sigma(v) and
cone sigma(P); `_label_orbits` checks this on the record, with z
symmetric, before any of it is used (see there).  Then sigma maps the
principal down-sets of P onto those of sigma(P), the tight points of J onto
those of sigma(J), and z_J = z_sigma(J), so:

* the multiplihedron record runs the vertex map on labeling 0 of each shape
  and renames its coordinates for the other labelings, once the map
  commutes there with the adjacent transpositions
  (`vertices_of_painted_trees`);
* `_tight_partition` reads one vertex per orbit, its cone's linear
  extensions counted m! times: sum e(P) = d! over all the cones;
* `_binary_cones_fit` reads labeling 0 of each binary painted shape
  (`_binary_representatives`, which checks the painted preposet map at the
  adjacent transpositions too): sigma maps a chamber of a binary cone B to
  one of sigma(B), its greedy vertex to sigma of B's, and the shade cone
  there to sigma of B's, so B fits iff sigma(B) does;
* ``facets_identified`` eliminates once per orbit of subsets J, keyed by
  J minus the labels and |J & [m]|, and compares each J with the claimed
  facets.

This is the symmetry reduction of Bremner, Dutour Sikirić and Schürmann
again.  The edge checks stay per cover, since omega is not symmetric in
the labels.  When a premise fails, every vertex, binary painted tree and J
is read on its own, so each verdict and message is that route's.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, repeat
from math import comb, factorial, gcd, isqrt
from operator import add, and_, itemgetter, rshift
from types import MappingProxyType

from . import shades
from .families import family
from .ledger import Ledger
from .painted import PaintedTree, _painted_shapes, _painted_trees, _swap_table, ordered_partitions
from .posets import FinitePoset, rotation_poset
from .preposets import Preposet, _bits, cached_view, relabel_canonically
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
    """Vertex of the Hochschild polytope for a unary shade.

    Each position of a unary shade holds one label or one value.  A label
    takes the cuts at or below its position plus the values below it; a
    value s whose entry ends at element e = m + n - (values below) puts
    1 + s * (values below + cuts below) + C(s, 2) on e, and the other
    coordinates are 1.  One pass from the bottom position up carries both
    counts.
    """
    if not ls.is_unary:
        raise ValueError("vertices come from unary shades")
    d = ls.m + ls.n
    coords = [1] * d
    cuts = values = 0  # the cuts and the sum of the values below the position
    for vals, lights in reversed(ls.entries):
        if lights:
            cuts += 1
            for p in lights:
                coords[p - 1] = cuts + values
        else:
            (s,) = vals
            coords[d - values - 1] = 1 + s * (values + cuts) + comb(s, 2)
            values += s
    return tuple(coords)


def vertices_of_painted_trees(objs) -> tuple:
    """The multiplihedron vertex of each binary painted tree of ``objs``, in
    the layout `painted.rotation_covers` checks: each shape, then its m!
    labelings in `ordered_partitions(m, m)` order.

    `vertex_of_painted_tree` gives a label the coordinate of its cut, so
    labeling j's vertex is labeling 0's with the label coordinates renamed.
    The map runs on labeling 0 of each shape and on its m - 1 adjacent
    transpositions (`painted._swap_table`); when one of those is not
    labeling 0's vertex renamed, the map runs on every tree instead.
    """
    m = objs[0].m if objs else 0
    if m < 2:
        return tuple(map(vertex_of_painted_tree, objs))
    # labeling j gives label x the coordinate of the cut x lies on
    moves = [
        itemgetter(*sorted(range(m), key=[x for (x,) in parts].__getitem__))
        for parts in ordered_partitions(m, m)
    ]
    swaps = [pairs[0][1] for pairs in _swap_table(m)]  # labeling 0's pairs come first
    verts = []
    for base in range(0, len(objs), len(moves)):
        v = vertex_of_painted_tree(objs[base])
        tail = v[m:]
        if any(vertex_of_painted_tree(objs[base + j]) != moves[j](v) + tail for j in swaps):
            return tuple(map(vertex_of_painted_tree, objs))
        verts += (move(v) + tail for move in moves)
    return tuple(verts)


def vertices_of_lighted_shades(objs) -> tuple:
    """The Hochschild vertex of each unary shade of ``objs``."""
    return tuple(map(vertex_of_lighted_shade, objs))


def _transposed_rows(rows, i):
    """The rows of a relation with its elements i and i + 1 exchanged."""
    both = 3 << i - 1
    rows = rows[:i - 1] + (rows[i], rows[i - 1]) + rows[i + 1:]
    return tuple(row ^ both if (row >> i - 1 ^ row >> i) & 1 else row for row in rows)


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

    @cached_view
    def facet_objects(self) -> tuple:
        """The objects of rank m + n - 2, one per facet."""
        d = self.m + self.n
        return tuple(family(self.kind).enum(self.m, self.n, rank=d - 2)) if d >= 2 else ()

    @cached_view
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
    verts = fam.vertices_of(rot.elements)
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


def _single_flip(lo: Preposet, hi: Preposet):
    """The pair (i, j), i < j, strictly below in lo and strictly reversed in
    hi, when it is the only such pair and no pair i < j is strictly below in
    hi and strictly reversed in lo; None otherwise.

    A pair is inverted either way only when both of its relations differ,
    so one pass over the set bits of ``lo.packed ^ hi.packed`` above the
    diagonal finds every candidate: bit i * d + j with its mirror
    j * d + i also set, and lo holding exactly one of the two.
    """
    d, packed = lo.d, lo.packed
    diff = packed ^ hi.packed
    flip = None
    for bit in _bits(diff):
        i, j = divmod(bit, d)
        mirror = j * d + i
        if i < j and diff >> mirror & 1 and (packed >> bit ^ packed >> mirror) & 1:
            if flip or not packed >> bit & 1:
                return None
            flip = (i + 1, j + 1)
    return flip


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

    No check visits (vertex, facet) pairs or all 4^d pairs (I, J) while it
    passes (see the module docstring).  (a), (b) and simplicity read two
    vertex masks per facet and the per-vertex tight counts; (c) reads each
    cover's differing relations once; supermodularity is checked on the
    squares of the Boolean lattice; and once the vertices are on the
    hyperplane, each rank elimination stops at d - 2, which it cannot
    exceed.  A failing mask check reruns the per-pair scan, and a failing
    square the pair scan, so the first counterexample is the scan's.

    When the record meets `_label_orbits`' premises, the tight partition,
    the binary cone fit and the facet ranks read one vertex, binary painted
    tree or subset per orbit of the labels (see the module docstring).
    """
    d = m + n
    simple = family(kind).simple
    poly = _polytope_objects(kind, m, n)
    rot, verts, facets, sums = poly.rotation, poly.vertices, poly.facets, poly.sums
    vert_objs, facet_objs = rot.elements, poly.facet_objects
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
    # both checks read two vertex masks per facet, tight and inside its cone;
    # the simple check counts the tight facets of each vertex on the way
    inside = _inside_masks(vert_objs, facet_objs)
    bulk = True
    counts = [0] * len(verts)
    for f, values, cone in zip(facets, facet_sums, inside):
        digits = _compared(values, f.rhs)
        bulk = bulk and b"2" not in digits and _mask(digits) == cone
        if simple:
            counts = list(map(add, counts, digits.translate(_TIGHT)))
    if not bulk:
        _incidence_scan(ledger, vert_objs, verts, facet_objs, facets, facet_sums)

    ledger.record("edge_directions", True)
    ledger.record("edge_single_flip", True)
    for lo, hi in rot.covers:
        lo_obj, hi_obj = vert_objs[lo], vert_objs[hi]
        flip = _single_flip(lo_obj.preposet, hi_obj.preposet)
        if flip is None:
            ledger.record("edge_single_flip", False, f"{lo_obj.canonical()} -> {hi_obj.canonical()}")
            continue
        i, j = flip
        delta = tuple(b - a for a, b in zip(verts[lo], verts[hi]))
        lam = delta[i - 1]
        if lam <= 0 or _scaled_basis_diff(d, lam, i, j) != delta:
            detail = f"{lo_obj.canonical()} -> {hi_obj.canonical()}: delta {delta}"
            ledger.record("edge_directions", False, detail)
        if simple and _shade_edge_delta(lo_obj, hi_obj) != delta:
            ledger.record("edge_directions", False, f"shade case formula differs: {delta}")

    # the fan's tight route stands on the z checks, so they run first and
    # are recorded after the fan checks, in the ledger's order; z is
    # supermodular iff it is on every square, and only a failing square
    # looks for the first failing pair
    subsets = list(poly.z)
    z = {**poly.z, frozenset(): 0}
    gaps = [min(sums[s]) - z[s] for s in subsets]
    pair = None if _locally_supermodular(z, d) else next(
        ((s, t) for s in subsets for t in subsets if z[s] + z[t] > z[s | t] + z[s & t]), None
    )
    distinct = ledger.verdicts()["vertices_distinct"]
    premises = distinct and min(gaps) >= 0 and pair is None
    orbits = _label_orbits(poly) if distinct else None
    partitioned = _fan_checks(kind, m, n, vert_objs, ledger, premises, orbits)

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
        # on the hyperplane, the tight points of a proper J lie on a second,
        # independent hyperplane, so their rank is at most d - 2
        cap = d - 2 if ledger.verdicts()["vertices_on_hyperplane"] else None
        # the cap only stops the elimination early, so the order in which
        # the tight points come does not change a rank; a spread order
        # reaches the cap after far fewer points than the vertex order,
        # whose neighbours differ by local moves
        stride = isqrt(len(verts))
        # on label orbits, renaming the labels maps the tight points of J onto
        # those of the renamed J, so J's rank is its orbit's: J \ [m] and |J & [m]|
        labels = frozenset(range(1, m + 1))
        ranks = {}
        for s in subsets:
            if len(s) == d:
                continue
            key = (s - labels, len(s & labels)) if orbits else s
            is_facet = ranks.get(key)
            if is_facet is None:
                tight_pts = _spread(verts, _compared(sums[s], z[s]), stride)
                is_facet = ranks[key] = _affine_rank(tight_pts, cap) == d - 2
            if is_facet != (s in claimed):
                detail = f"J={sorted(s)}: facet={is_facet} claimed={s in claimed}"
                ledger.record("facets_identified", False, detail)

    if simple and d >= 2:
        ledger.record("simple", True)
        for vo, tight in zip(vert_objs, counts):
            if tight != d - 1:
                ledger.record("simple", False, f"{vo.canonical()} lies on {tight} facets")
    return CertificationReport(
        kind, m, n, len(verts), len(facets), ledger.verdicts(), ledger.first_failure()
    )


# a table per bit b that translates a byte to the digit b"1" when its bit b
# is set, else to b"0"; and one from the digits of `_compared` to tight flags
_BIT_DIGITS = [bytes(48 + (u >> b & 1) for u in range(256)) for b in range(8)]
_TIGHT = bytes.maketrans(b"012", b"\0\1\0")


def _mask(digits) -> int:
    """The int whose bit k is set iff ``digits[k]`` is b"1", for digits of
    b"0" and b"1": the digits read lowest first by one `int` call."""
    return int(digits[::-1] or b"0", 2)


def _compared(values, rhs) -> bytes:
    """One digit per value: b"1" when it equals rhs, b"2" when it is below
    rhs, b"0" when it is above.  When rhs and the values fit a byte, the
    values are translated in one call."""
    if 0 <= rhs < 256:
        try:
            return bytes(values).translate(b"2" * rhs + b"1" + b"0" * (255 - rhs))
        except ValueError:  # a value outside a byte
            pass
    return bytes(48 + (v == rhs) + 2 * (v < rhs) for v in values)


def _spread(items, digits, stride):
    """The items whose digit is b"1", at the positions o, o + stride,
    o + 2 * stride, ... for o = 0, 1, ..., stride - 1 in turn: each pass
    spans the whole list, so the first items come from all over it."""
    for o in range(stride):
        strided = digits[o::stride]
        k = strided.find(b"1")
        while k >= 0:
            yield items[o + k * stride]
            k = strided.find(b"1", k + 1)


def _bit_columns(values, width) -> list[int]:
    """For each b < width, the mask of the k with bit b of ``values[k]`` set:
    the values' bits transposed, eight bit positions per pass over them."""
    columns = []
    for low in range(0, width, 8):
        octets = bytes(map(and_, map(rshift, values, repeat(low)), repeat(255)))
        columns += (_mask(octets.translate(table)) for table in _BIT_DIGITS[: width - low])
    return columns


def _inside_masks(vert_objs, facet_objs) -> list[int]:
    """For each facet object, the mask of the vertices whose preposet it
    contains: bit k is ``facet_objs[f].preposet.contains(vert_objs[k].preposet)``.

    The facet preposet contains vertex k's unless k's packed preposet holds
    a relation that the facet's lacks.  So the mask is the complement of the
    OR of one vertex column per relation the facet lacks, each column the
    vertices that hold the relation.  Raises ValueError, as `contains` does,
    when two of the preposets compared have different ground sets.
    """
    cones = [o.preposet for o in vert_objs]
    faces = [o.preposet for o in facet_objs]
    if cones and faces and len({p.d for p in chain(cones, faces)}) > 1:
        raise ValueError("ground sets differ")
    packs = [p.packed for p in cones]
    width = max(packs, default=0).bit_length()
    columns = _bit_columns(packs, width)
    everyone = (1 << len(packs)) - 1
    masks = []
    for face in faces:
        outside = 0
        for relation in _bits(~face.packed & (1 << width) - 1):
            outside |= columns[relation]
        masks.append(everyone & ~outside)
    return masks


def _incidence_scan(ledger, vert_objs, verts, facet_objs, facets, facet_sums) -> None:
    """``halfspaces_satisfied`` and ``incidence_iff_refinement`` one
    (vertex, facet) pair at a time, recording each failure in that order."""
    for k, (vo, v) in enumerate(zip(vert_objs, verts)):
        for fo, f, values in zip(facet_objs, facets, facet_sums):
            val = values[k]
            if val < f.rhs:
                ledger.record("halfspaces_satisfied", False, f"{v} violates {f}")
            tight = val == f.rhs
            refines = fo.preposet.contains(vo.preposet)
            if tight != refines:
                detail = f"vertex {vo.canonical()} vs facet {fo.canonical()}: "
                detail += f"tight={tight} refines={refines}"
                ledger.record("incidence_iff_refinement", False, detail)


def _locally_supermodular(z, d) -> bool:
    """True when z(S + i) + z(S + j) <= z(S + i + j) + z(S) for every i < j
    and every S holding neither: C(d, 2) * 2^(d-2) squares.  On the Boolean
    lattice that is supermodularity, z(I) + z(J) <= z(I | J) + z(I & J) for
    all I, J (Topkis 1978; Fujishige 2005)."""
    at = {sum(1 << i - 1 for i in s): v for s, v in z.items()}
    return all(
        at[s | a] + at[s | b] <= at[s | a | b] + at[s]
        for a, b in combinations([1 << i for i in range(d)], 2)
        for s in range(1 << d)
        if not s & (a | b)
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


def _affine_rank(points, cap=None) -> int:
    """Dimension of the affine hull of exact integer points (-1 when there
    are none), or ``cap`` once the dimension reaches it.

    The points are read one at a time.  Each one's difference from the first
    is reduced against the echelon rows kept so far, fraction-free: the row
    becomes pv*row - f*pivot_row, which zeroes that pivot column exactly and
    keeps every entry an integer.  A row left nonzero is independent of the
    kept ones, and is kept, divided by the gcd of its entries.  So an
    iterator of points is read no further than the cap.
    """
    points = iter(points)
    base = next(points, None)
    if base is None:
        return -1
    echelon = []  # (pivot column, row), each row zero at the earlier pivots
    for p in points:
        if len(echelon) == cap:
            break
        row = [a - b for a, b in zip(p, base)]
        for col, prow in echelon:
            f = row[col]
            if f:
                pv = prow[col]
                row = [pv * a - f * b for a, b in zip(row, prow)]
        col = next((c for c, a in enumerate(row) if a), None)
        if col is not None:
            g = gcd(*row)
            echelon.append((col, [a // g for a in row]))
    return len(echelon)


def _tight_partition(poly: PolytopeObjects, cones, reps=None, size=1) -> bool:
    """True when ``cones[k]`` holds exactly the braid chambers whose greedy
    vertex is the record's vertex k, and the cones partition the chambers.

    Sound when the record's vertices are distinct and satisfy every z
    halfspace, and z is supermodular (see the module docstring).  Every
    principal down-set of ``cones[k]`` must be tight at vertex k, read from
    ``poly.sums``; each cone must hold a chamber, and all of them d!.
    With ``reps``, the indices of one vertex per label orbit of ``size``
    vertices (`_label_orbits`), only the representatives are read, each
    cone's chambers counted ``size`` times.
    """
    if len(cones) != len(poly.vertices):
        return False
    d = poly.m + poly.n
    # each subset J as a mask, with its vertex sums and z_J
    by_mask = {sum(1 << i - 1 for i in s): (poly.sums[s], z) for s, z in poly.z.items()}
    total = 0
    for k in range(len(cones)) if reps is None else reps:
        pre = cones[k]
        count = pre.linear_extension_count()
        # only a chain has a single linear extension
        downs = _chain_down_sets(pre.rows) if count == 1 else pre.down_rows
        if count < 1 or any(sums[k] != z for sums, z in map(by_mask.get, downs)):
            return False
        total += count
    return total * size == factorial(d)


def _chain_down_sets(rows) -> list[int]:
    """``Preposet.down_rows`` of a chain, read off its rows: in a total
    order the elements at or below x are all those not strictly above x."""
    everyone = (1 << len(rows)) - 1
    return [everyone & ~row | 1 << x for x, row in enumerate(rows)]


def _binary_cones_fit(poly: PolytopeObjects, cones, binary) -> bool:
    """True when every binary painted cone of ``binary`` (all of the cell's,
    or one per label orbit) lies in exactly one shade cone, given that the
    shade cones ``cones`` pass `_tight_partition`.

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


def _fan_checks(kind, m, n, vert_objs, ledger, premises, orbits=None) -> bool:
    """Face closure, simplicial cones and the coarsening witness of one fan.

    ``premises`` says that the record's vertices are distinct and satisfy
    every z halfspace, and that z is supermodular.  Then the witness runs on
    tight ideals (`_tight_partition` on the cones of ``vert_objs``, paired
    with the record's vertices, and `_binary_cones_fit`), and the result of
    `_tight_partition` is returned.  ``orbits``, the record's
    `_label_orbits` when ``vert_objs`` are its objects, puts both on one
    vertex and one binary painted tree per label orbit.  Otherwise, or when
    the route does not close, every pair is counted, so each failure and
    its message come from the pairwise count: each braid chamber against
    the cones, after each binary painted cone for the Hochschild fan.  The
    Hochschild face closure runs on a stream of label-orbit representatives
    (`_face_closure`).  Neither fan reads the other polytope's record.
    """
    d = m + n
    fam = family(kind)
    poly = _polytope_objects(kind, m, n)
    cones = [o.preposet for o in vert_objs]
    tight = premises and _tight_partition(poly, cones, *orbits or ())
    if fam.simple:
        _face_closure(m, n, ledger)
        fits = False
        if tight:
            binary = orbits and _binary_representatives(m, n)
            fits = _binary_cones_fit(poly, cones, binary or _painted_trees(m, n, binary=True))
        binaries = ((pt.canonical(), pt.preposet) for pt in _painted_trees(m, n, binary=True))
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


def _label_orbits(poly: PolytopeObjects):
    """(representatives, orbit size): the index of one vertex per orbit of
    S_m on the record and m!, or None when a premise of the orbit route
    fails (see the module docstring).  With m <= 1 every vertex is its own
    orbit.  The record's vertices must be distinct.

    The premises, each checked on the record: z is symmetric in the labels;
    each object is a labeling of the object of its label-free form whose
    labels read 1..m (`Family.labeling`), the representative, which comes
    first of them; its labels are a permutation, and its vertex is the
    representative's with label i's coordinate moved to its i-th label;
    the representatives number V / m!, so that the distinct vertices fill
    whole orbits; and at each representative the preposet map commutes with
    the m - 1 adjacent transpositions of the labels.
    """
    m, verts = poly.m, poly.vertices
    if m < 2:
        return range(len(verts)), 1
    z = {sum(1 << i - 1 for i in s): value for s, value in poly.z.items()}
    if any(
        z[s ^ 3 << i] != value
        for s, value in z.items()
        for i in range(m - 1)
        if (s >> i ^ s >> i + 1) & 1
    ):
        return None
    labeling = family(poly.kind).labeling
    objs = poly.rotation.elements
    order = list(range(1, m + 1))
    identity = tuple(order)
    swaps = {identity[:i - 1] + (i + 1, i) + identity[i + 1:]: i for i in range(1, m)}
    reps = {}  # label-free form -> the index of its representative
    swapped = []  # (representative, i, the index of its transposition of i and i + 1)
    for k, (o, v) in enumerate(zip(objs, verts)):
        form, labels = labeling(o)
        r = reps.get(form)
        if r is None:
            if labels != identity:
                return None
            reps[form] = k
            continue
        rep = verts[r]
        # label labels[i] holds label i + 1's coordinate of the representative
        if sorted(labels) != order or itemgetter(*labels)((0, *v)) != rep[:m] or v[m:] != rep[m:]:
            return None
        if labels in swaps:
            swapped.append((r, swaps[labels], k))
    if len(reps) * factorial(m) != len(objs):
        return None
    for r, i, k in swapped:
        if objs[k].preposet.rows != _transposed_rows(objs[r].preposet.rows, i):
            return None
    return list(reps.values()), factorial(m)


def _binary_representatives(m, n):
    """Labeling 0 of each binary painted shape (`painted._painted_shapes`):
    one binary painted tree per orbit of S_m, which acts freely on them.
    None when the preposet map does not commute with an adjacent
    transposition of the labels at one of them."""
    first = ordered_partitions(m, m)[0]
    reps = []
    for shape, _, _ in _painted_shapes(m, n, binary=True):
        pt = PaintedTree._new(m, n, shape, first)
        rows = pt.preposet.rows
        for i in range(1, m):
            parts = first[:i - 1] + (first[i], first[i - 1]) + first[i + 1:]
            if PaintedTree._new(m, n, shape, parts, pt).preposet.rows != _transposed_rows(rows, i):
                return None
        reps.append(pt)
    return reps


def _face_closure(m, n, ledger) -> None:
    """``cones_simplicial`` and ``fan_face_closure`` of the Hochschild fan of
    (m, n): every face preposet's Hasse diagram is a forest, and each
    contraction of one of its Hasse edges is the preposet of a face.

    Read off `shades.canonical_shades` alone (see the module docstring):
    when the representatives' rows are distinct and their orbit sizes sum
    to the cell's shade count, each representative runs the Hasse pass and
    each contraction is looked up by its `relabel_canonically` form.  When
    a premise or a representative fails, every face of ``fam.enum(m, n)``
    is checked, so each failure and its message come from that scan.
    """
    fam = family("hochschild")
    reps = list(shades.canonical_shades(m, n))
    faces = {o.preposet.rows for o, _ in reps}
    canonical = (lambda rows: relabel_canonically(rows, m)) if m >= 2 else (lambda rows: rows)
    ledger.record("cones_simplicial", True)
    ledger.record("fan_face_closure", True)
    if (
        len(faces) == len(reps)
        and sum(size for _, size in reps) == sum(fam.rank_histogram(m, n))
        and all(o.preposet.hasse_is_forest for o, _ in reps)
        and all(
            canonical(pre.contract_hasse_edge(e).rows) in faces
            for pre in (o.preposet for o, _ in reps)
            for e in range(pre.hasse_edge_count)
        )
    ):
        return
    objs = fam.enum(m, n)
    faces = {o.preposet.rows for o in objs}
    for o in objs:
        pre = o.preposet
        if not pre.hasse_is_forest:
            ledger.record("cones_simplicial", False, o.canonical())
        for e in range(pre.hasse_edge_count):
            if pre.contract_hasse_edge(e).rows not in faces:
                ledger.record("fan_face_closure", False, f"{o.canonical()} edge {e}")


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
