import dataclasses
import random
from collections import Counter
from types import MappingProxyType, SimpleNamespace
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

import hochschild_kit.geometry as geometry
import hochschild_kit.painted as painted
import hochschild_kit.posets as posets
import hochschild_kit.shades as shades
import hochschild_kit.tables as tables
from hochschild_kit.families import family
from hochschild_kit.geometry import (
    Halfspace,
    _affine_rank,
    _fan_checks,
    _subsets,
    barycenter,
    certify_polytope,
    facet_of_lighted_shade,
    facet_of_painted_tree,
    freehedron_minkowski,
    freehedron_report,
    greedy_vertex,
    minkowski_data,
    omega,
    oriented_skeleton,
    shared_facet_report,
    vertex_of_lighted_shade,
    vertex_of_painted_tree,
    y_hochschild,
    z_hochschild,
    z_multiplihedron,
    _polytope_objects,
)
from hochschild_kit.painted import PaintedTree, binary_painted_trees
from hochschild_kit.posets import FinitePoset, build_rotation_poset
from hochschild_kit.preposets import Preposet, cached_view, relabel_canonically
from hochschild_kit.shades import LightedShade, unary_lighted_shades
from hochschild_kit.verify import fan_suite

import oracles
from oracles import (
    FailureLog,
    chamber_cones,
    closed_preposet,
    cones_partition_chambers,
    first_missing,
    halfspace_values,
    inverted_pairs,
    label_hochschild_witness,
    le_inverted_pairs,
    left_comb,
    pairwise_fan_checks,
    per_pair_certificate,
    polytope_edges,
    subset_sums,
)


def S(m, n, *entries):
    return LightedShade(m, n, [(vals, set(lights)) for vals, lights in entries])


def test_vertex_loday_left_comb():
    pt = PaintedTree.from_cuts(0, 3, left_comb(3), [], [])
    assert vertex_of_painted_tree(pt) == (1, 2, 3)


def test_vertex_cut_above_left_comb():
    pt = PaintedTree.from_cuts(1, 3, (left_comb(3),), [{0}], [{1}])
    assert vertex_of_painted_tree(pt) == (4, 1, 2, 3)


def test_vertex_cut_below_left_comb():
    def dress(t):
        if t is None:
            return (None,)
        return tuple(dress(c) for c in t)

    tree = dress(left_comb(3))
    pt = PaintedTree.from_cuts(1, 3, tree, [], [])
    unary = [v for v, node in enumerate(pt.walk) if len(node.counts) == 1]
    pt = PaintedTree.from_cuts(1, 3, tree, [set(unary)], [{1}])
    pt.validate()
    assert vertex_of_painted_tree(pt) == (1, 2, 3, 4)


def test_vertex_shade_examples():
    assert vertex_of_lighted_shade(
        S(0, 3, ((1,), ()), ((1,), ()), ((1,), ()))
    ) == (3, 2, 1)
    assert vertex_of_lighted_shade(S(0, 3, ((3,), ()))) == (1, 1, 4)
    assert vertex_of_lighted_shade(
        S(1, 3, ((), (1,)), ((1,), ()), ((1,), ()), ((1,), ()))
    ) == (4, 3, 2, 1)


def test_hochschild_0_3_vertex_set():
    points = {vertex_of_lighted_shade(ls) for ls in unary_lighted_shades(0, 3)}
    assert points == {(3, 2, 1), (3, 1, 2), (1, 4, 1), (1, 1, 4)}


def test_vertices_lie_on_hyperplane():
    for m, n in [(1, 3), (2, 2), (3, 1)]:
        for pt in binary_painted_trees(m, n):
            assert sum(vertex_of_painted_tree(pt)) == comb(m + n + 1, 2)
        for ls in unary_lighted_shades(m, n):
            assert sum(vertex_of_lighted_shade(ls)) == comb(m + n + 1, 2)


def test_facet_shade_examples():
    f = facet_of_lighted_shade(S(0, 3, ((2, 1), ())))
    assert (sorted(f.support), f.rhs) == ([1], 1)
    f = facet_of_lighted_shade(S(0, 3, ((1,), ()), ((1, 1), ())))
    assert (sorted(f.support), f.rhs) == ([2, 3], 3)


def test_facet_count_relation_1_3():
    facets_m = _polytope_objects("multiplihedron", 1, 3).facets
    facets_h = _polytope_objects("hochschild", 1, 3).facets
    assert len(facets_m) == 13 and len(facets_h) == 8
    assert set(facets_h) <= set(facets_m)


def test_facet_rank_preconditions():
    with pytest.raises(ValueError):
        facet_of_lighted_shade(S(0, 3, ((3,), ())))
    with pytest.raises(ValueError):
        facet_of_painted_tree(PaintedTree.from_cuts(0, 3, left_comb(3), [], []))


def test_vertex_rank_preconditions():
    with pytest.raises(ValueError):
        vertex_of_lighted_shade(S(0, 3, ((2, 1), ())))


def test_z_permutahedron_specialization():
    for size in range(1, 5):
        subset = frozenset(range(1, size + 1))
        assert z_multiplihedron(subset, 4, 0) == comb(size + 1, 2)


def test_z_hochschild_examples():
    # J = {2,3} in (0,3): interval reaching the top coordinate
    assert z_hochschild(frozenset({2, 3}), 0, 3) == 3
    assert z_hochschild(frozenset({1, 3}), 0, 3) == 2
    assert z_hochschild(frozenset({1, 2}), 0, 3) == 2


def test_y_hochschild_final_intervals():
    m, n = 1, 3
    for j in range(1, n):
        subset = frozenset(range(m + j, m + n + 1))
        assert y_hochschild(subset, m, n) == n - j
    assert y_hochschild(frozenset({m + n}), m, n) == 1


def test_minkowski_data_validates():
    for kind in ("multiplihedron", "hochschild"):
        for m, n in [(1, 2), (2, 1), (1, 3), (0, 4), (2, 2)]:
            data = minkowski_data(kind, m, n)
            assert set(data.y) == set(data.z)


@pytest.mark.parametrize("kind", ["multiplihedron", "hochschild"])
@pytest.mark.parametrize("mn", [(0, 3), (1, 2), (1, 3), (2, 2), (2, 1), (1, 0)])
def test_certification_passes(kind, mn):
    rep = certify_polytope(kind, *mn)
    assert rep.passed, rep.counterexample


def test_certified_counts_1_3():
    m_rep = certify_polytope("multiplihedron", 1, 3)
    h_rep = certify_polytope("hochschild", 1, 3)
    assert (m_rep.num_vertices, m_rep.num_facets) == (21, 13)
    assert (h_rep.num_vertices, h_rep.num_facets) == (12, 8)


def test_hochschild_0_3_is_a_quadrilateral():
    rep = certify_polytope("hochschild", 0, 3)
    assert (rep.num_vertices, rep.num_facets) == (4, 4)


def test_multiplihedron_1_3_is_not_simple():
    # Euler: 21 vertices, 13 facets give 32 edges; a simple 3-polytope would
    # need 2E = 3V
    poset = build_rotation_poset("painted", 1, 3)
    assert len(poset.covers) == 32
    assert 2 * 32 != 3 * 21


def test_polytope_edges_match_rotation_covers():
    for kind, poset_kind, m, n in [
        ("multiplihedron", "painted", 1, 3),
        ("hochschild", "shade", 2, 2),
        ("hochschild", "shade", 1, 3),
        ("multiplihedron", "painted", 0, 4),
    ]:
        cell = _polytope_objects(kind, m, n)
        verts, facets = cell.vertices, cell.facets
        poset = build_rotation_poset(poset_kind, m, n)
        geometric = {frozenset((verts[a], verts[b])) for a, b in polytope_edges(verts, facets)}
        combinatorial = {
            frozenset((verts[a], verts[b])) for a, b in poset.covers
        }
        assert geometric == combinatorial


def test_oriented_skeleton_matches_rotations():
    sk = oriented_skeleton("hochschild", 1, 3)
    poset = build_rotation_poset("shade", 1, 3)
    assert sorted(sk.edges) == sorted(poset.covers)
    sk = oriented_skeleton("multiplihedron", 0, 3)
    assert len(sk.edges) == 5


def test_omega_convention():
    assert omega(4) == (3, 1, -1, -3)
    assert omega(1) == (0,)


def test_shared_facets_and_singletons():
    rep = shared_facet_report(1, 3)
    assert rep.facets_subset
    assert rep.shared_iff_singleton_tight
    assert rep.common_vertices_are_singletons
    assert rep.num_shared == 8 and rep.num_singletons == 7


def test_barycenters_differ():
    # tiny symmetric cases coincide; the generic ones separate
    for m, n in [(0, 4), (1, 3), (2, 2), (1, 4), (2, 3)]:
        assert barycenter("multiplihedron", m, n) != barycenter("hochschild", m, n)


def test_skew_cube_is_not_the_parallelotope():
    # the Hochschild (0,3) vertex set differs from e + sum of segments
    # [e_i, e_{i+1}] translated into the hyperplane
    hp = {vertex_of_lighted_shade(ls) for ls in unary_lighted_shades(0, 3)}
    base = (Fraction(4, 3),) * 3
    para = set()
    for eps1 in (0, 1):
        for eps2 in (0, 1):
            v = list(base)
            v[0 if eps1 == 0 else 1] += 1
            v[1 if eps2 == 0 else 2] += 1
            para.add(tuple(v))
    assert {tuple(map(Fraction, p)) for p in hp} != para


def test_freehedron_minkowski_coefficients():
    y = freehedron_minkowski(3)
    full = frozenset({1, 2, 3, 4})
    assert y[full] == 2
    assert y[frozenset({1, 2})] == 1 and y[frozenset({3, 4})] == 1
    assert frozenset({2, 3}) not in y


def test_freehedron_counterexample():
    rep = freehedron_report(3)
    assert rep.num_vertices == 12 and rep.num_edges == 18
    assert not rep.is_lattice
    assert rep.joinless_pair is not None and rep.meetless_pair is not None


def test_freehedron_pentagon_is_a_lattice():
    rep = freehedron_report(2)
    assert rep.num_vertices == 5 and rep.is_lattice


@dataclasses.dataclass(frozen=True)
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


def test_preposet_cones():
    for ls in unary_lighted_shades(1, 3):
        cone = PreposetCone(ls.preposet)
        assert cone.is_simplicial
        assert len(cone.inequalities()) == 3
        # the vertex of the opposite object is far from this cone; the cone
        # of a chain preposet contains the identity-sorted points
    chain_cone = PreposetCone(
        S(0, 3, ((1,), ()), ((1,), ()), ((1,), ())).preposet
    )
    assert chain_cone.contains((3, 2, 1))
    assert not chain_cone.contains((1, 2, 3))
    diamond = PaintedTree.from_cuts(
        1, 3,
        (((None,), (None,)), ((None,), (None,))),
        [{2, 3, 5, 6}],
        [{1}],
    )
    diamond.validate()
    assert not PreposetCone(diamond.preposet).is_simplicial


def test_greedy_vertex_on_permutahedron():
    z = {}
    from itertools import combinations

    for r in range(1, 4):
        for c in combinations(range(1, 4), r):
            z[frozenset(c)] = comb(len(c) + 1, 2)
    assert greedy_vertex(z, 3, (1, 2, 3)) == (1, 2, 3)
    assert greedy_vertex(z, 3, (3, 2, 1)) == (3, 2, 1)


def _affine_rank_oracle(points):
    """Gauss-Jordan elimination over Fraction, the reference for _affine_rank."""
    if not points:
        return -1
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
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


@pytest.mark.parametrize("kind", ["multiplihedron", "hochschild"])
def test_affine_rank_matches_fraction_oracle_on_tight_sets(kind):
    z_fn = z_multiplihedron if kind == "multiplihedron" else z_hochschild
    for d in range(1, 5):
        for m in range(d + 1):
            n = d - m
            verts = _polytope_objects(kind, m, n).vertices
            for s in _subsets(d):
                tight = [v for v in verts if sum(v[i - 1] for i in s) == z_fn(s, m, n)]
                rank = _affine_rank_oracle(tight)
                assert _affine_rank(tight) == rank, (m, n, s)
                # a proper J's tight points lie on two hyperplanes: the cap is never hit
                assert len(s) == d or rank <= d - 2
                for cap in range(d):
                    assert _affine_rank(iter(tight), cap) == min(rank, cap), (m, n, s, cap)


def test_affine_rank_matches_fraction_oracle_on_random_points():
    rng = random.Random(20261018)
    for _ in range(400):
        dim = rng.randint(1, 6)
        pool = [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        points = []
        for _ in range(rng.randint(0, 9)):
            a, b = rng.choice(pool), rng.choice(pool)
            shape = rng.randrange(3)
            if shape == 0:  # a fresh point
                points.append(tuple(rng.randint(-6, 6) for _ in range(dim)))
            elif shape == 1:  # a duplicate
                points.append(a)
            else:  # on the line through two pool points
                t = rng.randint(-3, 3)
                points.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
        rank = _affine_rank_oracle(points)
        assert _affine_rank(points) == rank, points
        for cap in range(dim + 1):
            assert _affine_rank(iter(points), cap) == min(rank, cap), (points, cap)


def test_certification_report_is_read_only():
    rep = certify_polytope("hochschild", 1, 2)
    with pytest.raises(TypeError):
        rep.checks["simple"] = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.counterexample = "edited"
    assert certify_polytope("hochschild", 1, 2).passed


def _frozen(value):
    """Whether nothing reachable from a value can be changed in place."""
    if isinstance(value, (tuple, frozenset)):
        return all(_frozen(v) for v in value)
    if isinstance(value, Preposet):
        return type(value.d) is int and _frozen(value.rows)
    return isinstance(value, int)


def test_cached_shade_views_are_read_only():
    # the shade is shared by every caller of the rotation poset cache, so
    # every view it caches, read before the vertex map and after, is frozen
    shade = build_rotation_poset("shade", 2, 1).elements[0]
    views = [name for name, attr in vars(LightedShade).items() if isinstance(attr, cached_view)]
    assert {"cut_positions", "mu", "flat_entries", "singletons", "preposet"} <= set(views)
    before = {name: getattr(shade, name) for name in views}
    assert all(_frozen(value) for value in before.values()), before
    with pytest.raises(TypeError):
        before["cut_positions"][0] = 1
    assert vertex_of_lighted_shade(shade) == (3, 2, 1)
    assert _frozen(shade.entries)
    assert {name: getattr(shade, name) for name in views} == before


def test_cell_builds_each_polytope_once(monkeypatch):
    calls = {"painted": 0, "shade": 0, "rotation": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(painted, "binary_painted_trees",
                        counted("painted", painted.binary_painted_trees))
    monkeypatch.setattr(shades, "unary_lighted_shades",
                        counted("shade", shades.unary_lighted_shades))
    # every rotation poset is built by posets.rotation_poset, which geometry
    # imports by name
    build = counted("rotation", posets.rotation_poset)
    monkeypatch.setattr(posets, "rotation_poset", build)
    monkeypatch.setattr(geometry, "rotation_poset", build)
    _polytope_objects.cache_clear()
    for kind in ("multiplihedron", "hochschild"):
        # the certificate itself, past its own cache, then every other check
        assert certify_polytope.__wrapped__(kind, 1, 3).passed
        minkowski_data(kind, 1, 3)
        oriented_skeleton(kind, 1, 3)
        barycenter(kind, 1, 3)
    shared_facet_report(1, 3)
    assert calls == {"painted": 1, "shade": 1, "rotation": 2}
    _polytope_objects.cache_clear()


def test_cell_rotation_edges_are_the_rotation_covers():
    for total in range(1, 5):
        for m in range(total + 1):
            n = total - m
            for kind, order in (("multiplihedron", "painted"), ("hochschild", "shade")):
                poset = build_rotation_poset(order, m, n)
                rot = _polytope_objects(kind, m, n).rotation
                assert rot is not poset
                assert (rot.elements, rot.covers) == (poset.elements, poset.covers)
    _polytope_objects.cache_clear()


def test_fan_suite_releases_polytope_objects():
    assert fan_suite(3).ok
    assert _polytope_objects.cache_info().currsize == 0


KINDS = ("multiplihedron", "hochschild")


def _per_pair(kind, m, n, poly):
    """The oracle certificate on the record's objects, not on its tables."""
    return per_pair_certificate(
        kind, m, n, poly.rotation, poly.vertices, poly.facet_objects, poly.facets
    )


@pytest.mark.parametrize("kind", KINDS)
def test_record_and_certificate_match_the_per_pair_route(kind):
    z_fn = z_multiplihedron if kind == "multiplihedron" else z_hochschild
    for d in range(1, 6):
        for m in range(d + 1):
            n = d - m
            poly = _polytope_objects(kind, m, n)
            assert dict(poly.z) == {s: z_fn(s, m, n) for s in _subsets(d)}
            assert dict(poly.sums) == subset_sums(poly.vertices, d)
            table = [
                [poly.sums[f.support][k] for f in poly.facets]
                for k in range(len(poly.vertices))
            ]
            assert table == halfspace_values(poly.vertices, poly.facets)
            report = certify_polytope(kind, m, n)
            assert report.passed, (m, n)
            assert (dict(report.checks), report.counterexample) == _per_pair(kind, m, n, poly)
    _polytope_objects.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", [(1, 2), (0, 3), (2, 2), (1, 3), (3, 1), (0, 4)])
@pytest.mark.parametrize("move", [((0, 1),), ((0, 1), (1, -1)), ((2, -1), (0, 1))])
def test_a_corrupted_vertex_fails_as_the_per_pair_route_fails(monkeypatch, kind, mn, move):
    # shift coordinates of one vertex; a balanced shift stays on the hyperplane
    m, n = mn
    name = "vertex_of_painted_tree" if kind == "multiplihedron" else "vertex_of_lighted_shade"
    true_vertex = getattr(geometry, name)
    _polytope_objects.cache_clear()
    objs = _polytope_objects(kind, m, n).rotation.elements
    target = objs[len(objs) // 2]

    def corrupted(obj):
        v = list(true_vertex(obj))
        if obj == target:
            for i, shift in move:
                v[i] += shift
        return tuple(v)

    monkeypatch.setattr(geometry, name, corrupted)
    caps = _rank_caps(monkeypatch)
    _polytope_objects.cache_clear()
    try:
        poly = _polytope_objects(kind, m, n)
        assert dict(poly.sums) == subset_sums(poly.vertices, m + n)
        report = certify_polytope.__wrapped__(kind, m, n)
        assert not report.passed
        assert (dict(report.checks), report.counterexample) == _per_pair(kind, m, n, poly)
        # a vertex off the hyperplane leaves every facet rank uncapped
        on_plane = sum(shift for _, shift in move) == 0
        assert set(caps) == {m + n - 2 if on_plane else None}
    finally:
        _polytope_objects.cache_clear()


def _rank_caps(monkeypatch):
    """The cap of every `_affine_rank` call the certificate makes from now on."""
    caps = []
    rank = geometry._affine_rank

    def spy(points, cap=None):
        caps.append(cap)
        return rank(points, cap)

    monkeypatch.setattr(geometry, "_affine_rank", spy)
    return caps


# -- each fast check on a corrupted fixture, against the per-pair oracle ------------

FIXTURE_CELLS = [(1, 2), (0, 3), (2, 2), (1, 3), (3, 1), (0, 4), (2, 3)]


def _failure_logs(monkeypatch):
    """Every ledger the certificate and the oracle build from now on, each
    a `FailureLog`, so that every failed record can be compared."""
    logs = []

    class Logged(FailureLog):
        def __init__(self):
            super().__init__()
            logs.append(self)

    monkeypatch.setattr(geometry, "Ledger", Logged)
    monkeypatch.setattr(oracles, "Ledger", Logged)
    return logs


def _both_on(monkeypatch, kind, m, n, stand_in):
    """The certificate and the oracle on a stand-in record of the cell, with
    every failed record of each."""
    every_record = geometry._polytope_objects
    monkeypatch.setattr(
        geometry,
        "_polytope_objects",
        lambda k, mm, nn: stand_in if (k, mm, nn) == (kind, m, n) else every_record(k, mm, nn),
    )
    logs = _failure_logs(monkeypatch)
    report = certify_polytope.__wrapped__(kind, m, n)
    assert (dict(report.checks), report.counterexample) == _per_pair(kind, m, n, stand_in)
    certificate, oracle = logs
    return report, certificate.failures, oracle.failures


def _replaced(real, **fields):
    """A copy of a record with some fields, or its cached facets, replaced."""
    cached = {key: fields.pop(key) for key in ("facet_objects", "facets") if key in fields}
    stand_in = dataclasses.replace(real, **fields)
    vars(stand_in).update({"facet_objects": real.facet_objects, "facets": real.facets, **cached})
    return stand_in


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", FIXTURE_CELLS)
def test_a_relation_added_to_a_facet_preposet_fails_the_incidence(monkeypatch, kind, mn):
    # i below j added for the first pair the facet preposet lacks, closed by
    # ORing row j into every row at or below i
    m, n = mn
    real = _polytope_objects(kind, m, n)
    for f in sorted({0, len(real.facets) // 2, len(real.facets) - 1}):
        fo = real.facet_objects[f]
        rows = fo.preposet.rows
        d = len(rows)
        i, j = next((i, j) for i in range(d) for j in range(d) if not rows[i] >> j & 1)
        extra = Preposet(d, tuple(row | rows[j] if row >> i & 1 else row for row in rows))
        stand = SimpleNamespace(preposet=extra, canonical=fo.canonical)
        objs = real.facet_objects[:f] + (stand,) + real.facet_objects[f + 1:]
        report, failures, oracle = _both_on(monkeypatch, kind, m, n, _replaced(real, facet_objects=objs))
        assert report.counterexample.startswith("incidence_iff_refinement: "), (mn, f)
        assert failures == oracle
    _polytope_objects.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", FIXTURE_CELLS)
def test_a_vertex_below_a_facet_on_the_hyperplane_fails_as_the_scan_fails(monkeypatch, kind, mn):
    # one unit moves from a coordinate in a tight facet's support to one
    # outside it: the vertex stays on the hyperplane, below that facet
    m, n = mn
    d = m + n
    name = "vertex_of_painted_tree" if kind == "multiplihedron" else "vertex_of_lighted_shade"
    true_vertex = getattr(geometry, name)
    real = _polytope_objects(kind, m, n)
    k = len(real.vertices) // 2
    target = real.rotation.elements[k]
    f = next(f for f in real.facets if real.sums[f.support][k] == f.rhs)
    i, j = min(f.support), min(set(range(1, d + 1)) - f.support)

    def corrupted(obj):
        v = list(true_vertex(obj))
        if obj == target:
            v[i - 1] -= 1
            v[j - 1] += 1
        return tuple(v)

    monkeypatch.setattr(geometry, name, corrupted)
    caps = _rank_caps(monkeypatch)
    _polytope_objects.cache_clear()
    try:
        report, failures, oracle = _both_on(monkeypatch, kind, m, n, _polytope_objects(kind, m, n))
        assert not report.checks["halfspaces_satisfied"] and report.checks["vertices_on_hyperplane"]
        assert failures == oracle
        assert set(caps) == {d - 2}
    finally:
        _polytope_objects.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", FIXTURE_CELLS)
def test_a_z_off_supermodular_reports_the_first_pair_of_the_scan(monkeypatch, kind, mn):
    # z raised on {1, d} by more than any vertex sum, through the family's
    # z, which the record and the oracle both read
    m, n = mn
    d = m + n
    name = "z_multiplihedron" if kind == "multiplihedron" else "z_hochschild"
    true_z = getattr(geometry, name)
    raised = frozenset({1, d})
    lift = comb(d + 1, 2) + 1
    monkeypatch.setattr(
        geometry, name, lambda s, m, n: true_z(s, m, n) + lift * (frozenset(s) == raised)
    )
    _polytope_objects.cache_clear()
    try:
        poly = _polytope_objects(kind, m, n)
        z = {**poly.z, frozenset(): 0}
        first = next(
            (s, t) for s in poly.z for t in poly.z if z[s] + z[t] > z[s | t] + z[s & t]
        )
        report, failures, oracle = _both_on(monkeypatch, kind, m, n, poly)
        assert not report.checks["z_supermodular"]
        detail = f"I={sorted(first[0])}, J={sorted(first[1])}"
        assert [f for f in failures if f[0] == "z_supermodular"] == [("z_supermodular", detail)]
        assert failures == oracle
    finally:
        _polytope_objects.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", FIXTURE_CELLS)
def test_a_facet_above_every_vertex_fails_as_the_scan_fails(monkeypatch, kind, mn):
    # a stand-in facet one above the largest vertex sum on its support, whose
    # preposet holds no relation: no vertex is tight on it or inside it, so
    # only the halfspace check can see it
    m, n = mn
    real = _polytope_objects(kind, m, n)
    f = len(real.facets) // 2
    support = real.facets[f].support
    above = Halfspace(support, max(real.sums[support]) + 1)
    empty = SimpleNamespace(
        preposet=Preposet(m + n, (0,) * (m + n)), canonical=real.facet_objects[f].canonical
    )
    stand_in = _replaced(
        real,
        facet_objects=real.facet_objects[:f] + (empty,) + real.facet_objects[f + 1:],
        facets=real.facets[:f] + (above,) + real.facets[f + 1:],
    )
    report, failures, oracle = _both_on(monkeypatch, kind, m, n, stand_in)
    assert report.counterexample == f"halfspaces_satisfied: {real.vertices[0]} violates {above}"
    assert report.checks["incidence_iff_refinement"]
    assert failures == oracle
    _polytope_objects.cache_clear()


def _two_step_covers(rot):
    """The first pair (lo, hi) two covers apart whose preposets differ in two
    inverted pairs, and none back: not a cover, so not a single flip."""
    up = {}
    for lo, hi in rot.covers:
        up.setdefault(lo, []).append(hi)
    pres = [o.preposet for o in rot.elements]
    return next(
        (lo, top)
        for lo, his in sorted(up.items())
        for hi in his
        for top in up.get(hi, [])
        if len(inverted_pairs(pres[lo], pres[top])) == 2 and not inverted_pairs(pres[top], pres[lo])
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", FIXTURE_CELLS)
@pytest.mark.parametrize("reverse", [False, True], ids=["two_flips", "reversed"])
def test_a_cover_off_a_single_flip_fails_as_the_scan_fails(monkeypatch, kind, mn, reverse):
    # a stand-in cover two rotations long, or a true cover turned round
    m, n = mn
    real = _polytope_objects(kind, m, n)
    rot = real.rotation
    lo, hi = rot.covers[len(rot.covers) // 2][::-1] if reverse else _two_step_covers(rot)
    covers = list(rot.covers) + [(lo, hi)]
    stand_in = _replaced(real, rotation=SimpleNamespace(elements=rot.elements, covers=covers))
    report, failures, oracle = _both_on(monkeypatch, kind, m, n, stand_in)
    objs = rot.elements
    detail = f"{objs[lo].canonical()} -> {objs[hi].canonical()}"
    assert report.counterexample == f"edge_single_flip: {detail}"
    assert failures == oracle
    _polytope_objects.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
def test_a_facet_preposet_on_another_ground_set_raises(monkeypatch, kind):
    real = _polytope_objects(kind, 1, 2)
    fo = real.facet_objects[0]
    wide = SimpleNamespace(preposet=Preposet(4, fo.preposet.rows + (8,)), canonical=fo.canonical)
    stand_in = _replaced(real, facet_objects=(wide,) + real.facet_objects[1:])
    monkeypatch.setattr(geometry, "_polytope_objects", lambda k, m, n: stand_in)
    with pytest.raises(ValueError, match="ground sets differ"):
        certify_polytope.__wrapped__(kind, 1, 2)
    with pytest.raises(ValueError, match="ground sets differ"):
        _per_pair(kind, 1, 2, stand_in)
    _polytope_objects.cache_clear()


def test_the_bulk_helpers_match_their_per_value_routes():
    rng = random.Random(20261020)
    for _ in range(200):
        values = [rng.randrange(1 << rng.randint(0, 20)) for _ in range(rng.randint(0, 40))]
        width = max(values, default=0).bit_length() + rng.randint(0, 9)
        columns = geometry._bit_columns(values, width)
        assert columns == [
            sum(1 << k for k, v in enumerate(values) if v >> b & 1) for b in range(width)
        ]
        rhs = rng.choice(values + [-3, 0, 255, 256, 300]) if values else 7
        digits = geometry._compared(values, rhs)
        assert digits == b"".join(b"1" if v == rhs else b"2" if v < rhs else b"0" for v in values)
        tight = sum(1 << k for k, v in enumerate(values) if v == rhs)
        assert geometry._mask(digits.replace(b"2", b"0")) == tight
    assert geometry._compared((-1, 5, 300), 5) == b"210"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)])
def test_a_passing_certificate_calls_contains_only_to_fit_the_binary_cones(monkeypatch, kind, mn):
    # the multiplihedron certificate makes no call; the Hochschild one makes
    # at most one per binary painted tree, all from _binary_cones_fit
    m, n = mn
    binary = _polytope_objects("multiplihedron", m, n).rotation.elements
    contains = _counting(monkeypatch, Preposet, "contains")
    fitting = []
    fit = geometry._binary_cones_fit

    def counted_fit(*args):
        before = len(contains)
        try:
            return fit(*args)
        finally:
            fitting.append(len(contains) - before)

    monkeypatch.setattr(geometry, "_binary_cones_fit", counted_fit)
    assert certify_polytope.__wrapped__(kind, m, n).passed
    if kind == "multiplihedron":
        assert contains == [] and fitting == []
    else:
        assert fitting == [len(contains)] and 0 < len(contains) <= len(binary)
    _polytope_objects.cache_clear()


def test_record_tables_are_read_only_and_minkowski_copies_z():
    poly = _polytope_objects("hochschild", 1, 2)
    key = frozenset({1})
    with pytest.raises(TypeError):
        poly.z[key] = 0
    with pytest.raises(TypeError):
        poly.sums[key] = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        poly.vertices = ()
    data = minkowski_data("hochschild", 1, 2)
    data.z[key] += 1
    assert poly.z[key] == data.z[key] - 1
    _polytope_objects.cache_clear()


# -- the fan certificate on corrupted fixtures ---------------------------------------


def _fan_failures(kind, m, n, vert_objs):
    """The fan checks on the given vertex objects: their flags and every failure.
    The true records meet the tight route's premises."""
    log = FailureLog()
    _fan_checks(kind, m, n, vert_objs, log, True)
    return dict(log.verdicts()), log.failures


# the chains (multiplihedron), or the binary painted trees and then the chains
# (hochschild), whose cone count goes wrong when the first vertex of (1, 2) is
# dropped or doubled
_WITNESS = {
    "multiplihedron": ["chain (1, 3, 2)"],
    "hochschild": ['{"m":1,"n":2,"tree":[[0,[0,0]]],"cuts":[[0]],"parts":[[1]]}', "chain (3, 2, 1)"],
}


def _not_antisymmetric(d):
    return SimpleNamespace(preposet=closed_preposet(d, [(1, 2), (2, 1)]))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "corrupt, hits",
    [
        (lambda objs: objs[1:], 0),
        (lambda objs: objs + objs[:1], 2),
        (lambda objs: [_not_antisymmetric(3)] + objs[1:], 0),
    ],
    ids=["dropped", "duplicated", "not_antisymmetric"],
)
def test_a_wrong_vertex_cone_set_fails_the_coarsening_witness(kind, corrupt, hits):
    objs = list(_polytope_objects(kind, 1, 2).rotation.elements)
    checks, failures = _fan_failures(kind, 1, 2, objs)
    assert all(checks.values()) and not failures
    checks, failures = _fan_failures(kind, 1, 2, corrupt(objs))
    assert failures == [("coarsening_witness", f"{name} lands in {hits} cones") for name in _WITNESS[kind]]
    assert [name for name, ok in checks.items() if not ok] == ["coarsening_witness"]


def test_missing_rank_one_shades_fail_the_face_closure(monkeypatch):
    objs = list(unary_lighted_shades(1, 2))
    every_shade = shades.enum_lighted_shades
    every_orbit = shades.canonical_shades
    monkeypatch.setattr(
        shades,
        "enum_lighted_shades",
        lambda m, n, rank=None: [ls for ls in every_shade(m, n, rank) if ls.rank != 1],
    )
    monkeypatch.setattr(
        shades,
        "canonical_shades",
        lambda m, n: [(ls, size) for ls, size in every_orbit(m, n) if ls.rank != 1],
    )
    checks, failures = _fan_failures("hochschild", 1, 2, objs)
    assert [name for name, ok in checks.items() if not ok] == ["fan_face_closure"]
    assert len(failures) == 10
    assert failures[0] == (
        "fan_face_closure",
        '{"m":1,"n":2,"entries":[{"tuple":[],"lights":[1]},'
        '{"tuple":[1],"lights":[]},{"tuple":[1],"lights":[]}]} edge 0',
    )


def test_a_diamond_cone_fails_simpliciality(monkeypatch):
    objs = list(unary_lighted_shades(1, 3))
    diamond = SimpleNamespace(
        preposet=closed_preposet(4, [(1, 2), (1, 3), (2, 4), (3, 4)]),
        canonical=lambda: "diamond",
    )
    assert not diamond.preposet.hasse_is_forest
    every_shade = shades.enum_lighted_shades
    every_orbit = shades.canonical_shades
    monkeypatch.setattr(
        shades, "enum_lighted_shades", lambda m, n, rank=None: every_shade(m, n, rank) + [diamond]
    )
    monkeypatch.setattr(
        shades, "canonical_shades", lambda m, n: [*every_orbit(m, n), (diamond, 1)]
    )
    checks, failures = _fan_failures("hochschild", 1, 3, objs)
    assert not checks["cones_simplicial"] and checks["coarsening_witness"]
    assert [f for f in failures if f[0] == "cones_simplicial"] == [("cones_simplicial", "diamond")]


# -- the face closure on label orbits -------------------------------------------------


def _closure_both(objs, m):
    """The face closure's flags and failures on the face list ``objs``, the
    orbit oracle's and the per-face scan's, which must be equal."""
    route, scan = FailureLog(), FailureLog()
    oracles.orbit_face_closure(objs, m, route)
    oracles.per_face_closure(objs, scan)
    assert (dict(route.verdicts()), route.failures) == (dict(scan.verdicts()), scan.failures)
    return dict(route.verdicts()), route.failures


def _stream_against_scan(m, n, objs):
    """The flags and failures of `geometry._face_closure` on (m, n), which
    must equal the per-face scan's over ``objs``, the faces that
    ``enum_lighted_shades(m, n)`` returns."""
    route, scan = FailureLog(), FailureLog()
    geometry._face_closure(m, n, route)
    oracles.per_face_closure(objs, scan)
    assert (dict(route.verdicts()), route.failures) == (dict(scan.verdicts()), scan.failures)
    return dict(route.verdicts()), route.failures


@pytest.mark.parametrize("m, n", [(m, d - m) for d in range(1, 7) for m in range(d + 1)])
def test_the_orbit_route_matches_the_per_face_scan(m, n):
    checks, failures = _stream_against_scan(m, n, shades.enum_lighted_shades(m, n))
    assert all(checks.values()) and not failures


@pytest.mark.parametrize("m, n", [(m, d - m) for d in range(2, 6) for m in range(2, d + 1)])
def test_the_representatives_are_one_face_per_label_orbit(m, n):
    objs = shades.enum_lighted_shades(m, n)
    faces = {o.preposet.rows for o in objs}
    reps = oracles.orbit_representatives(objs, m, faces)
    orbits = [oracles.label_orbit(o.preposet.rows, m) for o in reps]
    assert all(orbit <= faces for orbit in orbits)
    assert sum(map(len, orbits)) == len(faces) == len(set().union(*orbits))
    # the stream yields the same faces, with their orbit sizes
    stream = list(shades.canonical_shades(m, n))
    assert [o.preposet.rows for o in reps] == [o.preposet.rows for o, _ in stream]
    assert list(map(len, orbits)) == [size for _, size in stream]


def _is_canonical(o, m):
    return relabel_canonically(o.preposet.rows, m) == o.preposet.rows


def _rank_one_orbit_dropped(objs, m):
    # every relabeling of the first canonical rank-1 face
    rows = next(o.preposet.rows for o in objs if o.rank == 1 and _is_canonical(o, m))
    orbit = oracles.label_orbit(rows, m)
    assert len(orbit) > 1
    return [o for o in objs if o.preposet.rows not in orbit]


def _labeling_dropped(canonical):
    # one face of rank 1 or more (a vertex is no contraction) in an orbit of
    # two or more: a canonical one, or another
    def corrupt(objs, m):
        k = next(
            k for k, o in enumerate(objs)
            if o.rank and len(oracles.label_orbit(o.preposet.rows, m)) > 1
            and _is_canonical(o, m) == canonical
        )
        return objs[:k] + objs[k + 1:]
    return corrupt


def _non_shade_added(pairs, name):
    # one closed preposet on the cell's ground set that no shade has
    def corrupt(objs, m):
        d = objs[0].preposet.d
        pre = closed_preposet(d, pairs)
        assert pre.rows not in {o.preposet.rows for o in objs}
        return objs + [SimpleNamespace(preposet=pre, canonical=lambda: name)]
    return corrupt


# labels 1 and 2 one class on top of a diamond: at m = 2 this is canonical
# with weight 1, so adding it keeps both premises
_MERGED_DIAMOND = [(1, 2), (2, 1), (3, 1), (4, 1), (5, 3), (5, 4)]


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (4, 1)])
@pytest.mark.parametrize(
    "corrupt",
    [
        _labeling_dropped(canonical=False),
        _labeling_dropped(canonical=True),
        _rank_one_orbit_dropped,
        # not canonical: label 1's row is longer than label 2's
        _non_shade_added([(1, 2), (1, 3), (2, 4), (3, 4)], "diamond"),
        # canonical at m <= 3, with distinct label rows: a weight above 1
        _non_shade_added([(3, 1), (3, 2), (1, 4), (2, 4)], "diamond"),
        _non_shade_added(_MERGED_DIAMOND, "merged diamond"),
    ],
    ids=["labeling", "canonical_labeling", "rank_one_orbit", "diamond",
         "canonical_diamond", "merged_diamond"],
)
def test_a_corrupted_face_set_fails_as_the_per_face_scan_fails(m, n, corrupt):
    objs = list(shades.enum_lighted_shades(m, n))
    checks, failures = _closure_both(corrupt(objs, m), m)
    assert failures and not all(checks.values())


def _weights_balanced(objs, m):
    # a canonical face C of rank 1 or more dropped, with w(C) - 1 other faces
    # of a second orbit: the weights still sum to the face count, so only
    # the lookup of each face's canonical form sees that C's orbit is cut
    orbits = [(o, oracles.label_orbit(o.preposet.rows, m)) for o in objs if _is_canonical(o, m)]
    first, orbit = next((o, orbit) for o, orbit in orbits if o.rank and len(orbit) > 1)
    w = len(orbit)
    second = next(orbit for o, orbit in orbits if o is not first and len(orbit) >= w)
    gone = {first.preposet.rows, *sorted(second - {relabel_canonically(min(second), m)})[: w - 1]}
    return [o for o in objs if o.preposet.rows not in gone]


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (4, 1)])
def test_balanced_weights_do_not_hide_a_cut_orbit(m, n):
    bad = _weights_balanced(list(shades.enum_lighted_shades(m, n)), m)
    faces = {o.preposet.rows for o in bad}
    canonical = [o.preposet.rows for o in bad if _is_canonical(o, m)]
    assert sum(len(oracles.label_orbit(rows, m)) for rows in canonical) == len(faces)
    assert oracles.orbit_representatives(bad, m, faces) is None
    checks, failures = _closure_both(bad, m)
    assert failures and not all(checks.values())


def test_a_face_set_closed_under_labels_fails_on_its_representative():
    # the merged diamond keeps both premises, so only the Hasse pass on the
    # representatives finds it, and the scan then reports it
    corrupt = _non_shade_added(_MERGED_DIAMOND, "merged diamond")
    bad = corrupt(list(shades.enum_lighted_shades(2, 3)), 2)
    faces = {o.preposet.rows for o in bad}
    reps = oracles.orbit_representatives(bad, 2, faces)
    assert reps is not None and reps[-1] is bad[-1]
    assert not oracles.closes(bad[-1].preposet, faces)
    checks, failures = _closure_both(bad, 2)
    assert ("cones_simplicial", "merged diamond") in failures


def _corrupted_cell(monkeypatch, stream, objs, extra):
    """Make ``stream`` the orbit stream of every cell, ``objs`` its face list
    and its shade count ``extra`` higher than the census."""
    census = tables._shade_rank_histogram
    monkeypatch.setattr(shades, "canonical_shades", lambda *mn: iter(stream))
    monkeypatch.setattr(shades, "enum_lighted_shades", lambda *mn, rank=None: objs)
    monkeypatch.setattr(tables, "_shade_rank_histogram", lambda *mn: (*census(*mn), extra))


def _orbit_dropped(m, n, stream, objs):
    # the first rank-1 representative leaves the stream and its orbit the
    # face list, and the census still counts it
    k = next(k for k, (o, _) in enumerate(stream) if o.rank == 1)
    orbit = oracles.label_orbit(stream[k][0].preposet.rows, m)
    return stream[:k] + stream[k + 1:], [o for o in objs if o.preposet.rows not in orbit], 0


def _diamond(m, n, objs):
    # a closed preposet on the cell's ground set that no shade has
    diamond = SimpleNamespace(
        preposet=closed_preposet(m + n, [(1, 2), (1, 3), (2, 4), (3, 4)]),
        canonical=lambda: "diamond",
    )
    assert diamond.preposet.rows not in {o.preposet.rows for o in objs}
    return diamond


def _diamond_added(m, n, stream, objs):
    # the diamond as its own representative, and counted: both premises
    # hold, and the Hasse pass fails on it
    diamond = _diamond(m, n, objs)
    return stream + [(diamond, 1)], objs + [diamond], 1


def _diamond_unstreamed(m, n, stream, objs):
    # the diamond a face and counted, but not in the stream: only the
    # count premise sees it
    return stream, objs + [_diamond(m, n, objs)], 1


def _representative_doubled(m, n, stream, objs):
    # the diamond a face and counted, and a representative of orbit size 1
    # streamed twice in its place: the sizes still sum to the count, so
    # only the distinct-rows premise sees it
    single = next(rep for rep in stream if rep[1] == 1)
    return stream + [single], objs + [_diamond(m, n, objs)], 1


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 2), (4, 1)])
@pytest.mark.parametrize(
    "corrupt",
    [_orbit_dropped, _diamond_added, _diamond_unstreamed, _representative_doubled],
    ids=["orbit_dropped", "diamond", "diamond_unstreamed", "representative_doubled"],
)
def test_a_corrupted_stream_fails_as_the_per_face_scan_fails(monkeypatch, m, n, corrupt):
    stream, objs, extra = corrupt(
        m, n, list(shades.canonical_shades(m, n)), shades.enum_lighted_shades(m, n)
    )
    _corrupted_cell(monkeypatch, stream, objs, extra)
    checks, failures = _stream_against_scan(m, n, objs)
    assert failures and not all(checks.values())
    if corrupt is not _orbit_dropped:
        assert ("cones_simplicial", "diamond") in failures


@pytest.mark.parametrize(
    "mn, passes", [((5, 0), 16), ((4, 1), 48), ((3, 2), 96), ((1, 4), 135), ((0, 5), 81)]
)
def test_a_passing_certificate_runs_the_hasse_pass_once_per_representative(monkeypatch, mn, passes):
    # one Hasse pass per representative, one relabeling per contraction
    # (none with m <= 1, where every face is its own representative), and no
    # list of the whole cell
    forest = Preposet.hasse_is_forest
    hasse = []
    monkeypatch.setattr(
        Preposet, "hasse_is_forest", property(lambda pre: hasse.append(1) or forest.func(pre))
    )
    contractions = _counting(monkeypatch, Preposet, "contract_hasse_edge")
    relabels = _counting(monkeypatch, geometry, "relabel_canonically")
    every_shade = shades.enum_lighted_shades
    ranks = []
    monkeypatch.setattr(
        shades, "enum_lighted_shades",
        lambda m, n, rank=None: ranks.append(rank) or every_shade(m, n, rank),
    )
    _polytope_objects.cache_clear()
    try:
        assert certify_polytope.__wrapped__("hochschild", *mn).passed
    finally:
        _polytope_objects.cache_clear()
    assert len(hasse) == passes == sum(1 for _ in shades.canonical_shades(*mn))
    assert len(contractions) > 0
    assert len(relabels) == (len(contractions) if mn[0] >= 2 else 0)
    assert ranks and None not in ranks


# -- the tight partition's down-sets and the facets' tight points ----------------------


@pytest.mark.parametrize("d", range(1, 6))
def test_chain_down_sets_are_the_down_rows(d):
    for order in permutations(range(1, d + 1)):
        pre = Preposet.chain(d, order)
        assert geometry._chain_down_sets(pre.rows) == list(pre.down_rows), order


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", [(4, 0), (3, 1), (2, 2), (0, 4)])
def test_the_tight_partition_reads_down_rows_only_off_non_chains(monkeypatch, kind, mn):
    built = []
    down_rows = Preposet.down_rows.func

    def spy(self):
        built.append(self)
        return down_rows(self)

    monkeypatch.setattr(Preposet, "down_rows", property(spy))
    poly = _polytope_objects(kind, *mn)
    cones = [o.preposet for o in poly.rotation.elements]
    try:
        assert geometry._tight_partition(poly, cones)
    finally:
        _polytope_objects.cache_clear()
    # a non-chain's extension count reads its down-sets too; no chain's are built
    built_ids = {id(p) for p in built}
    chains = [p for p in cones if len(set(p.rows)) == p.d == len({r.bit_count() for r in p.rows})]
    assert built_ids == {id(p) for p in cones} - {id(p) for p in chains}


@pytest.mark.parametrize("stride", range(1, 12))
def test_spread_reads_each_marked_item_once(stride):
    rng = random.Random(stride)
    items = [f"item {k}" for k in range(10)]
    digits = bytes(rng.choice(b"012") for _ in items)
    spread = list(geometry._spread(items, digits, stride))
    marked = [item for item, digit in zip(items, digits) if digit == ord("1")]
    assert sorted(spread) == sorted(marked) and len(spread) == len(marked)
    # the first pass reads positions 0, stride, 2 * stride, ...
    first = [item for item in marked if int(item.split()[1]) % stride == 0]
    assert spread[: len(first)] == first


# -- the coarsening witnesses on tight ideals ------------------------------------------

WITNESS_CELLS = [(m, d - m) for d in range(2, 5) for m in range(d + 1)] + [(2, 3), (1, 4)]


def _stand_in(objs, k, pre):
    return objs[:k] + [SimpleNamespace(preposet=pre)] + objs[k + 1:]


def _dropped(objs, k):
    return objs[:k] + objs[k + 1:]


def _duplicated(objs, k):
    return objs + [objs[k]]


def _merged(objs, k):
    # the vertex preposet with its first Hasse cover contracted: not antisymmetric
    return _stand_in(objs, k, objs[k].preposet.contract_hasse_edge(0))


def _swapped(objs, k):
    # the preposets of vertices k and k + 1 trade places: the same cone multiset
    j = (k + 1) % len(objs)
    out = list(objs)
    out[k], out[j] = objs[j], objs[k]
    return out


def _extra_relation(objs, k):
    # i below j added for the first incomparable pair of vertex k's preposet,
    # closed by ORing row j into every row at or below i; None for a chain
    rows = objs[k].preposet.rows
    d = len(rows)
    pair = next(
        ((i, j) for i in range(d) for j in range(d) if not (rows[i] >> j | rows[j] >> i) & 1),
        None,
    )
    if pair is None:
        return None
    i, j = pair
    extra = tuple(row | rows[j] if row >> i & 1 else row for row in rows)
    return _stand_in(objs, k, Preposet(d, extra))


def _dropped_cover(objs, k):
    # the first Hasse cover a < b of vertex k's preposet removed; no relation
    # passes through a cover, so the rows stay closed
    pre = objs[k].preposet
    a, b = pre._covers[0]
    rows = pre.rows[:a] + (pre.rows[a] & ~(1 << b),) + pre.rows[a + 1:]
    return _stand_in(objs, k, Preposet(pre.d, rows))


def _tight_route(kind, m, n, objs):
    """The tight route alone, on the record's vertices and the objects' cones."""
    poly = _polytope_objects(kind, m, n)
    cones = [o.preposet for o in objs]
    if not geometry._tight_partition(poly, cones):
        return False
    binary = _polytope_objects("multiplihedron", m, n).rotation.elements
    return kind == "multiplihedron" or geometry._binary_cones_fit(poly, cones, binary)


def _labels_close(kind, m, n, objs):
    """The chamber-label oracle alone, on the chamber labels of the true records."""
    poly = _polytope_objects(kind, m, n)
    cones = [o.preposet for o in objs]
    if kind == "multiplihedron":
        return cones_partition_chambers(m + n, cones, chamber_cones(poly))
    mult = _polytope_objects("multiplihedron", m, n)
    return label_hochschild_witness(
        m + n, mult.rotation.elements, cones, chamber_cones(poly), chamber_cones(mult)
    )


@pytest.mark.parametrize("kind", KINDS)
def test_the_tight_route_and_the_chamber_labels_agree_through_six(kind):
    # both close at every cell, and the chambers labeled with a vertex's cone
    # are as many as that cone's linear extensions
    for d in range(1, 7):
        for m in range(d + 1):
            poly = _polytope_objects(kind, m, d - m)
            objs = list(poly.rotation.elements)
            assert _tight_route(kind, m, d - m, objs), (m, d - m)
            assert _labels_close(kind, m, d - m, objs), (m, d - m)
            extensions = {o.preposet: o.preposet.linear_extension_count() for o in objs}
            assert Counter(chamber_cones(poly)) == extensions, (m, d - m)
    _polytope_objects.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "corrupt",
    [None, _dropped, _duplicated, _merged, _swapped, _extra_relation, _dropped_cover],
)
def test_label_witness_agrees_with_the_pairwise_route(kind, corrupt):
    for m, n in WITNESS_CELLS:
        poly = _polytope_objects(kind, m, n)
        objs = list(poly.rotation.elements)
        positions = [None] if corrupt is None else sorted({0, len(objs) // 2, len(objs) - 1})
        for k in positions:
            vert_objs = objs if corrupt is None else corrupt(objs, k)
            if vert_objs is None:
                continue
            log, oracle = FailureLog(), FailureLog()
            _fan_checks(kind, m, n, vert_objs, log, True)
            pairwise_fan_checks(kind, m, n, vert_objs, oracle)
            assert dict(log.verdicts()) == dict(oracle.verdicts()), (m, n, k)
            assert log.failures == oracle.failures, (m, n, k)
            assert log.first_failure() == oracle.first_failure()
            assert _tight_route(kind, m, n, vert_objs) == (corrupt is None), (m, n, k)
            witness = oracle.verdicts()["coarsening_witness"]
            assert witness == (corrupt in (None, _swapped)), (m, n, k)
            assert _labels_close(kind, m, n, vert_objs) == witness, (m, n, k)
    _polytope_objects.cache_clear()


def test_a_binary_cone_with_no_chamber_does_not_pass_the_labels():
    # one binary tree's preposet made the full relation: it contains every shade
    # cone but has no linear extension, and its chambers are relabeled to match
    m, n = 1, 3
    hoch = _polytope_objects("hochschild", m, n)
    mult = _polytope_objects("multiplihedron", m, n)
    full = Preposet(m + n, ((1 << m + n) - 1,) * (m + n))
    target = mult.rotation.elements[0].preposet
    binary = [SimpleNamespace(preposet=full)] + list(mult.rotation.elements[1:])
    painted = [full if p == target else p for p in chamber_cones(mult)]
    cones = [o.preposet for o in hoch.rotation.elements]
    assert all(full.contains(c) for c in cones)
    assert not label_hochschild_witness(m + n, binary, cones, chamber_cones(hoch), painted)
    # nor the tight route, which takes a chamber of the binary cone
    assert geometry._tight_partition(hoch, cones)
    assert geometry._binary_cones_fit(hoch, cones, mult.rotation.elements)
    assert not geometry._binary_cones_fit(hoch, cones, binary)
    _polytope_objects.cache_clear()


def test_labels_that_do_not_close_fall_back_to_the_pairwise_count(monkeypatch):
    m, n = 1, 3
    hoch = _polytope_objects("hochschild", m, n)
    mult = _polytope_objects("multiplihedron", m, n)
    cones = [o.preposet for o in hoch.rotation.elements]
    shade, painted = chamber_cones(hoch), chamber_cones(mult)
    assert label_hochschild_witness(m + n, mult.rotation.elements, cones, shade, painted)
    # chamber k, after every chamber of j's binary cone, takes j's painted
    # label, so that cone is proposed k's shade cone, which does not hold it
    k, j = next(
        (k, j)
        for k in range(len(painted))
        if painted.count(painted[k]) > 1
        for j in range(k)
        if shade[j] != shade[k] and painted[j] not in painted[k:]
    )
    mixed = painted[:k] + [painted[j]] + painted[k + 1:]
    assert not label_hochschild_witness(m + n, mult.rotation.elements, cones, shade, mixed)
    # shade labels rotated by one chamber do not close either
    rotated = shade[1:] + shade[:1]
    assert not cones_partition_chambers(m + n, cones, rotated)
    # without the premises the tight route is not taken, and the pairwise
    # count finds the fan unchanged
    log = FailureLog()
    assert not _fan_checks("hochschild", m, n, hoch.rotation.elements, log, False)
    assert all(log.verdicts().values()) and not log.failures
    # a route that does not close leaves both certificates to the counts
    monkeypatch.setattr(geometry, "_tight_partition", lambda *args: False)
    for kind in KINDS:
        report = certify_polytope.__wrapped__(kind, m, n)
        assert report == certify_polytope(kind, m, n) and report.passed
    _polytope_objects.cache_clear()


def _counting(monkeypatch, module, name):
    calls = []
    wrapped = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", [(1, 3), (2, 2), (3, 2)])
def test_the_witnesses_make_at_most_d_factorial_plus_v_contains_calls(monkeypatch, kind, mn):
    # V is the binary painted trees, the vertices of the multiplihedron: each
    # falls into one shade cone, found from its greedy vertex; the chambers
    # take no call at all.  The pairwise count probes every chamber, after
    # every binary painted cone for the Hochschild fan
    m, n = mn
    poly = _polytope_objects(kind, m, n)
    binary = _polytope_objects("multiplihedron", m, n).rotation.elements
    allowed = 0 if kind == "multiplihedron" else len(binary)
    contains = _counting(monkeypatch, Preposet, "contains")
    log = FailureLog()
    assert _fan_checks(kind, m, n, poly.rotation.elements, log, True)
    assert all(log.verdicts().values()) and not log.failures
    assert len(contains) <= allowed
    contains.clear()
    pairwise_fan_checks(kind, m, n, poly.rotation.elements, FailureLog())
    pairwise = (factorial(m + n) + allowed) * len(poly.vertices)
    assert len(contains) == pairwise
    greedy = _counting(monkeypatch, geometry, "greedy_vertex")
    assert certify_polytope.__wrapped__(kind, m, n).passed
    assert len(greedy) <= allowed
    _polytope_objects.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
def test_a_passing_certificate_loops_over_no_permutation(monkeypatch, kind):
    def refused(*args):
        raise AssertionError("a permutation loop ran")

    monkeypatch.setattr(geometry, "permutations", refused)
    for m, n in [(1, 0), (0, 2), (1, 2), (2, 2), (3, 1), (2, 3)]:
        assert certify_polytope.__wrapped__(kind, m, n).passed, (m, n)
    # the loops stand behind the route
    monkeypatch.setattr(geometry, "_tight_partition", lambda *args: False)
    with pytest.raises(AssertionError, match="a permutation loop ran"):
        certify_polytope.__wrapped__(kind, 1, 2)
    _polytope_objects.cache_clear()


def test_the_certificate_takes_the_tight_route_only_on_its_premises(monkeypatch):
    # the premises come from the certificate's own checks: a record with a
    # repeated vertex does not meet them
    seen = []
    fan_checks = geometry._fan_checks

    def spy(kind, m, n, vert_objs, ledger, premises, *orbits):
        seen.append(premises)
        return fan_checks(kind, m, n, vert_objs, ledger, premises, *orbits)

    monkeypatch.setattr(geometry, "_fan_checks", spy)
    assert certify_polytope.__wrapped__("hochschild", 1, 2).passed
    real = _polytope_objects("hochschild", 1, 2)
    rotation = SimpleNamespace(
        elements=real.rotation.elements + real.rotation.elements[:1],
        covers=real.rotation.covers,
    )
    sums = {s: total + total[:1] for s, total in real.sums.items()}
    stand_in = dataclasses.replace(
        real, rotation=rotation, vertices=real.vertices + real.vertices[:1], sums=sums
    )
    monkeypatch.setattr(geometry, "_polytope_objects", lambda k, m, n: stand_in)
    assert not certify_polytope.__wrapped__("hochschild", 1, 2).passed
    assert seen == [True, False]
    _polytope_objects.cache_clear()


# -- every failed check names itself in the counterexample ---------------------------

CERTIFICATE_CHECKS = {
    "multiplihedron": [
        "vertices_distinct", "facets_distinct", "vertices_on_hyperplane",
        "halfspaces_satisfied", "incidence_iff_refinement", "edge_directions",
        "edge_single_flip", "coarsening_witness", "z_support_minimum", "z_supermodular",
        "greedy_vertices_match", "facets_identified",
    ],
    "hochschild": [
        "vertices_distinct", "facets_distinct", "vertices_on_hyperplane",
        "halfspaces_satisfied", "incidence_iff_refinement", "edge_directions",
        "edge_single_flip", "cones_simplicial", "fan_face_closure", "coarsening_witness",
        "z_support_minimum", "z_supermodular", "greedy_vertices_match", "facets_identified",
        "simple",
    ],
}


@pytest.mark.parametrize("kind", KINDS)
def test_certificate_checks_keep_their_order(kind):
    report = certify_polytope(kind, 2, 2)
    assert report.passed and report.counterexample is None
    assert list(report.checks) == CERTIFICATE_CHECKS[kind]


@pytest.mark.parametrize("kind, module, name", [
    ("multiplihedron", painted, "enum_painted_trees"),
    ("hochschild", shades, "enum_lighted_shades"),
])
def test_a_duplicated_facet_object_names_facets_distinct(monkeypatch, kind, module, name):
    every_object = getattr(module, name)

    def doubled(m, n, rank=None):
        objs = every_object(m, n, rank)
        return objs + objs[:1] if rank == m + n - 2 else objs

    monkeypatch.setattr(module, name, doubled)
    _polytope_objects.cache_clear()
    try:
        facets = len(_polytope_objects(kind, 1, 2).facets)
        report = certify_polytope.__wrapped__(kind, 1, 2)
    finally:
        _polytope_objects.cache_clear()
    assert report.counterexample == f"facets_distinct: {facets - 1} of {facets} facets distinct"
    failed = [check for check, ok in report.checks.items() if not ok]
    # a doubled facet puts its vertices on one facet too many
    assert failed == ["facets_distinct"] + (["simple"] if kind == "hochschild" else [])


@pytest.mark.parametrize("kind", KINDS)
def test_a_repeated_vertex_names_vertices_distinct(monkeypatch, kind):
    # a stand-in record that lists the first vertex (and its object) twice
    real = _polytope_objects(kind, 1, 2)
    rotation = SimpleNamespace(
        elements=real.rotation.elements + real.rotation.elements[:1],
        covers=real.rotation.covers,
    )
    sums = {s: total + total[:1] for s, total in real.sums.items()}
    stand_in = dataclasses.replace(
        real, rotation=rotation, vertices=real.vertices + real.vertices[:1], sums=sums
    )
    every_record = geometry._polytope_objects
    monkeypatch.setattr(
        geometry,
        "_polytope_objects",
        lambda k, m, n: stand_in if (k, m, n) == (kind, 1, 2) else every_record(k, m, n),
    )
    report = certify_polytope.__wrapped__(kind, 1, 2)
    count = len(real.vertices)
    assert report.counterexample == f"vertices_distinct: {count} of {count + 1} vertices distinct"
    assert not report.checks["vertices_distinct"]
    _polytope_objects.cache_clear()


def test_freehedron_edges_match_the_tight_facet_route():
    for n in range(7):
        report = freehedron_report(n)
        d = n + 1
        y = freehedron_minkowski(n)
        z = {s: sum(v for i, v in y.items() if i <= s) for s in _subsets(d)}
        halfspaces = [Halfspace(s, z[s]) for s in _subsets(d) if len(s) < d]
        edges = polytope_edges(report.vertices, halfspaces)
        assert sorted(tuple(sorted(e)) for e in report.edges) == edges, n
        assert report.num_edges == len(edges)
        w = omega(d)
        height = [sum(a * b for a, b in zip(v, w)) for v in report.vertices]
        assert all(height[lo] < height[hi] for lo, hi in report.edges)
        z[frozenset()] = 0
        greedy = {greedy_vertex(z, d, p) for p in permutations(range(1, d + 1))}
        assert report.vertices == sorted(greedy)
    assert freehedron_report(6).num_edges == 432


def test_freehedron_pairs_match_the_first_missing_table_entry():
    for n in range(7):
        report = freehedron_report(n)
        poset = FinitePoset(range(report.num_vertices), report.edges)
        assert report.joinless_pair == first_missing(poset._bound_table(poset.leq)), n
        assert report.meetless_pair == first_missing(poset._bound_table(poset.down)), n
        assert report.is_lattice == (report.joinless_pair is None and report.meetless_pair is None)


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_row_inverted_pairs_match_the_le_route_on_every_rotation_cover(kind):
    covers = 0
    for t in range(1, 6):
        for m in range(t + 1):
            rot = build_rotation_poset(kind, m, t - m)
            for lo, hi in rot.covers:
                pres = rot.elements[lo].preposet, rot.elements[hi].preposet
                for a, b in (pres, pres[::-1]):
                    assert inverted_pairs(a, b) == le_inverted_pairs(a, b)
                # the certificate's one pass: the cover's flip up, none down
                (flip,) = inverted_pairs(*pres)
                assert geometry._single_flip(*pres) == flip
                assert geometry._single_flip(*pres[::-1]) is None
                covers += 1
    assert covers == {"painted": 1375, "shade": 989}[kind]


# -- the vertex side on label orbits --------------------------------------------------


def _orbit_and_full(monkeypatch, kind, m, n, stand_in=None):
    """The certificate on its own route and on the full route
    (`oracles.full_route_certificate`), each as (checks, counterexample,
    every failure), on the cell's record or on a stand-in for it."""
    if stand_in is not None:
        every_record = geometry._polytope_objects
        monkeypatch.setattr(
            geometry,
            "_polytope_objects",
            lambda k, mm, nn: stand_in if (k, mm, nn) == (kind, m, n) else every_record(k, mm, nn),
        )
    logs = _failure_logs(monkeypatch)
    reports = certify_polytope.__wrapped__(kind, m, n), oracles.full_route_certificate(kind, m, n)
    return [(dict(r.checks), r.counterexample, log.failures) for r, log in zip(reports, logs)]


@pytest.mark.parametrize("kind", KINDS)
def test_the_orbit_route_and_the_full_route_agree_through_six(monkeypatch, kind):
    labeling = family(kind).labeling
    for d in range(1, 7):
        for m in range(d + 1):
            n = d - m
            with monkeypatch.context() as patch:
                orbit, full = _orbit_and_full(patch, kind, m, n)
            assert orbit == full, (m, n)
            assert all(orbit[0].values()) and orbit[1] is None, (m, n)
            # the route is taken: one vertex per orbit, labeled 1..m, and
            # one binary painted tree per orbit
            poly = _polytope_objects(kind, m, n)
            reps, size = geometry._label_orbits(poly)
            assert size == factorial(m) and len(reps) * size == len(poly.vertices), (m, n)
            if m >= 2:
                objs = poly.rotation.elements
                assert {labeling(objs[r])[1] for r in reps} == {tuple(range(1, m + 1))}
            binary = geometry._binary_representatives(m, n)
            assert len(binary) * size == len(binary_painted_trees(m, n)), (m, n)
    _polytope_objects.cache_clear()


def test_the_one_pass_shade_vertex_is_the_summed_one():
    for d in range(1, 8):
        for m in range(d + 1):
            for ls in shades._shades(m, d - m, 0):
                assert vertex_of_lighted_shade(ls) == oracles.summed_shade_vertex(ls), ls


@pytest.mark.parametrize("kind", KINDS)
def test_the_record_vertices_are_the_vertex_map_of_every_object(kind):
    vertex_of = vertex_of_painted_tree if kind == "multiplihedron" else vertex_of_lighted_shade
    for d in range(1, 7):
        for m in range(d + 1):
            poly = _polytope_objects(kind, m, d - m)
            assert poly.vertices == tuple(map(vertex_of, poly.rotation.elements)), (m, d - m)
    _polytope_objects.cache_clear()


@pytest.mark.parametrize("mn", [(2, 0), (3, 1), (4, 0), (2, 3), (5, 0)])
def test_the_multiplihedron_record_runs_the_vertex_map_m_times_per_shape(monkeypatch, mn):
    # labeling 0 and its m - 1 adjacent transpositions
    m, n = mn
    calls = _counting(monkeypatch, geometry, "vertex_of_painted_tree")
    _polytope_objects.cache_clear()
    try:
        verts = _polytope_objects("multiplihedron", m, n).vertices
        assert len(calls) * factorial(m) == len(verts) * m
    finally:
        _polytope_objects.cache_clear()


@pytest.mark.parametrize("mn", [(2, 1), (3, 1), (3, 2)])
def test_a_vertex_map_off_a_transposition_builds_the_record_per_vertex(monkeypatch, mn):
    # the tree of labeling 0 with labels 1 and 2 exchanged moves one unit
    # between them: the record runs the map on every tree
    m, n = mn
    true_vertex = geometry.vertex_of_painted_tree
    swapped = (frozenset({2}), frozenset({1}), *(frozenset({x}) for x in range(3, m + 1)))

    def moved(pt):
        v = list(true_vertex(pt))
        if pt.parts == swapped:
            v[0], v[1] = v[0] + 1, v[1] - 1
        return tuple(v)

    monkeypatch.setattr(geometry, "vertex_of_painted_tree", moved)
    _polytope_objects.cache_clear()
    try:
        poly = _polytope_objects("multiplihedron", m, n)
        assert poly.vertices == tuple(map(moved, poly.rotation.elements))
        assert geometry._label_orbits(poly) is None
        orbit, full = _orbit_and_full(monkeypatch, "multiplihedron", m, n)
        assert orbit == full and orbit[1] is not None
    finally:
        _polytope_objects.cache_clear()


ORBIT_CELLS = [(2, 1), (3, 1), (2, 2), (3, 2), (4, 0), (2, 3)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", ORBIT_CELLS)
def test_a_z_changed_on_one_subset_only_fails_as_the_full_route_fails(monkeypatch, kind, mn):
    # z raised by one on {1, d} and not on its relabelings {i, d}
    m, n = mn
    d = m + n
    name = "z_multiplihedron" if kind == "multiplihedron" else "z_hochschild"
    true_z = getattr(geometry, name)
    one = frozenset({1, d})
    monkeypatch.setattr(geometry, name, lambda s, m, n: true_z(s, m, n) + (frozenset(s) == one))
    _polytope_objects.cache_clear()
    try:
        poly = _polytope_objects(kind, m, n)
        assert geometry._label_orbits(poly) is None
        orbit, full = _orbit_and_full(monkeypatch, kind, m, n)
        assert orbit == full and orbit[1] is not None
        assert (orbit[0], orbit[1]) == _per_pair(kind, m, n, poly)
    finally:
        _polytope_objects.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mn", ORBIT_CELLS)
def test_one_labelings_vertex_moved_fails_as_the_full_route_fails(monkeypatch, kind, mn):
    # the last vertex that is no representative moves one unit from its
    # last coordinate to label 1's, so it stays on the hyperplane
    m, n = mn
    real = _polytope_objects(kind, m, n)
    labeling = family(kind).labeling
    objs = real.rotation.elements
    k = max(k for k, o in enumerate(objs) if labeling(o)[1] != tuple(range(1, m + 1)))
    v = list(real.vertices[k])
    v[0], v[-1] = v[0] + 1, v[-1] - 1
    verts = real.vertices[:k] + (tuple(v),) + real.vertices[k + 1:]
    stand_in = _replaced(real, vertices=verts, sums=MappingProxyType(subset_sums(verts, m + n)))
    assert geometry._label_orbits(real) is not None
    assert geometry._label_orbits(stand_in) is None
    orbit, full = _orbit_and_full(monkeypatch, kind, m, n, stand_in)
    assert orbit == full and orbit[1] is not None
    assert (orbit[0], orbit[1]) == _per_pair(kind, m, n, stand_in)
    _polytope_objects.cache_clear()


@pytest.mark.parametrize("mn", ORBIT_CELLS)
def test_one_binary_labelings_cone_broken_fails_as_the_full_route_fails(monkeypatch, mn):
    # the binary painted tree of the first shape with labels 1 and 2
    # exchanged gets the full relation as its cone: it holds every shade cone
    m, n = mn
    shape = next(painted._painted_shapes(m, n, binary=True))[0]
    parts = (frozenset({2}), frozenset({1}), *(frozenset({x}) for x in range(3, m + 1)))
    target = PaintedTree._new(m, n, shape, parts)
    full = Preposet(m + n, ((1 << m + n) - 1,) * (m + n))
    preposet = PaintedTree.preposet.func
    monkeypatch.setattr(
        PaintedTree, "preposet", property(lambda pt: full if pt == target else preposet(pt))
    )
    assert geometry._binary_representatives(m, n) is None
    orbit, full_route = _orbit_and_full(monkeypatch, "hochschild", m, n)
    assert orbit == full_route
    vertices = len(_polytope_objects("hochschild", m, n).vertices)
    assert orbit[1] == f"coarsening_witness: {target.canonical()} lands in {vertices} cones"
    _polytope_objects.cache_clear()


@pytest.mark.parametrize("mn", [(1, 2), (2, 2), (3, 1), (4, 0), (2, 3)])
def test_a_lone_hochschild_certificate_builds_no_multiplihedron_record(monkeypatch, mn):
    m, n = mn
    kinds = []
    every_record = geometry._polytope_objects

    def spy(kind, m, n):
        kinds.append(kind)
        return every_record(kind, m, n)

    monkeypatch.setattr(geometry, "_polytope_objects", spy)
    _polytope_objects.cache_clear()
    try:
        assert certify_polytope.__wrapped__("hochschild", m, n).passed
        # nor on the full route, nor when the tight route does not close
        assert oracles.full_route_certificate("hochschild", m, n).passed
        monkeypatch.setattr(geometry, "_tight_partition", lambda *args: False)
        assert certify_polytope.__wrapped__("hochschild", m, n).passed
        assert set(kinds) == {"hochschild"}
    finally:
        _polytope_objects.cache_clear()


def test_the_labelings_of_a_shape_read_its_rank_once(monkeypatch):
    calls = _counting(monkeypatch, painted, "shape_rank")
    trees = list(painted._painted_trees(3, 2))
    assert [pt.rank for pt in trees] == [oracles.object_rank(pt) for pt in trees]
    assert len(calls) == len({pt.tagged for pt in trees})


def test_cached_views_are_functools_cached_properties_stored_with_no_lock():
    import functools

    from hochschild_kit.preposets import cached_view

    view = PaintedTree.__dict__["walk"]
    assert isinstance(view, cached_view) and isinstance(view, functools.cached_property)
    pt = binary_painted_trees(2, 1)[0]
    assert "preposet" not in vars(pt)
    assert pt.preposet is vars(pt)["preposet"] is pt.preposet
