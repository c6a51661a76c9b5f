import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

import hochschild_kit.geometry as geometry
from hochschild_kit.geometry import (
    _affine_rank,
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
    polytope_edges,
    shared_facet_report,
    vertex_of_lighted_shade,
    vertex_of_painted_tree,
    y_hochschild,
    z_hochschild,
    z_multiplihedron,
    _polytope_objects,
)
from hochschild_kit.painted import PaintedTree, binary_painted_trees, left_comb
from hochschild_kit.posets import build_rotation_poset
from hochschild_kit.preposets import Preposet
from hochschild_kit.shades import LightedShade, unary_lighted_shades
from hochschild_kit.verify import fan_suite


def S(m, n, *entries):
    return LightedShade(m, n, [(vals, set(lights)) for vals, lights in entries])


def test_vertex_loday_left_comb():
    pt = PaintedTree(0, 3, left_comb(3), [], [])
    assert vertex_of_painted_tree(pt) == (1, 2, 3)


def test_vertex_cut_above_left_comb():
    pt = PaintedTree(1, 3, (left_comb(3),), [{0}], [{1}])
    assert vertex_of_painted_tree(pt) == (4, 1, 2, 3)


def test_vertex_cut_below_left_comb():
    def dress(t):
        if t is None:
            return (None,)
        return tuple(dress(c) for c in t)

    tree = dress(left_comb(3))
    pt = PaintedTree(1, 3, tree, [], [])
    unary = [v for v, a in pt.arity.items() if a == 1]
    pt = PaintedTree(1, 3, tree, [set(unary)], [{1}])
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
    _, _, facet_objs_m, facets_m = _polytope_objects("multiplihedron", 1, 3)
    _, _, facet_objs_h, facets_h = _polytope_objects("hochschild", 1, 3)
    assert len(facets_m) == 13 and len(facets_h) == 8
    assert set(facets_h) <= set(facets_m)


def test_facet_rank_preconditions():
    with pytest.raises(ValueError):
        facet_of_lighted_shade(S(0, 3, ((3,), ())))
    with pytest.raises(ValueError):
        facet_of_painted_tree(PaintedTree(0, 3, left_comb(3), [], []))


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
        _, verts, _, facets = _polytope_objects(kind, m, n)
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
    diamond = PaintedTree(
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
            _, verts, _, _ = _polytope_objects(kind, m, n)
            for s in _subsets(d):
                tight = [v for v in verts if sum(v[i - 1] for i in s) == z_fn(s, m, n)]
                assert _affine_rank(tight) == _affine_rank_oracle(tight), (m, n, s)


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
        assert _affine_rank(points) == _affine_rank_oracle(points), points


def test_certification_report_is_read_only():
    rep = certify_polytope("hochschild", 1, 2)
    with pytest.raises(TypeError):
        rep.checks["simple"] = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.counterexample = "edited"
    assert certify_polytope("hochschild", 1, 2).passed


def test_cell_builds_each_polytope_once(monkeypatch):
    calls = {"painted": 0, "shade": 0}

    def counted(key, fn):
        def wrapper(m, n):
            calls[key] += 1
            return fn(m, n)
        return wrapper

    monkeypatch.setattr(geometry, "binary_painted_trees",
                        counted("painted", geometry.binary_painted_trees))
    monkeypatch.setattr(geometry, "unary_lighted_shades",
                        counted("shade", geometry.unary_lighted_shades))
    _polytope_objects.cache_clear()
    for kind in ("multiplihedron", "hochschild"):
        minkowski_data(kind, 1, 3)
        oriented_skeleton(kind, 1, 3)
        barycenter(kind, 1, 3)
    shared_facet_report(1, 3)
    assert calls == {"painted": 1, "shade": 1}
    _polytope_objects.cache_clear()


def test_fan_suite_releases_polytope_objects():
    assert fan_suite(3).ok
    assert _polytope_objects.cache_info().currsize == 0
