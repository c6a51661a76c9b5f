import dataclasses
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from hochschild_kit import cubic, posets
from hochschild_kit.cubic import (
    HochschildWord,
    bracket_vector,
    cubic_vector_painted,
    cubic_vector_shade,
    enum_words,
    lehmer_code,
    shade_to_word,
    verify_cubic_realization,
    word_to_shade,
    word_violation,
)
from hochschild_kit.families import family
from hochschild_kit.painted import PaintedTree, binary_painted_trees
from hochschild_kit.posets import FinitePoset, build_refinement_poset, build_rotation_poset
from hochschild_kit.shades import LightedShade, unary_lighted_shades

from oracles import FailureLog, left_comb, right_comb


def S(m, n, *entries):
    return LightedShade(m, n, [(vals, set(lights)) for vals, lights in entries])


def test_lehmer_examples():
    assert lehmer_code((1, 2, 3, 4)) == (0, 1, 2, 3)
    assert lehmer_code((4, 3, 2, 1)) == (0, 0, 0, 0)
    assert lehmer_code((2, 1, 3)) == (0, 0, 2)


def test_bracket_examples():
    assert bracket_vector(left_comb(3)) == (0, 1, 2)
    assert bracket_vector(right_comb(3)) == (0, 0, 0)


@pytest.mark.parametrize("tree", [((None, None),), (None, None, None)], ids=["unary", "ternary"])
def test_bracket_vector_rejects_non_binary_trees(tree):
    # a ternary root used to get the vector (0, 0), a unary node an IndexError
    with pytest.raises(ValueError, match="binary"):
        bracket_vector(tree)


def test_word_counts():
    assert len(enum_words(1, 3)) == 12
    assert len(enum_words(0, 4)) == 8
    assert len(enum_words(2, 2)) == 9


def test_word_violations_are_named():
    assert word_violation(1, 3, (2, 0, 0)) is not None
    assert word_violation(1, 3, (1, 0, 1)) is not None
    assert word_violation(1, 3, (0, 0, 3)) is not None
    assert word_violation(1, 3, (1, 1, 0)) is None


def test_word_to_shade_rejects_invalid():
    with pytest.raises(ValueError):
        word_to_shade(HochschildWord(1, 3, (1,), (2, 0, 0)))


def test_word_round_trip_exhaustive():
    for m, n in [(1, 3), (2, 2), (0, 4), (3, 1), (2, 3), (4, 0)]:
        for ls in unary_lighted_shades(m, n):
            hw = shade_to_word(ls)
            hw.validate()
            assert word_to_shade(hw) == ls


def test_word_of_known_shades():
    # m = 0: blocks are 0 followed by fillers 1
    assert shade_to_word(S(0, 3, ((3,), ()))).word == (0, 1, 1)
    # cut on top: no cuts below any singleton
    ls = S(1, 3, ((), (1,)), ((1,), ()), ((1,), ()), ((1,), ()))
    assert shade_to_word(ls).word == (0, 0, 0)
    # cut at the bottom: every singleton sees one cut below
    ls = S(1, 3, ((1,), ()), ((1,), ()), ((1,), ()), ((), (1,)))
    assert shade_to_word(ls).word == (1, 1, 1)


def test_word_permutation_reads_bottom_up():
    ls = S(2, 1, ((), (2,)), ((1,), ()), ((), (1,)))
    assert shade_to_word(ls).perm == (1, 2)


def test_cubic_vector_bounds():
    for m, n in [(1, 3), (2, 2), (3, 1)]:
        for ls in unary_lighted_shades(m, n):
            vec = cubic_vector_shade(ls)
            assert len(vec) == m + n - 1
            for offset, value in enumerate(vec):
                assert 0 <= value <= offset + 1
        for pt in binary_painted_trees(m, n):
            vec = cubic_vector_painted(pt)
            assert len(vec) == m + n - 1
            for offset, value in enumerate(vec):
                assert 0 <= value <= offset + 1


def test_cubic_specializations():
    from hochschild_kit.painted import PaintedTree

    for pt in binary_painted_trees(0, 5):
        assert cubic_vector_painted(pt) == bracket_vector(pt)[1:]
    for pt in binary_painted_trees(4, 0):
        perm = tuple(min(p) for p in pt.parts)
        assert cubic_vector_painted(pt) == lehmer_code(perm)[1:]
    for ls in unary_lighted_shades(4, 0):
        hw = shade_to_word(ls)
        assert cubic_vector_shade(ls) == lehmer_code(hw.perm)[1:]
    for ls in unary_lighted_shades(0, 5):
        assert cubic_vector_shade(ls) == shade_to_word(ls).word[1:]


def test_cubic_injectivity():
    for m, n in [(1, 3), (2, 2), (1, 4)]:
        pts = binary_painted_trees(m, n)
        assert len({cubic_vector_painted(pt) for pt in pts}) == len(pts)
        shades = unary_lighted_shades(m, n)
        assert len({cubic_vector_shade(ls) for ls in shades}) == len(shades)


def test_smallest_mixed_case_vectors():
    vecs = sorted(cubic_vector_painted(pt) for pt in binary_painted_trees(1, 1))
    assert vecs == [(0,), (1,)]


@pytest.mark.parametrize("kind", ["painted", "shade"])
@pytest.mark.parametrize("mn", [(1, 2), (2, 1), (1, 3), (2, 2), (0, 4), (3, 0)])
def test_cubic_realization_with_subdivision(kind, mn):
    rep = verify_cubic_realization(kind, *mn, subdivision=True)
    assert rep.passed, rep.counterexample


def test_a_point_is_on_the_boundary_iff_a_coordinate_is_extreme():
    # images_on_boundary reads each image as the degenerate cube (point, point)
    box = ((0, 0, 1), (2, 3, 3))
    for point in product(range(3), range(4), range(1, 4)):
        on = any(c in (a, b) for c, a, b in zip(point, *box))
        assert cubic._cube_on_boundary((point, point), box) == on, point
    assert cubic._cube_on_boundary(((), ()), ((), ()))


def test_cubic_realization_vectors_only():
    rep = verify_cubic_realization("shade", 2, 3, subdivision=False)
    assert rep.passed, rep.counterexample
    assert "boundary_covered" not in rep.checks


# -- the subdivision loops before the bitset route, kept as the oracle ----------


def _subdivision_oracle(rot, ref, gamma, box, ledger):
    """Sub-check (c) by member scans over preposet containment and all-pairs
    cube tests, keyed by objects: the loops the bitset route replaced."""
    from hochschild_kit.cubic import (
        _boundary_cells,
        _cube_contains,
        _cube_dim,
        _cube_on_boundary,
    )

    gamma = dict(zip(rot.elements, gamma))
    cubes = {}
    ledger.record("faces_span_subcubes", True)
    for o in ref.elements:
        members = [v for v in rot.elements if o.preposet.contains(v.preposet)]
        idxs = [rot.index(v) for v in members]
        mins, maxs = rot.extremes(idxs)
        if len(mins) != 1 or len(maxs) != 1:
            ledger.record("faces_span_subcubes", False, f"{o}: no unique extremes")
            continue
        cube = (gamma[rot.elements[maxs[0]]], gamma[rot.elements[mins[0]]])
        if any(a > b for a, b in zip(cube[0], cube[1])):
            ledger.record("faces_span_subcubes", False, f"{o}: degenerate span")
            continue
        if _cube_dim(cube) != o.rank:
            detail = f"{o}: dim {_cube_dim(cube)} != rank {o.rank}"
            ledger.record("faces_span_subcubes", False, detail)
        for v in members:
            if not _cube_contains(cube, (gamma[v], gamma[v])):
                ledger.record("faces_span_subcubes", False, f"{o}: vertex {v} outside its cube")
        cubes[o] = cube

    whole = min(ref.elements, key=lambda o: -o.rank)
    proper = {o: c for o, c in cubes.items() if o is not whole}
    ledger.record("subcubes_on_boundary", True)
    for o, c in proper.items():
        if not _cube_on_boundary(c, box):
            ledger.record("subcubes_on_boundary", False, f"{o}: {c}")

    ledger.record("boundary_covered", True)
    for cell in _boundary_cells(box):
        if not any(_cube_contains(c, cell) for c in proper.values()):
            ledger.record("boundary_covered", False, f"cell {cell}")
            break

    ledger.record("intersections_in_collection", True)
    _intersection_oracle(list(proper.items()), ledger)

    ledger.record("containment_mirrors_refinement", True)
    objs = list(cubes)
    for o1 in objs:
        for o2 in objs:
            refines = ref.le(ref.index(o1), ref.index(o2))
            if refines != _cube_contains(cubes[o1], cubes[o2]):
                ledger.record("containment_mirrors_refinement", False, f"{o1} vs {o2}")


def _intersection_oracle(items, ledger):
    """Every pair of (name, cube) items, in order: each intersection not in
    the collection, or of a dimension not below both."""
    from hochschild_kit.cubic import _cube_dim

    cube_set = {c for _, c in items}
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            c1, c2 = items[a][1], items[b][1]
            lo = tuple(max(x, y) for x, y in zip(c1[0], c2[0]))
            hi = tuple(min(x, y) for x, y in zip(c1[1], c2[1]))
            if any(x > y for x, y in zip(lo, hi)):
                continue
            inter = (lo, hi)
            if inter not in cube_set:
                ledger.record(
                    "intersections_in_collection",
                    False,
                    f"{items[a][0]} and {items[b][0]} meet in {inter}",
                )
            elif inter != c1 and inter != c2 and _cube_dim(inter) >= min(
                _cube_dim(c1), _cube_dim(c2)
            ):
                ledger.record("intersections_in_collection", False, f"dimension at {inter}")


CELLS_4 = [(m, t - m) for t in range(1, 5) for m in range(t + 1)]


def _logged(monkeypatch, kind, m, n):
    """The report of one run and every failure message it recorded, in order."""
    logs = []

    def ledger():
        logs.append(FailureLog())
        return logs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cubic, "Ledger", ledger)
        rep = verify_cubic_realization(kind, m, n)
    return rep, [f"{name}: {detail}" for name, detail in logs[0].failures]


def _with_oracle(monkeypatch, kind, m, n):
    """The bitset route's report, after checking that it and the oracle give
    the same report and the same failure messages in the same order; one
    run of each route."""
    new, messages = _logged(monkeypatch, kind, m, n)
    with monkeypatch.context() as patch:
        patch.setattr(cubic, "_subdivision_checks", _subdivision_oracle)
        old, old_messages = _logged(patch, kind, m, n)
    assert new.checks == old.checks
    assert new.counterexample == old.counterexample
    assert messages == old_messages
    return new, messages


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_subdivision_matches_oracle(kind, monkeypatch):
    for m, n in CELLS_4:
        rep, _ = _with_oracle(monkeypatch, kind, m, n)
        assert rep.passed, rep.counterexample
        assert "containment_mirrors_refinement" in rep.checks


CELLS_5 = [(m, 5 - m) for m in range(6)]


@pytest.mark.parametrize("kind", ["painted", "shade"])
@pytest.mark.parametrize("m, n", CELLS_5)
def test_subdivision_matches_oracle_at_five(kind, m, n, monkeypatch):
    rep, messages = _with_oracle(monkeypatch, kind, m, n)
    assert rep.passed and not messages, rep.counterexample


def test_subdivision_scans_pairs_only_after_a_mismatch(monkeypatch):
    def pair_scan(*args):
        raise AssertionError("containment pair scan on a passing cell")

    monkeypatch.setattr(cubic, "_cube_contains", pair_scan)
    for kind in ("painted", "shade"):
        for m, n in CELLS_4:
            rep = verify_cubic_realization(kind, m, n)
            assert rep.passed, rep.counterexample


def _corrupted(ref, drop=None, cut=None):
    """ref without the element of index drop, or without the relation cut = (i, j)."""
    keep = [j for j in range(ref.n) if j != drop]
    rows = [
        sum(1 << k for k, j in enumerate(keep) if ref.le(i, j) and (i, j) != cut)
        for i in keep
    ]
    return FinitePoset.from_leq([ref.elements[j] for j in keep], rows)


def _failed_checks(monkeypatch, kind, m, n, corrupt):
    monkeypatch.setattr(posets, "build_refinement_poset", lambda *args: corrupt)
    rep, _ = _with_oracle(monkeypatch, kind, m, n)
    return {name for name, ok in rep.checks.items() if not ok}


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_subdivision_oracle_on_a_perturbed_vector(kind, monkeypatch):
    m, n = 1, 2
    rot = build_rotation_poset(kind, m, n)
    gamma_name = "cubic_vector_painted" if kind == "painted" else "cubic_vector_shade"
    gamma_fn = getattr(cubic, gamma_name)
    outside = 0
    for victim in rot.elements:
        for coord in range(m + n - 1):
            for step in (-1, 1):
                def perturbed(o, victim=victim, coord=coord, step=step):
                    g = list(gamma_fn(o))
                    if o == victim:
                        g[coord] += step
                    return tuple(g)

                monkeypatch.setattr(cubic, gamma_name, perturbed)
                rep, messages = _with_oracle(monkeypatch, kind, m, n)
                assert not rep.passed
                outside += any("outside its cube" in text for text in messages)
    assert outside


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_subdivision_oracle_on_each_dropped_face(kind, monkeypatch):
    ref = build_refinement_poset(kind, 1, 3)
    failed = set()
    for j, o in enumerate(ref.elements):
        if o.rank > 0:
            failed |= _failed_checks(monkeypatch, kind, 1, 3, _corrupted(ref, drop=j))
    assert {"boundary_covered", "intersections_in_collection"} <= failed


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_subdivision_oracle_on_each_broken_containment(kind, monkeypatch):
    # only covers between faces of positive rank: a face's vertex set stays
    ref = build_refinement_poset(kind, 2, 1)
    for lo, hi in ref.covers:
        if ref.elements[hi].rank > 0:
            failed = _failed_checks(monkeypatch, kind, 2, 1, _corrupted(ref, cut=(lo, hi)))
            assert failed == {"containment_mirrors_refinement"}


def _facet_grown_into_a_neighbour(rot, ref, gamma):
    """The first facet a of the boundary and vertices p, q (rotation
    indices) such that the cube (gamma[p], gamma[q]) strictly contains a's
    cube, has a's rank, lies on the boundary, and overlaps another facet in
    full dimension with neither inside the other; with that overlap."""
    box = cubic._cube_of(gamma)
    members = {j: [rot.index(v) for v in rot.elements if o.preposet.contains(v.preposet)]
               for j, o in enumerate(ref.elements)}
    cubes = {}
    for j, idxs in members.items():
        mins, maxs = rot.extremes(idxs)
        cubes[j] = (gamma[maxs[0]], gamma[mins[0]])
    d = len(gamma[0])
    facets = [j for j, o in enumerate(ref.elements) if o.rank == d - 1]
    for a in facets:
        for p, q in product(range(rot.n), repeat=2):
            grown = (gamma[p], gamma[q])
            if grown == cubes[a] or not cubic._cube_contains(grown, cubes[a]):
                continue
            if cubic._cube_dim(grown) != d - 1 or not cubic._cube_on_boundary(grown, box):
                continue
            for b in facets:
                other = cubes[b]
                lo, hi = tuple(map(max, grown[0], other[0])), tuple(map(min, grown[1], other[1]))
                if (
                    b != a
                    and all(x <= y for x, y in zip(lo, hi))
                    and cubic._cube_dim((lo, hi)) == d - 1
                    and not cubic._cube_contains(grown, other)
                    and not cubic._cube_contains(other, grown)
                ):
                    return members[a], p, q, (lo, hi)
    raise AssertionError("no facet can grow into a neighbour")


class _GrownRotations(FinitePoset):
    """A rotation poset whose extremes of one vertex set are two given
    vertices, so that one face's cube is spanned by them."""

    def __init__(self, rot, members, p, q):
        super().__init__(rot.elements, rot.covers)
        self.victim, self.grown = sorted(members), ([q], [p])

    def extremes(self, idxs):
        return self.grown if sorted(idxs) == self.victim else super().extremes(idxs)


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_subdivision_oracle_on_a_cube_grown_into_a_neighbour(kind, monkeypatch):
    # one facet's cube grows along its side of the boundary until it
    # overlaps a neighbouring facet in full dimension: that overlap is no
    # face, so the pair fails the intersections, on both routes alike
    m, n = 1, 3
    rot = build_rotation_poset(kind, m, n)
    gamma = [family(kind).cubic_vector(o) for o in rot.elements]
    ref = build_refinement_poset(kind, m, n)
    members, p, q, overlap = _facet_grown_into_a_neighbour(rot, ref, gamma)
    grown = _GrownRotations(rot, members, p, q)
    monkeypatch.setattr(posets, "build_rotation_poset", lambda *args: grown)
    rep, messages = _with_oracle(monkeypatch, kind, m, n)
    assert not rep.checks["intersections_in_collection"]
    assert rep.checks["faces_span_subcubes"] and rep.checks["subcubes_on_boundary"]
    assert any(text.endswith(f" meet in {overlap}") for text in messages), messages


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_subdivision_oracle_on_a_dropped_edge(kind, monkeypatch):
    # a face of dimension 1 below every facet's: the facets around it still
    # cover the boundary and keep their order, but two of them now meet in a
    # cube outside the collection
    m, n = 1, 3
    ref = build_refinement_poset(kind, m, n)
    edge = next(j for j, o in enumerate(ref.elements) if o.rank == 1)
    monkeypatch.setattr(posets, "build_refinement_poset", lambda *args: _corrupted(ref, drop=edge))
    rep, messages = _with_oracle(monkeypatch, kind, m, n)
    assert {name for name, ok in rep.checks.items() if not ok} == {"intersections_in_collection"}
    assert messages and all(" meet in " in text for text in messages)


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_subdivision_oracle_on_a_removed_cover(kind, monkeypatch):
    # the covers' rules fail at the finer end of the removed cover, and the
    # scan names exactly that pair
    m, n = 1, 3
    ref = build_refinement_poset(kind, m, n)
    lo, hi = next((lo, hi) for lo, hi in ref.covers if ref.elements[hi].rank == 1)
    corrupt = _corrupted(ref, cut=(lo, hi))
    monkeypatch.setattr(posets, "build_refinement_poset", lambda *args: corrupt)
    rep, messages = _with_oracle(monkeypatch, kind, m, n)
    assert messages == [
        f"containment_mirrors_refinement: {ref.elements[lo]} vs {ref.elements[hi]}"
    ]


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_a_face_with_no_cube_leaves_containment_to_the_scan(kind, monkeypatch):
    # one vertex moved so that some face spans no cube: the covers' rules
    # could pass over a relation through that face, so they do not run
    m, n = 1, 2
    covers_route = []
    real = cubic._containment_by_covers
    monkeypatch.setattr(
        cubic, "_containment_by_covers", lambda *args: covers_route.append(1) or real(*args)
    )
    rot = build_rotation_poset(kind, m, n)
    gamma_name = "cubic_vector_painted" if kind == "painted" else "cubic_vector_shade"
    gamma_fn = getattr(cubic, gamma_name)
    seen = 0
    for victim, coord, step in product(rot.elements, range(m + n - 1), (-1, 1)):
        def perturbed(o, victim=victim, coord=coord, step=step):
            g = list(gamma_fn(o))
            if o == victim:
                g[coord] += step
            return tuple(g)

        monkeypatch.setattr(cubic, gamma_name, perturbed)
        del covers_route[:]
        rep, messages = _with_oracle(monkeypatch, kind, m, n)
        if any(text.endswith(("no unique extremes", "degenerate span")) for text in messages):
            seen += 1
            assert not covers_route
            assert "containment_mirrors_refinement" in rep.checks
    assert seen


class _RowFree(FinitePoset):
    """A poset whose up-set and down-set rows may not be read."""

    @property
    def leq(self):
        raise AssertionError("a refinement leq row was read")

    @property
    def down(self):
        raise AssertionError("a refinement down row was read")


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_a_passing_subdivision_reads_no_refinement_row(kind, monkeypatch):
    # the vertex sets come from the covers, and so does containment
    m, n = 2, 2
    ref = build_refinement_poset.__wrapped__(kind, m, n)
    ref.__class__ = _RowFree
    monkeypatch.setattr(posets, "build_refinement_poset", lambda *args: ref)
    rep = verify_cubic_realization(kind, m, n)
    assert rep.passed, rep.counterexample
    assert list(rep.checks) == CUBIC_CHECKS


def test_refinement_covers_build_no_object_per_move(monkeypatch):
    # the covers are index pairs off moves on shapes and entries tuples
    objs = {kind: family(kind).enum(2, 2) for kind in ("painted", "shade")}

    def built(*args, **kwargs):
        raise AssertionError("an object was built for a move")

    for cls in (PaintedTree, LightedShade):
        monkeypatch.setattr(cls, "__init__", built)
        monkeypatch.setattr(cls, "_new", built)
    for kind, elements in objs.items():
        assert family(kind).refinement_covers(elements)


_BOXES = st.integers(0, 6).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        st.lists(st.integers(0, 9), min_size=d, max_size=d),
    )
)


@given(box=_BOXES, data=st.data())
def test_packed_max_and_min_match_the_tuples(box, data):
    # offsets from the box's low corner, so the negative coordinates of a
    # perturbed vector pack like any other
    low, sizes = box
    high = [a + s for a, s in zip(low, sizes)]
    keys = cubic._CubeKeys((tuple(low), tuple(high)))
    corner = st.tuples(*(st.integers(a, b) for a, b in zip(low, high)))
    c1, c2 = (data.draw(st.tuples(corner, corner)) for _ in range(2))
    meet = (tuple(map(max, c1[0], c2[0])), tuple(map(min, c1[1], c2[1])))
    assert keys.intersection(keys.key(c1), keys.key(c2)) == keys.key(meet)
    assert keys.intersection(keys.key(c2), keys.key(c1)) == keys.key(meet)
    assert (keys.key(c1) == keys.key(c2)) == (c1 == c2)


_SMALL_COLLECTIONS = st.integers(1, 2).flatmap(
    lambda d: st.lists(
        st.tuples(*(st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted) for _ in range(d))),
        min_size=1,
        max_size=7,
    )
)


@given(_SMALL_COLLECTIONS)
def test_intersections_record_as_the_pair_scan(raw):
    # any collection in the box [0, 3]^d, repeated and nested cubes and
    # same-dimension intersections included: the route that skips nested
    # pairs records the scan's messages, in its order
    cubes = {j: tuple(map(tuple, zip(*sides))) for j, sides in enumerate(raw)}
    d = len(raw[0])
    box = ((0,) * d, (3,) * d)
    proper = (1 << len(cubes)) - 1
    faces, inner = cubic._threshold_masks(cubes.items(), box, inside=True)
    log, expected = FailureLog(), FailureLog()
    cubic._intersection_checks(SimpleNamespace(elements=list(cubes)), cubes, proper, faces, inner, box, log)
    _intersection_oracle(list(cubes.items()), expected)
    assert log.failures == expected.failures


def _face_cubes(kind, m, n):
    """The refinement poset of a cell, every face's cube read off its
    vertices' rotation extremes, and the box."""
    rot = build_rotation_poset(kind, m, n)
    ref = build_refinement_poset(kind, m, n)
    gamma = [family(kind).cubic_vector(o) for o in rot.elements]
    vertices = [j for j, o in enumerate(ref.elements) if o.rank == 0]
    cubes = {}
    for j in range(ref.n):
        mins, maxs = rot.extremes([rot.index(ref.elements[v]) for v in vertices if ref.le(j, v)])
        cubes[j] = (gamma[maxs[0]], gamma[mins[0]])
    return ref, cubes, cubic._cube_of(gamma)


@given(data=st.data())
def test_the_covers_rules_decide_as_the_rows(data):
    # R1 and R2 hold at every face exactly when each face's containing
    # cubes are its down-set row: on the true cubes of a cell, and with one
    # face's cube swapped for any box inside the box
    kind = data.draw(st.sampled_from(["painted", "shade"]))
    cell = data.draw(st.sampled_from([(1, 2), (2, 1), (1, 3), (2, 2)]))
    ref, cubes, box = _face_cubes(kind, *cell)
    victim = data.draw(st.none() | st.integers(0, ref.n - 1))
    if victim is not None:
        sides = [
            sorted(data.draw(st.tuples(st.integers(a, b), st.integers(a, b)))) for a, b in zip(*box)
        ]
        cubes = {**cubes, victim: tuple(map(tuple, zip(*sides)))}
    faces = cubic._threshold_masks(cubes.items(), box)
    everything = (1 << ref.n) - 1
    rows = all(cubic._cubes_around(faces, *cubes[j]) & everything == ref.down[j] for j in cubes)
    assert cubic._containment_by_covers(ref, cubes, faces) == rows
    if victim is None:
        assert rows


# -- every failed check names itself in the counterexample ---------------------------

CUBIC_CHECKS = [
    "injective", "single_coordinate_decrease", "box_spanned_by_extremes", "images_on_boundary",
    "faces_span_subcubes", "subcubes_on_boundary", "boundary_covered",
    "intersections_in_collection", "containment_mirrors_refinement",
]


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_cubic_checks_keep_their_order(kind):
    assert list(verify_cubic_realization(kind, 2, 2).checks) == CUBIC_CHECKS
    assert list(verify_cubic_realization(kind, 2, 2, subdivision=False).checks) == CUBIC_CHECKS[:4]


def test_a_cubic_report_is_read_only():
    rep = verify_cubic_realization("shade", 1, 2)
    with pytest.raises(TypeError):
        rep.checks["injective"] = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.counterexample = "edited"


def _vectors_only(monkeypatch, kind, stand_in):
    """The vectors-only report on a stand-in rotation poset."""
    monkeypatch.setattr(posets, "build_rotation_poset", lambda *args: stand_in)
    rep = verify_cubic_realization(kind, 1, 2, subdivision=False)
    return rep, [name for name, ok in rep.checks.items() if not ok]


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_a_repeated_vector_names_injective(monkeypatch, kind):
    rot = build_rotation_poset(kind, 1, 2)
    stand_in = SimpleNamespace(
        elements=rot.elements + rot.elements[:1], covers=rot.covers, top=rot.top, bottom=rot.bottom
    )
    rep, failed = _vectors_only(monkeypatch, kind, stand_in)
    assert failed == ["injective"]
    assert rep.counterexample == f"injective: {rot.n} of {rot.n + 1} vectors distinct"


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_extremes_short_of_the_box_name_box_spanned_by_extremes(monkeypatch, kind):
    # no covers to check, and a top that is the bottom: one point spans nothing
    rot = build_rotation_poset(kind, 1, 2)
    stand_in = SimpleNamespace(elements=rot.elements, covers=(), top=rot.bottom, bottom=rot.bottom)
    rep, failed = _vectors_only(monkeypatch, kind, stand_in)
    gamma = [family(kind).cubic_vector(o) for o in rot.elements]
    low = gamma[rot.bottom]
    assert failed == ["box_spanned_by_extremes"]
    assert rep.counterexample == (
        f"box_spanned_by_extremes: box {cubic._cube_of(gamma)}, extremes span {(low, low)}"
    )
