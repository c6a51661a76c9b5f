import dataclasses
from itertools import product
from types import SimpleNamespace

import pytest

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
from hochschild_kit.painted import binary_painted_trees
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

    def _cube_intersection(c1, c2):
        lo = tuple(max(a, c) for a, c in zip(c1[0], c2[0]))
        hi = tuple(min(b, d) for b, d in zip(c1[1], c2[1]))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return (lo, hi)

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
    cube_set = set(proper.values())
    items = list(proper.items())
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            c1, c2 = items[a][1], items[b][1]
            inter = _cube_intersection(c1, c2)
            if inter is None:
                continue
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

    ledger.record("containment_mirrors_refinement", True)
    objs = list(cubes)
    for o1 in objs:
        for o2 in objs:
            refines = ref.le(ref.index(o1), ref.index(o2))
            if refines != _cube_contains(cubes[o1], cubes[o2]):
                ledger.record("containment_mirrors_refinement", False, f"{o1} vs {o2}")


CELLS_4 = [(m, t - m) for t in range(1, 5) for m in range(t + 1)]


def _failures(subdivision_checks, kind, m, n):
    """The checks and every failure message of one subdivision route."""
    rot = build_rotation_poset(kind, m, n)
    ref = posets.build_refinement_poset(kind, m, n)
    gamma_fn = cubic.cubic_vector_painted if kind == "painted" else cubic.cubic_vector_shade
    gamma = [gamma_fn(o) for o in rot.elements]
    log = FailureLog()
    subdivision_checks(rot, ref, gamma, cubic._cube_of(gamma), log)
    return dict(log.verdicts()), [f"{name}: {detail}" for name, detail in log.failures]


def _with_oracle(monkeypatch, kind, m, n):
    """The bitset route's report, after checking that it and the oracle give
    the same report and the same failure messages in the same order."""
    new = verify_cubic_realization(kind, m, n)
    with monkeypatch.context() as patch:
        patch.setattr(cubic, "_subdivision_checks", _subdivision_oracle)
        old = verify_cubic_realization(kind, m, n)
    assert new.checks == old.checks
    assert new.counterexample == old.counterexample
    messages = _failures(cubic._subdivision_checks, kind, m, n)[1]
    assert messages == _failures(_subdivision_oracle, kind, m, n)[1]
    return new, messages


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_subdivision_matches_oracle(kind, monkeypatch):
    for m, n in CELLS_4:
        rep, _ = _with_oracle(monkeypatch, kind, m, n)
        assert rep.passed, rep.counterexample
        assert "containment_mirrors_refinement" in rep.checks


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
