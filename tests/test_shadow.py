import sys

import pytest

from hochschild_kit import tables
from hochschild_kit.painted import PaintedTree, binary_painted_trees, tree_leaves
from hochschild_kit.shades import LightedShade, unary_lighted_shades
from hochschild_kit.shadow import (
    fiber_max,
    fiber_min,
    is_singleton,
    shadow,
    shadow_entries,
    shadow_fibers,
)

from oracles import left_comb, right_comb, singleton_tree_condition

SINGLETON_COUNTS = {(0, 3): 3, (1, 3): 7, (2, 2): 14, (0, 4): 5, (2, 1): 6}


def test_shadow_of_combs():
    lc = PaintedTree.from_cuts(0, 3, left_comb(3), [], [])
    rc = PaintedTree.from_cuts(0, 3, right_comb(3), [], [])
    assert shadow(lc).entries == (((3,), frozenset()),)
    assert shadow(rc).entries == (((1,), frozenset()),) * 3


def test_shadow_image_is_compositions():
    for n in (3, 4, 5):
        image = {shadow(pt) for pt in binary_painted_trees(0, n)}
        assert len(image) == 2 ** (n - 1)
        assert image == set(unary_lighted_shades(0, n))


def test_shadow_preserves_parameters_and_mu():
    for pt in binary_painted_trees(2, 2):
        ls = shadow(pt)
        assert (ls.m, ls.n) == (2, 2)
        # the parts keep their pairing: bottom cut of the tree = bottom light
        assert tuple(reversed(ls.mu)) == pt.parts


def test_shadow_preposet_contained_in_tree_preposet():
    for m, n in [(1, 2), (2, 2), (0, 4), (1, 3)]:
        for pt in binary_painted_trees(m, n):
            assert pt.preposet.contains(shadow(pt).preposet)


def test_shadow_is_refinement_maximal_shade_inside_tree_preposet():
    # among unary shades whose preposet sits inside the tree's, the shadow is
    # the unique one (certification rechecks this as the fan witness)
    for m, n in [(1, 2), (0, 3), (2, 1)]:
        shades = unary_lighted_shades(m, n)
        for pt in binary_painted_trees(m, n):
            inside = [ls for ls in shades if pt.preposet.contains(ls.preposet)]
            assert inside == [shadow(pt)]


def test_shadow_of_general_painted_tree_is_valid():
    from hochschild_kit.painted import enum_painted_trees

    for m, n in [(1, 2), (2, 2), (1, 3)]:
        for pt in enum_painted_trees(m, n):
            ls = shadow(pt)
            ls.validate()
            assert pt.preposet.contains(ls.preposet)


def test_fiber_extremes_round_trip():
    for m, n in [(1, 2), (2, 2), (1, 3), (0, 4), (3, 1)]:
        for ls in unary_lighted_shades(m, n):
            lo, hi = fiber_min(ls), fiber_max(ls)
            lo.validate()
            hi.validate()
            assert shadow(lo) == ls
            assert shadow(hi) == ls


def test_fiber_extremes_are_rotation_extremes():
    from hochschild_kit.posets import build_rotation_poset

    for m, n in [(1, 2), (0, 4), (2, 2), (1, 3)]:
        poset = build_rotation_poset("painted", m, n)
        for ls, pts in shadow_fibers(m, n).items():
            idxs = [poset.index(p) for p in pts]
            lo, hi = fiber_min(ls), fiber_max(ls)
            assert all(poset.le(poset.index(lo), i) for i in idxs)
            assert all(poset.le(i, poset.index(hi)) for i in idxs)


def test_single_tuple_fiber_extremes_are_combs():
    # the minimum is the left comb itself; the maximum hangs a right comb on
    # the value's leaves off the right branch
    ls = LightedShade(0, 4, [((4,), frozenset())])
    assert fiber_min(ls).tree == left_comb(4)
    assert fiber_max(ls).tree == (right_comb(3), None)


def test_all_unit_shade_has_singleton_fiber():
    ls = LightedShade(0, 3, [((1,), frozenset())] * 3)
    assert fiber_min(ls) == fiber_max(ls)
    assert fiber_min(ls).tree == right_comb(3)


def test_fiber_min_rejects_non_unary():
    with pytest.raises(ValueError):
        fiber_min(LightedShade(0, 3, [((1, 1, 1), frozenset())]))


@pytest.mark.parametrize("mn,count", sorted(SINGLETON_COUNTS.items()))
def test_singleton_counts_brute_force(mn, count):
    fibers = shadow_fibers(*mn)
    assert sum(1 for pts in fibers.values() if len(pts) == 1) == count


def test_singleton_characterizations_agree_with_fibers():
    for m, n in [(0, 4), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3)]:
        for ls, pts in shadow_fibers(m, n).items():
            alone = len(pts) == 1
            for pt in pts:
                assert is_singleton(pt) == alone
                assert singleton_tree_condition(pt) == alone


def test_left_comb_is_not_singleton_for_large_n():
    for n in (3, 4, 5):
        assert not is_singleton(PaintedTree.from_cuts(0, n, left_comb(n), [], []))


def test_is_singleton_rejects_non_binary():
    corolla = PaintedTree.from_cuts(0, 2, (None, None, None), [], [])
    with pytest.raises(ValueError):
        is_singleton(corolla)


@pytest.mark.parametrize("m,n,stray,message", [
    # every tree strays, so a unary shade is missed first
    (0, 2, ((1, 1),), "shadow map misses"),
    # one tree of a two-tree fiber strays, so no shade is missed
    (0, 3, ((1, 1, 1),), "is not a unary shade"),
])
def test_a_stray_shadow_fails_fibers_as_it_fails_the_census(monkeypatch, m, n, stray, message):
    # the census reads the spine off each shape and `shadow` reads it off each
    # tree; with m = 0 a shape is one tree, so one stray spine fails both
    shadow_module = sys.modules["hochschild_kit.shadow"]
    fibers = shadow_fibers(m, n)
    strays = {pts[-1] for pts in fibers.values() if len(pts) > 1} or set(binary_painted_trees(m, n))
    stray_shapes = {pt.tagged for pt in strays}
    bad = LightedShade(m, n, [(vals, frozenset()) for vals in stray])
    real = shadow_module.shadow_entries

    def patched(tagged, parts, leaves=tree_leaves):
        return bad.entries if tagged in stray_shapes else real(tagged, parts, leaves)

    monkeypatch.setattr(shadow_module, "shadow_entries", patched)
    monkeypatch.setattr(tables, "shadow_entries", patched)
    with pytest.raises(AssertionError) as census:
        tables._vertex_census(m, n)
    with pytest.raises(AssertionError) as grouped:
        shadow_fibers(m, n)
    assert message in str(census.value)
    assert str(grouped.value) == str(census.value)


@pytest.mark.parametrize("mn", [(m, d - m) for d in range(1, 7) for m in range(d + 1)])
def test_the_spine_reader_with_a_leaf_memo_is_the_shadow(mn):
    # one memo across every binary shape of the cell, as the census reads them
    m, n = mn
    memo = {}

    def leaves(t):
        if t not in memo:
            memo[t] = tree_leaves(t)
        return memo[t]

    for pt in binary_painted_trees(m, n):
        assert shadow_entries(pt.tagged, pt.parts, leaves) == shadow(pt).entries
