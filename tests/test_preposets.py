from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from hochschild_kit.geometry import _single_flip
from hochschild_kit.painted import enum_painted_trees
from hochschild_kit.posets import build_refinement_poset
from hochschild_kit.preposets import Preposet, _bits, relabel_canonically
from hochschild_kit.shades import enum_lighted_shades

from oracles import (
    closed_preposet,
    frozenset_class_hasse,
    inverted_pairs,
    label_orbit,
    le_inverted_pairs,
    relabeled_rows,
    transitive_closure_pairs,
)


def test_chain():
    p = Preposet.chain(3, [2, 1, 3])
    assert p.le(2, 1) and p.le(1, 3) and p.le(2, 3)
    assert not p.le(3, 1)


def test_contains():
    big = closed_preposet(3, [(1, 2), (2, 3)])
    small = closed_preposet(3, [(1, 3)])
    assert big.contains(small)
    assert not small.contains(big)
    assert big.contains(big)


def test_classes_and_hasse():
    p = closed_preposet(4, [(1, 2), (2, 1), (1, 3), (3, 4)])
    assert p.classes == (frozenset({1, 2}), frozenset({3}), frozenset({4}))
    assert p.hasse_edges == ((0, 1), (1, 2))
    assert p.hasse_is_forest


def test_diamond_is_not_forest():
    p = closed_preposet(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert not p.hasse_is_forest


def test_contract_hasse_edge():
    p = closed_preposet(3, [(1, 2), (2, 3)])
    q = p.contract_hasse_edge(0)
    assert q.le(1, 2) and q.le(2, 1)
    assert q.le(1, 3) and not q.le(3, 1)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=d),
                    st.integers(min_value=1, max_value=d),
                ),
                max_size=10,
            ),
        )
    )
)
def test_closure_matches_naive_oracle(data):
    d, pairs = data
    fast = closed_preposet(d, pairs)
    naive = transitive_closure_pairs(d, pairs)
    assert frozenset(fast.pairs()) == naive


def test_ground_set_mismatch():
    with pytest.raises(ValueError):
        closed_preposet(2, []).contains(closed_preposet(3, []))
    with pytest.raises(ValueError):
        closed_preposet(3, []).contains(closed_preposet(2, []))


@pytest.mark.parametrize("kind, m, n", [("painted", 1, 2), ("shade", 1, 2), ("painted", 0, 3)])
def test_packed_contains_matches_row_oracle(kind, m, n):
    pres = [o.preposet for o in build_refinement_poset(kind, m, n).elements]
    for s in pres:
        for o in pres:
            rowwise = all(b & ~a == 0 for a, b in zip(s.rows, o.rows))
            assert s.contains(o) == rowwise, (s, o)


# -- oracles: the fixpoint closure and the O(k^3) reduction -------------------------


def fixpoint_close(rows):
    """The former closure: OR in the row of every reached element, rescanning
    until nothing changes."""
    rows = list(rows)
    d = len(rows)
    for i in range(d):
        rows[i] |= 1 << i
    changed = True
    while changed:
        changed = False
        for i in range(d):
            row = rows[i]
            acc = row
            m = row
            while m:
                j = (m & -m).bit_length() - 1
                acc |= rows[j]
                m &= m - 1
            if acc != row:
                rows[i] = acc
                changed = True
    return tuple(rows)


def pairs_closure(d, pairs):
    rows = [0] * d
    for i, j in pairs:
        rows[i - 1] |= 1 << (j - 1)
    return fixpoint_close(rows)


def oracle_classes(p):
    seen = 0
    out = []
    for i in range(p.d):
        if seen >> i & 1:
            continue
        mask = 0
        for j in range(p.d):
            if p.rows[i] >> j & 1 and p.rows[j] >> i & 1:
                mask |= 1 << j
        seen |= mask
        out.append(frozenset(j + 1 for j in range(p.d) if mask >> j & 1))
    return tuple(out)


def oracle_hasse_edges(p):
    """Class a covered by class b: below, and below nothing in between."""
    reps = [min(c) for c in oracle_classes(p)]
    k = len(reps)
    below = [
        [a != b and p.le(reps[a], reps[b]) and not p.le(reps[b], reps[a]) for b in range(k)]
        for a in range(k)
    ]
    return tuple(
        (a, b)
        for a in range(k)
        for b in range(k)
        if below[a][b] and not any(below[a][c] and below[c][b] for c in range(k))
    )


def oracle_contraction(p, edge_index):
    """Add every pair of class b below class a, then close again."""
    a, b = oracle_hasse_edges(p)[edge_index]
    classes = oracle_classes(p)
    rows = list(p.rows)
    for y in classes[b]:
        for x in classes[a]:
            rows[y - 1] |= 1 << (x - 1)
    return fixpoint_close(rows)


def oracle_chain(d, order):
    order = list(order)
    return pairs_closure(d, [(order[a], order[b]) for a in range(d) for b in range(a + 1, d)])


def assert_matches_oracles(p):
    assert p.classes == oracle_classes(p)
    assert p.hasse_edges == oracle_hasse_edges(p)
    for e in range(len(p.hasse_edges)):
        assert p.contract_hasse_edge(e).rows == oracle_contraction(p, e), (p, e)


def pair_lists(d):
    return st.lists(
        st.tuples(st.integers(min_value=1, max_value=d), st.integers(min_value=1, max_value=d)),
        max_size=12,
    )


relations = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.tuples(st.just(d), pair_lists(d))
)


@given(relations)
def test_kernel_matches_fixpoint_oracles(data):
    d, pairs = data
    p = closed_preposet(d, pairs)
    assert p.rows == pairs_closure(d, pairs)
    assert_matches_oracles(p)


@pytest.mark.parametrize("m, n", [(m, s - m) for s in range(1, 5) for m in range(s + 1)])
def test_painted_and_shade_preposets_match_oracles(m, n):
    for obj in [*enum_painted_trees(m, n), *enum_lighted_shades(m, n)]:
        assert_matches_oracles(obj.preposet)


@pytest.mark.parametrize("d", range(1, 6))
def test_chain_matches_pair_built_oracle(d):
    for order in permutations(range(1, d + 1)):
        assert Preposet.chain(d, order).rows == oracle_chain(d, order)


# -- the representative-mask Hasse pass against the frozenset-class route ---------

DIAMOND = closed_preposet(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
# the diamond with a class {1, 5} at the bottom, so not antisymmetric
FAT_DIAMOND = closed_preposet(5, [(1, 5), (5, 1), (1, 2), (1, 3), (2, 4), (3, 4)])


def hasse_views(p):
    assert p.hasse_edge_count == len(p.hasse_edges)
    contractions = [p.contract_hasse_edge(e).rows for e in range(p.hasse_edge_count)]
    return p.hasse_edges, p.hasse_is_forest, contractions


@pytest.mark.parametrize("d", range(1, 6))
def test_hasse_pass_matches_the_frozenset_class_route(d):
    for m in range(d + 1):
        for obj in [*enum_lighted_shades(m, d - m), *enum_painted_trees(m, d - m)]:
            assert hasse_views(obj.preposet) == frozenset_class_hasse(obj.preposet), obj


@pytest.mark.parametrize("p", [DIAMOND, FAT_DIAMOND], ids=["diamond", "fat_diamond"])
def test_hasse_pass_matches_the_frozenset_class_route_on_diamonds(p):
    assert hasse_views(p) == frozenset_class_hasse(p)
    assert not p.hasse_is_forest


@given(relations)
def test_antisymmetry_and_linear_extensions_match_the_chains(data):
    d, pairs = data
    p = closed_preposet(d, pairs)
    assert p.is_antisymmetric == (len(p.classes) == d)
    chains = [Preposet.chain(d, order) for order in permutations(range(1, d + 1))]
    assert p.linear_extension_count() == sum(1 for c in chains if c.contains(p))


@pytest.mark.parametrize("d", range(6))
def test_a_chain_counts_one_extension_with_no_down_set_pass(d):
    for order in permutations(range(1, d + 1)):
        p = Preposet.chain(d, order)
        assert p.linear_extension_count() == 1
        assert "down_rows" not in p.__dict__, order


@pytest.mark.parametrize("d", range(2, 6))
def test_a_chain_with_one_cover_dropped_or_made_mutual_goes_through_the_down_sets(d):
    # dropping a cover x < y of a chain leaves it closed with two extensions;
    # adding y <= x merges a class and leaves none
    chains = [Preposet.chain(d, order) for order in permutations(range(1, d + 1))]
    for order in permutations(range(1, d + 1)):
        rows = list(Preposet.chain(d, order).rows)
        for x, y in zip(order, order[1:]):
            dropped = rows[:x - 1] + [rows[x - 1] & ~(1 << y - 1)] + rows[x:]
            merged = rows[:y - 1] + [rows[x - 1]] + rows[y:]
            for near, count in ((dropped, 2), (merged, 0)):
                p = Preposet(d, tuple(near))
                assert p.linear_extension_count() == count
                assert count == sum(1 for c in chains if c.contains(p))
                assert "down_rows" in p.__dict__, (order, x, y)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.tuples(st.just(d), pair_lists(d), pair_lists(d))
))
def test_row_inverted_pairs_match_the_le_route(data):
    # preposets with classes too, where i below j does not rule out j below i
    d, lo_pairs, hi_pairs = data
    lo, hi = closed_preposet(d, lo_pairs), closed_preposet(d, hi_pairs)
    assert inverted_pairs(lo, hi) == le_inverted_pairs(lo, hi)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.tuples(st.just(d), pair_lists(d), pair_lists(d))
))
def test_the_single_flip_matches_the_inverted_pairs_both_ways(data):
    d, lo_pairs, hi_pairs = data
    lo, hi = closed_preposet(d, lo_pairs), closed_preposet(d, hi_pairs)
    flips, back = inverted_pairs(lo, hi), inverted_pairs(hi, lo)
    assert _single_flip(lo, hi) == (flips[0] if len(flips) == 1 and not back else None)


# -- the set-bit iterator and the canonical relabeling ------------------------------

BIT_MASKS = [
    0,
    1,
    1 << 24,
    0b1011001,
    (1 << 25) - 1,
    1 << 699,
    1 | 1 << 350 | 1 << 699,
    sum(1 << b for b in range(0, 700, 97)),
    (1 << 700) - 1,
    (1 << 700) - 1 ^ 1 << 333,
    int("10" * 350, 2),
]


@pytest.mark.parametrize("mask", BIT_MASKS, ids=lambda k: f"{k.bit_length()}b{k.bit_count()}")
def test_bits_matches_a_range_scan(mask):
    assert list(_bits(mask)) == [b for b in range(mask.bit_length()) if mask >> b & 1]


def _relabeled_by_sort(rows, m):
    """The rows relabeled pair by pair, labels sorted by (popcount, label)."""
    order = sorted(range(m), key=lambda i: (rows[i].bit_count(), i))
    sigma = [0] * len(rows)
    for k, i in enumerate(order):
        sigma[i] = k
    sigma[m:] = range(m, len(rows))
    return relabeled_rows(rows, sigma)


@given(relations, st.integers(min_value=0, max_value=6))
def test_canonical_relabeling_matches_the_pair_route(data, m):
    d, pairs = data
    m = min(m, d)
    rows = closed_preposet(d, pairs).rows
    canonical = relabel_canonically(rows, m)
    assert canonical == _relabeled_by_sort(rows, m)
    assert relabel_canonically(canonical, m) == canonical
    counts = [row.bit_count() for row in rows[:m]]
    assert (canonical == rows) == (counts == sorted(counts))


@pytest.mark.parametrize("m, n", [(m, s - m) for s in range(2, 6) for m in range(2, s + 1)])
def test_the_canonical_form_stays_in_the_label_orbit(m, n):
    # the canonical form lies in the face's label orbit and is a fixed point
    for ls in enum_lighted_shades(m, n):
        rows = ls.preposet.rows
        orbit = label_orbit(rows, m)
        assert relabel_canonically(rows, m) in orbit
        assert all(relabel_canonically(other, m) in orbit for other in orbit)
