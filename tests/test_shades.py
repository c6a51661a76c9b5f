import json
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from hochschild_kit.painted import enum_painted_trees
from hochschild_kit.preposets import relabel_canonically
from hochschild_kit.shades import (
    LightedShade,
    canonical_shades,
    enum_lighted_shades,
    sequence_rank,
    unary_lighted_shades,
)
from hochschild_kit.tables import _shade_rank_histogram

from oracles import (
    clause_shade_preposet,
    light_position,
    relabeled_rows,
    relabeled_shade,
    refinement_covers_down,
    rotation_successors,
    sorted_shade_json,
    transitive_closure_pairs,
)

UNARY_COUNTS = {(1, 3): 12, (0, 4): 8, (2, 2): 18, (3, 0): 6, (1, 0): 1}
FACE_COUNTS = {(1, 3): 39, (0, 3): 9, (2, 2): 57, (2, 0): 3, (1, 6): 1539}


def S(m, n, *entries):
    return LightedShade(m, n, [(vals, set(lights)) for vals, lights in entries])


@pytest.mark.parametrize("mn,count", sorted(UNARY_COUNTS.items()))
def test_unary_counts(mn, count):
    assert len(unary_lighted_shades(*mn)) == count


@pytest.mark.parametrize("mn,count", sorted(FACE_COUNTS.items()))
def test_face_counts(mn, count):
    assert len(enum_lighted_shades(*mn)) == count


def test_rank_examples():
    assert S(0, 3, ((1, 1, 1), ())).rank == 2
    assert S(0, 3, ((2, 1), ())).rank == 1
    assert S(0, 3, ((3,), ())).rank == 0
    assert S(1, 3, ((), (1,)), ((1,), ()), ((1,), ()), ((1,), ())).rank == 0


def test_preposet_single_tuple():
    # one entry of value 3: everything below its preceding sum
    assert sorted(S(0, 3, ((3,), ())).preposet.pairs()) == [(1, 3), (2, 3)]


def test_preposet_complete_for_full_tuple():
    pre = S(0, 3, ((1, 1, 1), ())).preposet
    assert sorted(pre.pairs()) == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)
    ]


def test_preposet_two_one():
    assert sorted(S(0, 3, ((2, 1), ())).preposet.pairs()) == [
        (1, 2), (1, 3), (2, 3), (3, 2)
    ]


def _naive_shade_preposet_pairs(ls):
    """Oracle: generate the four clause families directly, close naively."""
    m = ls.m
    pairs = []
    positions = light_position(ls)
    flat = ls.flat_entries
    for i in positions:
        for j in positions:
            if i != j and positions[i] >= positions[j]:
                pairs.append((i, j))
    for (xp, _, xv, xs) in flat:
        for (yp, _, _, ys) in flat:
            if xp >= yp:
                pairs += [(k, ys) for k in range(xs - xv + 1, xs + 1)]
    for i, cp in positions.items():
        for (xp, _, xv, xs) in flat:
            if xp <= cp:
                pairs.append((i, xs))
            if xp >= cp:
                pairs += [(k, i) for k in range(xs - xv + 1, xs + 1)]
    return transitive_closure_pairs(m + ls.n, pairs)


@pytest.mark.parametrize("mn", [(1, 2), (2, 1), (2, 2), (0, 4), (1, 3)])
def test_preposet_matches_untangled_oracle(mn):
    for ls in enum_lighted_shades(*mn):
        assert frozenset(ls.preposet.pairs()) == _naive_shade_preposet_pairs(ls)


def test_hasse_is_forest_everywhere():
    for m, n in [(1, 3), (2, 2), (3, 1), (0, 4)]:
        for ls in enum_lighted_shades(m, n):
            assert ls.preposet.hasse_is_forest


def test_unary_hasse_has_full_edge_count():
    for m, n in [(1, 3), (2, 2), (0, 4), (3, 1)]:
        for ls in unary_lighted_shades(m, n):
            assert len(ls.preposet.hasse_edges) == m + n - 1


def test_mu_restriction_reads_top_down():
    for ls in unary_lighted_shades(2, 2):
        pre = ls.preposet
        upper, lower = (min(p) for p in ls.mu)
        assert pre.le(lower, upper) and not pre.le(upper, lower)


def test_refinement_covers_examples():
    covers = refinement_covers_down(S(0, 3, ((3,), ())))
    assert {c.entries for c in covers} == {
        (((2, 1), frozenset()),),
        (((1, 2), frozenset()),),
    }
    covers = refinement_covers_down(S(0, 3, ((1,), ()), ((2,), ())))
    assert (((1, 2), frozenset()),) in {c.entries for c in covers}


def test_refinement_moves_grow_preposet():
    for m, n in [(1, 2), (2, 2), (0, 4)]:
        for ls in enum_lighted_shades(m, n):
            for cov in refinement_covers_down(ls):
                cov.validate()
                assert cov.rank == ls.rank + 1
                assert cov.preposet.contains(ls.preposet)
                assert cov.preposet != ls.preposet


def test_rotation_successors_of_single_tuple():
    succ = rotation_successors(S(0, 3, ((3,), ())))
    assert {tuple(v[0][0] for v in s.entries) for s in succ} == {(1, 2), (2, 1)}


def test_rotation_graph_is_regular():
    for m, n in [(1, 3), (2, 2), (0, 5), (3, 1), (2, 3)]:
        shades = unary_lighted_shades(m, n)
        degree = {ls: 0 for ls in shades}
        for ls in shades:
            for succ in rotation_successors(ls):
                degree[ls] += 1
                degree[succ] += 1
        assert all(d == m + n - 1 for d in degree.values())


def test_label_swap_needs_small_below():
    # big label above small: swapping passes the small one up (a successor);
    # the reverse configuration admits no label swap
    ls = S(2, 0, ((), (2,)), ((), (1,)))
    swapped = S(2, 0, ((), (1,)), ((), (2,)))
    assert swapped in rotation_successors(ls)
    assert not rotation_successors(swapped)


def test_parameters_rejected_with_the_painted_messages():
    for enum in (enum_lighted_shades, enum_painted_trees):
        with pytest.raises(ValueError, match=r"need m >= 0, n >= 0 and m \+ n >= 1"):
            enum(0, 0)
        with pytest.raises(ValueError, match=r"rank must lie in \[0, 3\]"):
            enum(1, 3, rank=4)
    with pytest.raises(ValueError, match=r"need m >= 0, n >= 0 and m \+ n >= 1"):
        unary_lighted_shades(-1, 2)


def test_validation_errors():
    with pytest.raises(ValueError):
        S(0, 3, ((2,), ())).validate()  # sum mismatch
    with pytest.raises(ValueError):
        S(1, 1, ((), ()), ((1,), (1,))).validate()  # naked empty tuple
    with pytest.raises(ValueError):
        S(1, 1, ((1,), ())).validate()  # lights missing


@given(st.sampled_from(list(range(20))))
def test_json_round_trip(seed):
    shades = enum_lighted_shades(2, 2)
    ls = shades[seed % len(shades)]
    assert LightedShade.from_json_obj(ls.to_json_obj()) == ls


@pytest.mark.parametrize("d", range(1, 7))
def test_row_built_preposet_matches_the_clause_route(d):
    # every shade with m + n <= 6: 18,141 in all
    count = 0
    for m in range(d + 1):
        for ls in enum_lighted_shades(m, d - m):
            assert ls.preposet.rows == clause_shade_preposet(ls).rows, ls
            count += 1
    assert count == {1: 2, 2: 9, 3: 46, 4: 273, 5: 1914, 6: 15897}[d]


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 6) for m in range(s + 1)])
def test_views_match_the_sorted_route(mn):
    for ls in enum_lighted_shades(*mn):
        assert ls.size == len(ls.entries)
        assert ls.to_json_obj() == sorted_shade_json(ls)
        assert ls.canonical() == json.dumps(sorted_shade_json(ls), separators=(",", ":"))


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 6) for m in range(s + 1)])
def test_unary_shades_share_their_light_sets(mn):
    # one empty set and one singleton per label, however many shades
    m, n = mn
    shades = unary_lighted_shades(m, n)
    assert len({id(lights) for ls in shades for _, lights in ls.entries}) <= m + 1


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 6) for m in range(s + 1)])
def test_shades_of_every_rank_share_their_light_sets(mn):
    # within one enumeration, each distinct light set is one object
    m, n = mn
    for rank in [None, *range(m + n)]:
        sets = [lights for ls in enum_lighted_shades(m, n, rank) for _, lights in ls.entries]
        assert len({id(lights) for lights in sets}) == len(set(sets)), rank


# -- the orbit stream ---------------------------------------------------------------


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 7) for m in range(s + 1)])
def test_relabeled_representatives_are_the_cell_rank_by_rank(mn):
    m, n = mn
    sigmas = list(permutations(range(m)))
    orbits = {rank: [] for rank in range(m + n)}
    for ls, size in canonical_shades(m, n):
        orbit = {relabeled_shade(ls, sigma) for sigma in sigmas}
        assert len(orbit) == size, ls
        orbits[ls.rank].append(orbit)
    for rank, parts in orbits.items():
        cell = set(enum_lighted_shades(m, n, rank))
        assert set().union(*parts) == cell and sum(map(len, parts)) == len(cell), rank


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 8) for m in range(s + 1)])
def test_representatives_are_their_own_canonical_form(mn):
    m, n = mn
    reps = [ls for ls, _ in canonical_shades(m, n)]
    rows = [ls.preposet.rows for ls in reps]
    assert all(relabel_canonically(r, m) == r for r in rows)
    assert len(set(reps)) == len(set(rows)) == len(reps)
    if m + n <= 6:  # in canonical order, as a part of the cell
        chosen = set(reps)
        assert reps == [ls for ls in enum_lighted_shades(m, n) if ls in chosen]


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 9) for m in range(s + 1)])
def test_a_rank_filtered_stream_is_the_stream_filtered(mn):
    m, n = mn
    stream = [(ls.entries, size) for ls, size in canonical_shades(m, n)]
    for rank in range(m + n):
        got = [(ls.entries, size) for ls, size in canonical_shades(m, n, rank)]
        want = [
            (entries, size)
            for entries, size in stream
            if sequence_rank(m, [vals for vals, _ in entries]) == rank
        ]
        assert got == want, rank
    with pytest.raises(ValueError):
        canonical_shades(m, n, m + n)


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 9) for m in range(s + 1)])
def test_orbit_sizes_sum_to_the_census(mn):
    m, n = mn
    sizes = Counter()
    for ls, size in canonical_shades(m, n):
        sizes[ls.rank] += size
    assert tuple(sizes[rank] for rank in range(m + n)) == _shade_rank_histogram(m, n)


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 6) for m in range(s + 1)])
def test_the_preposet_commutes_with_relabeling(mn):
    m, n = mn
    rest = tuple(range(m, m + n))
    sigmas = list(permutations(range(m)))
    for ls in enum_lighted_shades(m, n):
        for sigma in sigmas:
            assert relabeled_shade(ls, sigma).preposet.rows == relabeled_rows(
                ls.preposet.rows, sigma + rest
            ), (ls, sigma)
