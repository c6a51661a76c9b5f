import subprocess
import sys
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest

from hochschild_kit.cubic import HochschildWord, enum_words, shade_to_word, word_to_shade
from hochschild_kit.posets import (
    FinitePoset,
    MorphismCheckReport,
    build_refinement_poset,
    build_rotation_poset,
    check_congruence_projection,
    check_meet_morphism,
    is_cyclotomic_product,
    lattice_analytics,
    rotation_poset,
    word_subposet,
)
from hochschild_kit import painted, posets, shades
from hochschild_kit.families import family
from hochschild_kit.painted import binary_painted_trees, enum_painted_trees
from hochschild_kit.shades import enum_lighted_shades, unary_lighted_shades
from hochschild_kit.shadow import shadow

from oracles import (
    inverted_pairs,
    key_sorted,
    move_refinement_poset,
    poset_from_moves,
    rank_vector,
    refinement_covers_down,
    rotation_successors,
    row_certificate,
    successor_rotation_poset,
    table_lattice_flags,
    table_morphism_check,
    transitive_closure_pairs,
)


def pentagon():
    return FinitePoset(["bot", "a", "b1", "b2", "top"],
                       [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])


def diamond_m3():
    return FinitePoset(["bot", "a", "b", "c", "top"],
                       [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def vee():
    """Bounded below, two maxima: no join of the two tops."""
    return FinitePoset(["bot", "x", "y"], [(0, 1), (0, 2)])


def test_meet_join_on_pentagon():
    p = pentagon()
    assert p.is_lattice
    assert p.meet("a", "b2") == "bot"
    assert p.join("a", "b1") == "top"
    assert p.meet("b1", "b2") == "b1"
    assert p.meet("a", "a") == "a"


def test_meet_join_against_brute_force():
    p = build_rotation_poset("shade", 2, 2)
    meets = p._bound_table(p.down)
    for a in range(p.n):
        for b in range(p.n):
            lower = [c for c in range(p.n) if p.le(c, a) and p.le(c, b)]
            maxima = [c for c in lower if not any(p.le(c, d) for d in lower if d != c)]
            expected = maxima[0] if len(maxima) == 1 else -1
            assert meets[a][b] == expected


def test_semidistributivity_flags():
    assert pentagon().is_meet_semidistributive
    assert pentagon().is_join_semidistributive
    assert not diamond_m3().is_meet_semidistributive
    assert not diamond_m3().is_join_semidistributive


def test_from_leq_order_is_the_given_closed_rows():
    # the covers alone fix the order, so closing them gives the rows back
    for total in range(1, 6):
        for m in range(total + 1):
            words = enum_words(m, total - m)
            rows = tuple(
                sum(1 << b for b, v in enumerate(words) if all(x <= y for x, y in zip(w, v)))
                for w in words
            )
            assert FinitePoset.from_leq(words, rows).leq == rows, (m, total - m)
            assert word_subposet(m, total - m).leq == rows, (m, total - m)


def test_from_leq_rejects_a_relation_that_is_not_antisymmetric():
    # x and y are each below the other, so the reduction has no order to reduce
    with pytest.raises(ValueError, match="not antisymmetric"):
        FinitePoset.from_leq(["x", "y"], [0b11, 0b11])


# -- naive oracle for the bitset order kernel ----------------------------------------


def naive_order(p):
    """The order as a predicate on indices, by Warshall closure of the covers."""
    pairs = transitive_closure_pairs(p.n, [(lo + 1, hi + 1) for lo, hi in p.covers])
    below = {(a - 1, b - 1) for a, b in pairs}
    return lambda a, b: a == b or (a, b) in below


def naive_bound_table(p, le, upper):
    """Meets (joins if upper) as the unique maximal common lower bound, else -1."""
    below = (lambda a, b: le(b, a)) if upper else le
    table = []
    for a in range(p.n):
        row = []
        for b in range(p.n):
            common = [c for c in range(p.n) if below(c, a) and below(c, b)]
            best = [c for c in common if not any(below(c, d) for d in common if d != c)]
            row.append(best[0] if len(best) == 1 else -1)
        table.append(row)
    return table


def naive_sd_violations(prim, other):
    """All triples (a, b, c) with a.b = a.c != a.(b + c), by a triple loop."""
    n = len(prim)
    return {
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if prim[a][b] == prim[a][c] and prim[a][other[b][c]] != prim[a][b]
    }


def oracle_posets():
    yield pytest.param(pentagon(), id="pentagon")
    yield pytest.param(diamond_m3(), id="M3")
    for total in range(1, 5):
        for m in range(total + 1):
            for kind in ("painted", "shade"):
                p = build_rotation_poset(kind, m, total - m)
                yield pytest.param(p, id=f"{kind}({m},{total - m})")
    # refinement posets have a minimum but many maximal elements: joins are missing
    yield pytest.param(build_refinement_poset("shade", 1, 2), id="refinement shade(1,2)")


@pytest.mark.parametrize("p", oracle_posets())
def test_kernel_matches_naive_oracle(p):
    le = naive_order(p)
    for a in range(p.n):
        for b in range(p.n):
            assert p.le(a, b) == le(a, b)
            assert (p.down[b] >> a & 1 == 1) == le(a, b)
    meet = naive_bound_table(p, le, upper=False)
    join = naive_bound_table(p, le, upper=True)
    assert [list(row) for row in p._bound_table(p.down)] == meet
    assert [list(row) for row in p._bound_table(p.leq)] == join
    lattice = p.is_bounded and all(-1 not in row for row in meet + join)
    assert p.is_lattice == lattice
    for side, prim, other in (("meet", meet, join), ("join", join, meet)):
        if not lattice:
            with pytest.raises(ValueError):
                p.semidistributive_counterexample(side)
            continue
        violations = naive_sd_violations(prim, other)
        found = p.semidistributive_counterexample(side)
        if not violations:
            assert found is None
        else:
            assert found is not None
            assert tuple(p.index(e) for e in found) in violations


def test_refinement_oracle_poset_misses_joins():
    ref = build_refinement_poset("shade", 1, 2)
    assert not ref.is_lattice
    assert any(-1 in row for row in ref._bound_table(ref.leq))
    assert all(-1 not in row for row in ref._bound_table(ref.down))


def test_cached_posets_are_immutable_and_non_lattices_raise():
    p = build_rotation_poset("shade", 1, 2)
    tables = (p._bound_table(p.down), p._bound_table(p.leq))
    for value in (p.elements, p.covers, p.leq, p.down, *tables):
        assert isinstance(value, tuple)
    for table in tables:
        assert all(isinstance(row, tuple) for row in table)
        with pytest.raises(TypeError):
            table[0][0] = -1
    # a V shape: bounded below, two maxima, so no join of the two tops
    v = vee()
    assert not v.is_lattice
    for side in ("meet", "join"):
        with pytest.raises(ValueError):
            v.semidistributive_counterexample(side)
    assert not v.is_meet_semidistributive and not v.is_join_semidistributive


def test_rotation_poset_shapes():
    hoch = build_rotation_poset("shade", 1, 3)
    assert hoch.n == 12 and hoch.is_lattice
    assert len(hoch.minimal_elements) == 1 and len(hoch.maximal_elements) == 1
    tamari = build_rotation_poset("painted", 0, 3)
    assert tamari.n == 5 and len(tamari.covers) == 5
    boolean = build_rotation_poset("shade", 0, 4)
    assert boolean.n == 8
    assert boolean.height == 3
    assert len(boolean.join_irreducibles) == 3


def test_rotation_lattices_small():
    for kind in ("painted", "shade"):
        for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (0, 4)]:
            assert build_rotation_poset(kind, m, n).is_lattice


def test_painted_semidistributivity_pattern():
    # join side always holds; the meet side fails once m >= 1 and n >= 3
    for m, n, expect_meet in [(1, 2, True), (2, 2, True), (1, 3, False), (2, 3, False)]:
        p = build_rotation_poset("painted", m, n)
        assert p.is_join_semidistributive
        assert p.is_meet_semidistributive == expect_meet


def test_refinement_poset_counts_and_grading():
    shade = build_refinement_poset("shade", 1, 3)
    assert shade.n == 39
    painted = build_refinement_poset("painted", 1, 3)
    assert painted.n == 67
    assert rank_vector(shade) is not None
    assert rank_vector(pentagon()) is None
    assert shade.bottom is not None
    assert len(shade.maximal_elements) == 12


VIEWS_READ_ONCE = ("key", "cuts", "tree", "k", "size")


@pytest.mark.parametrize("mn", [(m, s - m) for s in range(1, 5) for m in range(s + 1)])
def test_faces_store_no_view_read_once(mn):
    # a poset keeps its faces for the whole process, so each keeps only its
    # defining form, whichever enumerator, builder or view has read it
    m, n = mn
    objs = [*binary_painted_trees(m, n), *unary_lighted_shades(m, n)]
    for rank in (None, *range(m + n)):
        objs += enum_painted_trees(m, n, rank=rank) + enum_lighted_shades(m, n, rank=rank)
    for kind in ("painted", "shade"):
        objs += build_rotation_poset(kind, m, n).elements
        objs += build_refinement_poset(kind, m, n).elements
    for obj in objs:
        obj.canonical()
        for name in VIEWS_READ_ONCE:
            getattr(obj, name, None)
        assert not set(VIEWS_READ_ONCE) & set(vars(obj)), obj


def containment_refinement_poset(kind, m, n):
    """Oracle: the refinement order read off preposet containment.

    a is below b iff b's relation is contained in a's; the covers are the
    transitive reduction of that relation, not the coarsening moves.
    """
    objs = enum_painted_trees(m, n) if kind == "painted" else enum_lighted_shades(m, n)
    keys = [o.preposet.packed for o in objs]
    up = [sum(1 << b for b, kb in enumerate(keys) if kb & ~ka == 0) for ka in keys]
    return FinitePoset.from_leq(objs, up)


def same_poset(p, q) -> bool:
    return (p.elements, p.covers, p.leq, p.down) == (q.elements, q.covers, q.leq, q.down)


def object_moves(oracle):
    """Each element's refinement moves as the indices of the objects the
    object route builds (`refinement_covers_down`)."""
    return [[oracle.index(r) for r in refinement_covers_down(obj)] for obj in oracle.elements]


def index_moves(kind, oracle):
    """Each element's refinement moves as the indices the family's route
    reads off its moves (`Family.refinement_covers`), in the order it lists
    them."""
    moves = [[] for _ in range(oracle.n)]
    for lo, hi in family(kind).refinement_covers(oracle.elements):
        moves[hi].append(lo)
    return moves


def move_mismatch(oracle, moves):
    """The first object whose moves are not exactly its lower covers in the
    oracle, each once, or None."""
    below = [set() for _ in range(oracle.n)]
    for lo, hi in oracle.covers:
        below[hi].add(lo)
    for i, obj in enumerate(oracle.elements):
        if len(moves[i]) != len(set(moves[i])) or set(moves[i]) != below[i]:
            return obj
    return None


CELLS_TO_5 = [(m, t - m) for t in range(1, 6) for m in range(t + 1)]


def test_refinement_order_equals_move_reachability():
    for m, n in CELLS_TO_5:
        for kind in ("painted", "shade"):
            ref = build_refinement_poset(kind, m, n)
            assert same_poset(ref, containment_refinement_poset(kind, m, n)), (kind, m, n)


@pytest.mark.parametrize("m, n", CELLS_TO_5)
def test_moves_are_exactly_the_refinement_covers(m, n):
    # the moves give each object's lower covers in the containment order once
    # each, and the rotations are the edges of the polytope: the pairs of
    # rank-0 objects above a common rank-1 object
    for kind in ("painted", "shade"):
        ref = containment_refinement_poset(kind, m, n)
        assert move_mismatch(ref, object_moves(ref)) is None, kind
        assert move_mismatch(ref, index_moves(kind, ref)) is None, kind
        below = [0] * ref.n
        for lo, hi in ref.covers:
            if ref.elements[lo].rank == 1:
                below[hi] |= 1 << lo
        vertices = [i for i, o in enumerate(ref.elements) if o.rank == 0]
        edges = {frozenset((a, b)) for a, b in combinations(vertices, 2) if below[a] & below[b]}
        rotations = {
            frozenset((i, ref.index(r)))
            for i in vertices
            for r in rotation_successors(ref.elements[i])
        }
        assert rotations == edges, kind


@pytest.mark.parametrize("m, n", CELLS_TO_5)
def test_moves_match_the_key_sorted_oracle(m, n):
    # the moves come in generation order, each once.  Sorted by key, the
    # refinement moves are the lower covers of the containment order, and
    # the rotations are the polytope edges at a vertex that invert a pair
    for kind in ("painted", "shade"):
        ref = containment_refinement_poset(kind, m, n)
        below = [[] for _ in range(ref.n)]
        for lo, hi in ref.covers:
            below[hi].append(ref.elements[lo])
        edge_ends = [0] * ref.n
        for lo, hi in ref.covers:
            if ref.elements[lo].rank == 1:
                edge_ends[hi] |= 1 << lo
        vertices = [o for o in ref.elements if o.rank == 0]
        for i, obj in enumerate(ref.elements):
            moves = refinement_covers_down(obj)
            assert len(set(moves)) == len(moves), obj
            assert key_sorted(moves) == key_sorted(below[i]), obj
            if obj.rank == 0:
                succ = rotation_successors(obj)
                assert len(set(succ)) == len(succ), obj
                edges = [
                    v for v in vertices
                    if v != obj and edge_ends[i] & edge_ends[ref.index(v)]
                    and inverted_pairs(obj.preposet, v.preposet)
                ]
                assert key_sorted(succ) == key_sorted(edges), obj


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_a_dropped_move_fails_the_refinement_oracle(monkeypatch, kind):
    # the family's route loses the first cover it lists below one object
    # with more than one move
    module = painted if kind == "painted" else shades
    real = module.refinement_covers
    oracle = containment_refinement_poset(kind, 1, 2)
    moves = index_moves(kind, oracle)
    victim = next(i for i, below in enumerate(moves) if len(below) > 1)

    def dropped(objs):
        covers = real(objs)
        covers.remove(next(pair for pair in covers if pair[1] == victim))
        return covers

    monkeypatch.setattr(module, "refinement_covers", dropped)
    assert move_mismatch(oracle, index_moves(kind, oracle)) == oracle.elements[victim]
    assert not same_poset(build_refinement_poset.__wrapped__(kind, 1, 2), oracle)


REFINEMENT_CELLS = [(m, t - m) for t in range(1, 7) for m in range(t + 1)]


@pytest.mark.parametrize("kind", ["painted", "shade"])
@pytest.mark.parametrize("m, n", REFINEMENT_CELLS)
def test_refinement_covers_match_the_object_route(kind, m, n):
    # the covers read off moves as index pairs are the moves built as
    # objects and hashed back to their indices, on the same elements
    objs = family(kind).enum(m, n)
    fast = set(family(kind).refinement_covers(objs))
    assert fast == set(move_refinement_poset(kind, m, n).covers)
    assert FinitePoset(objs, fast).covers == build_refinement_poset(kind, m, n).covers


@pytest.mark.parametrize(
    "corrupt", ["labelings swapped", "foreign tree", "partial orbit", "orbit repeated"]
)
def test_painted_refinement_covers_check_the_layout(corrupt):
    objs = enum_painted_trees(3, 1)
    first = next(i for i, pt in enumerate(objs) if len(pt.parts) == 3)  # 6 labelings per shape
    message = "not labeling"
    if corrupt == "labelings swapped":
        objs[first + 1], objs[first + 2] = objs[first + 2], objs[first + 1]
    elif corrupt == "foreign tree":
        objs[first + 1] = objs[first + 7]
    elif corrupt == "partial orbit":
        objs = objs[:first + 3]
    else:
        # every block is a whole orbit in order, but one shape comes twice
        objs = objs + objs[first:first + 6]
        message = f"tree {len(objs) - 6} repeats the shape of tree {first}"
    with pytest.raises(ValueError, match=message):
        painted.refinement_covers(objs)


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_a_refinement_move_outside_the_objects_raises(kind):
    # the finest faces alone: every move reaches a coarser face, which is missing
    objs = family(kind).vertices(2, 1)
    with pytest.raises(ValueError, match="which is not an element"):
        family(kind).refinement_covers(objs)


ROTATION_CELLS = [(m, t - m) for t in range(1, 7) for m in range(t + 1)] + [(3, 4), (6, 1)]


@pytest.mark.parametrize("kind", ["painted", "shade"])
@pytest.mark.parametrize("m, n", ROTATION_CELLS)
def test_rotation_covers_match_the_successor_route(kind, m, n):
    # the covers read off shape moves are the successors built as objects
    # and hashed back to their indices, on the same elements in the same order
    fast, oracle = rotation_poset(kind, m, n), successor_rotation_poset(kind, m, n)
    assert fast.elements == oracle.elements
    assert fast.covers == oracle.covers


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_rotation_covers_follow_any_order_of_the_orbits(kind):
    # painted vertices may come in any order of their shapes, shades in any
    # order at all; the covers follow the elements
    m, n = 2, 2
    objs = binary_painted_trees(m, n) if kind == "painted" else unary_lighted_shades(m, n)
    orbits = [objs[i:i + 2] for i in range(0, len(objs), 2)]
    moved = [o for orbit in reversed(orbits) for o in orbit] if kind == "painted" else objs[::-1]
    rotations = painted.rotation_covers if kind == "painted" else shades.rotation_covers
    oracle = poset_from_moves(moved, ((o, r) for o in moved for r in rotation_successors(o)))
    assert FinitePoset(moved, rotations(moved)).covers == oracle.covers


@pytest.mark.parametrize("corrupt", ["labelings swapped", "foreign vertex", "partial orbit"])
def test_painted_rotation_covers_check_the_layout(corrupt):
    objs = binary_painted_trees(3, 1)  # 6 labelings per shape
    if corrupt == "labelings swapped":
        objs[1], objs[2] = objs[2], objs[1]
    elif corrupt == "foreign vertex":
        objs[1] = objs[7]
    else:
        objs = objs[:-1]
    with pytest.raises(ValueError):
        painted.rotation_covers(objs)


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_a_shape_move_outside_the_vertices_raises(monkeypatch, kind):
    module = painted if kind == "painted" else shades
    name = "_shape_moves" if kind == "painted" else "_sequence_moves"
    vertices = (binary_painted_trees if kind == "painted" else unary_lighted_shades)(1, 2)
    real = getattr(module, name)
    leaf_shape = (0, (None,)) if kind == "painted" else (3, 0)
    monkeypatch.setattr(module, name, lambda shape: real(shape) + [leaf_shape])
    with pytest.raises(ValueError, match="which is not an element"):
        module.rotation_covers(vertices)


def test_refinement_semilattice_property():
    # every pair with a common lower bound has a greatest one
    for kind, m, n in [("shade", 1, 3), ("shade", 2, 2), ("painted", 1, 3)]:
        ref = build_refinement_poset(kind, m, n)
        assert all(c >= 0 for row in ref._bound_table(ref.down) for c in row)


# -- local certificates against the table route ------------------------------------


def fresh(poset):
    """A copy of a poset with nothing derived yet, so no table is cached."""
    return FinitePoset(poset.elements, poset.covers)


def bowtie():
    """Bounded, but its two atoms have two minimal upper bounds: no join."""
    return FinitePoset(["bot", "a", "b", "c", "d", "top"],
                       [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)])


def certificate_posets():
    yield pytest.param(pentagon(), id="pentagon")
    yield pytest.param(diamond_m3(), id="M3")
    yield pytest.param(vee(), id="vee")
    yield pytest.param(bowtie(), id="bowtie")
    for m, n in CELLS_TO_5:
        for kind in ("painted", "shade"):
            yield pytest.param(build_rotation_poset(kind, m, n), id=f"rotation {kind}({m},{n})")
    for t in range(1, 4):
        for m in range(t + 1):
            for kind in ("painted", "shade"):
                yield pytest.param(
                    build_refinement_poset(kind, m, t - m), id=f"refinement {kind}({m},{t - m})"
                )
            yield pytest.param(word_subposet(m, t - m), id=f"word({m},{t - m})")


@pytest.mark.parametrize("p", certificate_posets())
def test_local_lattice_flags_match_the_tables(p, monkeypatch):
    expected = table_lattice_flags(fresh(p))
    q = fresh(p)
    monkeypatch.setattr(FinitePoset, "_bound_table", None)  # the flags read no table
    assert (q.is_lattice, q.is_meet_semidistributive, q.is_join_semidistributive) == expected


def test_certificate_fixtures_cover_every_outcome():
    outcomes = {
        (p.is_bounded, *table_lattice_flags(fresh(p)))
        for p in (param.values[0] for param in certificate_posets())
    }
    # a bounded non-lattice, unbounded posets and lattices with each SD pattern
    assert {(True, False, False, False), (False, False, False, False), (True, True, True, True),
            (True, True, False, True), (True, True, False, False)} <= outcomes


def swapped(f, x, y):
    g = dict(f)
    g[x], g[y] = f[y], f[x]
    return g


def corrupted_shadows(src, f):
    """Corruptions of f that stay surjective: two differing images swapped,
    and the image of the top (bottom) swapped with that of a lower (upper)
    cover, which moves f(top) off the top (f(bottom) off the bottom)."""
    elements = src.elements
    pair = next(
        ((x, y) for x, y in combinations(elements[1:-1], 2) if f[x] != f[y]), None
    )
    if pair is not None:
        yield "swap", swapped(f, *pair)
    top, bottom = elements[src.top], elements[src.bottom]
    below_top = [elements[lo] for lo, hi in src.covers if hi == src.top]
    above_bottom = [elements[hi] for lo, hi in src.covers if lo == src.bottom]
    if below_top and f[below_top[0]] != f[top]:
        yield "top moved", swapped(f, top, below_top[0])
    if above_bottom and f[above_bottom[0]] != f[bottom]:
        yield "bottom moved", swapped(f, bottom, above_bottom[0])


def shadow_maps():
    for m, n in CELLS_TO_5:
        src = build_rotation_poset("painted", m, n)
        dst = build_rotation_poset("shade", m, n)
        f = {pt: shadow(pt) for pt in src.elements}
        yield pytest.param(src, dst, f, id=f"shadow({m},{n})")
        for name, g in corrupted_shadows(src, f):
            yield pytest.param(src, dst, g, id=f"shadow({m},{n}) {name}")
    for t in range(1, 4):
        for m in range(t + 1):
            p = build_refinement_poset("shade", m, t - m)
            identity = {e: e for e in p.elements}
            yield pytest.param(p, p, identity, id=f"refinement({m},{t - m}) identity")
    v = vee()
    yield pytest.param(v, v, {"bot": "bot", "x": "y", "y": "x"}, id="vee swap")
    # monotone, with one maximal element in f⁻¹(↓0), but x ∨ y is missing
    # and f(x) ∨ f(y) is not: only the lattice premise fails
    yield pytest.param(v, FinitePoset(["0", "1"], [(0, 1)]), {"bot": "0", "x": "1", "y": "1"},
                       id="vee onto a chain")
    yield pytest.param(pentagon(), diamond_m3(),
                       dict(zip(pentagon().elements, diamond_m3().elements)), id="pentagon to M3")


@pytest.mark.parametrize("src, dst, f", shadow_maps())
def test_local_morphism_check_matches_the_table_scan(src, dst, f, monkeypatch):
    expected = table_morphism_check(f, fresh(src), fresh(dst))
    monkeypatch.setattr(FinitePoset, "_bound_table", None)  # the check reads no table
    assert check_meet_morphism(f, fresh(src), fresh(dst)) == expected


def test_a_moved_extreme_fails_its_side():
    # a surjective meet morphism sends top to top, a join morphism bottom to bottom
    moved = 0
    for m, n in CELLS_TO_5:
        src = build_rotation_poset("painted", m, n)
        dst = build_rotation_poset("shade", m, n)
        f = {pt: shadow(pt) for pt in src.elements}
        for name, g in corrupted_shadows(src, f):
            rep = check_meet_morphism(g, src, dst)
            if name == "top moved":
                assert not rep.is_meet_morphism and rep.meet_counterexample is not None
                moved += 1
            elif name == "bottom moved":
                assert not rep.is_join_morphism and rep.join_counterexample is not None
                moved += 1
    assert moved > 20


CELLS_TO_6 = [(m, t - m) for t in range(1, 7) for m in range(t + 1)]


def shadow_cell(m, n):
    src = build_rotation_poset("painted", m, n)
    dst = build_rotation_poset("shade", m, n)
    return src, dst, {pt: shadow(pt) for pt in src.elements}


def adjoint_verdicts(f, src, dst):
    fi = [dst.index(f[e]) for e in src.elements]
    return tuple(posets._adjoint_certificate(fi, src, dst, side) for side in ("meet", "join"))


def is_monotone(f, src, dst):
    return all(dst.le(dst.index(f[src.elements[lo]]), dst.index(f[src.elements[hi]]))
               for lo, hi in src.covers)


@pytest.mark.parametrize("m, n", CELLS_TO_6)
def test_adjoint_certificate_matches_the_row_certificate(m, n):
    src, dst, f = shadow_cell(m, n)
    for name, g in [("shadow", f), *corrupted_shadows(src, f)]:
        assert adjoint_verdicts(g, src, dst) == row_certificate(g, src, dst), name


@pytest.mark.parametrize("alone", ["meet", "join"])
@pytest.mark.parametrize("src, dst, f", shadow_maps())
def test_each_side_certifies_alone(src, dst, f, alone, monkeypatch):
    # the other side's certificate always fails, so its pair scan answers
    expected = table_morphism_check(f, fresh(src), fresh(dst))
    real = posets._adjoint_certificate
    monkeypatch.setattr(posets, "_adjoint_certificate",
                        lambda fi, s, d, side: side == alone and real(fi, s, d, side))
    assert check_meet_morphism(f, fresh(src), fresh(dst)) == expected


@pytest.mark.parametrize("images, verdicts, meet_example", [
    # monotone, with only 0 -> 0: a ∧ b = 0 maps to 0 but f(a) ∧ f(b) = 1,
    # and f⁻¹(↑1) = {a, b, 1} has two minimal elements
    ("0111", (False, True), ("a", "b")),
    # not monotone (f(0) = 1 > f(a) = 0), though along the covers
    # f⁻¹(↑1) = {0, b, 1} shows one minimal element, 0
    ("1011", (False, False), ("0", "a")),
], ids=["monotone", "not monotone"])
def test_a_square_onto_a_chain_that_breaks_a_meet_fails_its_certificate(
        images, verdicts, meet_example):
    square = FinitePoset(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    chain = FinitePoset(["0", "1"], [(0, 1)])
    f = dict(zip(square.elements, images))
    assert is_monotone(f, square, chain) == (images == "0111")
    assert adjoint_verdicts(f, square, chain) == verdicts
    rep = check_meet_morphism(f, square, chain)
    assert rep == table_morphism_check(f, fresh(square), fresh(chain))
    assert rep.meet_counterexample == meet_example


def two_minima_change(src, dst, f):
    """The first change of one image, in element order of both posets, that
    keeps f monotone and surjective and gives some f⁻¹(↑j), j
    join-irreducible, two minimal elements: the changed map, or None."""
    for x in src.elements:
        for t in dst.elements:
            g = {**f, x: t}
            if t == f[x] or set(g.values()) != set(dst.elements) or not is_monotone(g, src, dst):
                continue
            gi = [dst.index(g[e]) for e in src.elements]
            for j in dst.join_irreducibles:
                minima, _ = src.extremes([i for i in range(src.n) if dst.le(j, gi[i])])
                if len(minima) > 1:
                    return g
    return None


@pytest.mark.parametrize("m, n", [(0, 4), (1, 3), (2, 2)])
def test_a_monotone_change_with_two_minimal_preimages_fails(m, n):
    src, dst, f = shadow_cell(m, n)
    g = two_minima_change(src, dst, f)
    assert adjoint_verdicts(g, src, dst)[0] is False
    rep = check_meet_morphism(g, src, dst)
    assert rep == table_morphism_check(g, fresh(src), fresh(dst))
    assert not rep.is_meet_morphism


def test_a_swap_with_a_non_monotone_image_fails_both_sides():
    # at (0,3) the swapped map stays monotone (and a meet morphism); at every
    # other cell with a swap it is not monotone, so neither side certifies
    swaps = []
    for m, n in CELLS_TO_5:
        src, dst, f = shadow_cell(m, n)
        for name, g in corrupted_shadows(src, f):
            if name == "swap" and not is_monotone(g, src, dst):
                assert adjoint_verdicts(g, src, dst) == (False, False)
                assert check_meet_morphism(g, src, dst) == table_morphism_check(
                    g, fresh(src), fresh(dst))
                swaps.append((m, n))
    assert swaps == [(m, n) for m, n in CELLS_TO_5 if m + n >= 3 and (m, n) != (0, 3)]


def test_a_passing_side_reads_no_row_set(monkeypatch):
    src, dst = (fresh(build_rotation_poset(kind, 4, 1)) for kind in ("painted", "shade"))
    f = {pt: shadow(pt) for pt in src.elements}
    sweeps = []
    real = FinitePoset._irreducible_rows

    def counted(self, side):
        sweeps.append((self is dst, side))
        return real(self, side)

    def unread(*args):
        raise AssertionError("a passing side read a row set")

    monkeypatch.setattr(FinitePoset, "_irreducible_rows", counted)
    monkeypatch.setattr(FinitePoset, "down", property(unread))
    monkeypatch.setattr(FinitePoset, "_meet_of", property(unread))
    monkeypatch.setattr(posets, "_first_unpreserved", unread)
    assert check_meet_morphism(f, src, dst) == MorphismCheckReport(True, True)
    assert sweeps == [(True, "meet"), (True, "join")]


def test_the_morphism_check_rejects_a_partial_or_non_surjective_map():
    src, dst = diamond_m3(), FinitePoset(["0", "1"], [(0, 1)])
    f = {"bot": "0", "a": "1", "b": "1", "c": "1", "top": "1"}
    assert check_meet_morphism(f, src, dst).is_join_morphism
    partial = [
        {k: v for k, v in f.items() if k != "a"},  # one element missing
        {**f, "d": "1"},  # one key outside the source
        {**{k: v for k, v in f.items() if k != "a"}, "d": "1"},  # as many keys, one wrong
    ]
    for g in partial:
        with pytest.raises(ValueError, match="^f must be total on the source$"):
            check_meet_morphism(g, src, dst)
    non_surjective = [
        dict.fromkeys(f, "1"),  # misses 0
        {**f, "bot": "2"},  # an image outside the destination
        {**f, "a": "0", "top": "2"},  # onto, plus an image outside it
    ]
    for g in non_surjective:
        with pytest.raises(ValueError, match="^f must be surjective onto the destination$"):
            check_meet_morphism(g, src, dst)


def test_order_suites_fill_no_table(monkeypatch):
    import hochschild_kit.geometry as geometry
    import hochschild_kit.posets as posets
    import hochschild_kit.verify as verify
    from functools import lru_cache

    def documents():
        # "all" runs the lattice and morphism suites too
        return [
            [res.to_json_obj() for res in verify.run_suite("all", 4)],
            [geometry.freehedron_report(n) for n in range(6)],
        ]

    expected = documents()

    def no_table(*args):
        raise AssertionError("the library filled a meet or join table")

    monkeypatch.setattr(FinitePoset, "_bound_table", no_table)
    monkeypatch.setattr(FinitePoset, "semidistributive_counterexample", no_table)
    # fresh caches, so that no poset or report built before the patch is reused
    rebuilt = {
        name: lru_cache(maxsize=None)(getattr(owner, name).__wrapped__)
        for owner, name in [(posets, "build_rotation_poset"),
                            (posets, "build_refinement_poset"),
                            (geometry, "certify_polytope")]
    }
    for module in (verify, posets, geometry):
        for name, fn in rebuilt.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    assert documents() == expected


def test_meet_morphism_identity():
    p = build_rotation_poset("shade", 1, 2)
    rep = check_meet_morphism({e: e for e in p.elements}, p, p)
    assert rep.is_meet_morphism and rep.is_join_morphism


def test_shadow_morphism():
    for m, n in [(0, 3), (1, 2), (2, 2), (1, 3)]:
        src = build_rotation_poset("painted", m, n)
        dst = build_rotation_poset("shade", m, n)
        rep = check_meet_morphism({pt: shadow(pt) for pt in src.elements}, src, dst)
        assert rep.is_meet_morphism
    rep = check_meet_morphism(
        {pt: shadow(pt) for pt in build_rotation_poset("painted", 0, 3).elements},
        build_rotation_poset("painted", 0, 3),
        build_rotation_poset("shade", 0, 3),
    )
    assert not rep.is_join_morphism
    assert rep.join_counterexample is not None


def test_morphism_counterexample_is_first_row_major_violation():
    for m, n in [(0, 3), (1, 3), (0, 4), (2, 2)]:
        src = build_rotation_poset("painted", m, n)
        dst = build_rotation_poset("shade", m, n)
        f = {pt: shadow(pt) for pt in src.elements}
        rep = check_meet_morphism(f, src, dst)
        for side, op_src, op_dst, example in (
            ("meet", src.meet, dst.meet, rep.meet_counterexample),
            ("join", src.join, dst.join, rep.join_counterexample),
        ):
            first = next(
                (
                    (x, y)
                    for x in src.elements
                    for y in src.elements
                    if f[op_src(x, y)] != op_dst(f[x], f[y])
                ),
                None,
            )
            assert example == first, (m, n, side)


def test_morphism_suite_records_a_non_surjective_shadow(monkeypatch):
    import hochschild_kit.verify as verify
    from hochschild_kit.shades import unary_lighted_shades

    # the suite computes the map once and the congruence check reads it too,
    # so the one fiber, over a shade whose fiber_min is the top tree, also
    # fails the fiber_min row
    real = verify.shadow
    one = unary_lighted_shades(0, 2)[0]
    monkeypatch.setattr(
        verify, "shadow", lambda pt: one if (pt.m, pt.n) == (0, 2) else real(pt)
    )
    res = verify.morphism_suite(2)
    failed = [(name, detail) for name, ok, detail in res.checks if not ok]
    assert failed == [
        ("shadow(0,2) surjective", ""),
        ("shadow(0,2) meet morphism", "the map is not surjective"),
        ("fibers(0,2) minima = fiber_min", ""),
    ]


def test_morphism_suite_records_a_shadow_missing_a_shade_everywhere(monkeypatch):
    # with every binding of the shadow map patched, the congruence check sees
    # the same non-surjective map as the morphism check and must not raise;
    # mapping every tree to the bottom tree's shade keeps fiber_min right
    import hochschild_kit.verify as verify

    src = build_rotation_poset("painted", 0, 2)
    one = shadow(src.elements[src.bottom])
    patched = []
    for name, module in list(sys.modules.items()):
        if name.startswith("hochschild_kit"):
            for key, value in list(vars(module).items()):
                if value is shadow:
                    monkeypatch.setattr(
                        module, key, lambda pt: one if (pt.m, pt.n) == (0, 2) else shadow(pt)
                    )
                    patched.append(f"{name}.{key}")
    assert {"hochschild_kit.shadow.shadow", "hochschild_kit.verify.shadow",
            "hochschild_kit.posets.shadow"} <= set(patched)
    res = verify.morphism_suite(2)
    failed = [(name, detail) for name, ok, detail in res.checks if not ok]
    assert failed == [
        ("shadow(0,2) surjective", ""),
        ("shadow(0,2) meet morphism", "the map is not surjective"),
    ]


def test_congruence_projection():
    for m, n in [(0, 3), (1, 2), (2, 2)]:
        rep = check_congruence_projection(m, n)
        assert rep.unique_minima
        assert rep.minima_match_fiber_min
        assert rep.proj_down_order_preserving
    assert not check_congruence_projection(0, 3).proj_up_order_preserving


def test_congruence_projection_reports_fiber_without_unique_minimum(monkeypatch):
    # merging two fibers whose union has two minimal trees must give a
    # report with unique_minima False, not a KeyError on the cover scan
    import hochschild_kit.posets as posets
    from hochschild_kit.shadow import shadow_fibers

    poset = build_rotation_poset("painted", 1, 2)
    fibers = shadow_fibers(1, 2)

    def minima(pts):
        return poset.extremes([poset.index(p) for p in pts])[0]

    a, b = next(
        (a, b) for a, b in combinations(fibers, 2)
        if len(minima(fibers[a] + fibers[b])) > 1
    )
    monkeypatch.setattr(posets, "shadow", lambda pt: a if shadow(pt) == b else shadow(pt))
    rep = check_congruence_projection(1, 2)
    assert not rep.unique_minima
    assert rep.proj_down_order_preserving
    assert rep.proj_up_order_preserving == (rep.proj_up_counterexample is None)


def test_shadow_quotient_is_shade_lattice():
    # image poset of the shadow congruence = shade rotation lattice
    for m, n in [(0, 4), (1, 2), (2, 2)]:
        src = build_rotation_poset("painted", m, n)
        dst = build_rotation_poset("shade", m, n)
        for a in dst.elements:
            for b in dst.elements:
                image_le = any(
                    src.le(src.index(x), src.index(y))
                    for x in src.elements
                    if shadow(x) == a
                    for y in src.elements
                    if shadow(y) == b
                )
                assert image_le == dst.le(dst.index(a), dst.index(b))


def test_word_subposet_counts_and_lattice():
    w13 = word_subposet(1, 3)
    assert w13.n == 12 and w13.is_lattice
    w04 = word_subposet(0, 4)
    assert w04.n == 8 and w04.height == 3
    for m, n in [(2, 2), (1, 4), (3, 1), (2, 3)]:
        assert word_subposet(m, n).is_lattice


def test_words_closed_under_componentwise_max():
    from hochschild_kit.cubic import enum_words, word_violation

    for m, n in [(1, 3), (2, 2), (2, 3)]:
        words = enum_words(m, n)
        for a in words:
            for b in words:
                top = tuple(max(x, y) for x, y in zip(a, b))
                assert word_violation(m, n, top) is None


# -- exploratory probes of the word order, kept with the tests that run them ---


def word_fiber_comparison(m: int, n: int) -> dict:
    """Compare the word poset with the ordered-lights subposet of the
    rotation lattice.

    The unary shades whose cut labels increase from the bottom up are in
    bijection with the words; the induced rotation subposet is compared with
    the componentwise order through that bijection.  Returns which of the two
    alignments (order preserving or order reversing) holds.
    """
    words = word_subposet(m, n)
    rot = build_rotation_poset("shade", m, n)
    identity = tuple(range(1, m + 1))
    shade_of = {w: word_to_shade(HochschildWord(m, n, identity, w)) for w in words.elements}
    idx = {w: rot.index(shade_of[w]) for w in words.elements}
    same = reverse = True
    for a in words.elements:
        for b in words.elements:
            word_le = words.le(words.index(a), words.index(b))
            if word_le != rot.le(idx[a], idx[b]):
                same = False
            if word_le != rot.le(idx[b], idx[a]):
                reverse = False
    return {
        "m": m,
        "n": n,
        "num_words": words.n,
        "is_lattice": bool(words.is_lattice),
        "order_preserving": same,
        "order_reversing": reverse,
    }


def _inversions(perm):
    pos = {v: i for i, v in enumerate(perm)}
    return frozenset(
        (a, b)
        for a in perm
        for b in perm
        if a < b and pos[a] > pos[b]
    )


def _weak_order_paths(src, dst):
    """Swap-letter sequences of saturated weak-order chains from src to dst.

    Each step swaps adjacent positions i, i + 1 (recorded as the 1-based
    letter i) and must create an inversion while staying below dst.
    """
    inv_dst = _inversions(dst)
    if not _inversions(src) <= inv_dst:
        return
    if src == dst:
        yield ()
        return
    m = len(src)
    for i in range(m - 1):
        swapped = src[:i] + (src[i + 1], src[i]) + src[i + 2:]
        if len(_inversions(swapped)) == len(_inversions(src)) + 1:
            if _inversions(swapped) <= inv_dst:
                for rest in _weak_order_paths(swapped, dst):
                    yield (i + 1,) + rest


def _words_between(floor, ceilings, m, n):
    """All valid words below some ceiling and above the floor, componentwise."""
    out = set()
    for w in enum_words(m, n):
        if all(f <= c for f, c in zip(floor, w)):
            if any(all(x <= y for x, y in zip(w, r)) for r in ceilings):
                out.add(w)
    return out


def word_order_conjecture_probe(m: int, n: int) -> dict:
    """Probe the conjectured description of the transported word order.

    The candidate condition for x below y: the cut orders are comparable in
    the weak order, the words are comparable componentwise, and some reduced
    expression of the connecting permutation admits a chain of intermediate
    words each missing the letter of its step.  The true order comes from the
    rotation lattice; the probe tallies how the candidate matches it under
    both placements of the avoid-the-letter constraint (on the word after or
    before each step).
    """
    rot = build_rotation_poset("shade", m, n)
    encoded = [shade_to_word(ls) for ls in rot.elements]

    def candidate(x, y, constrain_after):
        if not _inversions(x.perm) <= _inversions(y.perm):
            return False
        if any(a < b for a, b in zip(x.word, y.word)):
            return False  # letters decrease going up
        for letters in _weak_order_paths(x.perm, y.perm):
            if not letters:
                return True
            reachable = {x.word}
            for letter in letters:
                if constrain_after:
                    reachable = {
                        h
                        for h in _words_between(y.word, reachable, m, n)
                        if letter not in h
                    }
                else:
                    reachable = _words_between(
                        y.word,
                        {r for r in reachable if letter not in r},
                        m,
                        n,
                    )
                if not reachable:
                    break
            if y.word in reachable:
                return True
        return False

    totals = {"after": 0, "before": 0}
    pairs = 0
    for a, xa in enumerate(encoded):
        for b, xb in enumerate(encoded):
            truth = rot.le(a, b)
            pairs += 1
            for key, flag in (("after", True), ("before", False)):
                if candidate(xa, xb, flag) == truth:
                    totals[key] += 1
    return {
        "m": m,
        "n": n,
        "pairs": pairs,
        "agree_constraint_after_step": totals["after"],
        "agree_constraint_before_step": totals["before"],
    }


def test_word_identification_is_order_reversing():
    for m, n in [(1, 2), (1, 3), (2, 2)]:
        rep = word_fiber_comparison(m, n)
        assert rep["is_lattice"]
        assert rep["order_reversing"] and not rep["order_preserving"]


def test_word_order_conjecture_probe():
    # with a single cut the permutation part is trivial and the conjectured
    # description reduces to the componentwise comparison: exact agreement
    for m, n in [(1, 2), (1, 3)]:
        probe = word_order_conjecture_probe(m, n)
        assert probe["agree_constraint_after_step"] == probe["pairs"]
    # with several cuts neither reading matches the transported order on all
    # pairs; the probe records how close each comes (documented conjecture,
    # nothing depends on it)
    probe = word_order_conjecture_probe(2, 2)
    assert probe["pairs"] == 324
    assert probe["agree_constraint_after_step"] >= 300
    assert probe["agree_constraint_before_step"] >= 300


def test_lattice_analytics_spot_values():
    prof = lattice_analytics(build_rotation_poset("shade", 1, 3))
    assert prof["is_extremal"] and prof["coxeter_cyclotomic"]
    prof = lattice_analytics(build_rotation_poset("shade", 2, 2))
    assert not prof["is_extremal"]
    prof = lattice_analytics(build_rotation_poset("painted", 1, 2))
    assert prof["is_lattice"]


# -- sympy oracle for the integer Coxeter code ----------------------------------------
# The computer-algebra route the kit used before its integer code; sympy is a
# test-only dependency.


def oracle_zeta_matrix(p):
    """Integer zeta matrix in a fixed linear extension order (sympy)."""
    from sympy import ImmutableMatrix

    order = p.topological_order
    n = p.n
    return ImmutableMatrix(
        n, n, lambda a, b: 1 if p.le(order[a], order[b]) else 0
    )


def oracle_coxeter_polynomial(p):
    """Characteristic polynomial of -Z^{-1} Z^T over the integers."""
    from sympy import Poly, Symbol

    z = oracle_zeta_matrix(p)
    cox = -(z.inv()) * z.T
    x = Symbol("x")
    return Poly(cox.charpoly(x).as_expr(), x)


def oracle_mobius_matrix(p):
    """Integer Möbius function as a sympy matrix (linear extension order)."""
    return oracle_zeta_matrix(p).inv()


def oracle_is_cyclotomic_product(poly) -> bool:
    """Exact test: is the integer polynomial a product of cyclotomics?"""
    from sympy import Poly, cyclotomic_poly

    p = Poly(poly)
    x = p.gen
    if p.degree() == 0:
        return p.as_expr() == 1
    if p.TC() == 0:
        return False
    deg = p.degree()
    d = 1
    while p.degree() > 0:
        phi = Poly(cyclotomic_poly(d, x), x)
        while p.degree() >= phi.degree():
            q, r = divmod(p, phi)
            if r.is_zero:
                p = q
            else:
                break
        d += 1
        if d > 4 * deg * deg + 2:
            return False
    return p.as_expr() == 1


@pytest.mark.parametrize("p", oracle_posets())
def test_integer_coxeter_code_matches_sympy_oracle(p):
    from sympy import Poly, factor_list

    assert [list(row) for row in p.zeta_matrix()] == oracle_zeta_matrix(p).tolist()
    assert [list(row) for row in p.mobius_matrix()] == oracle_mobius_matrix(p).tolist()
    poly = oracle_coxeter_polynomial(p)
    cox = p.coxeter_polynomial()
    assert list(cox) == poly.all_coeffs()
    # the divisor oracle ends early only on a cyclotomic product; on the
    # degree-24 polynomials that are none it divides by every Phi_d up to
    # d = 2306 (minutes, hundreds of MB), so sympy's factorization decides those
    content, factors = factor_list(poly.as_expr())
    flag = is_cyclotomic_product(cox)
    assert flag == (content == 1 and all(Poly(f, poly.gen).is_cyclotomic for f, _ in factors))
    if flag:
        assert oracle_is_cyclotomic_product(poly)
    if p.is_bounded:
        prof = lattice_analytics(p)
        assert prof["coxeter_polynomial"] == str(poly.as_expr())
        assert prof["coxeter_cyclotomic"] == flag


def test_cyclotomic_product_detector():
    from sympy import Poly, Symbol

    cases = [
        ((1, 2, 1), True),  # (x + 1)^2
        ((1, 1, 1), True),
        ((1, 1, 1, 1), True),  # (x + 1)(x^2 + 1)
        ((1, 0, -2), False),
        ((1, 3, 1), False),
        ((1, 1, 0), False),  # x (x + 1)
        ((-1, -1), False),  # -(x + 1)
        ((-1,), False),
        ((1,), True),
        ((0,), False),
    ]
    for coeffs, expected in cases:
        assert is_cyclotomic_product(coeffs) == expected, coeffs
        assert oracle_is_cyclotomic_product(Poly(list(coeffs), Symbol("x"))) == expected, coeffs


def test_mobius_matrix_is_zeta_inverse():
    p = pentagon()
    z, mu = p.zeta_matrix(), p.mobius_matrix()
    identity = [[int(a == b) for b in range(p.n)] for a in range(p.n)]
    for left, right in ((z, mu), (mu, z)):
        product = [[sum(map(mul, row, col)) for col in zip(*right)] for row in left]
        assert product == identity


def analytics_csv(rows: list[dict]) -> str:
    """Analytics dicts as CSV, one row per poset."""
    if not rows:
        return ""
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(str(row.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"


def test_analytics_csv():
    rows = [
        dict(
            label=f"shade({m},{n})",
            **lattice_analytics(build_rotation_poset("shade", m, n)),
        )
        for m, n in [(1, 2), (2, 1)]
    ]
    csv = analytics_csv(rows)
    assert csv.startswith("label,size,height")
    assert len(csv.strip().splitlines()) == 3


def test_dot_export_deterministic():
    p = build_rotation_poset("shade", 1, 2)
    assert p.to_dot(label=lambda o: o.canonical()) == p.to_dot(
        label=lambda o: o.canonical()
    )
    assert "digraph" in p.to_dot()


def test_cycle_detection():
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], [(0, 1), (1, 0)]).leq


def test_kit_runs_on_the_standard_library_alone():
    # every top-level module that the import, a verify run and the analytics
    # add to a fresh interpreter is the kit's own or in the standard library
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io\n"
        "from hochschild_kit.cli import main\n"
        "from hochschild_kit.posets import build_rotation_poset, lattice_analytics\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['verify', '--suite', 'all', '--bound', '3'])\n"
        "lattice_analytics(build_rotation_poset('shade', 1, 3))\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'hochschild_kit'}))\n"
        "sys.exit(status)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
