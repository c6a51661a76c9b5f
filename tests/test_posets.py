import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from hochschild_kit.cubic import HochschildWord, enum_words, shade_to_word, word_to_shade
from hochschild_kit.posets import (
    FinitePoset,
    build_refinement_poset,
    build_rotation_poset,
    check_congruence_projection,
    check_meet_morphism,
    is_cyclotomic_product,
    lattice_analytics,
    word_subposet,
)
from hochschild_kit.preposets import transitive_closure_pairs
from hochschild_kit.shadow import shadow


def pentagon():
    return FinitePoset(["bot", "a", "b1", "b2", "top"],
                       [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])


def diamond_m3():
    return FinitePoset(["bot", "a", "b", "c", "top"],
                       [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def test_meet_join_on_pentagon():
    p = pentagon()
    assert p.is_lattice
    assert p.meet("a", "b2") == "bot"
    assert p.join("a", "b1") == "top"
    assert p.meet("b1", "b2") == "b1"
    assert p.meet("a", "a") == "a"


def test_meet_join_against_brute_force():
    p = build_rotation_poset("shade", 2, 2)
    for a in range(p.n):
        for b in range(p.n):
            lower = [c for c in range(p.n) if p.le(c, a) and p.le(c, b)]
            maxima = [c for c in lower if not any(p.le(c, d) for d in lower if d != c)]
            expected = maxima[0] if len(maxima) == 1 else -1
            assert p.meet_table[a][b] == expected


def test_semidistributivity_flags():
    assert pentagon().is_meet_semidistributive
    assert pentagon().is_join_semidistributive
    assert not diamond_m3().is_meet_semidistributive
    assert not diamond_m3().is_join_semidistributive


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
    assert [list(row) for row in p.meet_table] == meet
    assert [list(row) for row in p.join_table] == join
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
    assert any(-1 in row for row in ref.join_table)
    assert all(-1 not in row for row in ref.meet_table)


def test_cached_posets_are_immutable_and_non_lattices_raise():
    p = build_rotation_poset("shade", 1, 2)
    for value in (p.elements, p.covers, p.leq, p.down, p.meet_table, p.join_table):
        assert isinstance(value, tuple)
    for table in (p.meet_table, p.join_table):
        assert all(isinstance(row, tuple) for row in table)
        with pytest.raises(TypeError):
            table[0][0] = -1
    assert build_rotation_poset("shade", 1, 2).meet_table is p.meet_table
    # a V shape: bounded below, two maxima, so no join of the two tops
    vee = FinitePoset(["bot", "x", "y"], [(0, 1), (0, 2)])
    assert not vee.is_lattice
    for side in ("meet", "join"):
        with pytest.raises(ValueError):
            vee.semidistributive_counterexample(side)
    assert not vee.is_meet_semidistributive and not vee.is_join_semidistributive


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
    assert shade.is_graded
    assert shade.bottom is not None
    assert len(shade.maximal_elements) == 12


def test_refinement_order_equals_move_reachability():
    for kind, m, n in [("painted", 1, 2), ("shade", 2, 2), ("painted", 2, 2)]:
        ref = build_refinement_poset(kind, m, n)
        idx = {o: i + 1 for i, o in enumerate(ref.elements)}
        moves = [
            (idx[r], idx[o]) for o in ref.elements for r in o.refinement_covers_down()
        ]
        below = {(a - 1, b - 1) for a, b in transitive_closure_pairs(ref.n, moves)}
        for a in range(ref.n):
            for b in range(ref.n):
                assert ref.le(a, b) == (a == b or (a, b) in below)


@pytest.mark.parametrize("m, n", [(m, t - m) for t in range(1, 5) for m in range(t + 1)])
def test_moves_are_exactly_the_refinement_covers(m, n):
    # the node-local moves give each tree's lower covers in the containment
    # order once each, and the rotations are the edges of the polytope: the
    # pairs of binary trees above a common rank-1 tree
    ref = build_refinement_poset("painted", m, n)
    below = [set() for _ in range(ref.n)]
    for lo, hi in ref.covers:
        below[hi].add(lo)
    for i, pt in enumerate(ref.elements):
        moves = [ref.index(r) for r in pt.refinement_covers_down()]
        assert len(moves) == len(set(moves)), pt
        assert set(moves) == below[i], pt
    binary = [i for i, pt in enumerate(ref.elements) if pt.rank == 0]
    edges = {
        frozenset((a, b))
        for a, b in combinations(binary, 2)
        if any(ref.elements[c].rank == 1 for c in below[a] & below[b])
    }
    rotations = {
        frozenset((i, ref.index(r)))
        for i in binary
        for r in ref.elements[i].rotation_successors()
    }
    assert rotations == edges


def test_refinement_semilattice_property():
    # every pair with a common lower bound has a greatest one
    for kind, m, n in [("shade", 1, 3), ("shade", 2, 2), ("painted", 1, 3)]:
        ref = build_refinement_poset(kind, m, n)
        assert all(c >= 0 for row in ref.meet_table for c in row)


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
    merged = {k: v for k, v in fibers.items() if k != b}
    merged[a] = fibers[a] + fibers[b]
    monkeypatch.setattr(posets, "shadow_fibers", lambda m, n: merged)
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


def test_cyclotomic_product_detector():
    from sympy import Poly, Symbol

    x = Symbol("x")
    assert is_cyclotomic_product(Poly(x**2 + 2 * x + 1, x))
    assert is_cyclotomic_product(Poly(x**2 + x + 1, x))
    assert is_cyclotomic_product(Poly((x + 1) * (x**2 + 1), x))
    assert not is_cyclotomic_product(Poly(x**2 - 2, x))
    assert not is_cyclotomic_product(Poly(x**2 + 3 * x + 1, x))
    assert not is_cyclotomic_product(Poly(x**2 + x, x))


def test_mobius_matrix_is_zeta_inverse():
    p = pentagon()
    z = p.zeta_matrix()
    assert z * p.mobius_matrix() == z.eye(p.n)


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


def test_library_import_leaves_numpy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hochschild_kit.cli; sys.exit('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
