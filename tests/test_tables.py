"""The exhaustive table census against the routes it replaced.

Two oracles: the per-cell one regenerates every painted tree or lighted shade
of a cell with the public, sorted enumerators, once per printed cell; the
labeled census generates every labeled object of (m, n) once and counts it by
rank.  The census counts labels instead of generating them; all must agree.
The vertex census runs on one orbit of label permutations at a time and
counts each shadow fiber off the spine grammar, with no painted tree or
shape built; `oracles.labeled_vertex_census` is its labeled pass,
`oracles.shape_walk_vertex_census` the pass over representative trees and
`shadow.shadow_fibers` the fibers themselves.  Its fallback, the walk over
the binary shapes, raises every census failure; `oracles.force_the_shape_walk`
makes it run.
"""

import re
import sys
from math import factorial

import pytest

from hochschild_kit import shades, tables
from hochschild_kit.painted import (
    PaintedTree,
    _painted_shape_counts,
    _painted_trees,
    binary_painted_trees,
    enum_painted_trees,
)
from hochschild_kit.shades import (
    LightedShade,
    canonical_shades,
    enum_lighted_shades,
    unary_lighted_shades,
)
from hochschild_kit.shadow import shadow_fibers
from hochschild_kit.tables import PRINTED_TABLES, exhaustive_census, reproduce_tables

from oracles import (
    count_constructions,
    force_the_shape_walk,
    labeled_vertex_census,
    shape_walk_rank_histogram,
    shape_walk_vertex_census,
    walk_shade_rank_histogram,
)

CELLS = [(m, d - m) for d in range(1, 6) for m in range(d + 1)]
CELLS_TO_6 = [(m, d - m) for d in range(1, 7) for m in range(d + 1)]
CELLS_TO_7 = [(m, d - m) for d in range(1, 8) for m in range(d + 1)]
CELLS_TO_8 = [(m, d - m) for d in range(1, 9) for m in range(d + 1)]


def vertex_census(m, n):
    """`tables._vertex_census` with the binary shape count it is given in a
    census."""
    return tables._vertex_census(m, n, _painted_shape_counts(m, n)[m, n])


def _rank_histogram(objects, d):
    hist = [0] * d
    for obj in objects:
        hist[obj.rank] += 1
    return tuple(hist)


@pytest.mark.parametrize("mn", CELLS_TO_6)
def test_shape_histograms_match_labeled_census(mn):
    # every labeled painted tree and lighted shade, generated and counted
    m, n = mn
    census = exhaustive_census(m, n)
    assert census.painted_ranks == _rank_histogram(_painted_trees(m, n), m + n)
    assert census.shade_ranks == _rank_histogram(enum_lighted_shades(m, n), m + n)


def per_cell_oracle(table, m, n):
    """One sorted enumeration per cell, as the regression used to do it."""
    d = m + n
    if table == "multiplihedron_vertices":
        return len(binary_painted_trees(m, n))
    if table == "multiplihedron_facets":
        return len(enum_painted_trees(m, n, rank=d - 2)) if d >= 2 else 0
    if table == "multiplihedron_faces":
        return len(enum_painted_trees(m, n))
    if table == "hochschild_vertices":
        return len(unary_lighted_shades(m, n))
    if table == "hochschild_facets":
        return len(enum_lighted_shades(m, n, rank=d - 2)) if d >= 2 else 0
    if table == "hochschild_faces":
        return len(enum_lighted_shades(m, n))
    if table == "singletons":
        return sum(1 for pts in shadow_fibers(m, n).values() if len(pts) == 1)
    raise ValueError(table)


@pytest.mark.parametrize("mn", CELLS)
def test_census_matches_per_cell_oracle(mn):
    m, n = mn
    cells = exhaustive_census(m, n).cells()
    assert set(cells) == set(PRINTED_TABLES)
    for table, rows in PRINTED_TABLES.items():
        if rows[m][n] is not None:
            assert cells[table] == per_cell_oracle(table, m, n), table


@pytest.mark.parametrize("mn", CELLS)
def test_rank_zero_bucket_matches_vertex_pass(mn):
    # the all-ranks generators and the binary/unary ones are separate code
    m, n = mn
    census = exhaustive_census(m, n)
    assert census.painted_ranks[0] == census.binary_painted
    assert census.shade_ranks[0] == census.unary_shades
    assert census.binary_painted == len(binary_painted_trees(m, n))
    assert census.unary_shades == len(unary_lighted_shades(m, n))


@pytest.mark.parametrize("mn", [(0, 3), (1, 2), (2, 1), (3, 0), (2, 2)])
def test_rank_histogram_matches_rank_filtered_enumeration(mn):
    m, n = mn
    census = exhaustive_census(m, n)
    assert len(census.painted_ranks) == len(census.shade_ranks) == m + n
    for rank in range(m + n):
        assert census.painted_ranks[rank] == len(enum_painted_trees(m, n, rank=rank))
        assert census.shade_ranks[rank] == len(enum_lighted_shades(m, n, rank=rank))


@pytest.mark.parametrize("mn", CELLS_TO_6)
def test_vertex_census_on_orbit_representatives_matches_labeled_pass(mn):
    assert vertex_census(*mn) == labeled_vertex_census(*mn)


@pytest.mark.parametrize("mn", CELLS_TO_8)
def test_vertex_census_matches_the_representative_tree_pass(mn):
    assert vertex_census(*mn) == shape_walk_vertex_census(*mn)


def test_vertex_census_builds_one_representative_per_orbit(monkeypatch):
    # reproduce_tables(6) builds no painted tree and no painted shape, and
    # reads no shadow: its fibers are counted off the spine grammar.  `shades`
    # has no tuple sequence walk left; the census reads one rank-0 shade per
    # orbit, its lights 1..m from the top, and each orbit holds m! shades
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    unary = {mn: labeled_vertex_census(*mn)[1] for mn in CELLS_TO_6}
    built = count_constructions(monkeypatch, PaintedTree)
    _forbid_painted_shapes(monkeypatch)
    monkeypatch.setattr(sys.modules["hochschild_kit.shadow"], "shadow", forbidden)
    monkeypatch.setattr(tables, "shadow_entries", forbidden)
    streamed = {}
    real = tables.canonical_shades

    def stream(m, n, rank=None):
        for ls, size in real(m, n, rank):
            streamed.setdefault((m, n, rank), []).append((ls, size))
            yield ls, size

    monkeypatch.setattr(tables, "canonical_shades", stream)
    report = reproduce_tables(6)
    assert report.ok and built[0] == 0
    assert not hasattr(shades, "_tuple_sequences")
    assert sorted(streamed) == [(m, n, 0) for m, n in sorted(CELLS_TO_6)]
    for (m, n, _), reps in streamed.items():
        assert len(reps) * factorial(m) == unary[m, n]
        for ls, size in reps:
            assert [x for _, lights in ls.entries for x in lights] == list(range(1, m + 1))
            assert size == factorial(m)


def test_census_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        exhaustive_census(0, 0)
    with pytest.raises(ValueError):
        exhaustive_census(-1, 2)


def test_census_raises_when_shadow_misses_a_shade(monkeypatch):
    # the shapes over the last representative read the first one's entries;
    # the spine counts cannot see a wrong shadow, so the walk is forced
    force_the_shape_walk(monkeypatch)
    m, n = 1, 2
    reps = [ls for ls, _ in canonical_shades(m, n, rank=0)]
    real = tables.shadow_entries

    def merged(shape, parts, leaves):
        entries = real(shape, parts, leaves)
        return reps[0].entries if entries == reps[-1].entries else entries

    monkeypatch.setattr(tables, "shadow_entries", merged)
    with pytest.raises(AssertionError, match=f"^shadow map misses {re.escape(repr(reps[-1]))}$"):
        exhaustive_census(m, n)


def test_census_raises_when_a_shadow_is_no_unary_shade(monkeypatch):
    force_the_shape_walk(monkeypatch)
    real = tables.shadow_entries
    stray = LightedShade(0, 3, [((1, 1, 1), ())])
    seen = set()

    def stray_after_first(shape, parts, leaves):
        # the first shape of each fiber keeps its shadow, so no shade is missed
        entries = real(shape, parts, leaves)
        if entries in seen:
            return stray.entries
        seen.add(entries)
        return entries

    monkeypatch.setattr(tables, "shadow_entries", stray_after_first)
    with pytest.raises(AssertionError, match=f"^shadow {re.escape(repr(stray))} is not a unary shade$"):
        exhaustive_census(0, 3)


@pytest.mark.parametrize("mn", CELLS_TO_6)
def test_counted_fibers_are_the_shadow_fibers(mn):
    # the product of the spine's left-child counts, per representative, is
    # the size of every fiber of its orbit
    m, n = mn
    reps = [ls for ls, _ in canonical_shades(m, n, rank=0)]
    fibers = shadow_fibers(m, n)
    sizes = tables._spine_fibers(m, n, reps, _painted_shape_counts(m, n)[m, n])
    assert sizes == {ls.entries: len(fibers[ls]) for ls in reps}


def test_binary_shape_counts_are_the_binary_grammar():
    from hochschild_kit.painted import _binary_shape_counts, _shape_trees

    memo = {}
    trees = _binary_shape_counts(4, 6)
    for j in range(5):
        for s in range(1, 7):
            assert trees[j][s] == len(_shape_trees(memo, True, j, s, s - 1)), (j, s)


@pytest.mark.parametrize("mn", [(0, 3), (1, 2), (2, 2)])
def test_census_raises_when_the_stream_drops_a_representative(monkeypatch, mn):
    # the fibers sum short of the binary shapes, and the walk finds the
    # dropped shade's trees
    real = tables.canonical_shades
    monkeypatch.setattr(
        tables, "canonical_shades", lambda m, n, rank=None: list(real(m, n, rank))[:-1]
    )
    dropped = list(real(*mn, rank=0))[-1][0]
    with pytest.raises(AssertionError) as raised:
        exhaustive_census(*mn)
    assert str(raised.value) == f"shadow {dropped!r} is not a unary shade"


@pytest.mark.parametrize("mn", [(0, 3), (1, 2), (2, 2)])
def test_census_raises_when_the_stream_repeats_a_representative(monkeypatch, mn):
    real = tables.canonical_shades
    monkeypatch.setattr(
        tables, "canonical_shades", lambda m, n, rank=None: [next(real(m, n, rank)), *real(m, n, rank)]
    )
    first = next(real(*mn, rank=0))[0]
    with pytest.raises(AssertionError) as raised:
        exhaustive_census(*mn)
    assert str(raised.value) == f"the rank-0 stream yields {first!r} twice"


@pytest.mark.parametrize("mn", [(2, 1), (2, 2), (3, 1)])
def test_census_raises_when_a_representative_reads_its_lights_out_of_order(monkeypatch, mn):
    # the first representative's labels 1 and 2 swapped: another shade of its
    # orbit, whose product of spine counts is positive but whose fiber over
    # the representative trees is empty, so the walk misses it
    real = tables.canonical_shades
    (first, size), *rest = real(*mn, rank=0)
    swap = {1: 2, 2: 1}
    swapped = LightedShade(
        *mn, [(vals, {swap.get(x, x) for x in lights}) for vals, lights in first.entries]
    )
    monkeypatch.setattr(
        tables, "canonical_shades", lambda m, n, rank=None: [(swapped, size), *rest]
    )
    with pytest.raises(AssertionError) as raised:
        exhaustive_census(*mn)
    assert str(raised.value) == f"shadow map misses {swapped!r}"


@pytest.mark.parametrize("mn", [(0, 3), (1, 2), (2, 2)])
def test_census_raises_when_the_shape_count_is_off_by_one(monkeypatch, mn):
    # the fibers no longer sum to the count, and the walk meets one shape
    # fewer than it says
    m, n = mn
    real = tables._painted_shape_counts

    def counted(m, n):
        counts = real(m, n)
        counts[m, n] += 1
        return counts

    monkeypatch.setattr(tables, "_painted_shape_counts", counted)
    binary = real(m, n)[m, n]
    with pytest.raises(AssertionError) as raised:
        exhaustive_census(m, n)
    assert str(raised.value) == (
        f"the walk meets {binary} binary shapes, the count says {binary + 1}"
    )


def test_a_zero_spine_count_falls_back_to_the_walk(monkeypatch):
    # a fiber counted 0 fails a premise, and the walk gives the census
    monkeypatch.setattr(
        tables, "_binary_shape_counts", lambda m, n: [[0] * (n + 1) for _ in range(m + 1)]
    )
    assert vertex_census(1, 2) == shape_walk_vertex_census(1, 2)


@pytest.mark.parametrize("mn", CELLS)
def test_a_declined_count_falls_back_to_the_walk(monkeypatch, mn):
    walked = []
    real = tables._painted_shapes

    def shapes(*args, **kwargs):
        walked.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tables, "_painted_shapes", shapes)
    counted = vertex_census(*mn)
    assert not walked
    force_the_shape_walk(monkeypatch)
    assert vertex_census(*mn) == counted == shape_walk_vertex_census(*mn)
    assert walked == [(*mn,)]


@pytest.mark.parametrize("mn", [(2, 1), (3, 0), (3, 2)])
def test_census_raises_when_an_orbit_is_not_free(monkeypatch, mn):
    # a stream that drops its rank filter yields orbits whose light sets hold
    # two labels, and the first of them has fewer than m! shades
    m, n = mn
    real = tables.canonical_shades
    monkeypatch.setattr(tables, "canonical_shades", lambda m, n, rank=None: real(m, n))
    ls, size = next((ls, size) for ls, size in real(m, n) if size != factorial(m))
    assert size < factorial(m)
    want = f"the orbit of {ls!r} has {size} shades, not {m}! = {factorial(m)}"
    with pytest.raises(AssertionError, match=f"^{re.escape(want)}$"):
        exhaustive_census(m, n)


def test_reproduce_tables_reads_exhaustive_values_from_census():
    report = reproduce_tables(bound=4)
    assert report.ok
    exhaustive = [c for c in report.cells if "exhaustive" in c.computed]
    assert len(exhaustive) == 7 * 14  # seven tables, 14 printed cells with m + n <= 4
    for c in exhaustive:
        assert c.computed["exhaustive"] == per_cell_oracle(c.table, c.m, c.n)


def test_reproduce_tables_looks_each_family_up_once(monkeypatch):
    # the records are read when the call starts, so a counting function
    # rebound on its module before the call is still the one every cell runs
    import hochschild_kit.series as series

    looked_up = []
    real = tables.family
    monkeypatch.setattr(tables, "family", lambda name: looked_up.append(name) or real(name))
    assert reproduce_tables(bound=0).ok
    assert looked_up == ["painted", "shade"]
    monkeypatch.setattr(series, "_shade_facet_count", lambda m, n: -1)
    failures = reproduce_tables(bound=0).failures
    assert failures and all(c.table == "hochschild_facets" for c in failures)
    assert all(c.computed["closed"] == -1 for c in failures)


def _forbid_painted_shapes(monkeypatch):
    """Make every builder of painted shapes raise."""
    import hochschild_kit.painted as painted

    def built(*args):
        raise AssertionError("painted shapes built")

    for module, name in [
        (painted, "_shape_trees"),
        (painted, "_shape_rows"),
        (painted, "_painted_shapes"),
        (tables, "_painted_shapes"),
    ]:
        monkeypatch.setattr(module, name, built)


def test_rank_histograms_count_labels_without_generating_them(monkeypatch):
    import hochschild_kit.painted as painted
    import hochschild_kit.shades as shades

    painted_ranks = _rank_histogram(_painted_trees(2, 2), 4)
    shade_ranks = _rank_histogram(enum_lighted_shades(2, 2), 4)

    def generated(*args):
        raise AssertionError("labeled objects generated")

    for module, name in [
        (painted, "ordered_partitions"),
        (painted, "PaintedTree"),
        (shades, "_shades"),
        (shades, "LightedShade"),
    ]:
        monkeypatch.setattr(module, name, generated)
    # nor are the unlabeled painted shapes: they are counted
    _forbid_painted_shapes(monkeypatch)
    assert tables._painted_rank_histogram(2, 2) == painted_ranks
    assert tables._shade_rank_histogram(2, 2) == shade_ranks


@pytest.mark.parametrize("mn", CELLS_TO_8)
def test_counted_shade_histogram_matches_the_sequence_walk(mn):
    assert tables._shade_rank_histogram(*mn) == walk_shade_rank_histogram(*mn)


@pytest.mark.parametrize("mn", CELLS_TO_7)
def test_counted_painted_histogram_matches_the_shape_walk(mn):
    assert tables._painted_rank_histogram(*mn) == shape_walk_rank_histogram(*mn)


def test_painted_census_and_count_only_build_no_shape(monkeypatch, capsys):
    from hochschild_kit.cli import main

    walked = {mn: shape_walk_rank_histogram(*mn) for mn in CELLS}
    _forbid_painted_shapes(monkeypatch)
    for (m, n), hist in walked.items():
        assert tables._painted_rank_histogram(m, n) == hist
        for rank in [None, *range(m + n)]:
            argv = ["enumerate", "--kind", "painted", "--m", str(m), "--n", str(n)]
            argv += ["--count-only"] + ([] if rank is None else ["--rank", str(rank)])
            assert main(argv) == 0
            want = sum(hist) if rank is None else hist[rank]
            assert capsys.readouterr().out == f"{want}\n", (m, n, rank)
