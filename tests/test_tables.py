"""The exhaustive table census against the routes it replaced.

Two oracles: the per-cell one regenerates every painted tree or lighted shade
of a cell with the public, sorted enumerators, once per printed cell; the
labeled census generates every labeled object of (m, n) once and counts it by
rank.  The census counts labels instead of generating them; all must agree.
The vertex census runs on one representative per orbit of label
permutations; `oracles.labeled_vertex_census` is its labeled pass.
"""

import pytest

from hochschild_kit import tables
from hochschild_kit.painted import (
    PaintedTree,
    _painted_trees,
    binary_painted_trees,
    enum_painted_trees,
)
from hochschild_kit.shades import enum_lighted_shades, unary_lighted_shades
from hochschild_kit.shadow import shadow_fibers
from hochschild_kit.tables import PRINTED_TABLES, exhaustive_census, reproduce_tables

from oracles import labeled_vertex_census, shape_walk_rank_histogram

CELLS = [(m, d - m) for d in range(1, 6) for m in range(d + 1)]
CELLS_TO_6 = [(m, d - m) for d in range(1, 7) for m in range(d + 1)]
CELLS_TO_7 = [(m, d - m) for d in range(1, 8) for m in range(d + 1)]


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
    assert tables._vertex_census(*mn) == labeled_vertex_census(*mn)


def test_vertex_census_builds_one_representative_per_orbit(monkeypatch):
    m, n = 3, 1
    labeled = labeled_vertex_census(m, n)
    trees, lights = [], []
    real_shades = tables._representative_unary_shades

    def tree(m, n, tagged, parts):
        trees.append(parts)
        return PaintedTree(m, n, tagged, parts)

    def shades(*args, **kwargs):
        for ls in real_shades(*args, **kwargs):
            lights.append(tuple(label for _, lit in ls.entries for label in lit))
            yield ls

    monkeypatch.setattr(tables, "PaintedTree", tree)
    monkeypatch.setattr(tables, "_representative_unary_shades", shades)
    assert tables._vertex_census(m, n) == labeled
    assert len(trees) == labeled[0] // 6 and len(lights) == labeled[1] // 6
    assert set(trees) == {(frozenset({1}), frozenset({2}), frozenset({3}))}
    assert set(lights) == {(3, 2, 1)}


def test_census_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        exhaustive_census(0, 0)
    with pytest.raises(ValueError):
        exhaustive_census(-1, 2)


def test_census_raises_when_shadow_misses_a_shade(monkeypatch):
    real = tables._painted_shapes

    def no_binary_shapes(m, n, binary, rank=None):
        return iter(()) if binary else real(m, n, binary, rank)

    monkeypatch.setattr(tables, "_painted_shapes", no_binary_shapes)
    with pytest.raises(AssertionError, match="shadow map misses"):
        exhaustive_census(1, 2)


def test_census_raises_when_a_shadow_is_no_unary_shade(monkeypatch):
    real = tables.shadow
    seen = set()

    def stray_after_first(pt):
        # the first tree of each fiber keeps its shadow, so no shade is missed
        ls = real(pt)
        if ls in seen:
            return "stray"
        seen.add(ls)
        return ls

    monkeypatch.setattr(tables, "shadow", stray_after_first)
    with pytest.raises(AssertionError, match="shadow stray is not a unary shade"):
        exhaustive_census(0, 3)


def test_reproduce_tables_reads_exhaustive_values_from_census():
    report = reproduce_tables(bound=4)
    assert report.ok
    exhaustive = [c for c in report.cells if "exhaustive" in c.computed]
    assert len(exhaustive) == 7 * 14  # seven tables, 14 printed cells with m + n <= 4
    for c in exhaustive:
        assert c.computed["exhaustive"] == per_cell_oracle(c.table, c.m, c.n)


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
