"""The exhaustive table census against the per-cell route it replaced.

The oracle below regenerates every painted tree or lighted shade of a cell
with the public, sorted enumerators, once per printed cell.  The census makes
one pass per family per (m, n) and counts by rank; both must agree.
"""

import pytest

from hochschild_kit import tables
from hochschild_kit.painted import binary_painted_trees, enum_painted_trees
from hochschild_kit.shades import enum_lighted_shades, unary_lighted_shades
from hochschild_kit.shadow import shadow_fibers
from hochschild_kit.tables import PRINTED_TABLES, exhaustive_census, reproduce_tables

CELLS = [(m, d - m) for d in range(1, 6) for m in range(d + 1)]


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


def test_census_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        exhaustive_census(0, 0)
    with pytest.raises(ValueError):
        exhaustive_census(-1, 2)


def test_census_raises_when_shadow_misses_a_shade(monkeypatch):
    real = tables._painted_trees

    def no_binary_trees(m, n, binary=False):
        return iter(()) if binary else real(m, n)

    monkeypatch.setattr(tables, "_painted_trees", no_binary_trees)
    with pytest.raises(AssertionError, match="shadow map misses"):
        exhaustive_census(1, 2)


def test_reproduce_tables_reads_exhaustive_values_from_census():
    report = reproduce_tables(bound=4, formula_bound=4)
    assert report.ok
    exhaustive = [c for c in report.cells if "exhaustive" in c.computed]
    assert len(exhaustive) == 7 * 14  # seven tables, 14 printed cells with m + n <= 4
    for c in exhaustive:
        assert c.computed["exhaustive"] == per_cell_oracle(c.table, c.m, c.n)
