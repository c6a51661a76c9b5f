from fractions import Fraction

import pytest

from hochschild_kit.painted import binary_painted_trees, enum_painted_trees
from hochschild_kit.series import (
    TruncatedSeries,
    catalan_gf,
    count_binary_painted_trees,
    count_facet_objects,
    count_singletons,
    count_unary_lighted_shades,
    face_generating_function,
    gf_face_count,
    painted_face_row,
    schroder_gf,
    shade_face_row,
    surjection_count,
)
from hochschild_kit.shades import enum_lighted_shades, unary_lighted_shades
from hochschild_kit.shadow import shadow_fibers


def test_catalan_functional_equation():
    c = catalan_gf(9)
    y = TruncatedSeries.variable("y", c.orders)
    assert c == y + c * c
    cats = [c.coefficient(0, k + 1, 0) for k in range(9)]
    assert cats == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_schroder_functional_equation():
    s = schroder_gf(6, 6)
    orders = s.orders
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    residual = (z + one) * s * s - (one + y * z) * s + y
    assert residual.coeffs == {}


def test_composition_needs_zero_constant():
    c = catalan_gf(4)
    bad = TruncatedSeries.constant(1, c.orders)
    with pytest.raises(ValueError):
        c.substitute_y(bad)


def test_series_arithmetic_is_exact():
    orders = (0, 4, 0)
    y = TruncatedSeries.variable("y", orders)
    half = TruncatedSeries.constant(Fraction(1, 2), orders)
    s = (y * half) * 2
    assert s == y


def test_surjection_counts():
    assert surjection_count(3, 2) == 6
    assert surjection_count(4, 4) == 24
    assert surjection_count(3, 1) == 1
    assert surjection_count(2, 3) == 0
    assert surjection_count(0, 0) == 1


def test_binary_counts_closed_form():
    assert count_binary_painted_trees(1, 3) == 21
    assert count_binary_painted_trees(2, 2) == 24
    assert [count_binary_painted_trees(0, n) for n in (1, 2, 3, 4)] == [1, 2, 5, 14]
    assert [count_binary_painted_trees(m, 0) for m in (1, 2, 3)] == [1, 2, 6]


def test_unary_counts_closed_form():
    assert count_unary_lighted_shades(1, 3) == 12
    assert count_unary_lighted_shades(2, 2) == 18
    assert [count_unary_lighted_shades(0, n) for n in (1, 2, 3, 4)] == [1, 2, 4, 8]


def test_facet_counts_closed_form():
    assert count_facet_objects("painted", 1, 3) == 13
    assert count_facet_objects("shade", 2, 2) == 11
    assert [count_facet_objects("shade", m, 0) for m in (2, 3, 4)] == [2, 6, 14]


def test_singleton_counts_closed_form():
    assert count_singletons(1, 3) == 7
    assert count_singletons(2, 2) == 14
    assert [count_singletons(0, n) for n in (1, 2, 3, 4, 5)] == [1, 2, 3, 5, 8]


def test_face_totals_from_gf():
    assert gf_face_count("shade", 1, 3) == 39
    assert gf_face_count("painted", 1, 3) == 67
    assert [gf_face_count("shade", 0, n) for n in (1, 2, 3, 4)] == [1, 3, 9, 27]


def test_three_way_agreement_small():
    for m, n in [(1, 2), (2, 1), (1, 3), (2, 2), (0, 4)]:
        binary = len(binary_painted_trees(m, n))
        assert binary == count_binary_painted_trees(m, n)
        assert binary == gf_face_count("painted", m, n, rank=0)
        unary = len(unary_lighted_shades(m, n))
        assert unary == count_unary_lighted_shades(m, n)
        assert unary == gf_face_count("shade", m, n, rank=0)
        assert len(enum_painted_trees(m, n)) == gf_face_count("painted", m, n)
        assert len(enum_lighted_shades(m, n)) == gf_face_count("shade", m, n)
        d = m + n
        assert len(enum_painted_trees(m, n, rank=d - 2)) == count_facet_objects(
            "painted", m, n
        )
        assert len(enum_lighted_shades(m, n, rank=d - 2)) == count_facet_objects(
            "shade", m, n
        )
        singles = sum(1 for pts in shadow_fibers(m, n).values() if len(pts) == 1)
        assert singles == count_singletons(m, n)


def test_rank_by_rank_gf_matches_enumeration():
    for m, n in [(1, 2), (2, 2), (1, 3)]:
        for rank in range(m + n):
            assert gf_face_count("painted", m, n, rank=rank) == len(
                enum_painted_trees(m, n, rank=rank)
            )
            assert gf_face_count("shade", m, n, rank=rank) == len(
                enum_lighted_shades(m, n, rank=rank)
            )


def test_three_variable_gf_coefficients():
    gf = face_generating_function("shade", 2, 3)
    assert gf.coefficient(1, 3, 0) == 12
    assert gf.coefficient(2, 2, 0) == 18
    gfp = face_generating_function("painted", 1, 3)
    assert gfp.coefficient(1, 4, 0) == 21  # y marks leaves for painted trees


def test_painted_row_uses_leaf_grading():
    row = painted_face_row(0, 5, 5)
    assert row.coefficient(0, 4, 0) == 5  # binary trees with 3 nodes
    assert row.coefficient(0, 4, 1) == 5
    assert row.coefficient(0, 4, 2) == 1


def test_shade_row_uses_size_grading():
    row = shade_face_row(0, 4, 4)
    assert row.coefficient(0, 2, 0) == 2
    assert row.coefficient(0, 2, 1) == 1


def test_non_integral_counts_raise(monkeypatch):
    import hochschild_kit.series as series

    half = TruncatedSeries((0, 3, 3), {(0, 2, 0): Fraction(1, 2)})
    monkeypatch.setattr(series, "painted_face_row", lambda m, oy, oz: half)
    with pytest.raises(RuntimeError, match="not an integer"):
        series.gf_face_count("painted", 0, 1, rank=0)
    with pytest.raises(RuntimeError, match="not an integer"):
        series.gf_face_count("painted", 0, 1)
    monkeypatch.setattr(series, "catalan_tower", lambda i, oy: half)
    with pytest.raises(RuntimeError, match="not an integer"):
        series.count_binary_painted_trees(0, 1)
