from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hochschild_kit.families import family
from hochschild_kit.painted import binary_painted_trees, enum_painted_trees
from hochschild_kit.series import (
    TruncatedSeries,
    catalan_gf,
    catalan_tower,
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
from hochschild_kit.tables import reproduce_tables

from oracles import (
    checked_add,
    checked_mul,
    full_order_catalan_gf,
    full_order_schroder_gf,
    full_order_shade_denominator,
    neumann_shade_face_row,
    per_row_painted_face_row,
    per_row_shade_face_row,
    per_term_painted_face_row,
    shifted_face_generating_function,
    substitute_y,
)


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


def test_cached_series_are_read_only():
    # the rows and towers are process-wide caches shared by every caller
    with pytest.raises(TypeError):
        painted_face_row(1, 3, 3).coeffs[(0, 3, 0)] = 999
    with pytest.raises(AttributeError):
        catalan_tower(2, 3).coeffs.clear()
    assert gf_face_count("painted", 1, 2, rank=0) == 6
    assert count_binary_painted_trees(1, 2) == 6


def _per_cell_gf(table, m, n):
    """A printed series cell read from the row built for (m, n) alone."""
    kind = "painted" if table.startswith("multiplihedron") else "shade"
    row = painted_face_row(m, n + 1, m + n) if kind == "painted" else shade_face_row(m, n, m + n)
    ey = n + 1 if kind == "painted" else n
    d = m + n
    if table.endswith("vertices"):
        return row.coefficient(0, ey, 0)
    if table.endswith("facets"):
        return row.coefficient(0, ey, d - 2) if d >= 2 else 0
    return row.y_coefficient_total(ey)


def test_per_m_row_matches_per_cell_rows():
    # reproduce_tables reads every series cell of (family, m) from one row
    # built at the largest printed n of that m
    report = reproduce_tables(bound=0)
    gf_cells = [c for c in report.cells if "gf" in c.computed]
    assert len(gf_cells) == 6 * 54  # six series tables, 54 printed cells each
    for c in gf_cells:
        assert c.computed["gf"] == _per_cell_gf(c.table, c.m, c.n), (c.table, c.m, c.n)
        assert type(c.computed["gf"]) is int


def test_integral_series_hold_only_ints():
    import hochschild_kit.series as series

    rows = [catalan_gf(9), schroder_gf(7, 7), catalan_tower(3, 4)]
    for m in range(4):
        rows += [painted_face_row(m, 7 - m, 6), shade_face_row(m, 6 - m, 6)]
    rows += [*series._painted_tower(7, 6)[:7], *series._shade_tower(6, 6)]  # U_7 is 0 mod y
    for row in rows:
        assert row.coeffs
        assert all(type(c) is int for c in row.coeffs.values())


def test_coefficients_keep_int_and_fraction_and_coerce_the_rest():
    s = TruncatedSeries((0, 2, 0), {(0, 0, 0): 3, (0, 1, 0): Fraction(1, 3), (0, 2, 0): "2/4"})
    assert type(s.coefficient(0, 0, 0)) is int
    assert s.coefficient(0, 1, 0) == Fraction(1, 3)
    assert s.coefficient(0, 2, 0) == Fraction(1, 2)
    assert type((s * s).coefficient(0, 0, 0)) is int


ROW_ORACLES = {"painted_face_row": per_term_painted_face_row, "shade_face_row": neumann_shade_face_row}


def _rows_read_by_reproduce_tables(monkeypatch):
    """(row function name, m, oy, oz) of every face row the printed tables read."""
    import hochschild_kit.series as series

    read = set()
    for name in ROW_ORACLES:

        def record(m, oy, oz, name=name, build=getattr(series, name)):
            read.add((name, m, oy, oz))
            return build(m, oy, oz)

        monkeypatch.setattr(series, name, record)
    reproduce_tables(bound=0)
    monkeypatch.undo()
    return sorted(read)


def test_table_rows_match_the_per_term_and_neumann_routes(monkeypatch):
    import hochschild_kit.series as series

    read = _rows_read_by_reproduce_tables(monkeypatch)
    # one row per (family, m), built at the largest printed n of that m
    assert [(name, m) for name, m, _, _ in read] == [
        (name, m) for name in sorted(ROW_ORACLES) for m in range(10)
    ]
    for name, m, oy, oz in read:
        row = getattr(series, name)(m, oy, oz)
        assert dict(row.coeffs) == dict(ROW_ORACLES[name](m, oy, oz).coeffs), (name, m)


def test_the_tables_compose_once_per_tower_level(monkeypatch):
    # from cold caches, the 20 series rows of the printed tables are read off
    # one tower per family and the closed vertex cells off one Catalan tower,
    # each level one composition: 20 compositions in all (136 when every row
    # composed its own tower) and a few hundred products (2,132)
    import hochschild_kit.series as series

    for fn in vars(series).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    counts = Counter()
    product, compose = TruncatedSeries.__mul__, TruncatedSeries.substitute_y

    def counted_product(self, other):
        counts["products"] += 1
        return product(self, other)

    def counted_composition(self, inner):
        counts["compositions"] += 1
        return compose(self, inner)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_product)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", counted_product)
    monkeypatch.setattr(TruncatedSeries, "substitute_y", counted_composition)
    assert reproduce_tables(bound=0).ok
    assert counts["compositions"] <= 21, counts
    assert counts["products"] <= 750, counts


@pytest.mark.parametrize("name", sorted(ROW_ORACLES))
def test_one_more_label_adds_one_term_of_products_to_a_row(monkeypatch, name):
    # a row of m is read off the tower of m + oy, so one more label adds one
    # tower level: a fixed number more of products and compositions (a
    # composition counted once, whatever it multiplies inside); off a built
    # tower a row takes none
    import hochschild_kit.series as series

    oy, oz = 3, 12
    build = getattr(series, name).__wrapped__
    tower = getattr(series, "_%s_tower" % name.split("_")[0])
    calls, inside = [], []
    product, compose = TruncatedSeries.__mul__, TruncatedSeries.substitute_y

    def counted(self, other):
        if not inside:
            calls.append(1)
        return product(self, other)

    def counted_composition(self, inner):
        calls.append(1)
        inside.append(1)
        try:
            return compose(self, inner)
        finally:
            inside.pop()

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    monkeypatch.setattr(TruncatedSeries, "substitute_y", counted_composition)
    counts = []
    for m in range(1, 11):
        tower.cache_clear()
        series.schroder_gf.cache_clear()
        calls.clear()
        build(m, oy, oz)
        counts.append(len(calls))
        calls.clear()
        build(m, oy, oz)
        assert not calls, (m, len(calls))
    assert len({b - a for a, b in zip(counts, counts[1:])}) == 1, counts


PER_ROW_ORACLES = {
    "painted_face_row": per_row_painted_face_row,
    "shade_face_row": per_row_shade_face_row,
}


@pytest.mark.parametrize("name", sorted(PER_ROW_ORACLES))
def test_tower_rows_match_the_per_row_route(name):
    # z-orders below m + oy - 1 cut the rank range short, so the tower's
    # z-truncation is read too; a taller tower gives the same row
    import hochschild_kit.series as series

    row_of = getattr(series, name)
    tower_of = family(name.split("_")[0]).face_tower
    for m in range(7):
        for oy in range(1, 8):
            for oz in range(m + oy + 2):
                want = dict(PER_ROW_ORACLES[name](m, oy, oz).coeffs)
                assert dict(row_of(m, oy, oz).coeffs) == want, (m, oy, oz)
                taller = series._tower_row(tower_of(m + oy + 2, oz), m, oy, oz)
                assert dict(taller.coeffs) == want, (m, oy, oz)


def test_catalan_tower_matches_the_per_level_compositions():
    # read off one tower of top 11 or more, against C composed i times at oy
    for oy in range(1, 13):
        c, level = catalan_gf(oy), catalan_gf(oy)
        for i in range(1, 14 - oy):
            if i > 1:
                level = c.substitute_y(level)
            assert dict(catalan_tower(i, oy).coeffs) == dict(level.coeffs), (i, oy)
            assert catalan_tower(i, oy).orders == (0, oy, 0)


def test_fixed_points_by_degree_match_the_full_order_iterations():
    # each iteration of the kit runs at the one y-order it settles; the
    # oracles run every iteration at the full order
    import hochschild_kit.series as series

    for oy in range(13):
        assert catalan_gf(oy).orders == (0, oy, 0)
        assert dict(catalan_gf(oy).coeffs) == dict(full_order_catalan_gf(oy).coeffs), oy
        for oz in sorted({0, 1, 3, oy}):
            orders = (0, oy, oz)
            got, want = schroder_gf(oy, oz), full_order_schroder_gf(oy, oz)
            assert got.orders == orders and dict(got.coeffs) == dict(want.coeffs), (oy, oz)
            # the tower's first term is (1 - y(z + 1)) times the denominator's inverse
            y, z = TruncatedSeries.variable("y", orders), TruncatedSeries.variable("z", orders)
            one = TruncatedSeries.constant(1, orders)
            head = (one - y * (z + one)) * full_order_shade_denominator(oy, oz)
            first = series._shade_tower(oy, oz)[0]
            assert first.orders == orders and dict(first.coeffs) == dict(head.coeffs), (oy, oz)
            assert all(type(c) is int for c in (*got.coeffs.values(), *first.coeffs.values()))


def test_a_row_asks_its_tower_for_no_more_than_it_holds():
    import hochschild_kit.series as series

    with pytest.raises(ValueError, match="cannot give row"):
        series._tower_row(series._painted_tower(5, 4), 3, 3, 4)
    with pytest.raises(ValueError, match="cannot give row"):
        series._tower_row(series._shade_tower(5, 4), 2, 3, 3)
    with pytest.raises(ValueError, match="above"):
        catalan_gf(3).y_truncated(4)


def test_cached_towers_cannot_be_changed():
    import hochschild_kit.series as series

    towers = [series._painted_tower(5, 4), series._shade_tower(5, 4), series._catalan_levels(5)]
    for tower in towers:
        assert type(tower) is tuple and len(tower) == 6
        assert [level.orders[1] for level in tower] == [5, 4, 3, 2, 1, 0]
        with pytest.raises(TypeError):
            tower[0] = tower[1]
        with pytest.raises(TypeError):
            tower[1].coeffs[(0, 1, 0)] = 999
        with pytest.raises(AttributeError):
            tower[1].coeffs.clear()
    assert dict(painted_face_row(1, 4, 4).coeffs) == dict(per_row_painted_face_row(1, 4, 4).coeffs)
    assert dict(shade_face_row(1, 4, 4).coeffs) == dict(per_row_shade_face_row(1, 4, 4).coeffs)


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_face_generating_function_matches_the_shifted_route(kind):
    for m_max in range(4):
        for n_max in range(5):
            gf = face_generating_function(kind, m_max, n_max)
            oracle = shifted_face_generating_function(kind, m_max, n_max)
            assert gf.orders == oracle.orders
            assert dict(gf.coeffs) == dict(oracle.coeffs), (m_max, n_max)


@st.composite
def _series_pair(draw):
    """A small series and one to substitute for its y, on the same orders."""
    orders = (draw(st.integers(0, 2)), draw(st.integers(1, 5)), draw(st.integers(0, 2)))
    values = st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3)

    def terms(min_y):
        keys = st.tuples(
            st.integers(0, orders[0]), st.integers(min_y, orders[1]), st.integers(0, orders[2])
        )
        return draw(st.dictionaries(keys, values, max_size=6))

    return TruncatedSeries(orders, terms(0)), TruncatedSeries(orders, terms(1))


@given(_series_pair())
def test_layered_substitution_matches_the_per_term_route(pair):
    outer, inner = pair
    assert dict(outer.substitute_y(inner).coeffs) == dict(substitute_y(outer, inner).coeffs)


def _stored(s):
    """The coefficients of ``s`` with their types, after checking that none
    is zero, lies above the orders, or is neither an int nor a Fraction."""
    for expo, c in s.coeffs.items():
        assert c != 0, expo
        assert all(e <= o for e, o in zip(expo, s.orders)), expo
        assert isinstance(c, (int, Fraction)), (expo, c)
    return {expo: (type(c), c) for expo, c in s.coeffs.items()}


@st.composite
def _operands(draw):
    """Two small series with int and Fraction coefficients, on the same orders
    or on different ones."""
    values = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)

    def series(orders):
        keys = st.tuples(*(st.integers(0, o) for o in orders))
        return TruncatedSeries(orders, draw(st.dictionaries(keys, values, max_size=6)))

    def orders():
        return tuple(draw(st.integers(0, top)) for top in (2, 4, 2))

    a = series(orders())
    return a, series(a.orders if draw(st.booleans()) else orders())


@given(_operands(), st.sampled_from([0, 1, -3, Fraction(0), Fraction(-1, 2)]))
def test_sum_and_product_match_the_checked_routes(pair, scalar):
    a, b = pair
    cases = [
        (a + b, checked_add(a, b)),
        (b + a, checked_add(b, a)),
        (a * b, checked_mul(a, b)),
        (b * a, checked_mul(b, a)),
        (a - a, checked_add(a, checked_mul(a, -1))),
        (a * scalar, checked_mul(a, scalar)),
        (scalar * a, checked_mul(a, scalar)),
        (a + scalar, checked_add(a, scalar)),
    ]
    for got, want in cases:
        assert got.orders == want.orders
        assert _stored(got) == _stored(want)


def test_cancelled_sums_and_zero_scalars_store_nothing():
    orders = (1, 3, 2)
    s = TruncatedSeries(orders, {(0, 1, 0): 2, (1, 2, 1): Fraction(1, 3), (0, 0, 2): -1})
    t = TruncatedSeries(orders, {(0, 1, 0): -2, (1, 2, 1): Fraction(-1, 3)})
    assert dict((s + t).coeffs) == {(0, 0, 2): -1}
    assert not (s - s).coeffs and not (s * 0).coeffs and not (0 * s).coeffs
    assert not (s * Fraction(0)).coeffs
    # (1 + y)(1 - y) = 1 - y^2: the y terms cancel inside the product
    y = TruncatedSeries.variable("y", orders)
    one = TruncatedSeries.constant(1, orders)
    assert dict(((one + y) * (one - y)).coeffs) == {(0, 0, 0): 1, (0, 2, 0): -1}


def test_power_rejects_a_negative_exponent():
    y = TruncatedSeries.variable("y", (0, 3, 0))
    assert dict(y.power(0).coeffs) == {(0, 0, 0): 1}
    assert dict(y.power(2).coeffs) == {(0, 2, 0): 1}
    with pytest.raises(ValueError, match="negative"):
        y.power(-1)
