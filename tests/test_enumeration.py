"""The four enumerators against the routes they replaced.

The painted enumerators sort shapes, not trees, and a rank filter prunes
inside the shape tables; the one shade generator builds shades position by
position, already in canonical order, and prunes each position by the rank
rule.  The former routes build every shape of every rank, filter it, and
sort every labeled object by its key, with lights distributed over fresh
subsets; they stay in `oracles` and must give the same objects in the same
order.
"""

from itertools import islice

import pytest

from hochschild_kit import painted, tables
from hochschild_kit.painted import (
    _free_nodes,
    _painted_shapes,
    binary_painted_trees,
    enum_painted_trees,
    shape_rank,
)
from hochschild_kit.shades import (
    LightedShade,
    _shades,
    enum_lighted_shades,
    unary_lighted_shades,
)

from oracles import (
    count_constructions,
    key_sorted_binary_painted_trees,
    key_sorted_lighted_shades,
    key_sorted_painted_trees,
    object_rank,
    recursive_light_distributions,
    tuple_sequences,
)

CELLS_TO_4 = [(m, d - m) for d in range(1, 5) for m in range(d + 1)]
CELLS_TO_6 = [(m, d - m) for d in range(1, 7) for m in range(d + 1)]
CELLS_7 = [(m, 7 - m) for m in range(8)]


@pytest.mark.parametrize("kind", ["painted", "shade"])
@pytest.mark.parametrize("mn", CELLS_TO_6 + CELLS_7)
def test_enumerators_match_the_key_sorted_routes(kind, mn):
    # object for object and in order, with no rank filter and with each rank,
    # each object of the rank it was asked for; at m + n = 7 the vertices and
    # the facets only
    m, n = mn
    if kind == "painted":
        enum, vertices, oracle = enum_painted_trees, binary_painted_trees, key_sorted_painted_trees
        assert vertices(m, n) == key_sorted_binary_painted_trees(m, n)
    else:
        enum, vertices, oracle = enum_lighted_shades, unary_lighted_shades, key_sorted_lighted_shades
    assert vertices(m, n) == oracle(m, n, rank=0)
    ranks = [None, *range(m + n)] if m + n < 7 else [0, m + n - 2]
    for rank in ranks:
        got = enum(m, n, rank=rank)
        assert got == oracle(m, n, rank=rank), rank
        assert rank is None or all(obj.rank == object_rank(obj) == rank for obj in got), rank


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("n", range(4))
def test_light_distributions_match_the_subset_route(m, n):
    # the lights the generator puts on each tuple sequence; up to two more
    # empty tuples than labels: those sequences get no lights
    lit = {}
    for ls in enum_lighted_shades(m, n) if m + n else ():
        lit.setdefault(tuple(vals for vals, _ in ls.entries), []).append(
            tuple(lights for _, lights in ls.entries)
        )
    for seq in tuple_sequences(n, m + 2):
        got = lit.pop(tuple(seq), [])
        want = {tuple(lights) for lights in recursive_light_distributions(seq, m)}
        assert len(got) == len(set(got)), seq
        assert set(got) == want, seq
        if seq.count(()) > m:
            assert not got, seq
    assert not lit


def test_the_generator_streams_in_canonical_order(monkeypatch):
    # no list of the cell is built: the first shades cost only themselves,
    # counted at both constructors, the public and the internal one
    built = count_constructions(monkeypatch, LightedShade)
    first = list(islice(_shades(7, 1), 50))
    assert len(first) == 50 and built[0] <= 50
    monkeypatch.undo()
    assert list(islice(_shades(4, 3), 200)) == key_sorted_lighted_shades(4, 3)[:200]


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("mn", CELLS_TO_6)
def test_carried_count_is_the_uncut_node_count(mn, binary):
    m, n = mn
    for rank in [None, *range(m + n)]:
        for shape, k, free in _painted_shapes(m, n, binary, rank):
            assert free == _free_nodes(shape)
            assert rank is None or shape_rank(m, n, shape, k) == rank


def test_enumeration_and_census_read_the_carried_count(monkeypatch):
    # no rank is read off a walked shape, whatever the filter
    def walked(tagged):
        raise AssertionError("a shape was walked for its rank")

    monkeypatch.setattr(painted, "_free_nodes", walked)
    for m, n in CELLS_TO_4:
        assert binary_painted_trees(m, n) and unary_lighted_shades(m, n)
        for rank in [None, *range(m + n)]:
            enum_painted_trees(m, n, rank=rank)
            enum_lighted_shades(m, n, rank=rank)
        assert sum(tables._painted_rank_histogram(m, n)) == len(enum_painted_trees(m, n))
