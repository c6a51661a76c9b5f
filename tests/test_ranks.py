"""The one rank rule per family against the object-level routes it replaced.

A rank-filtered enumeration skips a painted-tree shape of another rank
before its labels are distributed, and a shade entry after which the rank
is out of reach.  The former route built
every labeled object of (m, n) and filtered on the object; it stays here as
the oracle, with a rank read off the object itself.
"""

import pytest

from hochschild_kit.painted import PaintedTree, _painted_trees, enum_painted_trees
from hochschild_kit.shades import LightedShade, enum_lighted_shades

from oracles import count_constructions, filtered_lighted_shades, object_rank, rank_filtered

CELLS_TO_5 = [(m, d - m) for d in range(1, 6) for m in range(d + 1)]
KINDS = {
    "painted": (PaintedTree, _painted_trees, enum_painted_trees),
    "shade": (LightedShade, filtered_lighted_shades, enum_lighted_shades),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m, n", CELLS_TO_5)
def test_rank_rule_matches_the_object_rank(kind, m, n):
    _, generate, _ = KINDS[kind]
    for obj in generate(m, n):
        assert obj.rank == object_rank(obj)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m, n", CELLS_TO_5)
def test_rank_filter_matches_the_object_filter(kind, m, n):
    # the same objects in the same canonical order, rank 0 included
    _, generate, enum = KINDS[kind]
    everything = list(generate(m, n))
    for rank in range(m + n):
        assert enum(m, n, rank=rank) == rank_filtered(everything, rank)


@pytest.mark.parametrize("kind", KINDS)
def test_rank_filter_builds_only_what_it_returns(monkeypatch, kind):
    # objects are counted at both constructors, the public and the internal one
    cls, _, enum = KINDS[kind]
    built = count_constructions(monkeypatch, cls)
    for m, n in CELLS_TO_5:
        for rank in range(m + n):
            built[0] = 0
            out = enum(m, n, rank=rank)
            assert built[0] == len(out), (m, n, rank)
