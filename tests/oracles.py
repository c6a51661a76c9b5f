"""Oracles shared by the test modules: simple routes the kit's fast code is
compared with."""

from hochschild_kit.painted import PaintedTree


def transitive_closure_pairs(d: int, pairs) -> frozenset:
    """Independent helper: the set of strict pairs generated by ``pairs``.

    Kept deliberately naive (Warshall on a dict of sets); used by tests as an
    oracle against the bitmask implementation.
    """
    reach = {i: {i} for i in range(1, d + 1)}
    for i, j in pairs:
        reach[i].add(j)
    for k in range(1, d + 1):
        for i in range(1, d + 1):
            if k in reach[i]:
                reach[i] |= reach[k]
    return frozenset((i, j) for i in reach for j in reach[i] if i != j)


def object_rank(obj) -> int:
    """The rank read off a labeled object, with no shape-level rule.

    A painted tree: m + n - (internal nodes) - (cuts) + (nodes on a cut).
    A lighted shade: m - (positions) + (integer entries).
    """
    if isinstance(obj, PaintedTree):
        on_cuts = sum(node.tag is not None for node in obj.walk)
        return obj.m + obj.n - len(obj.walk) - len(obj.parts) + on_cuts
    return obj.m - len(obj.entries) + sum(len(vals) for vals, _ in obj.entries)


def rank_filtered(objects, rank) -> list:
    """The objects of one rank in canonical order, filtered object by object
    after every labeled object was built."""
    return key_sorted(obj for obj in objects if object_rank(obj) == rank)


def key_sorted(objects) -> list:
    """Objects in canonical order, the order in which the move methods once
    returned their results."""
    return sorted(objects, key=lambda obj: obj.key)
