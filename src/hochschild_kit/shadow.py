"""The shadow map from painted trees to lighted shades, and its fibers.

The shadow of a painted tree records, down the right branch, the leaf counts
of the subtrees hanging to the left, together with the positions of the cuts.
Its fibers on binary trees define the shadow congruence; the fiber extremes
replace every recorded value by a left comb (minimum) or right comb (maximum)
with the cuts placed at leaf or root level respectively.
"""

from __future__ import annotations

from .painted import LEAF, PaintedTree, _from_tagged, binary_painted_trees
from .shades import LightedShade, unary_lighted_shades


def shadow(pt: PaintedTree) -> LightedShade:
    """The shade recorded along the right branch of a painted tree."""
    entries = []
    cut_of = pt.cut_of_node
    for v in pt.right_branch:
        node = pt._nodes[v][1]
        child_ids = pt._nodes[v][3]
        vals = tuple(
            1 if c is LEAF else pt.leaf_count[cid]
            for c, cid in zip(node[:-1], child_ids[:-1])
        )
        lights = pt.parts[cut_of[v]] if v in cut_of else frozenset()
        entries.append((vals, lights))
    return LightedShade(pt.m, pt.n, entries)


def _cut_tags_below(ls: LightedShade, pos: int) -> list[int]:
    """Bottom-up cut indices of the cuts strictly below a position, ascending."""
    k = len(ls.cut_positions)
    tags = [
        k - 1 - j for j, c in enumerate(ls.cut_positions) if c > pos
    ]
    return sorted(tags)


def _dress(core, tags_ascending):
    """Stack unary cut nodes above ``core``, deepest cut innermost."""
    for tag in tags_ascending:
        core = (tag, (core,))
    return core


def fiber_min(ls: LightedShade) -> PaintedTree:
    """The rotation-minimal binary painted tree with shadow ``ls``.

    Every value s becomes a left comb on s leaves, with all lower cuts
    crossing the comb at leaf level.
    """
    return _fiber_extreme(ls, minimum=True)


def fiber_max(ls: LightedShade) -> PaintedTree:
    """The rotation-maximal binary painted tree with shadow ``ls``.

    Every value s becomes a right comb on s leaves, with all lower cuts
    crossing just above the comb root.
    """
    return _fiber_extreme(ls, minimum=False)


def _fiber_extreme(ls: LightedShade, minimum: bool) -> PaintedTree:
    if not ls.is_unary:
        raise ValueError("fiber extremes are defined for unary shades")
    k = len(ls.cut_positions)
    parts_bottom_up = tuple(reversed(ls.mu))
    current = LEAF
    for pos in range(len(ls.entries) - 1, -1, -1):
        vals, lights = ls.entries[pos]
        if lights:
            tag = k - 1 - ls.cut_positions.index(pos)
            current = (tag, (current,))
            continue
        s = vals[0]
        tags = _cut_tags_below(ls, pos)
        if minimum:
            comb = _dress(LEAF, tags)
            for _ in range(s - 1):
                comb = (None, (comb, _dress(LEAF, tags)))
        else:
            comb = LEAF
            for _ in range(s - 1):
                comb = (None, (LEAF, comb))
            comb = _dress(comb, tags)
        current = (None, (comb, current))
    return _from_tagged(ls.m, ls.n, current, parts_bottom_up)


def is_singleton(pt: PaintedTree) -> bool:
    """True iff the binary painted tree is alone in its shadow fiber.

    A fiber is a singleton exactly when every recorded value is 1, except
    that values of 2 may appear strictly below the bottom cut.
    """
    if not pt.is_binary:
        raise ValueError("singletons are defined for binary painted trees")
    sh = shadow(pt)
    last_cut = max(sh.cut_positions) if sh.cut_positions else -1
    for pos, (vals, _) in enumerate(sh.entries):
        if not vals:
            continue
        v = vals[0]
        if v == 1:
            continue
        if v == 2 and pos > last_cut:
            continue
        return False
    return True


def singleton_tree_condition(pt: PaintedTree) -> bool:
    """Equivalent tree-side singleton test, used as a cross-check.

    Every binary node must lie on the right branch, or hang off a right-branch
    node strictly below the bottom cut.
    """
    if not pt.is_binary:
        raise ValueError("singletons are defined for binary painted trees")
    branch = set(pt.right_branch)
    for v, _, parent, _ in pt._nodes:
        if pt.arity[v] != 2 or v in branch:
            continue
        if parent not in branch:
            return False
        if pt.cuts and not pt.node_below_cut(v, 0):
            return False
    return True


def _group_by_shadow(shades, trees):
    """Map each unary shade to the list of binary painted trees shadowing it.

    Raises AssertionError if some shade receives no tree: the shadow map
    must be surjective.
    """
    fibers = {ls: [] for ls in shades}
    for pt in trees:
        fibers[shadow(pt)].append(pt)
    for ls, pts in fibers.items():
        if not pts:
            raise AssertionError(f"shadow map misses {ls}")
    return fibers


def shadow_fibers(m, n):
    """Group all binary painted trees by their shadow.

    Returns a dict mapping each unary shade to the sorted list of binary
    painted trees in its fiber; every unary shade appears (surjectivity).
    """
    fibers = _group_by_shadow(unary_lighted_shades(m, n), binary_painted_trees(m, n))
    for pts in fibers.values():
        pts.sort(key=lambda t: t.key)
    return fibers
