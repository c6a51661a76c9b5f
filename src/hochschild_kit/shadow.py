"""The shadow map from painted trees to lighted shades, and its fibers.

The shadow of a painted tree records, down the right branch, the leaf counts
of the subtrees hanging to the left, together with the positions of the cuts.
One spine reader, `shadow_entries`, reads it off a tagged shape and its
parts; `shadow` wraps it.  The census in `tables` counts the fibers on the
binary trees off the spine grammar instead, with no shape built, and runs
the reader only on its fallback walk.  The fibers on binary trees define
the shadow congruence; the fiber extremes replace every recorded value by a
left comb (minimum) or right comb (maximum) with the cuts placed at leaf or
root level.
"""

from __future__ import annotations

from .painted import LEAF, PaintedTree, binary_painted_trees, tree_leaves
from .shades import _UNLIT, LightedShade, unary_lighted_shades


def shadow_entries(t, parts, leaves=tree_leaves) -> tuple:
    """The shadow's entries, top first, of a tagged shape whose cut i holds
    ``parts[i]``: per right-branch node, the ``leaves`` of all its children
    but the last, and its part."""
    entries = []
    while t is not LEAF:
        tag, children = t
        entries.append((tuple(map(leaves, children[:-1])), _UNLIT if tag is None else parts[tag]))
        t = children[-1]
    return tuple(entries)


def shadow(pt: PaintedTree) -> LightedShade:
    """The shade recorded along the right branch of a painted tree."""
    return LightedShade._new(pt.m, pt.n, shadow_entries(pt.tagged, pt.parts))


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
    return PaintedTree._new(ls.m, ls.n, current, parts_bottom_up)


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


def shadow_fibers(m, n):
    """Group all binary painted trees by their shadow.

    Returns a dict mapping each unary shade to the list of binary painted
    trees in its fiber, in canonical order.  Raises AssertionError unless the
    shadows are exactly the unary shades, as `tables` does.
    """
    fibers = {ls: [] for ls in unary_lighted_shades(m, n)}
    unary = len(fibers)
    for pt in binary_painted_trees(m, n):
        fibers.setdefault(shadow(pt), []).append(pt)
    for ls, pts in fibers.items():
        if not pts:
            raise AssertionError(f"shadow map misses {ls}")
    if len(fibers) > unary:
        raise AssertionError(f"shadow {list(fibers)[unary]} is not a unary shade")
    return fibers
