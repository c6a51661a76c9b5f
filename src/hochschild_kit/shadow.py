"""The shadow map from painted trees to lighted shades, and its fibers.

The shadow of a painted tree records, down the right branch, the leaf counts
of the subtrees hanging to the left, together with the positions of the cuts.
`shadow_entries` reads it off any tagged shape and its parts; `shadow`
wraps it.  The census in `tables` counts the fibers on the binary trees off
the spine grammar instead, with no shape built, and runs that reader only
on its fallback walk.

On a binary tree the shadow is unary, so it is its sequence of values and
cuts plus its labels read top to bottom (`shades.labeling`).  The second
spine reader, `spine`, reads a binary shape's sequence and its cut tags,
top first, once per shape, and `shadow_images` gives each labeling of the
shape its shade's index from that key, with no tree hashed and no shade
built: the index list that the morphism suite hands to both order checks
in `posets`.

The fibers on binary trees define the shadow congruence; the fiber extremes
replace every recorded value by a left comb (minimum) or right comb
(maximum) with the cuts placed at leaf or root level.  They depend on the
value sequence alone, so one function, `fiber_shape`, gives the extreme's
shape per sequence, which the congruence check builds once for all the
labelings of a sequence; `fiber_min` and `fiber_max` add the labels.
"""

from __future__ import annotations

from .painted import LEAF, PaintedTree, binary_painted_trees, tree_leaves
from .shades import _UNLIT, LightedShade, labeling, unary_lighted_shades


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


def spine(shape, leaves=tree_leaves) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A binary tagged shape's right spine, top first: its sequence of values
    and cuts, the ``leaves`` of each uncut node's left child and 0 for a cut
    node, and the tags of its cut nodes."""
    seq, tags = [], []
    while shape is not LEAF:
        tag, children = shape
        if tag is None:
            seq.append(leaves(children[0]))
        else:
            seq.append(0)
            tags.append(tag)
        shape = children[-1]
    return tuple(seq), tuple(tags)


def shadow_images(trees, shades) -> list[int]:
    """The index in ``shades``, a list of unary shades, of each binary
    painted tree's shadow, or -1 where the shadow is not among them.

    The shadow of a binary tree is unary: its sequence of values and cuts is
    the tree's `spine`, and the lights of the cut with tag t are the tree's
    part t, so its labels read top to bottom are the parts of the spine's
    tags, top first.  That pair is the shade's `shades.labeling`, which one
    dict maps to its index.  The spine is read once per run of consecutive
    trees on one shape, as `binary_painted_trees` lays out a shape's
    labelings, so no tree is hashed and no shade is built.
    """
    index = {labeling(ls): i for i, ls in enumerate(shades)}
    images = []
    shape = None
    for pt in trees:
        if pt.tagged is not shape:
            shape = pt.tagged
            seq, tags = spine(shape)
        parts = pt.parts
        images.append(index.get((seq, tuple([x for tag in tags for x in parts[tag]])), -1))
    return images


def _dress(core, cuts):
    """Stack unary nodes on the cuts 0, ..., ``cuts`` - 1 above ``core``,
    cut 0, the deepest, innermost."""
    for tag in range(cuts):
        core = (tag, (core,))
    return core


def fiber_shape(seq, minimum: bool):
    """The tagged shape of the rotation-minimal (``minimum``) or -maximal
    binary painted tree in the fiber of the unary shades on the sequence of
    values and cuts ``seq`` (0 for a cut), top first.

    Built bottom-up: a cut is a unary node tagged with the number of cuts
    below it, and a value s hangs left of the spine a left comb on s leaves
    with all lower cuts crossing it at leaf level (minimum), or a right comb
    with all lower cuts crossing just above its root (maximum).
    """
    current, below = LEAF, 0
    for s in reversed(seq):
        if not s:
            current = (below, (current,))
            below += 1
            continue
        if minimum:
            comb = _dress(LEAF, below)
            for _ in range(s - 1):
                comb = (None, (comb, _dress(LEAF, below)))
        else:
            comb = LEAF
            for _ in range(s - 1):
                comb = (None, (LEAF, comb))
            comb = _dress(comb, below)
        current = (None, (comb, current))
    return current


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
    """`fiber_shape` of the shade's sequence, its cuts labeled by the
    shade's lights, bottom cut first."""
    if not ls.is_unary:
        raise ValueError("fiber extremes are defined for unary shades")
    seq, _ = labeling(ls)
    return PaintedTree._new(ls.m, ls.n, fiber_shape(seq, minimum), tuple(reversed(ls.mu)))


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
