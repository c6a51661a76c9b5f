"""Cubic coordinates: Lehmer codes, bracket vectors, constrained words.

Unary shades biject with pairs (permutation, constrained word); painted trees
get cubic vectors by counting preposet non-inversions.  Both vector families
drop the constantly-zero first coordinate, decrease in exactly one coordinate
along every rotation cover, and tile the boundary of their bounding box by
the subcubes spanned by the faces of the corresponding polytope.

The subdivision check runs on index bitsets: a face's vertices are read off
its refinement up-set row, and per-coordinate threshold masks over the face
cubes answer "which cubes contain this one" and "which cubes meet this one"
with a few ANDs, so no step scans all vertices or all pairs of faces.  The
`cubic` suite runs it up to the `cubic subdivision` entry of `verify.REACH`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, product
from operator import or_

from .families import family
from .ledger import Ledger
from .painted import PaintedTree
from .preposets import _bits
from .shades import LightedShade


# -- classical codes -----------------------------------------------------------


def lehmer_code(perm) -> tuple[int, ...]:
    """Full Lehmer code: entry j counts smaller values appearing before j."""
    pos = {v: i for i, v in enumerate(perm)}
    return tuple(
        sum(1 for i in range(1, j) if pos[i] < pos[j])
        for j in range(1, len(perm) + 1)
    )


def bracket_vector(tree_or_pt) -> tuple[int, ...]:
    """Full bracket vector of a binary tree: left-subtree leaf counts minus 1."""
    if isinstance(tree_or_pt, PaintedTree):
        pt = tree_or_pt
    else:
        pt = PaintedTree.from_cuts(0, _count_nodes(tree_or_pt), tree_or_pt, [], [])
    if pt.m != 0 or not pt.is_binary:
        raise ValueError("bracket vectors come from binary unpainted trees")
    out = [0] * pt.n
    for node in pt.walk:
        out[node.labels[0] - 1] = node.counts[0] - 1
    return tuple(out)


def _count_nodes(tree):
    if tree is None:
        return 0
    return (len(tree) - 1) + sum(_count_nodes(c) for c in tree)


# -- constrained words ------------------------------------------------------------


def word_violation(m: int, n: int, word) -> str | None:
    """The violated word clause, or None when the word is valid."""
    if len(word) != n:
        return f"length {len(word)} differs from n = {n}"
    if any(not 0 <= w <= m + 1 for w in word):
        return f"letters must lie in 0..{m + 1}"
    if n and word[0] == m + 1:
        return f"first letter must differ from {m + 1}"
    for i, w in enumerate(word):
        if 1 <= w <= m:
            if any(word[j] < w for j in range(i)):
                return f"letter {w} at position {i + 1} follows a smaller letter"
    return None


def enum_words(m: int, n: int) -> list[tuple[int, ...]]:
    """All constrained words of length n over 0..m+1, lexicographically."""
    return sorted(
        w
        for w in product(range(m + 2), repeat=n)
        if word_violation(m, n, w) is None
    )


@dataclass(frozen=True)
class HochschildWord:
    """A permutation (cut labels, bottom cut first) with a constrained word."""

    m: int
    n: int
    perm: tuple[int, ...]
    word: tuple[int, ...]

    def validate(self):
        if sorted(self.perm) != list(range(1, self.m + 1)):
            raise ValueError("perm must be a permutation of 1..m")
        reason = word_violation(self.m, self.n, self.word)
        if reason is not None:
            raise ValueError(f"invalid word: {reason}")


def shade_to_word(ls: LightedShade) -> HochschildWord:
    """Encode a unary shade: each value s becomes the number of cuts below it
    followed by s - 1 filler letters m + 1."""
    if not ls.is_unary:
        raise ValueError("the word encoding is defined for unary shades")
    m, n = ls.m, ls.n
    perm = tuple(min(ls.entries[p][1]) for p in reversed(ls.cut_positions))
    word = [m + 1] * n
    for pos, s, ps in ls.singletons:
        word[ps - m - s] = ls.cuts_below_position(pos)
    return HochschildWord(m, n, perm, tuple(word))


def word_to_shade(hw: HochschildWord) -> LightedShade:
    """Decode: place a tuple (s) for each maximal block i (m+1)^{s-1}, above
    exactly i of the cuts' positions counted from the bottom."""
    hw.validate()
    m, n = hw.m, hw.n
    filler = m + 1
    blocks = []
    i = 0
    while i < len(hw.word):
        s = 1
        while i + s < len(hw.word) and hw.word[i + s] == filler:
            s += 1
        blocks.append((hw.word[i], s))
        i += s
    top_down_labels = list(reversed(hw.perm))
    entries = []
    bi = 0
    for cut_number in range(m + 1):
        cuts_below = m - cut_number
        while bi < len(blocks) and blocks[bi][0] == cuts_below:
            entries.append(((blocks[bi][1],), frozenset()))
            bi += 1
        if cut_number < m:
            entries.append(((), frozenset({top_down_labels[cut_number]})))
    if bi != len(blocks):
        raise ValueError("word letters do not decrease with the cut structure")
    ls = LightedShade(m, n, entries)
    ls.validate()
    return ls


# -- cubic vectors -----------------------------------------------------------------


def cubic_vector_painted(pt: PaintedTree) -> tuple[int, ...]:
    """Below-relation counts of a binary painted tree, first coordinate dropped.

    Entry j counts the elements i < j lying strictly below j: cuts stacked
    below a cut, cuts crossing below a node, nodes hanging below a cut, and
    tree descendants.  The relation is used as drawn, without closing it
    transitively through the cuts: the closure version fails to move by one
    coordinate along sweeps once m >= 1 and n >= 2, while this one specializes
    to the Lehmer code at n = 0 and to the bracket vector at m = 0.
    """
    if not pt.is_binary:
        raise ValueError("cubic vectors come from binary painted trees")
    m, d = pt.m, pt.m + pt.n
    walk = pt.walk
    cut_of_label = {p: i for i, part in enumerate(pt.parts) for p in part}
    node_of_label = {node.labels[0]: v for v, node in enumerate(walk) if node.labels}

    def below(i, j) -> bool:
        if i <= m and j <= m:
            return cut_of_label[i] < cut_of_label[j]
        if i <= m < j:
            return cut_of_label[i] < walk[node_of_label[j - m]].below
        if j <= m < i:
            node = walk[node_of_label[i - m]]
            return cut_of_label[j] >= node.below + (node.tag is not None)
        u, v = node_of_label[i - m], node_of_label[j - m]
        return v < u < v + walk[v].size

    full = [sum(1 for i in range(1, j) if below(i, j)) for j in range(1, d + 1)]
    return tuple(full[1:])


def cubic_vector_shade(ls: LightedShade) -> tuple[int, ...]:
    """Lehmer code of the cut order concatenated with the word, first
    coordinate dropped."""
    hw = shade_to_word(ls)
    full = lehmer_code(hw.perm) + hw.word
    return tuple(full[1:])


# -- cubic realization checks ---------------------------------------------------------


@dataclass(frozen=True)
class CubicReport:
    """The outcome of one cubic realization check; read-only."""

    kind: str
    m: int
    n: int
    checks: Mapping[str, bool]
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _cube_of(points):
    lo = tuple(min(p[i] for p in points) for i in range(len(points[0])))
    hi = tuple(max(p[i] for p in points) for i in range(len(points[0])))
    return (lo, hi)


def _cube_dim(cube):
    lo, hi = cube
    return sum(1 for a, b in zip(lo, hi) if a < b)


def _cube_contains(outer, inner) -> bool:
    return all(
        a <= c and d <= b
        for a, b, c, d in zip(outer[0], outer[1], inner[0], inner[1])
    )


def _threshold_masks(cubes, box):
    """Prefix masks over indexed cubes inside box, one pair per coordinate.

    cubes yields (bit, (lo, hi)).  For coordinate i and value t in the box,
    ``lo_le[i][t - box_lo[i]]`` has the bits of the cubes with lo[i] <= t and
    ``hi_ge[i][t - box_lo[i]]`` those with hi[i] >= t.
    """
    lo_le, hi_ge = [], []
    cubes = list(cubes)
    for i, (a, b) in enumerate(zip(*box)):
        at_lo, at_hi = [0] * (b - a + 1), [0] * (b - a + 1)
        for bit, (lo, hi) in cubes:
            at_lo[lo[i] - a] |= 1 << bit
            at_hi[hi[i] - a] |= 1 << bit
        lo_le.append(list(accumulate(at_lo, or_)))
        hi_ge.append(list(accumulate(reversed(at_hi), or_))[::-1])
    return lo_le, hi_ge, box[0]


def _cubes_around(masks, lo, hi) -> int:
    """Bits of the cubes c with c.lo <= lo and c.hi >= hi coordinatewise.

    With (lo, hi) a cube these are the cubes containing it; with (hi, lo) they
    are the cubes meeting it.  All bits are set when there are no coordinates,
    so callers intersect the result with the bits they range over.
    """
    lo_le, hi_ge, base = masks
    out = -1
    for i, (t, u, a) in enumerate(zip(lo, hi, base)):
        out &= lo_le[i][t - a] & hi_ge[i][u - a]
    return out


def verify_cubic_realization(kind: str, m: int, n: int, subdivision: bool = True) -> CubicReport:
    """Check the cubic realization and the induced cubic subdivision.

    (a) every rotation cover decreases exactly one cubic coordinate;
    (b) all images lie on the boundary of the bounding box;
    (c) each polytope face spans a subcube of the right dimension, the proper
        subcubes cover the boundary, intersect in common subcubes, and their
        containment order mirrors the refinement order (skipped when
        ``subdivision`` is false, which avoids building the refinement poset).
    """
    from .posets import build_refinement_poset, build_rotation_poset

    rot = build_rotation_poset(kind, m, n)
    gamma_fn = family(kind).cubic_vector
    gamma = [gamma_fn(o) for o in rot.elements]
    ledger = Ledger()
    distinct = len(set(gamma))
    detail = f"{distinct} of {len(gamma)} vectors distinct"
    ledger.record("injective", distinct == len(gamma), detail)

    ledger.record("single_coordinate_decrease", True)
    for lo, hi in rot.covers:
        a, b = gamma[lo], gamma[hi]
        diffs = [(i, x - y) for i, (x, y) in enumerate(zip(a, b)) if x != y]
        if len(diffs) != 1 or diffs[0][1] <= 0:
            detail = f"{rot.elements[lo]} -> {rot.elements[hi]}: {a} vs {b}"
            ledger.record("single_coordinate_decrease", False, detail)

    box = _cube_of(gamma)
    spanned = (gamma[rot.top], gamma[rot.bottom])
    ledger.record("box_spanned_by_extremes", box == spanned, f"box {box}, extremes span {spanned}")

    ledger.record("images_on_boundary", True)
    for o, g in zip(rot.elements, gamma):
        if not _cube_on_boundary((g, g), box):
            ledger.record("images_on_boundary", False, f"{o}: {g}")

    if subdivision:
        _subdivision_checks(rot, build_refinement_poset(kind, m, n), gamma, box, ledger)
    return CubicReport(kind, m, n, ledger.verdicts(), ledger.first_failure())


def _subdivision_checks(rot, ref, gamma, box, ledger):
    """Sub-check (c) on integer indices.

    A face's vertices are the rank-0 bits of its refinement up-set row, and
    its cube is spanned by the cubic vectors (gamma, by rotation index) of
    their rotation extremes.  Face cubes are bits of the refinement index;
    the threshold masks turn "contains", "meets" and "lies inside" into ANDs
    of one mask per coordinate and side.  Every check reports the first
    failure of the row-major pair scans it replaces.
    """
    ranks = [o.rank for o in ref.elements]
    rot_bit = [1 << rot.index(o) if r == 0 else 0 for o, r in zip(ref.elements, ranks)]
    vertices = sum(1 << j for j, r in enumerate(ranks) if r == 0)
    points = _threshold_masks(((i, (g, g)) for i, g in enumerate(gamma)), box)

    cubes = {}
    ledger.record("faces_span_subcubes", True)
    for j, o in enumerate(ref.elements):
        members = 0
        for k in _bits(ref.leq[j] & vertices):
            members |= rot_bit[k]
        mins, maxs = rot.extremes(list(_bits(members)))
        if len(mins) != 1 or len(maxs) != 1:
            ledger.record("faces_span_subcubes", False, f"{o}: no unique extremes")
            continue
        cube = (gamma[maxs[0]], gamma[mins[0]])
        if any(a > b for a, b in zip(cube[0], cube[1])):
            ledger.record("faces_span_subcubes", False, f"{o}: degenerate span")
            continue
        if _cube_dim(cube) != o.rank:
            detail = f"{o}: dim {_cube_dim(cube)} != rank {o.rank}"
            ledger.record("faces_span_subcubes", False, detail)
        for v in _bits(members & ~_cubes_around(points, cube[1], cube[0])):
            detail = f"{o}: vertex {rot.elements[v]} outside its cube"
            ledger.record("faces_span_subcubes", False, detail)
        cubes[j] = cube

    present = sum(1 << j for j in cubes)
    whole = max(range(ref.n), key=ranks.__getitem__)
    proper = present & ~(1 << whole)
    faces = _threshold_masks(cubes.items(), box)

    ledger.record("subcubes_on_boundary", True)
    for j in _bits(proper):
        if not _cube_on_boundary(cubes[j], box):
            ledger.record("subcubes_on_boundary", False, f"{ref.elements[j]}: {cubes[j]}")

    ledger.record("boundary_covered", True)
    for cell in _boundary_cells(box):
        if not _cubes_around(faces, *cell) & proper:
            ledger.record("boundary_covered", False, f"cell {cell}")
            break

    ledger.record("intersections_in_collection", True)
    dims = {cubes[j]: _cube_dim(cubes[j]) for j in _bits(proper)}
    for a in _bits(proper):
        c1 = cubes[a]
        later = proper & _cubes_around(faces, c1[1], c1[0]) & -(2 << a)
        for b in _bits(later):
            c2 = cubes[b]
            # the two meet, so the coordinatewise bounds are a cube
            inter = (tuple(map(max, c1[0], c2[0])), tuple(map(min, c1[1], c2[1])))
            if inter not in dims:
                detail = f"{ref.elements[a]} and {ref.elements[b]} meet in {inter}"
                ledger.record("intersections_in_collection", False, detail)
            elif inter != c1 and inter != c2 and dims[inter] >= min(dims[c1], dims[c2]):
                ledger.record("intersections_in_collection", False, f"dimension at {inter}")

    ledger.record("containment_mirrors_refinement", True)
    if any(
        _cubes_around(faces, *cubes[j]) & present != ref.down[j] & present
        for j in cubes
    ):
        # some column differs: the row-major scan finds the first pair
        for j1 in cubes:
            for j2 in cubes:
                if ref.le(j1, j2) != _cube_contains(cubes[j1], cubes[j2]):
                    detail = f"{ref.elements[j1]} vs {ref.elements[j2]}"
                    ledger.record("containment_mirrors_refinement", False, detail)


def _cube_on_boundary(cube, box) -> bool:
    (clo, chi), (blo, bhi) = cube, box
    if not clo:
        return True
    return any(
        a == b and (a == p or a == q)
        for a, b, p, q in zip(clo, chi, blo, bhi)
    )


def _boundary_cells(box):
    """Unit cells of the boundary of an integer box, as degenerate-free cubes."""
    lo, hi = box
    d = len(lo)
    for i in range(d):
        for side in (lo[i], hi[i]):
            ranges = []
            for j in range(d):
                if j == i:
                    ranges.append([(side, side)])
                else:
                    if lo[j] == hi[j]:
                        ranges.append([(lo[j], hi[j])])
                    else:
                        ranges.append(
                            [(a, a + 1) for a in range(lo[j], hi[j])]
                        )
            for combo in product(*ranges):
                yield (tuple(c[0] for c in combo), tuple(c[1] for c in combo))
