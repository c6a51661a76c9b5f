"""Cubic coordinates: Lehmer codes, bracket vectors, constrained words.

Unary shades biject with pairs (permutation, constrained word); painted trees
get cubic vectors by counting preposet non-inversions.  Both vector families
drop the constantly-zero first coordinate, decrease in exactly one coordinate
along every rotation cover, and tile the boundary of their bounding box by
the subcubes spanned by the faces of the corresponding polytope.

The subdivision check runs on index bitsets and reads the refinement order
only through its covers.  A face's vertices come from one sweep down the
covers, face x vertex bits in all; per-coordinate threshold masks over the
face cubes answer "which cubes contain this one", "which lie inside it" and
"which meet it" with a few ANDs; two meeting cubes neither inside the other
are intersected broadword on packed keys (`_CubeKeys`); and containment
mirrors refinement when two rules hold at every face's lower covers, so no
step scans all vertices or all pairs of faces, and a passing run builds no
face x face row set.  Failures are recorded as the row-major pair scans
recorded them.  The `cubic` suite runs it up to the `cubic subdivision` entry of
`verify.REACH`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, product
from operator import lshift, or_, sub

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


def _threshold_masks(cubes, box, inside=False):
    """Prefix masks over indexed cubes inside box, one pair per coordinate.

    cubes yields (bit, (lo, hi)).  For coordinate i and value t in the box,
    ``lo_le[i][t - box_lo[i]]`` has the bits of the cubes with lo[i] <= t and
    ``hi_ge[i][t - box_lo[i]]`` those with hi[i] >= t.  With ``inside`` a
    second triple follows, whose pairs hold the cubes with lo[i] >= t and
    hi[i] <= t.
    """
    around, within = ([], [], box[0]), ([], [], box[0])
    cubes = list(cubes)
    for i, (a, b) in enumerate(zip(*box)):
        at_lo, at_hi = [0] * (b - a + 1), [0] * (b - a + 1)
        for bit, (lo, hi) in cubes:
            at_lo[lo[i] - a] |= 1 << bit
            at_hi[hi[i] - a] |= 1 << bit
        around[0].append(list(accumulate(at_lo, or_)))
        around[1].append(list(accumulate(reversed(at_hi), or_))[::-1])
        if inside:
            within[0].append(list(accumulate(reversed(at_lo), or_))[::-1])
            within[1].append(list(accumulate(at_hi, or_)))
    return (around, within) if inside else around


def _cubes_around(masks, lo, hi) -> int:
    """Bits of the cubes c with c.lo <= lo and c.hi >= hi coordinatewise,
    read off the first masks of `_threshold_masks`; off its ``inside``
    masks, those with c.lo >= lo and c.hi <= hi.

    With (lo, hi) a cube the first are the cubes containing it, the second
    the cubes inside it; with (hi, lo) the first are the cubes meeting it.
    All bits are set when there are no coordinates, so callers intersect the
    result with the bits they range over.
    """
    lo_le, hi_ge, base = masks
    out = -1
    for at_lo, at_hi, t, u, a in zip(lo_le, hi_ge, lo, hi, base):
        out &= at_lo[t - a] & at_hi[u - a]
    return out


class _CubeKeys:
    """Cubes inside a box packed into ints, for broadword comparison.

    A cube's key holds 2d fields, low field first: its lo corner as offsets
    from the box's low corner, then its hi corner as offsets from the box's
    high corner, so that a larger field is always a smaller cube.  Each
    field has ``bits`` value bits and one guard bit above them.
    Subtracting b from a with every guard bit of a set leaves the guard bit
    of each field where a's value is at least b's, and no borrow crosses a
    field (Knuth, TAOCP 4A, §7.1.3), so one subtraction compares all 2d
    fields, and the fieldwise max of two keys, the max of the lo corners
    and the min of the hi corners, is the key of the cubes' intersection.
    """

    def __init__(self, box):
        lo, hi = box
        self.d, self.corners = len(lo), (lo, hi)
        self.bits = max(map(sub, hi, lo), default=0).bit_length()
        width = self.bits + 1
        self.shifts = range(0, 2 * self.d * width, width)
        self.guard = sum(1 << s + self.bits for s in self.shifts)

    def key(self, cube) -> int:
        """The cube's lo and hi offsets."""
        (lo, hi), (low, high) = cube, self.corners
        return sum(map(lshift, map(sub, lo + high, low + hi), self.shifts))

    def intersection(self, a, b) -> int:
        """The fieldwise max of two keys: the key of the intersection of two
        cubes that meet."""
        ge = ((a | self.guard) - b) & self.guard
        return b ^ (a ^ b) & (ge - (ge >> self.bits))


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
    """Sub-check (c) on integer indices, with no F x F row set on a pass.

    A face's vertices come from one sweep down the refinement covers in
    reverse topological order: a rank-0 face is its own rotation index bit,
    and every other face ORs the vertex rows of its upper covers, the finer
    faces, so the rows are F x V bits in all and no refinement ``leq`` or
    ``down`` row is read.  A face's cube is spanned by the cubic vectors
    (gamma, by rotation index) of its vertices' rotation extremes.  Face
    cubes are bits of the refinement index; the threshold masks turn
    "contains", "lies inside" and "meets" into ANDs of one mask per
    coordinate and side, and so does "lies in" for the vertices.

    ``intersections_in_collection`` skips the pairs in which one cube
    contains the other, whose intersection is one of the two and never
    fails, and takes every other intersection broadword off the packed keys
    (`_CubeKeys`), looked up in one key -> dimension dict; the pairs come in
    the scan's row-major order, so it records the scan's messages.

    ``containment_mirrors_refinement`` says the cubes containing a face's
    cube are exactly the faces below it (coarser or equal).  With every
    face's cube at hand, two rules per face j decide it from the covers:
    (R1) every lower cover's cube contains j's cube, and (R2) every cube
    containing j's cube is j's own or contains the cube of one of j's lower
    covers.  R1 along a chain of covers puts every face below j around j's
    cube.  Conversely, by well-founded descent along the covers: a face i
    around j's cube other than j lies around some lower cover c's cube by
    R2, so below c, by the claim for c, and so below j.  And row equality
    gives R1 and R2 back, since a face strictly below j is below one of its
    lower covers.  Both rules read j's containing mask, and R2 the masks of
    its lower covers, each computed on demand and none kept.  The premise
    is that every face has its cube: when one has none, R1 could pass over
    a relation through that face, so the row-major scan runs, as it does
    when a rule fails, and every message and first counterexample is the
    scan's.  A face with no cube has already failed ``faces_span_subcubes``.
    """
    ranks = [o.rank for o in ref.elements]
    members = [1 << rot.index(o) if r == 0 else 0 for o, r in zip(ref.elements, ranks)]
    covers_up = ref._covers_up
    for j in reversed(ref.topological_order):
        for hi in covers_up[j]:
            members[j] |= members[hi]
    points = _threshold_masks(((i, (g, g)) for i, g in enumerate(gamma)), box)

    cubes = {}
    ledger.record("faces_span_subcubes", True)
    for j, o in enumerate(ref.elements):
        mins, maxs = rot.extremes(list(_bits(members[j])))
        if len(mins) != 1 or len(maxs) != 1:
            ledger.record("faces_span_subcubes", False, f"{o}: no unique extremes")
            continue
        cube = (gamma[maxs[0]], gamma[mins[0]])
        if any(a > b for a, b in zip(cube[0], cube[1])):
            ledger.record("faces_span_subcubes", False, f"{o}: degenerate span")
            continue
        if _cube_dim(cube) != ranks[j]:
            detail = f"{o}: dim {_cube_dim(cube)} != rank {ranks[j]}"
            ledger.record("faces_span_subcubes", False, detail)
        for v in _bits(members[j] & ~_cubes_around(points, cube[1], cube[0])):
            detail = f"{o}: vertex {rot.elements[v]} outside its cube"
            ledger.record("faces_span_subcubes", False, detail)
        cubes[j] = cube
    del members

    present = sum(1 << j for j in cubes)
    whole = max(range(ref.n), key=ranks.__getitem__)
    proper = present & ~(1 << whole)
    faces, inner = _threshold_masks(cubes.items(), box, inside=True)

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
    _intersection_checks(ref, cubes, proper, faces, inner, box, ledger)

    ledger.record("containment_mirrors_refinement", True)
    if len(cubes) < ref.n or not _containment_by_covers(ref, cubes, faces):
        # some column differs, or some face has no cube: the row-major scan
        # finds the first pair
        for j1 in cubes:
            for j2 in cubes:
                if ref.le(j1, j2) != _cube_contains(cubes[j1], cubes[j2]):
                    detail = f"{ref.elements[j1]} vs {ref.elements[j2]}"
                    ledger.record("containment_mirrors_refinement", False, detail)


def _intersection_checks(ref, cubes, proper, faces, inner, box, ledger):
    """Every two proper cubes that meet, in row-major order: each
    intersection not in the collection, or of a dimension not below both.

    A pair in which one cube contains the other meets in one of the two and
    is skipped; every other pair is intersected on its packed keys and
    looked up in one key -> dimension dict, and the intersection is built
    as a cube only for a failure's message.
    """
    keys = _CubeKeys(box)
    key, dim = [0] * proper.bit_length(), [0] * proper.bit_length()
    for j in _bits(proper):
        key[j], dim[j] = keys.key(cubes[j]), _cube_dim(cubes[j])
    dims = {key[j]: dim[j] for j in _bits(proper)}
    meet = keys.intersection
    for a in _bits(proper):
        lo, hi = cubes[a]
        later = proper & _cubes_around(faces, hi, lo) & -(2 << a)
        if not later:
            continue
        later &= ~(_cubes_around(faces, lo, hi) | _cubes_around(inner, lo, hi))
        ka, da = key[a], dim[a]
        for b in _bits(later):
            inter = dims.get(meet(ka, key[b]))
            if inter is not None and inter < da and inter < dim[b]:
                continue
            # the two meet, so the coordinatewise bounds are a cube
            cube = (tuple(map(max, lo, cubes[b][0])), tuple(map(min, hi, cubes[b][1])))
            if inter is None:
                detail = f"{ref.elements[a]} and {ref.elements[b]} meet in {cube}"
                ledger.record("intersections_in_collection", False, detail)
            else:
                ledger.record("intersections_in_collection", False, f"dimension at {cube}")


def _containment_by_covers(ref, cubes, faces) -> bool:
    """R1 and R2 of `_subdivision_checks` at every face; every face has its
    cube."""
    everything = (1 << ref.n) - 1
    for j, lower in enumerate(ref._covers_down):
        around = _cubes_around(faces, *cubes[j]) & everything
        covers = sum(1 << c for c in lower)
        if covers & ~around:
            return False
        # each lower cover lies around its own cube
        rest = around & ~(covers | 1 << j)
        for c in lower:
            if not rest:
                break
            rest &= ~_cubes_around(faces, *cubes[c])
        if rest:
            return False
    return True


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
