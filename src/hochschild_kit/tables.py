"""Regression fixtures: the seven appendix enumeration tables.

Each table is stored exactly as printed (None marks a blank or dotted cell),
with a small erratum registry for the cells whose printed values disagree
with both the stated formulas and exhaustive generation:

* the n = 0 column of the Hochschild vertex table is shifted by one row
  (printed (m+1)!, the count of unary shades is m!);
* the two one-dimensional cells (0, 1) and (1, 0) of the multiplihedron
  facet table print 1 where the facet-object count (and the closed formula)
  give 0 for a point.

reproduce_tables recomputes every printed cell by closed form and generating
function, and additionally by exhaustive generation up to a size bound, and
diffs all of it against the fixtures.  The generating-function cells of one
(family, m) all read one series row, built at the largest n they need, and
those rows have one m + oy per family, so the ten rows of a family are read
off one series tower (see `series`); the closed vertex cells read one
Catalan tower.

Exhaustive generation makes one census per (m, n) (exhaustive_census).  The
facet and face cells come from rank histograms in which labels are counted,
not generated, because no rank depends on them: every tagged painted-tree
shape with k cuts stands for surjection_count(m, k) labeled trees (the count
the closed forms use as well), and every tuple sequence of a shade for its
number of light distributions, binned by the one rank rule of its family
(`painted.shape_rank`, `shades.sequence_rank`).  Neither is built:
`painted._painted_shape_counts` counts the shapes per number of cuts and of
uncut nodes, and `_shade_rank_histogram` the sequences per number of
positions, of empty ones and of rank steps.  The vertex cells and the
shadow fiber sizes behind the singleton cell come from one orbit of label
permutations at a time, times m!, over the rank-0 shades of
`shades.canonical_shades`, and the fibers are counted, not walked (the
spine lemma): a binary shape splits at its right spine into unary cut nodes
and binary uncut nodes, the left child of an uncut spine node with s
leaves is any binary tree over s leaves that crosses the j cuts still below
it, so a unary shade's fiber is the product of B(j, s) over its value
entries, B(j, s) the binary shapes of the grammar's T(j, s, s - 1)
(`painted._binary_shape_counts`).  The fibers sum to the binary shape count
of `_painted_shape_counts`, which proves the shadow onto; when a premise
fails, the walk that reads each binary shape's shadow
(`shadow.shadow_entries`) runs instead and raises what it finds.  So a
passing census builds no painted tree and no painted shape.  The routes
that build or walk every object stay in the tests as oracles.  Both verify
and the command line read the exhaustive bound from `verify.REACH`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, factorial

from .families import family
from .painted import (
    LEAF,
    _binary_shape_counts,
    _check_params,
    _painted_shape_counts,
    _painted_shapes,
)
from .series import (
    _row_face_count,
    count_binary_painted_trees,
    count_singletons,
    count_unary_lighted_shades,
    surjection_count,
)
from .shades import LightedShade, _tuples_upto, canonical_shades
from .shadow import shadow_entries

_ = None

PRINTED_TABLES = {
    "multiplihedron_vertices": [
        [_, 1, 2, 5, 14, 42, 132, 429, 1430, 4862],
        [1, 2, 6, 21, 80, 322, 1348, 5814, 25674, _],
        [2, 6, 24, 108, 520, 2620, 13648, 72956, _, _],
        [6, 24, 120, 660, 3840, 23220, 144504, _, _, _],
        [24, 120, 720, 4680, 31920, 225120, _, _, _, _],
        [120, 720, 5040, 37800, 295680, _, _, _, _, _],
        [720, 5040, 40320, 342720, _, _, _, _, _, _],
        [5040, 40320, 362880, _, _, _, _, _, _, _],
        [40320, 362880, _, _, _, _, _, _, _, _],
        [362880, _, _, _, _, _, _, _, _, _],
    ],
    "multiplihedron_facets": [
        [_, 1, 2, 5, 9, 14, 20, 27, 35, 44],
        [1, 2, 6, 13, 25, 46, 84, 155, 291, _],
        [2, 6, 14, 29, 57, 110, 212, 411, _, _],
        [6, 14, 30, 61, 121, 238, 468, _, _, _],
        [14, 30, 62, 125, 249, 494, _, _, _, _],
        [30, 62, 126, 253, 505, _, _, _, _, _],
        [62, 126, 254, 509, _, _, _, _, _, _],
        [126, 254, 510, _, _, _, _, _, _, _],
        [254, 510, _, _, _, _, _, _, _, _],
        [510, _, _, _, _, _, _, _, _, _],
    ],
    "multiplihedron_faces": [
        [_, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049],
        [1, 3, 13, 67, 381, 2311, 14681, 96583, 653049, _],
        [3, 13, 75, 497, 3583, 27393, 218871, 1810373, _, _],
        [13, 75, 541, 4375, 38073, 349423, 3341753, _, _, _],
        [75, 541, 4683, 44681, 454855, 4859697, _, _, _, _],
        [541, 4683, 47293, 519847, 6055401, _, _, _, _, _],
        [4683, 47293, 545835, 6790697, _, _, _, _, _, _],
        [47293, 545835, 7087261, _, _, _, _, _, _, _],
        [545835, 7087261, _, _, _, _, _, _, _, _],
        [7087261, _, _, _, _, _, _, _, _, _],
    ],
    "hochschild_vertices": [
        [_, 1, 2, 4, 8, 16, 32, 64, 128, 256],
        [2, 2, 5, 12, 28, 64, 144, 320, 704, _],
        [6, 6, 18, 50, 132, 336, 832, 2016, _, _],
        [24, 24, 84, 264, 774, 2160, 5808, _, _, _],
        [120, 120, 480, 1680, 5400, 16344, _, _, _, _],
        [720, 720, 3240, 12480, 43560, _, _, _, _, _],
        [5040, 5040, 25200, 105840, _, _, _, _, _, _],
        [40320, 40320, 221760, _, _, _, _, _, _, _],
        [362880, 362880, _, _, _, _, _, _, _, _],
        [3628800, _, _, _, _, _, _, _, _, _],
    ],
    "hochschild_facets": [
        [_, 0, 2, 4, 6, 8, 10, 12, 14, 16],
        [0, 2, 5, 8, 11, 14, 17, 20, 23, _],
        [2, 6, 11, 16, 21, 26, 31, 36, _, _],
        [6, 14, 23, 32, 41, 50, 59, _, _, _],
        [14, 30, 47, 64, 81, 98, _, _, _, _],
        [30, 62, 95, 128, 161, _, _, _, _, _],
        [62, 126, 191, 256, _, _, _, _, _, _],
        [126, 254, 383, _, _, _, _, _, _, _],
        [254, 510, _, _, _, _, _, _, _, _],
        [510, _, _, _, _, _, _, _, _, _],
    ],
    "hochschild_faces": [
        [_, 1, 3, 9, 27, 81, 243, 729, 2187, 6561],
        [1, 3, 11, 39, 135, 459, 1539, 5103, 16767, _],
        [3, 13, 57, 233, 909, 3429, 12609, 45441, _, _],
        [13, 75, 383, 1767, 7635, 31491, 125415, _, _, _],
        [75, 541, 3153, 16169, 76437, 341205, _, _, _, _],
        [541, 4683, 30671, 172839, 885795, _, _, _, _, _],
        [4683, 47293, 343857, 2110313, _, _, _, _, _, _],
        [47293, 545835, 4362383, _, _, _, _, _, _, _],
        [545835, 7087261, _, _, _, _, _, _, _, _],
        [7087261, _, _, _, _, _, _, _, _, _],
    ],
    "singletons": [
        [_, 1, 2, 3, 5, 8, 13, 21, 34, 55],
        [1, 2, 4, 7, 12, 20, 33, 54, 88, _],
        [2, 6, 14, 28, 52, 92, 158, 266, _, _],
        [6, 24, 66, 150, 306, 582, 1056, _, _, _],
        [24, 120, 384, 984, 2208, 4536, _, _, _, _],
        [120, 720, 2640, 7560, 18600, _, _, _, _, _],
        [720, 5040, 20880, 66240, _, _, _, _, _, _],
        [5040, 40320, 186480, _, _, _, _, _, _, _],
        [40320, 362880, _, _, _, _, _, _, _, _],
        [362880, _, _, _, _, _, _, _, _, _],
    ],
}

ERRATA = {
    ("hochschild_vertices", m, 0): factorial(m) for m in range(1, 10)
}
ERRATA[("multiplihedron_facets", 0, 1)] = 0
ERRATA[("multiplihedron_facets", 1, 0)] = 0


def expected_value(table: str, m: int, n: int):
    """Printed value with errata applied; None for blank cells."""
    if (table, m, n) in ERRATA:
        return ERRATA[(table, m, n)]
    return PRINTED_TABLES[table][m][n]


# -- the three computation routes ---------------------------------------------------


def _closed(table, m, n, fams):
    """The closed-form value of a cell, or None when the table has none;
    ``fams`` maps each family's objects' name to its `Family`."""
    # built per call, so that a counting function rebound on the module is the one run
    routes = {
        "multiplihedron_vertices": lambda: count_binary_painted_trees(m, n),
        "multiplihedron_facets": lambda: fams["painted"].facet_count(m, n),
        "hochschild_vertices": lambda: count_unary_lighted_shades(m, n),
        "hochschild_facets": lambda: fams["shade"].facet_count(m, n),
        "singletons": lambda: count_singletons(m, n),
    }
    return routes[table]() if table in routes else None


def _gf(table, m, n, n_row, fams):
    """The series value of a cell, read from the row of m built at n_row >= n."""
    d = m + n
    routes = {  # table -> (family, rank; None for all ranks)
        "multiplihedron_vertices": ("painted", 0),
        "multiplihedron_facets": ("painted", d - 2),
        "multiplihedron_faces": ("painted", None),
        "hochschild_vertices": ("shade", 0),
        "hochschild_facets": ("shade", d - 2),
        "hochschild_faces": ("shade", None),
    }
    if table not in routes:
        return None
    kind, rank = routes[table]
    if rank is not None and rank < 0:
        return 0  # a point (m + n = 1) has no facets
    return _row_face_count(fams[kind], m, n, rank, n_row)


@dataclass(frozen=True)
class Census:
    """Exhaustive object counts at one (m, n).

    ``painted_ranks[p]`` and ``shade_ranks[p]`` count the objects of rank p,
    summed over the counted painted shapes and tuple sequences with their
    label counts; the vertex and singleton counts come from one orbit of
    label permutations at a time: the shadow fibers over the rank-0 orbit
    representatives, each counted as the product of the binary shapes that
    can hang left of its right spine (`_vertex_census`).
    """

    painted_ranks: tuple
    shade_ranks: tuple
    binary_painted: int
    unary_shades: int
    singletons: int

    def cells(self) -> dict:
        """The exhaustive value of every table at this (m, n)."""
        d = len(self.painted_ranks)
        return {
            "multiplihedron_vertices": self.binary_painted,
            "multiplihedron_facets": self.painted_ranks[d - 2] if d >= 2 else 0,
            "multiplihedron_faces": sum(self.painted_ranks),
            "hochschild_vertices": self.unary_shades,
            "hochschild_facets": self.shade_ranks[d - 2] if d >= 2 else 0,
            "hochschild_faces": sum(self.shade_ranks),
            "singletons": self.singletons,
        }


def exhaustive_census(m: int, n: int) -> Census:
    """Count every painted tree and lighted shade of (m, n) by rank.

    One count of the painted shapes, which the rank histogram and the
    vertex census share, and one count of the shade tuple sequences fill
    the rank histograms; the shadow fibers over the rank-0 orbit
    representatives, each counted as a product off the spine grammar, give
    the vertex and singleton counts (`_vertex_census`).  A passing census
    builds no painted tree and no painted shape, and no object outlives its
    pass.
    """
    _check_params(m, n)
    counts = _painted_shape_counts(m, n)
    binary, unary, singletons = _vertex_census(m, n, counts[m, n])
    return Census(
        _painted_rank_histogram(m, n, counts),
        _shade_rank_histogram(m, n),
        binary,
        unary,
        singletons,
    )


def _painted_rank_histogram(m, n, counts=None):
    """Painted trees by rank, counted with no shape built: the tagged shapes
    with k cuts and ``free`` uncut nodes (``counts``, which a census shares
    with its vertex count, or else `painted._painted_shape_counts`), each
    weighted by the surjection_count(m, k) label partitions it carries, at
    rank m + n - k - free (`painted.shape_rank`)."""
    if counts is None:
        counts = _painted_shape_counts(m, n)
    hist = [0] * (m + n)
    for (k, free), count in counts.items():
        hist[m + n - k - free] += surjection_count(m, k) * count
    return tuple(hist)


def _shade_rank_histogram(m, n):
    """Lighted shades by rank: each tuple sequence, weighted by its number of
    light distributions (maps from the m labels onto the positions that hit
    every empty tuple, by inclusion-exclusion over the missed empty tuples),
    at rank m plus its rank steps.  No sequence is built: ``rests`` counts
    those of a sum with at most so many empty tuples by (positions, empty
    positions, rank steps), memoised, and only these numbers are read."""
    memo = {}

    def rests(left, empties):
        out = memo.get((left, empties))
        if out is None:
            out = memo[left, empties] = Counter({(0, 0, 0): 1} if not left else ())
            for vals, used, step in _tuples_upto(left):
                if vals or empties:
                    for (p, e, s), count in rests(left - used, empties - (not vals)).items():
                        out[p + 1, e + (not vals), s + step] += count
        return out

    hist = [0] * (m + n)
    for (p, e, s), count in rests(n, m).items():
        if p:
            hist[m + s] += count * sum(
                (-1) ** i * comb(e, i) * (p - i) ** m for i in range(e + 1)
            )
    return tuple(hist)


def _vertex_census(m, n, binary):
    """(binary painted trees, unary shades, singleton fibers) of (m, n).

    Counted on one representative per orbit of the label permutations,
    times m!.  A permutation of 1, ..., m relabels the parts of a painted
    tree and the lights of a shade.  A binary tree's parts and a unary
    shade's lights are single labels, so S_m acts freely on both sets (each
    rank-0 orbit of `canonical_shades` is checked to hold m! shades), and
    each orbit has one representative: the shade whose lights read 1, ...,
    m from the top, as the stream yields it, and the tree whose parts,
    bottom cut first, are ({m}, ..., {1}).  The shadow copies the parts into
    the lights, top cut first, so it commutes with relabeling and a tree is
    a representative iff its shadow's lights read 1, ..., m.  So the labeled
    counts are m! times the representatives', and the shadow maps the
    binary trees onto the unary shades iff it maps the representative trees
    onto the representative shades.  The representative trees are the
    binary shapes, ``binary`` of them (`painted._painted_shape_counts`).

    The fibers are counted, not walked (`_spine_fibers`).  Split a binary
    shape at its right spine: the spine's nodes are unary cut nodes, on cuts
    m - 1, ..., 0 from the top since every root-to-leaf path crosses every
    cut, and binary uncut nodes.  Under the representative parts the shadow
    reads a light entry {i} off the i-th cut node from the top and a value
    entry (s,) off an uncut node whose left child has s leaves.  That left
    child crosses exactly the j cuts still below its node, so it is any tree
    of T(j, s, s - 1); the spine and its left children determine the shape,
    and every choice of left children gives one.  So the fiber of a shade
    whose value entries s_1, s_2, ... have j_1, j_2, ... lights after them
    is the product of the B(j_i, s_i), B(j, s) the binary shapes of
    T(j, s, s - 1) (`painted._binary_shape_counts`); it is 0 unless the
    lights read {1}, ..., {m} from the top and the values sum to n.  The
    premises, checked on the stream:

    * every representative is unary with single-label lights, in that order;
    * the representatives' entries are distinct;
    * each has a positive fiber;
    * the fibers sum to the number of binary shapes, ``binary``.

    The shadow is a function, so the fibers over distinct shades are
    disjoint sets of binary shapes.  By the second and fourth premise their
    union is every binary shape, so every shadow is a representative; by
    the third every representative is a shadow.  So the shadow maps the
    representative trees onto the representative shades.  When a premise
    fails, `_walked_fibers` reads each binary shape's shadow instead
    (`shadow_entries`) and raises the first failure it finds.

    Raises AssertionError unless every rank-0 orbit has m! shades, the
    stream yields each representative once, the shadows of the
    representative trees are exactly the representative shades, and the
    walk meets ``binary`` binary shapes.
    """
    orbit = factorial(m)
    unary = []
    for ls, size in canonical_shades(m, n, rank=0):
        if size != orbit:
            raise AssertionError(f"the orbit of {ls} has {size} shades, not {m}! = {orbit}")
        unary.append(ls)
    sizes = _spine_fibers(m, n, unary, binary)
    if sizes is None:
        sizes = _walked_fibers(m, n, unary, binary)
    singletons = sum(1 for size in sizes.values() if size == 1)
    return orbit * sum(sizes.values()), orbit * len(unary), orbit * singletons


def _spine_fibers(m, n, unary, binary):
    """The fiber size of each representative, by its entries, counted off the
    spine grammar (see `_vertex_census`), or None unless every fiber is
    positive, no entries come twice and the fibers sum to ``binary``."""
    trees = _binary_shape_counts(m, n)
    lights = [frozenset({label}) for label in range(1, m + 1)]
    sizes = {}
    for ls in unary:
        below, left, size = m, n, 1
        for vals, lit in ls.entries:
            if not vals and below and lit == lights[m - below]:
                below -= 1
            elif len(vals) == 1 and not lit and 0 < vals[0] <= left:
                size *= trees[below][vals[0]]
                left -= vals[0]
            else:
                return None
        if below or left or not size or ls.entries in sizes:
            return None
        sizes[ls.entries] = size
    return sizes if sum(sizes.values()) == binary else None


def _walked_fibers(m, n, unary, binary):
    """The fiber size of each representative, by its entries, from the
    shadow of every binary shape, read off its spine with one leaf memo for
    the pass: the route `_vertex_census` takes when a premise of its count
    fails."""
    sizes = Counter()
    for ls in unary:
        if ls.entries in sizes:
            raise AssertionError(f"the rank-0 stream yields {ls} twice")
        sizes[ls.entries] = 0
    parts = tuple(frozenset({label}) for label in range(m, 0, -1))
    memo = {LEAF: 1}

    def leaves(t):
        count = memo.get(t)
        if count is None:
            count = memo[t] = sum(map(leaves, t[1]))
        return count

    sizes.update(
        shadow_entries(shape, parts, leaves)
        for shape, _, _ in _painted_shapes(m, n, binary=True)
    )
    for ls in unary:
        if not sizes[ls.entries]:
            raise AssertionError(f"shadow map misses {ls}")
    if len(sizes) > len(unary):
        stray = LightedShade._new(m, n, list(sizes)[len(unary)])
        raise AssertionError(f"shadow {stray} is not a unary shade")
    walked = sum(sizes.values())
    if walked != binary:
        raise AssertionError(f"the walk meets {walked} binary shapes, the count says {binary}")
    return sizes


@dataclass
class CellCheck:
    table: str
    m: int
    n: int
    printed: int
    expected: int
    computed: dict
    erratum: bool

    @property
    def ok(self) -> bool:
        return all(v == self.expected for v in self.computed.values())


@dataclass
class TableReport:
    bound: int
    cells: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [c for c in self.cells if not c.ok]

    @property
    def errata(self) -> list:
        return [c for c in self.cells if c.erratum]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_csv(self) -> str:
        rows = ["table,m,n,printed,expected,methods,ok,erratum"]
        for c in self.cells:
            methods = ";".join(f"{k}={v}" for k, v in sorted(c.computed.items()))
            rows.append(
                f"{c.table},{c.m},{c.n},{c.printed},{c.expected},"
                f"{methods},{int(c.ok)},{int(c.erratum)}"
            )
        return "\n".join(rows) + "\n"


def reproduce_tables(bound: int = 7) -> TableReport:
    """Recompute all printed cells and diff against the fixtures.

    Closed forms and generating-function coefficients run at every printed
    cell; exhaustive generation runs for m + n <= bound.  The families are
    looked up once per call: a function rebound before it is the one run.
    """
    report = TableReport(bound)
    fams = {kind: family(kind) for kind in ("painted", "shade")}
    censuses = {}  # (m, n) -> exhaustive value per table
    printed_cells = [
        (table, m, n, printed)
        for table, rows in PRINTED_TABLES.items()
        for m, row in enumerate(rows)
        for n, printed in enumerate(row)
        if printed is not None
    ]
    # The series cells of one (family, m) read one row, built at the largest
    # n they need: truncation only drops higher terms, so the lower
    # coefficients equal those of a per-cell row.
    n_rows = {}
    for _, m, n, _ in printed_cells:
        n_rows[m] = max(n_rows.get(m, 0), n)
    for table, m, n, printed in printed_cells:
        computed = {}
        closed = _closed(table, m, n, fams)
        if closed is not None:
            computed["closed"] = closed
        gf = _gf(table, m, n, n_rows[m], fams)
        if gf is not None:
            computed["gf"] = gf
        if m + n <= bound:
            if (m, n) not in censuses:
                censuses[m, n] = exhaustive_census(m, n).cells()
            computed["exhaustive"] = censuses[m, n][table]
        expected = expected_value(table, m, n)
        report.cells.append(
            CellCheck(
                table, m, n, printed, expected, computed, (table, m, n) in ERRATA
            )
        )
    return report
