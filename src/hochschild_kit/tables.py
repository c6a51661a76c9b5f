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
diffs all of it against the fixtures.  Exhaustive generation makes one pass
per family per (m, n) (exhaustive_census): each pass generates the painted
trees or lighted shades of every rank once and counts them by rank, which
gives the facet and face cells; one binary and one unary pass give the
vertex cells and the shadow fibers behind the singleton cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .painted import _check_params, _painted_trees
from .series import (
    count_binary_painted_trees,
    count_facet_objects,
    count_singletons,
    count_unary_lighted_shades,
    gf_face_count,
)
from .shades import _lighted_shades, _unary_shades
from .shadow import _group_by_shadow

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


def _closed(table, m, n):
    if table == "multiplihedron_vertices":
        return count_binary_painted_trees(m, n)
    if table == "multiplihedron_facets":
        return count_facet_objects("painted", m, n)
    if table == "hochschild_vertices":
        return count_unary_lighted_shades(m, n)
    if table == "hochschild_facets":
        return count_facet_objects("shade", m, n)
    if table == "singletons":
        return count_singletons(m, n)
    return None


def _gf(table, m, n):
    d = m + n
    if table == "multiplihedron_vertices":
        return gf_face_count("painted", m, n, rank=0)
    if table == "multiplihedron_facets":
        return gf_face_count("painted", m, n, rank=d - 2) if d >= 2 else 0
    if table == "multiplihedron_faces":
        return gf_face_count("painted", m, n)
    if table == "hochschild_vertices":
        return gf_face_count("shade", m, n, rank=0)
    if table == "hochschild_facets":
        return gf_face_count("shade", m, n, rank=d - 2) if d >= 2 else 0
    if table == "hochschild_faces":
        return gf_face_count("shade", m, n)
    return None


@dataclass(frozen=True)
class Census:
    """Exhaustive object counts at one (m, n), by generation.

    ``painted_ranks[p]`` and ``shade_ranks[p]`` count the generated objects
    of rank p; the vertex and singleton counts come from separate binary and
    unary passes, whose objects are grouped into shadow fibers.
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
    """Generate every painted tree and lighted shade of (m, n) once, and count.

    One all-ranks pass per family fills its rank histogram; one binary
    painted pass and one unary shade pass give the vertex counts and the
    shadow fibers.  No object outlives its pass.
    """
    _check_params(m, n)
    binary, unary, singletons = _vertex_census(m, n)
    return Census(
        _rank_histogram(_painted_trees(m, n), m + n),
        _rank_histogram(_lighted_shades(m, n), m + n),
        binary,
        unary,
        singletons,
    )


def _vertex_census(m, n):
    """(binary painted trees, unary shades, singleton fibers) of (m, n)."""
    binary = list(_painted_trees(m, n, binary=True))
    unary = list(_unary_shades(m, n))
    fibers = _group_by_shadow(unary, binary)
    return len(binary), len(unary), sum(1 for pts in fibers.values() if len(pts) == 1)


def _rank_histogram(objects, d):
    hist = [0] * d
    for obj in objects:
        hist[obj.rank] += 1
    return tuple(hist)


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

    def summary(self) -> str:
        lines = [
            f"checked {len(self.cells)} printed cells "
            f"(exhaustive generation up to m + n = {self.bound})"
        ]
        for c in self.errata:
            lines.append(
                f"  erratum {c.table}({c.m},{c.n}): printed {c.printed}, "
                f"computed {c.expected}"
            )
        for c in self.failures:
            lines.append(
                f"  FAIL {c.table}({c.m},{c.n}): expected {c.expected}, "
                f"computed {c.computed}"
            )
        lines.append("result: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["table,m,n,printed,expected,methods,ok,erratum"]
        for c in self.cells:
            methods = ";".join(f"{k}={v}" for k, v in sorted(c.computed.items()))
            rows.append(
                f"{c.table},{c.m},{c.n},{c.printed},{c.expected},"
                f"{methods},{int(c.ok)},{int(c.erratum)}"
            )
        return "\n".join(rows) + "\n"


def reproduce_tables(bound: int = 7, formula_bound: int | None = None) -> TableReport:
    """Recompute all printed cells and diff against the fixtures.

    Closed forms and generating-function coefficients run at every printed
    cell with m + n <= formula_bound (default: everything printed);
    exhaustive generation runs for m + n <= bound.
    """
    report = TableReport(bound)
    censuses = {}  # (m, n) -> exhaustive value per table
    for table, rows in PRINTED_TABLES.items():
        for m, row in enumerate(rows):
            for n, printed in enumerate(row):
                if printed is None:
                    continue
                d = m + n
                if formula_bound is not None and d > formula_bound and d > bound:
                    continue
                computed = {}
                if formula_bound is None or d <= formula_bound:
                    closed = _closed(table, m, n)
                    if closed is not None:
                        computed["closed"] = closed
                    gf = _gf(table, m, n)
                    if gf is not None:
                        computed["gf"] = gf
                if d <= bound:
                    if (m, n) not in censuses:
                        censuses[m, n] = exhaustive_census(m, n).cells()
                    computed["exhaustive"] = censuses[m, n][table]
                if not computed:
                    continue
                expected = expected_value(table, m, n)
                report.cells.append(
                    CellCheck(
                        table, m, n, printed, expected, computed,
                        (table, m, n) in ERRATA,
                    )
                )
    return report
