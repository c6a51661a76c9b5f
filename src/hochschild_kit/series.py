"""Exact truncated power series and the closed enumeration formulas.

Series live in up to three variables (x, y, z) with exact coefficients and
trilateral truncation.  A coefficient is kept as given when it is an int or
a Fraction, and anything else is coerced through Fraction; sums and products
of ints stay ints.  A product, a scalar multiple and a sum of two series on
the same orders build their terms within the orders from ints and Fractions
already, so they skip that check through one private constructor,
`TruncatedSeries._exact`, which only drops the zeros; any other sum takes
the checked one.  Every generating function here is integral, so its
arithmetic runs on Python ints, and a count read from a series is still
checked to be an integer.  Every generating function is built from sums,
products and fixed-point iteration on its functional equation, the rational
shade denominator 1/(1 - y(z + 2)) included, so no square root or inverse is
taken; compositions are checked to be y-adically admissible.  Iteration j
of a fixed point runs at y-order j, by the truncation argument below.

Throughout, y marks leaves for tree-like series (an object with parameter n
sits in degree n + 1 for painted trees, degree n for shades) and z marks the
rank.

Face rows and the Catalan counts are read off towers.  Truncation mod
(y^(oy+1), z^(oz+1)) is a ring map, and substituting a series with zero
y-constant for y maps that ideal into itself (y^(oy+1) goes to a multiple of
y^(oy+1), z to z), so truncation commutes with sums, products and
composition (Flajolet and Sedgewick, Analytic Combinatorics, 2009, I.6): a
series built at larger orders and then truncated equals the one built at the
smaller orders.  The face row of m is the sum over k <= m of
surjection_count(m, k) z^(m - k) T_k, with terms T_k that do not depend on
m, and the row of (m, oy, oz) reads T_k at y-order oy <= m + oy - k.  So one
tower per (top, oz), holding T_k at y-order top - k for k = 0, ..., top,
gives every row with m + oy <= top by truncation and a shift in z
(`_tower_row`).  The painted terms are U_k = S(t^k), with S the Schroeder
series, t = (1 + z) S - yz and t^k its k-fold composition; t^(k+1) =
(1 + z) U_k - z t^k, so a level costs one composition
(`_painted_tower`).  The shade terms are (1 - y(z + 1))(1 - y)^k /
(1 - y(z + 2))^(k + 1), each the one before times one fixed series
(`_shade_tower`).  A row is cached on (m, oy, oz) and its tower on
(m + oy, oz): every printed painted row has m + oy = 10 and every printed
shade row m + oy = 9, so the tables build one tower per family, and
`face_generating_function` reads its rows off one tower.  The Catalan
tower C, C(C), ... holds C^i at y-order top - i, and `catalan_tower` reads
it at a top of at least 11, which covers every printed vertex cell.  Cached
towers are tuples of read-only series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType

from .families import family


class TruncatedSeries:
    """A polynomial truncation of a power series in x, y, z.

    coeffs maps exponent triples to nonzero ints or Fractions; exponents
    beyond the truncation orders are discarded by every operation.  It is a
    read-only view, so a series held by a cache cannot be changed by a caller.
    """

    __slots__ = ("orders", "coeffs")

    def __init__(self, orders, coeffs=None):
        self.orders = tuple(orders)
        kept = {}
        if coeffs:
            for expo, c in coeffs.items():
                if c and all(e <= o for e, o in zip(expo, self.orders)):
                    kept[expo] = c if isinstance(c, (int, Fraction)) else Fraction(c)
        self.coeffs = MappingProxyType(kept)

    @classmethod
    def constant(cls, value, orders):
        return cls(orders, {(0, 0, 0): value})

    @classmethod
    def variable(cls, name, orders):
        expo = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[name]
        return cls(orders, {expo: 1})

    @classmethod
    def _exact(cls, orders, coeffs):
        """The series of ``coeffs`` that are already within ``orders`` and ints
        or Fractions, as every product and every sum of two series with the
        same orders build them: only the zeros are dropped."""
        out = cls.__new__(cls)
        out.orders = orders
        out.coeffs = MappingProxyType({e: c for e, c in coeffs.items() if c})
        return out

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            theirs, exact = {(0, 0, 0): other}, False
        else:
            theirs, exact = other.coeffs, other.orders == self.orders
        out = self.coeffs.copy()  # a dict copy; dict() of the view copies key by key
        for e, c in theirs.items():
            out[e] = out.get(e, 0) + c
        return (TruncatedSeries._exact if exact else TruncatedSeries)(self.orders, out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries._exact(
                self.orders, {e: c * other for e, c in self.coeffs.items()}
            )
        out = {}
        ox, oy, oz = self.orders
        theirs = sorted(other.coeffs.items(), key=lambda item: item[0][1])
        for (a1, b1, c1), u in self.coeffs.items():
            for (a2, b2, c2), v in theirs:
                b = b1 + b2
                if b > oy:
                    break  # the rest of theirs is of y-degree b2 or more
                a, c = a1 + a2, c1 + c2
                if a <= ox and c <= oz:
                    key = (a, b, c)
                    out[key] = out.get(key, 0) + u * v
        return TruncatedSeries._exact(self.orders, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def power(self, k):
        if k < 0:
            raise ValueError(f"power {k} is negative")
        out = TruncatedSeries.constant(1, self.orders)
        for _ in range(k):
            out = out * self
        return out

    def coefficient(self, ex, ey, ez):
        return self.coeffs.get((ex, ey, ez), 0)

    def y_truncated(self, oy: int) -> "TruncatedSeries":
        """This series mod y^(oy + 1), for an oy at most its own y-order."""
        ox, own, oz = self.orders
        if oy > own:
            raise ValueError(f"y-order {oy} is above the series' {own}")
        if oy == own:
            return self
        return TruncatedSeries._exact(
            (ox, oy, oz), {e: c for e, c in self.coeffs.items() if e[1] <= oy}
        )

    def y_coefficient_total(self, ey):
        """Sum over all z powers of the coefficients of y^ey (x power 0)."""
        return sum(c for (a, b, _), c in self.coeffs.items() if a == 0 and b == ey)

    def substitute_y(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Compose in y: substitute ``inner`` (with zero y-constant) for y.

        Sums P_b inner^b over self = sum_b P_b y^b; inner^b starts at y^b."""
        if any(b == 0 for (_, b, _) in inner.coeffs):
            raise ValueError("composition needs a series with zero y-constant term")
        out = TruncatedSeries(self.orders)
        power = TruncatedSeries.constant(1, self.orders)
        for b in range(max((b for _, b, _ in self.coeffs), default=0) + 1):
            if b:
                power = power * inner
            layer = {(a, 0, c): u for (a, e, c), u in self.coeffs.items() if e == b}
            out = out + TruncatedSeries(self.orders, layer) * power
        return out

    def __repr__(self):
        items = sorted(self.coeffs.items())[:8]
        body = " + ".join(f"{c}*x^{a}y^{b}z^{d}" for (a, b, d), c in items)
        more = "..." if len(self.coeffs) > 8 else ""
        return f"TruncatedSeries({body}{more})"


# -- generating functions -------------------------------------------------------


def _fixed_point(step, oy: int, oz: int) -> TruncatedSeries:
    """The fixed point of s = step(s, y, z) on the orders (0, oy, oz).  A
    step takes the fixed point mod y^j to it mod y^(j + 1), so iteration j
    runs at y-order j, the one degree it settles."""
    s = TruncatedSeries((0, 0, oz))
    for j in range(oy + 1):
        orders = (0, j, oz)
        y, z = TruncatedSeries.variable("y", orders), TruncatedSeries.variable("z", orders)
        s = step(TruncatedSeries._exact(orders, s.coeffs), y, z)
    return s


@lru_cache(maxsize=None)
def catalan_gf(oy: int) -> TruncatedSeries:
    """C(y) with C = y + C^2; the coefficient of y^{n+1} is the nth Catalan."""
    return _fixed_point(lambda s, y, z: y + s * s, oy, 0)


# every vertex cell of the printed tables, m + n <= 9, reads C^(m+1) at
# y-order n + 1, so the tower of this top serves them all
_CATALAN_TOP = 11


@lru_cache(maxsize=None)
def _catalan_levels(top: int) -> tuple:
    """(y, C, C(C), ...): the i-fold composition C^i at y-order top - i, for
    i = 0, ..., top; each level is one composition with the level below."""
    c = catalan_gf(top - 1)
    levels = [TruncatedSeries.variable("y", (0, top, 0)), c]
    for i in range(2, top + 1):
        o = top - i
        levels.append(c.y_truncated(o).substitute_y(levels[-1].y_truncated(o)))
    return tuple(levels)


def catalan_tower(i: int, oy: int) -> TruncatedSeries:
    """The i-fold self-composition of the Catalan series, to y-order oy.

    Read by truncation off the tower of top max(i + oy, 11), so every
    vertex cell of the printed tables reads one tower."""
    if i < 1:
        raise ValueError("tower index starts at 1")
    return _catalan_levels(max(i + oy, _CATALAN_TOP))[i].y_truncated(oy)


@lru_cache(maxsize=None)
def schroder_gf(oy: int, oz: int) -> TruncatedSeries:
    """S(y, z) with (z+1) S^2 - (1+yz) S + y = 0 and S(0, z) = 0."""
    return _fixed_point(lambda s, y, z: y + (z + 1) * s * s - y * z * s, oy, oz)


def surjection_count(m: int, k: int) -> int:
    """Number of surjections from an m-set onto a k-set (0 when k > m)."""
    if k > m or k < 0:
        return 0
    return sum((-1) ** i * comb(k, i) * (k - i) ** m for i in range(k + 1))


@lru_cache(maxsize=None)
def _painted_tower(top: int, oz: int) -> tuple:
    """The painted terms U_k = S(t^k), k = 0, ..., top, U_k at y-order top - k.

    t = (1 + z) S - yz and t^k is its k-fold composition, so t^(k+1) =
    t(t^k) = (1 + z) U_k - z t^k: each level is one composition, of S with
    the level's t^k.
    """
    s = schroder_gf(top, oz)
    z = TruncatedSeries.variable("z", s.orders)
    one_plus_z = z + 1
    shifted = TruncatedSeries.variable("y", s.orders)  # t^0
    tower = [s]
    for k in range(1, top + 1):
        o = top - k
        shifted = tower[-1].y_truncated(o) * one_plus_z - shifted.y_truncated(o) * z  # t^k
        tower.append(s.y_truncated(o).substitute_y(shifted))
    return tuple(tower)


@lru_cache(maxsize=None)
def _shade_tower(top: int, oz: int) -> tuple:
    """The shade terms (1 - y(z + 1))(1 - y)^k / (1 - y(z + 2))^(k + 1),
    k = 0, ..., top, the k-th at y-order top - k: each is the one before
    times (1 - y) / (1 - y(z + 2)), and the fixed point of d = 1 + y(z + 2) d
    is 1 / (1 - y(z + 2))."""
    orders = (0, top, oz)
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    denom_inv = _fixed_point(lambda d, y, z: y * (z + 2) * d + 1, top, oz)
    step = (one - y) * denom_inv
    tower = [(one - y * (z + 1)) * denom_inv]
    for k in range(1, top + 1):
        o = top - k
        tower.append(tower[-1].y_truncated(o) * step.y_truncated(o))
    return tuple(tower)


def _tower_row(tower, m: int, oy: int, oz: int) -> TruncatedSeries:
    """The row sum_k surjection_count(m, k) z^(m - k) tower[k] on the orders
    (0, oy, oz): each term truncated to y-order oy and moved up m - k powers
    of z, with no product taken.  The tower must reach y-order oy at level m
    (m + oy <= its top) and have z-order oz."""
    if tower[m].orders[1] < oy or tower[m].orders[2] != oz:
        raise ValueError(f"a tower at {tower[m].orders} cannot give row {m} at {(oy, oz)}")
    out = {}
    for k in range(m + 1):
        cnt = surjection_count(m, k)
        if not cnt:
            continue
        shift = m - k
        for (a, b, c), u in tower[k].coeffs.items():
            if b <= oy and c + shift <= oz:
                key = (a, b, c + shift)
                out[key] = out.get(key, 0) + cnt * u
    return TruncatedSeries._exact((0, oy, oz), out)


@lru_cache(maxsize=None)
def painted_face_row(m: int, oy: int, oz: int) -> TruncatedSeries:
    """Series whose y^{n+1} z^p coefficient counts rank-p m-painted n-trees.

    It is sum_k surjection_count(m, k) z^(m - k) U_k with U_k = S(t^k), read
    off the painted tower of (m + oy, oz) (`_painted_tower`); the row is
    cached on (m, oy, oz) and the tower on (m + oy, oz).
    """
    return _tower_row(_painted_tower(m + oy, oz), m, oy, oz)


@lru_cache(maxsize=None)
def shade_face_row(m: int, oy: int, oz: int) -> TruncatedSeries:
    """Series whose y^n z^p coefficient counts rank-p m-lighted n-shades.

    It is sum_k surjection_count(m, k) z^(m - k) (1 - y(z + 1))(1 - y)^k /
    (1 - y(z + 2))^(k + 1), read off the shade tower of (m + oy, oz)
    (`_shade_tower`); the row is cached on (m, oy, oz) and the tower on
    (m + oy, oz).
    """
    return _tower_row(_shade_tower(m + oy, oz), m, oy, oz)


def face_generating_function(kind: str, m_max: int, n_max: int) -> TruncatedSeries:
    """Three-variable face series: x the labels, y the sizes, z the rank.

    Its m_max + 1 rows are read off one tower, of top m_max + oy."""
    fam = family(kind)
    oy = n_max + fam.row_shift
    oz = m_max + n_max
    orders = (m_max, oy, oz)
    tower = fam.face_tower(m_max + oy, oz)
    x = TruncatedSeries.variable("x", orders)
    out = TruncatedSeries(orders)
    for m in range(m_max + 1):
        out = out + x.power(m) * _tower_row(tower, m, oy, oz)
    return out


# -- closed-form counts ---------------------------------------------------------


def gf_face_count(kind: str, m: int, n: int, rank=None) -> int:
    """Face count from the generating function (all ranks, or one rank)."""
    return _row_face_count(family(kind), m, n, rank, n)


def _row_face_count(fam, m, n, rank, n_row):
    """gf_face_count of the family record ``fam``, read from the row of m
    built for sizes up to n_row >= n.

    Every series operation only drops the terms above its truncation orders,
    so a larger row has the same coefficients at (n, rank) as the row built
    for (m, n) alone, and one row per m serves every n.
    """
    row = fam.face_row(m, n_row + fam.row_shift, m + n_row)
    ey = n + fam.row_shift
    if rank is None:
        val = row.y_coefficient_total(ey)
    else:
        val = row.coefficient(0, ey, rank)
    return _integral(val, f"{fam.objects} face series coefficient at ({m}, {n})")


def count_binary_painted_trees(m: int, n: int) -> int:
    """Closed count of rank-0 m-painted n-trees via the Catalan tower."""
    val = factorial(m) * catalan_tower(m + 1, n + 1).coefficient(0, n + 1, 0)
    return _integral(val, f"Catalan tower count at ({m}, {n})")


def _integral(val: int | Fraction, what: str) -> int:
    """``val`` as an int; a count that comes out fractional is a bug."""
    if val.denominator != 1:
        raise RuntimeError(f"{what} is {val}, not an integer")
    return int(val)


def count_unary_lighted_shades(m: int, n: int) -> int:
    """Closed count of rank-0 m-lighted n-shades.

    The printed formula sums over the number of singleton tuples and is empty
    at n = 0, where the correct value is m! (cut orderings only).
    """
    if n == 0:
        return factorial(m)
    return factorial(m) * sum(
        comb(m + k, m) * comb(n - 1, k - 1) for k in range(1, n + 1)
    )


def count_facet_objects(kind: str, m: int, n: int) -> int:
    """Closed count of rank m+n-2 objects (facets of the polytope)."""
    return family(kind).facet_count(m, n)


def _painted_facet_count(m: int, n: int) -> int:
    return comb(n + 1, 2) - 1 + 2 ** (m + n) - 2 ** n


def _shade_facet_count(m: int, n: int) -> int:
    return (2 ** m + 1) * (n + 1) - 4 + (1 if n == 0 else 0)


@lru_cache(maxsize=None)
def _fib_compositions(s: int) -> int:
    """Number of sequences of 1s and 2s with sum s (1 for s in {0, 1})."""
    if s < 0:
        raise ValueError("negative sum")
    if s <= 1:
        return 1
    return _fib_compositions(s - 1) + _fib_compositions(s - 2)


def count_singletons(m: int, n: int) -> int:
    """Closed count of shadow singletons.

    Counts shades with k unit tuples above the bottom cut and a 1/2-sequence
    of total n - k below it; the 1/2-sequence count is the Fibonacci value
    with sum exactly n - k (the printed index is off by one).
    """
    if m == 0:
        return _fib_compositions(n)
    return factorial(m) * sum(
        comb(m + k - 1, k) * _fib_compositions(n - k) for k in range(n + 1)
    )
