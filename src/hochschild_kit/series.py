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
taken; compositions are checked to be y-adically admissible.

Throughout, y marks leaves for tree-like series (an object with parameter n
sits in degree n + 1 for painted trees, degree n for shades) and z marks the
rank.
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


@lru_cache(maxsize=None)
def catalan_gf(oy: int) -> TruncatedSeries:
    """C(y) with C = y + C^2; the coefficient of y^{n+1} is the nth Catalan."""
    orders = (0, oy, 0)
    y = TruncatedSeries.variable("y", orders)
    s = TruncatedSeries(orders)
    for _ in range(oy + 1):
        s = y + s * s
    return s


@lru_cache(maxsize=None)
def catalan_tower(i: int, oy: int) -> TruncatedSeries:
    """The i-fold self-composition of the Catalan series."""
    if i < 1:
        raise ValueError("tower index starts at 1")
    if i == 1:
        return catalan_gf(oy)
    return catalan_gf(oy).substitute_y(catalan_tower(i - 1, oy))


@lru_cache(maxsize=None)
def schroder_gf(oy: int, oz: int) -> TruncatedSeries:
    """S(y, z) with (z+1) S^2 - (1+yz) S + y = 0 and S(0, z) = 0."""
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    s = TruncatedSeries(orders)
    for _ in range(oy + 1):
        s = y + (z + one) * s * s - y * z * s
    return s


@lru_cache(maxsize=None)
def _schroder_shifted(i: int, oy: int, oz: int) -> TruncatedSeries:
    """The tower of substituted Schroeder series feeding the painted rows."""
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    if i == 0:
        return y
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    t1 = (one + z) * schroder_gf(oy, oz) - y * z
    return _schroder_shifted(i - 1, oy, oz).substitute_y(t1)


def surjection_count(m: int, k: int) -> int:
    """Number of surjections from an m-set onto a k-set (0 when k > m)."""
    if k > m or k < 0:
        return 0
    return sum((-1) ** i * comb(k, i) * (k - i) ** m for i in range(k + 1))


@lru_cache(maxsize=None)
def painted_face_row(m: int, oy: int, oz: int) -> TruncatedSeries:
    """Series whose y^{n+1} z^p coefficient counts rank-p m-painted n-trees.

    The terms T_k z^(m - k) add up by Horner's rule in z: each step carries
    the sum so far up by one power of z, so no power of z is taken.
    """
    orders = (0, oy, oz)
    out = TruncatedSeries(orders)
    z = TruncatedSeries.variable("z", orders)
    s = schroder_gf(oy, oz)
    for k in range(m + 1):
        out = out * z
        cnt = surjection_count(m, k)
        if cnt:
            out = out + s.substitute_y(_schroder_shifted(k, oy, oz)) * cnt
    return out


@lru_cache(maxsize=None)
def shade_face_row(m: int, oy: int, oz: int) -> TruncatedSeries:
    """Series whose y^n z^p coefficient counts rank-p m-lighted n-shades.

    The k-th term is (1 - y)^k (1 - y(z + 1)) / (1 - y(z + 2))^(k + 1) times
    z^(m - k); both powers of k are carried from the term before, and the
    terms add up by Horner's rule in z, as in `painted_face_row`.
    """
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    out = TruncatedSeries(orders)
    denom_inv = TruncatedSeries(orders)
    for _ in range(oy + 1):  # the fixed point of d = 1 + y(z + 2) d is 1 / (1 - y(z + 2))
        denom_inv = one + y * (z + 2 * one) * denom_inv
    one_minus_y = one - y
    num, den = one - y * (z + one), denom_inv
    for k in range(m + 1):
        if k:
            num, den = num * one_minus_y, den * denom_inv
        out = out * z
        cnt = surjection_count(m, k)
        if cnt:
            out = out + num * den * cnt
    return out


def face_generating_function(kind: str, m_max: int, n_max: int) -> TruncatedSeries:
    """Three-variable face series: x the labels, y the sizes, z the rank."""
    fam = family(kind)
    oy = n_max + fam.row_shift
    oz = m_max + n_max
    orders = (m_max, oy, oz)
    x = TruncatedSeries.variable("x", orders)
    out = TruncatedSeries(orders)
    for m in range(m_max + 1):
        out = out + x.power(m) * fam.face_row(m, oy, oz)
    return out


# -- closed-form counts ---------------------------------------------------------


def gf_face_count(kind: str, m: int, n: int, rank=None) -> int:
    """Face count from the generating function (all ranks, or one rank)."""
    return _row_face_count(kind, m, n, rank, n)


def _row_face_count(kind, m, n, rank, n_row):
    """gf_face_count read from the row of m built for sizes up to n_row >= n.

    Every series operation only drops the terms above its truncation orders,
    so a larger row has the same coefficients at (n, rank) as the row built
    for (m, n) alone, and one row per m serves every n.
    """
    fam = family(kind)
    row = fam.face_row(m, n_row + fam.row_shift, m + n_row)
    ey = n + fam.row_shift
    if rank is None:
        val = row.y_coefficient_total(ey)
    else:
        val = row.coefficient(0, ey, rank)
    return _integral(val, f"{kind} face series coefficient at ({m}, {n})")


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
