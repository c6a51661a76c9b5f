"""Exact truncated power series and the closed enumeration formulas.

Series live in up to three variables (x, y, z) with Fraction coefficients and
trilateral truncation.  Square roots never appear: the algebraic generating
functions are produced by fixed-point iteration on their quadratic functional
equations, and compositions are checked to be y-adically admissible.

Throughout, y marks leaves for tree-like series (an object with parameter n
sits in degree n + 1 for painted trees, degree n for shades) and z marks the
rank.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


class TruncatedSeries:
    """A polynomial truncation of a power series in x, y, z.

    coeffs maps exponent triples to nonzero Fractions; exponents beyond the
    truncation orders are discarded by every operation.
    """

    __slots__ = ("orders", "coeffs")

    def __init__(self, orders, coeffs=None):
        self.orders = tuple(orders)
        self.coeffs = {}
        if coeffs:
            for expo, c in coeffs.items():
                if c and all(e <= o for e, o in zip(expo, self.orders)):
                    self.coeffs[expo] = Fraction(c)

    @classmethod
    def constant(cls, value, orders):
        return cls(orders, {(0, 0, 0): Fraction(value)})

    @classmethod
    def variable(cls, name, orders):
        expo = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[name]
        return cls(orders, {expo: Fraction(1)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return TruncatedSeries(self.orders, out)

    def __sub__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) - c
        return TruncatedSeries(self.orders, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(
                self.orders, {e: c * other for e, c in self.coeffs.items()}
            )
        out = {}
        ox, oy, oz = self.orders
        for (a1, b1, c1), u in self.coeffs.items():
            for (a2, b2, c2), v in other.coeffs.items():
                a, b, c = a1 + a2, b1 + b2, c1 + c2
                if a <= ox and b <= oy and c <= oz:
                    key = (a, b, c)
                    out[key] = out.get(key, Fraction(0)) + u * v
        return TruncatedSeries(self.orders, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries.constant(other, self.orders)
        return other

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def power(self, k):
        out = TruncatedSeries.constant(1, self.orders)
        for _ in range(k):
            out = out * self
        return out

    def coefficient(self, ex, ey, ez) -> Fraction:
        return self.coeffs.get((ex, ey, ez), Fraction(0))

    def y_coefficient_total(self, ey) -> Fraction:
        """Sum over all z powers of the coefficients of y^ey (x power 0)."""
        return sum(
            (c for (a, b, _), c in self.coeffs.items() if a == 0 and b == ey),
            Fraction(0),
        )

    def substitute_y(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Compose in y: substitute ``inner`` (with zero y-constant) for y."""
        if any(b == 0 for (a, b, c) in inner.coeffs if inner.coeffs[(a, b, c)]):
            raise ValueError("composition needs a series with zero y-constant term")
        powers = {0: TruncatedSeries.constant(1, self.orders)}
        max_pow = max((b for (_, b, _) in self.coeffs), default=0)
        for i in range(1, max_pow + 1):
            powers[i] = powers[i - 1] * inner
        out = TruncatedSeries(self.orders)
        for (a, b, c), u in self.coeffs.items():
            term = powers[b] * u
            shift = {}
            ox, oy, oz = self.orders
            for (a2, b2, c2), v in term.coeffs.items():
                na, nc = a + a2, c + c2
                if na <= ox and nc <= oz:
                    shift[(na, b2, nc)] = shift.get((na, b2, nc), Fraction(0)) + v
            out = out + TruncatedSeries(self.orders, shift)
        return out

    def geometric_inverse(self) -> "TruncatedSeries":
        """Inverse of a series with constant term 1 and no other x^0 y^0 z^0."""
        one = TruncatedSeries.constant(1, self.orders)
        u = one - self
        if u.coefficient(0, 0, 0) != 0:
            raise ValueError("inverse needs constant term 1")
        out = TruncatedSeries.constant(1, self.orders)
        term = TruncatedSeries.constant(1, self.orders)
        bound = sum(self.orders) + 1
        for _ in range(bound):
            term = term * u
            if not term.coeffs:
                break
            out = out + term
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
    if i == 1:
        return t1
    return _schroder_shifted(i - 1, oy, oz).substitute_y(t1)


def surjection_count(m: int, k: int) -> int:
    """Number of surjections from an m-set onto a k-set (0 when k > m)."""
    if k > m or k < 0:
        return 0
    return sum((-1) ** i * comb(k, i) * (k - i) ** m for i in range(k + 1))


@lru_cache(maxsize=None)
def painted_face_row(m: int, oy: int, oz: int) -> TruncatedSeries:
    """Series whose y^{n+1} z^p coefficient counts rank-p m-painted n-trees."""
    orders = (0, oy, oz)
    out = TruncatedSeries(orders)
    z = TruncatedSeries.variable("z", orders)
    s = schroder_gf(oy, oz)
    for k in range(m + 1):
        cnt = surjection_count(m, k)
        if cnt == 0:
            continue
        term = s.substitute_y(_schroder_shifted(k, oy, oz)) * cnt * z.power(m - k)
        out = out + term
    return out


@lru_cache(maxsize=None)
def shade_face_row(m: int, oy: int, oz: int) -> TruncatedSeries:
    """Series whose y^n z^p coefficient counts rank-p m-lighted n-shades."""
    orders = (0, oy, oz)
    y = TruncatedSeries.variable("y", orders)
    z = TruncatedSeries.variable("z", orders)
    one = TruncatedSeries.constant(1, orders)
    out = TruncatedSeries(orders)
    denom_inv = (one - y * (z + 2 * one)).geometric_inverse()
    for k in range(m + 1):
        cnt = surjection_count(m, k)
        if cnt == 0:
            continue
        num = (one - y).power(k) * (one - y * (z + one))
        term = num * denom_inv.power(k + 1) * cnt * z.power(m - k)
        out = out + term
    return out


def face_generating_function(kind: str, m_max: int, n_max: int) -> TruncatedSeries:
    """Three-variable face series: x the labels, y the sizes, z the rank."""
    if kind not in ("painted", "shade"):
        raise ValueError("kind must be 'painted' or 'shade'")
    oy = n_max + (1 if kind == "painted" else 0)
    oz = m_max + n_max
    orders = (m_max, oy, oz)
    out = TruncatedSeries(orders)
    for m in range(m_max + 1):
        row = painted_face_row(m, oy, oz) if kind == "painted" else shade_face_row(m, oy, oz)
        shifted = {(m, b, c): v for (_, b, c), v in row.coeffs.items()}
        out = out + TruncatedSeries(orders, shifted)
    return out


# -- closed-form counts ---------------------------------------------------------


def gf_face_count(kind: str, m: int, n: int, rank=None) -> int:
    """Face count from the generating function (all ranks, or one rank)."""
    if kind == "painted":
        row = painted_face_row(m, n + 1, m + n)
        ey = n + 1
    elif kind == "shade":
        row = shade_face_row(m, n, m + n)
        ey = n
    else:
        raise ValueError("kind must be 'painted' or 'shade'")
    if rank is None:
        val = row.y_coefficient_total(ey)
    else:
        val = row.coefficient(0, ey, rank)
    return _integral(val, f"{kind} face series coefficient at ({m}, {n})")


def count_binary_painted_trees(m: int, n: int) -> int:
    """Closed count of rank-0 m-painted n-trees via the Catalan tower."""
    val = factorial(m) * catalan_tower(m + 1, n + 1).coefficient(0, n + 1, 0)
    return _integral(val, f"Catalan tower count at ({m}, {n})")


def _integral(val: Fraction, what: str) -> int:
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
    if kind == "painted":
        return comb(n + 1, 2) - 1 + 2 ** (m + n) - 2 ** n
    if kind == "shade":
        return (2 ** m + 1) * (n + 1) - 4 + (1 if n == 0 else 0)
    raise ValueError("kind must be 'painted' or 'shade'")


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
