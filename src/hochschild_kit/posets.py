"""Finite posets built from cover relations, with lattice analytics.

FinitePoset stores an element tuple and the Hasse diagram; the order
relation and the lattice-theoretic predicates are derived lazily.  The order
is kept as Python-int bitmask rows, the idiom Preposet uses: bit j of
``leq[i]`` is set iff element i is below element j, and ``down`` holds the
transposed rows.  The meet of a and b is the element whose down-set is
``down[a] & down[b]``, found by one dict lookup.

The suites read local certificates, which fill no table: the lattice flag
looks up a join of every two upper covers of an element, and each
semidistributivity flag a kappa at every irreducible.  `check_meet_morphism`
certifies each side by the lower adjoint of f, in one pass over the source
covers on rows of |J| bits, the target's join-irreducibles below each
element (`_irreducible_rows`): f monotone along every cover makes each
f⁻¹(↑j) an up-set; exactly one minimal element makes it principal; the
join-irreducible j suffice, since ↑(y₁ ∨ y₂) = ↑y₁ ∩ ↑y₂; and then
f(a ∧ b) = f(a) ∧ f(b) (the full argument is in `_adjoint_certificate`).
Past the lattice premise, a passing side reads no row set of either order.
Only a morphism side that fails its certificate is scanned pair by pair,
for the same first counterexample as the full tables give.  No table is
cached: `_bound_table` builds a full meet or join table (O(n^2) lookups)
only for `semidistributive_counterexample`, the fold the tests compare the
certificates with and `kitbench/tracer.py` times.

The zeta and Möbius matrices, the Coxeter polynomial and the
cyclotomic-product test are exact integer computations on the same rows,
with no computer-algebra dependency.
Instances are immutable after construction: every derived structure is a
tuple.
A rotation poset is built by `rotation_poset` from its family's
`rotation_covers`: the moves are computed on the unlabeled shapes, once per
shape, and read off as index pairs, so no successor object is built and no
face is hashed to find its index.  The refinement posets are built the same
way from the family's `refinement_covers`.  Either way the covers may come
in any order: a poset sorts them by element index.  `from_leq` reduces
a given order (word posets) with `preposets.cover_pairs`, the reduction
`Preposet.hasse_edges` also uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul

from .families import family
from .preposets import cached_view, cover_pairs
from .shadow import fiber_min, shadow


class FinitePoset:
    """A finite poset given by an element tuple and its cover relations.

    covers holds (lo, hi) index pairs with lo below hi; the order is their
    reflexive transitive closure, so the cover digraph must be acyclic.  The
    Hasse-diagram analytics (height, irreducibles, extremality,
    semidistributivity) and `check_meet_morphism`, which read the
    irreducibles, also need it to be transitively irredundant.
    """

    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        self.covers = tuple(sorted(set(covers)))
        self.n = len(self.elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != self.n:
            raise ValueError("elements must be distinct")

    @classmethod
    def from_leq(cls, elements, leq) -> "FinitePoset":
        """Build from up-set rows of a reflexive transitive relation.

        Bit j of ``leq[i]`` says element i is below element j.  The covers
        are the transitive reduction, `preposets.cover_pairs`, which raises
        ValueError when the relation is not antisymmetric.
        """
        return cls(elements, cover_pairs(leq))

    def index(self, key) -> int:
        return self._index[key]

    @cached_view
    def leq(self) -> tuple[int, ...]:
        """Up-set rows: bit j of leq[i] is set iff element i is below j."""
        up = [1 << i for i in range(self.n)]
        for i in reversed(self.topological_order):
            for hi in self._covers_up[i]:
                up[i] |= up[hi]
        return tuple(up)

    @cached_view
    def down(self) -> tuple[int, ...]:
        """Down-set rows: bit j of down[i] is set iff element j is below i."""
        down = [1 << i for i in range(self.n)]
        for i in self.topological_order:
            for hi in self._covers_up[i]:
                down[hi] |= down[i]
        return tuple(down)

    def le(self, i: int, j: int) -> bool:
        """Whether element i is below element j (indices)."""
        return bool(self.leq[i] >> j & 1)

    def extremes(self, idxs) -> tuple[list[int], list[int]]:
        """Minimal and maximal elements of a subset, given as indices."""
        subset = 0
        for i in idxs:
            subset |= 1 << i
        minima = [i for i in idxs if self.down[i] & subset == 1 << i]
        maxima = [i for i in idxs if self.leq[i] & subset == 1 << i]
        return minima, maxima

    @cached_view
    def _covers_up(self):
        out = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            out[lo].append(hi)
        return out

    @cached_view
    def _covers_down(self):
        out = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            out[hi].append(lo)
        return out

    @cached_view
    def topological_order(self) -> tuple[int, ...]:
        """Indices sorted bottom-up: every element comes after all elements
        below it."""
        indeg = [0] * self.n
        for _, hi in self.covers:
            indeg[hi] += 1
        stack = sorted(i for i in range(self.n) if indeg[i] == 0)
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for w in self._covers_up[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        if len(order) != self.n:
            raise ValueError("cover digraph contains a cycle")
        return tuple(order)

    # -- extrema ---------------------------------------------------------------

    @cached_view
    def minimal_elements(self) -> tuple[int, ...]:
        has_lower = set(hi for _, hi in self.covers)
        return tuple(i for i in range(self.n) if i not in has_lower)

    @cached_view
    def maximal_elements(self) -> tuple[int, ...]:
        has_upper = set(lo for lo, _ in self.covers)
        return tuple(i for i in range(self.n) if i not in has_upper)

    @cached_view
    def bottom(self):
        mins = self.minimal_elements
        return mins[0] if len(mins) == 1 else None

    @cached_view
    def top(self):
        maxs = self.maximal_elements
        return maxs[0] if len(maxs) == 1 else None

    @cached_view
    def is_bounded(self) -> bool:
        return self.n > 0 and self.bottom is not None and self.top is not None

    # -- meet / join -------------------------------------------------------------

    def _bound_table(self, rows) -> tuple[tuple[int, ...], ...]:
        """table[a][b] = the element whose row is rows[a] & rows[b], or -1.

        With down-set rows that element is the greatest common lower bound:
        its down-set is exactly the set of common lower bounds.  With up-set
        rows it is the least common upper bound.
        """
        owner = _owner(rows)
        return tuple(tuple(owner(ra & rb, -1) for rb in rows) for ra in rows)

    @cached_view
    def _meet_of(self):
        """The element whose down-set is a given row, or the default."""
        return _owner(self.down)

    @cached_view
    def _join_of(self):
        """The element whose up-set is a given row, or the default."""
        return _owner(self.leq)

    def meet(self, a, b):
        """Greatest lower bound of two element keys, or None."""
        idx = self._meet_of(self.down[self.index(a)] & self.down[self.index(b)], -1)
        return self.elements[idx] if idx >= 0 else None

    def join(self, a, b):
        idx = self._join_of(self.leq[self.index(a)] & self.leq[self.index(b)], -1)
        return self.elements[idx] if idx >= 0 else None

    @cached_view
    def is_lattice(self) -> bool:
        """Bounded, and every two upper covers of an element have a join.

        That is enough for a finite poset (Björner, Edelman and Ziegler,
        "Hyperplane arrangements with a lattice of regions", 1990, Lemma
        2.1), so the check is one lookup per pair of upper covers, not one
        per pair of elements.  A redundant cover edge only adds pairs whose
        joins a lattice has anyway.
        """
        if not self.is_bounded:
            return False
        leq, join_of = self.leq, self._join_of
        return all(
            join_of(leq[y] & leq[z]) is not None
            for upper in self._covers_up
            for y, z in combinations(upper, 2)
        )

    def _irreducible_rows(self, side: str) -> list[int]:
        """Bit k of row t is set iff the k-th join-irreducible is below t
        (side='meet'), or the k-th meet-irreducible above t (side='join'):
        one sweep of the topological order over the covers.  In a lattice
        each element is the join of the join-irreducibles below it (the
        meet of the meet-irreducibles above it), so a row names its element
        and a ≤ b iff the rows nest."""
        if side == "meet":
            irreducibles, lower, order = (
                self.join_irreducibles, self._covers_down, self.topological_order)
        else:
            irreducibles, lower, order = (
                self.meet_irreducibles, self._covers_up, reversed(self.topological_order))
        rows = [0] * self.n
        for k, j in enumerate(irreducibles):
            rows[j] = 1 << k
        for t in order:
            for lo in lower[t]:
                rows[t] |= rows[lo]
        return rows

    # -- analytics ------------------------------------------------------------------

    @cached_view
    def height(self) -> int:
        """Number of covers in a longest chain."""
        depth = [0] * self.n
        for i in self.topological_order:
            for hi in self._covers_up[i]:
                depth[hi] = max(depth[hi], depth[i] + 1)
        return max(depth, default=0)

    @cached_view
    def join_irreducibles(self) -> tuple[int, ...]:
        lower = [0] * self.n
        for _, hi in self.covers:
            lower[hi] += 1
        return tuple(i for i in range(self.n) if lower[i] == 1)

    @cached_view
    def meet_irreducibles(self) -> tuple[int, ...]:
        upper = [0] * self.n
        for lo, _ in self.covers:
            upper[lo] += 1
        return tuple(i for i in range(self.n) if upper[i] == 1)

    @cached_view
    def is_extremal(self) -> bool:
        """Extremal: as many join- and meet-irreducibles as the height."""
        h = self.height
        return len(self.join_irreducibles) == h and len(self.meet_irreducibles) == h

    def semidistributive_counterexample(self, side: str):
        """A triple (a, b, c) violating meet (side='meet') or join SD, or None.

        Meet SD says a∧b = a∧c = u implies a∧(b∨c) = u.  For each a the join
        is folded over every class of b's with the same a∧b = u (Freese,
        Ježek and Nation, *Free Lattices*, 1995): SD holds for a iff the fold
        keeps the meet with a at u, and the first fold step that leaves u
        gives the triple (a, accumulated join, b).  Join SD is the dual.
        Raises ValueError on a poset that is not a lattice.
        """
        if side not in ("meet", "join"):
            raise ValueError("side must be 'meet' or 'join'")
        if not self.is_lattice:
            raise ValueError("semidistributivity is defined on lattices only")
        meets, joins = self._bound_table(self.down), self._bound_table(self.leq)
        prim, other = (meets, joins) if side == "meet" else (joins, meets)
        for a, row in enumerate(prim):
            fold = {}  # u -> join of the b's seen so far with a op b = u
            for b, u in enumerate(row):
                acc = fold.get(u)
                if acc is None:
                    fold[u] = b
                    continue
                grown = other[acc][b]
                if row[grown] != u:
                    return (self.elements[a], self.elements[acc], self.elements[b])
                fold[u] = grown
        return None

    @cached_view
    def is_meet_semidistributive(self) -> bool:
        """Every join-irreducible j has a kappa: the elements above j's lower
        cover and not above j have a greatest one.  A finite lattice is meet
        semidistributive iff that holds (Freese, Ježek and Nation, *Free
        Lattices*, 1995, ch. 2)."""
        return self.is_lattice and self._kappas_exist(
            self.join_irreducibles, self._covers_down, self._covers_up, self.leq, self.down
        )

    @cached_view
    def is_join_semidistributive(self) -> bool:
        """The dual: every meet-irreducible m has a dual kappa, a least element
        among those below m's upper cover and not below m."""
        return self.is_lattice and self._kappas_exist(
            self.meet_irreducibles, self._covers_up, self._covers_down, self.down, self.leq
        )

    @staticmethod
    def _kappas_exist(irreducibles, lower, upper, rows, co_rows) -> bool:
        """Whether, for each irreducible j with its one `lower` cover c, the
        set rows[c] & ~rows[j] has a greatest element, reading `upper` edges
        and `co_rows` as the order of that side.

        The set is convex (an up-set minus an up-set), so the walk from c up
        along edges that stay in it ends at a maximal element x, and the set
        has a greatest element iff it lies in co_rows[x].
        """
        for j in irreducibles:
            (x,) = lower[j]
            rest = rows[x] & ~rows[j]
            while (y := next((y for y in upper[x] if rest >> y & 1), -1)) >= 0:
                x = y
            if rest & ~co_rows[x]:
                return False
        return True

    def zeta_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Zeta matrix, rows and columns in topological order: 1 where the row
        element is below the column element, else 0."""
        order = self.topological_order
        return tuple(tuple(self.leq[i] >> j & 1 for j in order) for i in order)

    def mobius_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Möbius matrix Z^{-1}, same order, by back substitution in the
        unitriangular Z: row a is e_a minus the rows c > a with a below c."""
        z, mu = self.zeta_matrix(), [()] * self.n
        for a in reversed(range(self.n)):
            above = [mu[c] for c in range(a + 1, self.n) if z[a][c]]
            mu[a] = tuple(int(a == b) - sum(r) for b, *r in zip(range(self.n), *above))
        return tuple(mu)

    def coxeter_polynomial(self) -> tuple[int, ...]:
        """det(x - C) for the Coxeter matrix C = -Z^{-1} Z^T, highest degree first.

        Berkowitz's division-free recursion: bordering the leading k x k block
        A by row r, column s and corner c multiplies its polynomial by the
        Toeplitz matrix of (1, -c, -r s, -r A s, ..., -r A^(k-1) s).
        """
        z = self.zeta_matrix()
        cox = [[-sum(map(mul, mu, col)) for col in z] for mu in self.mobius_matrix()]
        poly = [1]
        for k, row in enumerate(cox):
            s, t = [r[k] for r in cox[:k]], [1, -row[k]]
            for _ in range(k):
                t.append(-sum(map(mul, row, s)))
                s = [sum(map(mul, r, s)) for r in cox[:k]]
            poly = [sum(t[i - j] * poly[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
        return tuple(poly)

    # -- export --------------------------------------------------------------------

    def to_dot(self, label=str, name="poset") -> str:
        """Hasse diagram in DOT format, cover edges drawn bottom to top."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, e in enumerate(self.elements):
            text = label(e).replace('"', '\\"')
            lines.append(f'  n{i} [label="{text}"];')
        for lo, hi in self.covers:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _owner(rows):
    """Row -> index lookup over distinct rows: the ``get`` of a dict."""
    return {row: i for i, row in enumerate(rows)}.get


def is_cyclotomic_product(coeffs) -> bool:
    """Exact test: is the integer polynomial (coefficients, highest degree
    first) a product of cyclotomic polynomials?

    Such a product is monic with p(0) != 0 and has all its roots on the unit
    circle, so |coefficient of x^(k-i)| <= C(k, i), and Graeffe's root squaring
    g(x^2) = (-1)^k p(x) p(-x) reaches a fixed point.  Any other monic p with
    p(0) != 0 has a root of modulus > 1 (Kronecker), so its iterates outgrow
    those bounds, and no fixed point has one.
    """
    p, k = list(coeffs), len(coeffs) - 1
    if k < 1 or p[0] != 1 or p[-1] == 0:
        return p == [1]
    while all(abs(c) <= comb(k, i) for i, c in enumerate(p)):
        p, last = [sum((-1) ** j * p[j] * p[i - j] for j in range(max(0, i - k), min(i, k) + 1))
                   for i in range(0, 2 * k + 1, 2)], p
        if p == last:
            return True
    return False


@dataclass
class MorphismCheckReport:
    is_meet_morphism: bool
    is_join_morphism: bool
    meet_counterexample: tuple | None = None
    join_counterexample: tuple | None = None


def check_meet_morphism(f, src: FinitePoset, dst: FinitePoset) -> MorphismCheckReport:
    """Check f(x op y) = f(x) op f(y) for both lattice operations.

    f maps source element keys to destination element keys; it must be total
    and surjective.  A counterexample is the first pair (x, y), in row-major
    order of the source, whose bound is missing on one side only or maps
    wrong.

    Between lattices each side is first certified by the lower adjoint of f
    (Davey and Priestley, *Introduction to Lattices and Order*, 2nd ed.,
    2002, ch. 7): a surjective f preserves meets iff every f⁻¹(↑j), j
    join-irreducible, is a principal filter ↑g(j).  `_adjoint_certificate`
    tests that in one pass over the source covers: f monotone along every
    cover makes each f⁻¹(↑j) an up-set, and exactly one minimal element
    makes it principal.  Then f(a ∧ b) ≥ j iff a, b ≥ g(j) iff
    f(a) ∧ f(b) ≥ j, for every j; the join-irreducibles suffice, since
    ↑(y₁ ∨ y₂) = ↑y₁ ∩ ↑y₂.  Joins are dual.  Past the lattice premise, a
    passing side reads no row set of either order.  Only a side that fails
    its certificate, or a poset that is not a lattice, is scanned pair by
    pair for its first counterexample, one source row at a time.
    """
    if len(f) != src.n:
        raise ValueError("f must be total on the source")
    index = dst._index.get
    try:
        fi = [index(f[e], -1) for e in src.elements]
    except KeyError:
        raise ValueError("f must be total on the source") from None
    if -1 in fi or len(set(fi)) != dst.n:
        raise ValueError("f must be surjective onto the destination")
    example = {}
    for side in ("meet", "join"):
        pair = None
        if not _adjoint_certificate(fi, src, dst, side):
            if side == "meet":
                rows, bound_of, d_rows, d_bound_of = src.down, src._meet_of, dst.down, dst._meet_of
            else:
                rows, bound_of, d_rows, d_bound_of = src.leq, src._join_of, dst.leq, dst._join_of
            pair = _first_unpreserved(fi, rows, bound_of, [d_rows[j] for j in fi], d_bound_of)
        example[side] = pair and tuple(src.elements[i] for i in pair)
    return MorphismCheckReport(
        example["meet"] is None, example["join"] is None, example["meet"], example["join"]
    )


def _adjoint_certificate(fi, src: FinitePoset, dst: FinitePoset, side: str) -> bool:
    """Whether the surjection fi (source index -> destination index) between
    lattices provably preserves meets (side='meet') or joins ('join').

    The meet side passes iff f is monotone along every cover and each
    f⁻¹(↑j), j join-irreducible, has exactly one minimal element.  That is
    sound:
    - monotone along the covers, f is order preserving, so each f⁻¹(↑j) is
      an up-set.  It holds top: f is onto, so some x has f(x) = top, and
      f(top) ≥ f(x).  So it has a minimal element, and an up-set with
      exactly one minimal element g(j) is the principal filter ↑g(j);
    - then f(a ∧ b) ≥ j iff a ∧ b ≥ g(j) iff a, b ≥ g(j) iff
      f(a) ∧ f(b) ≥ j, so f(a ∧ b) and f(a) ∧ f(b) have the same
      join-irreducibles below them, and each is the join of those.  Other
      y need no check: ↑(y₁ ∨ y₂) = ↑y₁ ∩ ↑y₂.
    It is also complete: a surjective meet morphism is monotone and has
    g(j) = the meet of f⁻¹(↑j).  The join side is dual, with the
    meet-irreducibles, the upper covers and f⁻¹(↓j).

    One pass over the source covers on |J|-bit rows does it: rows[t] holds
    the irreducibles below t (`_irreducible_rows`), so f is monotone along a
    lower cover lo of x iff rows[f(lo)] ⊆ rows[f(x)], and then x is minimal
    in f⁻¹(↑j) iff bit j is in rows[f(x)] and in no rows[f(lo)].
    """
    if not (src.is_lattice and dst.is_lattice):
        return False
    lower = src._covers_down if side == "meet" else src._covers_up
    rows = dst._irreducible_rows(side)
    images = [rows[j] for j in fi]
    seen = 0  # the irreducibles whose preimage has had a minimal element
    for x, los in enumerate(lower):
        below = 0
        for lo in los:
            below |= images[lo]
        minimal = images[x] & ~below
        if below & ~images[x] or minimal & seen:
            return False
        seen |= minimal
    return True


def _first_unpreserved(fi, rows, bound_of, images, d_bound_of):
    """The first index pair (a, b), in row-major order, whose bound f does
    not carry to the destination's bound, or None; a bound missing on both
    sides agrees.  images[a] is the destination row of f(a).  Each bound is
    one lookup, and no table is stored."""
    f_or_missing = fi + [-1]  # a missing source bound (-1) maps to -1
    for a, ra in enumerate(rows):
        da = images[a]
        for b, rb in enumerate(rows):
            if f_or_missing[bound_of(ra & rb, -1)] != d_bound_of(da & images[b], -1):
                return a, b
    return None


# -- posets of painted trees and lighted shades ------------------------------------


def rotation_poset(kind: str, m: int, n: int) -> FinitePoset:
    """The rotation poset on one family's rank-0 objects, uncached: its
    covers are the right rotations, read as index pairs off the moves on the
    objects' shapes (`Family.rotation_covers`)."""
    fam = family(kind)
    objs = fam.vertices(m, n)
    return FinitePoset(objs, fam.rotation_covers(objs))


@lru_cache(maxsize=None)
def build_rotation_poset(kind: str, m: int, n: int) -> FinitePoset:
    """Rotation poset on rank-0 objects (`rotation_poset`), cached per cell."""
    poset = rotation_poset(kind, m, n)
    if poset.bottom is None or poset.top is None:
        raise AssertionError("rotation digraph must have a unique source and sink")
    return poset


@lru_cache(maxsize=None)
def build_refinement_poset(kind: str, m: int, n: int) -> FinitePoset:
    """Refinement poset on all objects; covers are the coarsening moves.

    A move enlarges the preposet, and larger preposet = smaller element;
    rank-0 objects are the maximal elements and the unique coarsest object
    is the minimum.  The covers come as index pairs off the family's moves
    (`Family.refinement_covers`), so no object is built per move.
    """
    fam = family(kind)
    objs = fam.enum(m, n)
    return FinitePoset(objs, fam.refinement_covers(objs))


def word_subposet(m: int, n: int) -> FinitePoset:
    """The poset of constrained words, ordered componentwise."""
    from .cubic import enum_words

    words = enum_words(m, n)
    up = [
        sum(1 << b for b, v in enumerate(words) if all(x <= y for x, y in zip(w, v)))
        for w in words
    ]
    return FinitePoset.from_leq(words, up)


def _poly_text(coeffs) -> str:
    """A monic polynomial in x, terms by falling degree: 'x**3 - 2*x + 1'."""
    text = ""
    for k, c in zip(range(len(coeffs) - 1, -1, -1), coeffs):
        if c:  # |c|*x**k with *x**0, **1 and a unit factor 1* dropped
            term = f"{abs(c)}*x**{k}".removesuffix("*x**0").removesuffix("**1").removeprefix("1*")
            text += (" - " if c < 0 else " + ") + term
    return text[3:]


def lattice_analytics(p: FinitePoset) -> dict:
    """Lattice-theoretic profile of a bounded poset.

    Returns the lattice flag, both semidistributivity flags, extremality and
    the Coxeter polynomial together with its cyclotomic-product flag.  All of
    it is exact integer arithmetic; the Coxeter polynomial is the
    characteristic polynomial of the transformation -Z^{-1} Z^T of the zeta
    matrix, written in x by falling degree, as in 'x**2 + x + 1'.
    """
    if not p.is_bounded:
        raise ValueError("analytics need a bounded poset")
    cox = p.coxeter_polynomial()
    return {
        "size": p.n,
        "height": p.height,
        "join_irreducibles": len(p.join_irreducibles),
        "meet_irreducibles": len(p.meet_irreducibles),
        "is_lattice": bool(p.is_lattice),
        "is_meet_semidistributive": bool(p.is_meet_semidistributive),
        "is_join_semidistributive": bool(p.is_join_semidistributive),
        "is_extremal": bool(p.is_extremal),
        "coxeter_polynomial": _poly_text(cox),
        "coxeter_cyclotomic": is_cyclotomic_product(cox),
    }


@dataclass
class CongruenceReport:
    unique_minima: bool
    minima_match_fiber_min: bool
    proj_down_order_preserving: bool
    proj_up_order_preserving: bool
    proj_up_counterexample: tuple | None


def check_congruence_projection(m: int, n: int, shadows=None) -> CongruenceReport:
    """Verify the shadow congruence on the painted rotation lattice.

    Checks that every shadow fiber has a unique minimum equal to fiber_min,
    that projecting down is order preserving along every rotation edge, and
    whether projecting up to fiber maxima preserves order.  A fiber without
    a unique minimum or maximum clears ``unique_minima`` and gets no
    projection; the projection flags then cover the edges whose endpoints
    both have one.  A shade the map misses has no fiber here.  ``shadows``,
    when given, maps every binary painted tree of the cell to its shadow,
    so a caller that has computed them passes them in instead.
    """
    poset = build_rotation_poset("painted", m, n)
    shade_of = shadow if shadows is None else shadows.__getitem__
    fibers = {}
    for i, pt in enumerate(poset.elements):
        fibers.setdefault(shade_of(pt), []).append(i)
    unique = True
    match = True
    down = {}
    up = {}
    for ls, idxs in fibers.items():
        minima, maxima = poset.extremes(idxs)
        if len(minima) != 1 or len(maxima) != 1:
            unique = False
            continue
        if poset.elements[minima[0]] != fiber_min(ls):
            match = False
        for i in idxs:
            down[i] = minima[0]
            up[i] = maxima[0]
    covers = [(lo, hi) for lo, hi in poset.covers if lo in down and hi in down]
    down_ok = all(poset.le(down[lo], down[hi]) for lo, hi in covers)
    up_bad = None
    for lo, hi in covers:
        if not poset.le(up[lo], up[hi]):
            up_bad = (poset.elements[lo], poset.elements[hi])
            break
    return CongruenceReport(unique, match, down_ok, up_bad is None, up_bad)
