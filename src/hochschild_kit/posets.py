"""Finite posets built from cover relations, with lattice analytics.

FinitePoset stores an element tuple and the Hasse diagram; the order
relation, meet/join tables and the lattice-theoretic predicates are derived
lazily.  The order is kept as Python-int bitmask rows, the idiom Preposet
uses: bit j of ``leq[i]`` is set iff element i is below element j, and
``down`` holds the transposed rows.  The meet of a and b is the element whose
down-set is ``down[a] & down[b]``, found by one dict lookup, so a full meet
table costs O(n^2) word-parallel operations.  Instances are immutable after
construction: every derived structure is a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .painted import binary_painted_trees, enum_painted_trees
from .shades import enum_lighted_shades, unary_lighted_shades
from .shadow import fiber_min, shadow_fibers


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite poset given by an element tuple and its cover relations.

    covers holds (lo, hi) index pairs with lo below hi; the order is their
    reflexive transitive closure, so the cover digraph must be acyclic.  The
    Hasse-diagram analytics (height, irreducibles, extremality) also need it
    to be transitively irredundant.
    """

    def __init__(self, elements, covers, _leq=None):
        self.elements = tuple(elements)
        self.covers = tuple(sorted(set(covers)))
        self.n = len(self.elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != self.n:
            raise ValueError("elements must be distinct")
        if _leq is not None:
            self._leq_cache = _leq

    @classmethod
    def from_leq(cls, elements, leq) -> "FinitePoset":
        """Build from up-set rows of a reflexive transitive relation.

        Bit j of ``leq[i]`` says element i is below element j.  The covers
        are the transitive reduction: j covers i when j is strictly above i
        and above nothing strictly above i.
        """
        up = tuple(row | 1 << i for i, row in enumerate(leq))
        strict = [row ^ 1 << i for i, row in enumerate(up)]
        covers = []
        for i, above in enumerate(strict):
            # a candidate already in reach lies above a visited element, so by
            # transitivity its strict up-set is in reach too: skip it
            reach = 0
            rest = above
            while rest:
                low = rest & -rest
                reach |= strict[low.bit_length() - 1]
                rest = (rest ^ low) & ~reach
            if reach >> i & 1:
                raise ValueError("relation is not antisymmetric")
            covers.extend((i, j) for j in _bits(above & ~reach))
        return cls(elements, covers, _leq=up)

    def index(self, key) -> int:
        return self._index[key]

    @cached_property
    def leq(self) -> tuple[int, ...]:
        """Up-set rows: bit j of leq[i] is set iff element i is below j."""
        if hasattr(self, "_leq_cache"):
            return self._leq_cache
        up = [1 << i for i in range(self.n)]
        for i in reversed(self.topological_order):
            for hi in self._covers_up[i]:
                up[i] |= up[hi]
        return tuple(up)

    @cached_property
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

    @cached_property
    def _covers_up(self):
        out = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            out[lo].append(hi)
        return out

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """Indices sorted bottom-up (every element after all it covers... i.e.
        after everything below it)."""
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

    @cached_property
    def minimal_elements(self) -> tuple[int, ...]:
        has_lower = set(hi for _, hi in self.covers)
        return tuple(i for i in range(self.n) if i not in has_lower)

    @cached_property
    def maximal_elements(self) -> tuple[int, ...]:
        has_upper = set(lo for lo, _ in self.covers)
        return tuple(i for i in range(self.n) if i not in has_upper)

    @cached_property
    def bottom(self):
        mins = self.minimal_elements
        return mins[0] if len(mins) == 1 else None

    @cached_property
    def top(self):
        maxs = self.maximal_elements
        return maxs[0] if len(maxs) == 1 else None

    @cached_property
    def is_bounded(self) -> bool:
        return self.n > 0 and self.bottom is not None and self.top is not None

    # -- meet / join -------------------------------------------------------------

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        """meet_table[a][b] = index of the meet, or -1 if it does not exist."""
        return self._bound_table(self.down)

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        return self._bound_table(self.leq)

    def _bound_table(self, rows) -> tuple[tuple[int, ...], ...]:
        """table[a][b] = the element whose row is rows[a] & rows[b], or -1.

        With down-set rows that element is the greatest common lower bound:
        its down-set is exactly the set of common lower bounds.  With up-set
        rows it is the least common upper bound.
        """
        owner = {row: i for i, row in enumerate(rows)}.get
        return tuple(tuple(owner(ra & rb, -1) for rb in rows) for ra in rows)

    def meet(self, a, b):
        """Greatest lower bound of two element keys, or None."""
        idx = self.meet_table[self.index(a)][self.index(b)]
        return self.elements[idx] if idx >= 0 else None

    def join(self, a, b):
        idx = self.join_table[self.index(a)][self.index(b)]
        return self.elements[idx] if idx >= 0 else None

    @cached_property
    def is_lattice(self) -> bool:
        return (
            self.is_bounded
            and all(-1 not in row for row in self.meet_table)
            and all(-1 not in row for row in self.join_table)
        )

    # -- analytics ------------------------------------------------------------------

    @cached_property
    def height(self) -> int:
        """Number of covers in a longest chain."""
        depth = [0] * self.n
        for i in self.topological_order:
            for hi in self._covers_up[i]:
                depth[hi] = max(depth[hi], depth[i] + 1)
        return max(depth, default=0)

    @cached_property
    def is_graded(self) -> bool:
        return self.rank_vector is not None

    @cached_property
    def rank_vector(self):
        """Cover-consistent rank function, or None if the poset is not graded."""
        rank = [None] * self.n
        for i in self.minimal_elements:
            rank[i] = 0
        for i in self.topological_order:
            for hi in self._covers_up[i]:
                if rank[hi] is None:
                    rank[hi] = rank[i] + 1
                elif rank[hi] != rank[i] + 1:
                    return None
        return tuple(rank)

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        lower = [0] * self.n
        for _, hi in self.covers:
            lower[hi] += 1
        return tuple(i for i in range(self.n) if lower[i] == 1)

    @cached_property
    def meet_irreducibles(self) -> tuple[int, ...]:
        upper = [0] * self.n
        for lo, _ in self.covers:
            upper[lo] += 1
        return tuple(i for i in range(self.n) if upper[i] == 1)

    @cached_property
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
        if side == "meet":
            prim, other = self.meet_table, self.join_table
        elif side == "join":
            prim, other = self.join_table, self.meet_table
        else:
            raise ValueError("side must be 'meet' or 'join'")
        if not self.is_lattice:
            raise ValueError("semidistributivity is defined on lattices only")
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

    @cached_property
    def is_meet_semidistributive(self) -> bool:
        return self.is_lattice and self.semidistributive_counterexample("meet") is None

    @cached_property
    def is_join_semidistributive(self) -> bool:
        return self.is_lattice and self.semidistributive_counterexample("join") is None

    def zeta_matrix(self):
        """Integer zeta matrix in a fixed linear extension order (sympy)."""
        from sympy import ImmutableMatrix

        order = self.topological_order
        n = self.n
        return ImmutableMatrix(
            n, n, lambda a, b: 1 if self.le(order[a], order[b]) else 0
        )

    def coxeter_polynomial(self):
        """Characteristic polynomial of -Z^{-1} Z^T over the integers."""
        from sympy import Poly, Symbol

        z = self.zeta_matrix()
        cox = -(z.inv()) * z.T
        x = Symbol("x")
        return Poly(cox.charpoly(x).as_expr(), x)

    def mobius_matrix(self):
        """Integer Möbius function as a sympy matrix (linear extension order)."""
        return self.zeta_matrix().inv()

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


def is_cyclotomic_product(poly) -> bool:
    """Exact test: is the integer polynomial a product of cyclotomics?"""
    from sympy import Poly, cyclotomic_poly

    p = Poly(poly)
    x = p.gen
    if p.degree() == 0:
        return p.as_expr() == 1
    if p.TC() == 0:
        return False
    deg = p.degree()
    d = 1
    while p.degree() > 0:
        phi = Poly(cyclotomic_poly(d, x), x)
        while p.degree() >= phi.degree():
            q, r = divmod(p, phi)
            if r.is_zero:
                p = q
            else:
                break
        d += 1
        if d > 4 * deg * deg + 2:
            return False
    return p.as_expr() == 1


@dataclass
class MorphismCheckReport:
    is_meet_morphism: bool
    is_join_morphism: bool
    meet_counterexample: tuple | None = None
    join_counterexample: tuple | None = None


def check_meet_morphism(f, src: FinitePoset, dst: FinitePoset) -> MorphismCheckReport:
    """Exhaustively check f(x op y) = f(x) op f(y) for both lattice operations.

    f maps source element keys to destination element keys; it must be total
    and surjective.
    """
    if set(f.keys()) != set(src.elements):
        raise ValueError("f must be total on the source")
    if set(f.values()) != set(dst.elements):
        raise ValueError("f must be surjective onto the destination")
    fi = [dst.index(f[e]) for e in src.elements]
    # a missing source bound (-1) maps to -1 through the extra last entry, so
    # it must match a missing destination bound
    f_or_missing = fi + [-1]
    example = {}
    for side in ("meet", "join"):
        src_t = src.meet_table if side == "meet" else src.join_table
        dst_t = dst.meet_table if side == "meet" else dst.join_table
        example[side] = None
        for a, row in enumerate(src_t):
            mapped = [f_or_missing[c] for c in row]
            dst_row = dst_t[fi[a]]
            expected = [dst_row[j] for j in fi]
            if mapped != expected:
                b = next(b for b, (x, y) in enumerate(zip(mapped, expected)) if x != y)
                example[side] = (src.elements[a], src.elements[b])
                break
    return MorphismCheckReport(
        example["meet"] is None, example["join"] is None, example["meet"], example["join"]
    )


# -- posets of painted trees and lighted shades ------------------------------------


@lru_cache(maxsize=None)
def build_rotation_poset(kind: str, m: int, n: int) -> FinitePoset:
    """Rotation poset on rank-0 objects; covers are the right rotations."""
    if kind == "painted":
        objs = binary_painted_trees(m, n)
    elif kind == "shade":
        objs = unary_lighted_shades(m, n)
    else:
        raise ValueError("kind must be 'painted' or 'shade'")
    index = {o: i for i, o in enumerate(objs)}
    covers = []
    for i, o in enumerate(objs):
        for succ in o.rotation_successors():
            covers.append((i, index[succ]))
    poset = FinitePoset(objs, covers)
    if poset.bottom is None or poset.top is None:
        raise AssertionError("rotation digraph must have a unique source and sink")
    return poset


@lru_cache(maxsize=None)
def build_refinement_poset(kind: str, m: int, n: int) -> FinitePoset:
    """Refinement poset on all objects, ordered by preposet containment.

    Larger preposet = smaller element; rank-0 objects are the maximal
    elements and the unique coarsest object is the minimum.
    """
    if kind == "painted":
        objs = enum_painted_trees(m, n)
    elif kind == "shade":
        objs = enum_lighted_shades(m, n)
    else:
        raise ValueError("kind must be 'painted' or 'shade'")
    # a is below b iff b's relation is contained in a's
    keys = [o.preposet.packed for o in objs]
    up = [sum(1 << b for b, kb in enumerate(keys) if kb & ~ka == 0) for ka in keys]
    return FinitePoset.from_leq(objs, up)


def word_subposet(m: int, n: int) -> FinitePoset:
    """The poset of constrained words, ordered componentwise."""
    from .cubic import enum_words

    words = enum_words(m, n)
    up = [
        sum(1 << b for b, v in enumerate(words) if all(x <= y for x, y in zip(w, v)))
        for w in words
    ]
    return FinitePoset.from_leq(words, up)


def lattice_analytics(p: FinitePoset) -> dict:
    """Lattice-theoretic profile of a bounded poset.

    Returns the lattice flag, both semidistributivity flags, extremality and
    the Coxeter polynomial together with its cyclotomic-product flag.  All of
    it is exact; the Coxeter polynomial is the characteristic polynomial of
    the transformation -Z^{-1} Z^T of the zeta matrix.
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
        "coxeter_polynomial": str(cox.as_expr()),
        "coxeter_cyclotomic": is_cyclotomic_product(cox),
    }


@dataclass
class CongruenceReport:
    unique_minima: bool
    minima_match_fiber_min: bool
    proj_down_order_preserving: bool
    proj_up_order_preserving: bool
    proj_up_counterexample: tuple | None


def check_congruence_projection(m: int, n: int) -> CongruenceReport:
    """Verify the shadow congruence on the painted rotation lattice.

    Checks that every shadow fiber has a unique minimum equal to fiber_min,
    that projecting down is order preserving along every rotation edge, and
    whether projecting up to fiber maxima preserves order.  A fiber without
    a unique minimum or maximum clears ``unique_minima`` and gets no
    projection; the projection flags then cover the edges whose endpoints
    both have one.
    """
    poset = build_rotation_poset("painted", m, n)
    fibers = shadow_fibers(m, n)
    unique = True
    match = True
    down = {}
    up = {}
    for ls, pts in fibers.items():
        idxs = [poset.index(p) for p in pts]
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
