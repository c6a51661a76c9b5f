"""Verification suites: the machine-checkable claims behind the library.

Each suite sweeps all (m, n) with 1 <= m + n <= bound, collects named checks
with booleans and counterexamples, and reports a machine-readable summary.
The suites are what the command line `verify` runs and what the acceptance
tests assert; every check is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .cubic import (
    enum_words,
    shade_to_word,
    verify_cubic_realization,
    word_to_shade,
)
from .geometry import (
    _polytope_objects,
    certify_polytope,
    freehedron_report,
    minkowski_data,
    oriented_skeleton,
    shared_facet_report,
)
from .posets import (
    build_rotation_poset,
    check_congruence_projection,
    check_meet_morphism,
    lattice_analytics,
    word_subposet,
)
from .shades import unary_lighted_shades
from .shadow import shadow
from .tables import reproduce_tables


@dataclass
class SuiteResult:
    suite: str
    bound: int
    checks: list = field(default_factory=list)  # (name, ok, detail)
    observations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def record(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), str(detail)))

    def observe(self, text):
        self.observations.append(text)

    def first_failure(self):
        for name, ok, detail in self.checks:
            if not ok:
                return f"{name}: {detail}"
        return None

    def to_json_obj(self):
        return {
            "suite": self.suite,
            "bound": self.bound,
            "ok": self.ok,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
            ],
            "observations": self.observations,
        }

    def summary(self) -> str:
        lines = [f"suite {self.suite} (bound {self.bound})"]
        for name, ok, detail in self.checks:
            mark = "ok  " if ok else "FAIL"
            lines.append(f"  {mark} {name}" + (f" [{detail}]" if detail and not ok else ""))
        for obs in self.observations:
            lines.append(f"  note {obs}")
        lines.append(f"suite {self.suite}: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _cells(bound):
    return [
        (m, n)
        for total in range(1, bound + 1)
        for m in range(total + 1)
        for n in [total - m]
    ]


# -- suites -------------------------------------------------------------------


def lattice_suite(bound: int = 6) -> SuiteResult:
    """Rotation digraphs are bounded acyclic lattices; shade graphs are
    regular; painted lattices are semidistributive on exactly one side."""
    res = SuiteResult("lattice", bound)
    for m, n in _cells(bound):
        for kind in ("painted", "shade"):
            poset = build_rotation_poset(kind, m, n)
            res.record(f"{kind}({m},{n}) bounded", poset.is_bounded)
            res.record(f"{kind}({m},{n}) lattice", poset.is_lattice)
            if kind == "shade":
                deg = [0] * poset.n
                for lo, hi in poset.covers:
                    deg[lo] += 1
                    deg[hi] += 1
                regular = all(d == m + n - 1 for d in deg)
                res.record(f"shade({m},{n}) regular degree {m + n - 1}", regular)
            else:
                meet_sd = poset.is_meet_semidistributive
                join_sd = poset.is_join_semidistributive
                expect_meet = m == 0 or n <= 2
                res.record(
                    f"painted({m},{n}) semidistributivity",
                    join_sd and meet_sd == expect_meet,
                    f"meetSD={meet_sd} joinSD={join_sd}",
                )
    res.observe(
        "painted rotation lattices are join semidistributive and fail meet "
        "semidistributivity exactly when m >= 1 and n >= 3 (the printed remark "
        "swaps the two sides)"
    )
    return res


def morphism_suite(bound: int = 6) -> SuiteResult:
    """The shadow map is a surjective meet (not join) semilattice morphism."""
    res = SuiteResult("morphism", bound)
    join_counterexamples = {}
    for m, n in _cells(bound):
        src = build_rotation_poset("painted", m, n)
        dst = build_rotation_poset("shade", m, n)
        f = {pt: shadow(pt) for pt in src.elements}
        surjective = set(f.values()) == set(dst.elements)
        rep = check_meet_morphism(f, src, dst)
        cong = check_congruence_projection(m, n)
        res.record(f"shadow({m},{n}) surjective", surjective)
        res.record(f"shadow({m},{n}) meet morphism", rep.is_meet_morphism)
        if not rep.is_join_morphism:
            join_counterexamples[(m, n)] = rep.join_counterexample
        res.record(f"fibers({m},{n}) unique minima", cong.unique_minima)
        res.record(f"fibers({m},{n}) minima = fiber_min", cong.minima_match_fiber_min)
        res.record(f"projection down({m},{n}) order preserving", cong.proj_down_order_preserving)
        if not cong.proj_up_order_preserving:
            res.observe(f"projection up({m},{n}) breaks order at {cong.proj_up_counterexample}")
    if bound >= 3:
        res.record(
            "join morphism counterexample at (0,3)",
            (0, 3) in join_counterexamples,
            str(join_counterexamples.get((0, 3))),
        )
        up = check_congruence_projection(0, 3)
        res.record(
            "projection up not order preserving at (0,3)",
            not up.proj_up_order_preserving,
            str(up.proj_up_counterexample),
        )
    return res


def fan_suite(bound: int = 6) -> SuiteResult:
    """Polytopality certificates, Minkowski data, skeletons, freehedron."""
    res = SuiteResult("fan", bound)
    for m, n in _cells(bound):
        for kind in ("multiplihedron", "hochschild"):
            rep = certify_polytope(kind, m, n)
            res.record(f"{kind}({m},{n}) certified", rep.passed, rep.counterexample or "")
            try:
                minkowski_data(kind, m, n)
                res.record(f"{kind}({m},{n}) minkowski data consistent", True)
            except AssertionError as exc:
                res.record(f"{kind}({m},{n}) minkowski data consistent", False, exc)
            try:
                oriented_skeleton(kind, m, n)
                res.record(f"{kind}({m},{n}) oriented skeleton = rotations", True)
            except AssertionError as exc:
                res.record(f"{kind}({m},{n}) oriented skeleton = rotations", False, exc)
        if m + n <= 5:
            shared = shared_facet_report(m, n)
            res.record(
                f"shared facets({m},{n})",
                shared.facets_subset
                and shared.shared_iff_singleton_tight
                and shared.common_vertices_are_singletons,
            )
    _polytope_objects.cache_clear()
    free = freehedron_report(3)
    res.record("freehedron(3) has 12 vertices", free.num_vertices == 12)
    res.record(
        "freehedron(3) omega orientation is not a lattice",
        not free.is_lattice
        and free.joinless_pair is not None
        and free.meetless_pair is not None,
        f"joinless {free.joinless_pair}, meetless {free.meetless_pair}",
    )
    return res


def cubic_suite(bound: int = 6) -> SuiteResult:
    """Word bijection round trips, cubic vectors, cubic subdivisions."""
    res = SuiteResult("cubic", bound)
    for m, n in _cells(min(bound + 1, 7)):
        shades = unary_lighted_shades(m, n)
        round_trip = all(word_to_shade(shade_to_word(ls)) == ls for ls in shades)
        count = len(enum_words(m, n)) * factorial(m) == len(shades)
        res.record(f"word round trip({m},{n})", round_trip)
        res.record(f"word count({m},{n}) = shades / m!", count)
    for m, n in _cells(bound):
        for kind in ("painted", "shade"):
            rep = verify_cubic_realization(kind, m, n, subdivision=m + n <= 5)
            res.record(
                f"cubic {kind}({m},{n})" + ("" if m + n <= 5 else " (vectors only)"),
                rep.passed,
                rep.counterexample or "",
            )
    return res


def tables_suite(bound: int = 7) -> SuiteResult:
    """Appendix table regression (closed form, series, exhaustive)."""
    res = SuiteResult("tables", bound)
    rep = reproduce_tables(bound=min(bound, 7))
    res.record("all printed cells reproduced", rep.ok, "; ".join(
        f"{c.table}({c.m},{c.n})" for c in rep.failures
    ))
    for c in rep.errata:
        res.observe(
            f"erratum {c.table}({c.m},{c.n}): printed {c.printed}, computed {c.expected}"
        )
    return res


def analytics_suite(bound: int = 6) -> SuiteResult:
    """Spot lattice analytics and the word-poset lattice property."""
    res = SuiteResult("analytics", bound)
    for m, n in _cells(bound):
        w = word_subposet(m, n)
        res.record(f"word poset({m},{n}) lattice", w.is_lattice)
    for (m, n), expect_extremal in [((1, 2), True), ((1, 3), True), ((2, 2), False)]:
        if m + n > bound:
            continue
        prof = lattice_analytics(build_rotation_poset("shade", m, n))
        res.observe(
            f"shade({m},{n}): extremal={prof['is_extremal']} "
            f"cyclotomic={prof['coxeter_cyclotomic']} (expected extremal={expect_extremal})"
        )
        if prof["is_extremal"] != expect_extremal:
            res.observe(f"shade({m},{n}): extremality observation differs")
    return res


def run_suite(name: str, bound: int) -> list[SuiteResult]:
    if name == "lattice":
        return [lattice_suite(bound)]
    if name == "morphism":
        return [morphism_suite(bound)]
    if name == "fan":
        return [fan_suite(bound)]
    if name == "cubic":
        return [cubic_suite(bound)]
    if name == "tables":
        return [tables_suite(bound)]
    if name == "all":
        return [
            tables_suite(bound),
            lattice_suite(min(bound, 6)),
            morphism_suite(min(bound, 6)),
            fan_suite(min(bound, 6)),
            cubic_suite(min(bound, 6)),
            analytics_suite(min(bound, 6)),
        ]
    raise ValueError(f"unknown suite {name!r}")
