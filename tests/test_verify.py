import dataclasses
import re

import pytest

from hochschild_kit import cli, posets, verify
from hochschild_kit.cli import main
from hochschild_kit.painted import binary_painted_trees
from hochschild_kit.posets import build_rotation_poset
from hochschild_kit.shadow import shadow

SMALL_REACH = {
    "tables": 3,
    "lattice": 2,
    "morphism": 3,
    "fan": 3,
    "cubic": 3,
    "cubic subdivision": 2,
    "cubic words": 4,
    "analytics": 2,
}


def _cells(bound):
    return {(m, t - m) for t in range(1, bound + 1) for m in range(t + 1)}


def _named_cells(names, prefix):
    cells = set()
    for name in names:
        if name.startswith(prefix):
            m, n = re.match(r".*?\((\d+),(\d+)\)", name).groups()
            cells.add((int(m), int(n)))
    return cells


@pytest.fixture
def small_reach(monkeypatch):
    monkeypatch.setattr(verify, "REACH", dict(SMALL_REACH))


def test_reach_stays_within_the_cli_ceiling():
    assert set(verify.REACH) == set(SMALL_REACH)
    for check, reach in verify.REACH.items():
        assert 1 <= reach <= cli.DEFAULT_CEILING, check


def test_every_suite_of_all_follows_the_reach_table(small_reach):
    sections = {res.suite: res for res in verify.run_suite("all", 4)}
    assert list(sections) == ["tables", "lattice", "morphism", "fan", "cubic", "analytics"]
    for name, res in sections.items():
        assert res.bound == SMALL_REACH[name], name
        assert res.ok, res.first_failure()
    names = {s: [c[0] for c in res.checks] for s, res in sections.items()}

    assert _named_cells(names["lattice"], "painted(") == _cells(2)
    assert _named_cells(names["analytics"], "word poset(") == _cells(2)
    assert _named_cells(names["morphism"], "shadow(") == _cells(3)
    assert _named_cells(names["fan"], "hochschild(") == _cells(3)
    assert _named_cells(names["fan"], "shared facets(") == _cells(3)
    # words run one size past the requested bound, up to their own entry
    assert _named_cells(names["cubic"], "word round trip(") == _cells(4)
    vectors = [name for name in names["cubic"] if name.startswith("cubic ")]
    assert _named_cells(vectors, "cubic painted(") == _cells(3)
    subdivided = [name for name in vectors if not name.endswith(" (vectors only)")]
    assert _named_cells(subdivided, "cubic painted(") == _cells(2)


@pytest.mark.parametrize("name", ["tables", "lattice", "morphism", "fan", "cubic"])
def test_a_suite_stops_where_all_stops_it(small_reach, name):
    alone = verify.run_suite(name, 4)
    within_all = [res for res in verify.run_suite("all", 4) if res.suite == name]
    assert [r.to_json_obj() for r in alone] == [r.to_json_obj() for r in within_all]


def test_csv_tables_follow_the_reach_table(small_reach, capsys):
    code = main(["verify", "--suite", "tables", "--format", "csv", "--bound", "4"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0 and rows
    for row in rows:
        _, m, n, _, _, methods, _, _ = row.split(",")
        assert ("exhaustive=" in methods) == (int(m) + int(n) <= 3), row


def test_run_suite_reads_the_suite_functions_at_call_time(monkeypatch):
    stub = verify.SuiteResult("lattice", 1)
    monkeypatch.setattr(verify, "lattice_suite", lambda bound: stub)
    assert verify.run_suite("lattice", 7) == [stub]


def test_morphism_suite_projects_each_cell_once(monkeypatch):
    calls = []
    check = verify.check_congruence_projection

    def counted(m, n, shadows):
        calls.append((m, n))
        return check(m, n, shadows)

    monkeypatch.setattr(verify, "check_congruence_projection", counted)
    res = verify.morphism_suite(3)
    assert sorted(calls) == sorted(_cells(3))
    assert dict((name, ok) for name, ok, _ in res.checks)[
        "projection up not order preserving at (0,3)"
    ]


def test_morphism_suite_computes_each_shadow_once(monkeypatch):
    # the suite's map is passed to the congruence check, which computes none
    calls = [0]

    def counted(pt):
        calls[0] += 1
        return shadow(pt)

    for module in (verify, posets):
        monkeypatch.setattr(module, "shadow", counted)
    assert verify.morphism_suite(4).ok
    assert calls[0] == sum(len(binary_painted_trees(m, n)) for m, n in _cells(4))


def test_a_failed_meet_morphism_row_names_its_pair(monkeypatch):
    # the shadow map with the two shades of (0, 2) swapped: still onto, but
    # it reverses the order of a two-element chain.  The suite computes the
    # map once and the congruence check reads it too, so each swapped fiber
    # also has a minimum other than its fiber_min
    real = verify.shadow
    low, high = build_rotation_poset("shade", 0, 2).elements

    def swapped(pt):
        shade = real(pt)
        if (pt.m, pt.n) != (0, 2):
            return shade
        return high if shade == low else low

    monkeypatch.setattr(verify, "shadow", swapped)
    res = verify.morphism_suite(2)
    failed = [(name, detail) for name, ok, detail in res.checks if not ok]
    assert failed == [(
        "shadow(0,2) meet morphism",
        'meet of (PaintedTree({"m":0,"n":2,"tree":[0,[0,0]],"cuts":[],"parts":[]}), '
        'PaintedTree({"m":0,"n":2,"tree":[[0,0],0],"cuts":[],"parts":[]}))',
    ), ("fibers(0,2) minima = fiber_min", "")]


def test_a_failed_shared_facets_row_names_its_clauses(monkeypatch):
    real = verify.shared_facet_report

    def broken(m, n):
        rep = real(m, n)
        if (m, n) != (1, 1):
            return rep
        return dataclasses.replace(rep, facets_subset=False, common_vertices_are_singletons=False)

    monkeypatch.setattr(verify, "shared_facet_report", broken)
    res = verify.fan_suite(2)
    failed = [(name, detail) for name, ok, detail in res.checks if not ok]
    assert failed == [("shared facets(1,1)", "facets_subset, common_vertices_are_singletons")]
    assert res.first_failure() == "shared facets(1,1): facets_subset, common_vertices_are_singletons"
