import re

import pytest

from hochschild_kit import cli, verify
from hochschild_kit.cli import main

SMALL_REACH = {
    "tables": 3,
    "lattice": 2,
    "morphism": 3,
    "fan": 3,
    "fan shared facets": 1,
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
    assert _named_cells(names["fan"], "shared facets(") == _cells(1)
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

    def counted(m, n):
        calls.append((m, n))
        return check(m, n)

    monkeypatch.setattr(verify, "check_congruence_projection", counted)
    res = verify.morphism_suite(3)
    assert sorted(calls) == sorted(_cells(3))
    assert dict((name, ok) for name, ok, _ in res.checks)[
        "projection up not order preserving at (0,3)"
    ]
