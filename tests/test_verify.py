import dataclasses
import json
import re
import sys
from collections import Counter
from functools import lru_cache

import pytest

from hochschild_kit import cli, posets, verify
from hochschild_kit.cli import main
from hochschild_kit.painted import binary_painted_trees, tree_leaves
from hochschild_kit.posets import build_rotation_poset
from hochschild_kit.shades import labeling
from hochschild_kit.shadow import shadow

from oracles import patch_spines

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


@pytest.mark.parametrize("name", ["tables", "lattice", "morphism", "fan", "cubic", "analytics"])
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
    # the suite reads each binary shape's spine once and hands the index list
    # to both checks: no tree's shadow is built, and the congruence check
    # reads the fiber extremes off the covers, with no down rows
    shadow_module = sys.modules["hochschild_kit.shadow"]
    real = shadow_module.spine
    reads = Counter()

    def counted(shape, leaves=tree_leaves):
        reads[shape] += 1
        return real(shape, leaves)

    def unbuilt(pt):
        raise AssertionError("the morphism suite built a tree's shadow")

    monkeypatch.setattr(shadow_module, "spine", counted)
    bindings = [module for name, module in sys.modules.items()
                if name.startswith("hochschild_kit") and vars(module).get("shadow") is shadow]
    assert shadow_module in bindings
    for module in bindings:
        monkeypatch.setattr(module, "shadow", unbuilt)
    built = []

    @lru_cache(maxsize=None)
    def fresh(kind, m, n):
        # posets no other test has read, so a down view would be this suite's
        poset = build_rotation_poset.__wrapped__(kind, m, n)
        built.append((kind, poset))
        return poset

    for module in (verify, posets):
        monkeypatch.setattr(module, "build_rotation_poset", fresh)
    assert verify.morphism_suite(4).ok
    shapes = {pt.tagged for m, n in _cells(4) for pt in binary_painted_trees(m, n)}
    assert set(reads) == shapes and set(reads.values()) == {1}
    painted = [poset for kind, poset in built if kind == "painted"]
    assert len(painted) == len(_cells(4))
    assert all("down" not in poset.__dict__ for poset in painted)


def test_a_failed_meet_morphism_row_names_its_pair(monkeypatch):
    # the shadow map with the two shades of (0, 2) swapped: still onto, but
    # it reverses the order of a two-element chain.  The suite computes the
    # map once and the congruence check reads it too, so each swapped fiber
    # also has a minimum other than its fiber_min
    low, high = (labeling(ls)[0] for ls in build_rotation_poset("shade", 0, 2).elements)
    patch_spines(monkeypatch, 0, 2, lambda spine: ({low: high, high: low}[spine[0]], spine[1]))
    res = verify.morphism_suite(2)
    failed = [(name, detail) for name, ok, detail in res.checks if not ok]
    assert failed == [(
        "shadow(0,2) meet morphism",
        'meet of (PaintedTree({"m":0,"n":2,"tree":[0,[0,0]],"cuts":[],"parts":[]}), '
        'PaintedTree({"m":0,"n":2,"tree":[[0,0],0],"cuts":[],"parts":[]}))',
    ), ("fibers(0,2) minima = fiber_min", "")]


def test_a_tree_whose_shadow_is_no_shade_is_recorded_not_raised(monkeypatch, capsys):
    # the top tree of (0, 2) reads a spine of sum 3, which names no (0, 2)
    # shade: that tree has no image and belongs to no fiber, so the map
    # misses the top shade and fails the same two rows as a map onto one
    # shade, and the remaining fiber still has its fiber_min as minimum
    patch_spines(monkeypatch, 0, 2, lambda spine: ((1, 1, 1), ()) if spine[0] == (1, 1) else spine)
    src = build_rotation_poset("painted", 0, 2)
    dst = build_rotation_poset("shade", 0, 2)
    # the top tree, the right comb, comes first; the left comb's shadow (2,)
    # is the second shade
    assert [labeling(ls)[0] for ls in dst.elements] == [(1, 1), (2,)]
    assert verify.shadow_images(src.elements, dst.elements) == [-1, 1]
    expected = [
        ("shadow(0,2) surjective", ""),
        ("shadow(0,2) meet morphism", "the map is not surjective"),
    ]
    res = verify.morphism_suite(2)
    assert [(name, detail) for name, ok, detail in res.checks if not ok] == expected
    assert main(["verify", "--suite", "morphism", "--bound", "2", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert "internal error" not in err
    (doc,) = json.loads(out)["suites"]
    assert [(c["name"], c["detail"]) for c in doc["checks"] if not c["ok"]] == expected


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
