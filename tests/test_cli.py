import json

import pytest

from hochschild_kit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count_only(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "shade", "--m", "1", "--n", "3",
        "--rank", "0", "--count-only",
    )
    assert code == 0 and out == "12\n"


def test_enumerate_painted_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "painted", "--m", "0", "--n", "4",
        "--rank", "0", "--count-only",
    )
    assert code == 0 and out == "14\n"


def test_enumerate_single_shade(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "shade", "--m", "0", "--n", "1")
    assert code == 0
    assert out == '{"m":0,"n":1,"entries":[{"tuple":[1],"lights":[]}]}\n'


def test_enumerate_json_format(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "shade", "--m", "1", "--n", "1",
        "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["format_version"] == 1
    assert len(doc["objects"]) == 3


def test_enumerate_is_deterministic(capsys):
    args = ("enumerate", "--kind", "painted", "--m", "1", "--n", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "--kind", "shade", "--m", "0", "--n", "0")
    assert code == 2 and "invalid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("polytope", "--kind", "freehedron", "--n", "-1"),
        ("hasse", "--kind", "word", "--m", "-1", "--n", "2"),
        ("verify", "--suite", "lattice", "--bound", "-3"),
        ("verify", "--suite", "tables", "--bound", "0"),
    ],
    ids=["freehedron-n-1", "word-m-1", "bound-3", "bound0"],
)
def test_negative_sizes_and_empty_bounds_exit_2(capsys, argv):
    # each of these used to exit 0; the lattice suite passed with no checks
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "invalid" in err


def test_safety_ceiling_exit_2(capsys):
    code, _, err = run(
        capsys, "enumerate", "--kind", "shade", "--m", "5", "--n", "5",
        "--count-only",
    )
    assert code == 2 and "ceiling" in err
    code, out, err = run(capsys, "hasse", "--kind", "shade", "--m", "5", "--n", "5")
    assert code == 2 and out == "" and "ceiling" in err


def test_polytope_hochschild_json(capsys):
    code, out, _ = run(
        capsys, "polytope", "--kind", "hochschild", "--m", "1", "--n", "3",
        "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0
    assert len(doc["vertices"]) == 12
    assert len(doc["facets"]) == 8
    assert doc["certification"]["passed"] is True


def test_polytope_skew_quadrilateral(capsys):
    code, out, _ = run(capsys, "polytope", "--kind", "hochschild", "--m", "0", "--n", "3")
    assert code == 0
    assert "4 vertices, 4 facets" in out
    assert "certified" in out


def test_polytope_freehedron(capsys):
    code, out, _ = run(capsys, "polytope", "--kind", "freehedron", "--n", "3")
    assert code == 0
    assert "12 vertices" in out
    assert "not a lattice" in out


def test_freehedron_rejects_m(capsys):
    # the freehedron has no m; --m used to be ignored and to pass the ceiling
    for m in ("1", "5"):
        code, out, err = run(
            capsys, "polytope", "--kind", "freehedron", "--m", m, "--n", "3",
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "--m" in err
    code, out, _ = run(capsys, "polytope", "--kind", "freehedron", "--m", "0", "--n", "3")
    assert code == 0 and "12 vertices" in out


@pytest.mark.parametrize("kind", ["painted", "shade"])
def test_count_only_matches_enumeration(capsys, kind):
    from hochschild_kit.painted import enum_painted_trees
    from hochschild_kit.shades import enum_lighted_shades

    enum = enum_painted_trees if kind == "painted" else enum_lighted_shades
    for d in range(1, 6):
        for m in range(d + 1):
            for rank in [None, *range(d)]:
                argv = ["enumerate", "--kind", kind, "--m", str(m), "--n", str(d - m)]
                argv += ["--count-only"] + ([] if rank is None else ["--rank", str(rank)])
                code, out, _ = run(capsys, *argv)
                assert code == 0 and out == f"{len(enum(m, d - m, rank=rank))}\n"
    code, _, err = run(
        capsys, "enumerate", "--kind", kind, "--m", "1", "--n", "2", "--rank", "3",
        "--count-only",
    )
    assert code == 2 and "rank must lie in [0, 2]" in err


def test_enumerate_count_only_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "shade", "--m", "1", "--n", "2",
        "--count-only", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "format_version": 1, "kind": "shade", "m": 1, "n": 2, "rank": None, "count": 11,
    }
    assert list(json.loads(out)) == ["format_version", "kind", "m", "n", "rank", "count"]
    code, out, _ = run(
        capsys, "enumerate", "--kind", "painted", "--m", "0", "--n", "4",
        "--rank", "0", "--count-only", "--format", "json",
    )
    assert code == 0 and json.loads(out)["count"] == 14 and json.loads(out)["rank"] == 0
    code, out, _ = run(
        capsys, "enumerate", "--kind", "shade", "--m", "1", "--n", "2",
        "--count-only", "--format", "text",
    )
    assert code == 0 and out == "11\n"


def test_verify_tables_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables", "--bound", "4")
    assert code == 0
    assert "PASS" in out


def test_verify_morphism_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "morphism", "--bound", "3",
        "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    names = [c["name"] for c in doc["suites"][0]["checks"]]
    assert "join morphism counterexample at (0,3)" in names


def test_hasse_rotation_dot(capsys):
    code, out, _ = run(capsys, "hasse", "--kind", "painted", "--m", "0", "--n", "3")
    assert code == 0
    assert out.count("->") == 5
    assert out.startswith("digraph")


def test_hasse_word_dot(capsys):
    code, out, _ = run(capsys, "hasse", "--kind", "word", "--m", "1", "--n", "3")
    assert code == 0
    assert out.count("label=") == 12


def test_hasse_rejects_a_refinement_poset_of_words(capsys):
    # words have only their componentwise order, which used to be printed
    # under the name word_refinement_m_n
    code, out, err = run(
        capsys, "hasse", "--kind", "word", "--m", "1", "--n", "2", "--poset", "refinement",
    )
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "refinement" in err


def test_hasse_shade_edge_count(capsys):
    code, out, _ = run(capsys, "hasse", "--kind", "shade", "--m", "1", "--n", "3")
    assert code == 0
    assert out.count("->") == 18


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "enumerate", "--kind", "shade", "--m", "1", "--n", "3",
        "--rank", "0", "--count-only", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text() == "12\n"


def test_output_io_failure(capsys):
    code, _, err = run(
        capsys, "enumerate", "--kind", "shade", "--m", "1", "--n", "2",
        "--count-only", "--output", "/nonexistent-dir/x.txt",
    )
    assert code == 1


@pytest.mark.parametrize("error", [AssertionError, RuntimeError, ValueError])
def test_internal_failure_exits_1(capsys, monkeypatch, error):
    # parameters are checked before the library runs, so a library
    # ValueError is a failure of the kit, not a usage error
    import hochschild_kit.geometry as geometry

    def broken(kind, m, n):
        raise error("support minimum differs from z at [1]")

    monkeypatch.setattr(geometry, "minkowski_data", broken)
    code, out, err = run(
        capsys, "polytope", "--kind", "hochschild", "--m", "1", "--n", "2",
    )
    assert code == 1 and out == ""
    assert err == "internal error: support minimum differs from z at [1]\n"


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "bogus", "--n", "3"])
    assert exc.value.code == 2


def test_unsafe_bound_lifts_the_only_ceiling(capsys):
    # the CLI ceiling is the one size policy: the poset builders have none
    code, out, err = run(capsys, "hasse", "--kind", "shade", "--n", "9", "--unsafe-bound")
    assert code == 0 and err == ""
    assert out.count("label=") == 256


@pytest.mark.parametrize("command", ["enumerate", "polytope"])
def test_enumerate_and_polytope_reject_dot_and_csv(command):
    kind = "shade" if command == "enumerate" else "hochschild"
    for fmt in ("dot", "csv"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--kind", kind, "--n", "2", "--format", fmt])
        assert exc.value.code == 2


def test_hasse_accepts_only_dot(capsys):
    args = ("hasse", "--kind", "painted", "--n", "3")
    for fmt in ("json", "text", "csv"):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--format", fmt])
        assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *args, "--format", "dot") == run(capsys, *args)


def test_verify_csv_needs_the_tables_suite(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "lattice", "--bound", "2", "--format", "csv",
    )
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "tables" in err


def test_a_move_outside_the_elements_is_one_internal_error_line(capsys, monkeypatch):
    from hochschild_kit import posets, shades
    from hochschild_kit.shades import LightedShade

    # one more shape move, to a sequence whose values sum to 3, not 2
    stray = LightedShade(1, 2, [((3,), set()), ((), {1})])
    every_move = shades._sequence_moves
    monkeypatch.setattr(shades, "_sequence_moves", lambda seq: every_move(seq) + [(3, 0)])
    posets.build_rotation_poset.cache_clear()
    try:
        code, out, err = run(capsys, "hasse", "--kind", "shade", "--m", "1", "--n", "2")
    finally:
        posets.build_rotation_poset.cache_clear()
    assert code == 1 and out == ""
    assert err == f"internal error: a move reaches {stray!r}, which is not an element\n"
