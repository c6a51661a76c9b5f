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


@pytest.mark.parametrize("error", [AssertionError, RuntimeError])
def test_internal_failure_exits_1(capsys, monkeypatch, error):
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
