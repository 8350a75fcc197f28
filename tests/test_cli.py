import json

import numpy as np
import pytest

from bicentral import centrality, cli, core
from bicentral.cli import _parse_transform, main
from bicentral.io import read_matrix_csv
from tests import reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nebs_on_worked_example(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "nebs", "--matrix", str(fixtures_dir / "ex51.csv"), "--phi", "reciprocal"
    )
    assert code == 0
    payload = json.loads(out)
    scores_a = {e["label"]: e["score"] for e in payload["a"]}
    scores_b = {e["label"]: e["score"] for e in payload["b"]}
    assert scores_a["a1"] == pytest.approx(0.654654, abs=1e-5)
    assert scores_a["a2"] == pytest.approx(0.755929, abs=1e-5)
    assert scores_b["b1"] == pytest.approx(0.866025, abs=1e-5)
    assert scores_b["b2"] == pytest.approx(0.5, abs=1e-5)
    assert payload["rho"] == pytest.approx(4.3094010768, abs=1e-9)


def test_nebs_reads_edge_lists(capsys, fixtures_dir):
    code_csv, out_csv, _ = run_cli(
        capsys, "nebs", "--matrix", str(fixtures_dir / "ex51.csv"), "--phi", "reciprocal"
    )
    code_tsv, out_tsv, _ = run_cli(
        capsys,
        "nebs",
        "--edges",
        str(fixtures_dir / "ex51_edges.tsv"),
        "--phi",
        "reciprocal",
    )
    assert code_csv == code_tsv == 0
    assert out_csv == out_tsv


def test_output_is_byte_deterministic(capsys, fixtures_dir):
    args = ("nebs", "--matrix", str(fixtures_dir / "ex51.csv"), "--phi", "reciprocal")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "fixture,phi",
    [("ex51.csv", "reciprocal"), ("latin.csv", "identity"), ("ex51.csv", "identity")],
)
def test_engines_agree_on_fixture_scores(capsys, fixtures_dir, fixture, phi):
    path = fixtures_dir / fixture
    code, out, _ = run_cli(capsys, "nebs", "--matrix", str(path), "--phi", phi)
    assert code == 0
    payload = json.loads(out)
    rel = read_matrix_csv(path.read_text())
    a, b = reference.product_ratings(
        rel.weights, core.reverse_matrix(rel, _parse_transform(phi))
    )
    for side, labels, ref in (("a", rel.a_labels, a), ("b", rel.b_labels, b)):
        prod = dict(zip(labels, ref.tolist()))
        for entry in payload[side]:
            assert entry["score"] == pytest.approx(prod[entry["label"]], abs=1e-8)


def test_engine_flag_is_a_usage_error(capsys, fixtures_dir):
    code, out, err = run_cli(
        capsys,
        "nebs",
        "--matrix",
        str(fixtures_dir / "ex51.csv"),
        "--phi",
        "reciprocal",
        "--engine",
        "product",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("bicentral: error: unrecognized arguments: --engine")


@pytest.mark.parametrize(
    "fixture,phi", [("ex51.csv", "reciprocal"), ("latin.csv", "identity")]
)
def test_check_builds_the_reverse_matrix_once(
    capsys, monkeypatch, fixtures_dir, fixture, phi
):
    calls = []
    original = core.reverse_matrix

    def counting(rel, transform):
        calls.append(transform)
        return original(rel, transform)

    # Patch every module that may hold its own reference to the function.
    for module in (core, cli, centrality):
        monkeypatch.setattr(module, "reverse_matrix", counting, raising=False)
    code, out, _ = run_cli(
        capsys, "check", "--matrix", str(fixtures_dir / fixture), "--phi", phi
    )
    assert code == 0 and json.loads(out)["ok"]
    assert len(calls) == 1


def test_check_reports_latin_square_warnings(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "check", "--matrix", str(fixtures_dir / "latin.csv"), "--phi", "identity"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert {w["code"] for w in payload["warnings"]} == {
        "CONSTANT_A_VECTOR",
        "CONSTANT_B_VECTOR",
    }


def test_check_flags_zero_entry_under_reciprocal(capsys, tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text(",a1,a2\nb1,1,0\nb2,0,1\n")
    code, out, _ = run_cli(capsys, "check", "--matrix", str(path), "--phi", "reciprocal")
    assert code == 2
    payload = json.loads(out)
    assert not payload["ok"]
    assert payload["violations"]


def test_nebs_refuses_what_check_flags(capsys, tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text(",a1,a2\nb1,1,0\nb2,2,1\n")
    args = ("--matrix", str(path), "--phi", "reciprocal")
    check_code, out, _ = run_cli(capsys, "check", *args)
    violations = json.loads(out)["violations"]
    code, out, err = run_cli(capsys, "nebs", *args)
    assert check_code == code == 2
    assert "requires every weight to be positive" in violations[0]
    assert out == ""
    assert err == f"bicentral: {'; '.join(violations)}\n"


def test_necs_rejects_reducible_input(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys, "necs", "--matrix", str(fixtures_dir / "reducible.csv")
    )
    assert code == 2
    assert "strongly connected" in err


def test_necs_on_symmetric_adjacency(capsys, tmp_path):
    path = tmp_path / "sym.csv"
    path.write_text(",v1,v2\nv1,1,2\nv2,2,1\n")
    code, out, _ = run_cli(capsys, "necs", "--matrix", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalue"] == pytest.approx(3.0, abs=1e-9)
    assert all(e["rank"] == 1 and e["tied"] for e in payload["c"])


def test_necs_requires_matching_labels(capsys, tmp_path):
    path = tmp_path / "mismatch.csv"
    path.write_text(",v1,v2\nw1,1,2\nw2,2,1\n")
    code, _, err = run_cli(capsys, "necs", "--matrix", str(path))
    assert code == 1
    assert "labels" in err


def test_necs_reorders_edge_list_axes(capsys, tmp_path):
    # v2 appears first on the b axis; the adjacency must still line up.
    # Aligned correctly the matrix is [[1,1],[2,0]] with eigenvalue 2;
    # misaligned it would be block triangular and rejected.
    path = tmp_path / "cycle.tsv"
    path.write_text("v1\tv2\t2\nv2\tv1\t1\nv1\tv1\t1\n")
    code, out, _ = run_cli(capsys, "necs", "--edges", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalue"] == pytest.approx(2.0, abs=1e-9)


def test_baseline_shows_the_motivating_tie(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "baseline", "--matrix", str(fixtures_dir / "ex51.csv")
    )
    assert code == 0
    payload = json.loads(out)
    assert [e["rank"] for e in payload["a_bar"]] == [1, 1]
    assert all(e["tied"] for e in payload["a_bar"])
    assert [e["score"] for e in payload["b_bar"]] == [2.5, 1.5]


def test_construct_reverse_round_trips_through_nebs(capsys, tmp_path):
    matrix = tmp_path / "w.csv"
    matrix.write_text(",a1,a2\nb1,2,3\nb2,5,1\n")
    target = tmp_path / "target.txt"
    target.write_text("0.6\n0.8\n")
    out_matrix = tmp_path / "wprime.csv"
    out_phi = tmp_path / "phi.tsv"
    code, out, _ = run_cli(
        capsys,
        "construct-reverse",
        "--matrix",
        str(matrix),
        "--target",
        str(target),
        "--out-matrix",
        str(out_matrix),
        "--out-phi",
        str(out_phi),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["lambda"] == pytest.approx(1.0 / np.linalg.norm([3.6, 3.8]))
    assert out_matrix.exists() and out_phi.exists()

    code, out, _ = run_cli(
        capsys, "nebs", "--matrix", str(matrix), "--phi", f"table:{out_phi}"
    )
    assert code == 0
    payload = json.loads(out)
    scores = {e["label"]: e["score"] for e in payload["a"]}
    assert scores["a1"] == pytest.approx(0.6, abs=1e-8)
    assert scores["a2"] == pytest.approx(0.8, abs=1e-8)


@pytest.mark.parametrize("command", ["nebs", "check"])
def test_non_finite_reverse_weight_exits_two(capsys, tmp_path, command):
    matrix = tmp_path / "w.csv"
    matrix.write_text(",a1,a2\nb1,1e-310,1\nb2,2,3\n")
    code, out, err = run_cli(
        capsys, command, "--matrix", str(matrix), "--phi", "reciprocal"
    )
    assert code == 2
    if command == "nebs":
        assert "non-finite reverse weight" in err
    else:
        assert json.loads(out)["checks"]["transform_applicable"] is False


@pytest.mark.parametrize("command", ["nebs", "check"])
def test_zero_reverse_weight_exits_two(capsys, tmp_path, command):
    matrix = tmp_path / "w.csv"
    matrix.write_text(",a1,a2\nb1,1e200,1\nb2,2,3\n")
    code, out, err = run_cli(
        capsys, command, "--matrix", str(matrix), "--phi", "power:-2"
    )
    assert code == 2
    if command == "nebs":
        assert "zero reverse weight" in err
    else:
        assert json.loads(out)["checks"]["transform_applicable"] is False


@pytest.mark.parametrize(
    "line,reason", [("zebra", "bad number"), ("inf", "non-finite value")]
)
def test_bad_target_value_is_a_parse_error(capsys, tmp_path, line, reason):
    matrix = tmp_path / "w.csv"
    matrix.write_text(",a1,a2\nb1,2,3\nb2,5,1\n")
    target = tmp_path / "target.txt"
    target.write_text(f"0.6\n{line}\n")
    code, _, err = run_cli(
        capsys,
        "construct-reverse",
        "--matrix",
        str(matrix),
        "--target",
        str(target),
        "--out-matrix",
        str(tmp_path / "wprime.csv"),
        "--out-phi",
        str(tmp_path / "phi.tsv"),
    )
    assert code == 1
    assert f"line 2, column 1: {reason} {line!r}" in err


def test_exit_three_when_budget_too_small(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys,
        "nebs",
        "--matrix",
        str(fixtures_dir / "ex51.csv"),
        "--phi",
        "reciprocal",
        "--max-iter",
        "2",
    )
    assert code == 3
    assert "no convergence" in err


def test_usage_errors_exit_one(capsys, fixtures_dir):
    assert run_cli(capsys, "nebs", "--phi", "reciprocal")[0] == 1
    assert (
        run_cli(
            capsys,
            "nebs",
            "--matrix",
            str(fixtures_dir / "ex51.csv"),
            "--phi",
            "cubic",
        )[0]
        == 1
    )
    assert run_cli(capsys, "nebs", "--matrix", "/no/such/file.csv", "--phi", "identity")[0] == 1
    assert (
        run_cli(
            capsys,
            "nebs",
            "--matrix",
            str(fixtures_dir / "ex51.csv"),
            "--phi",
            "scale:-1",
        )[0]
        == 1
    )


def test_malformed_matrix_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",a1\nb1,-3\n")
    code, _, err = run_cli(capsys, "nebs", "--matrix", str(path), "--phi", "identity")
    assert code == 1
    assert "parse error" in err


def test_oversize_cell_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(",a1\nb1," + "1" * 140_000 + "\n")
    code, out, err = run_cli(capsys, "nebs", "--matrix", str(path), "--phi", "identity")
    assert code == 1
    assert out == ""
    assert err.startswith("bicentral: parse error: line 2, column 0: field larger")
    assert err.count("\n") == 1


def test_tsv_format_flag(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys,
        "nebs",
        "--matrix",
        str(fixtures_dir / "ex51.csv"),
        "--phi",
        "reciprocal",
        "--format",
        "tsv",
    )
    assert code == 0
    assert out.splitlines()[0] == "side\tlabel\tscore\trank\ttied"


def test_warnings_do_not_change_exit_code(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "nebs", "--matrix", str(fixtures_dir / "latin.csv"), "--phi", "identity"
    )
    assert code == 0
    assert json.loads(out)["warnings"]
