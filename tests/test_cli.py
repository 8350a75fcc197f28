import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bicentral
from bicentral import centrality, cli, core, errors
from bicentral.cli import _parse_transform, main
from bicentral.io import read_edge_list, read_matrix_csv
from tests import reference
from tests.conftest import FIXTURES

FIXTURE_NAMES = sorted(path.name for path in FIXTURES.iterdir())


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


@pytest.mark.parametrize(
    "matrix,phi,table",
    [
        (",a1,a2\nb1,1e-310,1\nb2,0,0\n", "power:2", None),
        (",a1,a2\nb1,1,0\nb2,0,2\n", "table", "1\t2\n"),
    ],
    ids=["underflow", "table-gap"],
)
def test_refusal_names_every_violation(capsys, tmp_path, matrix, phi, table):
    path = tmp_path / "m.csv"
    path.write_text(matrix)
    if table is not None:
        (tmp_path / "phi.tsv").write_text(table)
        phi = f"table:{tmp_path / 'phi.tsv'}"
    args = ("--matrix", str(path), "--phi", phi)
    check_code, out, _ = run_cli(capsys, "check", *args)
    payload = json.loads(out)
    assert payload["checks"]["transform_applicable"] is False
    assert payload["checks"]["products_irreducible"] is False
    assert payload["warnings"] == []
    violations = payload["violations"]
    assert violations[-1] == core._REDUCIBLE_PRODUCTS
    assert "reverse weight" in violations[-2] or "has no entry" in violations[-2]
    code, out, err = run_cli(capsys, "nebs", *args)
    assert check_code == code == 2
    assert out == ""
    assert err == f"bicentral: {'; '.join(violations)}\n"


#: Every map the CLI takes, the table one mapping 1 -> 2, 2 -> 0.5, 3 -> 0.25.
_MAPS = [
    "identity", "reciprocal", "scale:3", "scale:1", "power:2", "power:1",
    "power:-1", "power:-2", "power:0.5", "scale:1e300", "scale:1e-320", "table",
]


@pytest.mark.parametrize("phi", _MAPS)
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_check_warns_as_nebs_does(capsys, fixtures_dir, tmp_path, fixture, phi):
    if phi == "table":
        (tmp_path / "phi.tsv").write_text("1\t2\n2\t0.5\n3\t0.25\n")
        phi = f"table:{tmp_path / 'phi.tsv'}"
    path = fixtures_dir / fixture
    args = ("--edges" if path.suffix == ".tsv" else "--matrix", str(path), "--phi", phi)
    code, out, _ = run_cli(capsys, "nebs", *args)
    if code != 0:
        return
    report = json.loads(out)
    code, out, _ = run_cli(capsys, "check", *args)
    assert code == 0
    assert json.loads(out)["warnings"] == report["warnings"]


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


def test_necs_on_periodic_digraph(capsys, tmp_path):
    # Strongly connected with period 2; its Perron root is sqrt(15).
    path = tmp_path / "periodic.csv"
    path.write_text(",v1,v2,v3,v4\nv1,0,0,1,2\nv2,0,0,3,1\nv3,2,1,0,0\nv4,1,5,0,0\n")
    code, out, _ = run_cli(capsys, "necs", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["eigenvalue"] == pytest.approx(np.sqrt(15.0), abs=1e-8)


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


def test_necs_edge_list_orders_a_column_labels_first(capsys, tmp_path):
    # Both axes list the a-column labels in first-appearance order, then the
    # labels seen only in the b column: x, z, y here, though the file names
    # x, y, z first. Every score of the cycle ties, so the table keeps it.
    path = tmp_path / "cycle.tsv"
    path.write_text("x\ty\t1\nz\tx\t1\ny\tz\t1\n")
    code, out, _ = run_cli(capsys, "necs", "--edges", str(path))
    assert code == 0
    table = json.loads(out)["c"]
    assert [entry["label"] for entry in table] == ["x", "z", "y"]
    assert all(entry["tied"] for entry in table)


def test_necs_edge_list_missing_a_vertex_on_one_side_is_reducible(capsys, tmp_path):
    # x has no in-edge, so it names no row: the digraph x -> y <-> z is
    # reducible, a precondition failure rather than malformed input.
    path = tmp_path / "tail.tsv"
    path.write_text("x\ty\t1\ny\tz\t1\nz\ty\t1\n")
    code, out, err = run_cli(capsys, "necs", "--edges", str(path))
    assert (code, out) == (2, "")
    assert "not strongly connected" in err


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


def test_overflow_leaves_one_line_on_stderr(tmp_path):
    # Under identity the first product W'(W x), about 1e400, overflows. In a
    # fresh interpreter that shows every warning, stderr must hold the one
    # error line and nothing else.
    done = _in_fresh_interpreter(
        tmp_path, ",x,y\np,2e200,3e200\nq,2e200,1e200\n", phi="identity"
    )
    assert done.returncode == 2
    assert done.stderr == "bicentral: rating update collapsed to the zero vector\n"


def test_reciprocal_on_weights_across_the_double_range_is_rated(tmp_path):
    # The products W'(W x) stay finite, but their squared norms leave the
    # double range.
    done = _in_fresh_interpreter(tmp_path, ',x,y,z\np,1e-300,"2",3\nq,1e300,5,6\n')
    assert (done.returncode, done.stderr) == (0, "")
    W = np.array([[1e-300, 2.0, 3.0], [1e300, 5.0, 6.0]])
    a, _ = reference.eig_perron((1.0 / W.T) @ W)
    scores = {entry["label"]: entry["score"] for entry in _strict_json(done.stdout)["a"]}
    assert [scores[label] for label in "xyz"] == pytest.approx(a, abs=1e-12)


def test_necs_refuses_ratings_that_are_not_positive(capsys, tmp_path):
    # A 6-cycle with one edge of 1e-300 has rho = 1e-50, far below the
    # rounding level of its other products; the solve ends with a negative
    # rating.
    M = np.roll(np.eye(6), 1, axis=0)
    M[1, 0] = 1e-300
    path = tmp_path / "cycle.csv"
    path.write_text(
        "," + ",".join(f"v{i}" for i in range(6)) + "\n"
        + "".join(f"v{i}," + ",".join(map(repr, row.tolist())) + "\n" for i, row in enumerate(M))
    )
    code, out, err = run_cli(capsys, "necs", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "bicentral: computed ratings are not strictly positive; the input "
        "violates the solver's hypotheses\n"
    )


@pytest.mark.filterwarnings("error")
def test_baseline_of_lines_whose_sums_overflow(capsys, tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(",x,y\np,1e308,1e308\nq,1e308,1e308\n")
    code, out, err = run_cli(capsys, "baseline", "--matrix", str(path))
    assert (code, err) == (0, "")
    for entries in _strict_json(out).values():
        assert [(e["score"], e["rank"], e["tied"]) for e in entries] == [(1e308, 1, True)] * 2


def _construct_reverse(capsys, tmp_path, matrix_text, target_text):
    """construct-reverse on a matrix CSV and a target; (code, out, err)."""
    matrix = tmp_path / "w.csv"
    matrix.write_text(matrix_text)
    target = tmp_path / "target.txt"
    target.write_text(target_text)
    return run_cli(
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e", [200, -200])
def test_construct_reverse_beyond_the_square_range(capsys, tmp_path, e):
    # ||W t|| is about 4.8 * 10^e, so its square leaves the double range.
    summaries = []
    for scale in (1.0, 10.0**e):
        text = f",a1,a2\nb1,{2 * scale!r},{3 * scale!r}\nb2,{4 * scale!r},{1 * scale!r}\n"
        code, out, err = _construct_reverse(capsys, tmp_path, text, "0.6\n0.8\n")
        assert (code, err) == (0, "")
        summaries.append(_strict_json(out))
    unscaled, scaled = summaries
    assert scaled["mu"] == pytest.approx(unscaled["mu"] * 10.0**e, rel=1e-11)
    assert scaled["lambda"] == pytest.approx(unscaled["lambda"] / 10.0**e, rel=1e-11)


@pytest.mark.filterwarnings("error")
def test_construct_reverse_when_the_sum_of_w_t_overflows(capsys, tmp_path):
    # sum(W t) is about 2.0e308 while ||W t|| is 1.4e308: the reverse
    # weights, about 3e-309, are still doubles, and rate t back.
    text = ",a1,a2\nb1,7e307,7.2e307\nb2,7.1e307,7.3e307\n"
    code, out, err = _construct_reverse(capsys, tmp_path, text, "0.6\n0.8\n")
    assert (code, err) == (0, "")
    W = np.array([[7e307, 7.2e307], [7.1e307, 7.3e307]])
    mu = np.linalg.norm(W * 1e-300 @ [0.6, 0.8]) * 1e300
    assert _strict_json(out)["mu"] == pytest.approx(mu)
    table = f"table:{tmp_path / 'phi.tsv'}"
    code, out, err = run_cli(capsys, "nebs", "--matrix", str(tmp_path / "w.csv"), "--phi", table)
    assert (code, err) == (0, "")
    scores = {e["label"]: e["score"] for e in _strict_json(out)["a"]}
    assert [scores["a1"], scores["a2"]] == pytest.approx([0.6, 0.8], abs=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "matrix_text,target_text",
    [
        # 1e-300 / sum(W t), about 1e-331, underflows to 0.
        (",a1,a2\nb1,2e30,3e30\nb2,5e30,1e30\n", "1e-300\n1\n"),
        # 0.6 / sum(W t), about 1e309, overflows.
        (",a1,a2\nb1,2e-310,3e-310\nb2,5e-310,1e-310\n", "0.6\n0.8\n"),
    ],
    ids=["underflow", "overflow"],
)
def test_construct_reverse_refuses_weights_beyond_the_double_range(
    capsys, tmp_path, matrix_text, target_text
):
    code, out, err = _construct_reverse(capsys, tmp_path, matrix_text, target_text)
    assert (code, out) == (2, "")
    assert err == "bicentral: reverse weights t / sum(W t) leave the double range\n"
    assert not (tmp_path / "wprime.csv").exists()


def test_b_side_norm_beyond_the_double_range_is_rated(tmp_path, fixtures_dir):
    # W'(W a) stays finite, but the squared norm of W a overflows. The
    # relation is the worked example times 1e160, whose W'W is unchanged.
    done = _in_fresh_interpreter(tmp_path, ",x,y\np,2e160,3e160\nq,2e160,1e160\n")
    assert (done.returncode, done.stderr) == (0, "")
    got = _strict_json(done.stdout)
    rel = read_matrix_csv((fixtures_dir / "ex51.csv").read_text())
    unscaled = centrality.compute_nebs(rel, core.ReverseTransform.reciprocal())
    for side, labels, ratings in (
        ("a", ("x", "y"), unscaled.a),
        ("b", ("p", "q"), unscaled.b),
    ):
        scores = {entry["label"]: entry["score"] for entry in got[side]}
        assert [scores[label] for label in labels] == pytest.approx(ratings, abs=1e-11)
    assert got["rho"] == pytest.approx(unscaled.rho, rel=1e-11)


def test_degeneracy_check_on_large_weights_writes_no_warning(tmp_path):
    # The row sums of W W' overflow; the verdict is taken on W scaled by a
    # power of two instead.
    done = _in_fresh_interpreter(
        tmp_path, ",x,y\np,1e200,1\nq,2,3\n", command="check", phi="identity"
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert _strict_json(done.stdout)["warnings"] == []


def _in_fresh_interpreter(tmp_path, text, command="nebs", phi="reciprocal"):
    """``command --phi phi`` on the matrix CSV ``text``, run in a fresh
    interpreter that shows every warning."""
    matrix = tmp_path / "w.csv"
    matrix.write_text(text)
    src = str(Path(bicentral.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [
            sys.executable,
            "-W",
            "default",
            "-c",
            "import sys; from bicentral.cli import main; sys.exit(main(sys.argv[1:]))",
            command,
            "--matrix",
            str(matrix),
            "--phi",
            phi,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def _strict_json(text):
    """``json.loads`` that refuses the non-standard NaN and Infinity."""

    def refuse(constant):
        raise ValueError(f"report holds {constant}")

    return json.loads(text, parse_constant=refuse)


def test_exit_three_when_budget_too_small(capsys, tmp_path):
    # Two products span a plane, so they cannot finish a solve on R^3 (the
    # 2x2 worked example is exact after two).
    path = tmp_path / "w.csv"
    path.write_text(",a1,a2,a3\nb1,1,2,3\nb2,4,1,2\nb3,2,5,1\n")
    code, _, err = run_cli(
        capsys, "nebs", "--matrix", str(path), "--phi", "reciprocal", "--max-iter", "2"
    )
    assert code == 3
    assert err.startswith("bicentral: no convergence after 2 iterations")


def test_phi_parameter_takes_fractions(capsys, fixtures_dir):
    matrix = str(fixtures_dir / "ex51.csv")
    fraction = run_cli(capsys, "nebs", "--matrix", matrix, "--phi", "scale:1/3")
    decimal = run_cli(
        capsys, "nebs", "--matrix", matrix, "--phi", "scale:0.3333333333333333"
    )
    assert fraction == decimal
    assert fraction[0] == 0


@pytest.mark.parametrize(
    "spec,reason",
    [
        ("scale:abc", "bad number 'abc'"),
        ("power:1/0", "bad fraction '1/0'"),
        ("scale:1e400", "non-finite value '1e400'"),
        ("scale:-1", "scale transform requires a positive finite gamma"),
        ("scale:", "bad number ''"),
        ("table:", "empty table path"),
    ],
)
def test_bad_phi_parameter_names_the_reason(capsys, fixtures_dir, spec, reason):
    code, out, err = run_cli(
        capsys, "nebs", "--matrix", str(fixtures_dir / "ex51.csv"), "--phi", spec
    )
    assert (code, out) == (1, "")
    assert err == (
        f"bicentral: parse error: line 0, column 0: bad transform {spec!r}: {reason}\n"
    )


@pytest.mark.parametrize("spec", ["identity:x", "bogus", "table:none.tsv"])
def test_unknown_phi_and_missing_table_keep_their_messages(
    capsys, fixtures_dir, monkeypatch, tmp_path, spec
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "nebs", "--matrix", str(fixtures_dir / "ex51.csv"), "--phi", spec
    )
    assert (code, out) == (1, "")
    assert err == (
        "bicentral: error: [Errno 2] No such file or directory: 'none.tsv'\n"
        if spec.startswith("table:")
        else f"bicentral: parse error: line 0, column 0: unknown transform {spec!r}\n"
    )


@pytest.mark.parametrize(
    "spec", ["table:", "scale:", "scale:abc", "identity:x", "bogus", "table:none.tsv"]
)
def test_check_refuses_a_bad_phi_as_nebs_does(
    capsys, fixtures_dir, monkeypatch, tmp_path, spec
):
    monkeypatch.chdir(tmp_path)
    args = ("--matrix", str(fixtures_dir / "ex51.csv"), "--phi", spec)
    nebs = run_cli(capsys, "nebs", *args)
    assert nebs[:2] == (1, "")
    assert run_cli(capsys, "check", *args) == nebs


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-10"])
def test_tolerance_must_be_positive_and_finite(capsys, fixtures_dir, tol):
    code, out, err = run_cli(
        capsys,
        "nebs",
        "--matrix",
        str(fixtures_dir / "ex51.csv"),
        "--phi",
        "reciprocal",
        f"--tol={tol}",
    )
    assert (code, out) == (1, "")
    assert err == "bicentral: error: tolerance must be positive and finite\n"


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


@pytest.mark.parametrize("label", ["b\t1", "b\n1"], ids=ascii)
@pytest.mark.parametrize(
    "command",
    [("nebs", "--phi", "identity"), ("baseline",)],
    ids=["nebs", "baseline"],
)
def test_tsv_refuses_a_label_with_a_tab_or_line_break(capsys, tmp_path, command, label):
    path = tmp_path / "m.csv"
    path.write_text(f',a1,a2\n"{label}",2,3\nb2,2,1\n', encoding="utf-8")
    side = "b" if command[0] == "nebs" else "b_bar"
    code, out, err = run_cli(capsys, *command, "--matrix", str(path), "--format", "tsv")
    assert (code, out) == (1, "")
    assert err == (
        f"bicentral: error: {side} label {label!r} would break its TSV row\n"
    )
    code, out, _ = run_cli(capsys, *command, "--matrix", str(path), "--format", "json")
    assert code == 0
    assert [entry["label"] for entry in json.loads(out)[side]].count(label) == 1


def test_warnings_do_not_change_exit_code(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "nebs", "--matrix", str(fixtures_dir / "latin.csv"), "--phi", "identity"
    )
    assert code == 0
    assert json.loads(out)["warnings"]


def test_small_weights_report_no_degeneracy(capsys, tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(",a1,a2,a3\nb1,2e-6,3e-6,1e-6\nb2,2e-6,1e-6,5e-6\n")
    for command in ("nebs", "check"):
        code, out, _ = run_cli(capsys, command, "--matrix", str(path), "--phi", "identity")
        assert code == 0
        assert json.loads(out)["warnings"] == []


def _error_classes(cls=errors.BicentralError):
    """Every subclass of ``cls`` that the package defines."""
    for sub in cls.__subclasses__():
        if sub.__module__ == errors.__name__:
            yield sub
        yield from _error_classes(sub)


def _exit_of(cls):
    """An instance of the error class and the exit code and stderr it gets."""
    if issubclass(cls, errors.ParseError):
        exc = cls(3, 4, "stubbed")
        return exc, 1, f"bicentral: parse error: {exc}\n"
    if issubclass(cls, errors.NoConvergence):
        exc = cls(7, 0.5)
        return exc, 3, f"bicentral: {exc}\n"
    exc = cls("stubbed")
    return exc, 2, "bicentral: stubbed\n"


@pytest.mark.parametrize(
    "cls", sorted(set(_error_classes()), key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_exit_code_follows_the_error_class(capsys, monkeypatch, fixtures_dir, cls):
    exc, want_code, want_err = _exit_of(cls)

    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "check", fail)
    code, out, err = run_cli(
        capsys, "check", "--matrix", str(fixtures_dir / "ex51.csv"), "--phi", "identity"
    )
    assert (code, out, err) == (want_code, "", want_err)


def _reference_output(command, rel, fmt):
    """What a report command prints, from the library and the reference
    serializers; raises what the library raises."""
    name = command[0]
    if name == "nebs":
        result = centrality.compute_nebs(rel, _parse_transform(command[2]))
        tables = {
            "a": reference.rank(result.a, rel.a_labels, 1e-9),
            "b": reference.rank(result.b, rel.b_labels, 1e-9),
        }
    elif name == "necs":
        if set(rel.a_labels) != set(rel.b_labels):
            raise errors.ParseError(0, 0, "labels differ")
        row_of = {label: i for i, label in enumerate(rel.b_labels)}
        adjacency = rel.weights[[row_of[label] for label in rel.a_labels], :]
        result = centrality.compute_necs(adjacency)
        tables = {"c": reference.rank(result.c, rel.a_labels, 1e-9)}
    else:
        base = centrality.baseline_averages(rel)
        tables = {
            "a_bar": reference.rank(base.a_bar, rel.a_labels, 1e-9),
            "b_bar": reference.rank(base.b_bar, rel.b_labels, 1e-9),
        }
        if fmt == "json":
            return reference.baseline_json(tables)
    if fmt == "tsv":
        return reference.tables_tsv(tables)
    return reference.report_json(result, tables)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize(
    "command",
    [
        ("nebs", "--phi", "reciprocal"),
        ("nebs", "--phi", "identity"),
        ("necs",),
        ("baseline",),
    ],
    ids=["nebs-reciprocal", "nebs-identity", "necs", "baseline"],
)
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_report_bytes_match_reference_on_every_fixture(
    capsys, fixtures_dir, fixture, command, fmt
):
    path = fixtures_dir / fixture
    edges = path.suffix == ".tsv"
    rel = (read_edge_list if edges else read_matrix_csv)(path.read_text())
    source = "--edges" if edges else "--matrix"
    code, out, err = run_cli(capsys, *command, source, str(path), "--format", fmt)
    try:
        expected = _reference_output(command, rel, fmt)
    except errors.BicentralError:
        assert code in (1, 2) and out == "" and err.startswith("bicentral: ")
    else:
        assert (code, out, err) == (0, expected, "")


#: Made relations of test_every_report_is_strict_json, each named with the
#: power of ten it is scaled by: the 2x3 worked example (under reciprocal
#: its W'W is the same for every scale), a matrix whose line sums overflow,
#: and a relation with distinct weights for construct-reverse. Each command
#: that must rate a relation is named with it.
_MADE = {
    "scaled": ([[2, 3, 1], [2, 1, 4]], "reciprocal"),
    "ones": ([[1, 1], [1, 1]], "baseline"),
    "distinct": ([[2, 3], [4, 1]], "construct-reverse"),
}
_MADE_SOURCES = [f"scaled-1e{e}" for e in (-300, -170, -160, 154, 200, 300)] + [
    "ones-1e308",
    "distinct-1e200",
    "distinct-1e-200",
]


@pytest.mark.parametrize(
    "command",
    [
        ("nebs", "--phi", "reciprocal"),
        ("nebs", "--phi", "identity"),
        ("necs",),
        ("baseline",),
        ("check", "--phi", "reciprocal"),
        ("check", "--phi", "identity"),
        ("construct-reverse",),
    ],
    ids=lambda command: "-".join(command[::2]),
)
@pytest.mark.parametrize("source", FIXTURE_NAMES + _MADE_SOURCES)
def test_every_report_is_strict_json(capsys, fixtures_dir, tmp_path, source, command):
    if source in _MADE_SOURCES:
        made, _, exponent = source.partition("-1e")
        rows, rated_by = _MADE[made]
        scale = float(f"1e{exponent}")
        path = tmp_path / "made.csv"
        path.write_text(
            ",".join(["", *"xyz"[: len(rows[0])]]) + "\n"
            + "".join(
                ",".join([label, *(repr(v * scale) for v in row)]) + "\n"
                for label, row in zip("pq", rows)
            )
        )
    else:
        path = fixtures_dir / source
    flag = "--edges" if path.suffix == ".tsv" else "--matrix"
    argv = [*command, flag, str(path)]
    if command[0] == "construct-reverse":
        target = tmp_path / "target.txt"
        target.write_text("0.6\n0.8\n")
        argv += ["--target", str(target)]
        argv += ["--out-matrix", str(tmp_path / "wprime.csv")]
        argv += ["--out-phi", str(tmp_path / "phi.tsv")]
    code, out, _ = run_cli(capsys, *argv)
    if out:
        _strict_json(out)
    if source in _MADE_SOURCES and command[-1] == rated_by:
        assert code == 0


def test_nan_tie_tol_exits_one(capsys, fixtures_dir):
    code, out, err = run_cli(
        capsys,
        "nebs",
        "--matrix",
        str(fixtures_dir / "ex51.csv"),
        "--phi",
        "reciprocal",
        "--tie-tol",
        "nan",
    )
    assert (code, out) == (1, "")
    assert err == "bicentral: error: tie_tol must be nonnegative\n"


@pytest.mark.parametrize("command", ["nebs", "necs"])
def test_flag_defaults_come_from_the_library(command):
    argv = [command, "--matrix", "m.csv"]
    if command == "nebs":
        argv += ["--phi", "identity"]
    args = cli._build_parser().parse_args(argv)
    defaults = bicentral.PowerSettings()
    assert args.tol == defaults.tolerance
    assert args.max_iter == defaults.max_iterations
    assert args.tie_tol == centrality.DEFAULT_TIE_TOL
