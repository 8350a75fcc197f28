import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bicentral
from bicentral import (
    PowerSettings,
    ReverseTransform,
    compute_nebs,
    detect_degeneracy,
    errors,
    reverse_matrix,
    spectral,
    validate,
)
from tests.conftest import random_positive_relation

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Forming W W' for a 4000-row relation takes 128 MB; every library path
# works from W and W' (96 KB each) and stays far below this.
PRODUCT_FREE_PEAK = 8 * 2**20


def test_public_names_resolve():
    for name in bicentral.__all__:
        assert hasattr(bicentral, name), name


def test_cross_check_helpers_are_not_exported():
    assert not hasattr(bicentral, "dominant_eigenpair_oracle")
    assert not hasattr(spectral, "dominant_eigenpair_oracle")
    assert not hasattr(errors, "OracleFailure")
    assert not hasattr(bicentral.io, "table_payload")


def test_row_view_and_unused_options_are_gone():
    assert "RatingEntry" not in bicentral.__all__
    assert not hasattr(bicentral.centrality, "RatingEntry")
    for name in ("entries", "labels", "has_ties"):
        assert not hasattr(bicentral.RatingTable, name), name
    assert not hasattr(bicentral.WeightRelation, "shape")
    for name in ("initial_vector", "start_vector"):
        assert not hasattr(bicentral.PowerSettings, name), name
    with pytest.raises(TypeError):
        PowerSettings(initial_vector=np.ones(2))
    with pytest.raises(TypeError):
        detect_degeneracy(np.ones((1, 1)), np.ones((1, 1)), tol=1e-9)


def test_one_public_solve_per_problem():
    assert sorted(bicentral.__all__) == [
        "BaselineAverages",
        "ConvergenceReport",
        "Diagnostic",
        "NebsResult",
        "NecsResult",
        "PowerSettings",
        "RatingTable",
        "ReverseConstruction",
        "ReverseTransform",
        "ValidationReport",
        "WeightRelation",
        "baseline_averages",
        "compute_nebs",
        "compute_necs",
        "construct_reverse_for_target",
        "detect_degeneracy",
        "errors",
        "is_irreducible",
        "rank",
        "read_edge_list",
        "read_matrix_csv",
        "read_transform_table",
        "reverse_matrix",
        "validate",
        "write_matrix_csv",
        "write_report",
        "write_transform_table",
    ]


def test_benchmark_harness_solver_names_still_resolve():
    # bench/worker.py imports both by name; neither is in __all__.
    assert bicentral.power_iterate is bicentral.centrality.power_iterate
    assert bicentral.alternating_iterate is bicentral.centrality.alternating_iterate
    c, _, _ = bicentral.power_iterate(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not c.flags.writeable


def test_spectral_holds_no_solve():
    assert not hasattr(spectral, "power_iterate")
    for name in ("NotIrreducible", "NonPositiveEigenvalue"):
        assert f"errors.{name}" not in Path(spectral.__file__).read_text(), name


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_measurement_sees_numpy_buffers():
    assert _peak_bytes(lambda: np.empty(PRODUCT_FREE_PEAK // 4)) > PRODUCT_FREE_PEAK


@pytest.mark.parametrize("shape", [(4000, 3), (3, 4000)])
def test_no_library_path_forms_a_rating_product(shape):
    rel = random_positive_relation(np.random.default_rng(41), *shape)
    Wp = reverse_matrix(rel, ReverseTransform.reciprocal())
    calls = {
        "compute_nebs identity": lambda: compute_nebs(rel, ReverseTransform.identity()),
        "compute_nebs reciprocal": lambda: compute_nebs(
            rel, ReverseTransform.reciprocal()
        ),
        "validate": lambda: validate(rel, ReverseTransform.reciprocal()),
        "detect_degeneracy": lambda: detect_degeneracy(rel.weights, Wp),
        "products_irreducible": lambda: spectral.products_irreducible(rel.weights),
    }
    for name, call in calls.items():
        assert _peak_bytes(call) < PRODUCT_FREE_PEAK, name


def _run_python(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    done = _run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_readme_quick_start_runs_cleanly(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = _run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "('a2', 'a1')" in done.stdout
    assert "[1 2] [False False]" in done.stdout
