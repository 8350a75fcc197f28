"""Acceptance suite: each test is one numbered criterion with its stated
tolerance, and prints a pass line when it holds (run with -s to see them).
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from bicentral import (
    PowerSettings,
    ReverseTransform,
    WeightRelation,
    baseline_averages,
    compute_nebs,
    compute_necs,
    construct_reverse_for_target,
    errors,
    is_irreducible,
    rank,
    read_matrix_csv,
    reverse_matrix,
)
from tests.conftest import ALL_SIMPLE_TRANSFORMS, random_positive_relation
from tests.reference import dominant_eigenpair_oracle
from tests.test_spectral import brute_force_irreducible


def _passed(number: int, detail: str) -> None:
    print(f"acceptance criterion {number}: PASS ({detail})")


def test_criterion_01_worked_example_reproduction(fixtures_dir):
    rel = read_matrix_csv((fixtures_dir / "ex51.csv").read_text())
    reciprocal = ReverseTransform.reciprocal()

    product = rel.weights @ reverse_matrix(rel, reciprocal)
    expected_product = np.array(
        [[2.0, 4.0], [float(Fraction(4, 3)), 2.0]]
    )
    np.testing.assert_array_equal(product, expected_product)

    compute_nebs(rel, reciprocal)  # warm-up so timing excludes first-call costs
    elapsed = min(
        _timed(lambda: compute_nebs(rel, reciprocal)) for _ in range(3)
    )
    result = compute_nebs(rel, reciprocal)
    np.testing.assert_allclose(result.a, [0.654654, 0.755929], atol=1e-5)
    np.testing.assert_allclose(result.b, [0.866025, 0.500000], atol=1e-5)
    assert elapsed < 0.010, f"solve took {elapsed * 1e3:.2f} ms"
    _passed(1, f"exact product, ratings to 1e-5, {elapsed * 1e3:.2f} ms")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_baseline_tie(fixtures_dir):
    rel = read_matrix_csv((fixtures_dir / "ex51.csv").read_text())
    base = baseline_averages(rel)
    assert base.a_bar.tolist() == [2.0, 2.0]
    assert base.b_bar.tolist() == [2.5, 1.5]
    baseline_table = rank(base.a_bar, rel.a_labels, tie_tol=1e-9)
    assert baseline_table.tied.any()

    result = compute_nebs(rel, ReverseTransform.reciprocal())
    rating_table = rank(result.a, rel.a_labels, tie_tol=1e-9)
    assert not rating_table.tied.any()
    _passed(2, "exact averages tie on the a side; ratings do not")


def test_criterion_03_fixed_point_residuals():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    for case in range(200):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 21))
        rel = random_positive_relation(rng, m, n)
        for transform in ALL_SIMPLE_TRANSFORMS:
            result = compute_nebs(rel, transform)
            W = rel.weights
            Wp = reverse_matrix(rel, transform)
            assert np.linalg.norm(result.b - result.lambda_ * (W @ result.a)) <= 1e-8
            assert np.linalg.norm(result.a - result.mu * (Wp @ result.b)) <= 1e-8
            assert abs(np.linalg.norm(result.a) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(result.b) - 1.0) <= 1e-12
            assert np.all(result.a > 0) and np.all(result.b > 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"800 solves took {elapsed:.2f} s"
    _passed(3, f"200 relations x 4 transforms in {elapsed:.2f} s")


def test_criterion_04_transform_scaling_invariance():
    rng = np.random.default_rng(1004)
    settings = PowerSettings(tolerance=1e-12)
    for case in range(50):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        rel = random_positive_relation(rng, m, n)
        base = compute_nebs(rel, ReverseTransform.identity(), settings)
        for gamma in (0.1, 7.0, 1000.0):
            scaled = compute_nebs(rel, ReverseTransform.scale(gamma), settings)
            assert np.abs(scaled.a - base.a).max() <= 1e-9
            assert np.abs(scaled.b - base.b).max() <= 1e-9
            assert abs(scaled.rho - gamma * base.rho) <= 1e-9 * gamma * base.rho
    _passed(4, "50 relations x 3 scale factors")


def test_criterion_05_target_construction():
    rng = np.random.default_rng(1005)
    for case in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        W = rng.uniform(0.5, 5.0, (m, n))
        while np.unique(W).size != W.size:
            W = rng.uniform(0.5, 5.0, (m, n))
        target = rng.uniform(0.2, 1.0, n)
        target /= np.linalg.norm(target)
        built = construct_reverse_for_target(W, target)
        residual = np.linalg.norm(built.reverse_weights @ W @ target - target)
        assert residual <= 1e-12

        rel = WeightRelation(
            tuple(f"a{j}" for j in range(n)),
            tuple(f"b{i}" for i in range(m)),
            W,
        )
        result = compute_nebs(rel, built.transform)
        assert np.abs(result.a - target).max() <= 1e-8
    _passed(5, "50 constructions recover their targets")


def _random_irreducible_matrix(rng: np.random.Generator, k: int) -> np.ndarray:
    if k == 1:
        return np.array([[rng.uniform(0.2, 2.0)]])
    density = rng.uniform(0.2, 0.9)
    M = rng.uniform(0.2, 2.0, (k, k)) * (rng.random((k, k)) < density)
    order = rng.permutation(k)
    for i in range(k):
        M[order[(i + 1) % k], order[i]] = rng.uniform(0.2, 2.0)
    # One self-loop keeps the pattern aperiodic, so the power loop converges.
    M[order[0], order[0]] = rng.uniform(0.2, 2.0)
    assert is_irreducible(M)
    return M


def test_criterion_06_power_loop_matches_oracle():
    rng = np.random.default_rng(1006)
    for case in range(100):
        k = int(rng.integers(1, 7))
        M = _random_irreducible_matrix(rng, k)
        result = compute_necs(M, PowerSettings(tolerance=1e-12))
        v_orc, lam_orc = dominant_eigenpair_oracle(M)
        assert abs(result.eigenvalue - lam_orc) <= 1e-8 * max(1.0, lam_orc)
        assert np.abs(result.c - v_orc).max() <= 1e-6
    _passed(6, "100 random irreducible matrices, k <= 6")


def test_criterion_07_degeneracy_detection(fixtures_dir):
    latin = read_matrix_csv((fixtures_dir / "latin.csv").read_text())
    result = compute_nebs(latin, ReverseTransform.identity())
    assert {w.code for w in result.warnings} == {
        "CONSTANT_A_VECTOR",
        "CONSTANT_B_VECTOR",
    }
    assert result.a.max() - result.a.min() <= 1e-10
    assert result.b.max() - result.b.min() <= 1e-10

    worked = read_matrix_csv((fixtures_dir / "ex51.csv").read_text())
    clean = compute_nebs(worked, ReverseTransform.reciprocal())
    assert clean.warnings == ()
    _passed(7, "both constant-vector warnings on the Latin square, none otherwise")


def test_criterion_08_singular_vector_correspondence():
    rng = np.random.default_rng(1008)
    for case in range(50):
        small = int(rng.integers(1, 7))
        large = int(rng.integers(small, 13))
        m, n = (small, large) if rng.random() < 0.5 else (large, small)
        rel = random_positive_relation(rng, m, n)
        W = rel.weights
        result = compute_nebs(
            rel, ReverseTransform.identity(), PowerSettings(tolerance=1e-12)
        )
        if n <= m:
            a_ref, _ = dominant_eigenpair_oracle(W.T @ W)
            b_ref = W @ a_ref
            b_ref /= np.linalg.norm(b_ref)
        else:
            b_ref, _ = dominant_eigenpair_oracle(W @ W.T)
            a_ref = W.T @ b_ref
            a_ref /= np.linalg.norm(a_ref)
        assert np.abs(result.a - a_ref).max() <= 1e-6
        assert np.abs(result.b - b_ref).max() <= 1e-6
    _passed(8, "50 relations match their dominant singular pairs")


def test_criterion_09_irreducibility_oracle():
    for bits in range(2 ** 9):
        pattern = np.array(
            [(bits >> cell) & 1 for cell in range(9)], dtype=float
        ).reshape(3, 3)
        assert is_irreducible(pattern) == brute_force_irreducible(pattern > 0)

    rng = np.random.default_rng(1009)
    for k in (4, 5):
        for case in range(500):
            pattern = (rng.random((k, k)) < rng.uniform(0.1, 0.9)).astype(float)
            assert is_irreducible(pattern) == brute_force_irreducible(pattern > 0)
    _passed(9, "512 exhaustive k=3 patterns, 500 random each for k=4,5")


def test_criterion_10_residual_trace_eventually_monotone(fixtures_dir):
    def trailing_monotone(trace):
        window = trace[-10:]
        return all(later <= earlier for earlier, later in zip(window, window[1:]))

    worked = read_matrix_csv((fixtures_dir / "ex51.csv").read_text())
    latin = read_matrix_csv((fixtures_dir / "latin.csv").read_text())
    cases = [
        (worked, ReverseTransform.reciprocal()),
        (latin, ReverseTransform.identity()),
    ]
    rng = np.random.default_rng(1010)
    for _ in range(10):
        rel = random_positive_relation(
            rng, int(rng.integers(2, 12)), int(rng.integers(2, 12))
        )
        cases.append((rel, ReverseTransform.identity()))
        cases.append((rel, ReverseTransform.reciprocal()))

    for rel, transform in cases:
        result = compute_nebs(rel, transform)
        trace = result.convergence.residual_trace
        assert trace, "expected a recorded residual trace"
        assert trailing_monotone(trace)
    _passed(10, f"{len(cases)} positive-weight runs, last-10 residuals non-increasing")
