"""The package's iteration kernels against their plain reference versions.

The lean loops must reproduce the reference bit for bit: same iterates,
same residual trace, same iteration count and rate estimate, and the same
failure at the same step.
"""

import numpy as np
import pytest

from bicentral import (
    PowerSettings,
    ReverseTransform,
    WeightRelation,
    alternating_iterate,
    errors,
    power_iterate,
    reverse_matrix,
)
from bicentral import spectral
from tests import reference
from tests.conftest import ALL_SIMPLE_TRANSFORMS


def _random_relation(rng: np.random.Generator) -> np.ndarray:
    """Positive, sparse-but-connected, or slowly converging block weights."""
    m, n = (int(x) for x in rng.integers(1, 13, size=2))
    kind = rng.integers(3)
    W = rng.uniform(0.2, 3.0, (m, n))
    if kind == 1:
        W *= rng.random((m, n)) < 0.5
        # A staircase keeps every row and column related.
        for i in range(max(m, n)):
            W[i % m, i % n] = rng.uniform(0.2, 3.0)
    elif kind == 2 and m > 1 and n > 1:
        # Two blocks coupled weakly: a small spectral gap, long traces.
        W[: m // 2, n // 2 :] *= 1e-3
        W[m // 2 :, : n // 2] *= 1e-3
    return W


def _assert_same_solve(got, want):
    a, b, report = got
    a_ref, b_ref, report_ref = want
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b, b_ref)
    # Dataclass equality covers the residual trace and the rate estimate.
    assert report == report_ref


class TestAlternatingIterateBitIdentity:
    def test_random_relations(self):
        rng = np.random.default_rng(2024)
        for case in range(120):
            W = _random_relation(rng)
            transform = ALL_SIMPLE_TRANSFORMS[case % len(ALL_SIMPLE_TRANSFORMS)]
            if transform.requires_all_positive() and not W.min() > 0:
                transform = ReverseTransform.identity()
            m, n = W.shape
            rel = WeightRelation(
                tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), W
            )
            Wp = reverse_matrix(rel, transform)
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_same_solve(
                alternating_iterate(W, Wp, settings),
                reference.alternating_iterate(W, Wp, settings),
            )

    def test_initial_vector(self):
        rng = np.random.default_rng(7)
        W = rng.uniform(0.2, 3.0, (5, 4))
        settings = PowerSettings(initial_vector=rng.uniform(0.1, 1.0, 4))
        _assert_same_solve(
            alternating_iterate(W, 1.0 / W.T, settings),
            reference.alternating_iterate(W, 1.0 / W.T, settings),
        )

    def test_budget_exhaustion_reports_the_same_step(self):
        W = np.array([[1.0, 1e-3], [1e-3, 0.97]])
        settings = PowerSettings(tolerance=1e-14, max_iterations=25)
        with pytest.raises(errors.NoConvergence) as got:
            alternating_iterate(W, W.T, settings)
        with pytest.raises(errors.NoConvergence) as want:
            reference.alternating_iterate(W, W.T, settings)
        assert got.value.iterations == want.value.iterations == 25
        assert got.value.final_residual == want.value.final_residual

    def test_zero_collapse_raises(self):
        W = np.array([[1.0, 0.0], [0.0, 0.0]])
        Wp = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(errors.ZeroVector):
            alternating_iterate(W, Wp)
        with pytest.raises(errors.ZeroVector):
            reference.alternating_iterate(W, Wp)


@pytest.fixture
def reference_power_iterate(monkeypatch):
    """power_iterate driven by the reference loop."""

    def run(matrix, settings):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_power_loop", reference.power_loop)
            return power_iterate(matrix, settings)

    return run


class TestPowerLoopBitIdentity:
    def test_random_matrices(self, reference_power_iterate):
        rng = np.random.default_rng(99)
        for _ in range(80):
            k = int(rng.integers(1, 13))
            M = rng.uniform(0.1, 2.0, (k, k))
            M *= rng.random((k, k)) < rng.uniform(0.3, 1.0)
            M[np.arange(k), (np.arange(k) + 1) % k] += 0.5
            M[0, 0] += 0.5
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            v, eigenvalue, report = power_iterate(M, settings)
            v_ref, eigenvalue_ref, report_ref = reference_power_iterate(M, settings)
            assert np.array_equal(v, v_ref)
            assert eigenvalue == eigenvalue_ref
            assert report == report_ref

    def test_shifted_path(self, reference_power_iterate):
        M = np.array([[0.0, 2.0], [1.0, 0.0]])
        settings = PowerSettings(tolerance=0.05, max_iterations=400)
        v, eigenvalue, report = power_iterate(M, settings)
        v_ref, eigenvalue_ref, report_ref = reference_power_iterate(M, settings)
        assert report.shifted and report_ref.shifted
        assert np.array_equal(v, v_ref)
        assert eigenvalue == eigenvalue_ref
        assert report == report_ref
