"""The package's iteration kernels against their plain reference versions.

The lean loops must reproduce the reference bit for bit: same iterates,
same residual trace, same iteration count and rate estimate, and the same
failure at the same step, on every memory layout of the input. Vectors are
compared as bytes, so a sign flip of a zero counts as a difference.
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


#: The same values in four memory layouts. numpy multiplies the last two
#: with its own loop and the first two with BLAS, which round differently.
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "column-strided": lambda M: np.repeat(M, 2, axis=1)[:, ::2],
    "row-reversed": lambda M: np.ascontiguousarray(M[::-1])[::-1],
}


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_same_solve(got, want):
    a, b, report = got
    a_ref, b_ref, report_ref = want
    _assert_same_bytes(a, a_ref)
    _assert_same_bytes(b, b_ref)
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

    def test_budget_exhaustion_reports_the_same_step(self):
        W = np.array([[1.0, 1e-3], [1e-3, 0.97]])
        settings = PowerSettings(tolerance=1e-14, max_iterations=25)
        with pytest.raises(errors.NoConvergence) as got:
            alternating_iterate(W, W.T, settings)
        with pytest.raises(errors.NoConvergence) as want:
            reference.alternating_iterate(W, W.T, settings)
        assert got.value.iterations == want.value.iterations == 25
        assert got.value.final_residual == want.value.final_residual

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_layouts(self, layout):
        rng = np.random.default_rng(17)
        for _ in range(25):
            W = _random_relation(rng)
            Wp = rng.uniform(0.2, 3.0, W.shape[::-1]) * (W.T > 0)
            W, Wp = LAYOUTS[layout](W), LAYOUTS[layout](Wp)
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_same_solve(
                alternating_iterate(W, Wp, settings),
                reference.alternating_iterate(W, Wp, settings),
            )

    def test_returns_fresh_arrays(self):
        W = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0]])
        a, b, _ = alternating_iterate(W, W.T)
        assert a.base is None and b.base is None

    def test_zero_collapse_raises(self):
        W = np.array([[1.0, 0.0], [0.0, 0.0]])
        Wp = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(errors.ZeroVector):
            alternating_iterate(W, Wp)
        with pytest.raises(errors.ZeroVector):
            reference.alternating_iterate(W, Wp)


def _random_square(rng: np.random.Generator) -> np.ndarray:
    """Nonnegative k x k with a positive cycle through every vertex."""
    k = int(rng.integers(1, 13))
    M = rng.uniform(0.1, 2.0, (k, k))
    M *= rng.random((k, k)) < rng.uniform(0.3, 1.0)
    M[np.arange(k), (np.arange(k) + 1) % k] += 0.5
    M[0, 0] += 0.5
    return M


def _random_periodic(rng: np.random.Generator) -> np.ndarray:
    """Strongly connected pattern whose edges all lead from class c to class
    c + 1 (mod p), so its period is a multiple of p >= 2."""
    p = int(rng.integers(2, 5))
    k = p * int(rng.integers(1, 13 // p + 1))
    classes = np.arange(k) % p
    M = rng.uniform(0.1, 2.0, (k, k)) * (rng.random((k, k)) < rng.uniform(0.3, 1.0))
    M *= classes[:, None] == (classes[None, :] + 1) % p
    # The cycle 0 -> 1 -> ... -> k-1 -> 0 steps through the classes in order.
    M[(np.arange(k) + 1) % k, np.arange(k)] += 0.5
    return M


def _assert_same_power(M, settings):
    v, eigenvalue, report = power_iterate(M, settings)
    v_ref, eigenvalue_ref, report_ref = reference.power_iterate(M, settings)
    _assert_same_bytes(v, v_ref)
    assert eigenvalue == eigenvalue_ref
    assert report == report_ref


def test_power_loop_starts_from_the_normalized_ones_vector():
    # One step on the identity normalizes the start vector itself.
    for k in [*range(1, 65), 999, 1000, 1024]:
        for M in (np.ones((k, k)), np.eye(k)):
            _assert_same_power(M, PowerSettings())


class TestPowerLoopBitIdentity:
    def test_random_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(80):
            M = _random_square(rng)
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_same_power(M, settings)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_layouts(self, layout):
        rng = np.random.default_rng(23)
        for _ in range(25):
            M = LAYOUTS[layout](_random_square(rng))
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_same_power(M, settings)

    def test_shifted_path(self):
        M = np.array([[0.0, 2.0], [1.0, 0.0]])
        _assert_same_power(M, PowerSettings(tolerance=0.05, max_iterations=400))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_periodic_patterns(self, layout):
        rng = np.random.default_rng(31)
        for _ in range(25):
            M = LAYOUTS[layout](_random_periodic(rng))
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_same_power(M, settings)
