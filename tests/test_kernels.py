"""The package's Perron solver against dense eigensolves.

``alternating_iterate`` and ``power_iterate`` run one restarted-Arnoldi
kernel behind their gates. Their ratings must lie within 10 times the tolerance, entry by
entry, of the Perron vector that ``numpy.linalg.eig`` finds for the formed
operator (W'W, or M), on random inputs and on every memory layout of them.
The class names are those of the earlier bit-identity checks against the
plain power loops that these tests replace.
"""

import numpy as np
import pytest

from bicentral import (
    PowerSettings,
    ReverseTransform,
    WeightRelation,
    alternating_iterate,
    errors,
    is_irreducible,
    power_iterate,
    reverse_matrix,
)
from bicentral.spectral import _perron_krylov
from tests.conftest import ALL_SIMPLE_TRANSFORMS
from tests.reference import eig_perron


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


def _assert_accurate(got, want, tol):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.abs(got - want).max() <= 10 * tol


def _assert_accurate_solve(W, Wp, settings):
    a, b, report = alternating_iterate(W, Wp, settings)
    a_ref, _ = eig_perron(Wp @ W)
    b_ref = W @ a_ref
    b_ref /= np.linalg.norm(b_ref)
    _assert_accurate(a, a_ref, settings.tolerance)
    _assert_accurate(b, b_ref, settings.tolerance)
    assert report.final_residual <= settings.tolerance
    assert report.residual_trace[-1] == report.final_residual


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
            _assert_accurate_solve(W, Wp, settings)

    def test_budget_exhaustion_reports_the_same_step(self):
        # Four products cannot span R^12, so the budget runs out; the error
        # carries the residual that an unlimited run checks at product 4.
        rng = np.random.default_rng(5)
        W = rng.uniform(0.2, 3.0, (12, 12))
        W[:6, 6:] *= 1e-3
        W[6:, :6] *= 1e-3
        with pytest.raises(errors.NoConvergence) as got:
            alternating_iterate(W, W.T, PowerSettings(tolerance=1e-14, max_iterations=4))
        _, _, report = alternating_iterate(W, W.T, PowerSettings(tolerance=1e-14))
        assert got.value.iterations == 4 < report.iterations
        # Checks come after products 1, 2 and 4.
        assert got.value.final_residual == report.residual_trace[2] > 1e-14

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_layouts(self, layout):
        rng = np.random.default_rng(17)
        for _ in range(25):
            W = _random_relation(rng)
            Wp = rng.uniform(0.2, 3.0, W.shape[::-1]) * (W.T > 0)
            W, Wp = LAYOUTS[layout](W), LAYOUTS[layout](Wp)
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_accurate_solve(W, Wp, settings)

    def test_returns_fresh_arrays(self):
        W = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0]])
        a, b, _ = alternating_iterate(W, W.T)
        assert a.base is None and b.base is None

    def test_zero_collapse_raises(self):
        cases = [
            # W'W = 0: the first product vanishes.
            ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
            # W'W = [[0, 1], [0, 0]]: nilpotent, both Ritz values are 0.
            ([[0.0, 1.0]], [[1.0], [0.0]]),
        ]
        for W, Wp in cases:
            W, Wp = np.array(W), np.array(Wp)
            # The kernel's own safety checks still catch both operators.
            with pytest.raises(errors.ZeroVector):
                _perron_krylov(lambda x: Wp.dot(W.dot(x)), W.shape[1], None)
            # The gate refuses them first: W' lacks W's pattern transposed,
            # and with W' = W^T the rating products are reducible.
            with pytest.raises(ValueError, match="zero pattern"):
                alternating_iterate(W, Wp)
            with pytest.raises(errors.PreconditionFailed):
                alternating_iterate(W, W.T)


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


def _assert_accurate_power(M, settings):
    v, eigenvalue, report = power_iterate(M, settings)
    v_ref, rho = eig_perron(M)
    tol = settings.tolerance
    _assert_accurate(v, v_ref, tol)
    assert abs(eigenvalue - rho) <= 10 * tol * rho
    assert report.final_residual <= tol


def test_power_loop_starts_from_the_normalized_ones_vector():
    # The start vector is an eigenvector of both, so one product ends the
    # solve on it. eig of the larger all-ones matrices takes seconds; their
    # Perron vector is the normalized ones vector, as for the smaller ones.
    # The identity is reducible from k = 2 on, so power_iterate refuses it
    # and the kernel runs it directly.
    for k in [*range(1, 65), 999, 1000, 1024]:
        start = np.full(k, 1.0 / np.sqrt(k))
        for M in (np.ones((k, k)), np.eye(k)):
            if is_irreducible(M):
                v, eigenvalue, report = power_iterate(M, PowerSettings())
            else:
                with pytest.raises(errors.NotIrreducible):
                    power_iterate(M, PowerSettings())
                v, report = _perron_krylov(M.dot, k, PowerSettings())
                eigenvalue = float(np.linalg.norm(M @ v))
            assert report.iterations == 1
            _assert_accurate(v, start, PowerSettings().tolerance)
            assert eigenvalue == pytest.approx(M.sum(axis=1)[0], rel=1e-12)
        if k <= 64:
            _assert_accurate_power(np.ones((k, k)), PowerSettings())


class TestPowerLoopBitIdentity:
    def test_random_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(80):
            M = _random_square(rng)
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_accurate_power(M, settings)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_layouts(self, layout):
        rng = np.random.default_rng(23)
        for _ in range(25):
            M = LAYOUTS[layout](_random_square(rng))
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_accurate_power(M, settings)

    def test_zero_collapse_raises(self):
        # The first product vanishes; then a nilpotent M, whose Ritz values
        # are both 0. The kernel catches both; power_iterate's gate refuses
        # them first, the zero matrix for its spectral radius 0 and the
        # nilpotent one for its reducible pattern.
        cases = [
            ([[0.0, 0.0], [0.0, 0.0]], errors.NonPositiveEigenvalue),
            ([[0.0, 1.0], [0.0, 0.0]], errors.NotIrreducible),
        ]
        for M, refusal in cases:
            M = np.array(M)
            with pytest.raises(errors.ZeroVector):
                _perron_krylov(M.dot, 2, None)
            with pytest.raises(refusal):
                power_iterate(M)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_periodic_patterns(self, layout):
        rng = np.random.default_rng(31)
        for _ in range(25):
            M = LAYOUTS[layout](_random_periodic(rng))
            settings = PowerSettings(tolerance=10.0 ** -rng.integers(6, 13))
            _assert_accurate_power(M, settings)
