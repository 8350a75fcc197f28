import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicentral import (
    PowerSettings,
    errors,
    is_irreducible,
    power_iterate,
)
from bicentral.spectral import _perron_krylov, _relation_facts
from tests.reference import (
    OracleFailure,
    dominant_eigenpair_oracle,
    has_equal_row_sums,
    period,
)
from tests.conftest import EX51_B, EX51_RHO

#: Strongly connected with period 2: its eigenvalues of largest modulus are
#: +-3.873, and the Perron vector is [0.447, 0.447, 0.346, 0.693].
PERIODIC_4X4 = np.array(
    [[0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 3.0, 1.0], [2.0, 1.0, 0.0, 0.0], [1.0, 5.0, 0.0, 0.0]]
)


def brute_force_irreducible(pattern: np.ndarray) -> bool:
    """Reducible iff some proper nonempty vertex subset has no incoming
    edges from its complement (edge j -> i iff pattern[i, j])."""
    k = pattern.shape[0]
    if k == 1:
        return True
    vertices = range(k)
    for size in range(1, k):
        for subset in itertools.combinations(vertices, size):
            inside = set(subset)
            outside = [v for v in vertices if v not in inside]
            if not any(pattern[i, j] for i in inside for j in outside):
                return False
    return True


def brute_force_products_irreducible(weights: np.ndarray) -> bool:
    """Whether W W' and W' W, formed from the 0/1 pattern of W so that no
    product underflows, are both irreducible by brute force. That counts any
    1x1 product irreducible, so a relation must also relate some pair; a
    larger one that relates none has a zero product of order 2 or more."""
    P = (np.asarray(weights) != 0).astype(np.int64)
    return (
        bool(P.any())
        and brute_force_irreducible(P @ P.T > 0)
        and brute_force_irreducible(P.T @ P > 0)
    )


def brute_force_period(pattern: np.ndarray) -> int:
    """gcd of the lengths k <= n for which diag(P^k) has a nonzero entry
    (edge j -> i iff pattern[i, j]); 0 when there is none."""
    k = pattern.shape[0]
    step = pattern.astype(np.int64)
    walks = np.eye(k, dtype=np.int64)
    lengths = []
    for length in range(1, k + 1):
        walks = np.minimum(walks @ step, 1)
        if walks.diagonal().any():
            lengths.append(length)
    return math.gcd(*lengths)


class TestPowerIterate:
    def test_symmetric_rank_one(self):
        v, lam, report = power_iterate(np.ones((2, 2)))
        np.testing.assert_allclose(v, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert lam == pytest.approx(2.0, abs=1e-10)
        assert report.final_residual <= report.tolerance

    def test_worked_product_matrix(self):
        M = np.array([[2.0, 4.0], [4.0 / 3.0, 2.0]])
        v, lam, _ = power_iterate(M)
        assert lam == pytest.approx(EX51_RHO, abs=1e-9)
        np.testing.assert_allclose(v, EX51_B, atol=1e-9)

    def test_matches_oracle_on_random_positive(self):
        rng = np.random.default_rng(3)
        M = rng.uniform(0.1, 2.0, (4, 4))
        v, lam, _ = power_iterate(M)
        v_oracle, lam_oracle = dominant_eigenpair_oracle(M)
        assert lam == pytest.approx(lam_oracle, rel=1e-8)
        np.testing.assert_allclose(v, v_oracle, atol=1e-8)

    def test_matrix_scaling_scales_eigenvalue_only(self):
        rng = np.random.default_rng(5)
        M = rng.uniform(0.1, 2.0, (4, 4))
        v1, lam1, _ = power_iterate(M)
        v2, lam2, _ = power_iterate(4.5 * M)
        np.testing.assert_allclose(v1, v2, atol=1e-9)
        assert lam2 == pytest.approx(4.5 * lam1, rel=1e-9)

    def test_residual_contract(self):
        rng = np.random.default_rng(6)
        M = rng.uniform(0.1, 2.0, (6, 6))
        settings = PowerSettings(tolerance=1e-11)
        v, lam, _ = power_iterate(M, settings)
        k = M.shape[0]
        assert np.linalg.norm(M @ v - lam * v) <= k * settings.tolerance * lam

    def test_periodic_pattern_at_loose_tolerance(self):
        M = np.array([[0.0, 2.0], [1.0, 0.0]])
        v, lam, report = power_iterate(M, PowerSettings(tolerance=0.05, max_iterations=400))
        truth = np.array([np.sqrt(2.0), 1.0])
        truth /= np.linalg.norm(truth)
        np.testing.assert_allclose(v, truth, atol=0.1)
        assert lam == pytest.approx(np.sqrt(2.0), abs=0.1)

    @pytest.mark.parametrize(
        "M", [np.array([[0.0, 2.0], [1.0, 0.0]]), PERIODIC_4X4], ids=["2x2", "4x4"]
    )
    def test_periodic_pattern_converges_at_tight_tolerance(self, M):
        tol = 1e-10
        v, lam, _ = power_iterate(M, PowerSettings(tolerance=tol, max_iterations=2000))
        values, vectors = np.linalg.eig(M)
        top = np.argmax(values.real)
        rho = values[top].real
        perron = np.abs(vectors[:, top].real)
        perron /= np.linalg.norm(perron)
        assert abs(lam - rho) <= 10 * tol * rho
        assert np.abs(v - perron).max() <= 10 * tol

    def test_zero_row_collapse_raises_zero_vector(self):
        # Nilpotent: the kernel collapses on it, and the gate refuses it
        # before the kernel runs.
        M = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(errors.ZeroVector):
            _perron_krylov(M.dot, 2, None)
        with pytest.raises(errors.NotIrreducible):
            power_iterate(M)

    def test_rejects_non_square_and_negative(self):
        with pytest.raises(errors.DimensionMismatch):
            power_iterate(np.ones((2, 3)))
        with pytest.raises(ValueError):
            power_iterate(np.array([[1.0, -0.5], [0.5, 1.0]]))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            PowerSettings(tolerance=0.0)
        with pytest.raises(ValueError):
            PowerSettings(max_iterations=0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be positive and finite$"):
            PowerSettings(tolerance=tol)

    @pytest.mark.parametrize("budget", [3.5, "4"])
    def test_budget_must_be_an_integer(self, budget):
        # The kernel stops on products == budget, so 3.5 would never stop it.
        with pytest.raises(TypeError):
            PowerSettings(max_iterations=budget)

    def test_budget_is_enforced(self):
        M = np.random.default_rng(8).uniform(0.1, 2.0, (30, 30))
        with pytest.raises(errors.NoConvergence) as got:
            power_iterate(M, PowerSettings(tolerance=1e-14, max_iterations=np.int64(3)))
        assert got.value.iterations == 3

    def test_rate_estimate_in_unit_interval_when_present(self):
        rng = np.random.default_rng(11)
        M = rng.uniform(0.1, 1.0, (8, 8)) + np.diag(rng.uniform(5.0, 6.0, 8))
        _, _, report = power_iterate(M, PowerSettings(tolerance=1e-13))
        # Eight products span R^8, so the final Ritz values are M's spectrum.
        assert report.iterations == 8
        moduli = np.sort(np.abs(np.linalg.eigvals(M)))
        assert report.rate_estimate == pytest.approx(moduli[-2] / moduli[-1], rel=1e-9)
        assert 0.0 < report.rate_estimate < 1.0
        assert report.residual_trace[-1] == report.final_residual <= report.tolerance


class TestOracle:
    def test_worked_product_matrix(self):
        v, lam = dominant_eigenpair_oracle(np.array([[2.0, 4.0], [4.0 / 3.0, 2.0]]))
        # quadratic formula on x^2 - 4x + (4 - 16/3)
        assert lam == pytest.approx(2.0 + 4.0 / np.sqrt(3.0), rel=1e-12)
        np.testing.assert_allclose(v, EX51_B, atol=1e-10)

    @pytest.mark.parametrize("c", [0.3, 1.0, 42.0])
    def test_single_cell(self, c):
        v, lam = dominant_eigenpair_oracle(np.array([[c]]))
        assert lam == pytest.approx(c, rel=1e-14)
        np.testing.assert_allclose(v, [1.0])

    def test_permutation_pattern(self):
        v, lam = dominant_eigenpair_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(v, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_nilpotent_has_no_positive_root(self):
        with pytest.raises(OracleFailure):
            dominant_eigenpair_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_size_limit(self):
        with pytest.raises(errors.DimensionMismatch):
            dominant_eigenpair_oracle(np.ones((7, 7)))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_agrees_with_power_iterate_on_positive_matrices(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(10):
            M = rng.uniform(0.1, 2.0, (k, k))
            v_pow, lam_pow, _ = power_iterate(M, PowerSettings(tolerance=1e-12))
            v_orc, lam_orc = dominant_eigenpair_oracle(M)
            assert abs(lam_pow - lam_orc) <= 1e-8 * (1.0 + lam_orc)
            np.testing.assert_allclose(v_pow, v_orc, atol=1e-6)


class TestIsIrreducible:
    def test_two_cycle(self):
        assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_block_triangular(self):
        assert not is_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_positive_products_are_irreducible(self):
        rng = np.random.default_rng(12)
        W = rng.uniform(0.1, 2.0, (3, 5))
        Wp = rng.uniform(0.1, 2.0, (5, 3))
        assert is_irreducible(W @ Wp)
        assert is_irreducible(Wp @ W)

    def test_single_vertex(self):
        assert is_irreducible(np.array([[0.0]]))
        assert is_irreducible(np.array([[2.0]]))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_agrees_with_brute_force(self, k):
        rng = np.random.default_rng(200 + k)
        for _ in range(120):
            pattern = rng.random((k, k)) < rng.uniform(0.15, 0.85)
            assert is_irreducible(pattern.astype(float)) == brute_force_irreducible(
                pattern
            )


@st.composite
def class_stepping_patterns(draw):
    """A k x k pattern, k in 1-7, restricted to edges from class c to class
    c + 1 (mod p) for vertex classes 0, 1, ..., p-1, 0, 1, ...; p = 1 allows
    every edge. Half of them also get the edges 0 -> 1 -> ... -> k-1 -> 0
    that keep to the classes."""
    k = draw(st.integers(1, 7))
    pattern = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)))
    pattern = pattern.reshape(k, k)
    if draw(st.booleans()):
        pattern[(np.arange(k) + 1) % k, np.arange(k)] = True
    p = draw(st.integers(1, 4))
    classes = np.arange(k) % p
    return pattern & (classes[:, None] == (classes[None, :] + 1) % p)


class TestPeriod:
    """The reference power loop shifts periodic patterns, so its ground truth
    rests on :func:`tests.reference.period`."""

    @settings(max_examples=300, deadline=None)
    @given(class_stepping_patterns())
    def test_matches_brute_force_on_irreducible_patterns(self, pattern):
        assume(brute_force_irreducible(pattern))
        assert period(pattern.astype(float)) == brute_force_period(pattern)

    def test_known_periods(self):
        assert period(PERIODIC_4X4) == 2
        assert period(np.roll(np.eye(5), 1, axis=0)) == 5
        assert period(np.ones((3, 3))) == 1


@st.composite
def bipartite_patterns(draw):
    """A 0/1 weight pattern W of shape 1-6 x 1-6."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    W = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    return W.reshape(m, n).astype(float)


def _products_irreducible(W: np.ndarray) -> bool:
    """The irreducibility verdict of the relation facts of W's pattern."""
    return _relation_facts(W != 0)[3]


class TestProductsIrreducible:
    @settings(max_examples=300, deadline=None)
    @given(bipartite_patterns())
    def test_matches_brute_force_on_both_products(self, W):
        assert _products_irreducible(W) == brute_force_products_irreducible(W)

    @pytest.mark.parametrize("weight, expected", [(0.0, False), (2.0, True)])
    def test_single_cell_needs_a_nonzero_weight(self, weight, expected):
        # The 1x1 products are "irreducible" whatever their entry; the
        # bipartite criterion also asks for the one pair to be related.
        assert _products_irreducible(np.array([[weight]])) is expected

    def test_block_diagonal_rejected(self):
        assert not _products_irreducible(np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestHasEqualRowSums:
    def test_latin_square_product(self):
        assert has_equal_row_sums(np.array([[5.0, 4.0], [4.0, 5.0]]), tol=1e-12)

    def test_worked_product_matrix(self):
        assert not has_equal_row_sums(
            np.array([[2.0, 4.0], [4.0 / 3.0, 2.0]]), tol=1e-12
        )

    def test_single_cell(self):
        assert has_equal_row_sums(np.array([[1.0]]), tol=1e-300)

    def test_requires_square(self):
        with pytest.raises(errors.DimensionMismatch):
            has_equal_row_sums(np.ones((2, 3)), tol=1e-9)
