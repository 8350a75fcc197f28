"""The package's Perron solver against dense eigensolves.

``alternating_iterate`` and ``power_iterate`` run one restarted-Arnoldi
kernel behind their gates. Their ratings must lie within 10 times the tolerance, entry by
entry, of the Perron vector that ``numpy.linalg.eig`` finds for the formed
operator (W'W, or M), on random inputs and on every memory layout of them.
The class names are those of the earlier bit-identity checks against the
plain power loops that these tests replace.
"""

import math

import numpy as np
import pytest

from bicentral import (
    PowerSettings,
    ReverseTransform,
    WeightRelation,
    alternating_iterate,
    compute_necs,
    compute_nebs,
    errors,
    is_irreducible,
    power_iterate,
    reverse_matrix,
    spectral,
)
from bicentral.spectral import _perron_krylov, _perron_ritz
from tests.conftest import ALL_SIMPLE_TRANSFORMS, LAYOUTS
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
        # The first cycle checks after products 1 and 4.
        assert got.value.final_residual == report.residual_trace[1] > 1e-14

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


def _record_eigensolves(monkeypatch):
    """List that records the order of each matrix passed to the eigensolver."""
    orders = []
    eig = spectral._eig

    def recording(matrix, **kwargs):
        orders.append(len(matrix))
        return eig(matrix, **kwargs)

    monkeypatch.setattr(spectral, "_eig", recording)
    return orders


class TestCheckSchedule:
    def test_first_cycle_ending_at_product_8_makes_two_eigensolves(self, monkeypatch):
        # Eight products span R^8. The check after product 1 reads the 1x1
        # pair off without an eigensolve; those after products 4 and 8 solve.
        rng = np.random.default_rng(11)
        M = rng.uniform(0.1, 1.0, (8, 8)) + np.diag(rng.uniform(5.0, 6.0, 8))
        orders = _record_eigensolves(monkeypatch)
        _, report = _perron_krylov(M.dot, 8, PowerSettings(tolerance=1e-13))
        assert report.iterations == 8
        assert orders == [4, 8]
        assert len(report.residual_trace) == 3

    def test_restarted_cycles_check_from_dimension_2(self, monkeypatch):
        # The path on 60 vertices has Perron root 2 cos(pi / 61), close to
        # the next root, so the solve restarts many times. A restarted cycle
        # checks after dimensions 2, 4, 8 and 16, never after dimension 1.
        M = np.eye(60, k=1) + np.eye(60, k=-1)
        orders = _record_eigensolves(monkeypatch)
        _, report = _perron_krylov(M.dot, 60, PowerSettings(tolerance=1e-12))
        restarts = report.iterations // 16
        assert restarts >= 10
        assert orders[:3] == [4, 8, 16]
        assert orders[3:] == ([2, 4, 8, 16] * restarts)[: len(orders) - 3]
        # One check more than eigensolves: the first cycle's 1x1 pair.
        assert len(report.residual_trace) == len(orders) + 1

    def test_exact_start_vector_ends_without_an_eigensolve(self, monkeypatch):
        orders = _record_eigensolves(monkeypatch)
        for k in (1, 2, 3, 16, 17, 1000):
            for M in (np.ones((k, k)), np.eye(k)):
                _, report = _perron_krylov(M.dot, k, PowerSettings())
                assert report.iterations == 1
        assert orders == []


def test_one_by_one_ritz_pair_in_closed_form():
    # eig returns h_11 and [1.0] for |h_11| in [1e-138, 1e138]; outside that
    # range LAPACK rescales and may be off by one ulp, the closed form not.
    rng = np.random.default_rng(19)
    inside = [1e-138, 1e138, *(10.0 ** rng.uniform(-138, 138, 500))]
    for h in inside:
        theta, y, rate = _perron_ritz(np.array([[h]]), 0.0)
        values, vectors = np.linalg.eig(np.array([[h]]))
        assert (theta, y.tolist(), rate) == (values[0], vectors[:, 0].tolist(), None)
    for h in (1e-300, 5e-320, 1e-139, 2e138, 1e300, 1.7e308):
        theta, y, rate = _perron_ritz(np.array([[h]]), 0.0)
        assert (theta, y.tolist(), rate) == (h, [1.0], None)
    with pytest.raises(errors.ZeroVector):
        _perron_ritz(np.array([[1e-20]]), 1e-17)


def _random_hessenberg(rng: np.random.Generator) -> np.ndarray:
    """Unreduced upper Hessenberg matrix of order 2-16: signed entries, so
    complex Ritz pairs are common, or nonnegative ones, scaled by 2^-100,
    1 or 2^100."""
    k = int(rng.integers(2, 17))
    if rng.random() < 0.5:
        H = rng.standard_normal((k, k))
    else:
        H = rng.uniform(0.0, 1.0, (k, k))
    H = np.triu(H, -1)
    H[np.arange(1, k), np.arange(k - 1)] = rng.uniform(0.1, 1.0, k - 1)
    return H * 2.0 ** float(rng.choice([-100, 0, 100]))


def _ritz_by_eig(H):
    """_perron_ritz's answer for a matrix of order 2 or more, taken from
    numpy.linalg.eig."""
    values, vectors = np.linalg.eig(H)
    real = values.real
    top = int(real.argmax())
    y = vectors[:, top].real
    if vectors.dtype.kind == "c":
        y = y / np.linalg.norm(y)
    moduli = np.abs(values)
    moduli[top] = 0.0
    return float(real[top]), y, float(moduli.max()) / float(real[top])


def _bits(x):
    return np.asarray(x).tobytes()


class TestEigensolveAlias:
    def test_bit_identical_to_numpy_eig(self):
        # The real/complex rule of numpy.linalg.eig, then the same bits;
        # _perron_ritz's answer is the one eig gives.
        rng = np.random.default_rng(41)
        complex_spectra = 0
        for _ in range(1200):
            H = _random_hessenberg(rng)
            values, vectors = np.linalg.eig(H)
            got_values, got_vectors = spectral._eig(H, signature="d->DD")
            if got_values.imag.any():
                complex_spectra += 1
            else:
                got_values, got_vectors = got_values.real, got_vectors.real
            assert got_values.dtype == values.dtype
            assert _bits(got_values) == _bits(values)
            assert _bits(got_vectors) == _bits(vectors)
            if values.real.max() > 0:
                theta, y, rate = _perron_ritz(H, 0.0)
                want = _ritz_by_eig(H)
                assert (theta, _bits(y), rate) == (want[0], _bits(want[1]), want[2])
        assert complex_spectra >= 300

    def test_nan_from_the_eigensolver_raises_linalg_error(self, monkeypatch):
        def unconverged(matrix, **kwargs):
            k = len(matrix)
            return np.full(k, np.nan, dtype=complex), np.full((k, k), np.nan, dtype=complex)

        monkeypatch.setattr(spectral, "_eig", unconverged)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            _perron_ritz(np.array([[1.0, 2.0], [3.0, 4.0]]), 0.0)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            power_iterate(np.ones((3, 3)) + np.eye(3, k=1))


class TestPowerOfTwoScaling:
    """Scaling W, or M, by 2^k scales every product, norm and Hessenberg
    entry by a power of two, exactly; the kernel hands the eigensolve the
    Hessenberg matrix scaled to a fixed exponent, so the ratings keep their
    bits and the eigenvalue scales exactly."""

    EXPONENTS = (-40, -7, 3, 25)

    def test_nebs_ratings_are_bit_identical(self):
        rng = np.random.default_rng(53)
        # rho scales by 2^(k * (1 + p)) when W' scales by 2^(k p).
        transforms = (
            (ReverseTransform.identity(), 1),
            (ReverseTransform.power(2.0), 2),
            (ReverseTransform.scale(3.0), 1),
        )
        for _ in range(40):
            m, n = (int(x) for x in rng.integers(2, 12, size=2))
            W = rng.uniform(0.1, 5.0, (m, n))
            labels = tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m))
            for transform, p in transforms:
                base = compute_nebs(WeightRelation(*labels, W), transform)
                for k in self.EXPONENTS:
                    scaled = compute_nebs(WeightRelation(*labels, np.ldexp(W, k)), transform)
                    assert _bits(scaled.a) == _bits(base.a)
                    assert _bits(scaled.b) == _bits(base.b)
                    assert scaled.rho == math.ldexp(base.rho, k * (1 + p))
                    assert scaled.convergence.iterations == base.convergence.iterations

    def test_necs_ratings_are_bit_identical(self):
        rng = np.random.default_rng(59)
        for _ in range(120):
            k = int(rng.integers(2, 12))
            M = rng.uniform(0.1, 5.0, (k, k))
            base = compute_necs(M)
            for e in self.EXPONENTS:
                scaled = compute_necs(np.ldexp(M, e))
                assert _bits(scaled.c) == _bits(base.c)
                assert scaled.eigenvalue == math.ldexp(base.eigenvalue, e)
