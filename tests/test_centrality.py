import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicentral import (
    PowerSettings,
    RatingTable,
    ReverseTransform,
    WeightRelation,
    alternating_iterate,
    baseline_averages,
    compute_nebs,
    compute_necs,
    construct_reverse_for_target,
    detect_degeneracy,
    errors,
    power_iterate,
    rank,
    reverse_matrix,
    validate,
)
from bicentral import centrality, spectral
from bicentral.centrality import ReverseConstruction
from bicentral.core import NebsResult
from bicentral.spectral import ConvergenceReport
from tests import reference
from tests.reference import eig_perron
from tests.conftest import EX51_A, EX51_B, EX51_RHO, random_positive_relation


def _count_searches(monkeypatch):
    """List that records the number of parts of each pattern search."""
    searches = []
    search = spectral._reaches_all

    def counting(steps):
        searches.append(len(steps))
        return search(steps)

    monkeypatch.setattr(spectral, "_reaches_all", counting)
    return searches


class TestComputeNecs:
    def test_two_cycle(self):
        result = compute_necs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(result.c, [1 / np.sqrt(2)] * 2, atol=1e-10)
        assert result.eigenvalue == pytest.approx(1.0, abs=1e-10)

    def test_equal_row_sums_give_constant_vector(self):
        result = compute_necs(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_allclose(result.c, [1 / np.sqrt(2)] * 2, atol=1e-10)
        assert result.eigenvalue == pytest.approx(3.0, abs=1e-10)
        assert result.rating_coefficient == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_block_triangular_rejected(self):
        with pytest.raises(errors.NotIrreducible):
            compute_necs(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(errors.NonPositiveEigenvalue):
            compute_necs(np.zeros((3, 3)))

    def test_eigen_residual(self):
        rng = np.random.default_rng(21)
        A = rng.uniform(0.1, 2.0, (6, 6))
        result = compute_necs(A)
        residual = np.linalg.norm(A @ result.c - result.eigenvalue * result.c)
        assert residual <= 1e-8

    def test_periodic_digraph_searches_the_pattern_twice(self, monkeypatch):
        # Strongly connected with period 2 and Perron root sqrt(15). The
        # irreducibility check searches forward and backward; the solve
        # itself needs no search and no second validation.
        A = np.array(
            [[0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 3.0, 1.0], [2.0, 1.0, 0.0, 0.0], [1.0, 5.0, 0.0, 0.0]]
        )
        searches = _count_searches(monkeypatch)
        result = compute_necs(A)
        assert searches == [1, 1]
        assert result.eigenvalue == pytest.approx(np.sqrt(15.0), rel=1e-12)
        np.testing.assert_allclose(result.c, [0.4472136, 0.4472136, 0.3464102, 0.6928203], atol=1e-7)

    @pytest.mark.parametrize("e", [-250, -200, -160, 154, 200, 300])
    def test_eigenpair_does_not_depend_on_scale(self, e):
        # The products and ||M c|| leave the range of their squares.
        M = np.array([[1.0, 2.0], [3.0, 1.0]])
        base = compute_necs(M)
        scaled = compute_necs(M * 10.0**e)
        assert np.abs(scaled.c - base.c).max() <= 1e-15
        assert scaled.eigenvalue / 10.0**e == pytest.approx(base.eigenvalue, rel=1e-15, abs=0)

    def test_periodic_digraph_beyond_the_square_range(self):
        result = compute_necs(np.array([[0.0, 1e300], [3e300, 0.0]]))
        assert result.eigenvalue == pytest.approx(3.0**0.5 * 1e300, rel=1e-15)


def _triangles():
    """Nilpotent upper triangles, and the same with rho = 1e-3 in the last
    diagonal cell: reducible, and the ungated kernel returned a tiny
    "converged" eigenvalue on each."""
    for k in (3, 8, 13, 20):
        M = np.triu(np.ones((k, k)), 1)
        yield M
        M = M.copy()
        M[-1, -1] = 1e-3
        yield M


_CELLS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5, 7.0])


@st.composite
def _square(draw, k):
    return np.array(draw(st.lists(_CELLS, min_size=k * k, max_size=k * k))).reshape(k, k)


@st.composite
def _reducible(draw):
    """Nonnegative k x k, block triangular up to a relabelling: no edge
    leads from the first ``split`` vertices to the rest."""
    k = draw(st.integers(2, 7))
    split = draw(st.integers(1, k - 1))
    M = draw(_square(k))
    M[split:, :split] = 0.0
    order = np.array(draw(st.permutations(range(k))))
    return M[np.ix_(order, order)]


@st.composite
def _irreducible(draw):
    """Nonnegative k x k with a positive cycle through every vertex."""
    k = draw(st.integers(1, 7))
    M = draw(_square(k))
    cycle = np.array(draw(st.permutations(range(k))))
    M[cycle, np.roll(cycle, 1)] += draw(st.sampled_from([0.5, 1.0, 3.0]))
    return M


class TestOneGatePerSolve:
    """Every public solver runs its gate before the Perron kernel."""

    @pytest.mark.parametrize("M", _triangles())
    def test_reducible_triangles_refused(self, M):
        for solve in (power_iterate, compute_necs):
            with pytest.raises(errors.NotIrreducible, match="not strongly connected"):
                solve(M)

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_reverse_weights_need_the_transposed_pattern(self, k):
        with pytest.raises(ValueError, match="zero pattern of W transposed"):
            alternating_iterate(np.eye(k), np.triu(np.ones((k, k)), 1))

    def test_block_diagonal_refused_with_the_validate_text(self):
        W = np.kron(np.eye(2), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(errors.PreconditionFailed) as got:
            alternating_iterate(W, W.T)
        rel = WeightRelation(tuple("abcdef"), tuple("pqrs"), W)
        assert validate(rel, ReverseTransform.identity()).violations == (str(got.value),)

    @settings(max_examples=150, deadline=None)
    @given(M=_reducible())
    def test_reducible_matrices_refused(self, M):
        refusal = errors.NotIrreducible if M.any() else errors.NonPositiveEigenvalue
        for solve in (power_iterate, compute_necs):
            with pytest.raises(refusal):
                solve(M)

    @settings(max_examples=150, deadline=None)
    @given(M=_irreducible())
    def test_compute_necs_is_power_iterate(self, M):
        c, eigenvalue, _ = power_iterate(M)
        result = compute_necs(M)
        assert np.array_equal(result.c, c) and result.eigenvalue == eigenvalue

    def test_kernel_runs_after_the_gate(self, monkeypatch):
        # The gate's searches are all done when the kernel starts: forward
        # and backward for the necs solvers, one bipartite search (one
        # products_irreducible call) for alternating_iterate.
        searches = _count_searches(monkeypatch)
        seen = []
        kernel = spectral._perron_krylov

        def recording(*args):
            seen.append(list(searches))
            return kernel(*args)

        monkeypatch.setattr(spectral, "_perron_krylov", recording)
        monkeypatch.setattr(centrality, "_perron_krylov", recording)
        A = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 3.0, 1.0]])
        W = np.array([[1.0, 2.0], [3.0, 0.0]])
        for solve in (lambda: power_iterate(A), lambda: compute_necs(A)):
            searches.clear()
            solve()
            assert seen.pop() == searches == [1, 1]
        searches.clear()
        alternating_iterate(W, W.T)
        assert seen.pop() == searches == [2]
        assert not seen


@pytest.mark.parametrize(
    "call",
    [
        lambda: spectral.is_irreducible(np.zeros((0, 0))),
        lambda: spectral.products_irreducible(np.zeros((0, 3))),
        lambda: spectral.products_irreducible(np.zeros((3, 0))),
        lambda: spectral.products_irreducible(np.ones(3)),
        lambda: alternating_iterate(np.zeros((0, 3)), np.zeros((3, 0))),
        lambda: alternating_iterate(np.ones(3), np.ones(3)),
        lambda: detect_degeneracy(np.zeros((0, 3)), np.zeros((3, 0))),
        lambda: detect_degeneracy(np.zeros((3, 0)), np.zeros((0, 3))),
        lambda: power_iterate(np.zeros((0, 0))),
        lambda: compute_necs(np.zeros((0, 0))),
        lambda: construct_reverse_for_target(np.zeros((0, 3)), np.ones(3) / 3**0.5),
    ],
    ids=[
        "is_irreducible-0x0",
        "products_irreducible-0x3",
        "products_irreducible-3x0",
        "products_irreducible-1d",
        "alternating_iterate-0x3",
        "alternating_iterate-1d",
        "detect_degeneracy-0x3",
        "detect_degeneracy-3x0",
        "power_iterate-0x0",
        "compute_necs-0x0",
        "construct_reverse_for_target-0x3",
    ],
)
def test_empty_or_flat_matrices_raise_dimension_mismatch(call):
    with pytest.raises(errors.DimensionMismatch, match="2-D and nonempty"):
        call()


def _groups(size: int, parts: int) -> np.ndarray:
    """Group id of each index: ``parts`` contiguous groups of near-equal size."""
    return (np.arange(size) * parts) // size


def _slow_gap_relation(rng, shape, transform, exponent, zero_cross):
    """m x n relation of q strong blocks whose W'W roots fall by 0.97 from one
    block to the next, joined by cross weights 1e-3 to 1e-1.5 of the in-block
    ones. With ``zero_cross`` most cross cells are 0, but each block keeps a
    link to the next so the relation stays connected. ``exponent`` is how
    the root of W'W scales with W."""
    m, n, q = shape
    rg, cg = _groups(m, q), _groups(n, q)
    base = rng.uniform(1.0, 10.0, size=(m, n))
    scale = np.empty(q)
    for g in range(q):
        block = base[np.ix_(rg == g, cg == g)]
        rel = WeightRelation(
            tuple(map(str, range(block.shape[1]))), tuple(map(str, range(block.shape[0]))), block
        )
        root = eig_perron(reverse_matrix(rel, transform) @ block)[1]
        scale[g] = (0.97**g / root) ** (1.0 / exponent)
    row_scale = scale[rg][:, None]
    same = rg[:, None] == cg[None, :]
    cross = base * row_scale * 10.0 ** rng.uniform(-3.0, -1.5, size=(m, n))
    W = np.where(same, base * row_scale, cross)
    if zero_cross:
        W[~same & (rng.random((m, n)) < 0.8)] = 0.0
        for g in range(q - 1):
            i = rng.choice(np.flatnonzero(rg == g))
            j = rng.choice(np.flatnonzero(cg == g + 1))
            W[i, j] = cross[i, j]
    return W


def _clustered_digraph(rng, k, q):
    """k vertices in q dense clusters whose Perron roots fall by 0.97 from one
    to the next, weak sparse cross edges, a weak Hamiltonian cycle for strong
    connectivity and a positive diagonal."""
    g = _groups(k, q)
    same = g[:, None] == g[None, :]
    A = np.where(same & (rng.random((k, k)) < 0.6), rng.uniform(1.0, 10.0, (k, k)), 0.0)
    idx = np.arange(k)
    A[idx, idx] = rng.uniform(1.0, 10.0, size=k)
    for c in range(q):
        block = np.ix_(g == c, g == c)
        A[block] *= 0.97**c / eig_perron(A[block])[1]
    weak = A.max(axis=1, keepdims=True) * 10.0 ** rng.uniform(-3.0, -1.5, size=(k, k))
    A = np.where(~same & (rng.random((k, k)) < 0.1), weak, A)
    nxt = (idx + 1) % k
    A[nxt, idx] = np.maximum(A[nxt, idx], weak[nxt, idx])
    return A


_SLOW_GAP_TRANSFORMS = {
    "identity": (ReverseTransform.identity(), 2.0),
    "power:2": (ReverseTransform.power(2.0), 3.0),
    "scale:3": (ReverseTransform.scale(3.0), 2.0),
}


class TestPerronAccuracy:
    """At the default tolerance every rating lies within 10 * tol of the Perron
    vector that eig finds for the formed product, even when the subdominant
    root is 0.97 of the dominant one. A stop on the step difference of a
    power sweep misses this by up to 1 / (1 - 0.97) times."""

    TOL = PowerSettings().tolerance

    @pytest.mark.parametrize("zero_cross", [False, True], ids=["dense", "zero-cross"])
    @pytest.mark.parametrize("phi", _SLOW_GAP_TRANSFORMS)
    def test_slow_gap_relations(self, phi, zero_cross):
        transform, exponent = _SLOW_GAP_TRANSFORMS[phi]
        rng = np.random.default_rng([7, zero_cross, list(_SLOW_GAP_TRANSFORMS).index(phi)])
        for shape in [(20, 10, 2), (45, 27, 3), (57, 33, 2), (80, 40, 3)]:
            W = _slow_gap_relation(rng, shape, transform, exponent, zero_cross)
            m, n = W.shape
            rel = WeightRelation(
                tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), W
            )
            result = compute_nebs(rel, transform)
            a, _ = eig_perron(reverse_matrix(rel, transform) @ W)
            b = W @ a
            b /= np.linalg.norm(b)
            assert np.abs(result.a - a).max() <= 10 * self.TOL
            assert np.abs(result.b - b).max() <= 10 * self.TOL

    def test_clustered_digraphs(self):
        rng = np.random.default_rng(8)
        for k, q in [(10, 2), (23, 3), (36, 2), (40, 3), (31, 2), (18, 3)]:
            A = _clustered_digraph(rng, k, q)
            c, rho = eig_perron(A)
            result = compute_necs(A)
            assert np.abs(result.c - c).max() <= 10 * self.TOL
            assert abs(result.eigenvalue - rho) <= 10 * self.TOL * rho


_GATE_WEIGHTS = (0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def _small_relations(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(
        st.lists(st.sampled_from(_GATE_WEIGHTS), min_size=m * n, max_size=m * n)
    )
    return WeightRelation(
        tuple(f"a{j}" for j in range(n)),
        tuple(f"b{i}" for i in range(m)),
        np.array(cells).reshape(m, n),
    )


_gate_transforms = st.one_of(
    st.sampled_from(
        [
            ReverseTransform.identity(),
            ReverseTransform.reciprocal(),
            ReverseTransform.scale(2.0),
            ReverseTransform.power(2.0),
            ReverseTransform.power(-2.0),
        ]
    ),
    # Tables over a subset of the positive weights, so most have gaps.
    st.sets(st.sampled_from(_GATE_WEIGHTS[1:]), min_size=1).map(
        lambda keys: ReverseTransform.from_table({k: 1.0 / k for k in keys})
    ),
)


class TestComputeNebs:
    def test_worked_example_reciprocal(self, ex51):
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        np.testing.assert_allclose(result.a, EX51_A, atol=1e-9)
        np.testing.assert_allclose(result.b, EX51_B, atol=1e-9)
        assert result.rho == pytest.approx(EX51_RHO, rel=1e-9)
        assert result.warnings == ()

    @pytest.mark.parametrize("c", [0.25, 1.0, 8.0])
    def test_single_cell(self, c):
        rel = WeightRelation(("a1",), ("b1",), np.array([[c]]))
        result = compute_nebs(rel, ReverseTransform.reciprocal())
        np.testing.assert_allclose(result.a, [1.0])
        np.testing.assert_allclose(result.b, [1.0])
        assert result.lambda_ == pytest.approx(1.0 / c, rel=1e-12)
        assert result.mu == pytest.approx(c, rel=1e-12)
        assert result.rho == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "transform",
        [
            ReverseTransform.identity(),
            ReverseTransform.reciprocal(),
            ReverseTransform.scale(3.0),
            ReverseTransform.power(-1.0),
        ],
        ids=ReverseTransform.describe,
    )
    def test_scalars_derive_from_alpha_and_beta(self, ex51, transform):
        result = compute_nebs(ex51, transform)
        assert result.lambda_ == 1.0 / result.alpha
        assert result.mu == 1.0 / result.beta
        assert result.rho == result.alpha * result.beta

    def test_results_store_only_what_the_solve_determines(self, ex51):
        names = {
            cls: [f.name for f in dataclasses.fields(cls)]
            for cls in (NebsResult, ReverseConstruction, ConvergenceReport)
        }
        assert names == {
            NebsResult: ["a", "b", "alpha", "beta", "convergence", "warnings"],
            ReverseConstruction: ["reverse_weights", "transform", "mu"],
            ConvergenceReport: [
                "iterations",
                "tolerance",
                "residual_trace",
                "rate_estimate",
            ],
        }
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        kept = {name: getattr(result, name) for name in names[NebsResult]}
        for name in ("lambda_", "mu", "rho"):
            with pytest.raises(TypeError):
                NebsResult(**kept, **{name: 1.0})
            with pytest.raises(AttributeError):
                setattr(result, name, 1.0)
        trace = {"iterations": 1, "tolerance": 1.0, "residual_trace": (0.5,)}
        assert ConvergenceReport(**trace).final_residual == 0.5
        with pytest.raises(TypeError):
            ConvergenceReport(**trace, final_residual=0.5)

    def test_zero_product_of_a_later_krylov_vector_is_invariance(self):
        # W'W has rank 2 and the start vector leaves its range, so the fourth
        # Krylov vector lies in the null space and its product is exactly 0.
        W = np.array([[0.5, 2.0, 3.0, 0.0], [0.5, 0.5, 1.0, 3.0]])
        rel = WeightRelation(tuple("pqrs"), ("b0", "b1"), W)
        result = compute_nebs(rel, ReverseTransform.identity())
        assert result.convergence.iterations == 4
        np.testing.assert_allclose(result.a, eig_perron(W.T @ W)[0], atol=1e-12)

    def test_non_finite_reverse_weight_fails_fast(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1e-310, 1.0], [2.0, 3.0]])
        )
        with pytest.raises(errors.TransformDomainError, match="row 0, column 0"):
            compute_nebs(rel, ReverseTransform.reciprocal())

    def test_zero_reverse_weight_fails_fast(self):
        # Was a misleading ZeroVector from the collapsed rating update.
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1e200, 1.0], [2.0, 3.0]])
        )
        with pytest.raises(errors.TransformDomainError, match="row 0, column 0"):
            compute_nebs(rel, ReverseTransform.power(-2.0))

    @settings(max_examples=300, deadline=None)
    @given(rel=_small_relations(), transform=_gate_transforms)
    def test_refuses_exactly_what_validate_flags(self, rel, transform):
        report = validate(rel, transform)
        try:
            compute_nebs(rel, transform, PowerSettings(max_iterations=20))
        except (errors.TransformDomainError, errors.PreconditionFailed) as exc:
            assert not report.ok
            expected = (
                errors.PreconditionFailed
                if report.transform_applicable
                else errors.TransformDomainError
            )
            assert type(exc) is expected
            assert str(exc) == "; ".join(report.violations)
        except errors.NoConvergence:
            assert report.ok
        else:
            assert report.ok

    def test_latin_square_degenerates_to_constant(self, latin):
        result = compute_nebs(latin, ReverseTransform.identity())
        np.testing.assert_allclose(result.a, [1 / np.sqrt(2)] * 2, atol=1e-10)
        np.testing.assert_allclose(result.b, [1 / np.sqrt(2)] * 2, atol=1e-10)
        codes = {w.code for w in result.warnings}
        assert codes == {"CONSTANT_A_VECTOR", "CONSTANT_B_VECTOR"}

    def test_unit_norm_and_positivity(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            rel = random_positive_relation(
                rng, int(rng.integers(1, 8)), int(rng.integers(1, 8))
            )
            result = compute_nebs(rel, ReverseTransform.power(0.5))
            assert np.linalg.norm(result.a) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(result.b) == pytest.approx(1.0, abs=1e-12)
            assert np.all(result.a > 0) and np.all(result.b > 0)

    def test_coupling_invariants(self):
        rng = np.random.default_rng(23)
        settings = PowerSettings()
        for _ in range(10):
            rel = random_positive_relation(
                rng, int(rng.integers(2, 10)), int(rng.integers(2, 10))
            )
            W = rel.weights
            result = compute_nebs(rel, ReverseTransform.reciprocal(), settings)
            Wp = reverse_matrix(rel, ReverseTransform.reciprocal())
            image_b = W @ result.a
            image_a = Wp @ result.b
            assert (
                np.linalg.norm(image_b / np.linalg.norm(image_b) - result.b)
                <= 10 * settings.tolerance
            )
            assert (
                np.linalg.norm(image_a / np.linalg.norm(image_a) - result.a)
                <= 10 * settings.tolerance
            )
            assert result.alpha * result.beta * result.lambda_ * result.mu == (
                pytest.approx(1.0, abs=1e-9)
            )

    def test_scaling_the_transform_leaves_ratings_alone(self):
        rng = np.random.default_rng(24)
        settings = PowerSettings(tolerance=1e-12)
        for gamma in (0.1, 7.0, 1000.0):
            rel = random_positive_relation(rng, 5, 7)
            base = compute_nebs(rel, ReverseTransform.identity(), settings)
            scaled = compute_nebs(rel, ReverseTransform.scale(gamma), settings)
            np.testing.assert_allclose(scaled.a, base.a, atol=1e-9)
            np.testing.assert_allclose(scaled.b, base.b, atol=1e-9)
            assert scaled.rho == pytest.approx(gamma * base.rho, rel=1e-9)

    @pytest.mark.parametrize("e", [-300, -250, -170, -160, 154, 200, 300])
    def test_reciprocal_ratings_do_not_depend_on_scale(self, e):
        # Under reciprocal, W'W of the worked example times 10^e does not
        # depend on e, though ||W a|| and ||W' b|| leave the range of their
        # squares.
        W = np.array([[2.0, 3.0, 1.0], [2.0, 1.0, 4.0]])
        labels = (("x", "y", "z"), ("p", "q"))
        phi = ReverseTransform.reciprocal()
        base = compute_nebs(WeightRelation(*labels, W), phi)
        scaled = compute_nebs(WeightRelation(*labels, W * 10.0**e), phi)
        assert np.abs(scaled.a - base.a).max() <= 1e-15
        assert np.abs(scaled.b - base.b).max() <= 1e-15
        assert scaled.rho == pytest.approx(base.rho, rel=1e-15, abs=0)
        assert np.isfinite([scaled.alpha, scaled.beta, scaled.rho]).all()

    @pytest.mark.parametrize(
        "transform", [ReverseTransform.identity(), ReverseTransform.scale(3.0)]
    )
    def test_products_below_the_safe_minimum_are_refused(self, transform):
        # W'(W x) is about 1e-320, a subnormal vector whose direction has
        # lost its bits; rated, it came out 1e-6 off.
        W = np.array([[1.0, 2.0], [3.0, 1.0]]) * 1e-160
        with pytest.raises(errors.ZeroVector):
            compute_nebs(WeightRelation(("x", "y"), ("p", "q"), W), transform)

    def test_product_spectra_agree(self):
        rng = np.random.default_rng(25)
        rel = random_positive_relation(rng, 6, 9)
        Wp = reverse_matrix(rel, ReverseTransform.reciprocal())
        from bicentral import power_iterate

        _, rho_b, _ = power_iterate(rel.weights @ Wp, PowerSettings(tolerance=1e-12))
        _, rho_a, _ = power_iterate(Wp @ rel.weights, PowerSettings(tolerance=1e-12))
        assert rho_b == pytest.approx(rho_a, rel=1e-9)

    def test_engines_agree(self, ex51):
        settings = PowerSettings(tolerance=1e-11)
        transform = ReverseTransform.reciprocal()
        alt = compute_nebs(ex51, transform, settings)
        a, b = reference.product_ratings(
            ex51.weights, reverse_matrix(ex51, transform), settings
        )
        np.testing.assert_allclose(alt.a, a, atol=1e-8)
        np.testing.assert_allclose(alt.b, b, atol=1e-8)

    def test_engines_agree_on_random_rectangles(self):
        rng = np.random.default_rng(26)
        settings = PowerSettings(tolerance=1e-11)
        transform = ReverseTransform.identity()
        for m, n in ((2, 3), (20, 30), (13, 4)):
            rel = random_positive_relation(rng, m, n)
            alt = compute_nebs(rel, transform, settings)
            a, b = reference.product_ratings(
                rel.weights, reverse_matrix(rel, transform), settings
            )
            np.testing.assert_allclose(alt.a, a, atol=1e-8)
            np.testing.assert_allclose(alt.b, b, atol=1e-8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(27)
        rel = random_positive_relation(rng, 4, 6)
        perm = rng.permutation(6)
        permuted = WeightRelation(
            a_labels=tuple(rel.a_labels[j] for j in perm),
            b_labels=rel.b_labels,
            weights=rel.weights[:, perm],
        )
        base = compute_nebs(rel, ReverseTransform.reciprocal())
        moved = compute_nebs(permuted, ReverseTransform.reciprocal())
        np.testing.assert_allclose(moved.a, base.a[perm], atol=1e-8)
        np.testing.assert_allclose(moved.b, base.b, atol=1e-8)

    def test_identity_matches_singular_vectors(self):
        rng = np.random.default_rng(28)
        rel = random_positive_relation(rng, 9, 4)
        W = rel.weights
        result = compute_nebs(rel, ReverseTransform.identity())
        a_oracle, _ = reference.dominant_eigenpair_oracle(W.T @ W)
        b_oracle = W @ a_oracle
        b_oracle /= np.linalg.norm(b_oracle)
        np.testing.assert_allclose(result.a, a_oracle, atol=1e-6)
        np.testing.assert_allclose(result.b, b_oracle, atol=1e-6)

    def test_weakened_precondition_admits_sparse_input(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 2.0], [3.0, 0.0]])
        )
        result = compute_nebs(rel, ReverseTransform.identity())
        assert np.all(result.a > 0) and np.all(result.b > 0)

    def test_one_search_per_gate(self, monkeypatch):
        # W' has W's pattern transposed, so each gate makes one search of
        # the two-part bipartite pattern, forward from b_0.
        rel = WeightRelation(("a1", "a2"), ("b1", "b2"), np.array([[1.0, 2.0], [3.0, 0.0]]))
        searches = _count_searches(monkeypatch)
        for transform in (ReverseTransform.identity(), ReverseTransform.power(2.0)):
            searches.clear()
            assert validate(rel, transform).ok
            assert searches == [2]
            searches.clear()
            compute_nebs(rel, transform)
            assert searches == [2]

    def test_reducible_products_rejected(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        with pytest.raises(errors.PreconditionFailed):
            compute_nebs(rel, ReverseTransform.identity())

    @pytest.mark.parametrize(
        "transform", [ReverseTransform.identity(), ReverseTransform.scale(2.0)]
    )
    def test_single_zero_cell_fails_the_precondition(self, transform):
        # Both 1x1 products are trivially irreducible, but the one pair is
        # unrelated, so no positive ratings exist.
        rel = WeightRelation(("a1",), ("b1",), np.array([[0.0]]))
        with pytest.raises(errors.PreconditionFailed):
            compute_nebs(rel, transform)

    def test_singleton_sides_force_unit_rating(self):
        row = WeightRelation(
            ("a1", "a2", "a3"), ("b1",), np.array([[1.0, 2.0, 3.0]])
        )
        result = compute_nebs(row, ReverseTransform.reciprocal())
        np.testing.assert_allclose(result.b, [1.0])
        expected_a = np.array([1.0, 0.5, 1.0 / 3.0])
        expected_a /= np.linalg.norm(expected_a)
        np.testing.assert_allclose(result.a, expected_a, atol=1e-10)


class TestAlternatingIterate:
    def test_matches_product_engine_fixed_point(self, ex51):
        Wp = reverse_matrix(ex51, ReverseTransform.reciprocal())
        a, b, _ = alternating_iterate(ex51.weights, Wp, PowerSettings(tolerance=1e-12))
        result = compute_nebs(
            ex51, ReverseTransform.reciprocal(), PowerSettings(tolerance=1e-12)
        )
        np.testing.assert_allclose(a, result.a, atol=1e-9)
        np.testing.assert_allclose(b, result.b, atol=1e-9)

    def test_single_cell_converges_immediately(self):
        a, b, report = alternating_iterate(
            np.array([[4.0]]), np.array([[0.25]])
        )
        np.testing.assert_allclose(a, [1.0])
        np.testing.assert_allclose(b, [1.0])
        assert report.iterations == 1

    def test_random_rectangle_matches_oracle_singular_pair(self):
        rng = np.random.default_rng(31)
        W = rng.uniform(0.2, 2.0, (3, 4))
        a, b, _ = alternating_iterate(W, W.T, PowerSettings(tolerance=1e-12))
        a_oracle, _ = reference.dominant_eigenpair_oracle(W.T @ W)
        b_oracle, _ = reference.dominant_eigenpair_oracle(W @ W.T)
        np.testing.assert_allclose(a, a_oracle, atol=1e-8)
        np.testing.assert_allclose(b, b_oracle, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            alternating_iterate(np.ones((2, 3)), np.ones((2, 3)))

    def test_positive_pair_skips_the_pattern_checks(self, monkeypatch):
        def fail(weights):
            raise AssertionError("a positive pair needs no irreducibility search")

        monkeypatch.setattr(centrality, "products_irreducible", fail)
        W = np.array([[2.0, 3.0], [2.0, 1.0]])
        a, b, _ = alternating_iterate(W, 1.0 / W.T, PowerSettings(tolerance=1e-12))
        np.testing.assert_allclose(a, EX51_A, atol=1e-9)
        np.testing.assert_allclose(b, EX51_B, atol=1e-9)
        # A single zero brings the checks back.
        W[0, 1] = 0.0
        with pytest.raises(AssertionError, match="irreducibility search"):
            alternating_iterate(W, W.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -2.0])
    @pytest.mark.parametrize("side", ["weights", "reverse"])
    def test_non_finite_or_negative_weights_rejected(self, bad, side):
        # Unchecked, NaN or inf would spin the whole budget into
        # NoConvergence, and a negative weight would give a negative rating.
        W = np.array([[1.0, 2.0], [1.0, 3.0]])
        Wp = W.T.copy()
        (W if side == "weights" else Wp)[1, 0] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            alternating_iterate(W, Wp)


class TestBaselineAverages:
    def test_worked_example(self, ex51):
        base = baseline_averages(ex51)
        np.testing.assert_array_equal(base.a_bar, [2.0, 2.0])
        np.testing.assert_array_equal(base.b_bar, [2.5, 1.5])

    def test_zero_cell(self):
        rel = WeightRelation(("a1",), ("b1",), np.array([[0.0]]))
        base = baseline_averages(rel)
        np.testing.assert_array_equal(base.a_bar, [0.0])
        np.testing.assert_array_equal(base.b_bar, [0.0])

    def test_all_ones(self):
        rel = WeightRelation(("a1", "a2"), ("b1", "b2"), np.ones((2, 2)))
        base = baseline_averages(rel)
        np.testing.assert_array_equal(base.a_bar, [1.0, 1.0])
        np.testing.assert_array_equal(base.b_bar, [1.0, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_means_whose_sums_overflow(self):
        W = np.array([[1e308, 1e308, 1e308], [1e308, 1e308, 1.0]])
        base = baseline_averages(WeightRelation(("x", "y", "z"), ("p", "q"), W))
        assert base.a_bar.tolist() == [1e308, 1e308, W[:, 2].mean()]
        np.testing.assert_allclose(base.b_bar, [1e308, 1e308 / 1.5], rtol=1e-15)

    def test_baseline_ties_where_ratings_distinguish(self, ex51):
        base = baseline_averages(ex51)
        baseline_table = rank(base.a_bar, ex51.a_labels)
        assert baseline_table.tied.any()
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        rating_table = rank(result.a, ex51.a_labels)
        assert not rating_table.tied.any()


#: Scale factors 2**k and 10**k from about 1e-150 to 1e150.
_magnitudes = st.one_of(
    st.integers(-1000, 1000).map(lambda k: 2.0**k),
    st.integers(-300, 300).map(lambda k: 10.0**k),
)


class TestDetectDegeneracy:
    def test_latin_square_fires_both(self, latin):
        Wp = reverse_matrix(latin, ReverseTransform.identity())
        warnings = detect_degeneracy(latin.weights, Wp)
        assert {w.code for w in warnings} == {
            "CONSTANT_A_VECTOR",
            "CONSTANT_B_VECTOR",
        }
        assert {w.side for w in warnings} == {"a", "b"}

    def test_worked_example_fires_nothing(self, ex51):
        Wp = reverse_matrix(ex51, ReverseTransform.reciprocal())
        assert detect_degeneracy(ex51.weights, Wp) == ()

    def test_single_cell_fires_both(self):
        assert len(detect_degeneracy(np.array([[1.0]]), np.array([[1.0]]))) == 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_circulant_weights_force_constant_ratings(self, k):
        # Circulant rows are permutations of one another, so both rating
        # products have equal row sums and both vectors collapse.
        first = np.arange(1.0, k + 1.0)
        W = np.stack([np.roll(first, shift) for shift in range(k)])
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(k)),
            tuple(f"b{i}" for i in range(k)),
            W,
        )
        result = compute_nebs(rel, ReverseTransform.identity())
        assert len(result.warnings) == 2
        assert result.a.max() - result.a.min() <= 1e-8
        assert result.b.max() - result.b.min() <= 1e-8


    def test_matches_row_sums_of_the_formed_products(self):
        rng = np.random.default_rng(41)
        fired = set()
        for case in range(300):
            m, n = (int(x) for x in rng.integers(1, 7, size=2))
            if case % 3 == 0:
                # Rows that permute one row (and columns that permute one
                # column when square) make one or both products degenerate.
                first = rng.integers(1, 4, size=n).astype(float)
                W = np.stack([rng.permutation(first) for _ in range(m)])
            else:
                W = rng.uniform(0.2, 3.0, (m, n)) * (rng.random((m, n)) < 0.8)
            Wp = W.T * rng.choice([1.0, 2.0], size=(n, m)) if case % 2 else W.T
            expected = {
                code
                for code, product in (
                    ("CONSTANT_B_VECTOR", W @ Wp),
                    ("CONSTANT_A_VECTOR", Wp @ W),
                )
                if reference.has_equal_row_sums(product, 1e-9)
            }
            got = detect_degeneracy(W, Wp)
            assert {w.code for w in got} == expected
            fired |= expected
        assert fired == {"CONSTANT_A_VECTOR", "CONSTANT_B_VECTOR"}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            detect_degeneracy(np.ones((2, 3)), np.ones((3, 4)))

    def test_small_weights_are_not_degenerate(self):
        # Row sums of about 1e-11 differ by less than an absolute 1e-9,
        # yet the ratings are far from constant.
        rel = WeightRelation(
            ("a1", "a2", "a3"),
            ("b1", "b2"),
            np.array([[2.0, 3.0, 1.0], [2.0, 1.0, 5.0]]) * 1e-6,
        )
        result = compute_nebs(rel, ReverseTransform.identity())
        assert result.warnings == ()
        assert result.a.max() - result.a.min() > 0.4
        assert result.b.max() - result.b.min() > 0.4

    @pytest.mark.parametrize(
        "scale", [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300]
    )
    @pytest.mark.parametrize(
        "W,codes",
        [
            ([[1.0, 2.0], [3.0, 1.0]], set()),
            ([[1.0, 2.0], [2.0, 1.0]], {"CONSTANT_A_VECTOR", "CONSTANT_B_VECTOR"}),
        ],
    )
    def test_verdict_holds_where_the_row_sums_leave_the_range(self, W, codes, scale):
        W = np.array(W) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = detect_degeneracy(W, W.T)
        assert {d.code for d in found} == codes

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=_magnitudes,
        t=_magnitudes,
    )
    def test_warnings_do_not_change_under_scaling(self, seed, s, t):
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(1, 6, size=2))
        if rng.random() < 0.5:
            first = rng.integers(1, 4, size=n).astype(float)
            W = np.stack([rng.permutation(first) for _ in range(m)])
        else:
            W = rng.uniform(0.2, 3.0, (m, n)) * (rng.random((m, n)) < 0.8)
        Wp = W.T * rng.choice([1.0, 2.0], size=(n, m))
        assert detect_degeneracy(s * W, t * Wp) == detect_degeneracy(W, Wp)


_TARGET = np.array([0.6, 0.8])


@pytest.mark.parametrize(
    "call",
    [
        lambda: detect_degeneracy(np.array([[np.nan, 1.0]]), np.ones((2, 1))),
        lambda: detect_degeneracy(np.array([[np.inf, 1.0]]), np.ones((2, 1))),
        lambda: detect_degeneracy(np.array([[-1.0, 1.0]]), np.ones((2, 1))),
        lambda: detect_degeneracy(np.ones((1, 2)), np.array([[1.0], [np.nan]])),
        lambda: construct_reverse_for_target(np.array([[np.nan, 1.0]]), _TARGET),
        lambda: construct_reverse_for_target(np.array([[np.inf, 1.0]]), _TARGET),
        lambda: construct_reverse_for_target(np.array([[-1.0, 1.0]]), _TARGET),
    ],
    ids=[
        "degeneracy-nan",
        "degeneracy-inf",
        "degeneracy-negative",
        "degeneracy-reverse-nan",
        "construct-nan",
        "construct-inf",
        "construct-negative",
    ],
)
def test_weights_must_be_finite_and_nonnegative(call):
    with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
        call()


class TestConstructReverseForTarget:
    def test_worked_arithmetic(self):
        W = np.array([[2.0, 3.0], [5.0, 1.0]])
        target = np.array([0.6, 0.8])
        built = construct_reverse_for_target(W, target)
        d = W @ target
        np.testing.assert_allclose(d, [3.6, 3.8])
        assert d.sum() == pytest.approx(7.4)
        np.testing.assert_allclose(
            built.reverse_weights,
            [[0.6 / 7.4, 0.6 / 7.4], [0.8 / 7.4, 0.8 / 7.4]],
            rtol=1e-15,
        )
        fixed_point = built.reverse_weights @ W @ target
        np.testing.assert_allclose(fixed_point, target, atol=1e-15)

    def test_single_cell(self):
        built = construct_reverse_for_target(np.array([[4.0]]), np.array([1.0]))
        np.testing.assert_allclose(built.reverse_weights, [[0.25]])
        assert built.lambda_ == pytest.approx(0.25)
        assert built.lambda_ == 1.0 / built.mu
        assert built.mu == pytest.approx(4.0)

    def test_round_trip_through_solver(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            W = rng.uniform(0.5, 5.0, (m, n))
            target = rng.uniform(0.2, 1.0, n)
            target /= np.linalg.norm(target)
            built = construct_reverse_for_target(W, target)
            rel = WeightRelation(
                tuple(f"a{j}" for j in range(n)),
                tuple(f"b{i}" for i in range(m)),
                W,
            )
            result = compute_nebs(rel, built.transform)
            np.testing.assert_allclose(result.a, target, atol=1e-8)
            assert result.lambda_ == pytest.approx(built.lambda_, rel=1e-9)
            assert result.mu == pytest.approx(built.mu, rel=1e-9)

    def test_transform_reproduces_reverse_matrix_exactly(self):
        rng = np.random.default_rng(34)
        W = rng.uniform(0.5, 5.0, (3, 3))
        target = rng.uniform(0.2, 1.0, 3)
        target /= np.linalg.norm(target)
        built = construct_reverse_for_target(W, target)
        rel = WeightRelation(("a0", "a1", "a2"), ("b0", "b1", "b2"), W)
        np.testing.assert_array_equal(
            reverse_matrix(rel, built.transform), built.reverse_weights
        )

    def test_duplicate_entries_rejected(self):
        with pytest.raises(errors.DistinctnessViolation):
            construct_reverse_for_target(
                np.array([[1.0, 2.0], [2.0, 3.0]]), np.array([0.6, 0.8])
            )

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            construct_reverse_for_target(
                np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0])
            )

    def test_target_must_be_positive_unit(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(errors.PreconditionFailed):
            construct_reverse_for_target(W, np.array([0.6, -0.8]))
        with pytest.raises(errors.PreconditionFailed):
            construct_reverse_for_target(W, np.array([0.6, 0.9]))


def _rows(table):
    """(label, rank, tied) per row of a rating table, in output order."""
    return list(zip(table.label_order, table.ranks.tolist(), table.tied.tolist()))


class TestRank:
    def test_two_distinct_scores(self):
        table = rank(np.array([0.87, 0.5]), ["b1", "b2"])
        assert _rows(table) == [
            ("b1", 1, False),
            ("b2", 2, False),
        ]

    def test_exact_tie_shares_rank_one(self):
        table = rank(np.array([1 / np.sqrt(2)] * 2), ["x", "y"])
        assert table.ranks.tolist() == [1, 1]
        assert table.tied.tolist() == [True, True]

    def test_near_tie_grouping_and_competition_ranks(self):
        table = rank(
            np.array([0.3, 0.3 + 1e-12, 0.9]), ["e1", "e2", "e3"], tie_tol=1e-9
        )
        assert _rows(table) == [
            ("e3", 1, False),
            ("e1", 2, True),
            ("e2", 2, True),
        ]

    def test_competition_ranks_skip_after_group(self):
        table = rank(np.array([5.0, 5.0, 4.0, 3.0]), list("pqrs"))
        assert table.ranks.tolist() == [1, 1, 3, 4]

    def test_tied_entries_keep_input_order(self):
        table = rank(np.array([2.0, 1.0, 2.0]), ["first", "mid", "third"])
        assert table.label_order == ("first", "third", "mid")

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            rank(np.array([1.0, 2.0]), ["only"])

    @pytest.mark.parametrize("tie_tol", [float("nan"), -1e-9])
    def test_tie_tol_must_be_a_nonnegative_number(self, tie_tol):
        with pytest.raises(ValueError, match="tie_tol"):
            rank(np.array([0.5, 0.5, 0.1]), list("xyz"), tie_tol=tie_tol)


class TestRatingTable:
    def test_columns_in_output_order(self):
        table = rank(np.array([0.2, 0.9, 0.2]), ["p", "q", "r"])
        assert table.label_order == ("q", "p", "r")
        assert table.scores.dtype == np.float64
        assert table.scores.tolist() == [0.9, 0.2, 0.2]
        assert table.ranks.tolist() == [1, 2, 2]
        assert table.tied.tolist() == [False, True, True]
        assert table.tied.any()

    def test_columns_are_read_only(self):
        table = rank(np.array([0.2, 0.9]), ["p", "q"])
        for column in (table.scores, table.ranks, table.tied):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_column_lengths_must_match_the_labels(self):
        with pytest.raises(errors.DimensionMismatch):
            RatingTable(label_order=("p", "q"), scores=[1.0], ranks=[1], tied=[False])

    def test_equality_compares_every_column(self):
        table = rank(np.array([0.2, 0.9]), ["p", "q"])
        assert table == rank(np.array([0.2, 0.9]), ["p", "q"])
        assert table != rank(np.array([0.2, 0.8]), ["p", "q"])
        assert table != rank(np.array([0.2, 0.9]), ["p", "s"])
        assert table != rank(np.array([0.2, 0.2 + 1e-12]), ["p", "q"])


#: Scores drawn from a few base values plus offsets around the tie
#: tolerance, so chains of near-ties (each gap within tie_tol, the chain
#: wider than it) come up often.
_near_tie_scores = st.lists(
    st.tuples(
        st.sampled_from([0.1, 0.5, 0.5 + 1e-10, 0.9]),
        st.sampled_from([0.0, 0.0, 4e-10, 8e-10, 1.2e-9, 2e-9, 1e-3]),
    ).map(sum),
    max_size=12,
)


class TestRankAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.one_of(
            _near_tie_scores,
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=12),
        ),
        tie_tol=st.sampled_from([0.0, 1e-9, 5e-10, 0.3]),
    )
    def test_matches_greedy_grouping(self, scores, tie_tol):
        labels = [f"x{i}" for i in range(len(scores))]
        assert rank(np.array(scores), labels, tie_tol) == reference.rank(
            np.array(scores), labels, tie_tol
        )

    def test_chain_of_near_ties_splits_at_the_leader(self):
        # Each gap is 0.6e-9, under tie_tol, but 1.0 - (1.0 - 1.2e-9) is not.
        scores = np.array([1.0, 1.0 - 0.6e-9, 1.0 - 1.2e-9, 0.5])
        table = rank(scores, list("pqrs"), tie_tol=1e-9)
        assert _rows(table) == [
            ("p", 1, True),
            ("q", 1, True),
            ("r", 3, True),
            ("s", 4, False),
        ]
        assert table == reference.rank(scores, list("pqrs"), 1e-9)

    def test_empty(self):
        assert _rows(rank(np.array([]), [])) == []
