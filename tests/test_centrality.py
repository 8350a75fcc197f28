import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicentral import (
    PowerSettings,
    ReverseTransform,
    WeightRelation,
    alternating_iterate,
    baseline_averages,
    compute_nebs,
    compute_necs,
    construct_reverse_for_target,
    detect_degeneracy,
    errors,
    rank,
    reverse_matrix,
    validate,
)
from tests import reference
from tests.conftest import EX51_A, EX51_B, EX51_RHO, random_positive_relation


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

    def test_baseline_ties_where_ratings_distinguish(self, ex51):
        base = baseline_averages(ex51)
        baseline_table = rank(base.a_bar, ex51.a_labels)
        assert baseline_table.has_ties()
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        rating_table = rank(result.a, ex51.a_labels)
        assert not rating_table.has_ties()


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
            tol = 1e-9
            expected = {
                code
                for code, product in (
                    ("CONSTANT_B_VECTOR", W @ Wp),
                    ("CONSTANT_A_VECTOR", Wp @ W),
                )
                if reference.has_equal_row_sums(product, tol)
            }
            got = detect_degeneracy(W, Wp, tol)
            assert {w.code for w in got} == expected
            fired |= expected
        assert fired == {"CONSTANT_A_VECTOR", "CONSTANT_B_VECTOR"}

    def test_nonpositive_tolerance_rejected(self, ex51):
        with pytest.raises(ValueError):
            detect_degeneracy(ex51.weights, ex51.weights.T, tol=0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            detect_degeneracy(np.ones((2, 3)), np.ones((3, 4)))


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


class TestRank:
    def test_two_distinct_scores(self):
        table = rank(np.array([0.87, 0.5]), ["b1", "b2"])
        assert [(e.label, e.rank, e.tied) for e in table.entries] == [
            ("b1", 1, False),
            ("b2", 2, False),
        ]

    def test_exact_tie_shares_rank_one(self):
        table = rank(np.array([1 / np.sqrt(2)] * 2), ["x", "y"])
        assert [(e.rank, e.tied) for e in table.entries] == [(1, True), (1, True)]

    def test_near_tie_grouping_and_competition_ranks(self):
        table = rank(
            np.array([0.3, 0.3 + 1e-12, 0.9]), ["e1", "e2", "e3"], tie_tol=1e-9
        )
        assert [(e.label, e.rank, e.tied) for e in table.entries] == [
            ("e3", 1, False),
            ("e1", 2, True),
            ("e2", 2, True),
        ]

    def test_competition_ranks_skip_after_group(self):
        table = rank(np.array([5.0, 5.0, 4.0, 3.0]), list("pqrs"))
        assert [e.rank for e in table.entries] == [1, 1, 3, 4]

    def test_tied_entries_keep_input_order(self):
        table = rank(np.array([2.0, 1.0, 2.0]), ["first", "mid", "third"])
        assert table.labels() == ("first", "third", "mid")

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            rank(np.array([1.0, 2.0]), ["only"])


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
        assert [(e.label, e.rank, e.tied) for e in table.entries] == [
            ("p", 1, True),
            ("q", 1, True),
            ("r", 3, True),
            ("s", 4, False),
        ]
        assert table == reference.rank(scores, list("pqrs"), 1e-9)

    def test_empty(self):
        assert rank(np.array([]), []).entries == ()
