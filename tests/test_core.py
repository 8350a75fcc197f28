import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicentral import ReverseTransform, WeightRelation, errors, reverse_matrix, validate
from tests import reference


def _pattern_weights():
    """4x6 weights with about 40% unrelated pairs."""
    rng = np.random.default_rng(9)
    return rng.uniform(0.5, 2.0, (4, 6)) * (rng.random((4, 6)) < 0.6)


_PATTERN_WEIGHTS = _pattern_weights()


def _same_array(got, expected):
    """Equal bytes, shape and memory layout."""
    assert got.shape == expected.shape and got.strides == expected.strides
    assert got.tobytes(order="A") == expected.tobytes(order="A")


class TestWeightRelation:
    def test_valid_construction(self, ex51):
        assert ex51.weights.shape == (2, 2)
        assert ex51.is_positive()
        assert ex51.a_labels == ("a1", "a2")

    def test_weights_are_read_only(self, ex51):
        with pytest.raises(ValueError):
            ex51.weights[0, 0] = 9.0

    @pytest.mark.parametrize(
        "a_labels,b_labels,weights",
        [
            (("a1", "a1"), ("b1",), [[1.0, 1.0]]),
            (("a1",), ("b1", "b1"), [[1.0], [1.0]]),
            (("a1", "a2"), ("b1",), [[1.0]]),
            ((), ("b1",), [[]]),
            (("a1",), ("b1",), [[-1.0]]),
            (("a1",), ("b1",), [[np.inf]]),
            (("a1",), ("b1",), [[np.nan]]),
        ],
    )
    def test_invalid_construction(self, a_labels, b_labels, weights):
        with pytest.raises(ValueError):
            WeightRelation(a_labels, b_labels, np.array(weights))

    def test_zero_weight_is_not_positive(self):
        rel = WeightRelation(("a1", "a2"), ("b1",), np.array([[1.0, 0.0]]))
        assert not rel.is_positive()

    def test_equality(self, ex51):
        same = WeightRelation(ex51.a_labels, ex51.b_labels, ex51.weights)
        other = WeightRelation(ex51.a_labels, ex51.b_labels, ex51.weights + 1.0)
        assert ex51 == same
        assert ex51 != other


class TestReverseTransform:
    @staticmethod
    def reverse_of(weight, transform):
        rel = WeightRelation(("a1",), ("b1",), np.array([[weight]]))
        return reverse_matrix(rel, transform)[0, 0]

    def test_apply_reciprocal(self):
        assert self.reverse_of(2.0, ReverseTransform.reciprocal()) == 0.5

    def test_apply_identity(self):
        assert self.reverse_of(7.0, ReverseTransform.identity()) == 7.0

    def test_apply_power_half_is_square_root(self):
        assert self.reverse_of(4.0, ReverseTransform.power(0.5)) == 2.0

    def test_apply_scale(self):
        assert self.reverse_of(4.0, ReverseTransform.scale(2.5)) == 10.0

    def test_apply_table(self):
        t = ReverseTransform.from_table({2.0: 0.25})
        assert self.reverse_of(2.0, t) == 0.25
        with pytest.raises(errors.TransformDomainError):
            self.reverse_of(3.0, t)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ReverseTransform.scale(0.0),
            lambda: ReverseTransform.scale(-2.0),
            lambda: ReverseTransform.power(0.0),
            lambda: ReverseTransform.from_table({}),
            lambda: ReverseTransform.from_table({0.0: 1.0}),
            lambda: ReverseTransform.from_table({1.0: -1.0}),
            lambda: ReverseTransform("something-else"),
            # A parameter of another kind would make transforms that act
            # alike compare unequal, or leave a mutable dict in a frozen one.
            lambda: ReverseTransform("identity", gamma=3.0),
            lambda: ReverseTransform("reciprocal", exponent=-1.0),
            lambda: ReverseTransform("scale", gamma=2.0, exponent=5.0),
            lambda: ReverseTransform("power", exponent=2.0, table={1.0: 2.0}),
            lambda: ReverseTransform("table", table={1.0: 2.0}, gamma=1.0),
        ],
    )
    def test_invalid_parameters(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_requires_all_positive(self):
        assert ReverseTransform.reciprocal().requires_all_positive()
        assert ReverseTransform.power(-2.0).requires_all_positive()
        assert not ReverseTransform.power(0.5).requires_all_positive()
        assert not ReverseTransform.identity().requires_all_positive()


class TestReverseMatrix:
    def test_reciprocal_on_worked_example(self, ex51):
        out = reverse_matrix(ex51, ReverseTransform.reciprocal())
        expected = np.array([[0.5, 0.5], [1.0 / 3.0, 1.0]])
        np.testing.assert_array_equal(out, expected)

    def test_identity_single_cell(self):
        rel = WeightRelation(("a1",), ("b1",), np.array([[5.0]]))
        np.testing.assert_array_equal(
            reverse_matrix(rel, ReverseTransform.identity()), [[5.0]]
        )

    def test_identity_is_a_read_only_view(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 2.0], [3.0, 4.0]])
        )
        out = reverse_matrix(rel, ReverseTransform.identity())
        assert np.shares_memory(out, rel.weights)
        assert out.flags.f_contiguous and not out.flags.writeable

    def test_scale_transposes_then_scales(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 2.0], [3.0, 4.0]])
        )
        out = reverse_matrix(rel, ReverseTransform.scale(2.0))
        np.testing.assert_array_equal(out, [[2.0, 6.0], [4.0, 8.0]])

    def test_scale_equals_gamma_times_identity(self):
        rng = np.random.default_rng(7)
        rel = WeightRelation(
            tuple("abc"), tuple("xyzu"), rng.uniform(0.1, 5.0, (4, 3))
        )
        gamma = 3.7
        scaled = reverse_matrix(rel, ReverseTransform.scale(gamma))
        plain = reverse_matrix(rel, ReverseTransform.identity())
        np.testing.assert_array_equal(scaled, gamma * plain)

    def test_identity_is_transpose(self):
        rng = np.random.default_rng(8)
        weights = rng.uniform(0.0, 2.0, (5, 3))
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(3)),
            tuple(f"b{i}" for i in range(5)),
            weights,
        )
        np.testing.assert_array_equal(
            reverse_matrix(rel, ReverseTransform.identity()), weights.T
        )

    @pytest.mark.parametrize(
        "transform",
        [
            ReverseTransform.identity(),
            ReverseTransform.reciprocal(),
            ReverseTransform.power(-1.5),
            ReverseTransform.power(2.0),
            ReverseTransform.scale(3.0),
            ReverseTransform.from_table(
                {w: 1.0 / w for w in _PATTERN_WEIGHTS[_PATTERN_WEIGHTS > 0].tolist()}
            ),
        ],
    )
    def test_zero_pattern_is_transposed(self, transform):
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(6)),
            tuple(f"b{i}" for i in range(4)),
            _PATTERN_WEIGHTS,
        )
        out = reverse_matrix(rel, transform)
        np.testing.assert_array_equal(out.T > 0, _PATTERN_WEIGHTS > 0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_result_has_exactly_the_transposed_pattern(self, data):
        # The irreducibility gate reads only W's pattern; this is why.
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        magnitude = st.floats(1e-300, 1e300)
        cells = data.draw(
            st.lists(st.one_of(st.just(0.0), magnitude), min_size=m * n, max_size=m * n)
        )
        weights = np.array(cells).reshape(m, n)
        observed = sorted(set(weights[weights > 0].tolist()))
        transform = data.draw(
            st.one_of(
                st.just(ReverseTransform.identity()),
                st.just(ReverseTransform.reciprocal()),
                magnitude.map(ReverseTransform.scale),
                st.floats(-4.0, 4.0).filter(bool).map(ReverseTransform.power),
                st.lists(magnitude, min_size=len(observed), max_size=len(observed)).map(
                    lambda values: ReverseTransform.from_table(
                        dict(zip(observed, values)) or {1.0: 1.0}
                    )
                ),
            )
        )
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), weights
        )
        try:
            out = reverse_matrix(rel, transform)
        except errors.TransformDomainError:
            return
        assert out.shape == (n, m)
        np.testing.assert_array_equal(out != 0, weights.T != 0)

    def test_table_missing_key_raises(self, ex51):
        transform = ReverseTransform.from_table({2.0: 1.0, 3.0: 2.0})
        with pytest.raises(errors.TransformDomainError):
            reverse_matrix(ex51, transform)

    def test_table_gap_names_first_cell_in_row_major_order(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 2.0], [3.0, 4.0]])
        )
        with pytest.raises(
            errors.TransformDomainError,
            match=re.escape("weight 2.0 at row 0, column 1 "),
        ):
            reverse_matrix(rel, ReverseTransform.from_table({1.0: 1.0}))

    @pytest.mark.parametrize(
        "transform,big",
        [
            (ReverseTransform.reciprocal(), 1e-310),
            (ReverseTransform.power(-2.0), 1e-200),
            (ReverseTransform.power(2.0), 1e200),
            (ReverseTransform.scale(1e300), 1e10),
        ],
    )
    def test_non_finite_reverse_weight_names_first_cell(self, transform, big):
        # Row-major first offender is (0, 1); column-major would be (1, 0).
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, big], [big, 3.0]])
        )
        with pytest.raises(
            errors.TransformDomainError,
            match=re.escape(f"weight {big!r} at row 0, column 1 ")
            + ".* non-finite reverse weight inf",
        ):
            reverse_matrix(rel, transform)

    @pytest.mark.parametrize(
        "transform,extreme",
        [
            (ReverseTransform.power(-2.0), 1e200),
            (ReverseTransform.power(2.0), 1e-200),
            (ReverseTransform.scale(1e-300), 1e-100),
        ],
    )
    def test_zero_reverse_weight_names_first_cell(self, transform, extreme):
        # Underflow to 0 would turn a related pair into an unrelated one.
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, extreme], [extreme, 3.0]])
        )
        with pytest.raises(
            errors.TransformDomainError,
            match=re.escape(f"weight {extreme!r} at row 0, column 1 ")
            + ".* zero reverse weight 0.0",
        ):
            reverse_matrix(rel, transform)

    @pytest.mark.parametrize(
        "first,second,kind",
        [(1e200, 1e-200, "zero"), (1e-200, 1e200, "non-finite")],
    )
    def test_zero_and_non_finite_share_row_major_order(self, first, second, kind):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, first], [second, 3.0]])
        )
        with pytest.raises(
            errors.TransformDomainError, match=f"row 0, column 1 .* {kind} reverse"
        ):
            reverse_matrix(rel, ReverseTransform.power(-2.0))


def _table_case(seed, m=7, n=5):
    """A relation with zeros over a few repeated weights, and a table
    covering every weight it uses."""
    rng = np.random.default_rng(seed)
    keys = rng.choice([0.5, 1.0, 1.5, 2.0, 1e-300, 1e300, 3.25], size=4, replace=False)
    weights = rng.choice(keys, size=(m, n)) * (rng.random((m, n)) < 0.7)
    rel = WeightRelation(
        tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), weights
    )
    table = {float(k): float(rng.uniform(0.1, 9.0)) for k in keys}
    return rel, table


class TestTableReverseAgainstReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_same_bytes_and_layout(self, seed):
        rel, table = _table_case(seed)
        got = reverse_matrix(rel, ReverseTransform.from_table(table))
        _same_array(got, reference.table_reverse_matrix(rel, table))

    @pytest.mark.parametrize("seed", range(20))
    def test_gapped_table_names_the_same_cell(self, seed):
        rel, table = _table_case(seed)
        # Over the seeds this drops the smallest and the largest weight too,
        # whose lookups fall off either end of the sorted keys.
        used = sorted(set(rel.weights[rel.weights > 0].tolist()))
        del table[used[seed % len(used)]]
        with pytest.raises(errors.TransformDomainError) as expected:
            reference.table_reverse_matrix(rel, table)
        with pytest.raises(errors.TransformDomainError) as got:
            reverse_matrix(rel, ReverseTransform.from_table(table))
        assert str(got.value) == str(expected.value)

    def test_large_relation(self):
        rel, table = _table_case(3, m=300, n=200)
        got = reverse_matrix(rel, ReverseTransform.from_table(table))
        _same_array(got, reference.table_reverse_matrix(rel, table))


class TestReciprocalOnPositiveRelations:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_bytes_and_layout_as_masked_divide(self, seed):
        rng = np.random.default_rng(seed)
        weights = np.exp(rng.uniform(-700.0, 700.0, (6, 4)))
        rel = WeightRelation(tuple("abcd"), tuple("pqrstu"), weights)
        assert rel.is_positive()
        transform = ReverseTransform.reciprocal()
        out = reverse_matrix(rel, transform)
        _same_array(out, reference.closed_form_reverse_matrix(rel, transform))

    def test_smallest_weight_with_finite_reciprocal(self):
        # 1/5.6e-309 is just below the largest double.
        rel = WeightRelation(("a1", "a2"), ("b1",), np.array([[2.0, 5.6e-309]]))
        transform = ReverseTransform.reciprocal()
        out = reverse_matrix(rel, transform)
        assert np.isfinite(out).all()
        _same_array(out, reference.closed_form_reverse_matrix(rel, transform))


class TestClosedFormAgainstReference:
    @pytest.mark.parametrize(
        "transform",
        [
            ReverseTransform.scale(3.0),
            ReverseTransform.power(2.0),
            ReverseTransform.power(-1.5),
            ReverseTransform.power(0.3),
            ReverseTransform.reciprocal(),
        ],
        ids=lambda t: t.describe(),
    )
    @pytest.mark.parametrize("shape", [(4, 6), (1, 5), (5, 1), (7, 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_relations_with_zeros(self, transform, shape, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.01, 50.0, shape) * (rng.random(shape) < 0.6)
        weights[0, 0] = 0.0
        m, n = shape
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), weights
        )
        out = reverse_matrix(rel, transform)
        _same_array(out, reference.closed_form_reverse_matrix(rel, transform))


class TestValidate:
    def test_worked_example_is_ok(self, ex51):
        report = validate(ex51, ReverseTransform.reciprocal())
        assert report.ok
        assert report.all_positive
        assert report.products_irreducible

    def test_reciprocal_on_zero_entry_is_flagged(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        report = validate(rel, ReverseTransform.reciprocal())
        assert not report.ok
        assert not report.transform_applicable
        # The first zero in row-major order; column-major would be (1, 0).
        assert report.violations[0].startswith(
            "reciprocal transform applied to zero entry at row 0 ('b1'), "
            "column 1 ('a2');"
        )

    def test_zero_row_makes_products_reducible(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 1.0], [0.0, 0.0]])
        )
        report = validate(rel, ReverseTransform.identity())
        assert not report.ok
        assert report.zero_rows == (1,)
        assert report.products_irreducible is False

    def test_sparse_but_connected_input_is_accepted(self):
        # Not all positive, yet both products are irreducible: ratings exist.
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 2.0], [3.0, 0.0]])
        )
        report = validate(rel, ReverseTransform.identity())
        assert report.ok
        assert not report.all_positive
        assert report.products_irreducible

    def test_single_zero_cell_products_are_not_irreducible(self):
        rel = WeightRelation(("a1",), ("b1",), np.array([[0.0]]))
        report = validate(rel, ReverseTransform.identity())
        assert not report.ok
        assert report.products_irreducible is False

    def test_single_positive_cell_is_ok(self):
        rel = WeightRelation(("a1",), ("b1",), np.array([[3.0]]))
        report = validate(rel, ReverseTransform.reciprocal())
        assert report.ok
        assert report.products_irreducible is True

    def test_non_finite_reverse_weight_reported(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1e-310, 1.0], [2.0, 3.0]])
        )
        report = validate(rel, ReverseTransform.reciprocal())
        assert not report.ok
        assert not report.transform_applicable
        assert report.products_irreducible is None
        assert any("non-finite reverse weight" in v for v in report.violations)

    def test_zero_reverse_weight_reported(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1e200, 1.0], [2.0, 3.0]])
        )
        report = validate(rel, ReverseTransform.power(-2.0))
        assert not report.ok
        assert not report.transform_applicable
        assert report.products_irreducible is None
        assert any("zero reverse weight" in v for v in report.violations)

    def test_table_gap_reported(self, ex51):
        report = validate(ex51, ReverseTransform.from_table({2.0: 1.0}))
        assert not report.ok
        assert not report.transform_applicable
        assert report.products_irreducible is None
        assert report.violations == (
            "table transform has no entry for weight 3.0 at row 0, column 1 "
            "of the weight matrix",
        )
