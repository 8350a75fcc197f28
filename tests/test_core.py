import re
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicentral import (
    ReverseTransform,
    WeightRelation,
    compute_nebs,
    core,
    errors,
    reverse_matrix,
    validate,
)
from tests import reference
from tests.conftest import CLONES, count_searches
from tests.test_spectral import brute_force_products_irreducible


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

    def test_weights_cannot_be_made_writable_again(self):
        # is_positive() and the cached pattern facts read the weights once;
        # a writable array could make them stale.
        given = np.array([[1.0, 2.0]])
        rel = WeightRelation(("a1", "a2"), ("b1",), given)
        with pytest.raises(ValueError):
            rel.weights.setflags(write=True)
        # Nor can anything built over the same memory, the base included.
        with pytest.raises(ValueError):
            np.frombuffer(rel.weights.base).setflags(write=True)
        if isinstance(rel.weights.base, np.ndarray):
            with pytest.raises(ValueError):
                rel.weights.base.setflags(write=True)
        given[0, 0] = 0.0
        assert rel.is_positive() and rel.weights[0, 0] == 1.0

    @pytest.mark.parametrize(
        "layout",
        [
            lambda w: w,
            np.asfortranarray,
            lambda w: w[::2],
            lambda w: np.asfortranarray(w)[::2],
            lambda w: w[::-1, ::-2],
        ],
    )
    def test_weights_keep_the_layout_of_a_copy(self, layout):
        # The products round by the layout, so it is the one np.array keeps.
        given = layout(np.arange(1.0, 43.0).reshape(6, 7))
        m, n = given.shape
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), given
        )
        copied = np.array(given, copy=True)
        assert np.array_equal(rel.weights, given)
        assert rel.weights.strides == copied.strides

    @pytest.mark.parametrize("clone", CLONES)
    def test_copies_keep_read_only_weights(self, clone):
        rel = WeightRelation(("a1", "a2"), ("b1",), np.array([[1.0, 0.0]]))
        assert validate(rel, ReverseTransform.identity()).zero_columns == (1,)
        twin = clone(rel)
        assert twin == rel and twin.weights is not rel.weights
        with pytest.raises(ValueError):
            twin.weights.setflags(write=True)
        assert validate(twin, ReverseTransform.identity()).zero_columns == (1,)

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

    @pytest.mark.parametrize("clone", CLONES)
    @pytest.mark.parametrize(
        "transform",
        [
            ReverseTransform.identity(),
            ReverseTransform.reciprocal(),
            ReverseTransform.scale(3.0),
            ReverseTransform.power(-2.0),
            ReverseTransform.from_table({2.0: 0.25, 3.0: 4.0}),
        ],
        ids=lambda t: t.kind,
    )
    def test_copies_of_every_kind_are_rebuilt(self, transform, clone):
        # A table is held as a read-only mapping, which pickle refuses; the
        # copy is built again from a dict and freezes it anew.
        twin = clone(transform)
        assert twin == transform and twin.describe() == transform.describe()
        assert twin._form == transform._form
        if transform.table is not None:
            assert type(twin.table) is MappingProxyType
            assert twin.table is not transform.table
        rel = WeightRelation(("a1", "a2"), ("b1",), np.array([[2.0, 3.0]]))
        assert np.array_equal(reverse_matrix(rel, twin), reverse_matrix(rel, transform))

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


class _NoScan:
    """numpy for ``core``, except that the finiteness scan's calls fail."""

    def __getattr__(self, name):
        if name in ("isfinite", "count_nonzero"):
            raise AssertionError(f"reverse_matrix scanned with np.{name}")
        return getattr(np, name)


class TestEqualMapsTakeOnePath:
    """Transforms with the same closed form gamma * x**p build the same W'
    by the same expression, though they compare unequal."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("with_zeros", [False, True])
    def test_power_minus_one_is_reciprocal(self, seed, with_zeros):
        rng = np.random.default_rng(seed)
        weights = np.exp(rng.uniform(-700.0, 700.0, (6, 4)))
        if with_zeros:
            weights[rng.random((6, 4)) < 0.4] = 0.0
            weights[0, 0] = 0.0
        rel = WeightRelation(tuple("abcd"), tuple("pqrstu"), weights)
        assert ReverseTransform.power(-1.0) != ReverseTransform.reciprocal()
        _same_array(
            reverse_matrix(rel, ReverseTransform.power(-1.0)),
            reverse_matrix(rel, ReverseTransform.reciprocal()),
        )

    def test_power_minus_one_refuses_a_subnormal_weight_under_its_own_name(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1.0, 1e-310], [1e-310, 3.0]])
        )
        messages = []
        for transform in (ReverseTransform.power(-1.0), ReverseTransform.reciprocal()):
            with pytest.raises(errors.TransformDomainError) as caught:
                reverse_matrix(rel, transform)
            messages.append(str(caught.value))
        assert messages == [
            f"{name} transform maps weight 1e-310 at row 0, column 1 of the "
            "weight matrix to the non-finite reverse weight inf"
            for name in ("power:-1", "reciprocal")
        ]

    @pytest.mark.parametrize(
        "transform", [ReverseTransform.power(-1.0), ReverseTransform.reciprocal()]
    )
    def test_minus_one_on_a_positive_relation_skips_the_scan(
        self, monkeypatch, transform
    ):
        rel = WeightRelation(("a1", "a2"), ("b1",), np.array([[2.0, 5.6e-309]]))
        expected = reference.closed_form_reverse_matrix(rel, transform)
        monkeypatch.setattr(core, "np", _NoScan())
        _same_array(reverse_matrix(rel, transform), expected)

    def test_other_negative_powers_scan(self, monkeypatch):
        # The spy above does catch a scan.
        rel = WeightRelation(("a1", "a2"), ("b1",), np.array([[2.0, 3.0]]))
        monkeypatch.setattr(core, "np", _NoScan())
        with pytest.raises(AssertionError, match="scanned"):
            reverse_matrix(rel, ReverseTransform.power(-1.5))

    @pytest.mark.parametrize(
        "transform",
        [ReverseTransform.scale(1.0), ReverseTransform.power(1.0)],
        ids=lambda t: t.describe(),
    )
    def test_unit_closed_forms_are_identitys_read_only_view(self, transform):
        rel = WeightRelation(tuple("abc"), tuple("pq"), _PATTERN_WEIGHTS[:2, :3])
        out = reverse_matrix(rel, transform)
        assert np.shares_memory(out, rel.weights)
        assert out.flags.f_contiguous and not out.flags.writeable
        _same_array(out, rel.weights.T)


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
        assert report.products_irreducible is True
        assert any("non-finite reverse weight" in v for v in report.violations)

    def test_zero_reverse_weight_reported(self):
        rel = WeightRelation(
            ("a1", "a2"), ("b1", "b2"), np.array([[1e200, 1.0], [2.0, 3.0]])
        )
        report = validate(rel, ReverseTransform.power(-2.0))
        assert not report.ok
        assert not report.transform_applicable
        assert report.products_irreducible is True
        assert any("zero reverse weight" in v for v in report.violations)

    def test_table_gap_reported(self, ex51):
        report = validate(ex51, ReverseTransform.from_table({2.0: 1.0}))
        assert not report.ok
        assert not report.transform_applicable
        assert report.products_irreducible is True
        assert report.violations == (
            "table transform has no entry for weight 3.0 at row 0, column 1 "
            "of the weight matrix",
        )

    @pytest.mark.parametrize("phi", ["reciprocal", "power:-1", "power:-2"])
    def test_map_refused_for_a_zero_weight_builds_no_reverse_matrix(
        self, monkeypatch, phi
    ):
        calls = []

        def counting(rel, transform):
            calls.append(transform)
            return reverse_matrix(rel, transform)

        monkeypatch.setattr(core, "reverse_matrix", counting)
        kind, _, p = phi.partition(":")
        transform = ReverseTransform.power(float(p)) if p else ReverseTransform(kind)
        rel = WeightRelation(
            ("a1", "a2", "a3"),
            ("b1", "b2"),
            np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]]),
        )
        first_zero = (
            f"{kind} transform applied to zero entry at row 0 ('b1'), "
            "column 2 ('a3'); it requires every weight to be positive"
        )
        report = validate(rel, transform)
        assert not report.transform_applicable
        assert report.violations == (first_zero,)
        with pytest.raises(errors.TransformDomainError, match=re.escape(first_zero)):
            compute_nebs(rel, transform)
        assert calls == []

    def test_repeated_refusal_for_a_zero_weight_makes_no_mask(self):
        # 2000x1000 with one zero: the message names it, and after the first
        # check, which finds the relation's pattern facts, a refusal
        # allocates far less than one byte per cell.
        weights = np.ones((2000, 1000))
        weights[1500, 300] = 0.0
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(1000)),
            tuple(f"b{i}" for i in range(2000)),
            weights,
        )
        transform = ReverseTransform.reciprocal()
        first_zero = (
            "reciprocal transform applied to zero entry at row 1500 ('b1500'), "
            "column 300 ('a300'); it requires every weight to be positive"
        )
        assert validate(rel, transform).violations == (first_zero,)
        tracemalloc.start()
        try:
            for _ in range(3):
                assert validate(rel, transform).violations == (first_zero,)
                with pytest.raises(errors.TransformDomainError):
                    compute_nebs(rel, transform)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < weights.size // 100

    @pytest.mark.parametrize(
        "case",
        [
            *range(20),
            ((200_000, 3), [(199_999, 2)]),
            ((5000, 3), [(1364, 2), (1365, 0)]),
            ((5000, 3), [(1365, 1), (4999, 0)]),
            ((3, 5000), [(2, 4999)]),
            ((4, 4097), [(1, 4096), (2, 0)]),
        ],
        ids=[
            *map(str, range(20)),
            "tall-last-row",
            "block-end",
            "block-start",
            "wide",
            "wider-than-a-block",
        ],
    )
    def test_first_zero_is_first_in_row_major_order(self, case):
        # A seeded small relation, or ones with zeros at the last row of a
        # tall relation and at either side of a boundary between the
        # scanned blocks of rows.
        if isinstance(case, int):
            rng = np.random.default_rng(case)
            shape = tuple(rng.integers(1, 7, size=2))
            weights = rng.choice(
                [0.0, -0.0, 1e-310, 2.0], size=shape, p=[0.1, 0.1, 0.3, 0.5]
            )
            weights.flat[rng.integers(weights.size)] = 0.0
        else:
            shape, zeros = case
            weights = np.ones(shape)
            weights[tuple(zip(*zeros))] = 0.0
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(shape[1])),
            tuple(f"b{i}" for i in range(shape[0])),
            weights,
        )
        i, j = divmod(int(np.argmax(weights == 0)), shape[1])
        assert validate(rel, ReverseTransform.power(-2.0)).violations[0].startswith(
            f"power transform applied to zero entry at row {i} ('b{i}'), "
            f"column {j} ('a{j}');"
        )

    @pytest.mark.parametrize(
        "transform",
        [
            ReverseTransform.identity(),
            ReverseTransform.reciprocal(),
            ReverseTransform.power(-2.0),
            ReverseTransform.power(2.0),
            ReverseTransform.scale(1e300),
            ReverseTransform.from_table({1.0: 2.0}),
        ],
        ids=lambda t: t.describe(),
    )
    @pytest.mark.parametrize("seed", range(8))
    def test_irreducibility_verdict_reads_the_weights_alone(self, transform, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 6, size=2))
        weights = rng.choice([0.0, 1.0, 1e-310, 2.0], size=shape, p=[0.4, 0.3, 0.1, 0.2])
        rel = WeightRelation(
            tuple(f"a{j}" for j in range(shape[1])),
            tuple(f"b{i}" for i in range(shape[0])),
            weights,
        )
        report = validate(rel, transform)
        assert type(report.products_irreducible) is bool
        assert report.products_irreducible == brute_force_products_irreducible(weights)
        assert (core._REDUCIBLE_PRODUCTS in report.violations) == (
            not report.products_irreducible
        )

    @pytest.mark.parametrize(
        "weights,transform,unbuilt",
        [
            (
                [[1e-310, 1.0], [0.0, 0.0]],
                ReverseTransform.power(2.0),
                "power:2 transform maps weight 1e-310 at row 0, column 0 of the "
                "weight matrix to the zero reverse weight 0.0",
            ),
            (
                [[1.0, 0.0], [0.0, 2.0]],
                ReverseTransform.from_table({1.0: 2.0}),
                "table transform has no entry for weight 2.0 at row 1, column 1 "
                "of the weight matrix",
            ),
        ],
        ids=["underflow", "table-gap"],
    )
    def test_unbuilt_reverse_and_reducible_products_are_both_listed(
        self, weights, transform, unbuilt
    ):
        rel = WeightRelation(("a1", "a2"), ("b1", "b2"), np.array(weights))
        report = validate(rel, transform)
        assert not report.transform_applicable
        assert report.products_irreducible is False
        assert report.violations[-2:] == (unbuilt, core._REDUCIBLE_PRODUCTS)
        with pytest.raises(errors.TransformDomainError) as got:
            compute_nebs(rel, transform)
        assert str(got.value) == "; ".join(report.violations)


def _relation(weights):
    m, n = weights.shape
    return WeightRelation(
        tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), weights
    )


class TestPatternFacts:
    """The zero lines, the first zero and the irreducibility verdict, found
    from one boolean pattern, equal their definitions on the weights."""

    @staticmethod
    def _expected(weights):
        W = np.asarray(weights)
        return (
            tuple(np.flatnonzero(~W.any(axis=1)).tolist()),
            tuple(np.flatnonzero(~W.any(axis=0)).tolist()),
            None if W.all() else divmod(int(np.argmax(W == 0)), W.shape[1]),
            brute_force_products_irreducible(W),
        )

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("seed", range(120))
    def test_seeded_relations(self, seed, layout):
        # Single rows and columns and sizes up to 7, positive, with empty
        # lines, and connected or not with none.
        rng = np.random.default_rng(seed)
        shape = tuple(int(x) for x in rng.integers(1, 8, size=2))
        weights = rng.choice([1e-310, 1.0, 2.5], size=shape)
        zero = rng.random(shape) < rng.uniform(0.0, 0.9)
        weights[zero] = rng.choice([0.0, -0.0], size=shape)[zero]
        if seed % 2:
            # Relate one pair in every empty row, then in every empty column.
            for i in np.flatnonzero(~weights.any(axis=1)):
                weights[i, rng.integers(shape[1])] = 1.0
            for j in np.flatnonzero(~weights.any(axis=0)):
                weights[rng.integers(shape[0]), j] = 1.0
        weights = np.array(weights, order=layout)
        rel = _relation(weights)
        assert rel.weights.flags[f"{layout}_CONTIGUOUS"]
        assert rel._pattern_facts == self._expected(weights)

    @pytest.mark.parametrize(
        "weights",
        [
            [[0.0]],
            [[-0.0]],
            [[3.0]],
            [[1.0, 0.0, 2.0]],
            [[1.0], [-0.0], [2.0]],
            [[1.0, 2.0], [3.0, 0.0]],
            # Disconnected, with no empty line.
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 2.0]],
            [[-0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        ],
    )
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_edge_cases(self, weights, layout):
        weights = np.array(weights, order=layout)
        rel = _relation(weights)
        assert rel._pattern_facts == self._expected(weights)
        report = validate(rel, ReverseTransform.identity())
        zero_rows, zero_columns, _, connected = rel._pattern_facts
        assert (report.zero_rows, report.zero_columns) == (zero_rows, zero_columns)
        assert report.products_irreducible is connected

    def test_an_empty_line_makes_no_search(self, monkeypatch):
        searches = count_searches(monkeypatch)
        for weights in ([[0.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [2.0, -0.0]]):
            rel = _relation(np.array(weights))
            assert rel._pattern_facts[3] is False
            assert not validate(rel, ReverseTransform.power(2.0)).products_irreducible
        assert searches == []
        # The spy sees the one search of a relation without an empty line.
        _relation(np.array([[1.0, 0.0], [1.0, 1.0]]))._pattern_facts
        assert searches == [2]

    def test_a_positive_relation_reads_no_weight(self):
        rel = _relation(np.array([[1.0, 2.0], [3.0, 4.0]]))
        object.__setattr__(rel, "weights", None)  # any scan would now fail
        assert rel._pattern_facts == ((), (), None, True)

