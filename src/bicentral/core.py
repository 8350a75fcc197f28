"""Domain types for two-sided weight relations and reverse transforms.

A relation between item sets A and B is stored as a dense m×n matrix: rows
follow ``b_labels``, columns follow ``a_labels``, and a zero entry means the
pair is simply not related (weights of related pairs are strictly positive).
The reverse transform turns forward weights into reverse weights, which is
what couples the two rating vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from bicentral import errors, spectral
from bicentral.spectral import ConvergenceReport, FloatArray

_REDUCIBLE_PRODUCTS = (
    "the products of the weight matrix with its reverse are not both "
    "irreducible, so unique positive ratings do not exist"
)


def _frozen(data, dtype=np.float64) -> np.ndarray:
    """``data`` as a C-ordered array over an immutable ``bytes`` copy, which
    numpy can never make writable: how every value type holds its arrays."""
    a = np.asarray(data, dtype=dtype)
    return np.ndarray(a.shape, a.dtype, a.tobytes())


def _rebuilt(self):
    """``__reduce__`` of the frozen value types: copies and unpickled ones are
    built again by the constructor, checks and read-only arrays included."""
    args = (getattr(self, f.name) for f in fields(self) if f.init)
    return type(self), tuple(dict(x) if isinstance(x, Mapping) else x for x in args)


@dataclass(frozen=True, eq=False)
class WeightRelation:
    """Labeled nonnegative weight matrix between two item sets.

    a_labels: the n column items (set A).
    b_labels: the m row items (set B).
    weights: m×n matrix; weights[i, j] is the weight of pair
        (a_labels[j], b_labels[i]), or 0 when the pair is unrelated. It is
        held in C order, read-only over an immutable ``bytes`` copy, so the
        facts found from it stay true and every rating computed from it
        depends on its values alone, not on the layout it was given in.
    """

    a_labels: tuple[str, ...]
    b_labels: tuple[str, ...]
    weights: FloatArray
    #: Smallest weight, found by the admission scan at construction.
    _min_weight: float = field(init=False, repr=False)
    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        a = tuple(str(x) for x in self.a_labels)
        b = tuple(str(x) for x in self.b_labels)
        w = np.asarray(self.weights, dtype=np.float64)
        if len(a) < 1 or len(b) < 1:
            raise ValueError("both label lists must be nonempty")
        if len(set(a)) != len(a):
            raise ValueError("a_labels contain duplicates")
        if len(set(b)) != len(b):
            raise ValueError("b_labels contain duplicates")
        if w.ndim != 2 or w.shape != (len(b), len(a)):
            raise ValueError(
                f"weights shape {w.shape} does not match "
                f"{len(b)} row labels x {len(a)} column labels"
            )
        low, _ = spectral._admit(w)
        object.__setattr__(self, "a_labels", a)
        object.__setattr__(self, "b_labels", b)
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "_min_weight", low)

    def is_positive(self) -> bool:
        return self._min_weight > 0

    @cached_property
    def _pattern_facts(self) -> tuple[tuple, tuple, Optional[tuple[int, int]], bool]:
        """:func:`~bicentral.spectral._relation_facts` of the weights, which
        every reverse matrix shares transposed, found by the first gate."""
        if self.is_positive():
            return (), (), None, True
        return spectral._relation_facts(self.weights != 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightRelation):
            return NotImplemented
        return (
            self.a_labels == other.a_labels
            and self.b_labels == other.b_labels
            and np.array_equal(self.weights, other.weights)
        )


#: Every kind, with the one parameter it takes (None for identity and reciprocal).
_PARAMETER = dict(
    identity=None, reciprocal=None, scale="gamma", power="exponent", table="table"
)


@dataclass(frozen=True)
class ReverseTransform:
    """Closed family of maps from forward weights to reverse weights.

    Use the classmethod constructors; the kinds are:

    * identity    — x, for data where large weights mean strong performance;
    * reciprocal  — 1/x, for data where large weights mean poor performance
                    (for example solving times);
    * scale       — gamma*x with gamma > 0;
    * power       — x**p with p != 0;
    * table       — explicit lookup over the observed weights.
    """

    kind: str
    gamma: Optional[float] = None
    exponent: Optional[float] = None
    table: Optional[Mapping[float, float]] = None
    #: (gamma, p) of the closed form gamma * x**p; None for a table.
    _form: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        if self.kind not in _PARAMETER:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        for name in ("gamma", "exponent", "table"):
            if name != _PARAMETER[self.kind] and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} transform takes no {name}")
        if self.kind == "scale" and not (self.gamma and 0 < self.gamma < math.inf):
            raise ValueError("scale transform requires a positive finite gamma")
        if self.kind == "power" and not (self.exponent and math.isfinite(self.exponent)):
            raise ValueError("power transform requires a nonzero finite exponent")
        if self.kind == "table":
            if not self.table:
                raise ValueError("table transform requires a nonempty mapping")
            frozen: dict[float, float] = {}
            for key, value in self.table.items():
                k, v = float(key), float(value)
                if not (k > 0 and math.isfinite(k)):
                    raise ValueError(f"table key {key!r} must be a positive real")
                if not (v > 0 and math.isfinite(v)):
                    raise ValueError(f"table value {value!r} must be a positive real")
                frozen[k] = v
            object.__setattr__(self, "table", MappingProxyType(frozen))
        else:  # a given gamma or exponent is nonzero
            p = self.exponent or (-1.0 if self.kind == "reciprocal" else 1.0)
            object.__setattr__(self, "_form", (self.gamma or 1.0, p))

    @classmethod
    def identity(cls) -> "ReverseTransform":
        return cls("identity")

    @classmethod
    def reciprocal(cls) -> "ReverseTransform":
        return cls("reciprocal")

    @classmethod
    def scale(cls, gamma: float) -> "ReverseTransform":
        return cls("scale", gamma=float(gamma))

    @classmethod
    def power(cls, exponent: float) -> "ReverseTransform":
        return cls("power", exponent=float(exponent))

    @classmethod
    def from_table(cls, mapping: Mapping[float, float]) -> "ReverseTransform":
        return cls("table", table=mapping)

    def requires_all_positive(self) -> bool:
        """Whether the transform is only meaningful on fully positive data (p < 0)."""
        return self._form is not None and self._form[1] < 0

    def describe(self) -> str:
        if self.kind == "table":
            return f"table({len(self.table)} entries)"
        parameter = _PARAMETER[self.kind]
        return f"{self.kind}:{getattr(self, parameter):g}" if parameter else self.kind


def reverse_matrix(rel: WeightRelation, transform: ReverseTransform) -> FloatArray:
    """Reverse weight matrix: n×m, transposed pattern, transformed values.

    Entry (j, i) is transform(weights[i, j]) when the pair is related and 0
    otherwise, so the zero pattern of the result is exactly the transpose of
    the input's. Every result is F-contiguous, as the weights are C-ordered
    whatever layout they were given in; for (gamma, p) = (1, 1)
    (``identity``, ``scale:1``, ``power:1``) it is the view ``rel.weights.T``.

    Raises:
        TransformDomainError: a table transform misses some observed weight,
            or another transform maps some positive weight to a non-finite
            reverse weight (for example ``reciprocal`` on a subnormal
            weight) or to 0 (for example ``power:-2`` on 1e200), which would
            leave a related pair unrelated.
    """
    W = rel.weights
    if transform._form is None:
        return _table_reverse(W, transform.table)
    gamma, p = transform._form
    WT = W.T
    if gamma == 1 and p == 1:
        return WT
    with np.errstate(divide="ignore", over="ignore"):
        if p == 1:
            out = gamma * WT
        elif p == -1:
            # As np.power(WT, -1.0) bit for bit, in about half the time.
            out = 1.0 / WT
        else:
            out = np.power(WT, p)
    if p < 0 and not rel.is_positive():
        out[WT == 0] = 0.0  # the negative powers of 0 are inf
    elif p == -1 and math.isfinite(1.0 / rel._min_weight):
        # 1/x is monotone and correctly rounded, so 1/min(W) is the largest
        # reverse weight: when it is finite, so is every other one, and no
        # finiteness scan is needed.
        return out
    # ``out`` is 0 wherever W is, so equal nonzero counts mean no related
    # pair's reverse weight underflowed to 0.
    if not np.isfinite(out).all() or np.count_nonzero(out) != np.count_nonzero(W):
        bad = ~np.isfinite(out.T) | ((out.T == 0) & (W > 0))
        i, j = _first_cell(bad)
        value = float(out[j, i])
        kind = "zero" if value == 0 else "non-finite"
        raise errors.TransformDomainError(
            f"{transform.describe()} transform maps weight {float(W[i, j])!r} "
            f"at row {i}, column {j} of the weight matrix to the {kind} "
            f"reverse weight {value!r}"
        )
    return out


def _table_reverse(W: FloatArray, table: Mapping[float, float]) -> FloatArray:
    """:func:`reverse_matrix` for a lookup table: every cell is looked up
    among the sorted table keys by exact equality, in one pass."""
    keys = np.fromiter(table.keys(), np.float64, len(table))
    order = np.argsort(keys)
    keys = keys[order]
    values = np.fromiter(table.values(), np.float64, len(table))[order]
    pos = np.searchsorted(keys, W)
    np.minimum(pos, keys.size - 1, out=pos)
    related = W > 0
    missing = related & (keys[pos] != W)
    if missing.any():
        i, j = _first_cell(missing)
        raise errors.TransformDomainError(
            f"table transform has no entry for weight {float(W[i, j])!r} "
            f"at row {i}, column {j} of the weight matrix"
        )
    return np.where(related.T, values[pos].T, 0.0)


def _first_cell(mask: np.ndarray) -> tuple[int, int]:
    """Row and column of the first True cell of a 2-D mask, in row-major order."""
    return divmod(int(np.argmax(mask)), mask.shape[1])


@dataclass(frozen=True)
class ValidationReport:
    """Per-check outcome of :func:`validate`; ``ok`` iff no violations.
    ``products_irreducible`` is read off the pattern of W alone, always."""

    all_positive: bool
    transform_applicable: bool
    products_irreducible: bool
    zero_rows: tuple[int, ...]
    zero_columns: tuple[int, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(rel: WeightRelation, transform: ReverseTransform) -> ValidationReport:
    """Check the relation/transform pair against the solver's hypotheses.

    Pure report, never raises. Checks, in order: positivity of the weight
    matrix, zero weights under a transform that wants fully positive data
    (reciprocal and negative powers), zero rows/columns, the reverse matrix
    (tables must cover every observed weight; no reverse weight may
    overflow to infinity or underflow to 0), and irreducibility of both
    rating products. Every violation found is listed. The reverse matrix
    is built only once the zero-weight check passes, so a map refused for
    a zero weight builds none. The zero lines, the first zero weight and
    irreducibility are read off the zero pattern of W, which every reverse
    matrix shares transposed, so each relation finds them once, in one
    pass (none when W is positive; no search when a line is empty), and
    irreducibility is reported whether or not the reverse matrix was built.
    :func:`~bicentral.centrality.compute_nebs` refuses exactly the inputs
    this report flags, with its violations as message.
    """
    return _validate(rel, transform)[0]


def _validate(
    rel: WeightRelation, transform: ReverseTransform
) -> tuple[ValidationReport, Optional[FloatArray]]:
    """:func:`validate`, plus the reverse matrix it built (None when the
    transform does not apply), so callers need not build it again."""
    violations: list[str] = []

    all_positive = rel.is_positive()
    zero_rows, zero_columns, first_zero, connected = rel._pattern_facts

    transform_applicable = all_positive or not transform.requires_all_positive()
    if not transform_applicable:
        i, j = first_zero
        violations.append(
            f"{transform.kind} transform applied to zero entry at row {i} "
            f"({rel.b_labels[i]!r}), column {j} ({rel.a_labels[j]!r}); "
            "it requires every weight to be positive"
        )
    for i in zero_rows:
        violations.append(
            f"row {i} ({rel.b_labels[i]!r}) has no positive weights, which "
            "makes the rating products reducible"
        )
    for j in zero_columns:
        violations.append(
            f"column {j} ({rel.a_labels[j]!r}) has no positive weights, "
            "which makes the rating products reducible"
        )

    reverse = None
    if transform_applicable:
        try:
            reverse = reverse_matrix(rel, transform)
        except errors.TransformDomainError as exc:
            transform_applicable = False
            violations.append(str(exc))
    if not connected:
        violations.append(_REDUCIBLE_PRODUCTS)

    report = ValidationReport(
        all_positive=all_positive,
        transform_applicable=transform_applicable,
        products_irreducible=connected,
        zero_rows=zero_rows,
        zero_columns=zero_columns,
        violations=tuple(violations),
    )
    return report, reverse


@dataclass(frozen=True)
class Diagnostic:
    """Structured warning attached to a result; never fatal."""

    code: str
    message: str
    side: str


@dataclass(frozen=True, eq=False)
class NecsResult:
    """Unit-norm positive rating vector of a single vertex set.

    ``eigenvalue`` is the dominant eigenvalue (A c = eigenvalue * c);
    its reciprocal is the proportionality coefficient in the linear rating
    equations c_i = coeff * sum_j A[i, j] c_j. ``c`` is held in C order,
    read-only over an immutable ``bytes`` copy.
    """

    c: FloatArray
    eigenvalue: float
    convergence: ConvergenceReport
    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _frozen(self.c))

    @property
    def rating_coefficient(self) -> float:
        return 1.0 / self.eigenvalue


@dataclass(frozen=True, eq=False)
class NebsResult:
    """Coupled unit-norm positive rating pair for a two-sided relation.

    The solve determines the coupling constants alpha = ||W a|| and
    beta = ||W' b||; the rest is derived from them: the vectors satisfy
    b = lambda_ * W a and a = mu * W' b at the solver's tolerance, with
    lambda_ = 1/alpha and mu = 1/beta, and ``rho`` = alpha * beta is the
    shared dominant eigenvalue of the two rating products. ``a`` and ``b``
    are held in C order, read-only over immutable ``bytes`` copies.
    """

    a: FloatArray
    b: FloatArray
    alpha: float
    beta: float
    convergence: ConvergenceReport
    warnings: tuple[Diagnostic, ...] = field(default=())
    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def lambda_(self) -> float:
        return 1.0 / self.alpha

    @property
    def mu(self) -> float:
        return 1.0 / self.beta

    @property
    def rho(self) -> float:
        return self.alpha * self.beta
