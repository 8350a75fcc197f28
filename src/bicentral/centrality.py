"""Rating algorithms: one-sided centrality, coupled two-sided ratings,
average baselines, degeneracy detection, and reverse-weight design.

The two-sided solver finds a as the Perron vector of W'W, applied as
x -> W'(W x) without ever forming the product, and sets b = normalize(W a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bicentral import errors
from bicentral.core import (
    Diagnostic,
    NebsResult,
    NecsResult,
    ReverseTransform,
    WeightRelation,
    _REDUCIBLE_PRODUCTS,
    _frozen,
    _rebuilt,
    _validate,
)
from bicentral.spectral import (
    ConvergenceReport,
    FloatArray,
    PowerSettings,
    _SAFE_MIN,
    _admit,
    _nonempty,
    _norm,
    _perron_krylov,
    _relation_facts,
    _square,
    is_irreducible,
)

#: Score gap at or below which two rating entries count as tied.
DEFAULT_TIE_TOL = 1e-9

#: Row-sum gap, relative to the largest row sum, at or below which a rating
#: product is flagged degenerate.
DEFAULT_DEGENERACY_TOL = 1e-9

CONSTANT_A_VECTOR = "CONSTANT_A_VECTOR"
CONSTANT_B_VECTOR = "CONSTANT_B_VECTOR"
SCALAR_OVERFLOW = "SCALAR_OVERFLOW"


@dataclass(frozen=True, eq=False)
class RatingTable:
    """Scores sorted descending with competition ranks and tie flags.

    One column per field, all in output order: ``label_order`` (the labels),
    ``scores`` (float64), ``ranks`` (int) and ``tied`` (bool). The arrays are
    held in C order, read-only over immutable ``bytes`` copies.
    """

    label_order: tuple[str, ...]
    scores: FloatArray
    ranks: np.ndarray
    tied: np.ndarray
    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        labels = tuple(self.label_order)
        for name, dtype in (("scores", np.float64), ("ranks", np.int64), ("tied", bool)):
            column = _frozen(getattr(self, name), dtype)
            if column.shape != (len(labels),):
                raise errors.DimensionMismatch(
                    f"{name} has shape {column.shape} against {len(labels)} labels"
                )
            object.__setattr__(self, name, column)
        object.__setattr__(self, "label_order", labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatingTable):
            return NotImplemented
        return (
            self.label_order == other.label_order
            and np.array_equal(self.scores, other.scores)
            and np.array_equal(self.ranks, other.ranks)
            and np.array_equal(self.tied, other.tied)
        )


@dataclass(frozen=True, eq=False)
class BaselineAverages:
    """Per-item mean weights: a_bar averages each column over the b-items,
    b_bar averages each row over the a-items. Plain arrays, not frozen."""

    a_bar: FloatArray
    b_bar: FloatArray


@dataclass(frozen=True, eq=False)
class ReverseConstruction:
    """Output of :func:`construct_reverse_for_target`: the reverse matrix,
    the lookup transform realizing it, mu = ||W t|| and lambda_ = 1/mu.
    The matrix is a plain array, not frozen."""

    reverse_weights: FloatArray
    transform: ReverseTransform
    mu: float

    @property
    def lambda_(self) -> float:
        return 1.0 / self.mu


def compute_necs(
    adjacency: FloatArray,
    settings: PowerSettings | None = None,
) -> NecsResult:
    """Unit-norm positive rating vector of a strongly connected digraph.

    adjacency[i][j] is the weight of the edge from vertex j to vertex i, so
    each rating is proportional to the weighted sum of the ratings of the
    vertices pointing at it. The gate refuses a zero or reducible matrix
    before :func:`~bicentral.spectral._perron_krylov` runs on x -> M x;
    ``settings.max_iterations`` bounds the products with M. The eigenvalue
    is ||M c||, which equals rho(M) at the fixed point.

    Raises:
        DimensionMismatch: the matrix is empty or not square.
        ValueError: some entry is negative or not finite.
        NonPositiveEigenvalue: the matrix is zero.
        NotIrreducible: the nonzero pattern is not strongly connected.
        ZeroVector: a product vanished or overflowed.
        PreconditionFailed: the computed rating is not strictly positive.
        NoConvergence: iteration budget exhausted.
    """
    M = _square(adjacency, np.float64)
    if not _admit(M)[1] > 0:
        raise errors.NonPositiveEigenvalue("zero adjacency matrix has spectral radius 0")
    if not is_irreducible(M):
        raise errors.NotIrreducible(
            "adjacency pattern is not strongly connected; ratings would not "
            "be unique"
        )
    c, report = _perron_krylov(M.dot, M.shape[0], settings)
    _, eigenvalue = _unit(M, c)
    _require_positive(c)
    return NecsResult(c=c, eigenvalue=eigenvalue, convergence=report)


def power_iterate(
    matrix: FloatArray,
    settings: PowerSettings | None = None,
) -> tuple[FloatArray, float, ConvergenceReport]:
    """:func:`compute_necs` as ``(c, eigenvalue, convergence)``, with ``c``
    the result's read-only copy. Importable from :mod:`bicentral` for the
    benchmark harness only; not part of the public API."""
    result = compute_necs(matrix, settings)
    return result.c, result.eigenvalue, result.convergence


def alternating_iterate(
    weights: FloatArray,
    reverse_weights: FloatArray,
    settings: PowerSettings | None = None,
) -> tuple[FloatArray, FloatArray, ConvergenceReport]:
    """Coupled fixed point of b = normalize(W a), a = normalize(W' b).

    a is the Perron vector of W'W, found by
    :func:`~bicentral.spectral._perron_krylov` on x -> W'(W x), and
    b = normalize(W a). One iteration is one such product pair. A positive
    pair passes the pattern checks by construction and skips them. W is
    multiplied in C order and W' in F order, whatever layouts they are given
    in, so the result depends on their values alone and equals, bit for bit,
    the solve of :func:`compute_nebs` on a relation with those weights.
    Importable from :mod:`bicentral` for the benchmark harness only; not part
    of the public API, where :func:`compute_nebs` is the two-sided solve.

    Raises:
        DimensionMismatch: W is empty or not 2-D, or the reverse weights are
            not shaped like W'.
        ValueError: some weight is negative or not finite, or W' lacks the
            zero pattern of W transposed that ``reverse_matrix`` gives.
        PreconditionFailed: W W' or W' W is reducible, or a rating is not positive.
        ZeroVector: a product collapsed to zero or overflowed.
        NoConvergence: iteration budget exhausted.
    """
    W, Wp, positive = _pair(weights, reverse_weights)
    if not positive:
        pattern = W != 0
        if not np.array_equal(pattern, Wp.T != 0):
            raise ValueError("reverse weights must have the zero pattern of W transposed")
        if not _relation_facts(pattern)[3]:
            raise errors.PreconditionFailed(_REDUCIBLE_PRODUCTS)
    a, b, _, report = _coupled_perron(W, Wp, settings)
    return a, b, report


def _pair(weights, reverse_weights) -> tuple[FloatArray, FloatArray, bool]:
    """Float W in C order and W' in F order, the layouts of a relation's
    weights and of :func:`~bicentral.core.reverse_matrix`, so the products
    are those :func:`compute_nebs` forms; both admitted before either minimum
    is read, and whether both are positive. DimensionMismatch unless W is
    nonempty 2-D and W' fits W.T."""
    W = _nonempty(weights, np.float64)
    Wp = np.asarray(reverse_weights, dtype=np.float64, order="F")
    if Wp.shape != W.shape[::-1]:
        raise errors.DimensionMismatch(
            f"reverse weights must be {W.shape[1]}x{W.shape[0]}, got {Wp.shape}"
        )
    return W, Wp, min(_admit(W)[0], _admit(Wp)[0]) > 0


def _coupled_perron(
    W: FloatArray, Wp: FloatArray, settings: PowerSettings | None
) -> tuple[FloatArray, FloatArray, float, ConvergenceReport]:
    """a, b = normalize(W a), alpha = ||W a||, report; PreconditionFailed unless a, b > 0."""
    a, report = _perron_krylov(lambda x: Wp.dot(W.dot(x)), W.shape[1], settings)
    b, alpha = _unit(W, a)
    _require_positive(a, b)
    return a, b, alpha, report


def _unit(A: FloatArray, x: FloatArray) -> tuple[FloatArray, float]:
    """``(A x / ||A x||, ||A x||)`` by :func:`~bicentral.spectral._norm`;
    ZeroVector unless the norm is positive and finite."""
    with np.errstate(over="ignore"):
        image = A @ x
        norm = _norm(image)
    if not 0.0 < norm < math.inf:
        raise errors.ZeroVector("rating update collapsed to the zero vector")
    return image / norm, norm


def _require_positive(*ratings: FloatArray) -> None:
    """PreconditionFailed unless every entry of every rating vector is positive."""
    if not all(np.all(r > 0) for r in ratings):
        raise errors.PreconditionFailed(
            "computed ratings are not strictly positive; the input violates "
            "the solver's hypotheses"
        )


def compute_nebs(
    rel: WeightRelation,
    transform: ReverseTransform,
    settings: PowerSettings | None = None,
) -> NebsResult:
    """Coupled unit-norm positive ratings for a two-sided weight relation.

    Solvable when the weight matrix is entrywise positive, or, failing that,
    when both rating products (W W' and W' W) are irreducible, and the
    transform applies to every observed weight. Exactly the inputs that
    :func:`~bicentral.core.validate` flags are refused, with its violations
    joined by "; " as the message. The solver alternates through W and W'
    without forming the products. The warnings are the degeneracy ones of
    :func:`detect_degeneracy`, then a SCALAR_OVERFLOW for lambda_ (side b)
    or mu (side a) when it is beyond the double range.

    Raises:
        TransformDomainError: the report says the transform does not apply
            (a zero weight under ``reciprocal`` or a negative power, a table
            gap, or a non-finite or vanishing reverse weight).
        PreconditionFailed: any other violation (a zero row or column, or
            reducible products), or the computed ratings are not strictly
            positive.
        NoConvergence: iteration budget exhausted.
    """
    checks, Wp = _validate(rel, transform)
    if not checks.ok:
        error = (
            errors.PreconditionFailed
            if checks.transform_applicable
            else errors.TransformDomainError
        )
        raise error("; ".join(checks.violations))
    a, b, alpha, report = _coupled_perron(rel.weights, Wp, settings)
    _, beta = _unit(Wp, b)
    return NebsResult(
        a=a,
        b=b,
        alpha=alpha,
        beta=beta,
        convergence=report,
        warnings=_degeneracy(rel.weights, Wp) + _scalar_overflow(alpha, beta),
    )


def _scalar_overflow(alpha: float, beta: float) -> tuple[Diagnostic, ...]:
    """One SCALAR_OVERFLOW warning for each of lambda = 1/alpha (side b) and
    mu = 1/beta (side a) that is beyond the double range, which reports
    write as null. alpha and beta are positive finite norms, so only their
    reciprocals can leave the range."""
    return tuple(
        Diagnostic(
            code=SCALAR_OVERFLOW,
            message=(
                f"{name} = 1/{norm}, with {norm} = {formula}, is beyond the "
                "double range"
            ),
            side=side,
        )
        for name, norm, formula, side, value in (
            ("lambda", "alpha", "||W a||", "b", alpha),
            ("mu", "beta", "||W' b||", "a", beta),
        )
        if not math.isfinite(1.0 / value)
    )


def baseline_averages(rel: WeightRelation) -> BaselineAverages:
    """Plain mean-weight baselines: a_bar[j] = mean over rows of column j,
    b_bar[i] = mean over columns of row i."""
    W = rel.weights
    return BaselineAverages(a_bar=_line_means(W, 0), b_bar=_line_means(W, 1))


def _line_means(W: FloatArray, axis: int) -> FloatArray:
    """``W.mean(axis)``, where a line whose sum overflows is averaged again
    scaled by 2^-k, with 2^k at least its length, and scaled back; powers of
    two are exact, so the means in range are untouched."""
    with np.errstate(over="ignore"):
        means = W.mean(axis=axis)
    lost = ~np.isfinite(means)
    if lost.any():
        k = (W.shape[axis] - 1).bit_length()
        lines = np.compress(lost, W, axis=1 - axis)
        means[lost] = np.ldexp(np.ldexp(lines, -k).mean(axis=axis), k)
    return means


def detect_degeneracy(
    weights: FloatArray,
    reverse_weights: FloatArray,
) -> tuple[Diagnostic, ...]:
    """Warn when a rating product has equal row sums.

    Equal row sums make the all-ones vector dominant, so the corresponding
    rating vector is constant and every item on that side ties. Row sums
    count as equal when their spread is at most DEFAULT_DEGENERACY_TOL times
    the largest one, so the verdict does not depend on the scale of W or W'.
    The row sums come from W (W' 1) and W' (W 1), so neither product is
    formed; W is read in C order and W' in F order, as :func:`compute_nebs`
    reads them, so the warnings depend on the values alone and are those
    of its result.

    Raises:
        DimensionMismatch: W is empty or not 2-D, or W' is not shaped like
            its transpose.
        ValueError: some weight is negative or not finite.
    """
    W, Wp, _ = _pair(weights, reverse_weights)
    return _degeneracy(W, Wp)


def _degeneracy(W: FloatArray, Wp: FloatArray) -> tuple[Diagnostic, ...]:
    """:func:`detect_degeneracy` on a W and W' already admitted."""
    b_sums, a_sums = _product_row_sums(W, Wp)
    if not all(_SAFE_MIN <= s.max() < math.inf for s in (b_sums, a_sums)):
        # Powers of two scale each product's row sums by one power of two,
        # exactly, so the verdict is the one the unscaled sums would give.
        b_sums, a_sums = _product_row_sums(
            np.ldexp(W, -math.frexp(W.max())[1]),
            np.ldexp(Wp, -math.frexp(Wp.max())[1]),
        )
    found: list[Diagnostic] = []
    for side, code, sums in (
        ("b", CONSTANT_B_VECTOR, b_sums),
        ("a", CONSTANT_A_VECTOR, a_sums),
    ):
        if sums.max() - sums.min() <= DEFAULT_DEGENERACY_TOL * sums.max():
            message = (
                f"{side}-side rating product has equal row sums; all "
                f"{side}-item ratings coincide"
            )
            found.append(Diagnostic(code=code, message=message, side=side))
    return tuple(found)


def _product_row_sums(W: FloatArray, Wp: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Row sums of W W' and W' W, without forming either product; an
    overflowed sum is inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return W @ Wp.sum(axis=1), Wp @ W.sum(axis=1)


def construct_reverse_for_target(
    weights: FloatArray,
    a_target: FloatArray,
) -> ReverseConstruction:
    """Reverse weights that make ``a_target`` the exact a-side rating.

    For a positive weight matrix with pairwise distinct entries and any
    positive unit vector t, the constant-row reverse matrix with row j equal
    to t[j] / sum(W t) satisfies W' W t = t exactly, so solving the coupled
    system returns t itself. Because the entries of W are distinct, the map
    from observed weight to reverse weight is a well-defined lookup table,
    which is returned alongside the matrix. W is multiplied in C order,
    whatever layout it is given in, so every result depends on its values
    alone.

    Raises:
        DistinctnessViolation: duplicate entries in the weight matrix.
        DimensionMismatch: the weights are empty or not 2-D, or the target
            length does not match the column count.
        ValueError: some weight is negative or not finite.
        PreconditionFailed: a zero weight, a nonpositive target entry, a
            target not of unit norm, or a reverse weight that underflows to
            0 or overflows.
    """
    W = _nonempty(weights, np.float64)
    low, _ = _admit(W)
    m, n = W.shape
    if np.unique(W).size != W.size:
        raise errors.DistinctnessViolation(
            "weight matrix entries must be pairwise distinct for the "
            "observed-weight lookup to be a function"
        )
    if not low > 0:
        raise errors.PreconditionFailed("weight matrix must be entrywise positive")
    t = np.asarray(a_target, dtype=np.float64)
    if t.shape != (n,):
        raise errors.DimensionMismatch(
            f"target has shape {t.shape}, expected ({n},)"
        )
    if not np.all(t > 0):
        raise errors.PreconditionFailed("target vector must be entrywise positive")
    with np.errstate(over="ignore"):
        length = _norm(t)
    if abs(length - 1.0) > 1e-8:
        raise errors.PreconditionFailed("target vector must have Euclidean norm 1")

    image, mu = _unit(W, t)
    # sum(W t) = mu * sum(image) can overflow while mu is finite, so t is
    # divided by the two factors in turn.
    with np.errstate(over="ignore"):
        row_values = t / float(image.sum()) / mu
    if not np.all((row_values > 0) & (row_values < math.inf)):
        raise errors.PreconditionFailed(
            "reverse weights t / sum(W t) leave the double range"
        )
    reverse = np.repeat(row_values[:, None], m, axis=1)
    # Cells in row-major order; the entries are distinct, so no key repeats.
    mapping = dict(zip(W.ravel().tolist(), np.tile(row_values, m).tolist()))
    return ReverseConstruction(
        reverse_weights=reverse,
        transform=ReverseTransform.from_table(mapping),
        mu=mu,
    )


def rank(
    scores: FloatArray,
    labels: Sequence[str],
    tie_tol: float = DEFAULT_TIE_TOL,
) -> RatingTable:
    """Competition-ranked table of scores, highest first.

    ``labels`` must be ``str``, one per score; the table keeps them as given.
    Entries whose scores sit within ``tie_tol`` of a group's top score share
    that group's rank (the next distinct score skips the swallowed ranks),
    and tied groups keep their input order. The ``tied`` flag is pairwise:
    an entry is tied when any other entry's score is within ``tie_tol``.
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 1 or values.size != len(labels):
        raise errors.DimensionMismatch(
            f"{values.shape} scores against {len(labels)} labels"
        )
    if not tie_tol >= 0:
        raise ValueError("tie_tol must be nonnegative")

    n = values.size
    order = np.argsort(-values, kind="stable")
    sorted_values = values[order]
    close = sorted_values[:-1] - sorted_values[1:] <= tie_tol
    label = labels.__getitem__
    if not close.any():
        # No two scores are close: the stable order is the table.
        return RatingTable(
            label_order=tuple(map(label, order.tolist())),
            scores=sorted_values,
            ranks=np.arange(1, n + 1),
            tied=np.zeros(n, dtype=bool),
        )
    tied = np.zeros(n, dtype=bool)
    tied[:-1] = close
    tied[1:] |= close
    # A group starts wherever the gap to the previous score exceeds tie_tol.
    # Inside a run of close gaps, an entry also starts a group when it falls
    # more than tie_tol below the current group's leader.
    starts = np.ones(n, dtype=bool)
    starts[1:] = ~close
    leader = 0
    for pos in (np.flatnonzero(close) + 1).tolist():
        if starts[pos - 1]:
            leader = pos - 1
        if not sorted_values[leader] - sorted_values[pos] <= tie_tol:
            starts[pos] = True
            leader = pos
    group_start = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    # Groups in score order; inside a group, input order. The key is unique
    # and below n * n, which fits int64 for any n that fits in memory.
    emit = np.argsort(group_start * n + order, kind="stable")
    return RatingTable(
        label_order=tuple(map(label, order[emit].tolist())),
        scores=sorted_values[emit],
        ranks=group_start[emit] + 1,
        tied=tied[emit],
    )
