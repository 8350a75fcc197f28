"""Rating algorithms: one-sided centrality, coupled two-sided ratings,
average baselines, degeneracy detection, and reverse-weight design.

The two-sided solver alternates b <- normalize(W a), a <- normalize(W' b),
which is power iteration on the rating products observed through W without
ever forming them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from bicentral import errors
from bicentral.core import (
    Diagnostic,
    NebsResult,
    NecsResult,
    ReverseTransform,
    WeightRelation,
    _validate,
)
from bicentral.spectral import (
    ConvergenceReport,
    FloatArray,
    PowerSettings,
    _matvec,
    _rate_estimate,
    is_irreducible,
    power_iterate,
)

#: Score gap at or below which two rating entries count as tied.
DEFAULT_TIE_TOL = 1e-9

#: Row-sum gap at or below which a rating product is flagged degenerate.
DEFAULT_DEGENERACY_TOL = 1e-9

CONSTANT_A_VECTOR = "CONSTANT_A_VECTOR"
CONSTANT_B_VECTOR = "CONSTANT_B_VECTOR"

_COLLAPSED = "rating update collapsed to the zero vector"


@dataclass(frozen=True)
class RatingEntry:
    label: str
    score: float
    rank: int
    tied: bool


@dataclass(frozen=True)
class RatingTable:
    """Scores sorted descending with competition ranks and tie flags."""

    entries: tuple[RatingEntry, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)

    def has_ties(self) -> bool:
        return any(e.tied for e in self.entries)


@dataclass(frozen=True, eq=False)
class BaselineAverages:
    """Per-item mean weights: a_bar averages each column over the b-items,
    b_bar averages each row over the a-items."""

    a_bar: FloatArray
    b_bar: FloatArray


@dataclass(frozen=True, eq=False)
class ReverseConstruction:
    """Output of :func:`construct_reverse_for_target`: the reverse matrix,
    the lookup transform realizing it, and the induced scalars."""

    reverse_weights: FloatArray
    transform: ReverseTransform
    lambda_: float
    mu: float


def compute_necs(
    adjacency: FloatArray,
    settings: PowerSettings | None = None,
) -> NecsResult:
    """Unit-norm positive rating vector of a strongly connected digraph.

    adjacency[i][j] is the weight of the edge from vertex j to vertex i, so
    each rating is proportional to the weighted sum of the ratings of the
    vertices pointing at it.

    Raises:
        NotIrreducible: the nonzero pattern is not strongly connected.
        NonPositiveEigenvalue: the matrix is zero.
        NoConvergence: iteration budget exhausted.
    """
    A = np.asarray(adjacency, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise errors.DimensionMismatch(f"adjacency must be square, got {A.shape}")
    if np.any(A < 0) or not np.all(np.isfinite(A)):
        raise ValueError("adjacency entries must be finite and nonnegative")
    if not A.any():
        raise errors.NonPositiveEigenvalue(
            "zero adjacency matrix has spectral radius 0"
        )
    if not is_irreducible(A):
        raise errors.NotIrreducible(
            "adjacency pattern is not strongly connected; ratings would not "
            "be unique"
        )
    c, eigenvalue, report = power_iterate(A, settings)
    if eigenvalue <= 0:
        raise errors.NonPositiveEigenvalue(
            f"dominant eigenvalue estimate {eigenvalue!r} is not positive"
        )
    return NecsResult(c=c, eigenvalue=eigenvalue, convergence=report)


def alternating_iterate(
    weights: FloatArray,
    reverse_weights: FloatArray,
    settings: PowerSettings | None = None,
) -> tuple[FloatArray, FloatArray, ConvergenceReport]:
    """Coupled fixed point of b = normalize(W a), a = normalize(W' b).

    One iteration is a full sweep (update a from b, then b from a); the
    recorded residual is the larger of the two normalized step differences.
    The optional initial vector seeds the a side.

    Raises:
        DimensionMismatch: the reverse weights are not shaped like W'.
        ValueError: some weight is negative or not finite.
        ZeroVector: a product collapsed to zero.
        NoConvergence: iteration budget exhausted.
    """
    W = np.asarray(weights, dtype=np.float64)
    Wp = np.asarray(reverse_weights, dtype=np.float64)
    if W.ndim != 2 or Wp.ndim != 2 or Wp.shape != (W.shape[1], W.shape[0]):
        raise errors.DimensionMismatch(
            f"reverse weights must be {W.shape[1]}x{W.shape[0]}, got {Wp.shape}"
        )
    for M in (W, Wp):
        if np.any(M < 0) or not np.all(np.isfinite(M)):
            raise ValueError("weights must be finite and nonnegative")
    return _alternating_loop(W, Wp, settings)


def _alternating_loop(
    W: FloatArray,
    Wp: FloatArray,
    settings: PowerSettings | None,
) -> tuple[FloatArray, FloatArray, ConvergenceReport]:
    """:func:`alternating_iterate` on float64 weights already checked."""
    if settings is None:
        settings = PowerSettings()
    m, n = W.shape
    W_dot = _matvec(W)
    Wp_dot = _matvec(Wp)

    # sqrt(x.dot(x)) is what np.linalg.norm computes for a real 1-D array,
    # and in-place division rounds as v / norm does, so the iterates and
    # residuals match the norm-based formulation bit for bit. The iterate
    # [a | b] ping-pongs between x and y, and one subtraction over the whole
    # buffer gives both step differences, so no sweep allocates.
    sqrt = math.sqrt
    x, y, step = np.empty((3, n + m))
    x_a, x_b, y_a, y_b = x[:n], x[n:], y[:n], y[n:]
    step_a, step_b = step[:n], step[n:]
    x_a[...] = settings.start_vector(n)
    W_dot(x_a, out=x_b)
    norm = sqrt(x_b.dot(x_b))
    if norm == 0.0:
        raise errors.ZeroVector(_COLLAPSED)
    x_b /= norm
    tol = settings.tolerance
    trace: list[float] = []
    for _ in range(settings.max_iterations):
        Wp_dot(x_b, out=y_a)
        norm = sqrt(y_a.dot(y_a))
        if norm == 0.0:
            raise errors.ZeroVector(_COLLAPSED)
        y_a /= norm
        W_dot(y_a, out=y_b)
        norm = sqrt(y_b.dot(y_b))
        if norm == 0.0:
            raise errors.ZeroVector(_COLLAPSED)
        y_b /= norm
        np.subtract(y, x, out=step)
        ra = sqrt(step_a.dot(step_a))
        rb = sqrt(step_b.dot(step_b))
        # max(ra, rb), NaN included: the second only wins when strictly larger.
        residual = rb if rb > ra else ra
        trace.append(residual)
        x, x_a, x_b, y, y_a, y_b = y, y_a, y_b, x, x_a, x_b
        if residual <= tol:
            report = ConvergenceReport(
                iterations=len(trace),
                final_residual=residual,
                tolerance=tol,
                residual_trace=tuple(trace),
                rate_estimate=_rate_estimate(trace),
            )
            return x_a.copy(), x_b.copy(), report
    raise errors.NoConvergence(len(trace), trace[-1])


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
    without forming the products.

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
    W = rel.weights

    a, b, report = _alternating_loop(W, Wp, settings)

    if not (np.all(a > 0) and np.all(b > 0)):
        raise errors.PreconditionFailed(
            "computed ratings are not strictly positive; the input violates "
            "the solver's hypotheses"
        )

    alpha = float(np.linalg.norm(W @ a))
    beta = float(np.linalg.norm(Wp @ b))
    return NebsResult(
        a=a,
        b=b,
        lambda_=1.0 / alpha,
        mu=1.0 / beta,
        rho=alpha * beta,
        alpha=alpha,
        beta=beta,
        convergence=report,
        warnings=detect_degeneracy(W, Wp),
    )


def baseline_averages(rel: WeightRelation) -> BaselineAverages:
    """Plain mean-weight baselines: a_bar[j] = mean over rows of column j,
    b_bar[i] = mean over columns of row i."""
    W = rel.weights
    return BaselineAverages(a_bar=W.mean(axis=0), b_bar=W.mean(axis=1))


def detect_degeneracy(
    weights: FloatArray,
    reverse_weights: FloatArray,
    tol: float = DEFAULT_DEGENERACY_TOL,
) -> tuple[Diagnostic, ...]:
    """Warn when a rating product has equal row sums.

    Equal row sums make the all-ones vector dominant, so the corresponding
    rating vector is constant and every item on that side ties. The row sums
    come from W (W' 1) and W' (W 1), so neither product is formed.
    """
    W = np.asarray(weights, dtype=np.float64)
    Wp = np.asarray(reverse_weights, dtype=np.float64)
    if W.ndim != 2 or Wp.shape != W.shape[::-1]:
        raise errors.DimensionMismatch(
            f"reverse weights must be {W.shape[::-1]}, got {Wp.shape}"
        )
    if not (tol > 0):
        raise ValueError("tol must be positive")

    def equal(sums: FloatArray) -> bool:
        return float(sums.max() - sums.min()) <= tol

    found: list[Diagnostic] = []
    # Row sums of W W' and W' W, without forming either product.
    if equal(W @ Wp.sum(axis=1)):
        found.append(
            Diagnostic(
                code=CONSTANT_B_VECTOR,
                message=(
                    "b-side rating product has equal row sums; all b-item "
                    "ratings coincide"
                ),
                side="b",
            )
        )
    if equal(Wp @ W.sum(axis=1)):
        found.append(
            Diagnostic(
                code=CONSTANT_A_VECTOR,
                message=(
                    "a-side rating product has equal row sums; all a-item "
                    "ratings coincide"
                ),
                side="a",
            )
        )
    return tuple(found)


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
    which is returned alongside the matrix.

    Raises:
        DistinctnessViolation: duplicate entries in the weight matrix.
        DimensionMismatch: target length does not match the column count.
        PreconditionFailed: nonpositive weights or target, or target not
            unit norm.
    """
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2:
        raise errors.DimensionMismatch(f"weights must be 2-D, got shape {W.shape}")
    m, n = W.shape
    if np.unique(W).size != W.size:
        raise errors.DistinctnessViolation(
            "weight matrix entries must be pairwise distinct for the "
            "observed-weight lookup to be a function"
        )
    if not (W.min() > 0):
        raise errors.PreconditionFailed("weight matrix must be entrywise positive")
    t = np.asarray(a_target, dtype=np.float64)
    if t.shape != (n,):
        raise errors.DimensionMismatch(
            f"target has shape {t.shape}, expected ({n},)"
        )
    if not np.all(t > 0):
        raise errors.PreconditionFailed("target vector must be entrywise positive")
    if abs(np.linalg.norm(t) - 1.0) > 1e-8:
        raise errors.PreconditionFailed("target vector must have Euclidean norm 1")

    image = W @ t
    scale = float(image.sum())
    row_values = t / scale
    reverse = np.repeat(row_values[:, None], m, axis=1)
    mapping = {
        float(W[i, j]): float(row_values[j]) for i in range(m) for j in range(n)
    }
    alpha = float(np.linalg.norm(image))
    return ReverseConstruction(
        reverse_weights=reverse,
        transform=ReverseTransform.from_table(mapping),
        lambda_=1.0 / alpha,
        mu=alpha,
    )


def rank(
    scores: FloatArray,
    labels: Sequence[str],
    tie_tol: float = DEFAULT_TIE_TOL,
) -> RatingTable:
    """Competition-ranked table of scores, highest first.

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
    if tie_tol < 0:
        raise ValueError("tie_tol must be nonnegative")

    n = values.size
    order = np.argsort(-values, kind="stable")
    sorted_values = values[order]
    close = sorted_values[:-1] - sorted_values[1:] <= tie_tol
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
    positions = np.arange(n)
    group_start = np.maximum.accumulate(np.where(starts, positions, 0))
    # Groups in score order; inside a group, input order.
    emit = np.lexsort((order, group_start)) if close.any() else positions
    return RatingTable(
        entries=tuple(
            map(
                RatingEntry,
                [str(labels[idx]) for idx in order[emit].tolist()],
                sorted_values[emit].tolist(),
                (group_start[emit] + 1).tolist(),
                tied[emit].tolist(),
            )
        )
    )
