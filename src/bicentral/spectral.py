"""Dominant-eigenpair machinery for nonnegative matrices.

Two pieces live here:

* :func:`power_iterate` — a normalized power loop with a spectral-shift guard
  for periodic nonzero patterns;
* :func:`is_irreducible` — strong connectivity of the nonzero pattern, the
  hypothesis under which the dominant eigenpair is unique, and
  :func:`products_irreducible`, the same test for both rating products of a
  two-sided relation, read off the bipartite pattern of W and W'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from bicentral import errors

FloatArray = NDArray[np.float64]

#: Number of trailing residual ratios averaged into the empirical rate.
RATE_WINDOW = 10


@dataclass(frozen=True)
class PowerSettings:
    """Knobs for the power loop, which starts from the normalized all-ones
    vector.

    tolerance: stop once the normalized step difference drops this low.
    max_iterations: hard budget; exceeding it raises NoConvergence.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class ConvergenceReport:
    """What the iteration did: budget spent, residual history, rate estimate.

    ``rate_estimate`` is the geometric mean of successive residual ratios over
    the last RATE_WINDOW iterations, an empirical stand-in for the subdominant
    eigenvalue ratio; it is None when the run was too short or the ratios were
    not contracting. ``shifted`` records that the periodicity guard re-ran the
    loop on a diagonally shifted matrix.
    """

    iterations: int
    final_residual: float
    tolerance: float
    residual_trace: tuple[float, ...] = field(default=(), repr=False)
    rate_estimate: Optional[float] = None
    shifted: bool = False


def _rate_estimate(trace: Sequence[float]) -> Optional[float]:
    """Geometric-mean contraction over the last RATE_WINDOW residual ratios."""
    if len(trace) < RATE_WINDOW + 1:
        return None
    window = trace[-(RATE_WINDOW + 1):]
    if any(r <= 0 for r in window):
        return None
    rate = (window[-1] / window[0]) ** (1.0 / RATE_WINDOW)
    return rate if 0.0 < rate < 1.0 else None


def _matvec(matrix: FloatArray) -> Callable[..., FloatArray]:
    """``matvec(x, out=y)`` that writes ``matrix @ x`` into ``y`` bit for bit.

    ``ndarray.dot`` is the cheapest in-place product, and on a C- or
    F-contiguous matrix it calls the same BLAS kernel as ``@``. On any other
    layout (a column slice, reversed rows) it copies the matrix and calls
    BLAS, while ``@`` runs numpy's own loop, and the two round differently;
    ``np.matmul`` with ``out=`` takes the same path as ``@`` there.
    """
    if matrix.flags.c_contiguous or matrix.flags.f_contiguous:
        return matrix.dot
    return partial(np.matmul, matrix)


def _power_loop(
    matrix: FloatArray,
    start: FloatArray,
    tolerance: float,
    budget: int,
    trace: list[float],
) -> tuple[FloatArray, bool]:
    """Run ``budget`` normalized steps; True on step-difference convergence.

    ``sqrt(x.dot(x))`` is what ``np.linalg.norm`` computes for a real 1-D
    array, so the iterates and residuals match the norm-based loop bit for
    bit without its per-call overhead. The iterate ping-pongs between two
    buffers allocated up front, so no step allocates.
    """
    matvec = _matvec(matrix)
    v = start.copy()
    w = np.empty_like(v)
    step = np.empty_like(v)
    for _ in range(budget):
        matvec(v, out=w)
        norm = math.sqrt(w.dot(w))
        if norm == 0.0:
            raise errors.ZeroVector(
                "iteration produced the zero vector; the matrix has a zero "
                "row aligned with the iterate's support"
            )
        w /= norm
        np.subtract(w, v, out=step)
        residual = math.sqrt(step.dot(step))
        trace.append(residual)
        v, w = w, v
        if residual <= tolerance:
            return v, True
    return v, False


def power_iterate(
    matrix: FloatArray,
    settings: PowerSettings | None = None,
) -> tuple[FloatArray, float, ConvergenceReport]:
    """Dominant eigenpair of a square nonnegative matrix by power iteration.

    Repeats v <- M v / ||M v|| until the normalized step difference falls
    below ``settings.tolerance``. If the plain loop has not converged after
    half the budget (the symptom of a periodic nonzero pattern), the loop
    restarts on M + tol*I, which has the same eigenvectors; the report's
    ``shifted`` flag records this.

    Returns:
        (v, eigenvalue, report) with ||v|| = 1, v >= 0 and
        eigenvalue = ||M v||, which equals rho(M) at the fixed point.

    Raises:
        ZeroVector: the iterate collapsed to zero.
        NoConvergence: budget exhausted.
    """
    if settings is None:
        settings = PowerSettings()
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise errors.DimensionMismatch(f"matrix must be square, got {M.shape}")
    if np.any(M < 0) or not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite and nonnegative")

    k = M.shape[0]
    v = np.full(k, 1.0 / math.sqrt(k))
    tol = settings.tolerance
    trace: list[float] = []

    plain_budget = max(1, settings.max_iterations // 2)
    v, converged = _power_loop(M, v, tol, plain_budget, trace)
    shifted = False
    if not converged:
        remaining = settings.max_iterations - len(trace)
        if remaining > 0:
            # Same eigenvectors, strictly positive diagonal: breaks the
            # oscillation of imprimitive patterns.
            shifted = True
            v, converged = _power_loop(M + tol * np.eye(k), v, tol, remaining, trace)

    if not converged:
        raise errors.NoConvergence(len(trace), trace[-1])

    image = M @ v
    eigenvalue = float(np.linalg.norm(image))
    report = ConvergenceReport(
        iterations=len(trace),
        final_residual=trace[-1],
        tolerance=tol,
        residual_trace=tuple(trace),
        rate_estimate=_rate_estimate(trace),
        shifted=shifted,
    )
    return v, eigenvalue, report


# ---------------------------------------------------------------------------
# Pattern checks.
# ---------------------------------------------------------------------------


def _reaches_all(steps: Sequence[NDArray[np.bool_]]) -> bool:
    """Whether vertex 0 of part 0 reaches every vertex of a cyclic digraph.

    The vertices fall into parts 0..r-1 and every edge leads from part t to
    part t+1 (mod r): ``steps[t][v, u]`` is the edge from vertex u of part t
    to vertex v of the next part. Each step expands the whole frontier with
    one boolean reduction over the frontier's columns, so every column is
    read at most once.
    """
    seen = [np.zeros(step.shape[1], dtype=bool) for step in steps]
    seen[0][0] = True
    frontier = seen[0].copy()
    part = 0
    while frontier.any():
        step = steps[part]
        part = (part + 1) % len(steps)
        frontier = step[:, frontier].any(axis=1) & ~seen[part]
        seen[part] |= frontier
    return all(s.all() for s in seen)


def is_irreducible(matrix: FloatArray) -> bool:
    """Whether the nonzero pattern's digraph is strongly connected.

    Vertex j points to vertex i whenever matrix[i][j] != 0. Vertex 0 must
    reach every vertex along the pattern and along its transpose. A 1x1
    matrix counts as irreducible whatever its entry.
    """
    M = np.asarray(matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise errors.DimensionMismatch(f"matrix must be square, got {M.shape}")
    if M.shape[0] == 1:
        return True
    pattern = M != 0
    return _reaches_all((pattern,)) and _reaches_all((pattern.T,))


def products_irreducible(weights: FloatArray, reverse_weights: FloatArray) -> bool:
    """Whether W W' and W' W are both irreducible, without forming them.

    W W'[i, k] != 0 exactly when some a-item j has W[i, j] != 0 and
    W'[j, k] != 0, so the products' digraphs are the two-step paths of the
    bipartite digraph on the m + n items with edges a_j -> b_i where
    W[i, j] != 0 and b_i -> a_j where W'[j, i] != 0. For nonnegative
    matrices both products are irreducible exactly when that digraph is
    strongly connected, except for 1x1 products, which :func:`is_irreducible`
    accepts whatever their entry; here a 1x1 relation needs both weights
    nonzero. The check reads each pattern entry at most once per direction.
    """
    W = np.asarray(weights) != 0
    Wp = np.asarray(reverse_weights) != 0
    if W.ndim != 2 or Wp.shape != W.shape[::-1]:
        raise errors.DimensionMismatch(
            f"reverse weights must be {W.shape[::-1]}, got {Wp.shape}"
        )
    return _reaches_all((Wp, W)) and _reaches_all((W.T, Wp.T))

