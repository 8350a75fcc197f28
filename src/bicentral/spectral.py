"""Dominant-eigenpair machinery for nonnegative matrices.

Two pieces live here:

* :func:`power_iterate` — a normalized power loop, shifted for periodic
  nonzero patterns, on the sweep loop the two-sided solver shares;
* :func:`is_irreducible` — strong connectivity of the nonzero pattern, the
  hypothesis under which the dominant eigenpair is unique, and
  :func:`products_irreducible`, the same test for both rating products of a
  two-sided relation, read off the bipartite pattern of W and W'.
"""

from __future__ import annotations

import itertools
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
    not contracting.
    """

    iterations: int
    final_residual: float
    tolerance: float
    residual_trace: tuple[float, ...] = field(default=(), repr=False)
    rate_estimate: Optional[float] = None


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


def _sweep(
    steps: Sequence[FloatArray],
    settings: PowerSettings | None,
) -> tuple[list[FloatArray], ConvergenceReport]:
    """Normalized power sweeps over a cycle of float64 matrices.

    One sweep sets part t to normalize(steps[t] @ part t-1) for t = 0..r-1,
    part t-1 of t = 0 being the previous sweep's part r-1: ``(M,)`` iterates
    M, ``(W', W)`` alternates a <- W' b, b <- W a. Part 0 starts from the
    normalized all-ones vector, the rest from one pass along the steps. The
    residual is the largest per-part step difference.

    ``sqrt(x.dot(x))`` is what ``np.linalg.norm`` computes for a real 1-D
    array, and in-place division rounds as ``v / norm`` does, so iterates and
    residuals match the norm-based formulation bit for bit. The parts share
    one buffer that ping-pongs with a second, and one subtraction gives every
    step difference, so no sweep allocates. Returns fresh parts.

    Raises:
        ZeroVector: a norm was 0 or not finite (overflow warns nothing).
        NoConvergence: budget exhausted.
    """
    if settings is None:
        settings = PowerSettings()
    bounds = [0]
    for step in steps:
        bounds.append(bounds[-1] + step.shape[0])
    spans = list(zip(bounds, bounds[1:]))
    x, y, diff = np.empty((3, bounds[-1]))
    xs, ys, diffs = ([v[lo:hi] for lo, hi in spans] for v in (x, y, diff))
    first, *rest = diffs
    matvecs = [_matvec(step) for step in steps]
    # (matvec, source, target): a sweep into y reads the last part of x, then
    # the parts it has written. The first sweep also fills x from its part 0.
    into_y = list(zip(matvecs, [xs[-1], *ys[:-1]], ys))
    into_x = list(zip(matvecs, [ys[-1], *xs[:-1]], xs))
    sweeps = itertools.chain(
        [(into_x[1:] + into_y, y, x)], itertools.cycle([(into_x, x, y), (into_y, y, x)])
    )

    sqrt, inf, subtract = math.sqrt, math.inf, np.subtract
    tol = settings.tolerance
    trace: list[float] = []
    xs[0][...] = 1.0 / sqrt(bounds[1])
    with np.errstate(over="ignore"):
        for _, (plan, new, old) in zip(range(settings.max_iterations), sweeps):
            for matvec, source, target in plan:
                matvec(source, out=target)
                norm = sqrt(target.dot(target))
                if not 0.0 < norm < inf:
                    raise errors.ZeroVector("rating update collapsed to the zero vector")
                target /= norm
            subtract(new, old, out=diff)
            residual = sqrt(first.dot(first))
            for part in rest:
                r = sqrt(part.dot(part))
                if r > residual:
                    residual = r
            trace.append(residual)
            if residual <= tol:
                break
        else:
            raise errors.NoConvergence(len(trace), trace[-1])
    report = ConvergenceReport(
        iterations=len(trace),
        final_residual=residual,
        tolerance=tol,
        residual_trace=tuple(trace),
        rate_estimate=_rate_estimate(trace),
    )
    return [new[lo:hi].copy() for lo, hi in spans], report


def power_iterate(
    matrix: FloatArray,
    settings: PowerSettings | None = None,
) -> tuple[FloatArray, float, ConvergenceReport]:
    """Dominant eigenpair of a square nonnegative matrix by power iteration.

    Repeats v <- M v / ||M v|| until the normalized step difference falls
    below ``settings.tolerance``. A periodic nonzero pattern (see
    :func:`_period`) gives M several eigenvalues of largest modulus, on which
    the plain loop oscillates; it then iterates M + c I, c the largest row
    sum, which has the same eigenvectors and, as c >= rho(M), only
    rho(M) + c at the largest modulus.

    Returns:
        (v, eigenvalue, report) with ||v|| = 1, v >= 0 and
        eigenvalue = ||M v||, which equals rho(M) at the fixed point.

    Raises:
        ZeroVector: the iterate collapsed to zero or overflowed.
        NoConvergence: budget exhausted.
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise errors.DimensionMismatch(f"matrix must be square, got {M.shape}")
    if np.any(M < 0) or not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite and nonnegative")

    step = M
    if _period(M) > 1:
        # A period above 1 needs a zero diagonal, so this adds c to it.
        step = M.copy()
        np.fill_diagonal(step, M.sum(axis=1).max())
    (v,), report = _sweep((step,), settings)
    eigenvalue = float(np.linalg.norm(M @ v))
    return v, eigenvalue, report


# ---------------------------------------------------------------------------
# Pattern checks.
# ---------------------------------------------------------------------------


def _search(
    steps: Sequence[NDArray[np.bool_]],
) -> tuple[list[NDArray[np.bool_]], list[NDArray[np.bool_]]]:
    """Breadth-first search of a cyclic digraph from vertex 0 of part 0.

    The vertices fall into parts 0..r-1 and every edge leads from part t to
    part t+1 (mod r): ``steps[t][v, u]`` is the edge from vertex u of part t
    to vertex v of the next part. Each step expands the whole frontier with
    one boolean reduction over the frontier's columns, so every column is
    read at most once. Returns the vertices seen in each part and the
    frontiers: frontier d holds the vertices of part d mod r first reached
    in d steps.
    """
    seen = [np.zeros(step.shape[1], dtype=bool) for step in steps]
    seen[0][0] = True
    frontier = seen[0].copy()
    frontiers = [frontier]
    part = 0
    while frontier.any():
        step = steps[part]
        part = (part + 1) % len(steps)
        frontier = step[:, frontier].any(axis=1) & ~seen[part]
        seen[part] |= frontier
        frontiers.append(frontier)
    return seen, frontiers


def _reaches_all(steps: Sequence[NDArray[np.bool_]]) -> bool:
    """Whether vertex 0 of part 0 reaches every vertex; see :func:`_search`."""
    return all(s.all() for s in _search(steps)[0])


def _period(matrix: FloatArray) -> int:
    """Period of the nonzero pattern (edge j -> i where matrix[i][j] != 0).

    1 when the diagonal has a nonzero entry; else the gcd of
    level(u) + 1 - level(v) over the edges u -> v out of the vertices vertex 0
    reaches (levels from :func:`_search`), 0 when there are none. For an
    irreducible pattern that is the gcd of its cycle lengths, the number of
    eigenvalues of largest modulus (Meyer, *Matrix Analysis*, §8.3).
    """
    if matrix.diagonal().any():
        return 1
    pattern = matrix != 0
    frontiers = _search((pattern,))[1]
    levels = np.zeros(len(pattern), dtype=np.intp)
    for depth, frontier in enumerate(frontiers):
        levels[frontier] = depth
    period = 0
    for depth, frontier in enumerate(frontiers):
        heads = levels[pattern[:, frontier].any(axis=1)]
        period = math.gcd(period, *(depth + 1 - heads).tolist())
    return period


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

