"""Dominant-eigenpair machinery for nonnegative matrices.

Two pieces live here; the solves, and the gates that decide solvability,
live in :mod:`bicentral.centrality`:

* :func:`_perron_krylov` — restarted Arnoldi for the Perron vector of a
  nonnegative operator given as a matvec, with its :class:`PowerSettings`
  and :class:`ConvergenceReport`, run only behind those gates;
* :func:`is_irreducible` — strong connectivity of the nonzero pattern, the
  hypothesis under which the dominant eigenpair is unique, and
  :func:`products_irreducible`, the same test for both rating products of a
  two-sided relation: connectivity of the bipartite pattern of W alone,
  found by one frontier search from the first b-item.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from bicentral import errors

FloatArray = NDArray[np.float64]

#: Length of one Arnoldi cycle: operator products between restarts.
_CYCLE = 16

#: Krylov dimensions after which the first cycle, and then every restarted
#: cycle, tests its Ritz pair, besides a cycle's last product. An eigensolve
#: of the Hessenberg matrix costs about 23, 24, 28, 39 and 78 us at orders
#: 1, 2, 4, 8 and 16 (numpy 2.4, 2-core Xeon VM), as much as several small
#: products, so only checks that can end a solve are made. The 1x1 pair
#: needs no eigensolve. A restarted cycle's 1x1 pair is its start vector,
#: whose residual the last check has just rejected, but its dimension-2
#: check ends slow solves a cycle early.
_CHECKS = (frozenset({1, 4, 8}), frozenset({2, 4, 8}))

_EPS = float(np.finfo(np.float64).eps)

#: Smallest sum of nonnegative terms taken as computed: the terms below the
#: normal range (2^-1022) then weigh under 2^-62 of it.
_SAFE_MIN = 2.0**-960


@dataclass(frozen=True)
class PowerSettings:
    """Knobs for the Perron solver, which starts from the normalized all-ones
    vector.

    tolerance: stop once the Ritz residual drops to this fraction of the
        Ritz value.
    max_iterations: hard budget of operator products, an integer (TypeError
        otherwise); exceeding it raises NoConvergence.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if operator.index(self.max_iterations) < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class ConvergenceReport:
    """What the solver did: products spent, residual history, rate estimate.

    ``iterations`` counts operator products. ``residual_trace`` holds the
    relative Ritz residual ``|h_{j+1,j} y_j| / theta`` at each check, and
    ``final_residual`` is its last entry. ``rate_estimate`` is the Ritz ratio
    ``|theta_2| / theta_1`` of the final check, an estimate of the
    subdominant eigenvalue ratio; None when that check had a single Ritz
    value.
    """

    iterations: int
    tolerance: float
    residual_trace: tuple[float, ...] = field(repr=False)
    rate_estimate: Optional[float] = None

    @property
    def final_residual(self) -> float:
        return self.residual_trace[-1]


def _perron_krylov(
    matvec: Callable[[FloatArray], FloatArray],
    n: int,
    settings: PowerSettings | None,
) -> tuple[FloatArray, ConvergenceReport]:
    """Perron vector of a nonnegative operator on R^n by restarted Arnoldi.

    Each cycle builds an orthonormal Krylov basis of min(_CYCLE, n) vectors
    with two-pass classical Gram-Schmidt (Saad, *Numerical Methods for Large
    Eigenvalue Problems*, ch. 6), the first from the normalized all-ones
    vector, every later one from the last cycle's Perron Ritz vector: that
    of the Ritz value theta with the largest real part, which is the
    spectral radius also when a periodic pattern puts other eigenvalues on
    its circle. The first cycle tests its Ritz pair after products 1, 4 and
    8, every restarted cycle after products 2, 4 and 8 (_CHECKS), and every
    cycle after its last product, as does the budget's last product. The
    solve stops once ``|h_{j+1,j} y_j| <= tol * theta``, that is
    ``||A x - theta x||`` for the Ritz vector x, or once the Krylov space is
    invariant (``h_{j+1,j} = 0``), which is tested after every product. The
    result has unit norm and a positive sum; no absolute value is taken.

    Raises:
        ZeroVector: a product was not finite (overflow warns nothing), a
            cycle's first product had a norm below _SAFE_MIN, or theta is
            not above the rounding level of the Hessenberg matrix, _EPS
            times the cycle's largest product norm.
        NoConvergence: ``settings.max_iterations`` products were spent.
    """
    if settings is None:
        settings = PowerSettings()
    tol, budget = settings.tolerance, settings.max_iterations
    # No more than n vectors of R^n can be orthonormal.
    cycle = min(_CYCLE, n)
    basis = np.empty((cycle + 1, n))
    # Row j holds column j of the Hessenberg matrix, so the coefficients of
    # each step are written in place; the eigensolve reads the transpose.
    columns = np.zeros((cycle, cycle + 1))
    correction = np.empty(cycle)
    basis[0] = 1.0 / math.sqrt(n)
    trace: list[float] = []
    products = 0
    checks = _CHECKS[0]
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            scale = 0.0  # the largest product norm bounds the cycle's h_ij
            for j in range(cycle):
                w = matvec(basis[j])
                products += 1
                # _norm, with its in-range case inline: two norms per product.
                square = float(w.dot(w))
                norm = math.sqrt(square) if _SAFE_MIN <= square < math.inf else _norm(w)
                # A later basis vector with a zero product lies in the null
                # space, so the Krylov space is invariant (beta = 0 below).
                if not norm < math.inf or (norm < _SAFE_MIN and j == 0):
                    raise errors.ZeroVector("rating update collapsed to the zero vector")
                scale = max(scale, norm)
                k = j + 1
                q = basis[:k]
                h = q.dot(w, out=columns[j, :k])
                w -= h.dot(q)
                c = q.dot(w, out=correction[:k])
                w -= c.dot(q)
                h += c
                square = float(w.dot(w))
                beta = math.sqrt(square) if _SAFE_MIN <= square < math.inf else _norm(w)
                columns[j, k] = beta
                if k in checks or k == cycle or beta == 0.0 or products == budget:
                    theta, y, rate = _perron_ritz(columns[:k, :k].T, _EPS * scale)
                    residual = beta * float(abs(y[-1])) / theta
                    trace.append(residual)
                    if residual <= tol or beta == 0.0:
                        return _ritz_vector(q, y), ConvergenceReport(
                            iterations=products,
                            tolerance=tol,
                            residual_trace=tuple(trace),
                            rate_estimate=rate,
                        )
                    if products == budget:
                        raise errors.NoConvergence(products, residual)
                np.divide(w, beta, out=basis[k])
            basis[0] = _ritz_vector(q, y)
            checks = _CHECKS[1]


def _perron_ritz(
    hessenberg: FloatArray, floor: float
) -> tuple[float, FloatArray, Optional[float]]:
    """Ritz value theta of largest real part, its unit eigenvector of the
    Hessenberg matrix (real when theta is) and ``|theta_2| / theta``, where
    theta_2 is the largest other Ritz value in modulus.

    Raises:
        ZeroVector: theta is not above ``floor`` (say, a nilpotent operator).
    """
    if len(hessenberg) == 1:
        # What eig returns for |h_11| in [1e-138, 1e138]; outside that range
        # LAPACK rescales the matrix and is off by one ulp.
        theta = float(hessenberg[0, 0])
        if not theta > floor:
            raise errors.ZeroVector("rating update collapsed to the zero vector")
        return theta, np.ones(1), None
    values, vectors = np.linalg.eig(hessenberg)
    real = values.real
    top = int(real.argmax())
    theta = float(real[top])
    if not theta > floor:
        raise errors.ZeroVector("rating update collapsed to the zero vector")
    # LAPACK makes the largest entry of each eigenvector real, so the real
    # part of a complex one keeps its weight. That part of a unit vector is
    # in range, so np.linalg.norm (which copies the strided column) serves.
    y = vectors[:, top].real
    if vectors.dtype.kind == "c":
        y = y / np.linalg.norm(y)
    moduli = np.abs(values)
    moduli[top] = 0.0
    return theta, y, float(moduli.max()) / theta


def _ritz_vector(basis: FloatArray, y: FloatArray) -> FloatArray:
    """Unit vector ``y @ basis`` with a nonnegative sum."""
    x = y @ basis
    if x.sum() < 0:
        x = -x
    return x / _norm(x)


def _norm(x: FloatArray) -> float:
    """Euclidean norm: ``sqrt(x.x)`` when ``x.x`` is in [_SAFE_MIN, inf), else
    that of ``x`` scaled exactly by the power of two that brings its largest
    entry into [0.5, 1), scaled back (Blue 1978; LAPACK's dnrm2). It is 0
    for a zero vector and inf when an entry or the norm is not finite; the
    caller holds ``np.errstate(over="ignore")``."""
    square = float(x.dot(x))
    if _SAFE_MIN <= square < math.inf:
        return math.sqrt(square)
    largest = float(np.abs(x).max())
    if not largest < math.inf:
        return math.inf
    exponent = math.frexp(largest)[1]
    scaled = np.ldexp(x, -exponent)
    return float(np.ldexp(math.sqrt(scaled.dot(scaled)), exponent))


# ---------------------------------------------------------------------------
# Pattern checks.
# ---------------------------------------------------------------------------


def _nonempty(data, dtype=None) -> np.ndarray:
    """``data`` as an array; DimensionMismatch unless it is 2-D and nonempty."""
    M = np.asarray(data, dtype=dtype)
    if M.ndim != 2 or 0 in M.shape:
        raise errors.DimensionMismatch(
            f"matrix must be 2-D and nonempty, got shape {M.shape}"
        )
    return M


def _square(data, dtype=None) -> np.ndarray:
    """:func:`_nonempty`, and DimensionMismatch unless the matrix is square."""
    M = _nonempty(data, dtype)
    if M.shape[0] != M.shape[1]:
        raise errors.DimensionMismatch(f"matrix must be square, got {M.shape}")
    return M


def _reaches_all(steps: Sequence[NDArray[np.bool_]]) -> bool:
    """Whether vertex 0 of part 0 reaches every vertex of a cyclic digraph.

    The vertices fall into parts 0..r-1 and every edge leads from part t to
    part t+1 (mod r): ``steps[t][v, u]`` is the edge from vertex u of part t
    to vertex v of the next part. The breadth-first search expands the whole
    frontier with one boolean reduction over the frontier's columns, so
    every column is read at most once.
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
    matrix counts as irreducible whatever its entry; an empty or non-square
    one raises DimensionMismatch.
    """
    pattern = _square(matrix) != 0
    return _reaches_all((pattern,)) and _reaches_all((pattern.T,))


def products_irreducible(weights: FloatArray) -> bool:
    """Whether W W' and W' W are both irreducible, without forming them.

    W W'[i, k] != 0 exactly when some a-item j has W[i, j] != 0 and
    W'[j, k] != 0, so the products' digraphs are the two-step paths of the
    bipartite digraph on the m + n items with edges a_j -> b_i where
    W[i, j] != 0 and b_i -> a_j where W'[j, i] != 0. For nonnegative
    matrices both products are irreducible exactly when that digraph is
    strongly connected. :func:`~bicentral.core.reverse_matrix` gives W' the
    pattern of W transposed, so the digraph is symmetric, and it is strongly
    connected exactly when one search from b_0 over W != 0 reaches all
    m + n items; W' is not read. A 1x1 relation passes only if its one
    weight is nonzero; an empty or non-2-D one raises DimensionMismatch.
    """
    pattern = _nonempty(weights) != 0
    return _reaches_all((pattern.T, pattern))
