"""Dominant-eigenpair machinery for nonnegative matrices.

Two pieces live here:

* :func:`_perron_krylov` — restarted Arnoldi for the Perron vector of a
  nonnegative operator given as a matvec, run only behind the gates of
  :func:`power_iterate` (NonPositiveEigenvalue, NotIrreducible) and of both
  rating solvers (PreconditionFailed);
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

#: Products within a cycle after which the Ritz pair is computed and tested.
#: An eigensolve of the Hessenberg matrix costs 20-100 us, several small
#: products, so testing after every product would dominate small solves.
_CHECKS = frozenset({1, 2, 4, 8, 16})

_EPS = float(np.finfo(np.float64).eps)


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
    its circle. After the products in _CHECKS and a cycle's last product the
    solve stops once ``|h_{j+1,j} y_j| <= tol * theta``, that is
    ``||A x - theta x||`` for the Ritz vector x, or once the Krylov space is
    invariant (``h_{j+1,j} = 0``). The result has unit norm and a positive
    sum; no absolute value is taken.

    Raises:
        ZeroVector: a cycle's first product had norm 0, a product was not
            finite (overflow warns nothing), or theta is not above the
            rounding level of the Hessenberg matrix, _EPS times the cycle's
            largest product norm.
        NoConvergence: ``settings.max_iterations`` products were spent.
    """
    if settings is None:
        settings = PowerSettings()
    tol, budget = settings.tolerance, settings.max_iterations
    # No more than n vectors of R^n can be orthonormal.
    cycle = min(_CYCLE, n)
    basis = np.empty((cycle + 1, n))
    hessenberg = np.zeros((cycle + 1, cycle))
    basis[0] = 1.0 / math.sqrt(n)
    trace: list[float] = []
    products = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            scale = 0.0  # the largest product norm bounds the cycle's h_ij
            for j in range(cycle):
                w = matvec(basis[j])
                products += 1
                norm = math.sqrt(w.dot(w))
                # A later basis vector with a zero product lies in the null
                # space, so the Krylov space is invariant (beta = 0 below).
                if not norm < math.inf or (norm == 0.0 and j == 0):
                    raise errors.ZeroVector("rating update collapsed to the zero vector")
                scale = max(scale, norm)
                q = basis[: j + 1]
                h = q @ w
                w -= h @ q
                correction = q @ w
                w -= correction @ q
                h += correction
                beta = math.sqrt(w.dot(w))
                hessenberg[: j + 1, j] = h
                hessenberg[j + 1, j] = beta
                k = j + 1
                if k in _CHECKS or k == cycle or beta == 0.0 or products == budget:
                    theta, y, rate = _perron_ritz(hessenberg[:k, :k], _EPS * scale)
                    residual = beta * float(abs(y[-1])) / theta
                    trace.append(residual)
                    if residual <= tol or beta == 0.0:
                        return _ritz_vector(basis[:k], y), ConvergenceReport(
                            iterations=products,
                            tolerance=tol,
                            residual_trace=tuple(trace),
                            rate_estimate=rate,
                        )
                    if products == budget:
                        raise errors.NoConvergence(products, residual)
                basis[k] = w / beta
            basis[0] = _ritz_vector(basis[:k], y)


def _perron_ritz(
    hessenberg: FloatArray, floor: float
) -> tuple[float, FloatArray, Optional[float]]:
    """Ritz value theta of largest real part, its unit eigenvector of the
    Hessenberg matrix (real when theta is) and ``|theta_2| / theta``, where
    theta_2 is the largest other Ritz value in modulus.

    Raises:
        ZeroVector: theta is not above ``floor`` (say, a nilpotent operator).
    """
    values, vectors = np.linalg.eig(hessenberg)
    top = int(np.argmax(values.real))
    theta = float(values[top].real)
    if not theta > floor:
        raise errors.ZeroVector("rating update collapsed to the zero vector")
    # LAPACK makes the largest entry of each eigenvector real, so the real
    # part of a complex one keeps its weight.
    y = vectors[:, top].real
    if np.iscomplexobj(vectors):
        y = y / np.linalg.norm(y)
    if values.size == 1:
        return theta, y, None
    moduli = np.abs(values)
    moduli[top] = 0.0
    return theta, y, float(moduli.max()) / theta


def _ritz_vector(basis: FloatArray, y: FloatArray) -> FloatArray:
    """Unit vector ``y @ basis`` with a nonnegative sum."""
    x = y @ basis
    if x.sum() < 0:
        x = -x
    return x / math.sqrt(x.dot(x))


def power_iterate(
    matrix: FloatArray,
    settings: PowerSettings | None = None,
) -> tuple[FloatArray, float, ConvergenceReport]:
    """Perron pair of a square nonnegative matrix with irreducible pattern.

    Runs :func:`_perron_krylov` on ``x -> M x``; ``settings.max_iterations``
    bounds the products with M.

    Returns:
        (v, eigenvalue, report) with ||v|| = 1 and
        eigenvalue = ||M v||, which equals rho(M) at the fixed point.

    Raises:
        DimensionMismatch: the matrix is empty or not square.
        ValueError: some entry is negative or not finite.
        NonPositiveEigenvalue: the matrix is zero, or ||M v|| is not positive.
        NotIrreducible: the nonzero pattern is not strongly connected.
        ZeroVector: a product vanished or overflowed.
        NoConvergence: budget exhausted.
    """
    M = _square(matrix, np.float64)
    if np.any(M < 0) or not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite and nonnegative")
    if not M.any():
        raise errors.NonPositiveEigenvalue("zero adjacency matrix has spectral radius 0")
    if not is_irreducible(M):
        raise errors.NotIrreducible(
            "adjacency pattern is not strongly connected; ratings would not "
            "be unique"
        )
    v, report = _perron_krylov(M.dot, M.shape[0], settings)
    eigenvalue = float(np.linalg.norm(M @ v))
    if eigenvalue <= 0:
        raise errors.NonPositiveEigenvalue(
            f"dominant eigenvalue estimate {eigenvalue!r} is not positive"
        )
    return v, eigenvalue, report


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
