"""Plain reference versions of the package's lean kernels.

Each function is the straightforward formulation the package's version was
derived from: ``np.linalg.norm`` for every norm, fresh arrays for every
difference, and a Python sort plus greedy grouping for ranks. The package
versions keep the same floating-point operations in the same order, so the
tests compare them for exact equality, not within a tolerance.
"""

from __future__ import annotations

import numpy as np

from bicentral import errors
from bicentral.centrality import RatingEntry, RatingTable
from bicentral.spectral import ConvergenceReport, PowerSettings, _rate_estimate


def alternating_iterate(weights, reverse_weights, settings=None):
    """Coupled fixed point of b = normalize(W a), a = normalize(W' b)."""
    if settings is None:
        settings = PowerSettings()
    W = np.asarray(weights, dtype=np.float64)
    Wp = np.asarray(reverse_weights, dtype=np.float64)

    def normalized(v):
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise errors.ZeroVector("rating update collapsed to the zero vector")
        return v / norm

    a = settings.start_vector(W.shape[1])
    b = normalized(W @ a)
    tol = settings.tolerance
    trace = []
    for _ in range(settings.max_iterations):
        a_next = normalized(Wp @ b)
        b_next = normalized(W @ a_next)
        residual = max(
            float(np.linalg.norm(a_next - a)),
            float(np.linalg.norm(b_next - b)),
        )
        trace.append(residual)
        a, b = a_next, b_next
        if residual <= tol:
            report = ConvergenceReport(
                iterations=len(trace),
                final_residual=residual,
                tolerance=tol,
                residual_trace=tuple(trace),
                rate_estimate=_rate_estimate(trace),
            )
            return a, b, report
    raise errors.NoConvergence(len(trace), trace[-1])


def power_loop(matrix, start, tolerance, budget, trace):
    """Run ``budget`` normalized steps; True on step-difference convergence."""
    v = start
    for _ in range(budget):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise errors.ZeroVector(
                "iteration produced the zero vector; the matrix has a zero "
                "row aligned with the iterate's support"
            )
        w /= norm
        residual = float(np.linalg.norm(w - v))
        trace.append(residual)
        v = w
        if residual <= tolerance:
            return v, True
    return v, False


def rank(scores, labels, tie_tol):
    """Competition-ranked table: greedy leader grouping over a Python sort."""
    values = np.asarray(scores, dtype=np.float64)
    order = sorted(range(values.size), key=lambda i: (-values[i], i))
    groups = []
    for idx in order:
        if groups and values[groups[-1][0]] - values[idx] <= tie_tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])

    sorted_values = values[order]
    position_of = {idx: pos for pos, idx in enumerate(order)}
    entries = []
    assigned = 0
    for group in groups:
        group_rank = assigned + 1
        for idx in sorted(group):
            position = position_of[idx]
            tied = bool(
                (position > 0 and sorted_values[position - 1] - values[idx] <= tie_tol)
                or (
                    position + 1 < values.size
                    and values[idx] - sorted_values[position + 1] <= tie_tol
                )
            )
            entries.append(
                RatingEntry(
                    label=str(labels[idx]),
                    score=float(values[idx]),
                    rank=group_rank,
                    tied=tied,
                )
            )
        assigned += len(group)
    return RatingTable(entries=tuple(entries))

