"""Plain reference versions of the package's lean kernels and readers.

Each function is the straightforward formulation the package's version was
derived from: a Python sort plus greedy grouping for ranks, one dict lookup
per cell for table transforms, a ufunc masked to the related cells for
the closed-form transforms, ``json.dumps`` of plain dicts for reports,
and cell-by-cell parsing with list-membership label checks for the text
readers. Those package versions keep the same floating-point operations in
the same order, so the tests compare them for exact equality, not within a
tolerance.

The solvers have one plain power loop here, ``v <- M v / ||M v||`` on M, or
on M plus its largest row sum times I when a breadth-first search over
Python lists finds the pattern periodic.

The module also holds :func:`dominant_eigenpair_oracle`, a small-matrix
eigen solver (characteristic polynomial, real-line root search,
singular-system solve) that shares no code with the power loop,
:func:`product_ratings`, which runs that loop on the explicitly formed
rating products, and :func:`eig_perron`, the Perron pair of a formed matrix by
``numpy.linalg.eig``. Tests compare the package's solvers against all three.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import json
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from bicentral import errors
from bicentral.centrality import RatingTable
from bicentral.core import NebsResult, WeightRelation
from bicentral.spectral import ConvergenceReport, FloatArray, PowerSettings

#: Number of trailing residual ratios averaged into the power loops' rate.
RATE_WINDOW = 10


def _rate_estimate(trace: Sequence[float]) -> Optional[float]:
    """Geometric-mean contraction over the last RATE_WINDOW residual ratios."""
    if len(trace) < RATE_WINDOW + 1:
        return None
    window = trace[-(RATE_WINDOW + 1):]
    if any(r <= 0 for r in window):
        return None
    rate = (window[-1] / window[0]) ** (1.0 / RATE_WINDOW)
    return rate if 0.0 < rate < 1.0 else None


def eig_perron(matrix):
    """Unit Perron vector with a positive sum, and its eigenvalue, from
    ``numpy.linalg.eig``'s eigenvalue of largest real part."""
    values, vectors = np.linalg.eig(np.asarray(matrix, dtype=np.float64))
    top = int(np.argmax(values.real))
    v = vectors[:, top].real
    v = v * np.sign(v.sum())
    return v / np.linalg.norm(v), float(values[top].real)


def product_ratings(weights, reverse_weights, settings=None):
    """Ratings (a, b) by plain power iteration on the formed products W' W
    and W W'.

    The package never forms either product; this is the cross-check its
    alternating solver is compared against.
    """
    W = np.asarray(weights, dtype=np.float64)
    Wp = np.asarray(reverse_weights, dtype=np.float64)
    b, _, _ = power_iterate(W @ Wp, settings)
    a, _, _ = power_iterate(Wp @ W, settings)
    return a, b


def period(matrix):
    """Period of the nonzero pattern seen from vertex 0, by a plain
    breadth-first search.

    1 when a diagonal entry is nonzero; otherwise the gcd of
    level[u] + 1 - level[v] over every edge u -> v (matrix[v][u] != 0)
    leaving a vertex the search reached; 0 when there is no such edge.
    """
    M = np.asarray(matrix)
    k = M.shape[0]
    if any(M[i, i] != 0 for i in range(k)):
        return 1
    successors = [[v for v in range(k) if M[v, u] != 0] for u in range(k)]
    level = {0: 0}
    queue = collections.deque([0])
    while queue:
        u = queue.popleft()
        for v in successors[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    gcd = 0
    for u in level:
        for v in successors[u]:
            gcd = math.gcd(gcd, level[u] + 1 - level[v])
    return gcd


def power_iterate(matrix, settings=None):
    """Dominant eigenpair by v <- M v / ||M v||, on M + (largest row sum) I
    when the pattern's period exceeds 1."""
    if settings is None:
        settings = PowerSettings()
    M = np.asarray(matrix, dtype=np.float64)
    k = M.shape[0]
    A = M + M.sum(axis=1).max() * np.eye(k) if period(M) > 1 else M
    ones = np.ones(k)
    v = ones / np.linalg.norm(ones)
    tol = settings.tolerance
    trace = []
    for _ in range(settings.max_iterations):
        w = A @ v
        norm = np.linalg.norm(w)
        if not 0.0 < norm < math.inf:
            raise errors.ZeroVector("rating update collapsed to the zero vector")
        w = w / norm
        residual = float(np.linalg.norm(w - v))
        trace.append(residual)
        v = w
        if residual <= tol:
            report = ConvergenceReport(
                iterations=len(trace),
                tolerance=tol,
                residual_trace=tuple(trace),
                rate_estimate=_rate_estimate(trace),
            )
            return v, float(np.linalg.norm(M @ v)), report
    raise errors.NoConvergence(len(trace), trace[-1])


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
    rows = []
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
            rows.append((str(labels[idx]), float(values[idx]), group_rank, tied))
        assigned += len(group)
    label_order, row_scores, ranks, tied_flags = zip(*rows) if rows else ((),) * 4
    return RatingTable(
        label_order=label_order, scores=row_scores, ranks=ranks, tied=tied_flags
    )


def has_equal_row_sums(matrix: FloatArray, tol: float) -> bool:
    """True when max and min row sums differ by at most ``tol`` times the
    max row sum."""
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise errors.DimensionMismatch(f"matrix must be square, got {M.shape}")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    sums = M.sum(axis=1)
    return float(sums.max() - sums.min()) <= tol * float(sums.max())


def table_reverse_matrix(rel: WeightRelation, table) -> FloatArray:
    """Reverse matrix of a lookup-table transform, one dict lookup per
    related cell in row-major order of the weight matrix."""
    W = rel.weights
    out = np.zeros_like(W.T)
    rows, cols = np.nonzero(W > 0)
    for i, j in zip(rows.tolist(), cols.tolist()):
        weight = float(W[i, j])
        value = table.get(weight)
        if value is None:
            raise errors.TransformDomainError(
                f"table transform has no entry for weight {weight!r} "
                f"at row {i}, column {j} of the weight matrix"
            )
        out[j, i] = value
    return out


def closed_form_reverse_matrix(rel: WeightRelation, transform) -> FloatArray:
    """Reverse matrix of a ``scale``, ``reciprocal`` or ``power`` transform:
    the transform's ufunc evaluated on the related cells of W.T only, with
    the unrelated cells left 0."""
    WT = rel.weights.T
    out = np.zeros_like(WT)
    related = WT > 0
    if transform.kind == "scale":
        np.multiply(transform.gamma, WT, out=out, where=related)
    elif transform.kind == "reciprocal":
        np.divide(1.0, WT, out=out, where=related)
    else:
        np.power(WT, transform.exponent, out=out, where=related)
    return out


def significant(x: Optional[float]) -> Optional[float]:
    """x at 12 significant digits; None, JSON's null, for None and for a
    value that is not finite."""
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


def table_rows(table: RatingTable) -> list[tuple[str, float, int, bool]]:
    """The table's rows as ``(label, score, rank, tied)`` Python values."""
    return list(
        zip(
            table.label_order,
            table.scores.tolist(),
            table.ranks.tolist(),
            table.tied.tolist(),
        )
    )


def table_payload(table: RatingTable) -> list[dict]:
    """Rating table as a list of plain dicts, scores at 12 significant digits."""
    return [
        {"label": label, "score": significant(score), "rank": rank, "tied": tied}
        for label, score, rank, tied in table_rows(table)
    ]


def report_json(result, tables) -> str:
    """JSON report of a solver result: the payload through ``json.dumps``."""
    report = result.convergence
    if isinstance(result, NebsResult):
        payload: dict = {
            "a": table_payload(tables["a"]),
            "b": table_payload(tables["b"]),
            "lambda": significant(result.lambda_),
            "mu": significant(result.mu),
            "rho": significant(result.rho),
            "alpha": significant(result.alpha),
            "beta": significant(result.beta),
        }
        warnings = [
            {"code": w.code, "message": w.message, "side": w.side}
            for w in result.warnings
        ]
    else:
        payload = {
            "c": table_payload(tables["c"]),
            "eigenvalue": significant(result.eigenvalue),
            "lambda": significant(result.rating_coefficient),
        }
        warnings = []
    payload["iterations"] = report.iterations
    payload["final_residual"] = significant(report.final_residual)
    payload["rate_estimate"] = significant(report.rate_estimate)
    payload["warnings"] = warnings
    return json.dumps(payload, indent=2) + "\n"


def baseline_json(tables) -> str:
    """JSON of ``bicentral baseline``: each table's payload, in order."""
    payload = {key: table_payload(table) for key, table in tables.items()}
    return json.dumps(payload, indent=2) + "\n"


def tables_tsv(tables) -> str:
    """Ranked tables as TSV, one row per entry, LF line endings; ValueError
    on the first label, side by side, that holds a tab, CR or LF."""
    lines = ["side\tlabel\tscore\trank\ttied"]
    for side, table in tables.items():
        for label in table.label_order:
            if set(label) & {"\t", "\r", "\n"}:
                raise ValueError(f"{side} label {label!r} would break its TSV row")
        for label, score, rank, tied in table_rows(table):
            lines.append(
                f"{side}\t{label}\t{significant(score):.12g}"
                f"\t{rank}\t{'true' if tied else 'false'}"
            )
    return "\n".join(lines) + "\n"


def parse_number(token: str, line: int, column: int) -> float:
    text = token.strip()
    if "/" in text:
        try:
            value = float(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise errors.ParseError(line, column, f"bad fraction {token!r}") from None
    else:
        try:
            value = float(text)
        except ValueError:
            raise errors.ParseError(line, column, f"bad number {token!r}") from None
    if not math.isfinite(value):
        raise errors.ParseError(line, column, f"non-finite value {token!r}")
    return value


def lines(text: str) -> list[str]:
    """Lines of ``text`` as Python's universal newlines reads them: each
    ends at LF, CRLF or CR, and at nothing else."""
    return [line.rstrip("\n") for line in io.StringIO(text, newline=None)]


def read_matrix_csv(text: str) -> WeightRelation:
    """Parse a labeled weight matrix.

    Layout: cell (1,1) is ignored, the rest of the first row names the
    columns (a-items), the first cell of every later row names that row
    (b-item), and the remaining cells are nonnegative weights. An empty cell
    is 0. Column numbers in errors are 1-based cell positions.
    """
    rows = [
        (lineno, cells)
        for lineno, cells in enumerate(csv.reader(lines(text)), start=1)
        if any(cell.strip() for cell in cells)
    ]
    if not rows:
        raise errors.EmptyRelation(0, 0, "input contains no cells")

    header_line, header = rows[0]
    a_labels = [cell.strip() for cell in header[1:]]
    if not a_labels:
        raise errors.ParseError(header_line, 2, "header names no columns")
    for pos, label in enumerate(a_labels, start=2):
        if not label:
            raise errors.ParseError(header_line, pos, "empty column label")
    if len(set(a_labels)) != len(a_labels):
        raise errors.DuplicateLabel(header_line, 2, "duplicate column label")

    if len(rows) == 1:
        raise errors.EmptyRelation(header_line, 1, "no data rows after the header")

    b_labels: list[str] = []
    data: list[list[float]] = []
    for lineno, cells in rows[1:]:
        label = cells[0].strip() if cells else ""
        if not label:
            raise errors.ParseError(lineno, 1, "empty row label")
        if label in b_labels:
            raise errors.DuplicateLabel(lineno, 1, f"duplicate row label {label!r}")
        values = cells[1:]
        if len(values) != len(a_labels):
            raise errors.ParseError(
                lineno,
                len(cells) + 1,
                f"expected {len(a_labels)} value cells, found {len(values)}",
            )
        parsed: list[float] = []
        for pos, cell in enumerate(values, start=2):
            if not cell.strip():
                parsed.append(0.0)
                continue
            value = parse_number(cell, lineno, pos)
            if value < 0:
                raise errors.NegativeWeight(
                    lineno, pos, f"negative weight {cell.strip()!r}"
                )
            parsed.append(value)
        b_labels.append(label)
        data.append(parsed)

    return WeightRelation(
        a_labels=tuple(a_labels),
        b_labels=tuple(b_labels),
        weights=np.array(data, dtype=np.float64),
    )


def read_edge_list(text: str) -> WeightRelation:
    """Parse tab-separated edges: a_label, b_label, positive weight.

    Labels are collected in first-appearance order; pairs never listed get
    weight 0. A repeated pair is an error, as is a nonpositive weight
    (listing an edge asserts the pair is related).
    """
    edges: list[tuple[str, str, float]] = []
    a_order: list[str] = []
    b_order: list[str] = []
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(lines(text), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise errors.ParseError(
                lineno, 1, f"expected 3 tab-separated fields, found {len(parts)}"
            )
        a_label, b_label = parts[0].strip(), parts[1].strip()
        if not a_label or not b_label:
            raise errors.ParseError(lineno, 1, "empty label")
        weight = parse_number(parts[2], lineno, 3)
        if weight <= 0:
            raise errors.NonPositiveWeight(
                lineno, 3, f"edge weight must be positive, got {parts[2].strip()!r}"
            )
        pair = (a_label, b_label)
        if pair in seen:
            raise errors.DuplicateEdge(lineno, 1, f"duplicate edge {pair!r}")
        seen.add(pair)
        if a_label not in a_order:
            a_order.append(a_label)
        if b_label not in b_order:
            b_order.append(b_label)
        edges.append((a_label, b_label, weight))

    if not edges:
        raise errors.EmptyRelation(0, 0, "edge list contains no edges")

    a_index = {label: j for j, label in enumerate(a_order)}
    b_index = {label: i for i, label in enumerate(b_order)}
    weights = np.zeros((len(b_order), len(a_order)), dtype=np.float64)
    for a_label, b_label, weight in edges:
        weights[b_index[b_label], a_index[a_label]] = weight
    return WeightRelation(
        a_labels=tuple(a_order), b_labels=tuple(b_order), weights=weights
    )


# ---------------------------------------------------------------------------
# Independent oracle: characteristic polynomial -> real roots -> nullspace.
# Nothing below reuses the power loop.
# ---------------------------------------------------------------------------

#: Largest matrix size the characteristic-polynomial oracle accepts.
ORACLE_MAX_SIZE = 6


class OracleFailure(errors.BicentralError):
    """The small-matrix eigen oracle found no positive real dominant root."""


def _principal_minor_sum(M: FloatArray, order: int) -> float:
    """Sum of all order×order principal minors, by cofactor expansion."""

    def det(sub: FloatArray) -> float:
        size = sub.shape[0]
        if size == 1:
            return float(sub[0, 0])
        if size == 2:
            return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
        total = 0.0
        rest = np.arange(1, size)
        for col in range(size):
            keep = [c for c in range(size) if c != col]
            total += (-1.0) ** col * sub[0, col] * det(sub[np.ix_(rest, keep)])
        return total

    k = M.shape[0]
    idx = np.arange(k)
    return sum(
        det(M[np.ix_(sel, sel)])
        for sel in (np.array(c) for c in itertools.combinations(idx, order))
    )


def _characteristic_coefficients(M: FloatArray) -> list[float]:
    """Monic coefficients of det(x*I - M), highest degree first.

    Written out for sizes 1-3; principal-minor sums for 4-6.
    """
    k = M.shape[0]
    if k == 1:
        return [1.0, -float(M[0, 0])]
    if k == 2:
        tr = float(M[0, 0] + M[1, 1])
        det = float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
        return [1.0, -tr, det]
    if k == 3:
        tr = float(np.trace(M))
        m2 = (
            M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
            + M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
        )
        det = (
            M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
            - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
            + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
        )
        return [1.0, -tr, float(m2), -float(det)]
    coeffs = [1.0]
    for order in range(1, k + 1):
        coeffs.append((-1.0) ** order * _principal_minor_sum(M, order))
    return coeffs


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _horner_derivative(coeffs: Sequence[float], x: float) -> float:
    degree = len(coeffs) - 1
    acc = 0.0
    for power, c in enumerate(coeffs[:-1]):
        acc = acc * x + (degree - power) * c
    return acc


def _newton_polish(coeffs: Sequence[float], x: float, steps: int = 6) -> float:
    for _ in range(steps):
        slope = _horner_derivative(coeffs, x)
        if slope == 0.0:
            break
        x -= _horner(coeffs, x) / slope
    return x


def _bracketed_root(coeffs: Sequence[float], grid: int = 2048) -> Optional[float]:
    """Rightmost sign-change root of a monic polynomial, by bisection."""
    bound = 1.0 + max(abs(c) for c in coeffs[1:]) if len(coeffs) > 1 else 1.0
    xs = np.linspace(-bound, bound, grid + 1)
    values = [_horner(coeffs, float(x)) for x in xs]
    hi_idx = None
    for i in range(grid - 1, -1, -1):
        if values[i] == 0.0:
            return float(xs[i])
        if values[i] * values[i + 1] < 0.0:
            hi_idx = i
            break
    if hi_idx is None:
        return None
    lo, hi = float(xs[hi_idx]), float(xs[hi_idx + 1])
    flo = values[hi_idx]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = _horner(coeffs, mid)
        if fmid == 0.0 or (hi - lo) < 1e-15 * max(1.0, abs(mid)):
            return _newton_polish(coeffs, mid)
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return _newton_polish(coeffs, 0.5 * (lo + hi))


def _deflate(coeffs: Sequence[float], root: float) -> list[float]:
    """Synthetic division by (x - root); drops the remainder."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


def _companion_real_roots(coeffs: Sequence[float]) -> list[float]:
    """Near-real eigenvalues of the companion matrix (LAPACK fallback)."""
    degree = len(coeffs) - 1
    if degree < 1:
        return []
    comp = np.zeros((degree, degree))
    comp[0, :] = [-c for c in coeffs[1:]]
    if degree > 1:
        comp[np.arange(1, degree), np.arange(degree - 1)] = 1.0
    eigenvalues = np.linalg.eigvals(comp)
    return [
        float(z.real)
        for z in eigenvalues
        if abs(z.imag) <= 1e-8 * (1.0 + abs(z.real))
    ]


def _real_roots(coeffs: Sequence[float]) -> list[float]:
    """All real roots: bisection plus deflation, companion-matrix fallback."""
    roots: list[float] = []
    work = list(coeffs)
    while len(work) > 1:
        degree = len(work) - 1
        if degree == 1:
            roots.append(-work[1] / work[0])
            return roots
        if degree == 2:
            a, b, c = work
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                sq = disc ** 0.5
                roots.extend([(-b + sq) / (2 * a), (-b - sq) / (2 * a)])
            return roots
        found = _bracketed_root(work)
        if found is None:
            roots.extend(_companion_real_roots(work))
            return roots
        roots.append(found)
        work = _deflate(work, found)
    return roots


def dominant_eigenpair_oracle(matrix: FloatArray) -> tuple[FloatArray, float]:
    """Dominant eigenpair of a nonnegative matrix of size at most 6.

    Builds the characteristic polynomial explicitly, finds its real roots on
    the real line, takes the largest as the spectral radius, and solves the
    singular system for the eigenvector via an SVD nullspace. Shares no code
    with :func:`power_iterate`, so agreement between the two is meaningful
    evidence.

    Returns:
        (vector, eigenvalue) with ||vector|| = 1 and vector >= 0.

    Raises:
        OracleFailure: no positive real dominant root, or the nullspace
            vector cannot be oriented into the nonnegative orthant.
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise errors.DimensionMismatch(f"matrix must be square, got {M.shape}")
    k = M.shape[0]
    if k > ORACLE_MAX_SIZE:
        raise errors.DimensionMismatch(
            f"oracle supports sizes up to {ORACLE_MAX_SIZE}, got {k}"
        )
    if np.any(M < 0):
        raise ValueError("matrix entries must be nonnegative")

    coeffs = _characteristic_coefficients(M)
    real_roots = _real_roots(coeffs)
    if not real_roots:
        raise OracleFailure("characteristic polynomial has no real roots")
    rho = _newton_polish(coeffs, max(real_roots))
    if rho <= 0.0:
        raise OracleFailure(
            f"largest real root {rho:.3e} is not positive"
        )

    _, _, vh = np.linalg.svd(M - rho * np.eye(k))
    vector = vh[-1]
    anchor = int(np.argmax(np.abs(vector)))
    if vector[anchor] < 0:
        vector = -vector
    scale = abs(vector[anchor])
    if np.any(vector < -1e-8 * scale):
        raise OracleFailure(
            "dominant eigenvector has mixed signs; matrix likely violates "
            "the nonnegative-irreducible precondition"
        )
    vector = np.clip(vector, 0.0, None)
    return vector / np.linalg.norm(vector), float(rho)
