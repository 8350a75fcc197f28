"""Cost ceilings: deterministic counts of the work a solve does.

Wall time on a shared machine swings by half, but these counts do not:
operator products and Ritz eigensolves over a fixed seeded batch, passes
over W and W' per stage of one solve, and the traced memory peak of reading
and solving a dense relation. Each ceiling is the value measured when it was
set; a change that lowers a cost lowers its ceiling with it, and a change
that raises one says why.
"""

import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

from bicentral import (
    PowerSettings,
    ReverseTransform,
    centrality,
    compute_nebs,
    compute_necs,
    core,
    errors,
    read_matrix_csv,
)
from tests.conftest import ALL_SIMPLE_TRANSFORMS
from tests.test_centrality import _labelled
from tests.test_kernels import (
    _random_periodic,
    _random_relation,
    _random_square,
    _record_eigensolves,
)

#: Over :func:`_batch`: operator products (the solves' ``iterations``),
#: Ritz checks (their ``residual_trace`` entries) and LAPACK eigensolves,
#: the checks of order 1 being made in closed form. Measured with numpy 2.4
#: on Python 3.11, the same under OpenBLAS's Prescott to SkylakeX kernels,
#: one BLAS thread or two, and numpy's AVX2 and AVX-512 loops switched off.
PRODUCTS_CEILING = 6400
CHECKS_CEILING = 1837
EIGENSOLVES_CEILING = 1608

#: tracemalloc peak of ``read_matrix_csv`` plus ``compute_nebs`` with
#: ``reciprocal`` on :func:`_dense_document`, in units of |W| = 8 bytes per
#: cell: 3.0704 to 3.0742 measured with numpy 2.4 on Python 3.11, rounded
#: up. The peak falls as ``WeightRelation`` copies W, while W, its bytes
#: copy and the weight texts are all held; numpy's reader, which holds
#: at most one block of rows, does not set it.
PEAK_CEILING = 3.08


def _tridiagonal(rng: np.random.Generator) -> np.ndarray:
    """Tridiagonal k x k matrix, k in 20-60, with positive entries on its
    three diagonals: the eigenvalues crowd near the Perron root, so the
    solve restarts."""
    k = int(rng.integers(20, 61))
    return sum(np.diag(rng.uniform(0.9, 1.1, k - abs(d)), d) for d in (-1, 0, 1))


def _batch():
    """The fixed batch: 150 relations, 120 small and 30 tridiagonal, each
    under one of four transforms (identity in place of reciprocal on a zero
    weight) and one of three tolerances; then 80 digraphs, 60 small,
    periodic and aperiodic, and 20 tridiagonal."""
    rng = np.random.default_rng(2031)
    for case in range(150):
        W = _random_relation(rng) if case < 120 else _tridiagonal(rng)
        transform = ALL_SIMPLE_TRANSFORMS[case % len(ALL_SIMPLE_TRANSFORMS)]
        if transform.requires_all_positive() and not W.min() > 0:
            transform = ReverseTransform.identity()
        settings = PowerSettings(tolerance=(1e-6, 1e-10, 1e-12)[case % 3])
        yield partial(compute_nebs, _labelled(W), transform, settings)
    for case in range(80):
        if case < 60:
            M = (_random_square if case % 2 else _random_periodic)(rng)
        else:
            M = _tridiagonal(rng)
        yield partial(compute_necs, M)


def test_products_and_eigensolves_over_a_fixed_batch(monkeypatch):
    orders = _record_eigensolves(monkeypatch)
    products = checks = 0
    for solve in _batch():
        try:
            report = solve().convergence
        except errors.PreconditionFailed:  # one reducible relation
            continue
        products += report.iterations
        checks += len(report.residual_trace)
    assert products <= PRODUCTS_CEILING
    assert checks <= CHECKS_CEILING
    assert len(orders) <= EIGENSOLVES_CEILING


@pytest.fixture
def operators(monkeypatch):
    """Every operator the solves build, each counting its passes over W and
    W' by stage: the kernel, ``W x`` (b and alpha), ``W' y`` (beta), and the
    degeneracy check's row sums."""
    made = []

    class Counting(core._Operator):
        __slots__ = ("passes",)

        def __init__(self, *args):
            super().__init__(*args)
            self.passes = Counter()
            made.append(self)

        def matvec(self, x):
            self.passes["kernel"] += 2
            return super().matvec(x)

        def forward(self, x):
            self.passes["forward"] += 1
            return super().forward(x)

        def backward(self, y):
            self.passes["backward"] += 1
            return super().backward(y)

        def _sums(self, W, Wp):
            self.passes["row sums"] += 4
            return super()._sums(W, Wp)

    monkeypatch.setattr(core, "_Operator", Counting)
    monkeypatch.setattr(centrality, "_Operator", Counting)
    return made


@pytest.mark.parametrize("scale, row_sums", [(1.0, 4), (1e307, 8)])
def test_passes_over_w_per_stage(operators, scale, row_sums):
    # Rows of 100 weights near 1e307 sum past the double range, so the
    # degeneracy check takes its row sums again over scaled copies; the
    # kernel's products, over a unit vector, stay in range.
    rng = np.random.default_rng(7)
    rel = _labelled(rng.uniform(0.5, 1.5, (3, 100)) * scale)
    result = compute_nebs(rel, ReverseTransform.reciprocal())
    [op] = operators
    assert op.passes == {
        "kernel": 2 * result.convergence.iterations,
        "forward": 1,
        "backward": 1,
        "row sums": row_sums,
    }


def _dense_document(m: int, n: int) -> str:
    """Positive m x n solve-time matrix as a labeled CSV, three decimals a
    cell, as the CLI benchmark writes it."""
    rng = np.random.default_rng(11)
    K = rng.integers(1, 100_000, size=(m, n))
    lines = ["," + ",".join(f"a{j}" for j in range(n))]
    for i, row in enumerate(K.tolist()):
        lines.append(f"b{i}," + ",".join(f"{k / 1000:.3f}" for k in row))
    return "\n".join(lines) + "\n"


def test_peak_memory_of_reading_and_solving_a_dense_relation():
    m, n = 400, 250
    text = _dense_document(m, n)
    tracemalloc.start()
    try:
        rel = read_matrix_csv(text)
        compute_nebs(rel, ReverseTransform.reciprocal())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_CEILING * 8 * m * n
