"""Hard spectra, checked against numpy's dense eigensolvers.

The gated workloads have easy spectra. These inputs do not: weighted
directed cycles, whose eigenvalues all lie on the spectral circle;
bidiagonal relations, whose rating products are far from normal and have a
second eigenvalue close to the first; and digraphs whose cycle weights span
many orders of magnitude, which a solver must balance. Every rating must
lie within 10·tol of the dense eigensolver's, entry by entry, and an
eigenvalue within 10·tol of it relatively. The inputs the solver gets
wrong today are strict xfails that name the defect, so the change that
mends one turns it into a pass.
"""

import numpy as np
import pytest

from bicentral import (
    PowerSettings,
    ReverseTransform,
    WeightRelation,
    compute_nebs,
    compute_necs,
    errors,
)

BOUND = 10 * PowerSettings.tolerance


def _cycle(weights):
    """The directed n-cycle ``i -> i+1`` with row i scaled by weights[i]."""
    return np.roll(np.eye(len(weights)), 1, axis=0) * np.asarray(weights)[:, None]


def _bidiagonal(n):
    return np.eye(n) + np.eye(n, k=1)


def _stream_inputs():
    """The weighted 16-, 17-, 30- and 60-cycles, with row weights from
    uniform(1, 2), then a 200×200 bidiagonal relation multiplied entrywise
    by uniform(1, 1.1), all drawn in that order from one stream."""
    rng = np.random.default_rng(3)
    cycles = {n: _cycle(rng.uniform(1.0, 2.0, n)) for n in (16, 17, 30, 60)}
    return cycles, _bidiagonal(200) * rng.uniform(1.0, 1.1, (200, 200))


CYCLES, WEIGHTED_BIDIAGONAL = _stream_inputs()


def _check_necs(M):
    result = compute_necs(M)
    values, vectors = np.linalg.eig(M)
    k = np.argmax(values.real)
    c = vectors[:, k].real
    c /= np.linalg.norm(c) * np.sign(c.sum())
    assert np.abs(result.c - c).max() <= BOUND
    assert abs(result.eigenvalue - values[k].real) <= BOUND * values[k].real


def _check_nebs_identity(W):
    m, n = W.shape
    rel = WeightRelation(
        tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), W
    )
    result = compute_nebs(rel, ReverseTransform.identity())
    a = np.linalg.eigh(W.T @ W)[1][:, -1]
    a *= np.sign(a.sum())
    b = W @ a
    b /= np.linalg.norm(b)
    assert np.abs(result.a - a).max() <= BOUND
    assert np.abs(result.b - b).max() <= BOUND


_PERIODIC = (
    "restarted Arnoldi accepts a vector with a small residual that is not the "
    "Perron vector when every eigenvalue lies on the spectral circle"
)
_NON_NORMAL = (
    "the Ritz residual stop does not bound the error of a non-normal operator "
    "whose second eigenvalue is close to the first"
)
_UNBALANCED = (
    "the kernel runs on the unbalanced matrix, so cycle weights that span "
    "many orders of magnitude give a wrong pair with a tiny residual"
)


@pytest.mark.parametrize("n", [16, 17, 30])
def test_weighted_cycle(n):
    _check_necs(CYCLES[n])


@pytest.mark.xfail(
    strict=True, raises=errors.PreconditionFailed, reason=_PERIODIC + " (refused)"
)
def test_weighted_60_cycle():
    _check_necs(CYCLES[60])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_NON_NORMAL)
@pytest.mark.parametrize("n", [50, 200])
def test_bidiagonal_relation(n):
    # 176 and 1,220 products end 1.7e-9 and 1.2e-8 away from eigh's ratings.
    _check_nebs_identity(_bidiagonal(n))


@pytest.mark.xfail(
    strict=True, raises=errors.PreconditionFailed, reason=_NON_NORMAL + " (refused)"
)
def test_weighted_bidiagonal_relation():
    # The true smallest rating is 2e-13; the accepted vector has negative
    # entries, so the solve is refused.
    _check_nebs_identity(WEIGHTED_BIDIAGONAL)


def _cycle_with_one_weight(n, weight):
    weights = np.ones(n)
    weights[0] = weight
    return _cycle(weights)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_UNBALANCED)
@pytest.mark.parametrize(
    "M",
    [
        np.array([[0.0, 1.0], [1e-16, 0.0]]),  # 8.86e-9 for 1e-8
        _cycle_with_one_weight(8, 1e-20),  # 8.99e-3 for 3.16e-3
        _cycle_with_one_weight(5, 1e-40),  # 5.1e-4 for 1e-8
    ],
    ids=["2x2-1e-16", "8-cycle-1e-20", "5-cycle-1e-40"],
)
def test_unbalanced_digraph(M):
    _check_necs(M)


@pytest.mark.xfail(
    strict=True,
    raises=errors.ZeroVector,
    reason=_UNBALANCED + " (here the update collapses to the zero vector)",
)
def test_unbalanced_2x2_collapses():
    _check_necs(np.array([[0.0, 1.0], [1e-20, 0.0]]))
