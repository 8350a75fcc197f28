"""Seeded inputs, numpy reference ratings and the correctness gate.

Everything here is numpy-only and never imports bicentral, so the
reference the gate compares against is independent of the program under
test. The same seed always yields the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Fixed sizes: the paper's solver/problem case and its HITS case at the
# size the ROADMAP names, plus a batch of small relations.
M_ROWS, N_COLS = 2000, 1000
SPARSE_DENSITY = 0.05
NEBS_RELATIONS = 200
NECS_DIGRAPHS = 100
LIBRARY_PHIS = ("identity", "power:2", "scale:3")
#: Second-to-first root ratios of the small relations. About 300-750
#: iterations each at the default tolerance, so the batch is iteration-bound.
ROOT_RATIOS = (0.93, 0.95, 0.97)

#: Largest allowed gap between program and reference, per entry of a unit
#: rating vector and relative on rho or the eigenvalue.
GATE_TOL = 1e-6

# Weights are k/1000 for integer k in [1000, 100000]: uniform 1-100 with
# 3 decimals, and k/1000 is exactly the double the decimal text parses to.
_K_LO, _K_HI = 1000, 100_000


def a_labels(n: int) -> list[str]:
    return [f"a{j:04d}" for j in range(n)]


def b_labels(m: int) -> list[str]:
    return [f"b{i:04d}" for i in range(m)]


def _decimal_table() -> list[str]:
    return [f"{k // 1000}.{k % 1000:03d}" for k in range(_K_HI + 1)]


def reverse_reference(W: np.ndarray, phi: str) -> np.ndarray:
    """W' for the transforms the workloads use, computed independently."""
    pos = W > 0
    if phi == "identity":
        return W.T.copy()
    if phi == "reciprocal":
        return np.where(pos, 1.0 / np.where(pos, W, 1.0), 0.0).T
    kind, _, arg = phi.partition(":")
    if kind == "power":
        return np.where(pos, W ** float(arg), 0.0).T
    if kind == "scale":
        return float(arg) * W.T
    raise ValueError(f"no reference for transform {phi!r}")


def dominant(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-norm positive Perron vector and eigenvalue by a dense eigensolve."""
    values, vectors = np.linalg.eig(M)
    k = int(np.argmax(values.real))
    v = vectors[:, k].real
    v = v * np.sign(v.sum())
    return v / np.linalg.norm(v), float(values[k].real)


def nebs_reference(W: np.ndarray, phi: str) -> dict:
    """a: dominant eigenvector of W'W; b: of WW', taken as W a normalized
    (WW'(Wa) = W(W'W a) = rho W a), which avoids the larger eigensolve."""
    a, rho = dominant(reverse_reference(W, phi) @ W)
    b = W @ a
    return {"a": a, "b": b / np.linalg.norm(b), "rho": rho}


def necs_reference(A: np.ndarray) -> dict:
    c, eigenvalue = dominant(A)
    return {"c": c, "eigenvalue": eigenvalue}


def gate(got: dict, ref: dict) -> str | None:
    """None when every rating vector and scalar in ``ref`` matches ``got``
    within GATE_TOL, otherwise a one-line reason."""
    for key, want in ref.items():
        have = got.get(key)
        if have is None:
            return f"missing {key}"
        if np.ndim(want) == 0:
            if not abs(float(have) - float(want)) <= GATE_TOL * abs(float(want)):
                return f"{key} {float(have)!r} != reference {float(want)!r}"
            continue
        have = np.asarray(have, dtype=np.float64)
        if have.shape != np.shape(want):
            return f"{key} has shape {have.shape}, reference {np.shape(want)}"
        gap = float(np.max(np.abs(have - want)))
        if not gap <= GATE_TOL:
            return f"{key} differs from reference by {gap:.3e}"
    return None


def self_check(ref: dict) -> None:
    """The gate passes the reference itself and fails a rating perturbed by
    ten times its tolerance; raises when it does not."""
    if gate(ref, ref) is not None:
        raise AssertionError("gate rejects the reference itself")
    key = next(k for k, v in ref.items() if np.ndim(v) == 1)
    bent = dict(ref)
    bent[key] = ref[key].copy()
    bent[key][len(bent[key]) // 2] += 10 * GATE_TOL
    if gate(bent, ref) is None:
        raise AssertionError("gate accepts a perturbed rating")


def report_vectors(report: dict, labels: dict[str, list[str]]) -> dict:
    """Rating vectors from a JSON report, in the reference's label order."""
    got: dict = {}
    for side, order in labels.items():
        score = {e["label"]: e["score"] for e in report[side]}
        got[side] = np.array([score.get(label, np.nan) for label in order])
    got["rho"] = report["rho"]
    return got


def load_reference(path: Path) -> dict:
    with np.load(path) as data:
        return {k: (float(data[k]) if data[k].ndim == 0 else data[k]) for k in data}


def make_dense_recip(seed: int, workdir: Path) -> dict:
    """Entrywise-positive solve-time matrix as a labeled CSV."""
    rng = np.random.default_rng([seed, 1])
    K = rng.integers(_K_LO, _K_HI + 1, size=(M_ROWS, N_COLS))
    table = _decimal_table()
    lines = ["," + ",".join(a_labels(N_COLS))]
    for label, row in zip(b_labels(M_ROWS), K.tolist()):
        lines.append(label + "," + ",".join(map(table.__getitem__, row)))
    text = "\n".join(lines) + "\n"
    path = workdir / "input.csv"
    path.write_text(text, encoding="utf-8")
    W = K / 1000.0
    np.savez(workdir / "reference.npz", **nebs_reference(W, "reciprocal"))
    return {
        "argv": ["nebs", "--matrix", str(path), "--phi", "reciprocal"],
        "m": M_ROWS,
        "n": N_COLS,
        "nnz": int(np.count_nonzero(W)),
        "bytes": len(text.encode("utf-8")),
    }


def make_sparse_edges(seed: int, workdir: Path) -> dict:
    """5%-dense relation as a shuffled edge list. Row i also links columns
    i mod n and (i+1) mod n, so the bipartite pattern is connected and the
    rating products are irreducible by construction."""
    rng = np.random.default_rng([seed, 2])
    mask = rng.random((M_ROWS, N_COLS)) < SPARSE_DENSITY
    rows = np.arange(M_ROWS)
    mask[rows, rows % N_COLS] = True
    mask[rows, (rows + 1) % N_COLS] = True
    K = np.where(mask, rng.integers(_K_LO, _K_HI + 1, size=(M_ROWS, N_COLS)), 0)
    bi, aj = np.nonzero(K)
    order = rng.permutation(bi.size)
    table = _decimal_table()
    al, bl = a_labels(N_COLS), b_labels(M_ROWS)
    lines = [
        f"{al[j]}\t{bl[i]}\t{table[k]}"
        for i, j, k in zip(bi[order].tolist(), aj[order].tolist(), K[bi, aj][order].tolist())
    ]
    text = "\n".join(lines) + "\n"
    path = workdir / "input.tsv"
    path.write_text(text, encoding="utf-8")
    W = K / 1000.0
    np.savez(workdir / "reference.npz", **nebs_reference(W, "identity"))
    return {
        "argv": ["nebs", "--edges", str(path), "--phi", "identity"],
        "m": M_ROWS,
        "n": N_COLS,
        "nnz": int(bi.size),
        "bytes": len(text.encode("utf-8")),
    }


def _groups(size: int, parts: int) -> np.ndarray:
    """Group id of each index: ``parts`` contiguous groups of near-equal size."""
    return (np.arange(size) * parts) // size


def _exponent(phi: str) -> float:
    """How the root of W'W scales with W: W -> cW gives c**e times the root."""
    kind, _, arg = phi.partition(":")
    return 1.0 + float(arg) if kind == "power" else 2.0


def _block_relation(
    rng: np.random.Generator, shape: tuple[int, int, int], phi: str, ratio: float,
    zero_cross: bool,
) -> np.ndarray:
    """m x n relation of q strong blocks joined by cross weights 1e-3 to 1e-1.5 of the
    in-block ones. Each block is scaled so the roots of the blocks' W'W fall
    by ``ratio`` from one block to the next; that ratio, not the draw, sets
    the iteration count, so the batch costs about the same on every seed.
    With ``zero_cross`` most cross cells are 0, but each block keeps a link
    to the next so the relation stays connected."""
    m, n, q = shape
    rg, cg = _groups(m, q), _groups(n, q)
    base = rng.uniform(1.0, 10.0, size=(m, n))
    scale = np.empty(q)
    for g in range(q):
        block = base[np.ix_(rg == g, cg == g)]
        root = dominant(reverse_reference(block, phi) @ block)[1]
        scale[g] = (ratio**g / root) ** (1.0 / _exponent(phi))
    row_scale = scale[rg][:, None]
    same = rg[:, None] == cg[None, :]
    cross = base * row_scale * 10.0 ** rng.uniform(-3.0, -1.5, size=(m, n))
    W = np.where(same, base * row_scale, cross)
    if zero_cross:
        W[~same & (rng.random((m, n)) < 0.8)] = 0.0
        for g in range(q - 1):
            i = rng.choice(np.flatnonzero(rg == g))
            j = rng.choice(np.flatnonzero(cg == g + 1))
            W[i, j] = cross[i, j]
    return W


def _clustered_digraph(rng: np.random.Generator, k: int, q: int, ratio: float) -> np.ndarray:
    """k vertices in q dense clusters whose Perron roots fall by ``ratio`` from one to
    the next, weak sparse cross edges, a weak Hamiltonian cycle for strong
    connectivity and a positive diagonal for aperiodicity."""
    g = _groups(k, q)
    same = g[:, None] == g[None, :]
    A = np.where(same & (rng.random((k, k)) < 0.6), rng.uniform(1.0, 10.0, (k, k)), 0.0)
    idx = np.arange(k)
    A[idx, idx] = rng.uniform(1.0, 10.0, size=k)
    for c in range(q):
        block = np.ix_(g == c, g == c)
        A[block] *= ratio**c / dominant(A[block])[1]
    weak = A.max(axis=1, keepdims=True) * 10.0 ** rng.uniform(-3.0, -1.5, size=(k, k))
    A = np.where(~same & (rng.random((k, k)) < 0.1), weak, A)
    nxt = (idx + 1) % k
    A[nxt, idx] = np.maximum(A[nxt, idx], weak[nxt, idx])
    return A


def make_library_batch(seed: int, workdir: Path) -> dict:
    """Small nebs relations and necs digraphs, in a seeded shuffled order.

    Shapes (m in 20-80, n in 10-40, 2-3 blocks), transforms and root ratios
    follow a fixed schedule and only the weights and the order come from
    the seed, so every seed asks for the same mix of work."""
    rng = np.random.default_rng([seed, 3])
    items = []
    for r in range(NEBS_RELATIONS):
        shape = (20 + (r * 37) % 61, 10 + (r * 17) % 31, 2 + (r // 2) % 2)
        phi = LIBRARY_PHIS[r % len(LIBRARY_PHIS)]
        ratio = ROOT_RATIOS[(r // len(LIBRARY_PHIS)) % len(ROOT_RATIOS)]
        items.append(("nebs", phi, _block_relation(rng, shape, phi, ratio, r % 2 == 1)))
    for r in range(NECS_DIGRAPHS):
        k, q, ratio = 10 + (r * 13) % 31, 2 + (r // 3) % 2, ROOT_RATIOS[r % len(ROOT_RATIOS)]
        items.append(("necs", "", _clustered_digraph(rng, k, q, ratio)))
    order = rng.permutation(len(items)).tolist()
    arrays: dict[str, np.ndarray] = {}
    refs: dict[str, np.ndarray] = {}
    kinds, phis = [], []
    nnz = cells = 0
    for slot, idx in enumerate(order):
        kind, phi, M = items[idx]
        kinds.append(kind)
        phis.append(phi)
        arrays[f"w{slot}"] = M
        ref = nebs_reference(M, phi) if kind == "nebs" else necs_reference(M)
        for key, value in ref.items():
            refs[f"{key}{slot}"] = np.asarray(value)
        if kind == "nebs":
            nnz += int(np.count_nonzero(M))
            cells += M.size
    np.savez(workdir / "input.npz", **arrays)
    np.savez(workdir / "reference.npz", **refs)
    (workdir / "items.json").write_text(json.dumps({"kinds": kinds, "phis": phis}))
    return {
        "items": len(order),
        "nebs": NEBS_RELATIONS,
        "necs": NECS_DIGRAPHS,
        "m": "20-80",
        "n": "10-40",
        "nnz": nnz,
        "stored_cells": cells,
        "bytes": sum(int(a.nbytes) for a in arrays.values()),
    }


MAKERS = {
    "dense-recip": make_dense_recip,
    "sparse-edges": make_sparse_edges,
    "library-batch": make_library_batch,
}
