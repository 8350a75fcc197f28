"""Fixed-seed benchmark of bicentral: one workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload dense-recip --seed 1 --seconds 55 --trace 0

The run measures the import time of the package in fresh interpreters,
writes the workload's inputs and numpy reference ratings, then runs the
workload's closed loop in one fresh worker process (``worker.py``). With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics derived from the worker's spans. The last line of
standard output is one JSON object; the full record, with the machine
facts and input sizes, is written to
``.bench_work/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

# BLAS threads are capped at the core count, for this process (numpy is
# imported below) and for every child.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    PYTHONHASHSEED="0",
    OPENBLAS_NUM_THREADS=str(NPROC),
    OMP_NUM_THREADS=str(NPROC),
    MKL_NUM_THREADS=str(NPROC),
)
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = CHILD_ENV[_key]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

#: Fresh interpreters timed for setup_s before the workload and again after
#: it, so the median spans the run.
SETUP_PROBES = 6
#: The worker is killed after this long, so a run always ends within
#: the time a benchmark run is allowed.
WORKER_TIMEOUT_S = 150

PROBE = "import time, bicentral, bicentral.cli; print(time.perf_counter())"


def setup_seconds() -> list[float]:
    """Wall times from spawning an interpreter until it has imported
    bicentral and bicentral.cli (perf_counter is system-wide on Linux),
    for SETUP_PROBES interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=CHILD_ENV,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        samples.append(float(done.stdout) - start)
    return samples


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": NPROC,
        "platform": platform.platform(),
    }


def span_table(spans: list) -> dict:
    """Totals per span name: seconds, calls and summed counts."""
    table: dict[str, dict] = {}
    for name, start, end, _parent, _op, counts in spans:
        row = table.setdefault(name, {"s": 0.0, "calls": 0, "counts": {}})
        row["s"] += end - start
        row["calls"] += 1
        for key, value in counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table


def per_layer(worker: dict) -> dict:
    """Per-layer metrics. Times are seconds per traced operation (total span
    time over operations), so layers add up to the operation; a layer the
    workload never calls reads 0. Counts are per call of their span."""
    t = span_table(worker["spans"])
    ops = t["op"]["calls"]

    def s(name: str) -> float:
        return t.get(name, {}).get("s", 0.0) / ops

    def count(name: str, key: str) -> float:
        row = t.get(name)
        return row["counts"].get(key, 0) / row["calls"] if row else 0.0

    def total(name: str, key: str) -> float:
        return t.get(name, {}).get("counts", {}).get(key, 0)

    nebs_calls = t.get("centrality.compute_nebs", {}).get("calls", 0)
    cells = count("centrality.compute_nebs", "cells")
    parse_s = t.get("io.parse", {}).get("s", 0.0)
    iterations = total("centrality.iterate", "iterations")
    plain_p50 = statistics.median(worker["latencies"])
    op_p50 = statistics.median(end - start for name, start, end, *_ in worker["spans"] if name == "op")
    return {
        "io.parse_s": (s("io.parse"), "s"),
        "io.parse_mb_per_s": (total("io.parse", "bytes") / 1e6 / parse_s if parse_s else 0.0, "MB/s"),
        "io.input_bytes": (count("io.parse", "bytes"), "bytes"),
        "io.report_s": (s("io.report"), "s"),
        "io.report_bytes": (count("io.report", "bytes"), "bytes"),
        "core.reverse_matrix_s": (s("core.reverse_matrix"), "s"),
        "core.validate_s": (s("core.validate"), "s"),
        "core.nnz": (count("centrality.compute_nebs", "nnz"), "count"),
        "core.stored_cells": (cells, "count"),
        "core.density": (
            total("centrality.compute_nebs", "nnz") / total("centrality.compute_nebs", "cells")
            if nebs_calls
            else 0.0,
            "ratio",
        ),
        "centrality.compute_nebs_s": (s("centrality.compute_nebs"), "s"),
        "centrality.iterate_s": (s("centrality.iterate"), "s"),
        "centrality.iterations": (count("centrality.iterate", "iterations"), "count"),
        "centrality.us_per_iteration": (
            t["centrality.iterate"]["s"] / iterations * 1e6 if iterations else 0.0,
            "us",
        ),
        # Computed, not measured: one sweep reads W and W' once, 8 bytes a cell.
        "centrality.iter_bytes_computed": (2 * cells * 8, "bytes"),
        "centrality.degeneracy_s": (s("centrality.degeneracy"), "s"),
        # Derived: compute_nebs minus the reverse, iterate and degeneracy
        # calls it makes, which leaves the precondition (irreducibility) check.
        "centrality.precondition_s": (
            s("centrality.compute_nebs")
            - s("core.reverse_matrix")
            - s("centrality.iterate")
            - s("centrality.degeneracy"),
            "s",
        ),
        "centrality.rank_s": (s("centrality.rank"), "s"),
        "centrality.compute_necs_s": (s("centrality.compute_necs"), "s"),
        "spectral.power_iterate_s": (s("spectral.power_iterate"), "s"),
        "spectral.iterations": (count("spectral.power_iterate", "iterations"), "count"),
        "cli.main_s": (s("cli.main"), "s"),
        # Derived: cli.main minus the public calls it is composed of.
        "cli.overhead_s": (
            s("cli.main") - s("io.parse") - s("centrality.compute_nebs")
            - s("centrality.rank") - s("io.report")
            if "cli.main" in t
            else 0.0,
            "s",
        ),
        "trace.op_s": (s("op"), "s"),
        # Traced minus untraced latency_s.p50, both from this process.
        "trace.overhead_s": (op_p50 - plain_p50, "s"),
        "trace.ops": (ops, "count"),
    }


def end_to_end(worker: dict, setup: list[float]) -> tuple[dict, dict]:
    lat = worker["latencies"]
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[-1]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_s.p50": (statistics.median(lat), "s"),
        "latency_s.p95": (p95, "s"),
        "solves_per_s": (worker["solved"] / sum(lat), "1/s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }
    samples = {
        "setup_s": len(setup),
        "latency_s": len(lat),
        "latency_s.p95_beyond": sum(x > p95 for x in lat),
    }
    return metrics, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "bicentral" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.iterdir():
        stale.unlink()

    setup = setup_seconds()
    inputs = wl.MAKERS[args.workload](args.seed, workdir)
    wl.self_check(wl.load_reference(workdir / "reference.npz"))

    config = workdir / "config.json"
    config.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "workdir": str(workdir),
                "inputs": inputs,
                "seconds": args.seconds,
                "trace": bool(args.trace),
            }
        )
    )
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(config)],
        env=CHILD_ENV,
        cwd=ROOT,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    setup += setup_seconds()
    worker = json.loads((workdir / "worker.json").read_text())
    if Path(worker["bicentral"]).resolve().parent != (SRC / "bicentral").resolve():
        print(f"bench: imported bicentral from {worker['bicentral']}", file=sys.stderr)
        return 2

    e2e, samples = ({}, {}) if args.trace else end_to_end(worker, setup)
    layers = per_layer(worker) if args.trace else {}
    shown = layers if args.trace else e2e
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "inputs": {k: v for k, v in inputs.items() if k != "argv"},
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "fail_rate": worker["failed"] / worker["attempted"],
        "errors": worker["errors"],
        "samples": samples,
        "latencies_s": worker["latencies"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    for name in ("input.csv", "input.tsv"):
        (workdir / name).unlink(missing_ok=True)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {json.dumps(record['machine'])}")
    print(f"inputs {json.dumps(record['inputs'])}")
    print(f"fail_rate {record['fail_rate']} samples {json.dumps(samples)}")
    for error in worker["errors"]:
        print(f"FAILED {error}")
    for name, (value, unit) in shown.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": worker["failed"] == 0,
                "attempted": worker["attempted"],
                "failed": worker["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
