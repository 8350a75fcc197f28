"""One workload's closed loop, run in a fresh process by ``run.py``.

Usage: python3 bench/worker.py CONFIG.json

The config names the workload, its work directory (inputs and numpy
references already written there), the seconds to measure and whether to
trace. After one untimed pass over the items, a single client runs one
operation at a time; each is timed, then checked against the reference
outside the timed region. With tracing on, each cycle runs one plain,
timed operation and then the same operation traced, with spans around
calls into the public functions of each layer.
Results and spans are written to ``worker.json`` in the work directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl

import bicentral
from bicentral import (
    ReverseTransform,
    WeightRelation,
    alternating_iterate,
    compute_nebs,
    compute_necs,
    detect_degeneracy,
    power_iterate,
    rank,
    read_edge_list,
    read_matrix_csv,
    reverse_matrix,
    validate,
    write_report,
)
from bicentral import cli

#: Cycles each run makes at least, however long they take: three plain
#: operations give a median, one traced cycle gives the split.
MIN_CYCLES = {False: 3, True: 1}


class Tracer:
    """Spans kept in memory: name, start, end, parent index, operation id,
    and counts recorded at the same boundary."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op, counts]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield counts
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()


def transform(phi: str) -> ReverseTransform:
    kind, _, arg = phi.partition(":")
    if kind == "identity":
        return ReverseTransform.identity()
    if kind == "reciprocal":
        return ReverseTransform.reciprocal()
    if kind == "power":
        return ReverseTransform.power(float(arg))
    if kind == "scale":
        return ReverseTransform.scale(float(arg))
    raise ValueError(f"unknown transform {phi!r}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliWorkload:
    """``bicentral nebs`` on one generated file, in-process."""

    def __init__(self, workdir: Path, meta: dict) -> None:
        self.argv = meta["argv"]
        self.path = Path(self.argv[2])
        self.read = read_matrix_csv if self.argv[1] == "--matrix" else read_edge_list
        self.phi = self.argv[4]
        self.ref = wl.load_reference(workdir / "reference.npz")
        self.labels = {"a": wl.a_labels(meta["n"]), "b": wl.b_labels(meta["m"])}

    def __len__(self) -> int:
        return 1

    def plain(self, _: int):
        return run_cli(self.argv)

    def check(self, _: int, outcome) -> str | None:
        code, out, err = outcome
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        return wl.gate(wl.report_vectors(json.loads(out), self.labels), self.ref)

    def traced(self, _: int, t: Tracer):
        """cli.main, then the same solve composed from public functions,
        with compute_nebs split into its reverse, iterate and degeneracy
        calls on the same inputs."""
        with t.span("cli.main"):
            outcome = run_cli(self.argv)
        text = self.path.read_text(encoding="utf-8")
        with t.span("io.parse", bytes=len(text.encode("utf-8"))):
            rel = self.read(text)
        T = transform(self.phi)
        W = rel.weights
        with t.span("centrality.compute_nebs", nnz=int(np.count_nonzero(W)), cells=W.size):
            result = compute_nebs(rel, T)
        with t.span("core.reverse_matrix"):
            Wp = reverse_matrix(rel, T)
        with t.span("centrality.iterate") as counts:
            counts["iterations"] = alternating_iterate(W, Wp)[2].iterations
        with t.span("centrality.degeneracy"):
            detect_degeneracy(W, Wp)
        with t.span("centrality.rank"):
            tables = {"a": rank(result.a, rel.a_labels), "b": rank(result.b, rel.b_labels)}
        with t.span("io.report") as counts:
            report = write_report(result, tables)
            counts["bytes"] = len(report.encode("utf-8"))
        code, out, err = outcome
        if code == 0 and out != report:
            return (1, out, "cli report differs from the composed report")
        return outcome


class LibraryWorkload:
    """Small nebs relations and necs digraphs solved through the library."""

    def __init__(self, workdir: Path, meta: dict) -> None:
        spec = json.loads((workdir / "items.json").read_text())
        self.ref = wl.load_reference(workdir / "reference.npz")
        self.items = []
        with np.load(workdir / "input.npz") as data:
            for slot, (kind, phi) in enumerate(zip(spec["kinds"], spec["phis"])):
                M = data[f"w{slot}"]
                if kind == "nebs":
                    m, n = M.shape
                    rel = WeightRelation(
                        tuple(f"a{j}" for j in range(n)), tuple(f"b{i}" for i in range(m)), M
                    )
                    self.items.append(("nebs", rel, transform(phi)))
                else:
                    labels = tuple(f"v{i}" for i in range(M.shape[0]))
                    self.items.append(("necs", M, labels))

    def __len__(self) -> int:
        return len(self.items)

    def plain(self, slot: int):
        kind, x, y = self.items[slot]
        if kind == "nebs":
            report = validate(x, y)
            if not report.ok:
                return {"violations": report.violations}
            result = compute_nebs(x, y)
            rank(result.a, x.a_labels)
            rank(result.b, x.b_labels)
            return {"a": result.a, "b": result.b, "rho": result.rho}
        result = compute_necs(x)
        rank(result.c, y)
        return {"c": result.c, "eigenvalue": result.eigenvalue}

    def check(self, slot: int, got: dict) -> str | None:
        if "violations" in got:
            return "validate: " + "; ".join(got["violations"])
        keys = ("a", "b", "rho") if self.items[slot][0] == "nebs" else ("c", "eigenvalue")
        return wl.gate(got, {k: self.ref[f"{k}{slot}"] for k in keys})

    def traced(self, slot: int, t: Tracer):
        kind, x, y = self.items[slot]
        if kind == "nebs":
            W = x.weights
            with t.span("core.validate"):
                report = validate(x, y)
            if not report.ok:
                return {"violations": report.violations}
            with t.span("centrality.compute_nebs", nnz=int(np.count_nonzero(W)), cells=W.size):
                result = compute_nebs(x, y)
            with t.span("core.reverse_matrix"):
                Wp = reverse_matrix(x, y)
            with t.span("centrality.iterate") as counts:
                counts["iterations"] = alternating_iterate(W, Wp)[2].iterations
            with t.span("centrality.degeneracy"):
                detect_degeneracy(W, Wp)
            with t.span("centrality.rank"):
                rank(result.a, x.a_labels)
                rank(result.b, x.b_labels)
            return {"a": result.a, "b": result.b, "rho": result.rho}
        with t.span("centrality.compute_necs"):
            result = compute_necs(x)
        with t.span("spectral.power_iterate") as counts:
            counts["iterations"] = power_iterate(x)[2].iterations
        with t.span("centrality.rank"):
            rank(result.c, y)
        return {"c": result.c, "eigenvalue": result.eigenvalue}


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    workdir = Path(config["workdir"])
    meta = config["inputs"]
    if config["workload"] == "library-batch":
        work = LibraryWorkload(workdir, meta)
    else:
        work = CliWorkload(workdir, meta)

    failed = 0
    errors: list[str] = []

    def judge(slot: int, outcome) -> bool:
        nonlocal failed
        reason = outcome if isinstance(outcome, str) else work.check(slot, outcome)
        if reason is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"item {slot}: {reason}")
        return reason is None

    def attempt(call, slot: int, *extra):
        try:
            return call(slot, *extra)
        except Exception as exc:  # a failed operation is counted, not fatal
            return f"{type(exc).__name__}: {exc}"

    tracer = Tracer() if config["trace"] else None
    latencies: list[float] = []
    attempted = cycles = solved = 0
    # One untimed, checked pass over the items before the clock starts, so
    # first-call costs (page faults on the first large allocations, lazy
    # imports inside numpy) stay out of the samples.
    for slot in range(len(work)):
        attempted += 1
        judge(slot, attempt(work.plain, slot))
    deadline = time.perf_counter() + config["seconds"]
    cycle = 0.0
    while cycles < MIN_CYCLES[tracer is not None] or time.perf_counter() + cycle <= deadline:
        slot = cycles % len(work)
        began = time.perf_counter()
        outcome = attempt(work.plain, slot)
        latencies.append(time.perf_counter() - began)
        attempted += 1
        solved += judge(slot, outcome)
        if tracer is not None:
            tracer.op += 1
            with tracer.span("op"):
                outcome = attempt(work.traced, slot, tracer)
            attempted += 1
            judge(slot, outcome)
        cycles += 1
        cycle = time.perf_counter() - began

    result = {
        "bicentral": bicentral.__file__,
        "attempted": attempted,
        "failed": failed,
        "solved": solved,
        "errors": errors,
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else [],
    }
    (workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
