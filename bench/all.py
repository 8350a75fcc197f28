"""Run every workload, untraced and traced, and merge the full records.

Usage (from the repository root):

    python3 bench/all.py --seed 1 --seconds 55 --out bench/baseline.json

Prints each run's metrics by name and unit as ``run.py`` does, then writes
one JSON file holding every run's full record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense-recip", "sparse-edges", "library-batch")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    merged: dict[str, dict] = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            subprocess.run(
                [
                    sys.executable, str(ROOT / "bench" / "run.py"),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ],
                cwd=ROOT,
                check=True,
            )
            result = ROOT / ".bench_work" / f"{workload}-seed{args.seed}-trace{trace}" / "result.json"
            merged.setdefault(workload, {})["traced" if trace else "untraced"] = json.loads(
                result.read_text()
            )
    args.out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
