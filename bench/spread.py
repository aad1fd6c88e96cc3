"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --runs 10 [--seconds 30] [--workload catalog ...] [--out FILE]

Runs ``run.py`` once per seed 1..runs and workload, one process at a time, and
reports for each metric the median and the quartile spread
(Q3 - Q1) / median, with quartiles from ``statistics.quantiles(n=4)``,
next to the metric's bound in BENCHMARK.json.  ``--out`` writes the
summary with the Python version and CPU count, as in BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs": args.runs,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary["workloads"][workload] = {}
        for name, vals in values.items():
            row = {"median": statistics.median(vals), "spread": spread(vals), "bound": bounds[name]}
            summary["workloads"][workload][name] = row
            print(f"{workload:14s} {name:14s} median {row['median']:12.6g}  "
                  f"spread {row['spread']:.4f}  bound {row['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
