#!/usr/bin/env python3
"""Run the benchmark several times and write BENCH_<n>.json at the repo root.

A thin wrapper around perfbench/run.py: for each run, every chosen workload
runs once (workloads alternate, so a drift in host speed spreads over all of
them), and the last line each run prints, one JSON object, is read back.  The file
holds, per workload, the median and quartiles of every end-to-end metric that
BENCHMARK.json declares, each run's value, the ops attempted and failed, and
whether every run was correct; plus the seed (always 1), the run length,
the host and the Python version.  Run from the repository root:

    python3 tools/bench.py --number 8
    python3 tools/bench.py --number 8 --workload graded-fp --runs 10

Defaults: every workload of BENCHMARK.json, 5 runs, its run_seconds.
Fewer than 5 runs make a smoke test, not a measurement.
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

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run_once(workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], end_to_end: list[str]) -> dict:
    """Median, quartiles and every run's value of each end-to-end metric."""
    metrics = {}
    for name in end_to_end:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "runs": values,
                         "unit": results[0]["metrics"][name]["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = [w["name"] for w in benchmark["workloads"]]
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True,
                        help="n in the name BENCH_<n>.json")
    parser.add_argument("--workload", action="append", choices=all_workloads,
                        help="repeat to choose several (default: all)")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    workloads = args.workload or all_workloads

    results = {w: [] for w in workloads}
    for run in range(args.runs):
        for w in workloads:
            results[w].append(run_once(w, args.seconds))
            ops = results[w][-1]["metrics"]["ops_per_s"]["value"]
            print(f"run {run + 1}/{args.runs} {w}: ops_per_s {ops:.6g}", flush=True)

    doc = {
        "seed": SEED,
        "seconds": args.seconds,
        "runs": args.runs,
        "host": {"node": platform.node(), "cpu_count": os.cpu_count()},
        "python": platform.python_version(),
        "workloads": {w: summarize(rs, end_to_end) for w, rs in results.items()},
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0 if all(s["correct"] for s in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
