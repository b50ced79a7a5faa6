#!/usr/bin/env python3
"""On-demand reports that the repeated benchmark runs leave out.

    python3 perfbench/reports.py frontier
    python3 perfbench/reports.py defects

Run from the repository root.

frontier: for each graded family, the largest degree (up to MAX_DEGREE) whose
universal prolongation (and, for commutative algebras, Kaehler maximal
prolongation) finishes within LIMIT_S.  Each attempt is a child process that is killed
at the limit.  Not gated: one attempt per point, so read it as a frontier,
not as a timing.

defects: the CLI paths with known exit-code defects.  Each probe should end
in a documented exit code (0/1/2/64) with a JSON error and no traceback;
the report prints every probe and the failed share.  These probes are kept
out of the gated cli workload because a gated workload must have no failing
op.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "omegacalc" / "fixtures"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

LIMIT_S = 10.0
MAX_DEGREE = 5
FRONTIER_FAMILIES = [
    ("x2", None), ("x3", None), ("x4", None), ("m2", None), ("s3", None),
    ("x3", 5), ("x4", 5), ("m2", 5), ("s3", 5),
]

_ATTEMPT = """
import json, sys
from omegacalc.io import algebra_from_json
from omegacalc import kahler_calculus, maximal_prolongation, universal_prolongation
a = algebra_from_json(json.loads(sys.argv[1]))
degree = int(sys.argv[3])
if sys.argv[2] == "universal":
    dims = universal_prolongation(a, degree).dims
else:
    dims = maximal_prolongation(kahler_calculus(a), degree).dims
print(json.dumps(dims))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def frontier():
    rng = random.Random(0)
    print(f"largest degree finishing within {LIMIT_S:g} s (capped at {MAX_DEGREE})")
    for family, p in FRONTIER_FAMILIES:
        alg = inputs.make_algebra(rng, family, p)
        flavors = ["universal"] + (["kahler"] if alg.commutative else [])
        for flavor in flavors:
            best, best_s = 0, 0.0
            for degree in range(1, MAX_DEGREE + 1):
                t0 = time.perf_counter()
                try:
                    proc = subprocess.run(
                        [sys.executable, "-c", _ATTEMPT, json.dumps(alg.doc), flavor,
                         str(degree)],
                        env=_env(), capture_output=True, text=True, timeout=LIMIT_S)
                except subprocess.TimeoutExpired:
                    break
                if proc.returncode != 0:
                    break
                best, best_s = degree, time.perf_counter() - t0
            reached = f">= {best}" if best == MAX_DEGREE else str(best)
            print(f"{inputs.field_label(p):3s} {alg.key:4s} {flavor:9s} "
                  f"degree {reached:>4s} ({best_s:.2f} s)")
    return 0


def defects():
    workdir = ROOT / ".perfbench-work" / f"defects-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        no_algebra = workdir / "calc_no_algebra.json"
        no_algebra.write_text(json.dumps({"kind": "universal"}))
        no_source = workdir / "map_no_source.json"
        no_source.write_text(json.dumps({"target": inputs.map_doc(2, 4, 2)["target"],
                                         "matrix": [["1", "0"]] * 4}))
        calc_x4 = workdir / "calc_x4.json"
        calc_x4.write_text(json.dumps({"algebra": inputs.map_doc(2, 4, 2)["target"],
                                       "kind": "universal"}))
        probes = [
            ("bicovariant on a missing file", [], [64],
             ["bicovariant", str(workdir / "missing.json"), "--relations", "r.json"]),
            ("extend, calculus without algebra", [], [1, 2, 64],
             ["extend", "--map", str(FIXTURES / "y_to_x2.json"), "--calculus",
              str(no_algebra)]),
            ("restrict, map without source", [], [1, 2, 64],
             ["restrict", "--map", str(no_source), "--calculus", str(calc_x4)]),
            ("prolong, non-integer OMEGA_MAX_DIM", [("OMEGA_MAX_DIM", "lots")], [1, 2, 64],
             ["prolong", str(FIXTURES / "qx2.json"), "--max-degree", "2"]),
        ]
        failed = 0
        for name, extra_env, codes, argv in probes:
            env = _env()
            env.update(extra_env)
            proc = subprocess.run([sys.executable, "-m", "omegacalc.cli"] + argv
                                  + ["--format", "json"], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=120)
            try:
                json_error = "error" in json.loads(proc.stdout)
            except ValueError:
                json_error = False
            traceback = "Traceback" in proc.stderr
            ok = proc.returncode in codes and json_error and not traceback
            failed += not ok
            print(f"{'ok    ' if ok else 'FAILED'} {name}: exit {proc.returncode} "
                  f"(documented {codes}), JSON error {json_error}, traceback {traceback}")
        print(f"failed_share {failed / len(probes):.6g} share ({failed}/{len(probes)} probes)")
    finally:
        shutil.rmtree(workdir)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="report", required=True)
    sub.add_parser("frontier")
    sub.add_parser("defects")
    args = parser.parse_args(argv)
    if not (SRC / "omegacalc" / "__init__.py").is_file():
        print(f"omegacalc sources not found under {SRC}", file=sys.stderr)
        return 2
    return frontier() if args.report == "frontier" else defects()


if __name__ == "__main__":
    sys.exit(main())
