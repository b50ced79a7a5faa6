#!/usr/bin/env python3
"""The omegacalc benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload graded-q --seed 1 --seconds 20 --trace 0

Run from the repository root.  The load is a closed loop: one process, one
thread, one op at a time (in `cli`, one child process at a time).  A round
is the whole op list of one input variant; rounds cycle through VARIANTS
variants until --seconds have passed and at least MIN_SAMPLES ops ran, so
every run measures whole rounds.  Op times are calibrated against host speed
(see `calibrate`); every op's output is checked (see workloads.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics of layers.py, with
trace.overhead_share comparing the two.  Human-readable lines come first;
the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "omegacalc" / "fixtures"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("graded-q", "graded-fp", "first-order", "cli")
SETUP_REPEATS = 5
# Rounds cycle through this many input variants of the seed, so a run mixes
# several relabelings of every input instead of resting on one draw.
VARIANTS = 4
# p90 needs ten samples beyond it, so a run measures at least this many ops
MIN_SAMPLES = 100

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _purge_library():
    for name in [m for m in sys.modules if m == "omegacalc" or m.startswith("omegacalc.")]:
        del sys.modules[name]


def setup(workload, seed, reference, workdir):
    """Import omegacalc, then generate, parse and axiom-check the inputs of
    every variant: one op list per variant, and the CLI runner for `cli`."""
    _purge_library()
    import omegacalc  # noqa: F401
    import omegacalc.io  # noqa: F401

    draws = [inputs.Draw(workload, seed, v) for v in range(VARIANTS)]
    if workload != "cli":
        return [workloads.library_ops(workload, d, reference, FIXTURES) for d in draws], None
    import cliops

    if workdir.exists():
        shutil.rmtree(workdir)
    runner = cliops.CliRunner(ROOT, workdir)
    variants = [cliops.cli_ops(d, reference, runner, workdir / f"v{v}", FIXTURES)
                for v, d in enumerate(draws)]
    parse = sys.modules["omegacalc.io"].algebra_from_json
    for path in sorted(workdir.glob("v*/*.json")):
        if not path.name.startswith(("rel_", "calc_", "map", "broken")):
            parse(json.loads(path.read_text()))
    return variants, runner


# Host speed on a shared 2-vCPU VM swings by about 30 % over seconds, even
# for a fixed pure-Python loop.  Every op is therefore timed between two runs
# of a fixed calibration loop that does not use the library, and its wall time
# is scaled by CALIBRATION_NOMINAL_S / (mean of the two calibration times):
# reported times are milliseconds at the host speed where the loop takes its
# nominal time.  A change to the library moves them in full; a change in host
# speed cancels.  The raw wall times are printed alongside.
CALIBRATION_NOMINAL_S = 0.008
_CAL_MATRIX = [[Fraction(i * 7 + j, 3) if (i + j) % 3 else 0 for j in range(12)]
               for i in range(12)]


def calibrate():
    """Wall time of a fixed loop of Fraction products and int arithmetic."""
    a = _CAL_MATRIX
    t0 = time.perf_counter()
    for _ in range(2):
        [[sum(a[i][k] * a[k][j] for k in range(12) if a[i][k]) for j in range(12)]
         for i in range(12)]
        s = 0
        for k in range(3000):
            s += (k * k) % 7
    return time.perf_counter() - t0


def calibrated(fn, before=None):
    """Run fn between two calibrations (`before` may reuse the previous op's
    closing one); returns (result, raw s, scaled s, closing calibration)."""
    if before is None:
        before = calibrate()
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        raw = time.perf_counter() - t0
        after = calibrate()
    return result, raw, raw * CALIBRATION_NOMINAL_S * 2 / (before + after), after


class Round:
    """Latencies, failures and summaries of one pass over the op list."""

    def __init__(self):
        self.latencies = []       # calibrated seconds
        self.raw_latencies = []   # wall seconds
        self.failures = []
        self.summaries = []


def run_round(ops, tracer=None):
    rnd = Round()
    cal = None
    for idx, op in enumerate(ops):
        summary = None
        try:
            args = op.prepare()
            if tracer is not None:
                tracer.activate(idx)
            try:
                result, raw, scaled, cal = calibrated(lambda: op.run(*args), cal)
            finally:
                if tracer is not None:
                    tracer.deactivate()
            rnd.latencies.append(scaled)
            rnd.raw_latencies.append(raw)
            summary = op.summarize(result)
            error = op.check(summary)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        rnd.summaries.append(summary)
        if error:
            rnd.failures.append(f"{op.name}: {error}")
    return rnd


def percentile(sorted_values, q):
    """Nearest-rank percentile; also returns how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(variants, seconds):
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(variants[len(rounds) % len(variants)]))
        samples = sum(len(r.latencies) for r in rounds)
        if time.perf_counter() >= deadline and samples >= MIN_SAMPLES:
            return rounds


def measure_traced(variants, seconds, runner):
    """Alternate untraced and traced rounds of the same variant; per-layer
    numbers per traced round."""
    tracer = layers.Tracer()
    untraced, traced, raws, cli_times = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        ops = variants[len(traced) % len(variants)]
        untraced.append(run_round(ops))
        tracer.reset()
        if runner is not None:
            runner.traced = True
            traced.append(run_round(ops))
            runner.traced = False
            parts = runner.take_raw()
            raws.append(layers.merge_raw(parts))
            import_s = sum(p["import_s"] for p in parts)
            main_s = sum(p["main_s"] for p in parts)
            io_s = sum(p["self_s"].get(k, 0.0) for p in parts for k in ("io.load", "io.emit"))
            cli_times.append({"import_s": import_s, "compute_s": main_s - io_s})
        else:
            tracer.install()
            try:
                traced.append(run_round(ops, tracer))
            finally:
                tracer.uninstall()
            raws.append(tracer.raw())
        if time.perf_counter() >= deadline:
            break
    mismatched = [
        f"{op.name}: traced result {t} differs from untraced {u}"
        for p, (ur, tr) in enumerate(zip(untraced, traced))
        for op, u, t in zip(variants[p % len(variants)], ur.summaries, tr.summaries)
        if u != t
    ]
    u_s = sum(sum(r.latencies) for r in untraced)
    t_s = sum(sum(r.latencies) for r in traced)
    overhead = t_s / u_s - 1.0 if u_s else 0.0
    per_round = [
        layers.metrics(raw, sum(r.raw_latencies), cli, overhead)
        for raw, r, cli in zip(raws, traced, cli_times or [None] * len(raws))
    ]
    values = {}
    for name, unit, _ in layers.METRICS:
        if name in layers.EXACT_METRICS:
            values[name] = per_round[0][name]   # the first traced round's
        else:
            values[name] = statistics.fmean(m[name] for m in per_round)
    return untraced + traced, mismatched, values, len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omegacalc" / "__init__.py").is_file():
        print(f"omegacalc sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The calibration loop and the timed work must share a CPU: the vCPUs of
    # a shared host slow down independently.  Child processes inherit this.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    reference = workloads.load_reference()
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            (variants, runner), _, scaled, _ = calibrated(
                lambda: setup(args.workload, args.seed, reference, workdir))
            setup_times.append(scaled)

        if args.trace:
            rounds, mismatched, layer_values, n_traced = measure_traced(
                variants, args.seconds, runner)
        else:
            rounds, mismatched = measure(variants, args.seconds), []
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    latencies = sorted(x for r in rounds for x in r.latencies)
    raw = sorted(x for r in rounds for x in r.raw_latencies)
    failures = [f for r in rounds for f in r.failures] + mismatched
    attempted = sum(len(r.summaries) for r in rounds)
    failed = sum(len(r.failures) for r in rounds) + len(mismatched)
    p90, beyond = percentile(latencies, 0.9)

    for line in sorted(set(failures)):
        print(f"FAILED {line}")
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"ops/round {len(variants[0])} trace {args.trace}")
    print(f"failed_share {failed / attempted:.6g} share ({failed}/{attempted} ops)")
    if args.trace:
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit, _ in layers.METRICS}
        print(f"per-layer counts are those of the first traced round; times are means "
              f"over {n_traced} traced rounds")
    else:
        values = {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_p90_ms": p90 * 1000.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"latency samples {len(latencies)}, {beyond} beyond p90; "
              f"setup repeated {SETUP_REPEATS} times")
        print(f"raw wall times: {len(raw) / sum(raw):.6g} ops/s, "
              f"p50 {statistics.median(raw) * 1000:.6g} ms, "
              f"p90 {percentile(raw, 0.9)[0] * 1000:.6g} ms")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
