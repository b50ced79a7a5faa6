"""The cli workload: every subcommand as a fresh process, one at a time.

Inputs are the shipped fixtures plus seed-generated algebra, relation,
calculus and map files written to a work directory.  Each op checks the exit
code the README documents and the dimensions or verdicts in the JSON output.
The documented error paths (unreadable file 64, kahler on M2(Q) 2, axiom
violation 1) are ops too.  Paths with known exit-code defects are left to
`reports.py defects`, because a gated workload must have no failing op.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import inputs
from workloads import (
    Op,
    comparison_shapes,
    kahler_degree1,
    universal_cohomology,
    universal_dims,
)

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120


def _write(path: Path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return str(path)


class CliRunner:
    """Starts `python -m omegacalc.cli`, or the tracing wrapper around it."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.traced = False
        self.raw_paths = []

    def __call__(self, argv):
        if self.traced:
            out = self.workdir / f"layers-{len(self.raw_paths)}.json"
            self.raw_paths.append(out)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(out)] + argv
        else:
            cmd = [sys.executable, "-m", "omegacalc.cli"] + argv
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def take_raw(self):
        """Layer aggregates written by the traced children since the last call."""
        parts = []
        for path in self.raw_paths:
            parts.append(json.loads(path.read_text()))
            path.unlink()
        self.raw_paths = []
        return parts


def _summary(expected_code, extract):
    def summarize(res):
        code, out, err = res
        try:
            doc = json.loads(out)
        except ValueError:
            return {"code": code, "output": "not json", "traceback": "Traceback" in err}
        return {"code": code, "value": extract(doc), "traceback": "Traceback" in err}
    return summarize


def _check(expected_code, expected_value):
    def check(s):
        if s["code"] != expected_code or s.get("traceback"):
            return f"exit {s['code']} (traceback: {s.get('traceback')}), expected {expected_code}"
        if s.get("value") != expected_value:
            return f"expected {expected_value}, got {s.get('value')}"
        return None
    return check


def cli_op(runner, name, argv, code, extract, expected):
    return Op(f"cli {name}", lambda: (argv,), runner,
              _summary(code, extract), _check(code, expected))


def cli_ops(draw, reference, runner: CliRunner, w: Path, fixtures: Path):
    """The ops of one input variant; its generated files go to directory w."""
    w.mkdir(parents=True)
    fx = lambda name: str(fixtures / name)
    algs = {fam: draw.algebra(fam) for fam in ("x2", "x3", "z2", "z3", "inc3")}
    paths = {fam: _write(w / f"{fam}.json", a.doc) for fam, a in algs.items()}
    pair = draw.rng.choice(inputs.relation_pool(algs["x2"]))
    _write(w / "rel_x2.json", algs["x2"].relation_doc(*pair))
    bic_pair = draw.rng.choice(inputs.relation_pool(algs["z2"]))
    _write(w / "rel_z2.json", algs["z2"].relation_doc(*bic_pair))
    m, n = 2, 3
    k = draw.pick(inputs.map_exponents(m, n))
    map_path = _write(w / "map.json", inputs.map_doc(m, n, k))
    src_calc = _write(w / "calc_src.json",
                      {"algebra": inputs.map_doc(m, n, k)["source"], "kind": "kahler"})
    tgt_calc = _write(w / "calc_tgt.json",
                      {"algebra": inputs.map_doc(2, 4, 2)["target"], "kind": "universal"})
    broken = inputs.AlgebraInput("x3", None, inputs.truncated(3), [0, 1, 2], True).doc
    broken["mult"][1][1] = ["1", "0", "0"]
    broken_path = _write(w / "broken.json", broken)
    missing = str(w / "missing.json")

    dims = lambda d: [x["dim_H"] for x in d["degrees"]]
    ref = reference.get
    x3, inc3 = algs["x3"], algs["inc3"]
    ops = [
        cli_op(runner, "check x3", ["check", paths["x3"], "--format", "json"], 0,
               lambda d: d["valid"], True),
        cli_op(runner, "check qs3", ["check", fx("qs3.json"), "--format", "json"], 0,
               lambda d: d["valid"], True),
        cli_op(runner, "universal inc3", ["universal", paths["inc3"], "--format", "json"], 0,
               lambda d: d["dim"], inc3.dim * inc3.dim - inc3.dim),
        cli_op(runner, "universal m2q", ["universal", fx("m2q.json"), "--format", "json"], 0,
               lambda d: d["dim"], 12),
        cli_op(runner, "kahler x3", ["kahler", paths["x3"], "--format", "json"], 0,
               lambda d: d["dim"], kahler_degree1("x3", None)),
        cli_op(runner, "prolong universal z2",
               ["prolong", paths["z2"], "--max-degree", "3", "--format", "json"], 0,
               lambda d: d["dims"], universal_dims(2, 3)),
        cli_op(runner, "prolong quotient x2",
               ["prolong", paths["x2"], "--calculus", "quotient:rel_x2.json",
                "--max-degree", "3", "--format", "json"], 0,
               lambda d: d["dims"], ref(f"qprol|Q|x2|{pair[0]},{pair[1]}|3")),
        cli_op(runner, "cohomology universal x2",
               ["cohomology", paths["x2"], "--flavor", "universal", "--max-degree", "3",
                "--format", "json"], 0, dims, universal_cohomology(3)),
        cli_op(runner, "cohomology kahler qx2",
               ["cohomology", fx("qx2.json"), "--flavor", "kahler", "--max-degree", "3",
                "--format", "json"], 0, dims, ref("kdr|Q|x2|3")),
        cli_op(runner, "compare f2x2",
               ["compare", fx("f2x2.json"), "--max-degree", "2", "--format", "json"], 0,
               lambda d: [dims(d), [[len(c), len(c[0]) if c else 0] for c in d["comparison"]]],
               [universal_cohomology(2), comparison_shapes(ref("kdr|F2|x2|2"), 2)]),
        cli_op(runner, "extend kahler",
               ["extend", "--map", map_path, "--calculus", src_calc, "--format", "json"], 0,
               lambda d: [d["input_dim"], d["result_dim"]],
               [kahler_degree1(f"x{m}", None), ref(f"push|{m},{n},{k}|kahler")]),
        cli_op(runner, "restrict universal",
               ["restrict", "--map", fx("y_to_x2.json"), "--calculus", tgt_calc,
                "--format", "json"], 0,
               lambda d: [d["input_dim"], d["result_dim"]],
               [12, ref("pull|2,4,2|universal")]),
        cli_op(runner, "hopf-check z3", ["hopf-check", paths["z3"], "--format", "json"], 0,
               lambda d: d["valid"], True),
        cli_op(runner, "bicovariant z2",
               ["bicovariant", paths["z2"], "--relations", "rel_z2.json", "--format", "json"],
               0, lambda d: [d["bicovariant"], d["calculus_dim"]],
               ref(f"bicov|Q|z2|{bic_pair[0]},{bic_pair[1]}")),
        cli_op(runner, "check unreadable", ["check", missing, "--format", "json"], 64,
               lambda d: "error" in d, True),
        cli_op(runner, "kahler m2q", ["kahler", fx("m2q.json"), "--format", "json"], 2,
               lambda d: "error" in d, True),
        cli_op(runner, "check axiom violation", ["check", broken_path, "--format", "json"], 1,
               lambda d: d["valid"], False),
    ]
    draw.rng.shuffle(ops)
    return ops
