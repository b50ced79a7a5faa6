#!/usr/bin/env python3
"""Regenerate tests/golden/cli.json, the CLI snapshot of the shipped fixtures.

The snapshot maps each invocation (its argv joined by spaces) to the exit
code and the sha256 of stdout.  It covers every subcommand on every shipped
algebra at degree 2 (qs3 at degree 1), in JSON format.  An argument that
starts with "fixtures/" names a shipped fixture; one that starts with
"inputs/" names a map, calculus or relations file that `write_inputs`
derives from the fixtures into a scratch directory, so no key holds a path
of the machine that wrote it.

Run from the repository root:

    PYTHONPATH=src python3 tools/gen_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from omegacalc.cli import main as cli_main
from omegacalc.io import algebra_from_json, dump_json

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "omegacalc" / "fixtures"
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
MAP_FIXTURE = "y_to_x2"
ALGEBRAS = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != MAP_FIXTURE)


def relation(doc: dict) -> list[str]:
    """d(b).b = 1 (x) b^2 - b (x) b for the last basis element b, in A (x) A
    coordinates; it lies in the universal calculus of every algebra."""
    alg = algebra_from_json(doc)
    f, n = alg.field, alg.dim
    b = n - 1
    vec = [f.zero()] * (n * n)
    for k, u in enumerate(alg.unit):
        for l, c in enumerate(alg.mult_mat.column(b * n + b)):
            vec[k * n + l] = f.add(vec[k * n + l], f.mul(u, c))
    vec[b * n + b] = f.sub(vec[b * n + b], f.one())
    return [f.format(x) for x in vec]


def write_inputs(out: Path) -> None:
    """The identity map, four calculus files and a relations file per algebra,
    two more relations files on qz3, and two calculus files for the endpoints
    of the shipped map."""
    def write(name, doc):
        (out / name).write_text(dump_json(doc))

    for name in ALGEBRAS:
        path = FIXTURES / f"{name}.json"
        doc = json.loads(path.read_text())
        ident = [["1" if i == j else "0" for j in range(doc["dim"])] for i in range(doc["dim"])]
        rel = relation(doc)
        write(f"id_{name}.json", {"source": doc, "target": doc, "matrix": ident})
        write(f"rel_{name}.json", {"generators": [rel]})
        write(f"calc_{name}_universal.json", {"algebra": doc, "kind": "universal"})
        write(f"calc_{name}_kahler.json", {"algebra": str(path), "kind": "kahler"})
        write(f"calc_{name}_quotient.json",
              {"algebra": doc, "kind": "quotient", "relations": [rel]})
        write(f"calc_{name}_quotient_file.json",
              {"algebra": str(path), "kind": "quotient", "relations_file": f"rel_{name}.json"})
    # two relation files on Q[Z/3] (basis e, g, g2): e (x) e + e (x) g - g (x) g2 - g2 (x) g2
    # spans a quotient that is not bicovariant, and no relations leave the
    # universal calculus
    write("rel_qz3_not_bicovariant.json",
          {"generators": [["1", "1", "0", "0", "0", "-1", "0", "0", "-1"]]})
    write("rel_none.json", {"generators": []})
    fmap = json.loads((FIXTURES / f"{MAP_FIXTURE}.json").read_text())
    for end in ("source", "target"):
        for kind in ("universal", "kahler"):
            write(f"calc_map_{end}_{kind}.json", {"algebra": fmap[end], "kind": kind})


def invocations() -> list[list[str]]:
    out = []
    for name in ALGEBRAS:
        alg = f"fixtures/{name}.json"
        deg = ["--max-degree", "1" if name == "qs3" else "2"]
        out += [
            ["check", alg],
            ["universal", alg],
            ["kahler", alg],
            ["prolong", alg] + deg,
            ["prolong", alg, "--calculus", "kahler"] + deg,
            ["prolong", alg, "--calculus", f"quotient:inputs/rel_{name}.json"] + deg,
            ["prolong", alg] + deg + ["--matrices"],
            ["prolong", alg, "--calculus", "kahler"] + deg + ["--matrices"],
            ["cohomology", alg, "--flavor", "universal"] + deg,
            ["cohomology", alg, "--flavor", "kahler"] + deg,
            ["compare", alg] + deg,
            ["extend", "--map", f"inputs/id_{name}.json",
             "--calculus", f"inputs/calc_{name}_universal.json"],
            ["restrict", "--map", f"inputs/id_{name}.json",
             "--calculus", f"inputs/calc_{name}_kahler.json"],
            ["extend", "--map", f"inputs/id_{name}.json",
             "--calculus", f"inputs/calc_{name}_quotient.json"],
            ["restrict", "--map", f"inputs/id_{name}.json",
             "--calculus", f"inputs/calc_{name}_quotient_file.json"],
            ["hopf-check", alg],
            ["bicovariant", alg, "--relations", f"inputs/rel_{name}.json"],
        ]
    out.append(["prolong", "fixtures/qz3.json", "--max-degree", "3", "--matrices"])
    for rel in ("rel_qz3_not_bicovariant", "rel_none"):
        out.append(["bicovariant", "fixtures/qz3.json", "--relations", f"inputs/{rel}.json"])
    fmap = f"fixtures/{MAP_FIXTURE}.json"
    for kind in ("universal", "kahler"):
        out.append(["extend", "--map", fmap, "--calculus", f"inputs/calc_map_source_{kind}.json"])
        out.append(["restrict", "--map", fmap, "--calculus", f"inputs/calc_map_target_{kind}.json"])
    return [argv + ["--format", "json"] for argv in out]


def resolve(token: str, inputs: Path) -> str:
    """The argument with a leading "fixtures/" or "inputs/" made absolute."""
    roots = {"fixtures": FIXTURES, "inputs": inputs}
    lead = "quotient:" if token.startswith("quotient:") else ""
    root, sep, rest = token[len(lead):].partition("/")
    if sep and root in roots:
        return lead + str(roots[root] / rest)
    return token


def run(argv: list[str], inputs: Path) -> dict:
    """Exit code and stdout digest of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main([resolve(t, inputs) for t in argv])
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def main() -> int:
    os.environ.pop("OMEGA_MAX_DIM", None)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        write_inputs(inputs)
        snapshot = {" ".join(argv): run(argv, inputs) for argv in invocations()}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(dump_json(snapshot))
    print(f"wrote {len(snapshot)} entries to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
