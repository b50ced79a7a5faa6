#!/usr/bin/env python3
"""Regenerate reference.json: dimensions and verdicts with no closed form.

    python3 perfbench/record_reference.py

Run from the repository root.  Every value is keyed by its pool entry
(algebra family and isomorphism class, relation pair, map exponent, degree)
and is invariant under the seeded relabeling, so one recording covers every
seed.  Recorded once against the unmodified library; rerun only on purpose,
and say why, because the benchmark's checks compare against this file.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import omegacalc  # noqa: E402,F401
import omegacalc.io  # noqa: E402,F401

import inputs  # noqa: E402
import workloads as w  # noqa: E402


def graded_recording_ops(rng, templates, primes):
    empty = {}
    for p in primes:
        for family, kind, degree in templates:
            for variant in inputs.variants(family):
                alg = inputs.make_algebra(rng, family, p, variant)
                if kind == "qprol":
                    for pair in inputs.relation_pool(alg):
                        yield w.op_quotient_prolongation(alg, pair, degree, empty)
                if kind in ("kprol", "cmp", "dr_k"):
                    yield w.op_de_rham(alg, "kahler", degree, empty)
                    yield w.op_kahler_prolongation(alg, degree, empty)
                    for factor in alg.factors or ():
                        f_alg = inputs.make_algebra(rng, factor, p)
                        yield w.op_kahler_prolongation(f_alg, degree, empty)


def transport_recording_ops():
    empty = {}
    slots = [(m, n, k) for m, n in inputs.MAP_SLOTS for k in inputs.map_exponents(m, n)]
    slots += [(2, 4, 2), (2, 3, 2)]
    for m, n, k in slots:
        fmap = w.lib("io", "morphism_from_json")(inputs.map_doc(m, n, k))
        for direction in ("push", "pull"):
            for kind in ("universal", "kahler"):
                yield w.op_transport(fmap, f"{m},{n},{k}", direction, kind, empty)


def bicovariant_entries(rng):
    """[bicovariant, calculus dim] of the z2 quotient by each pool relation."""
    out = {}
    alg = inputs.make_algebra(rng, "z2")
    a = w.lib("io", "algebra_from_json")(alg.doc)
    h = w.lib("io", "bimonoid_from_json")(alg.doc, a)
    for pair in inputs.relation_pool(alg):
        calc = w._quotient_calculus(a, alg.relation_doc(*pair))
        verdict = w.lib("hopf", "bicovariance_check")(h, calc)["bicovariant"]
        out[f"bicov|Q|z2|{pair[0]},{pair[1]}"] = [verdict, calc.dim]
    return out


def main():
    rng = random.Random(0)
    ops = list(graded_recording_ops(rng, w.GRADED_Q, [None]))
    ops += list(graded_recording_ops(rng, w.GRADED_FP, w.PRIMES))
    ops += list(graded_recording_ops(rng, [("x2", "dr_k", 2)], [2]))
    ops += list(transport_recording_ops())
    reference = {}
    for op in ops:
        if op.ref_key is None or op.ref_key in reference:
            continue
        reference[op.ref_key] = op.summarize(op.run(*op.prepare()))
        print(op.ref_key, reference[op.ref_key], flush=True)
    reference.update(bicovariant_entries(rng))
    w.REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(reference)} entries to {w.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
