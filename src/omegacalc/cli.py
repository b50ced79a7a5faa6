"""Command-line front end.

Subcommands: check, universal, kahler, prolong, cohomology, compare, extend,
restrict, hopf-check, bicovariant.  Exit codes: 0 success, 1 computation
error (axiom failure in the input data), 2 precondition violation, 64 usage
error.  JSON output has sorted keys and canonical scalar strings, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import Algebra, AxiomError, algebra_axiom_report
from .bimodule import saturate_subspace
from .derham import (
    CochainComplex,
    cohomology,
    de_rham_comparison,
    graded_calculus_for,
)
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    quotient_calculus,
    universal_calculus,
)
from .hopf import bicovariance_check
from .io import (
    algebra_from_json,
    bimonoid_from_json,
    dump_json,
    load_json,
    mat_to_lists,
    morphism_from_json,
    relations_from_json,
)
from .kahler import kahler_calculus
from .linalg import LinAlgError, Mat, field_from_json, solve
from .scalars import calc_pullback, calc_pushforward

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 64

DEFAULT_MAX_DIM = 10 ** 6


class _Failure(Exception):
    def __init__(self, code: int, payload: dict):
        self.code = code
        self.payload = payload


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(dump_json(doc))
        return
    for line in _text_lines(doc, prefix=""):
        sys.stdout.write(line + "\n")


def _text_lines(value, prefix: str):
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _text_lines(sub, prefix + "  ")
            else:
                yield f"{prefix}{key}: {sub}"
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            yield f"{prefix}[{', '.join(str(x) for x in value)}]"
        else:
            for x in value:
                yield from _text_lines(x, prefix + "  ")
    else:
        yield f"{prefix}{value}"


def _load_algebra(path: str) -> tuple[Algebra, dict]:
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Failure(EXIT_USAGE, {"error": f"cannot read {path}: {exc}"})
    try:
        return algebra_from_json(doc), doc
    except AxiomError as exc:
        raise _Failure(EXIT_COMPUTE, {"error": "algebra axioms fail", "violations": exc.report})
    except (LinAlgError, KeyError, TypeError, ValueError) as exc:
        raise _Failure(EXIT_COMPUTE, {"error": f"bad algebra file: {exc}"})


def _load_calculus(spec: str, alg: Algebra, base: Path) -> FirstOrderCalculus:
    """"universal", "kahler", or "quotient:<relations.json>"."""
    if spec == "universal":
        return universal_calculus(alg)
    if spec == "kahler":
        return kahler_calculus(alg)
    if spec.startswith("quotient:"):
        rel_path = base / spec.split(":", 1)[1]
        try:
            rel_doc = load_json(rel_path)
        except (OSError, json.JSONDecodeError) as exc:
            raise _Failure(EXIT_USAGE, {"error": f"cannot read {rel_path}: {exc}"})
        u = universal_calculus(alg)
        gens = relations_from_json(rel_doc, alg.field, alg.dim * alg.dim)
        cols = []
        for g in gens:
            v = Mat.col_vector(alg.field, g)
            w = solve(u.iota, v)
            if w is None:
                raise _Failure(EXIT_COMPUTE, {
                    "error": "relation vector is not in the universal calculus "
                             "(does not lie in the kernel of multiplication)",
                })
            cols.append(w.column(0))
        sub = Mat.from_cols(alg.field, cols, rows=u.dim)
        closed = saturate_subspace(u.omega, sub)
        calc, _ = quotient_calculus(u, closed)
        return calc
    raise _Failure(EXIT_USAGE, {"error": f"unknown calculus spec {spec!r}"})


def _dim_guard(alg: Algebra, max_degree: int, force: bool) -> None:
    raw = os.environ.get("OMEGA_MAX_DIM", DEFAULT_MAX_DIM)
    try:
        limit = int(raw)
    except ValueError:
        raise _Failure(EXIT_USAGE, {"error": f"OMEGA_MAX_DIM must be an integer, got {raw!r}"})
    projected = alg.dim * max(alg.dim - 1, 1) ** max_degree if alg.dim > 1 else 1
    if projected > limit and not force:
        raise _Failure(EXIT_PRECONDITION, {
            "error": f"projected component dimension {projected} exceeds limit {limit}",
            "hint": "pass --force or raise OMEGA_MAX_DIM",
        })


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> dict:
    try:
        doc = load_json(args.algebra)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Failure(EXIT_USAGE, {"error": f"cannot read {args.algebra}: {exc}"})
    try:
        field = field_from_json(doc["field"])
        violations = algebra_axiom_report(field, int(doc["dim"]), doc["mult"], doc["unit"])
    except (LinAlgError, KeyError, TypeError, ValueError) as exc:
        raise _Failure(EXIT_COMPUTE, {"error": f"bad algebra file: {exc}"})
    out = {"valid": not violations, "violations": violations}
    if "comult" in doc and "counit" in doc:
        try:
            bimonoid_from_json(doc)
            out["bimonoid"] = {"valid": True, "violations": []}
        except AxiomError as exc:
            out["bimonoid"] = {"valid": False, "violations": exc.report}
            out["valid"] = False
    if not out["valid"]:
        raise _Failure(EXIT_COMPUTE, out)
    return out


def _cmd_universal(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    u = universal_calculus(alg)
    return {
        "dim": u.dim,
        "kernel_basis": [
            [alg.field.format(x) for x in u.iota.column(j)] for j in range(u.dim)
        ],
        "d": mat_to_lists(u.d),
    }


def _cmd_kahler(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    calc = kahler_calculus(alg)
    return {
        "dim": calc.dim,
        "d": mat_to_lists(calc.d),
        "left_action": mat_to_lists(calc.omega.left_mat),
        "right_action": mat_to_lists(calc.omega.right_mat),
    }


def _cmd_prolong(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    _dim_guard(alg, args.max_degree, args.force)
    base = Path(args.algebra).resolve().parent
    if args.calculus in ("universal", "kahler"):
        graded = graded_calculus_for(alg, args.calculus, args.max_degree)
    else:
        from .prolong import maximal_prolongation

        calc = _load_calculus(args.calculus, alg, base)
        graded = maximal_prolongation(calc, args.max_degree)
    out = {"dims": graded.dims, "max_degree": graded.max_degree}
    if args.matrices:
        out["differentials"] = [mat_to_lists(d) for d in graded.diff]
        out["wedges"] = {
            f"{i},{j}": mat_to_lists(w) for (i, j), w in sorted(graded.wedge.items())
        }
    return out


def _cmd_cohomology(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    _dim_guard(alg, args.max_degree, args.force)
    graded = graded_calculus_for(alg, args.flavor, args.max_degree)
    report = cohomology(CochainComplex.from_graded(graded))
    return {
        "degrees": [
            {
                "n": d.n,
                "dim_omega": d.dim_omega,
                "dim_H": d.dim_h,
                "representatives": mat_to_lists(d.representatives),
            }
            for d in report.degrees
        ],
    }


def _cmd_compare(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    _dim_guard(alg, args.max_degree, args.force)
    result = de_rham_comparison(alg, args.max_degree)
    # degrees describe the source (universal) theory; each comparison matrix
    # maps its classes to the Kaehler ones, so target dims are the row counts
    return {
        "degrees": [
            {
                "n": du.n,
                "dim_omega": du.dim_omega,
                "dim_H": du.dim_h,
                "representatives": mat_to_lists(du.representatives),
            }
            for du in result["universal"].degrees
        ],
        "comparison": [mat_to_lists(m) for m in result["comparison"]],
    }


def _cmd_extend(args) -> dict:
    return _transport(args, push=True)


def _cmd_restrict(args) -> dict:
    return _transport(args, push=False)


def _transport(args, push: bool) -> dict:
    base = Path(args.map).resolve().parent
    try:
        fmap = morphism_from_json(load_json(args.map), base)
    except AxiomError as exc:
        raise _Failure(EXIT_COMPUTE, {"error": "morphism axioms fail", "violations": exc.report})
    except (OSError, json.JSONDecodeError) as exc:
        raise _Failure(EXIT_USAGE, {"error": f"cannot read {args.map}: {exc}"})
    except (KeyError, TypeError) as exc:
        raise _Failure(EXIT_USAGE, {"error": f"malformed map file {args.map}: missing {exc}"})
    try:
        calc_doc = load_json(args.calculus)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Failure(EXIT_USAGE, {"error": f"cannot read {args.calculus}: {exc}"})
    if not isinstance(calc_doc, dict) or "algebra" not in calc_doc:
        raise _Failure(EXIT_USAGE, {"error": f"calculus file {args.calculus} has no 'algebra'"})
    calc_base = Path(args.calculus).resolve().parent
    alg = algebra_from_json(calc_doc["algebra"]) if not isinstance(calc_doc["algebra"], str) \
        else _load_algebra(str(calc_base / calc_doc["algebra"]))[0]
    expected = fmap.source if push else fmap.target
    if alg != expected:
        raise _Failure(EXIT_PRECONDITION, {
            "error": "calculus algebra does not match the morphism endpoint",
        })
    kind = calc_doc.get("kind", "universal")
    if kind == "quotient" and "relations" in calc_doc:
        u = universal_calculus(alg)
        gens = relations_from_json({"generators": calc_doc["relations"]},
                                   alg.field, alg.dim * alg.dim)
        cols = []
        for g in gens:
            w = solve(u.iota, Mat.col_vector(alg.field, g))
            if w is None:
                raise _Failure(EXIT_COMPUTE, {"error": "relation not in the universal calculus"})
            cols.append(w.column(0))
        sub = saturate_subspace(u.omega, Mat.from_cols(alg.field, cols, rows=u.dim))
        calc, _ = quotient_calculus(u, sub)
    else:
        if kind in ("universal", "kahler"):
            spec = kind
        elif "relations_file" in calc_doc:
            spec = f"quotient:{calc_doc['relations_file']}"
        else:
            raise _Failure(EXIT_USAGE, {"error": "quotient calculus needs relations"})
        calc = _load_calculus(spec, alg, calc_base)
    result = calc_pushforward(fmap, calc) if push else calc_pullback(fmap, calc)
    return {
        "input_dim": calc.dim,
        "result_dim": result.dim,
        "result_d": mat_to_lists(result.d),
        "passes_calculus_check": True,
    }


def _cmd_hopf_check(args) -> dict:
    try:
        doc = load_json(args.algebra)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Failure(EXIT_USAGE, {"error": f"cannot read {args.algebra}: {exc}"})
    alg, _ = _load_algebra(args.algebra)
    if "comult" not in doc or "counit" not in doc:
        raise _Failure(EXIT_PRECONDITION, {"error": "file has no comult/counit fields"})
    try:
        h = bimonoid_from_json(doc, alg)
    except AxiomError as exc:
        raise _Failure(EXIT_COMPUTE, {"valid": False, "violations": exc.report})
    return {"valid": True, "violations": []}


def _cmd_bicovariant(args) -> dict:
    alg, doc = _load_algebra(args.algebra)
    if "comult" not in doc or "counit" not in doc:
        raise _Failure(EXIT_PRECONDITION, {"error": "file has no comult/counit fields"})
    try:
        h = bimonoid_from_json(doc, alg)
    except AxiomError as exc:
        raise _Failure(EXIT_COMPUTE, {"error": "bimonoid axioms fail", "violations": exc.report})
    base = Path(args.algebra).resolve().parent
    calc = _load_calculus(f"quotient:{args.relations}", alg, base)
    result = bicovariance_check(h, calc)
    out = {
        "bicovariant": result["bicovariant"],
        "witnesses": result["witnesses"],
        "calculus_dim": calc.dim,
    }
    if result["bicovariant"]:
        out["hopf_calculus_ok"] = result["hopf_calculus_ok"]
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegacalc",
        description="Exact differential calculi over finite-dimensional algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "text"), default="text")
        return p

    p = add("check", _cmd_check, help="validate an algebra (and bimonoid) file")
    p.add_argument("algebra")

    p = add("universal", _cmd_universal, help="universal first-order calculus")
    p.add_argument("algebra")

    p = add("kahler", _cmd_kahler, help="Kaehler calculus of a commutative algebra")
    p.add_argument("algebra")

    p = add("prolong", _cmd_prolong, help="graded calculus up to a degree")
    p.add_argument("algebra")
    p.add_argument("--calculus", default="universal")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--matrices", action="store_true")

    p = add("cohomology", _cmd_cohomology, help="de Rham cohomology report")
    p.add_argument("algebra")
    p.add_argument("--flavor", choices=("universal", "kahler"), required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--force", action="store_true")

    p = add("compare", _cmd_compare, help="universal vs Kaehler cohomology comparison")
    p.add_argument("algebra")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--force", action="store_true")

    p = add("extend", _cmd_extend, help="push a calculus forward along an algebra map")
    p.add_argument("--map", required=True)
    p.add_argument("--calculus", required=True)

    p = add("restrict", _cmd_restrict, help="pull a calculus back along an algebra map")
    p.add_argument("--map", required=True)
    p.add_argument("--calculus", required=True)

    p = add("hopf-check", _cmd_hopf_check, help="validate bimonoid axioms")
    p.add_argument("algebra")

    p = add("bicovariant", _cmd_bicovariant, help="bicovariance of a quotient calculus")
    p.add_argument("algebra")
    p.add_argument("--relations", required=True,
                   help="relations file; a relative path is resolved against the "
                        "directory of the algebra file, not the working directory")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    fmt = args.format
    try:
        result = args.func(args)
    except _Failure as failure:
        _emit(failure.payload, fmt)
        return failure.code
    except PreconditionError as exc:
        _emit({"error": str(exc)}, fmt)
        return EXIT_PRECONDITION
    except AxiomError as exc:
        _emit({"error": "axiom failure", "violations": exc.report}, fmt)
        return EXIT_COMPUTE
    except LinAlgError as exc:
        _emit({"error": str(exc)}, fmt)
        return EXIT_COMPUTE
    _emit(result, fmt)
    return EXIT_OK

if __name__ == "__main__":
    sys.exit(main())
