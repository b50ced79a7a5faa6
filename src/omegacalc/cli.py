"""Command-line front end.

Subcommands: check, universal, kahler, prolong, cohomology, compare, extend,
restrict, hopf-check, bicovariant.  Exit codes: 0 success, 1 computation
error (axiom failure in the input data), 2 precondition violation, 64 usage
error, 70 internal invariant failure (an EngineError: a bug, not bad input).
JSON output has sorted keys and canonical scalar strings, so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import bimodule, derham, fodc, hopf, kahler, prolong, scalars
from .algebra import Algebra, AxiomError
from .io import (
    algebra_from_json,
    bimonoid_from_json,
    dump_json,
    load_json,
    mat_to_lists,
    morphism_from_matrix,
    relations_from_json,
)
from .linalg import EngineError, LinAlgError, Mat

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

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


def _read(path):
    """The JSON document in a file; one that cannot be read is a usage error."""
    try:
        return load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Failure(EXIT_USAGE, {"error": f"cannot read {path}: {exc}"})


def _load_algebra(path: str) -> tuple[Algebra, dict]:
    doc = _read(path)
    return _parse_algebra(doc), doc


def _parse_algebra(doc) -> Algebra:
    try:
        return algebra_from_json(doc)
    except AxiomError as exc:
        raise _Failure(EXIT_COMPUTE, {"error": "algebra axioms fail", "violations": exc.report})
    except (LinAlgError, KeyError, TypeError, ValueError) as exc:
        raise _Failure(EXIT_COMPUTE, {"error": f"bad algebra file: {exc}"})


def _algebra_at(spec, base: Path) -> Algebra:
    """The algebra a spec inside a file names: the spec itself, or the file
    at the path it gives, relative to base, the directory of that file."""
    return _parse_algebra(_read(base / spec) if isinstance(spec, str) else spec)


def _load_calculus(spec: str, alg: Algebra, base: Path) -> fodc.FirstOrderCalculus:
    """"universal", "kahler", or "quotient:<relations.json>"."""
    if spec == "universal":
        return fodc.universal_calculus(alg)
    if spec == "kahler":
        return kahler.kahler_calculus(alg)
    if spec.startswith("quotient:"):
        return _quotient_from_file(alg, base, spec.split(":", 1)[1])
    raise _Failure(EXIT_USAGE, {"error": f"unknown calculus spec {spec!r}"})


def _quotient_from_file(alg: Algebra, base: Path, name) -> fodc.FirstOrderCalculus:
    """The universal calculus divided by the relations in the file base / name."""
    if not isinstance(name, str):
        raise _Failure(EXIT_USAGE, {"error": f"relations file must be a path, not {name!r}"})
    return _quotient_of_universal(alg, _read(base / name))


def _quotient_of_universal(alg: Algebra, rel_doc) -> fodc.FirstOrderCalculus:
    """The universal calculus divided by the sub-bimodule generated by the
    relation vectors, which are given in A (x) A coordinates."""
    u = fodc.universal_calculus(alg)
    cols = []
    for g in relations_from_json(rel_doc, alg.field, alg.dim * alg.dim):
        v = Mat.col_vector(alg.field, g)
        if not (alg.mult_mat * v).is_zero():
            raise _Failure(EXIT_COMPUTE, {
                "error": "relation vector is not in the universal calculus "
                         "(does not lie in the kernel of multiplication)",
            })
        # the retraction inverts iota on its image, the kernel of multiplication
        cols.append((u.retraction * v).column(0))
    closed = bimodule.saturate_subspace(u.omega, Mat.from_cols(alg.field, cols, rows=u.dim))
    calc, _ = fodc.quotient_calculus(u, closed)
    return calc


def _power(coef: int, base: int, exp: int, cap: int) -> int | str:
    """coef * base^exp if at most cap, else its formula; never built past cap."""
    if base < 2:
        return coef * base ** exp
    out = coef
    for _ in range(exp):
        out *= base
        if out > cap:
            return f"{coef}*{base}^{exp}" if coef != 1 else f"{base}^{exp}"
    return out


def _dim_guard(alg: Algebra, max_degree: int, force: bool, calc_dim: int | None = None) -> None:
    """Refuse, unless forced, a run whose top component dimension or number
    of wedge maps (N+1)(N+2)/2 exceeds OMEGA_MAX_DIM.  The universal Omega^N
    has dimension n(n-1)^N, and a calculus of dimension calc_dim bounds it by
    max(n, calc_dim^N) too: Omega^k is a quotient of Omega^(k-1) (x)_A Omega^1."""
    raw = os.environ.get("OMEGA_MAX_DIM", DEFAULT_MAX_DIM)
    try:
        limit = int(raw)
    except ValueError:
        raise _Failure(EXIT_USAGE, {"error": f"OMEGA_MAX_DIM must be an integer, got {raw!r}"})
    if force:
        return
    n, exp = alg.dim, max(max_degree, 0)
    # each bound is built up to one factor past the limit and shown as its
    # formula beyond; one cap for both, so a bound written out is the smaller
    cap = max(limit, n) * max(n, calc_dim or 0)
    sizes = [_power(n, max(n - 1, 1), exp, cap)]
    if calc_dim is not None:
        top = _power(1, calc_dim, exp, cap)
        sizes.insert(0, max(n, top) if isinstance(top, int) else top)
    exact = [size for size in sizes if isinstance(size, int)]
    if exact:
        projected = min(exact)
    else:
        projected = sizes[0] if len(sizes) == 1 else f"min({', '.join(sizes)})"
    wedges = (max_degree + 1) * (max_degree + 2) // 2
    for what, fits, size in (("component dimension", any(x <= limit for x in exact), projected),
                             ("wedge map count", wedges <= limit, wedges)):
        if not fits:
            raise _Failure(EXIT_PRECONDITION, {
                "error": f"projected {what} {size} exceeds limit {limit}",
                "hint": "pass --force or raise OMEGA_MAX_DIM",
            })


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> dict:
    doc = _read(args.algebra)
    # the loader itself, so that check accepts exactly what the other commands load
    violations = []
    try:
        algebra_from_json(doc)
    except AxiomError as exc:
        violations = exc.report
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
    u = fodc.universal_calculus(alg)
    # the columns of iota, a0 (x) b - a0 b (x) 1 in A (x) A-bar order: a basis
    # of the kernel of multiplication, not in echelon form
    return {
        "dim": u.dim,
        "kernel_basis": [
            [alg.field.format(x) for x in u.iota.column(j)] for j in range(u.dim)
        ],
        "d": mat_to_lists(u.d),
    }


def _cmd_kahler(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    calc = kahler.kahler_calculus(alg)
    return {
        "dim": calc.dim,
        "d": mat_to_lists(calc.d),
        "left_action": mat_to_lists(calc.omega.left_mat),
        "right_action": mat_to_lists(calc.omega.right_mat),
    }


def _cmd_prolong(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    # the universal prolongation, or the maximal prolongation of the calculus
    # named, once the dimension guard passes
    if args.calculus == "universal":
        _dim_guard(alg, args.max_degree, args.force)
        graded = prolong.universal_prolongation(alg, args.max_degree)
    else:
        calc = _load_calculus(args.calculus, alg, Path(args.algebra).resolve().parent)
        _dim_guard(alg, args.max_degree, args.force, calc.dim)
        graded = prolong.maximal_prolongation(calc, args.max_degree)
    out = {"dims": graded.dims, "max_degree": graded.max_degree}
    if args.matrices:
        out["differentials"] = [mat_to_lists(d) for d in graded.diff]
        out["wedges"] = {
            f"{i},{j}": mat_to_lists(w) for (i, j), w in sorted(graded.wedge.items())
        }
    return out


def _cmd_cohomology(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    # the universal closed form builds no prolongation, and the guard bounds
    # its reports, which are as large as the components; de_rham reads the
    # Kaehler calculus that the guard measures from its memo
    calc_dim = kahler.kahler_calculus(alg).dim if args.flavor == "kahler" else None
    _dim_guard(alg, args.max_degree, args.force, calc_dim)
    return {"degrees": _degrees(derham.de_rham(alg, args.flavor, args.max_degree))}


def _degrees(report) -> list[dict]:
    return [{"n": d.n, "dim_omega": d.dim_omega, "dim_H": d.dim_h,
             "representatives": mat_to_lists(d.representatives)} for d in report.degrees]


def _cmd_compare(args) -> dict:
    alg, _ = _load_algebra(args.algebra)
    _dim_guard(alg, args.max_degree, args.force)
    result = derham.de_rham_comparison(alg, args.max_degree)
    # degrees describe the source (universal) theory; each comparison matrix
    # maps its classes to the Kaehler ones, so target dims are the row counts
    return {
        "degrees": _degrees(result["universal"]),
        "comparison": [mat_to_lists(m) for m in result["comparison"]],
    }


def _transport(args, push: bool) -> dict:
    doc = _read(args.map)
    base = Path(args.map).resolve().parent
    try:
        source, target = (_algebra_at(doc[end], base) for end in ("source", "target"))
        fmap = morphism_from_matrix(source, target, doc["matrix"])
    except AxiomError as exc:
        raise _Failure(EXIT_COMPUTE, {"error": "morphism axioms fail", "violations": exc.report})
    except KeyError as exc:
        raise _Failure(EXIT_USAGE, {"error": f"malformed map file {args.map}: missing {exc}"})
    except TypeError as exc:
        raise _Failure(EXIT_USAGE, {"error": f"malformed map file {args.map}: {exc}"})
    except ValueError as exc:  # a bad scalar, dim, field or shape; LinAlgError too
        raise _Failure(EXIT_COMPUTE, {"error": f"bad map file {args.map}: {exc}"})
    calc_doc = _read(args.calculus)
    if not isinstance(calc_doc, dict) or "algebra" not in calc_doc:
        raise _Failure(EXIT_USAGE, {"error": f"calculus file {args.calculus} has no 'algebra'"})
    calc_base = Path(args.calculus).resolve().parent
    alg = _algebra_at(calc_doc["algebra"], calc_base)
    expected = fmap.source if push else fmap.target
    if alg != expected:
        raise _Failure(EXIT_PRECONDITION, {
            "error": "calculus algebra does not match the morphism endpoint",
        })
    kind = calc_doc.get("kind", "universal")
    given = [key for key in ("relations", "relations_file") if key in calc_doc]
    if kind not in ("universal", "kahler", "quotient"):
        raise _Failure(EXIT_USAGE, {"error": f"unknown calculus kind {kind!r}"})
    if len(given) > 1:
        raise _Failure(EXIT_USAGE, {"error": "give relations or relations_file, not both"})
    if kind != "quotient":
        if given:
            raise _Failure(EXIT_USAGE, {"error": f"a {kind} calculus takes no {given[0]}"})
        calc = _load_calculus(kind, alg, calc_base)
    elif not given:
        raise _Failure(EXIT_USAGE, {"error": "quotient calculus needs relations"})
    elif given[0] == "relations":
        calc = _quotient_of_universal(alg, {"generators": calc_doc["relations"]})
    else:
        calc = _quotient_from_file(alg, calc_base, calc_doc["relations_file"])
    result = scalars.calc_pushforward(fmap, calc) if push else scalars.calc_pullback(fmap, calc)
    return {
        "input_dim": calc.dim,
        "result_dim": result.dim,
        "result_d": mat_to_lists(result.d),
        "passes_calculus_check": True,
    }


def _load_bimonoid(path: str, failed: dict) -> hopf.Bimonoid:
    """The bimonoid in an algebra file with comult and counit fields; one
    that fails its axioms is the failure failed, with the violations."""
    alg, doc = _load_algebra(path)
    if "comult" not in doc or "counit" not in doc:
        raise _Failure(EXIT_PRECONDITION, {"error": "file has no comult/counit fields"})
    try:
        return bimonoid_from_json(doc, alg)
    except AxiomError as exc:
        raise _Failure(EXIT_COMPUTE, {**failed, "violations": exc.report})


def _cmd_hopf_check(args) -> dict:
    _load_bimonoid(args.algebra, {"valid": False})
    return {"valid": True, "violations": []}


def _cmd_bicovariant(args) -> dict:
    h = _load_bimonoid(args.algebra, {"error": "bimonoid axioms fail"})
    base = Path(args.algebra).resolve().parent
    calc = _quotient_from_file(h.alg, base, args.relations)
    result = hopf.bicovariance_check(h, calc)
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

    p = add("extend", partial(_transport, push=True),
            help="push a calculus forward along an algebra map")
    p.add_argument("--map", required=True)
    p.add_argument("--calculus", required=True)

    p = add("restrict", partial(_transport, push=False),
            help="pull a calculus back along an algebra map")
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
    except fodc.PreconditionError as exc:
        _emit({"error": str(exc)}, fmt)
        return EXIT_PRECONDITION
    except AxiomError as exc:
        _emit({"error": "axiom failure", "violations": exc.report}, fmt)
        return EXIT_COMPUTE
    except LinAlgError as exc:
        _emit({"error": str(exc)}, fmt)
        return EXIT_COMPUTE
    except EngineError as exc:
        _emit({"error": f"internal invariant failed: {exc}"}, fmt)
        return EXIT_SOFTWARE
    _emit(result, fmt)
    return EXIT_OK

if __name__ == "__main__":
    sys.exit(main())
