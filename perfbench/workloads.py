"""Workload definitions: the ops of one round, and how each op is checked.

An op has four parts.  `prepare` runs untimed and returns the arguments
(for the graded workloads it parses a fresh algebra instance, so a cache
keyed by instance is bypassed there).  `run` is the timed call into the
library.  `summarize` (untimed) reduces the result to dimensions and
verdicts, which do not depend on a choice of basis; traced and untraced runs
must produce equal summaries.  `check` compares the summary with a closed
form, or with the value recorded in reference.json at the seed commit.
Matrices are never compared: bases may change on purpose.

Library functions are looked up at call time (`lib`), so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


def lib(module, name):
    return getattr(sys.modules[f"omegacalc.{module}"], name)


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


class Op:
    def __init__(self, name, prepare, run, summarize, check, ref_key=None):
        self.name = name
        self.prepare = prepare
        self.run = run
        self.summarize = summarize
        self.check = check
        self.ref_key = ref_key


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def universal_dims(n, degree):
    """Omega^k_u has dimension n (n-1)^k."""
    return [n * (n - 1) ** k for k in range(degree + 1)]


def universal_cohomology(degree):
    """Universal de Rham cohomology: H^0 = k, H^n = 0 for 1 <= n < N."""
    return [1] + [0] * (degree - 1)


def kahler_degree1(key, p):
    """dim of the Kaehler differentials of the families that have a closed form.

    k[x]/x^n: generated by dx with x^(n-1) n dx = 0, so n - 1, or n when the
    characteristic divides n.  k[Z/n] is k[t]/(t^n - 1): separable (so 0)
    unless p divides n, where it is k[s]/s^p.  Q^k (antichain posets): 0.
    """
    if "*" in key:
        return sum(kahler_degree1(f, p) for f in key.split("*"))
    if key.startswith("x"):
        n = int(key[1:])
        return n if p is not None and n % p == 0 else n - 1
    if key.startswith("z"):
        n = int(key[1:])
        return n if p is not None and n % p == 0 else 0
    if key.startswith("inc:A"):
        return 0
    return None


def comparison_shapes(kahler, degree):
    """Shape (Kaehler classes x universal classes) of each comparison matrix."""
    if kahler is None:
        return None
    return [[k, u] for k, u in zip(kahler, universal_cohomology(degree))]


def _expect_equal(expected):
    def check(summary):
        if summary != expected:
            return f"expected {expected}, got {summary}"
        return None
    return check


# ---------------------------------------------------------------------------
# a small independent rank routine for the bicovariance oracle
# ---------------------------------------------------------------------------

def _rank(rows, p):
    rows = [list(r) for r in rows]
    if p is not None:
        rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = pow(pr[c], p - 2, p) if p is not None else 1 / Fraction(pr[c])
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(a - f * b) % p if p is not None else a - f * b
                           for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def _entries(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _exact(x, p):
    if p is not None:
        return int(x) % p
    return Fraction(x)


def graded_subcomodule(alg: inputs.AlgebraInput, iota, sub):
    """Oracle: for a group algebra with g -> g (x) g, a subspace N of Omega_u
    is bicovariant iff iota(N) in A(x)A is graded by the product g h."""
    n = alg.dim
    p = alg.p
    grade = [None] * (n * n)
    for i in range(n):
        for j in range(n):
            grade[i * n + j] = next(k for k in range(n) if alg.mult[i][j][k])
    ie, se = _entries(iota), _entries(sub)
    v_cols = []
    for j in range(sub.cols):
        col = [sum(_exact(ie[r][t], p) * _exact(se[t][j], p) for t in range(sub.rows))
               for r in range(n * n)]
        v_cols.append(col)
    if not v_cols:
        return True
    base = _rank(v_cols, p)
    for g in range(n):
        extra = [[c if grade[r] == g else 0 for r, c in enumerate(col)] for col in v_cols]
        if _rank(v_cols + extra, p) != base:
            return False
    return True


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------

def _fresh(alg):
    """Parse a fresh algebra instance from the generated document."""
    return lambda: (lib("io", "algebra_from_json")(alg.doc),)


def _shared(instance):
    return lambda: (instance,)


def _quotient_calculus(a, relation_doc):
    """The calculus cut out by relations given in A(x)A coordinates, the way
    the CLI reads a relation file: solve into Omega_u, saturate, quotient."""
    mat = lib("linalg", "Mat")
    n = a.dim
    gens = lib("io", "relations_from_json")(relation_doc, a.field, n * n)
    u = lib("fodc", "universal_calculus")(a)
    v = mat(a.field, [[g[i] for g in gens] for i in range(n * n)])
    w = lib("linalg", "solve")(u.iota, v)
    closed = lib("bimodule", "saturate_subspace")(u.omega, w)
    return lib("fodc", "quotient_calculus")(u, closed)[0]


def op_universal_prolongation(alg, degree):
    return Op(
        f"universal_prolongation {inputs.field_label(alg.p)} {alg.key} N={degree}",
        _fresh(alg),
        lambda a: lib("prolong", "universal_prolongation")(a, degree),
        lambda g: list(g.dims),
        _expect_equal(universal_dims(alg.dim, degree)),
    )


def op_kahler_prolongation(alg, degree, reference):
    """maximal_prolongation of the Kaehler calculus; on a product the
    dimensions must split as the sum over the factors."""
    name = f"maximal_prolongation(kahler) {inputs.field_label(alg.p)} {alg.key} N={degree}"
    run = lambda a: lib("prolong", "maximal_prolongation")(
        lib("kahler", "kahler_calculus")(a), degree)
    f = inputs.field_label(alg.p)
    if alg.factors:
        parts = [reference.get(f"kprol|{f}|{x}|{degree}") for x in alg.factors]
        expected = None if None in parts else (
            [alg.dim] + [sum(d[k] for d in parts) for k in range(1, degree + 1)])
        return Op(name, _fresh(alg), run, lambda g: list(g.dims), _expect_equal(expected))
    key = f"kprol|{f}|{alg.key}|{degree}"
    return Op(name, _fresh(alg), run, lambda g: list(g.dims),
              _expect_equal(reference.get(key)), ref_key=key)


def op_quotient_prolongation(alg, pair, degree, reference):
    a_, b_ = pair
    doc = alg.relation_doc(a_, b_)
    key = f"qprol|{inputs.field_label(alg.p)}|{alg.key}|{a_},{b_}|{degree}"
    return Op(
        f"maximal_prolongation(quotient) {inputs.field_label(alg.p)} {alg.key} N={degree}",
        _fresh(alg),
        lambda a: lib("prolong", "maximal_prolongation")(_quotient_calculus(a, doc), degree),
        lambda g: list(g.dims),
        _expect_equal(reference.get(key)),
        ref_key=key,
    )


def op_de_rham(alg, flavor, degree, reference):
    f = inputs.field_label(alg.p)
    if flavor == "universal":
        expected, key = universal_cohomology(degree), None
    else:
        key = f"kdr|{f}|{alg.key}|{degree}"
        expected = reference.get(key)
    return Op(
        f"de_rham {flavor} {f} {alg.key} N={degree}",
        _fresh(alg),
        lambda a: lib("derham", "de_rham")(a, flavor, degree),
        lambda rep: rep.dims(),
        _expect_equal(expected),
        ref_key=key,
    )


def op_de_rham_comparison(alg, degree, reference):
    f = inputs.field_label(alg.p)
    kahler = reference.get(f"kdr|{f}|{alg.key}|{degree}")

    def summarize(res):
        return {
            "universal": res["universal"].dims(),
            "kahler": res["kahler"].dims(),
            "shapes": [[m.rows, m.cols] for m in res["comparison"]],
        }

    expected = None if kahler is None else {
        "universal": universal_cohomology(degree),
        "kahler": kahler,
        "shapes": comparison_shapes(kahler, degree),
    }
    return Op(
        f"de_rham_comparison {f} {alg.key} N={degree}",
        _fresh(alg),
        lambda a: lib("derham", "de_rham_comparison")(a, degree),
        summarize,
        _expect_equal(expected),
    )


def op_universal_calculus(instance, alg):
    return Op(
        f"universal_calculus {alg.key}",
        _shared(instance),
        lambda a: lib("fodc", "universal_calculus")(a),
        lambda u: u.dim,
        _expect_equal(alg.dim * alg.dim - alg.dim),
    )


def op_kahler_calculus(instance, alg):
    return Op(
        f"kahler_calculus {alg.key}",
        _shared(instance),
        lambda a: lib("kahler", "kahler_calculus")(a),
        lambda c: c.dim,
        _expect_equal(kahler_degree1(alg.key, alg.p)),
    )


def _lattice(a):
    u = lib("fodc", "universal_calculus")(a)
    subs = lib("fodc", "enumerate_action_closed_subspaces")(u.omega)
    calcs = [lib("fodc", "quotient_calculus")(u, s)[0] for s in subs]
    return u, subs, calcs


def op_lattice(instance, alg):
    """Enumerate action-closed subspaces and take every quotient calculus."""
    def summarize(res):
        u, subs, calcs = res
        return {"omega": u.dim, "subs": [[s.cols, c.dim] for s, c in zip(subs, calcs)]}

    def check(s):
        dims = [d for d, _ in s["subs"]]
        if s["omega"] != alg.dim * alg.dim - alg.dim:
            return f"universal calculus has dim {s['omega']}"
        if 0 not in dims or s["omega"] not in dims:
            return "lattice misses the zero or the full subspace"
        bad = [pair for pair in s["subs"] if pair[0] + pair[1] != s["omega"]]
        return f"quotient dims do not add up: {bad}" if bad else None

    return Op(f"enumerate+quotient {alg.key}", _shared(instance), _lattice, summarize, check)


def op_bicovariance(instance, bimonoid, alg):
    """bicovariance_check on every calculus of the enumerated lattice,
    against the grading oracle."""
    def run(a):
        u, subs, calcs = _lattice(a)
        verdicts = [lib("hopf", "bicovariance_check")(bimonoid, c)["bicovariant"] for c in calcs]
        return u, subs, verdicts

    def summarize(res):
        u, subs, verdicts = res
        return [[s.cols, v, graded_subcomodule(alg, u.iota, s)] for s, v in zip(subs, verdicts)]

    def check(rows):
        bad = [r for r in rows if r[1] != r[2]]
        return f"bicovariance disagrees with the grading oracle: {bad}" if bad else None

    return Op(f"bicovariance_check lattice {alg.key}", _shared(instance), run, summarize, check)


def op_coactions(bimonoid, alg):
    return Op(
        f"universal_coactions {alg.key}",
        lambda: (bimonoid,),
        lambda h: lib("hopf", "universal_coactions")(h),
        lambda hc: hc.dim,
        _expect_equal(alg.dim * alg.dim - alg.dim),
    )


def _calculus(a, kind):
    if kind == "universal":
        return lib("fodc", "universal_calculus")(a)
    return lib("kahler", "kahler_calculus")(a)


def op_transport(fmap, mnk, direction, kind, reference):
    key = f"{direction}|{mnk}|{kind}"
    if direction == "push":
        run = lambda f: lib("scalars", "calc_pushforward")(f, _calculus(f.source, kind))
    else:
        run = lambda f: lib("scalars", "calc_pullback")(f, _calculus(f.target, kind))
    return Op(f"calc_{direction} {mnk} {kind}", lambda: (fmap,), run,
              lambda c: c.dim, _expect_equal(reference.get(key)), ref_key=key)


def op_adjunction(fmap, mnk):
    def run(f):
        cs = [_calculus(f.source, k) for k in ("universal", "kahler")]
        ts = [_calculus(f.target, k) for k in ("universal", "kahler")]
        return lib("scalars", "verify_poset_adjunction")(f, cs, ts)

    return Op(f"verify_poset_adjunction {mnk}", lambda: (fmap,), run,
              lambda r: [r["all_agree"], len(r["pairs"])], _expect_equal([True, 4]))


# ---------------------------------------------------------------------------
# the library workloads
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7)

# graded-q: (family, op, degree).  Dims 2-3 at degrees 2-3, in three cost
# classes: 11 cheap ops (dim 2, degree 3), 18 ops on dim 3 at degree 2 and
# one on dim 3 at degree 3, so that p50 and p90 fall inside the middle class
# rather than on a gap between classes.  Dimension-4 algebras at degree 2 cost
# about 3 s each here; they are in graded-fp and in the frontier report.
GRADED_Q = [
    ("x2", "uprol", 3), ("z2", "uprol", 3), ("prod2", "uprol", 3),
    ("x2", "kprol", 3), ("z2", "kprol", 3), ("x2", "qprol", 3), ("z2", "qprol", 3),
    ("x2", "dr_u", 3), ("x2", "dr_k", 3), ("x2", "cmp", 3), ("z2", "cmp", 3),
    ("x3", "uprol", 2), ("z3", "uprol", 2), ("inc3", "uprol", 2), ("prod3", "uprol", 2),
    ("x3", "kprol", 2), ("z3", "kprol", 2), ("prod3", "kprol", 2),
    ("x3", "qprol", 2), ("z3", "qprol", 2), ("inc3", "qprol", 2), ("prod3", "qprol", 2),
    ("x3", "dr_u", 2), ("inc3", "dr_u", 2), ("x3", "dr_k", 2), ("z3", "dr_k", 2),
    ("prod3", "dr_k", 2), ("x3", "cmp", 2), ("prod3", "cmp", 2),
    ("x3", "uprol", 3),
]

# graded-fp: the same op mix over GF(p), every template once per prime, with
# larger algebras so that an op costs about as much as on graded-q.
GRADED_FP = [
    ("x3", "uprol", 3), ("x4", "uprol", 2), ("m2", "uprol", 2),
    ("z3", "uprol", 3),
    ("x3", "kprol", 3), ("prod4", "kprol", 2),
    ("x3", "qprol", 3), ("inc4", "qprol", 2),
    ("x3", "dr_u", 3), ("x4", "dr_k", 2), ("z3", "dr_k", 3),
    ("x3", "cmp", 3),
]


def graded_ops(draw, templates, primes, reference):
    ops = []
    parse = lib("io", "algebra_from_json")
    for p in primes:
        for family, kind, degree in templates:
            alg = draw.algebra(family, p)
            parse(alg.doc)
            if kind == "uprol":
                ops.append(op_universal_prolongation(alg, degree))
            elif kind == "kprol":
                ops.append(op_kahler_prolongation(alg, degree, reference))
            elif kind == "qprol":
                pair = draw.rng.choice(inputs.relation_pool(alg))
                ops.append(op_quotient_prolongation(alg, pair, degree, reference))
            elif kind == "dr_u":
                ops.append(op_de_rham(alg, "universal", degree, reference))
            elif kind == "dr_k":
                ops.append(op_de_rham(alg, "kahler", degree, reference))
            elif kind == "cmp":
                ops.append(op_de_rham_comparison(alg, degree, reference))
    return ops


FIRST_ORDER_UNIVERSAL = ["x2", "x3", "x4", "z2", "z3", "m2", "inc3", "inc4", "prod3", "prod4"]
FIRST_ORDER_LATTICE = ["x2", "x3", "z2", "inc3", "prod3"]


def first_order_ops(draw, reference, fixtures: Path):
    """Ops over algebra instances parsed once, so universal_calculus is called
    again and again on the same instance."""
    parse = lib("io", "algebra_from_json")
    ops = []
    for family in FIRST_ORDER_UNIVERSAL:
        alg = draw.algebra(family)
        inst = parse(alg.doc)
        ops.append(op_universal_calculus(inst, alg))
        if alg.commutative:
            ops.append(op_kahler_calculus(inst, alg))
        if family in FIRST_ORDER_LATTICE:
            ops.append(op_lattice(inst, alg))
    for family in ("z2", "z3"):
        alg = draw.algebra(family)
        inst = parse(alg.doc)
        h = lib("io", "bimonoid_from_json")(alg.doc, inst)
        ops.append(op_bicovariance(inst, h, alg))
        ops.append(op_coactions(h, alg))
    maps = []
    for m, n in inputs.MAP_SLOTS:
        k = draw.pick(inputs.map_exponents(m, n))
        maps.append((f"{m},{n},{k}", inputs.map_doc(m, n, k)))
    # verify_poset_adjunction is the costliest op after the z3 lattice; on two
    # maps per variant (the shipped one and a seeded slot in turn) the p90 of
    # a run falls inside a cost class instead of on the edge of one
    adjunction = {draw.pick(maps)[0], "2,4,2"}
    maps.append(("2,4,2", json.loads((fixtures / "y_to_x2.json").read_text())))
    for mnk, doc in maps:
        fmap = lib("io", "morphism_from_json")(doc)
        for direction in ("push", "pull"):
            for kind in ("universal", "kahler"):
                ops.append(op_transport(fmap, mnk, direction, kind, reference))
        if mnk in adjunction:
            ops.append(op_adjunction(fmap, mnk))
    return ops


def library_ops(workload, draw, reference, fixtures):
    if workload == "graded-q":
        ops = graded_ops(draw, GRADED_Q, [None], reference)
    elif workload == "graded-fp":
        ops = graded_ops(draw, GRADED_FP, PRIMES, reference)
    elif workload == "first-order":
        ops = first_order_ops(draw, reference, fixtures)
    else:
        raise ValueError(workload)
    draw.rng.shuffle(ops)
    return ops
