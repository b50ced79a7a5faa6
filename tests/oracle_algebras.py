"""The algebras, maps and calculi the oracle tests run on, shared by the
test modules: every shipped fixture, five generated algebras, two incidence
algebras, the zero algebra, GF(5)[Z/3] and Q[x]/x^2 in the basis 2, x; the
commutative fixtures with six generated commutative algebras over each of
Q, GF(2), GF(3) and GF(5); eight algebra maps between them and the
identity of each; the product A x B of two algebras.  Also the routes the
library replaced by closed forms, kept as oracles: the materialized
codiagonal coactions, the enumeration that saturates each candidate, the
containment that solves for the smaller basis in the larger, the Kaehler
calculus as a saturated quotient of the universal calculus, the kernel basis
brought into echelon form by a second elimination, the solve that multiplies
its answer out, and the universal de Rham theory as the cohomology of the
universal prolongation.
"""

import json
from itertools import combinations, islice, permutations, product
from pathlib import Path

from omegacalc.algebra import (
    Algebra,
    AlgMap,
    build_group_algebra,
    build_matrix_algebra,
    build_truncated_poly,
    is_commutative,
    opposite,
)
from omegacalc.bimodule import action_closed, build_square_zero, saturate_subspace
from omegacalc.derham import CochainComplex, cohomology
from omegacalc.fodc import (
    enumerate_action_closed_subspaces,
    quotient_calculus,
    universal_calculus,
    zero_calculus,
)
from omegacalc.io import algebra_from_json
from omegacalc.kahler import kahler_calculus
from omegacalc.linalg import (
    GF,
    QQ,
    LinAlgError,
    Mat,
    _mat,
    _null_vectors,
    _row_span,
    _rref_sparse,
    image_basis,
    kronecker,
    mul_id_kron,
    mul_kron_id,
    solve,
    swap_matrix,
)
from omegacalc.prolong import universal_prolongation

from oracles import identity_map, regular_bimodule, vstack


FIXTURES = Path(__file__).resolve().parent.parent / "src" / "omegacalc" / "fixtures"


FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "y_to_x2")


def load_fixture(name):
    return algebra_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))


def structure_tensor(alg):
    """c[i][j], the coordinates of e_i e_j, read off the multiplication matrix."""
    n, cols = alg.dim, alg.mult_mat.columns()
    return [cols[i * n:(i + 1) * n] for i in range(n)]


def dense_commutativity_witness(alg):
    """The first pair (i, j), i < j, with e_i e_j != e_j e_i, or None: the
    dense loop over the structure tensor that the sparse column comparison
    of algebra.commutativity_witness replaced."""
    c = structure_tensor(alg)
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            if c[i][j] != c[j][i]:
                return (i, j)
    return None


def dense_equal(a, b):
    """Algebra equality by the dense comparison Algebra.__eq__ replaced:
    field, dimension, structure tensor and unit."""
    return (a.field == b.field and a.dim == b.dim
            and structure_tensor(a) == structure_tensor(b) and a.unit == b.unit)


def permuted(alg, perm):
    """alg in the basis e_perm[0], e_perm[1], ..."""
    n, c = alg.dim, structure_tensor(alg)
    mult = [[[c[perm[i]][perm[j]][perm[k]] for k in range(n)] for j in range(n)]
            for i in range(n)]
    return Algebra(alg.field, n, mult, [alg.unit[p] for p in perm])


def product_algebra(a: Algebra, b: Algebra) -> Algebra:
    """A x B, in the basis of A followed by that of B."""
    assert a.field == b.field
    f = a.field
    dim = a.dim + b.dim
    zero = f.zero()
    mult = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    ca, cb = structure_tensor(a), structure_tensor(b)
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                mult[i][j][k] = ca[i][j][k]
    for i in range(b.dim):
        for j in range(b.dim):
            for k in range(b.dim):
                mult[a.dim + i][a.dim + j][a.dim + k] = cb[i][j][k]
    unit = list(a.unit) + list(b.unit)
    return Algebra(f, dim, mult, unit)


def square_zero_over_qx2(bimodule):
    qx2 = load_fixture("qx2")
    return build_square_zero(qx2, bimodule(qx2))


GENERATED = {
    "opposite(qs3)": lambda: opposite(load_fixture("qs3")),
    "qx2 + Omega_u(qx2)": lambda: square_zero_over_qx2(lambda a: universal_calculus(a).omega),
    "qx2 + qx2": lambda: square_zero_over_qx2(regular_bimodule),
    "M2(GF(3))": lambda: build_matrix_algebra(GF(3), 2),
    "qx3 in the basis x, 1, x^2": lambda: permuted(load_fixture("qx3"), [1, 0, 2]),
}


def incidence_algebra(n, relations):
    """The incidence algebra over Q of the poset on 0..n-1 with the strict
    relations i < j given, from its structure constants: the basis is e_ii
    then e_ij, e_ij e_kl = e_il when j = k and 0 otherwise, 1 = sum e_ii."""
    basis = [(i, i) for i in range(n)] + list(relations)
    index = {b: k for k, b in enumerate(basis)}
    dim = len(basis)
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for x, (i, j) in enumerate(basis):
        for y, (k, l) in enumerate(basis):
            if j == k:
                mult[x][y][index[(i, l)]] = 1
    return Algebra(QQ, dim, mult, [1] * n + [0] * len(relations))


INCIDENCE = {
    "chain 0<1<2": lambda: incidence_algebra(3, [(0, 1), (1, 2), (0, 2)]),
    "V 0<1, 0<2": lambda: incidence_algebra(3, [(0, 1), (0, 2)]),
}


ORACLE_ALGEBRAS = {name: (lambda name=name: load_fixture(name)) for name in FIXTURE_NAMES}
ORACLE_ALGEBRAS.update(GENERATED)
ORACLE_ALGEBRAS.update(INCIDENCE)
ORACLE_ALGEBRAS.update({
    "zero algebra": lambda: Algebra(QQ, 0, [], []),
    "GF(5)[Z/3]": lambda: build_group_algebra(GF(5), [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    # e0 = 2, e1 = x: the unit is e0 / 2
    "Q[x]/x^2 in the basis 2, x": lambda: Algebra(
        QQ, 2, [[[2, 0], [0, 2]], [[0, 2], [0, 0]]], ["1/2", 0]),
})


def commutative_in_permuted_bases(count=6):
    """Every commutative oracle algebra in its first `count` basis orders
    (every order below dimension 3), by name and order."""
    cases = {}
    for name, build in ORACLE_ALGEBRAS.items():
        alg = build()
        if is_commutative(alg):
            for perm in islice(permutations(range(alg.dim)), count):
                cases[f"{name} {perm}"] = (
                    lambda build=build, perm=perm: permuted(build(), perm))
    return cases


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# Z/2 x Z/2 on (0,0), (0,1), (1,0), (1,1)
KLEIN = [[i ^ j for j in range(4)] for i in range(4)]


def generated_commutative(f):
    """Truncated polynomial, group and product algebras over f, by name."""
    k = "Q" if f.is_rational else f"GF({f.p})"
    return {
        f"{k}[x]/x^3": lambda: build_truncated_poly(f, 3),
        f"{k}[x]/x^4": lambda: build_truncated_poly(f, 4),
        f"{k}[Z/3]": lambda: build_group_algebra(f, cyclic_table(3)),
        f"{k}[Z/2 x Z/2]": lambda: build_group_algebra(f, KLEIN),
        f"{k}[x]/x^2 x {k}[x]/x^3": lambda: product_algebra(
            build_truncated_poly(f, 2), build_truncated_poly(f, 3)),
        f"{k}[Z/2] x {k}": lambda: product_algebra(
            build_group_algebra(f, cyclic_table(2)), build_truncated_poly(f, 1)),
    }


# the commutative fixtures, and six commutative algebras over each field
COMMUTATIVE = {name: (lambda name=name: load_fixture(name)) for name in FIXTURE_NAMES
               if is_commutative(load_fixture(name))}
for field in (QQ, GF(2), GF(3), GF(5)):
    COMMUTATIVE.update(generated_commutative(field))


def fields(k):
    """Q^k on its idempotents: the unit (1, ..., 1) is not a basis vector."""
    return Algebra(QQ, k, [[[int(i == j == l) for l in range(k)] for j in range(k)]
                           for i in range(k)], [1] * k)


def with_zero_part(a):
    """The square-zero extension A (+) A, in the basis A then the ideal."""
    return build_square_zero(a, regular_bimodule(a))


def pad(n, extra):
    """The inclusion of n coordinates into n + extra."""
    return vstack(Mat.identity(QQ, n), Mat.zeros(QQ, extra, n))


ORACLE_MAPS = {
    "y_to_x2": lambda: AlgMap(build_truncated_poly(QQ, 2, var="y"), build_truncated_poly(QQ, 4),
                              Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]])),
    # g -> (1, -1) and g -> diag(1, -1) have a component along the target's unit
    "Q[Z/2] -> Q x Q": lambda: AlgMap(load_fixture("qz2"), fields(2),
                                      Mat(QQ, [[1, 1], [1, -1]])),
    "Q[Z/2] -> M2(Q)": lambda: AlgMap(load_fixture("qz2"), load_fixture("m2q"),
                                      Mat(QQ, [[1, 1], [0, 0], [0, 0], [1, -1]])),
    "transpose: M2(Q) -> M2(Q)^op": lambda: AlgMap(
        load_fixture("m2q"), opposite(load_fixture("m2q")),
        Mat.identity(QQ, 4).select_cols([0, 2, 1, 3])),
    "chain 0<1<2 ->> Q^3": lambda: AlgMap(
        INCIDENCE["chain 0<1<2"](), fields(3), Mat.identity(QQ, 3).hstack(Mat.zeros(QQ, 3, 3))),
    "qx2 -> qx2 + qx2": lambda: AlgMap(load_fixture("qx2"), with_zero_part(load_fixture("qx2")),
                                       pad(2, 2)),
    "qx2 + qx2 ->> qx2": lambda: AlgMap(with_zero_part(load_fixture("qx2")), load_fixture("qx2"),
                                        pad(2, 2).transpose()),
    "qx3 -> qx3 in the basis x, 1, x^2": lambda: AlgMap(
        load_fixture("qx3"), permuted(load_fixture("qx3"), [1, 0, 2]),
        Mat.identity(QQ, 3).select_cols([1, 0, 2])),
}
ORACLE_MAPS.update({f"identity of {name}": (lambda build=build: identity_map(build()))
                    for name, build in ORACLE_ALGEBRAS.items()})


def first_proper_quotients(alg, count=2):
    """Quotients of the universal calculus by the first `count` distinct
    proper saturations of its basis vectors."""
    u = universal_calculus(alg)
    subs = []
    for i in range(u.dim):
        sub = saturate_subspace(u.omega, Mat.identity(alg.field, u.dim).select_cols([i]))
        if sub.cols < u.dim and sub not in subs:
            subs.append(sub)
    return [quotient_calculus(u, sub)[0] for sub in subs[:count]]


def oracle_calculi(name, alg):
    """The universal, Kaehler (commutative algebras only), zero and first two
    proper quotient calculi of alg.  Enumerating every action-closed subspace
    of a universal calculus of dimension 20 or more takes from 0.2 s to 4 s, so
    qs3 and the generated algebras take their quotients from saturated basis
    vectors instead."""
    u = universal_calculus(alg)
    calculi = {"universal": u, "zero": zero_calculus(alg)}
    if is_commutative(alg):
        calculi["kahler"] = kahler_calculus(alg)
    if name == "qs3" or name not in FIXTURE_NAMES:
        quotients = first_proper_quotients(alg)
    else:
        # proper_quotient(alg, 0) and proper_quotient(alg, 1), enumerated once
        subs = [n for n in enumerate_action_closed_subspaces(u.omega) if 0 < n.cols < u.dim]
        quotients = [quotient_calculus(u, n)[0] for n in subs[:2]]
    calculi.update((f"quotient {i}", c) for i, c in enumerate(quotients))
    return calculi


def enumerate_by_saturation(m, max_generators=2):
    """The enumeration of fodc.enumerate_action_closed_subspaces in its
    earlier form, which saturates every candidate on its own through
    saturate_subspace, searches every subset of vectors with the closure
    witness in the exhaustive case, and keys each by its formatted rows:
    the oracle for the family and its order, sharing no step with the
    enumeration it checks."""
    f = m.field
    found = {}

    def key(basis):
        return (basis.cols, tuple(tuple(map(f.format, row)) for row in basis.dense_rows()))

    def record(basis):
        closed = saturate_subspace(m, basis) if basis.cols else basis
        found.setdefault(key(closed), closed)

    zero = Mat.zeros(f, m.dim, 0)
    found[key(zero)] = zero
    record(Mat.identity(f, m.dim))
    if not f.is_rational and (f.p ** m.dim - 1) <= 15:
        vectors = [v for v in product(range(f.p), repeat=m.dim) if any(v)]
        for r in range(1, len(vectors) + 1):
            for subset in combinations(vectors, r):
                span = image_basis(Mat.from_cols(f, [list(v) for v in subset], rows=m.dim))
                if action_closed(m, span) is None:
                    found.setdefault(key(span), span)
    else:
        basis_vectors = [Mat.identity(f, m.dim).column(i) for i in range(m.dim)]
        for r in range(1, max_generators + 1):
            for subset in combinations(range(m.dim), r):
                record(Mat.from_cols(f, [basis_vectors[i] for i in subset], rows=m.dim))
        for i, j in combinations(range(m.dim), 2):
            for sign in (f.one(), f.neg(f.one())):
                vec = [f.zero()] * m.dim
                vec[i] = f.one()
                vec[j] = sign
                record(Mat.from_cols(f, [vec], rows=m.dim))
    return [found[k] for k in sorted(found)]


def subspace_leq_by_solve(sub, sup):
    """col(sub) <= col(sup) by solving sup X = sub, for any two spanning sets:
    linalg.subspace_leq in its earlier form, before it read the quotient map
    of a canonical sup."""
    return sub.cols == 0 or solve(sup, sub) is not None


def regular_coactions(h):
    """The codiagonal coactions of A(x)A as matrices on A^(x)4:
    lam_reg(a (x) b) = a1 b1 (x) a2 (x) b2, rho_reg(a (x) b) = a1 (x) b1 (x) a2 b2."""
    a = h.alg
    n = a.dim
    f = a.field
    i_n = Mat.identity(f, n)
    i_nn = Mat.identity(f, n * n)
    mid = kronecker(i_n, kronecker(swap_matrix(f, n, n), i_n))
    lam = kronecker(a.mult_mat, i_nn) * mid * kronecker(h.comult, h.comult)
    rho = kronecker(i_nn, a.mult_mat) * mid * kronecker(h.comult, h.comult)
    return lam, rho


def kahler_by_saturation(a):
    """The Kaehler calculus by its earlier route, the oracle for
    kahler.kahler_calculus: the quotient of the universal calculus by the
    sub-bimodule that the image of (d . 1) - (1 . d) swap on A(x)A
    generates, which forces a db = db a.  The saturated relations are its
    recorded kernel."""
    u = universal_calculus(a)
    d_one = mul_kron_id(u.omega.right_mat, u.d, a.dim)
    one_d = mul_id_kron(u.omega.left_mat, a.dim, u.d)
    rel = d_one - one_d * swap_matrix(a.field, a.dim, a.dim)
    return quotient_calculus(u, saturate_subspace(u.omega, image_basis(rel)))[0]


def kernel_basis_by_two_eliminations(m):
    """linalg.kernel_basis in its earlier form: the null vectors read off the
    reduced row echelon form of M, then eliminated a second time into
    reduced column echelon form."""
    prows, pcols = _rref_sparse(m.field, m.data)
    rows = _row_span(m.field, _null_vectors(m.field, prows, pcols, m.cols))
    return _mat(m.field, len(rows), m.cols, rows).transpose()


def quotient_maps_by_columns(sub_canonical, ambient_dim):
    """linalg.quotient_maps in its earlier form: the canonical basis read
    column by column off its transpose, each column's pivot the first row
    it meets."""
    field = sub_canonical.field
    if sub_canonical.rows != ambient_dim:
        raise LinAlgError("subspace basis does not live in the ambient space")
    basis = sub_canonical.transpose().data
    # reduced column echelon form: the pivots increase (a zero column has
    # pivot -1), and the only entry in a pivot row is its column's own 1
    pivot_rows = [min(vec, default=-1) for vec in basis]
    canonical = all(p < q for p, q in zip([-1] + pivot_rows, pivot_rows))
    pivot_set = set(pivot_rows)
    compl = [i for i in range(ambient_dim) if i not in pivot_set]
    index = {i: a for a, i in enumerate(compl)}
    q_data = [{i: 1} for i in compl]
    # reducing e_p for a pivot row p subtracts the corresponding basis column
    for pr, vec in zip(pivot_rows, basis):
        for i, v in vec.items():
            a = index.get(i)
            if a is not None:
                q_data[a][pr] = field.neg(v)
            elif i != pr or v != 1:
                canonical = False
    if not canonical:
        raise LinAlgError("subspace basis is not in reduced column echelon form")
    s_data = [{} for _ in range(ambient_dim)]
    for a, i in enumerate(compl):
        s_data[i] = {a: 1}
    return (_mat(field, len(compl), ambient_dim, q_data),
            _mat(field, ambient_dim, len(compl), s_data))


def solve_by_product_check(m, b):
    """linalg.solve in its earlier form: X read off the elimination of
    (M | B) at the pivots in M with the free variables at 0, and kept only
    if M X = B when multiplied out; a pivot in B is not read."""
    n = m.cols
    aug = [{**mrow, **{n + c: v for c, v in brow.items()}} for mrow, brow in zip(m.data, b.data)]
    prows, pcols = _rref_sparse(m.field, aug)
    data = [{} for _ in range(n)]
    for pc, row in zip(pcols, prows):
        if pc < n:
            data[pc] = {c - n: v for c, v in row.items() if c >= n}
    x = _mat(m.field, n, b.cols, data)
    return x if m * x == b else None


def universal_de_rham_by_prolongation(a, max_degree):
    """The universal de Rham theory by the generic route that
    derham.de_rham took before its closed form: the cohomology of the
    universal prolongation, with d.d checked."""
    g = universal_prolongation(a, max_degree)
    return cohomology(CochainComplex(g.dims, g.diff))
