"""Differential tests of the sparse matrix kernels.

Each kernel runs on small random sparse matrices over Q and GF(p) and is
compared with a naive dense computation written here from `m[i, j]`; rank is
also compared with sympy's DomainMatrix, and the blockwise products by I (x) x
and x (x) I, and (x (x) I)(I (x) m), with the products of the materialized
Kronecker factors.  The elimination and the solve run over GF(7) and
GF(11) too, where an inverse is not the element's cube.  kernel_basis and
solve are held to their earlier routes, kept in tests/oracle_algebras.py
(the second elimination, and the product check), over Q and GF(2, 3, 5, 7,
11); the braiding as a column relabel is held to the product by the swap.
hypothesis and sympy are test-only.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from omegacalc.linalg import (  # noqa: E402
    GF,
    QQ,
    LinAlgError,
    Mat,
    image_basis,
    kernel_basis,
    kron_id_mul,
    kronecker,
    mul_id_kron,
    mul_kron_id,
    mul_swap,
    quotient_maps,
    rank,
    solve,
    swap_matrix,
)
from oracle_algebras import (  # noqa: E402
    kernel_basis_by_two_eliminations,
    quotient_maps_by_columns,
    solve_by_product_check,
)
from oracles import vstack  # noqa: E402

FIELDS = [QQ, GF(2), GF(3), GF(5)]


def _entries(field):
    if field.p is None:
        nonzero = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    else:
        nonzero = st.integers(1, field.p - 1)
    # mostly zeros, as in the tensor-power matrices the library builds
    return st.one_of(st.just(0), st.just(0), nonzero)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    entry = _entries(field)
    dense = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return Mat.from_entries(field, rows, cols, [
        (i, j, x) for i, row in enumerate(dense) for j, x in enumerate(row)
    ])


fields = st.sampled_from(FIELDS)


def dense(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def reduce(field, x):
    """A value of the naive reference in the field's normal form."""
    x = Fraction(x)
    if field.p is None:
        return x.numerator if x.denominator == 1 else x
    return x.numerator * pow(x.denominator, -1, field.p) % field.p


def check(m, expected, storage_violations):
    assert storage_violations(m) == []
    assert (m.rows, m.cols) == (len(expected), len(expected[0]) if expected else m.cols)
    assert dense(m) == [[reduce(m.field, x) for x in row] for row in expected]


def naive_rref(field, rows, ncols, limit=None):
    """Dense Gauss-Jordan with Fractions; pivots only in the first `limit` columns."""
    limit = ncols if limit is None else limit
    p = field.p
    rows = [[Fraction(x) for x in row] for row in rows]
    norm = (lambda x: x) if p is None else (lambda x: Fraction(reduce(field, x)))
    inverse = (lambda x: 1 / x) if p is None else (lambda x: pow(int(x), -1, p))
    pivots, r = [], 0
    for c in range(limit):
        piv = next((i for i in range(r, len(rows)) if norm(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = inverse(norm(rows[r][c]))
        rows[r] = [norm(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and norm(rows[i][c]):
                f = rows[i][c]
                rows[i] = [norm(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_matmul_matches_dense(storage_violations, data, field):
    a = data.draw(matrices(field))
    b = data.draw(matrices(field, rows=a.cols))
    da, db = dense(a), dense(b)
    expected = [[sum((Fraction(da[i][k]) * db[k][j] for k in range(a.cols)), Fraction(0))
                 for j in range(b.cols)] for i in range(a.rows)]
    check(a * b, expected, storage_violations)


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_kronecker_matches_dense(storage_violations, data, field):
    a = data.draw(matrices(field))
    b = data.draw(matrices(field))
    da, db = dense(a), dense(b)
    expected = [[Fraction(da[i][j]) * db[k][l] for j in range(a.cols) for l in range(b.cols)]
                for i in range(a.rows) for k in range(b.rows)]
    check(kronecker(a, b), expected, storage_violations)


@settings(max_examples=80, deadline=None)
@given(st.data(), fields, st.integers(0, 3))
def test_mul_id_kron_matches_dense(storage_violations, data, field, p):
    x = data.draw(matrices(field))
    m = data.draw(matrices(field, cols=p * x.rows))
    dm, dx = dense(m), dense(x)
    # (I_p (x) x)[(i, k), (i2, l)] = [i == i2] x[k, l]
    expected = [[sum((Fraction(dm[r][i * x.rows + k]) * dx[k][l] for k in range(x.rows)),
                     Fraction(0))
                 for i in range(p) for l in range(x.cols)] for r in range(m.rows)]
    out = mul_id_kron(m, p, x)
    assert out.cols == p * x.cols
    check(out, expected, storage_violations)
    assert out == m * kronecker(Mat.identity(field, p), x)


@settings(max_examples=80, deadline=None)
@given(st.data(), fields, st.integers(0, 3))
def test_mul_kron_id_matches_dense(storage_violations, data, field, q):
    x = data.draw(matrices(field))
    m = data.draw(matrices(field, cols=x.rows * q))
    dm, dx = dense(m), dense(x)
    # (x (x) I_q)[(i, l), (j, l2)] = x[i, j] [l == l2]
    expected = [[sum((Fraction(dm[r][i * q + l]) * dx[i][j] for i in range(x.rows)),
                     Fraction(0))
                 for j in range(x.cols) for l in range(q)] for r in range(m.rows)]
    out = mul_kron_id(m, x, q)
    assert out.cols == x.cols * q
    check(out, expected, storage_violations)
    assert out == m * kronecker(x, Mat.identity(field, q))


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_product_by_a_kronecker_product_is_the_two_kernels(storage_violations, data, field):
    x = data.draw(matrices(field))
    y = data.draw(matrices(field))
    m = data.draw(matrices(field, cols=x.rows * y.rows))
    out = mul_id_kron(mul_kron_id(m, x, y.rows), x.cols, y)
    assert storage_violations(out) == []
    assert out == m * kronecker(x, y)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("p,xr,xc", [(0, 0, 0), (0, 2, 3), (2, 0, 0), (2, 0, 3), (2, 3, 0)],
                         ids=["all-empty", "p-zero", "x-empty", "x-no-rows", "x-no-cols"])
def test_identity_kernels_on_empty_factors(storage_violations, field, p, xr, xc):
    x = Mat.zeros(field, xr, xc)
    m = Mat.zeros(field, 4, p * xr)
    for out, ref in ((mul_id_kron(m, p, x), kronecker(Mat.identity(field, p), x)),
                     (mul_kron_id(m, x, p), kronecker(x, Mat.identity(field, p)))):
        assert storage_violations(out) == []
        assert (out.rows, out.cols) == (4, p * xc)
        assert out == m * ref and out.is_zero()


@pytest.mark.parametrize("kernel", ["id_kron", "kron_id"])
def test_identity_kernels_reject_shape_and_field_mismatch(kernel):
    def apply(m, x, p):
        return mul_id_kron(m, p, x) if kernel == "id_kron" else mul_kron_id(m, x, p)

    x = Mat(QQ, [[1, 2], [3, 4], [5, 6]])
    with pytest.raises(LinAlgError):
        apply(Mat.zeros(QQ, 2, 5), x, 2)    # 5 columns, I_2 (x) x has 6 rows
    with pytest.raises(LinAlgError):
        apply(Mat.zeros(QQ, 2, 3), x, 2)
    with pytest.raises(LinAlgError):
        apply(Mat.zeros(GF(5), 2, 6), x, 2)
    assert apply(Mat.zeros(QQ, 2, 6), x, 2).cols == 4


def shapes_for_kron_id_mul():
    """(x.cols, q, p, m.rows) with x.cols * q = p * m.rows; a column of x may
    straddle two blocks of I_p (x) m, as with (3, 2, 2, 3)."""
    return st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(1, 3)).filter(
        lambda t: t[0] * t[1] % t[2] == 0).map(lambda t: (*t, t[0] * t[1] // t[2]))


@settings(max_examples=120, deadline=None)
@given(st.data(), fields, shapes_for_kron_id_mul())
def test_kron_id_mul_matches_the_materialized_products(storage_violations, data, field, shape):
    xc, q, p, mr = shape
    x = data.draw(matrices(field, cols=xc))
    m = data.draw(matrices(field, rows=mr))
    out = kron_id_mul(x, q, p, m)
    assert storage_violations(out) == []
    assert (out.rows, out.cols) == (x.rows * q, p * m.cols)
    assert out == kronecker(x, Mat.identity(field, q)) * kronecker(Mat.identity(field, p), m)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
@pytest.mark.parametrize("xr,xc,q,p,mr,mc", [
    (0, 0, 0, 0, 0, 0), (2, 3, 0, 0, 4, 2), (2, 0, 2, 3, 0, 2), (0, 3, 2, 2, 3, 4),
    (3, 2, 2, 1, 4, 0), (2, 4, 1, 2, 2, 3), (3, 3, 2, 2, 3, 2), (3, 2, 3, 1, 6, 2),
], ids=["all-empty", "q-zero", "x-no-cols", "x-no-rows", "m-no-cols", "q-one", "straddle",
        "p-one"])
def test_kron_id_mul_on_fixed_shapes(storage_violations, field, xr, xc, q, p, mr, mc):
    # every third entry in row-major order is zero, and so are row 1 of x and row 0 of m
    x = Mat.from_entries(field, xr, xc, [(i, j, i + 2 * j + 1) for i in range(xr)
                                         for j in range(xc) if (i * xc + j) % 3 and i != 1])
    m = Mat.from_entries(field, mr, mc, [(i, j, 3 * i - j + 2) for i in range(mr)
                                         for j in range(mc) if (i * mc + j) % 3 and i != 0])
    out = kron_id_mul(x, q, p, m)
    assert storage_violations(out) == []
    assert out == kronecker(x, Mat.identity(field, q)) * kronecker(Mat.identity(field, p), m)


def test_kron_id_mul_rejects_shape_and_field_mismatch():
    x = Mat(QQ, [[1, 2, 0], [0, 3, 4]])
    m = Mat(QQ, [[1, 0], [2, 5], [0, 1]])
    assert kron_id_mul(x, 2, 2, m).cols == 4
    with pytest.raises(LinAlgError):
        kron_id_mul(x, 2, 1, m)     # x (x) I_2 has 6 columns, I_1 (x) m 3 rows
    with pytest.raises(LinAlgError):
        kron_id_mul(x, 1, 2, m)
    with pytest.raises(LinAlgError):
        kron_id_mul(x, 2, 2, Mat(GF(5), [[1, 0], [2, 5], [0, 1]]))


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_add_sub_transpose_match_dense(storage_violations, data, field):
    a = data.draw(matrices(field))
    b = data.draw(matrices(field, rows=a.rows, cols=a.cols))
    da, db = dense(a), dense(b)
    check(a + b, [[Fraction(x) + y for x, y in zip(r, s)] for r, s in zip(da, db)],
          storage_violations)
    check(a - b, [[Fraction(x) - y for x, y in zip(r, s)] for r, s in zip(da, db)],
          storage_violations)
    check(a.transpose(), [[da[i][j] for i in range(a.rows)] for j in range(a.cols)],
          storage_violations)
    assert (a - a).is_zero() and a - a == Mat.zeros(field, a.rows, a.cols)


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_hstack_all_matches_dense(storage_violations, data, field):
    rows = data.draw(st.integers(0, 4))
    mats = data.draw(st.lists(matrices(field, rows=rows), max_size=4))
    out = Mat.hstack_all(field, mats, rows)
    assert out.cols == sum(m.cols for m in mats)
    expected = [sum((dense(m)[i] for m in mats), []) for i in range(rows)]
    check(out, expected, storage_violations)


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_rank_and_kernel_match_naive_elimination(storage_violations, data, field):
    check_rank_and_kernel(data.draw(matrices(field)), storage_violations)


def check_rank_and_kernel(m, storage_violations):
    field = m.field
    prows, pivots = naive_rref(field, dense(m), m.cols)
    assert rank(m) == len(pivots)
    # the canonical kernel basis: null vectors from the free columns, in
    # reduced column echelon form
    free = [c for c in range(m.cols) if c not in pivots]
    vecs = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for pc, row in zip(pivots, prows):
            v[pc] = -row[fc]
        vecs.append(v)
    canon, _ = naive_rref(field, vecs, m.cols)
    k = kernel_basis(m)
    assert (k.rows, k.cols) == (m.cols, len(free))
    assert storage_violations(k) == []
    assert dense(k.transpose()) == [[reduce(field, x) for x in row] for row in canon]


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_solve_matches_naive_elimination(storage_violations, data, field):
    m = data.draw(matrices(field))
    check_solve(m, data.draw(matrices(field, rows=m.rows)), storage_violations)


def check_solve(m, b, storage_violations):
    field = m.field
    aug = [r + s for r, s in zip(dense(m), dense(b))]
    prows, pivots = naive_rref(field, aug, m.cols + b.cols, limit=m.cols)
    _, all_pivots = naive_rref(field, aug, m.cols + b.cols)
    x = solve(m, b)
    if len(all_pivots) > len(pivots):  # a pivot in the augmented part
        assert x is None
        return
    expected = [[Fraction(0)] * b.cols for _ in range(m.cols)]
    for pc, row in zip(pivots, prows):
        expected[pc] = row[m.cols:]
    assert x is not None and x.rows == m.cols and x.cols == b.cols
    check(x, expected, storage_violations)


# GF(7) and GF(11) invert elements whose inverse is not their cube: a
# wrong exponent in Field.inv is the identity map on GF(2), GF(3) and GF(5)
LARGER_PRIMES = [GF(7), GF(11)]


@pytest.mark.parametrize("field", LARGER_PRIMES, ids=str)
def test_elimination_and_solve_over_larger_primes_match_naive(storage_violations, field):
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def run(data):
        m = data.draw(matrices(field))
        check_rank_and_kernel(m, storage_violations)
        check_solve(m, data.draw(matrices(field, rows=m.rows)), storage_violations)

    run()


@pytest.mark.parametrize("field", LARGER_PRIMES, ids=str)
def test_a_pivot_past_plus_minus_one_is_inverted(storage_violations, field):
    # 2 x = 1 has the solution 1/2, which is (p + 1) / 2
    x = solve(Mat(field, [[2]]), Mat(field, [[1]]))
    check(x, [[Fraction(1, 2)]], storage_violations)


ORACLE_FIELDS = FIELDS + LARGER_PRIMES


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(ORACLE_FIELDS))
def test_kernel_basis_matches_its_two_elimination_oracle(storage_violations, data, field):
    # one elimination with the columns reversed gives the same canonical
    # basis as the second elimination it replaced
    m = data.draw(matrices(field, rows=data.draw(st.integers(0, 7)),
                           cols=data.draw(st.integers(0, 9))))
    k = kernel_basis(m)
    assert k == kernel_basis_by_two_eliminations(m)
    assert storage_violations(k) == []
    assert (m * k).is_zero()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(ORACLE_FIELDS), st.sampled_from(["consistent", "random",
                                                                   "inconsistent"]))
def test_solve_matches_its_product_check_oracle(data, field, kind):
    # the inconsistency flag of the elimination decides exactly what
    # multiplying the answer out decided
    m = data.draw(matrices(field, rows=data.draw(st.integers(0, 7)),
                           cols=data.draw(st.integers(0, 7))))
    cols = data.draw(st.integers(0, 3))
    if kind == "consistent":
        b = m * data.draw(matrices(field, rows=m.cols, cols=cols))
    else:
        b = data.draw(matrices(field, rows=m.rows, cols=cols))
    if kind == "inconsistent":
        # a zero row of M against a nonzero entry of B reads 0 = 1
        cols = max(cols, 1)
        b = b.hstack(Mat.zeros(field, b.rows, cols - b.cols)) if b.cols < cols else b
        m = vstack(m, Mat.zeros(field, 1, m.cols))
        b = vstack(b, Mat.from_entries(field, 1, cols, [(0, cols - 1, 1)]))
    x = solve(m, b)
    assert x == solve_by_product_check(m, b)
    if kind == "consistent":
        assert x is not None and m * x == b
    if kind == "inconsistent":
        assert x is None


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    @settings(max_examples=80, deadline=None)
    @given(st.data(), fields)
    def run(data, field):
        m = data.draw(matrices(field))
        if field.p is None:
            dom = sympy.QQ
            rows = [[dom(Fraction(x).numerator, Fraction(x).denominator) for x in row]
                    for row in dense(m)]
        else:
            dom = sympy.GF(field.p)
            rows = [[dom(x) for x in row] for row in dense(m)]
        assert rank(m) == DomainMatrix(rows, (m.rows, m.cols), dom).rank()

    run()


@settings(max_examples=80, deadline=None)
@given(st.data(), fields, st.integers(0, 3), st.integers(0, 3))
def test_mul_swap_is_the_product_by_the_swap(storage_violations, data, field, m, n):
    x = data.draw(matrices(field, cols=m * n))
    out = mul_swap(x, m, n)
    assert out == x * swap_matrix(field, m, n)
    assert storage_violations(out) == []


def test_mul_swap_rejects_a_shape_mismatch():
    with pytest.raises(LinAlgError, match="swap"):
        mul_swap(Mat.zeros(QQ, 1, 5), 2, 3)


def quotient_maps_or_refusal(quotient_maps, basis, ambient_dim):
    try:
        return quotient_maps(basis, ambient_dim)
    except LinAlgError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(ORACLE_FIELDS),
       st.sampled_from(["canonical", "perturbed", "another height", "random"]))
def test_quotient_maps_matches_its_column_oracle(storage_violations, data, field, kind):
    # read row by row, the canonical basis gives the Q and s the column
    # reading gave, and every other basis the same refusal
    rows = data.draw(st.integers(0, 8))
    basis = image_basis(data.draw(matrices(field, rows=rows, cols=data.draw(st.integers(0, 6)))))
    if kind == "perturbed" and basis.rows and basis.cols:
        i = data.draw(st.integers(0, basis.rows - 1))
        j = data.draw(st.integers(0, basis.cols - 1))
        x = data.draw(_entries(field))
        entries = [(r, c, v) for r, row in enumerate(basis.data) for c, v in row.items()
                   if (r, c) != (i, j)]
        basis = Mat.from_entries(field, basis.rows, basis.cols, entries + [(i, j, x)])
    elif kind == "random":
        basis = data.draw(matrices(field, rows=rows))
    ambient = rows + data.draw(st.integers(-1, 1)) if kind == "another height" else rows
    found = quotient_maps_or_refusal(quotient_maps, basis, ambient)
    assert found == quotient_maps_or_refusal(quotient_maps_by_columns, basis, ambient)
    if not isinstance(found, str):
        q, s = found
        assert storage_violations(q) == storage_violations(s) == []
        assert (q * basis).is_zero() and q * s == Mat.identity(field, q.rows)
