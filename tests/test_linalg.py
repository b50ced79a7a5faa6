import random
from fractions import Fraction

import pytest

from omegacalc.algebra import is_commutative
from omegacalc.derham import CochainComplex, cohomology, de_rham
from omegacalc.linalg import (
    GF,
    QQ,
    Field,
    LinAlgError,
    Mat,
    factor_through_surjection,
    image_basis,
    inverse,
    kernel_basis,
    kronecker,
    preimage_basis,
    quotient_maps,
    rank,
    solve,
    subspace_leq,
    swap_matrix,
)
from omegacalc.prolong import universal_prolongation


def rand_mat(field, rows, cols, rng, lo=-3, hi=3):
    if rows == 0 or cols == 0:
        return Mat.zeros(field, rows, cols)
    return Mat(field, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("entry", [(-1, 0, 5), (2, 0, 5), (0, -1, 5), (0, 2, 5)],
                         ids=["row -1", "row 2", "column -1", "column 2"])
def test_from_entries_rejects_positions_outside_the_matrix(entry):
    with pytest.raises(LinAlgError, match="outside a 2x2 matrix"):
        Mat.from_entries(QQ, 2, 2, [entry])


def test_kernel_of_row_vector():
    k = kernel_basis(Mat(QQ, [[1, 1]]))
    assert k.columns() == [[Fraction(1), Fraction(-1)]]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Mat.identity(QQ, 3)).cols == 0


def test_kernel_of_truncated_poly_multiplication():
    # columns e0e0, e0e1, e1e0, e1e1 map to e0, e1, e1, 0
    m = Mat(QQ, [[1, 0, 0, 0], [0, 1, 1, 0]])
    k = kernel_basis(m)
    assert k.columns() == [
        [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]


def cokernel(m):
    """The quotient map onto the cokernel of m, and its dimension."""
    q, _s = quotient_maps(image_basis(m), m.rows)
    return q, q.rows


def test_cokernel_of_zero_map():
    q, dim = cokernel(Mat.zeros(QQ, 3, 1))
    assert dim == 3 and q == Mat.identity(QQ, 3)


def test_cokernel_of_identity():
    _, dim = cokernel(Mat.identity(QQ, 2))
    assert dim == 0


def test_cokernel_kills_first_coordinate():
    m = Mat(QQ, [[1, 0], [0, 0]])
    q, dim = cokernel(m)
    assert dim == 1 and (q * m).is_zero()
    assert q.dense_rows()[0] == [Fraction(0), Fraction(1)]


def test_cokernel_annihilates_image_basis():
    rng = random.Random(7)
    for _ in range(25):
        m = rand_mat(QQ, rng.randint(1, 5), rng.randint(1, 5), rng)
        q, dim = cokernel(m)
        assert dim == m.rows - rank(m)
        assert (q * image_basis(m)).is_zero()
        assert rank(q) == dim


def test_kron_of_identities():
    assert kronecker(Mat.identity(QQ, 2), Mat.identity(QQ, 3)) == Mat.identity(QQ, 6)


def test_solve_identity():
    b = Mat(QQ, [[3], [5]])
    assert solve(Mat.identity(QQ, 2), b) == b


def test_solve_no_solution():
    assert solve(Mat(QQ, [[1, 1], [1, 1]]), Mat(QQ, [[1], [2]])) is None


def test_rank_kron_multiplicative():
    m = Mat(QQ, [[1, 1]])
    n = Mat(QQ, [[2], [0]])
    assert rank(kronecker(m, n)) == 1 == rank(m) * rank(n)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_rank_nullity_random(field):
    rng = random.Random(11)
    for _ in range(30):
        m = rand_mat(field, rng.randint(0, 5), rng.randint(0, 5), rng, 0 if field.p else -3, (field.p - 1) if field.p else 3)
        assert rank(m) + kernel_basis(m).cols == m.cols


def test_echelon_idempotent():
    rng = random.Random(13)
    for _ in range(25):
        m = rand_mat(QQ, rng.randint(1, 5), rng.randint(1, 5), rng)
        e = image_basis(m)
        assert image_basis(e) == e
        k = kernel_basis(m)
        assert image_basis(k) == k


def test_subspace_equality_is_matrix_equality():
    a = Mat(QQ, [[1, 0], [1, 1], [0, 2]])
    b = Mat(QQ, [[2, 1], [3, 2], [2, 2]])  # same column space
    assert image_basis(a) == image_basis(b)


def test_gfp_matches_integer_arithmetic():
    f = GF(7)
    rng = random.Random(3)
    for _ in range(10):
        a = rand_mat(f, 3, 3, rng, 0, 6)
        b = rand_mat(f, 3, 3, rng, 0, 6)
        prod = a * b
        for i in range(3):
            for j in range(3):
                expected = sum(a[i, k] * b[k, j] for k in range(3)) % 7
                assert prod[i, j] == expected


def test_prime_field_rejects_composite():
    with pytest.raises(LinAlgError):
        Field(6)


@pytest.mark.parametrize("p", [41, 2 ** 31 - 1])
def test_a_prime_past_the_trial_divisors_builds_a_field(p):
    # no divisor up to 37, so Miller-Rabin decides; for 41 a square reaches
    # p - 1 only after the first witness power
    f = Field(p)
    assert f.p == p
    assert f.mul(3, f.inv(3)) == 1


def test_a_composite_past_the_trial_divisors_is_refused():
    with pytest.raises(LinAlgError, match="1763 is not prime"):
        Field(41 * 43)


@pytest.mark.parametrize("p", [7, 11, 41])
def test_every_nonzero_element_has_its_inverse(p):
    f = GF(p)
    assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, p))


def test_scalar_strings():
    assert QQ.format(Fraction(-3, 4)) == "-3/4"
    assert QQ.format(Fraction(5)) == "5"
    assert QQ.coerce("7/2") == Fraction(7, 2)
    f5 = GF(5)
    assert f5.format(f5.coerce(-1)) == "4"
    assert f5.coerce("3") == 3


def test_rational_scalar_normal_form():
    half = QQ.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.coerce("4/2")) is int and QQ.coerce("4/2") == 2
    assert type(QQ.zero()) is int
    assert type(QQ.mul(Fraction(1, 2), 4)) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int


@pytest.mark.parametrize("name", ["qx3", "qz3", "m2q", "qs3", "f2x2", "f3x3"])
def test_pipeline_keeps_q_normal_form(request, monkeypatch, storage_violations, name):
    alg = request.getfixturevalue(name)
    seen = []
    bad = []

    def sweep():
        for m in seen:
            bad.extend(storage_violations(m))
        seen.clear()

    slot = Mat.__dict__["data"]

    def set_data(m, rows):
        # every construction path assigns .data, and only once its rows are
        # final (rows are never mutated afterwards), so a matrix can be
        # checked once the next one is started.
        if len(seen) >= 64:
            sweep()
        slot.__set__(m, rows)
        seen.append(m)

    monkeypatch.setattr(Mat, "data", property(slot.__get__, set_data))
    de_rham(alg, "universal", 2)  # the closed form, and the generic route
    cohomology(CochainComplex.from_graded(universal_prolongation(alg, 2)))
    if is_commutative(alg):
        de_rham(alg, "kahler", 2)
    sweep()
    assert bad == []


def test_inverse_round_trip():
    f = GF(5)
    m = Mat(f, [[1, 2], [3, 4]])
    assert inverse(m) * m == Mat.identity(f, 2)
    with pytest.raises(LinAlgError):
        inverse(Mat(QQ, [[1, 1], [1, 1]]))


def test_quotient_maps_section():
    sub = image_basis(Mat(QQ, [[1], [1], [0]]))
    q, s = quotient_maps(sub, 3)
    assert q * s == Mat.identity(QQ, 2)
    assert (q * sub).is_zero()


@pytest.mark.parametrize("cols", [
    [[2, 0, 0]],                 # a pivot that is not 1
    [[0, 1, 0], [1, 0, 0]],      # decreasing pivots
    [[1, 0, 0], [1, 0, 0]],      # a repeated pivot
    [[1, 0, 0], [1, 1, 0]],      # another column has an entry in a pivot row
    [[1, 0, 0], [0, 0, 0]],      # a zero column
])
def test_quotient_maps_refuses_a_noncanonical_basis(cols):
    sub = Mat.from_cols(QQ, cols, rows=3)
    with pytest.raises(LinAlgError, match="not in reduced column echelon form"):
        quotient_maps(sub, 3)
    q, s = quotient_maps(image_basis(sub), 3)
    assert (q * sub).is_zero() and q * s == Mat.identity(QQ, q.rows)


@pytest.mark.parametrize("rows,cols", [(5, 0), (2, 0), (5, 1), (2, 1)])
def test_quotient_maps_refuses_a_basis_of_another_height(rows, cols):
    # an empty basis lives in an ambient space too: 5 x 0 is the zero
    # subspace of a 5-dimensional space, not of a 3-dimensional one
    sub = Mat.from_entries(QQ, rows, cols, [(0, 0, 1)] if cols else [])
    with pytest.raises(LinAlgError, match="does not live in the ambient space"):
        quotient_maps(sub, 3)
    q, s = quotient_maps(Mat.zeros(QQ, 3, 0), 3)
    assert q == s == Mat.identity(QQ, 3)


def test_swap_matrix_is_inverse_pair():
    s = swap_matrix(QQ, 2, 3)
    t = swap_matrix(QQ, 3, 2)
    assert t * s == Mat.identity(QQ, 6)


def test_preimage_and_intersection():
    f = Mat(QQ, [[1, 0], [0, 0]])
    sub = Mat.zeros(QQ, 2, 0)
    pre = preimage_basis(f, sub)  # kernel of f
    assert pre == kernel_basis(f)
    a = image_basis(Mat(QQ, [[1, 0], [0, 1], [0, 0]]))
    b = image_basis(Mat(QQ, [[0, 0], [1, 0], [0, 1]]))
    # their intersection is the span of e1
    inter = Mat(QQ, [[0], [1], [0]])
    assert subspace_leq(inter, a) and subspace_leq(inter, b)
    assert not subspace_leq(a, b) and not subspace_leq(b, a)


def test_subspace_functions_refuse_a_noncanonical_basis():
    # twice a canonical basis spans the same subspace; preimage_basis and the
    # larger side of subspace_leq take canonical bases, and quotient_maps
    # refuses any other, even where the smaller side is empty
    a = image_basis(Mat(QQ, [[1, 0], [0, 1], [0, 0]]))
    f = Mat(QQ, [[1, 1], [0, 1], [1, 0]])
    assert preimage_basis(f, a) == Mat(QQ, [[0], [1]])
    assert subspace_leq(a + a, a) and not subspace_leq(Mat(QQ, [[0], [0], [1]]), a)
    for call in (lambda: preimage_basis(f, a + a), lambda: subspace_leq(a, a + a),
                 lambda: subspace_leq(Mat.zeros(QQ, 3, 0), a + a)):
        with pytest.raises(LinAlgError, match="not in reduced column echelon form"):
            call()


def test_factor_through_surjection():
    q = Mat(QQ, [[1, 0, 1], [0, 1, 0]])
    rhs = Mat(QQ, [[2, 3, 2]])
    x = factor_through_surjection(rhs, q)
    assert x is not None and x * q == rhs
    assert factor_through_surjection(Mat(QQ, [[1, 0, 0]]), q) is None


def test_field_mismatch_rejected():
    with pytest.raises(LinAlgError):
        Mat(QQ, [[1]]) * Mat(GF(2), [[1]])
