import pytest

from omegacalc.algebra import build_truncated_poly
from omegacalc.fodc import (
    PreconditionError,
    _kernel,
    _section,
    check_fodc,
    induced_map,
    universal_calculus,
)
from omegacalc.kahler import centrality_check, kahler_calculus, kahler_relations
from omegacalc.linalg import GF, QQ, Mat, image_basis, kronecker, rank
from omegacalc.prolong import maximal_prolongation

from oracles import regular_bimodule
from oracle_algebras import COMMUTATIVE, commutative_in_permuted_bases, kahler_by_saturation


def classical_kahler_dim(field, n):
    """Independent oracle: A dx / (n x^(n-1) dx) inside A = field[x]/(x^n).

    The ideal generated by n x^(n-1) is the image of its multiplication
    matrix; the quotient dimension is n minus that rank.
    """
    a = build_truncated_poly(field, n)
    elem = [field.zero()] * n
    elem[n - 1] = field.coerce(n)
    col = Mat.col_vector(field, elem)
    mult_by_elem = a.mult_mat * kronecker(Mat.identity(field, n), col)
    return n - rank(image_basis(mult_by_elem))


@pytest.mark.parametrize("field,n", [
    (QQ, 2), (QQ, 3), (QQ, 4),
    (GF(2), 2), (GF(3), 3), (GF(2), 4), (GF(3), 2), (GF(5), 5),
])
def test_kahler_dimension_matches_classical_oracle(field, n):
    a = build_truncated_poly(field, n)
    calc = kahler_calculus(a)
    assert calc.dim == classical_kahler_dim(field, n)


@pytest.mark.parametrize("field,n,expected", [
    (QQ, 2, 1), (QQ, 3, 2), (QQ, 4, 3),
    (GF(2), 2, 2), (GF(3), 3, 3),
])
def test_kahler_dimension_values(field, n, expected):
    assert kahler_calculus(build_truncated_poly(field, n)).dim == expected


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_kahler_is_a_calculus_and_central(name):
    # the oracle behind the certificate in kahler_calculus, which no longer
    # checks centrality itself
    alg = COMMUTATIVE[name]()
    calc = kahler_calculus(alg)
    assert check_fodc(alg, calc.omega, calc.d).classification == "fodc"
    assert centrality_check(calc.omega)


PERMUTED = commutative_in_permuted_bases()


@pytest.mark.parametrize("name", PERMUTED)
def test_kahler_matches_the_saturated_quotient_of_omega_u(name):
    # the closed form I / I^2 against the route it replaced, on every
    # commutative oracle algebra over Q and GF(p) in up to six basis orders:
    # the relations, both actions, d, the recorded kernel and section, and
    # the maximal prolongation map for map
    alg = PERMUTED[name]()
    calc, oracle = kahler_calculus(alg), kahler_by_saturation(alg)
    assert kahler_relations(alg) == _kernel(oracle)
    assert calc.omega.left_mat == oracle.omega.left_mat
    assert calc.omega.right_mat == oracle.omega.right_mat
    assert calc.d == oracle.d
    assert _kernel(calc) == _kernel(oracle)
    assert _section(calc) == _section(oracle)
    degree = 2 if alg.dim >= 4 else 3
    g, h = maximal_prolongation(calc, degree), maximal_prolongation(oracle, degree)
    assert g.dims == h.dims
    assert g.diff == h.diff
    for key in g.wedge:
        assert g.wedge[key] == h.wedge[key], key


def test_noncommutative_rejected_with_witness(m2q):
    with pytest.raises(PreconditionError, match=r"e\d\*e\d"):
        kahler_calculus(m2q)


def test_x2_relation_kills_x_tensor_x(qx2):
    u = universal_calculus(qx2)
    rel = kahler_relations(qx2)
    # the relation space is exactly span{x (x) x} in omega coordinates
    assert rel.cols == 1
    embedded = u.iota * rel
    assert embedded.column(0) == [QQ.zero(), QQ.zero(), QQ.zero(), QQ.one()]


def test_x_dx_is_zero_but_dx_is_not(qx2):
    calc = kahler_calculus(qx2)
    x = Mat(QQ, [[0], [1]])
    dx = calc.d * x
    assert not dx.is_zero()
    assert (calc.omega.left_mat * kronecker(x, dx)).is_zero()


def test_char3_kills_nothing(f3x3):
    u = universal_calculus(f3x3)
    calc = kahler_calculus(f3x3)
    assert calc.dim == 3
    # 3 x^2 dx = 0 automatically in characteristic 3
    rel = kahler_relations(f3x3)
    assert rel.cols == u.dim - calc.dim


def test_centrality_of_regular_bimodule(qx3):
    assert centrality_check(regular_bimodule(qx3))


def test_universal_omega_is_not_central(qx2):
    assert not centrality_check(universal_calculus(qx2).omega)


def test_centrality_requires_commutative(m2q):
    with pytest.raises(PreconditionError):
        centrality_check(regular_bimodule(m2q))


def test_kahler_projection_is_the_induced_map(qx3):
    u = universal_calculus(qx3)
    calc = kahler_calculus(qx3)
    f = induced_map(calc)
    # the coequalizer projection is exactly the universal-property map
    assert f.matrix * u.d == calc.d


def test_leibniz_and_centrality_pointwise(qx3):
    calc = kahler_calculus(qx3)
    n = qx3.dim
    f = QQ
    for i in range(n):
        e_i = Mat.from_entries(f, n, 1, [(i, 0, 1)])
        for j in range(n):
            e_j = Mat.from_entries(f, n, 1, [(j, 0, 1)])
            prod = qx3.mult_mat * kronecker(e_i, e_j)
            lhs = calc.d * prod
            rhs = (calc.omega.left_mat * kronecker(e_i, calc.d * e_j)
                   + calc.omega.right_mat * kronecker(calc.d * e_i, e_j))
            assert lhs == rhs
            a_db = calc.omega.left_mat * kronecker(e_i, calc.d * e_j)
            db_a = calc.omega.right_mat * kronecker(calc.d * e_j, e_i)
            assert a_db == db_a


def test_kahler_projection_matrix_is_induced_map(qx3):
    from omegacalc.fodc import quotient_calculus

    u = universal_calculus(qx3)
    _, proj = quotient_calculus(u, kahler_relations(qx3))
    assert proj.matrix == induced_map(kahler_calculus(qx3)).matrix


def test_kahler_is_largest_central_quotient(qx3):
    # every central quotient kills at least the centrality relations
    from omegacalc.fodc import (
        enumerate_action_closed_subspaces,
        quotient_calculus,
        universal_calculus,
    )
    from omegacalc.linalg import subspace_leq

    u = universal_calculus(qx3)
    rel = kahler_relations(qx3)
    seen_central = 0
    for sub in enumerate_action_closed_subspaces(u.omega):
        calc, _ = quotient_calculus(u, sub)
        if calc.dim and centrality_check(calc.omega):
            seen_central += 1
            assert subspace_leq(rel, sub)
    assert seen_central >= 1
