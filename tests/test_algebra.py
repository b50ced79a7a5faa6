import pytest

from omegacalc.algebra import (
    AlgMap,
    AxiomError,
    alg_map_report,
    algebra_axiom_report,
    build_group_algebra,
    build_matrix_algebra,
    build_truncated_poly,
    commutativity_witness,
    is_commutative,
    opposite,
)
from omegacalc.bimodule import build_square_zero
from omegacalc.fodc import universal_calculus
from omegacalc.linalg import GF, QQ, LinAlgError, Mat, kronecker

from oracle_algebras import (
    ORACLE_ALGEBRAS,
    commutative_in_permuted_bases,
    dense_commutativity_witness,
    dense_equal,
    structure_tensor,
)
from oracles import regular_bimodule


def test_truncated_poly_is_valid(qx2):
    assert algebra_axiom_report(QQ, 2, structure_tensor(qx2), qx2.unit) == []


def test_truncated_poly_dim_one_is_field():
    a = build_truncated_poly(QQ, 1)
    assert a.dim == 1 and a.mult_mat.column(0) == [QQ.one()]


def test_group_algebra_z2_valid(qz2):
    assert algebra_axiom_report(QQ, 2, structure_tensor(qz2), qz2.unit) == []


def test_bad_unit_reports_violations():
    # e1*e1 = e0 but the unit is declared to be e1
    mult = [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]
    report = algebra_axiom_report(QQ, 2, mult, ["0", "1"])
    assert any("unit law" in r for r in report)


def test_non_associative_reports_witness():
    # e0 unit, e1*e1 = e2, e1*e2 = e0, everything else 0: (e1 e1) e1 != e1 (e1 e1)
    z, o = "0", "1"
    mult = [
        [[o, z, z], [z, o, z], [z, z, o]],
        [[z, o, z], [z, z, o], [o, z, z]],
        [[z, z, o], [z, z, z], [z, z, z]],
    ]
    report = algebra_axiom_report(QQ, 3, mult, [o, z, z])
    assert any("associativity" in r for r in report)


def test_matrix_algebra_gf5():
    a = build_matrix_algebra(GF(5), 2)
    assert a.dim == 4
    assert not is_commutative(a)


@pytest.mark.parametrize("name", ["qx3", "qz3"])
def test_commutative_examples(name, request):
    assert is_commutative(request.getfixturevalue(name))


def test_m2q_not_commutative(m2q):
    assert not is_commutative(m2q)
    assert commutativity_witness(m2q) is not None


def witness_cases():
    """Every oracle algebra and its opposite, and every commutative oracle
    algebra in permuted bases, by name."""
    cases = dict(ORACLE_ALGEBRAS)
    cases.update({f"opposite({name})": (lambda build=build: opposite(build()))
                  for name, build in ORACLE_ALGEBRAS.items()})
    cases.update(commutative_in_permuted_bases())
    return cases


WITNESS_CASES = witness_cases()


@pytest.mark.parametrize("name", WITNESS_CASES)
def test_commutativity_witness_matches_the_dense_loop(name):
    alg = WITNESS_CASES[name]()
    assert commutativity_witness(alg) == dense_commutativity_witness(alg)
    assert is_commutative(alg) == (dense_commutativity_witness(alg) is None)


def test_equality_matches_the_dense_comparison():
    # every pair, a fresh copy of each included: equal but distinct
    # instances, permuted bases of one algebra and opposites that coincide
    algs = [build() for build in WITNESS_CASES.values()]
    algs += [build() for build in WITNESS_CASES.values()]
    verdicts = {(a == b, dense_equal(a, b)) for a in algs for b in algs}
    assert verdicts == {(True, True), (False, False)}


def test_opposite_involution(m2q, qx3):
    assert opposite(opposite(m2q)) == m2q
    assert (opposite(m2q) == m2q) is False
    assert opposite(qx3) == qx3  # commutative iff fixed by opposite


def test_opposite_passes_axioms(m2q):
    op = opposite(m2q)
    assert algebra_axiom_report(op.field, op.dim, structure_tensor(op), op.unit) == []


def test_identity_map_valid(qs3):
    assert alg_map_report(qs3, qs3, Mat.identity(QQ, 6)) == []


def test_y_to_x_squared_is_algebra_map(qy2, qx4):
    f = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    assert alg_map_report(f.source, f.target, f.matrix) == []


def test_y_to_x_cubed_fails(qy2, qx4):
    # y |-> x + x^3 is not multiplicative: (x + x^3)^2 = x^2 != 0
    bad = Mat(QQ, [[1, 0], [0, 1], [0, 0], [0, 1]])
    assert alg_map_report(qy2, qx4, bad)


def test_alg_map_constructor_raises(qy2, qx4):
    with pytest.raises(AxiomError):
        AlgMap(qy2, qx4, Mat(QQ, [[0, 0], [0, 1], [0, 0], [0, 0]]))


def test_group_table_rejected_if_not_group():
    with pytest.raises(LinAlgError):
        build_group_algebra(QQ, [[0, 1], [0, 1]])  # rows not permutations
    # an order-5 loop with identity 0 that is not associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(LinAlgError):
        build_group_algebra(QQ, loop)


def test_square_zero_extension(qx2):
    u = universal_calculus(qx2)
    ext = build_square_zero(qx2, u.omega)
    assert ext.dim == 4
    assert algebra_axiom_report(ext.field, ext.dim, structure_tensor(ext), ext.unit) == []


def test_square_zero_embedded_module_squares_to_zero(qx2):
    ext = build_square_zero(qx2, regular_bimodule(qx2))
    x = [QQ.zero(), QQ.zero(), QQ.one(), QQ.zero()]
    y = [QQ.zero(), QQ.zero(), QQ.zero(), QQ.one()]
    xy = ext.mult_mat * kronecker(Mat.col_vector(QQ, x), Mat.col_vector(QQ, y))
    assert xy.is_zero()


def test_square_zero_projection_and_inclusion_are_algebra_maps(qx2):
    ext = build_square_zero(qx2, regular_bimodule(qx2))
    proj = Mat(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]])
    incl = Mat(QQ, [[1, 0], [0, 1], [0, 0], [0, 0]])
    assert alg_map_report(ext, qx2, proj) == []
    assert alg_map_report(qx2, ext, incl) == []


QX2 = build_truncated_poly(QQ, 2)
QX3 = build_truncated_poly(QQ, 3)
F2X2 = build_truncated_poly(GF(2), 2)

# Each refusal of outside input in algebra.py: (what is built, exception,
# message).  The Latin square x * y = -x - y mod 3 has no identity.
REFUSALS = {
    "structure tensor of the wrong shape": (
        lambda: algebra_axiom_report(QQ, 2, [[1]], [1, 0]), LinAlgError,
        "bad structure data: mult must be 2 blocks of 2 rows of 2 scalars"),
    "unit of the wrong length": (
        lambda: algebra_axiom_report(QQ, 1, [[[1]]], [1, 0]), LinAlgError,
        "unit vector has wrong length"),
    "map between two fields": (
        lambda: AlgMap(QX2, F2X2, Mat.identity(GF(2), 2)), LinAlgError,
        "field mismatch between source and target"),
    "map of the wrong shape": (
        lambda: AlgMap(QX2, QX3, Mat.identity(QQ, 2)), LinAlgError,
        "morphism matrix has wrong shape"),
    "truncated polynomials of dimension 0": (
        lambda: build_truncated_poly(QQ, 0), LinAlgError, "dimension must be at least 1"),
    "Cayley table with a repeated entry": (
        lambda: build_group_algebra(QQ, [[0, 0], [1, 1]]), LinAlgError,
        "Cayley table rows must be permutations"),
    "Cayley table with no identity": (
        lambda: build_group_algebra(QQ, [[0, 2, 1], [2, 1, 0], [1, 0, 2]]), LinAlgError,
        "Cayley table has no identity element"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_outside_input_is_refused(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message
