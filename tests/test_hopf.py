import pytest

from omegacalc.algebra import AxiomError, build_truncated_poly
from omegacalc.bimodule import regular_bimodule
from omegacalc.fodc import (
    enumerate_action_closed_subspaces,
    quotient_calculus,
    universal_calculus,
    zero_calculus,
)
from omegacalc.hopf import (
    Bimonoid,
    bicovariance_check,
    bimonoid_axiom_report,
    check_hopf_module,
    d_comodule_report,
    group_like_bimonoid,
    regular_coactions,
    universal_coactions,
)
from omegacalc.linalg import GF, QQ, Mat, kernel_basis, kronecker, rank


@pytest.fixture(scope="module")
def h_z2(qz2):
    return group_like_bimonoid(qz2)


@pytest.fixture(scope="module")
def h_z3(qz3):
    return group_like_bimonoid(qz3)


@pytest.fixture(scope="module")
def h_s3(qs3):
    return group_like_bimonoid(qs3)


def primitive_bimonoid(field):
    """field[x]/x^2 (basis 1, x) with Delta(x) = x (x) 1 + 1 (x) x, eps(x) = 0."""
    comult = Mat.from_entries(field, 4, 2, [(0, 0, 1), (2, 1, 1), (1, 1, 1)])
    return build_truncated_poly(field, 2), comult, Mat(field, [[1, 0]])


@pytest.fixture(scope="module")
def h_prim():
    # Delta(x)^2 = 2 x (x) x, which vanishes only in characteristic 2
    return Bimonoid(*primitive_bimonoid(GF(2)))


def test_primitive_bimonoid_needs_characteristic_two(h_prim):
    assert h_prim.alg.dim == 2
    assert bimonoid_axiom_report(*primitive_bimonoid(GF(3))) == [
        "comultiplication is not an algebra map"
    ]


def test_group_like_bimonoids_valid(h_z2, h_z3):
    assert bimonoid_axiom_report(h_z2.alg, h_z2.comult, h_z2.counit) == []
    assert bimonoid_axiom_report(h_z3.alg, h_z3.comult, h_z3.counit) == []


def test_bad_comultiplication_reported(qz2):
    # Delta(e) = e (x) e, Delta(g) = e (x) g is multiplicative, but
    # (1 (x) eps) Delta(g) = e != g
    comult = Mat.from_entries(QQ, 4, 2, [(0, 0, 1), (1, 1, 1)])
    counit = Mat(QQ, [[1, 1]])
    report = bimonoid_axiom_report(qz2, comult, counit)
    assert report == ["right counit law fails"]


# Structure maps on Q[Z2] (basis e, g) that are not algebra maps.
NOT_ALGEBRA_MAPS = {
    # g primitive: Delta(g)^2 = 2 e(x)e + 2 g(x)g != Delta(e), eps(g)^2 = 0 != eps(e)
    "primitive": (
        [(0, 0, 1), (1, 1, 1), (2, 1, 1)], [[1, 0]],
        ["comultiplication is not an algebra map", "counit is not an algebra map"],
    ),
    # Delta(e) = 0: Delta(g)^2 = e(x)e != Delta(e), and the unit is not kept
    "zero_on_unit": (
        [(3, 1, 1)], [[1, 1]],
        ["left counit law fails", "right counit law fails",
         "comultiplication is not an algebra map",
         "comultiplication does not preserve the unit"],
    ),
    # eps(e) = 0, eps(g) = 1: eps(g)^2 = 1 != eps(e), and the unit is not kept
    "counit_off_unit": (
        [(0, 0, 1), (3, 1, 1)], [[0, 1]],
        ["left counit law fails", "right counit law fails",
         "counit is not an algebra map", "counit does not preserve the unit"],
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_ALGEBRA_MAPS))
def test_bimonoid_rejects_structure_maps_that_are_not_algebra_maps(qz2, case):
    entries, counit_rows, expected = NOT_ALGEBRA_MAPS[case]
    comult = Mat.from_entries(QQ, 4, 2, entries)
    counit = Mat(QQ, counit_rows)
    assert bimonoid_axiom_report(qz2, comult, counit) == expected
    with pytest.raises(AxiomError) as exc:
        Bimonoid(qz2, comult, counit)
    assert exc.value.report == expected


def test_algebra_as_hopf_module(h_z2, h_z3):
    for h in (h_z2, h_z3):
        reg = regular_bimodule(h.alg)
        assert check_hopf_module(h, reg, h.comult, h.comult) == []


def test_trivial_bimonoid_universal_is_zero_dim():
    qa = build_truncated_poly(QQ, 1)
    h = Bimonoid(qa, Mat(QQ, [[1]]), Mat(QQ, [[1]]))
    hc = universal_coactions(h)
    assert hc.dim == 0


@pytest.mark.parametrize("name,expected_dim", [
    ("h_z2", 2), ("h_z3", 6), ("h_s3", 30), ("h_prim", 2),
])
def test_universal_coactions_pass_axioms(name, expected_dim, request):
    # the oracle behind the certificate in universal_coactions, which runs
    # neither report nor the composites below
    h = request.getfixturevalue(name)
    hc = universal_coactions(h)
    u = hc.calculus
    assert hc.dim == expected_dim
    assert check_hopf_module(h, u.omega, hc.lam, hc.rho) == []
    assert d_comodule_report(h, u, hc.lam, hc.rho) == []
    # the coactions through the two left inverses of iota: the retraction
    # (1 . d) and minus the right-action composite (d . 1)
    i_n = Mat.identity(h.alg.field, h.alg.dim)
    lam_reg, rho_reg = regular_coactions(h)
    assert hc.rho == kronecker(u.retraction, i_n) * rho_reg * u.iota
    d_dot_one = u.omega.right_mat * kronecker(u.d, i_n)
    assert hc.lam == -(kronecker(i_n, d_dot_one) * lam_reg * u.iota)


def test_inclusion_is_hopf_module_morphism(h_z2):
    u = universal_calculus(h_z2.alg)
    hc = universal_coactions(h_z2, u)
    lam_reg, rho_reg = regular_coactions(h_z2)
    i_n = Mat.identity(QQ, 2)
    assert kronecker(i_n, u.iota) * hc.lam == lam_reg * u.iota
    assert kronecker(u.iota, i_n) * hc.rho == rho_reg * u.iota


@pytest.mark.parametrize("name", ["h_z2", "h_z3"])
def test_proof_identity_delta_m_iota_zero(name, request):
    h = request.getfixturevalue(name)
    a = h.alg
    u = universal_calculus(a)
    assert (h.comult * a.mult_mat * u.iota).is_zero()
    _, rho_reg = regular_coactions(h)
    n = a.dim
    killer = kronecker(a.mult_mat, kronecker(a.unit_mat, Mat.identity(QQ, n)))
    assert (killer * rho_reg * u.iota).is_zero()


def test_universal_and_zero_are_bicovariant(h_z2, qz2):
    u = universal_calculus(qz2)
    assert bicovariance_check(h_z2, u)["bicovariant"]
    assert bicovariance_check(h_z2, zero_calculus(qz2))["bicovariant"]


def brute_force_subcomodule(h, nker):
    """Independent oracle: rank-based span membership of the coaction images."""
    u = universal_calculus(h.alg)
    hc = universal_coactions(h, u)
    n = h.alg.dim
    if nker.cols == 0:
        return True
    i_n = Mat.identity(h.alg.field, n)
    an = kronecker(i_n, nker)
    na = kronecker(nker, i_n)
    left_in = rank(an.hstack(hc.lam * nker)) == rank(an)
    right_in = rank(na.hstack(hc.rho * nker)) == rank(na)
    return left_in and right_in


@pytest.mark.parametrize("name", ["h_z2", "h_z3"])
def test_bicovariance_agrees_with_brute_force(name, request):
    h = request.getfixturevalue(name)
    u = universal_calculus(h.alg)
    for nbasis in enumerate_action_closed_subspaces(u.omega):
        calc, proj = quotient_calculus(u, nbasis)
        got = bicovariance_check(h, calc)
        expected = brute_force_subcomodule(h, kernel_basis(proj.matrix))
        assert got["bicovariant"] == expected
        if got["bicovariant"]:
            assert got["hopf_calculus_ok"]


def test_z2_diagonal_quotients_not_bicovariant(h_z2, qz2):
    # span{v1 + v2} and span{v1 - v2} are action-closed but not subcomodules
    u = universal_calculus(qz2)
    found = []
    for nbasis in enumerate_action_closed_subspaces(u.omega):
        if nbasis.cols == 1:
            calc, _ = quotient_calculus(u, nbasis)
            found.append(bicovariance_check(h_z2, calc)["bicovariant"])
    assert found and not any(found)


def test_quotient_coactions_make_projection_equivariant(h_z3, qz3):
    u = universal_calculus(qz3)
    hc = universal_coactions(h_z3, u)
    n = qz3.dim
    i_n = Mat.identity(QQ, n)
    for nbasis in enumerate_action_closed_subspaces(u.omega):
        calc, proj = quotient_calculus(u, nbasis)
        res = bicovariance_check(h_z3, calc)
        if not res["bicovariant"]:
            continue
        p = proj.matrix
        assert res["lam"] * p == kronecker(i_n, p) * hc.lam
        assert res["rho"] * p == kronecker(p, i_n) * hc.rho
