"""Bimonoids (bialgebras), Hopf-module structure on the universal calculus,
and bicovariance of quotient calculi.

Coactions are plain matrices into tensor product spaces: lambda: M -> A(x)M
and rho: M -> M(x)A.  The canonical coactions on A(x)A apply the
comultiplication to both legs and multiply the outer (resp. inner) halves;
the universal calculus inherits them by restricting through its inclusion,
and that restriction is a Hopf calculus by construction (the certificate sits
in `universal_coactions`).  `check_hopf_module` and `d_comodule_report` stay
public: `bicovariance_check` runs them on the quotient coactions it builds,
and the tests run them on the universal ones.
Antipodes are never needed and are not modeled.
"""

from __future__ import annotations

from .algebra import Algebra, AxiomError
from .bimodule import Bimodule
from .fodc import (
    FirstOrderCalculus,
    UniversalCalculus,
    induced_map,
    universal_calculus,
)
from .linalg import (
    EngineError,
    LinAlgError,
    Mat,
    factor_through_surjection,
    kernel_basis,
    kronecker,
    solve,
    subspace_leq,
    swap_matrix,
)


def bimonoid_axiom_report(a: Algebra, comult: Mat, counit: Mat) -> list[str]:
    """Coassociativity, counit laws, and the algebra-map conditions."""
    n = a.dim
    f = a.field
    if (comult.rows, comult.cols) != (n * n, n):
        raise LinAlgError("comultiplication has wrong shape")
    if (counit.rows, counit.cols) != (1, n):
        raise LinAlgError("counit has wrong shape")
    i_n = Mat.identity(f, n)
    report = []
    coassoc_l = kronecker(comult, i_n) * comult
    coassoc_r = kronecker(i_n, comult) * comult
    if coassoc_l != coassoc_r:
        for j in range(n):
            if coassoc_l.column(j) != coassoc_r.column(j):
                report.append(f"coassociativity fails on e{j}")
    if kronecker(counit, i_n) * comult != i_n:
        report.append("left counit law fails")
    if kronecker(i_n, counit) * comult != i_n:
        report.append("right counit law fails")
    mid = kronecker(i_n, kronecker(swap_matrix(f, n, n), i_n))
    mult_aa = kronecker(a.mult_mat, a.mult_mat) * mid
    if comult * a.mult_mat != mult_aa * kronecker(comult, comult):
        report.append("comultiplication is not an algebra map")
    if comult * a.unit_mat != kronecker(a.unit_mat, a.unit_mat):
        report.append("comultiplication does not preserve the unit")
    if counit * a.mult_mat != kronecker(counit, counit):
        report.append("counit is not an algebra map")
    if counit * a.unit_mat != Mat.identity(f, 1):
        report.append("counit does not preserve the unit")
    return report


class Bimonoid:
    """An algebra with compatible comultiplication and counit."""

    def __init__(self, alg: Algebra, comult: Mat, counit: Mat):
        report = bimonoid_axiom_report(alg, comult, counit)
        if report:
            raise AxiomError(report)
        self.alg = alg
        self.comult = comult
        self.counit = counit

    def __repr__(self):
        return f"Bimonoid(dim={self.alg.dim})"


def group_like_bimonoid(group_alg: Algebra) -> Bimonoid:
    """Delta(g) = g (x) g, eps(g) = 1 on a group algebra basis."""
    n = group_alg.dim
    f = group_alg.field
    comult = Mat.from_entries(f, n * n, n, [(g * n + g, g, 1) for g in range(n)])
    counit = Mat(f, [[1] * n])
    return Bimonoid(group_alg, comult, counit)


def regular_coactions(h: Bimonoid) -> tuple[Mat, Mat]:
    """The canonical coactions of A(x)A: left and right codiagonals."""
    a = h.alg
    n = a.dim
    f = a.field
    i_n = Mat.identity(f, n)
    i_nn = Mat.identity(f, n * n)
    mid = kronecker(i_n, kronecker(swap_matrix(f, n, n), i_n))
    lam = kronecker(a.mult_mat, i_nn) * mid * kronecker(h.comult, h.comult)
    rho = kronecker(i_nn, a.mult_mat) * mid * kronecker(h.comult, h.comult)
    return lam, rho


def check_hopf_module(h: Bimonoid, m: Bimodule, lam: Mat, rho: Mat) -> list[str]:
    """Every violated Hopf-module axiom, by name.

    The two compatibility clauses pair each coaction with the opposite-side
    action through the comultiplication; the same-side pairings hold for all
    the canonical structures and are reported as well.
    """
    a = h.alg
    n = a.dim
    f = a.field
    dim = m.dim
    if m.left_alg != a or m.right_alg != a:
        raise LinAlgError("Hopf module must be an A-A bimodule over the bimonoid")
    if (lam.rows, lam.cols) != (n * dim, dim):
        raise LinAlgError("left coaction has wrong shape")
    if (rho.rows, rho.cols) != (dim * n, dim):
        raise LinAlgError("right coaction has wrong shape")
    i_n = Mat.identity(f, n)
    i_m = Mat.identity(f, dim)
    report = []
    if kronecker(h.comult, i_m) * lam != kronecker(i_n, lam) * lam:
        report.append("left coaction coassociativity fails")
    if kronecker(h.counit, i_m) * lam != i_m:
        report.append("left coaction counit law fails")
    if kronecker(i_m, h.comult) * rho != kronecker(rho, i_n) * rho:
        report.append("right coaction coassociativity fails")
    if kronecker(i_m, h.counit) * rho != i_m:
        report.append("right coaction counit law fails")
    if kronecker(i_n, rho) * lam != kronecker(lam, i_n) * rho:
        report.append("left and right coactions do not commute")
    l_mat, r_mat = m.left_mat, m.right_mat
    delta = h.comult
    # lambda(x . b) = x_(-1) b_(1) (x) x_(0) . b_(2)
    shuffle_ma = kronecker(i_n, kronecker(swap_matrix(f, dim, n), i_n))
    if lam * r_mat != kronecker(a.mult_mat, r_mat) * shuffle_ma * kronecker(lam, delta):
        report.append("left coaction is not a map of right modules")
    # rho(a . x) = a_(1) . x_(0) (x) a_(2) x_(1)
    shuffle_am = kronecker(i_n, kronecker(swap_matrix(f, n, dim), i_n))
    if rho * l_mat != kronecker(l_mat, a.mult_mat) * shuffle_am * kronecker(delta, rho):
        report.append("right coaction is not a map of left modules")
    # same-side diagonals, as engine self-checks
    shuffle_aa_m = kronecker(i_n, kronecker(swap_matrix(f, n, n), i_m))
    if lam * l_mat != kronecker(a.mult_mat, l_mat) * shuffle_aa_m * kronecker(delta, lam):
        report.append("left coaction is not a map of left modules")
    shuffle_m_aa = kronecker(i_m, kronecker(swap_matrix(f, n, n), i_n))
    if rho * r_mat != kronecker(r_mat, a.mult_mat) * shuffle_m_aa * kronecker(rho, delta):
        report.append("right coaction is not a map of right modules")
    return report


class HopfCalculus:
    """A calculus together with compatible coactions (a Hopf calculus)."""

    def __init__(self, calculus: FirstOrderCalculus, lam: Mat, rho: Mat):
        self.calculus = calculus
        self.lam = lam
        self.rho = rho

    @property
    def dim(self):
        return self.calculus.dim


def d_comodule_report(h: Bimonoid, calc: FirstOrderCalculus, lam: Mat, rho: Mat) -> list[str]:
    """d intertwines the coactions with the comultiplication (two identities)."""
    n = h.alg.dim
    i_n = Mat.identity(h.alg.field, n)
    report = []
    if lam * calc.d != kronecker(i_n, calc.d) * h.comult:
        report.append("d is not a left comodule map")
    if rho * calc.d != kronecker(calc.d, i_n) * h.comult:
        report.append("d is not a right comodule map")
    return report


def universal_coactions(h: Bimonoid, u: UniversalCalculus | None = None) -> HopfCalculus:
    """The Hopf structure on the universal calculus of a bimonoid.

    The coactions are the restrictions of the canonical A(x)A coactions
    through iota.  The bimonoid axioms of h were checked when h was built.
    """
    a = h.alg
    u = u or universal_calculus(a)
    i_n = Mat.identity(a.field, a.dim)
    lam_reg, rho_reg = regular_coactions(h)
    lam = solve(kronecker(i_n, u.iota), lam_reg * u.iota)
    rho = solve(kronecker(u.iota, i_n), rho_reg * u.iota)
    if lam is None or rho is None:
        raise EngineError("canonical coactions do not restrict to the kernel")
    # Certificate for the Hopf-module and d-comodule axioms, in place of
    # check_hopf_module and d_comodule_report:
    # 1. A(x)A with the codiagonal coactions lam_reg and rho_reg is a Hopf
    #    bimodule, because Bimonoid checked that Delta is coassociative, that
    #    eps is its counit and that both are unital algebra maps.
    # 2. iota is injective (retraction iota = id) and a bimodule map by
    #    Leibniz: it sends a0 (x) b to the form a0 db, and the actions of
    #    Omega_u are the Leibniz identities of these forms (certified in
    #    universal_calculus; tests/test_fodc.py runs bimod_map_report on it).
    #    The solves above make it a map of comodules:
    #    (1 (x) iota) lam = lam_reg iota, (iota (x) 1) rho = rho_reg iota.
    # 3. So every Hopf-module axiom pulls back to Omega_u: each side of an
    #    identity composed with 1 (x) iota (x) 1 is the same side on A(x)A.
    #    d-colinearity pulls back the same way from iota d = 1 (x) a - a (x) 1,
    #    since lam_reg (1 (x) a - a (x) 1) = (1 (x) iota d) Delta(a) by Delta(1) = 1 (x) 1,
    #    and likewise for rho.
    return HopfCalculus(u, lam, rho)


def bicovariance_check(h: Bimonoid, c: FirstOrderCalculus) -> dict:
    """Is ker(Omega_u -> c) a subcomodule for both canonical coactions?

    When it is, the quotient coactions are returned and the full Hopf
    calculus axioms are verified on the quotient.
    """
    u = universal_calculus(h.alg)
    hopf_u = universal_coactions(h, u)
    n = h.alg.dim
    f = h.alg.field
    i_n = Mat.identity(f, n)
    proj = induced_map(u, c).matrix
    nker = kernel_basis(proj)
    witnesses = []
    if nker.cols:
        if not subspace_leq(hopf_u.lam * nker, kronecker(i_n, nker)):
            witnesses.append("left coaction moves the defining subobject out of A (x) N")
        if not subspace_leq(hopf_u.rho * nker, kronecker(nker, i_n)):
            witnesses.append("right coaction moves the defining subobject out of N (x) A")
    if witnesses:
        return {"bicovariant": False, "witnesses": witnesses}
    lam_c = factor_through_surjection(kronecker(i_n, proj) * hopf_u.lam, proj)
    rho_c = factor_through_surjection(kronecker(proj, i_n) * hopf_u.rho, proj)
    if lam_c is None or rho_c is None:
        raise EngineError("coactions fail to descend despite the subcomodule check")
    axioms = check_hopf_module(h, c.omega, lam_c, rho_c)
    d_rep = d_comodule_report(h, c, lam_c, rho_c)
    return {
        "bicovariant": True,
        "witnesses": [],
        "lam": lam_c,
        "rho": rho_c,
        "quotient_axioms": axioms,
        "d_comodule": d_rep,
        "hopf_calculus_ok": not axioms and not d_rep,
    }
