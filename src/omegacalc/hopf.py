"""Bimonoids (bialgebras), Hopf-module structure on the universal calculus,
and bicovariance of quotient calculi.

Coactions are plain matrices into tensor product spaces: lambda: M -> A(x)M
and rho: M -> M(x)A.  The canonical (codiagonal) coactions on A(x)A are
lam_reg(a (x) b) = a1 b1 (x) a2 (x) b2 and rho_reg(a (x) b) = a1 (x) b1 (x) a2 b2.
They are never built as matrices on A^(x)4: `_codiagonal_coactions` applies
them, factor by factor, to the columns of iota.  The universal calculus
inherits them by restricting through its inclusion iota and reading back
through the retraction, once per bimonoid (`universal_coactions` is
memoized), and a quotient c = Omega_u / N inherits them through
phi: Omega_u ->> c when N is a subcomodule on both sides: a check applies
1 (x) phi and phi (x) 1 to lam_u and rho_u on the columns of N and of a
section.  Both are Hopf calculi by construction (Woronowicz 1989), and the
certificates sit in `universal_coactions` and `bicovariance_check`; the
tests hold both constructions to the Hopf-module and d-comodule axioms
(`tests/oracles.py`), and the check to the codiagonal chain it replaced.
Antipodes are never needed and are not modeled.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import Algebra, AxiomError
from .fodc import FirstOrderCalculus, _kernel, _phi, _section, universal_calculus
from .linalg import LinAlgError, Mat, _memo, kronecker, mul_id_kron, mul_kron_id, swap_matrix


def _fused_products(a: Algebra, comult: Mat) -> tuple[Mat, Mat]:
    """The transposes of s(a (x) c) = a1 c (x) a2 and t(c (x) b) = b1 (x) c b2
    on A (x) A, one row per basis vector, so n^2 rows and no map on A^(x)4."""
    n = a.dim
    i_nn = Mat.identity(a.field, n * n)
    dt, mt = comult.transpose(), a.mult_mat.transpose()
    sw = swap_matrix(a.field, n, n)
    # s: a (x) c -> a1 (x) a2 (x) c -> a1 (x) c (x) a2 -> a1 c (x) a2
    s_t = mul_kron_id(mul_id_kron(mul_kron_id(i_nn, dt, n), n, sw), mt, n)
    # t: c (x) b -> c (x) b1 (x) b2 -> b1 (x) c (x) b2 -> b1 (x) c b2
    t_t = mul_id_kron(mul_kron_id(mul_id_kron(i_nn, n, dt), sw, n), n, mt)
    return s_t, t_t


def bimonoid_axiom_report(a: Algebra, comult: Mat, counit: Mat) -> list[str]:
    """Coassociativity, counit laws, and the algebra-map conditions.

    Each identity of maps out of A or A (x) A is compared on transposed
    rows: (X (x) 1) M is the transpose of M^T (X^T (x) 1), a right product,
    so no map on A^(x)3 or A^(x)4 is built.
    """
    return _bimonoid_report(a, comult, counit)[0]


def _bimonoid_report(a: Algebra, comult: Mat, counit: Mat) -> tuple[list[str], tuple[Mat, Mat]]:
    """bimonoid_axiom_report, with the fused products s_t and t_t that its
    algebra-map identity reads, so that a Bimonoid builds them once."""
    n = a.dim
    f = a.field
    if (comult.rows, comult.cols) != (n * n, n):
        raise LinAlgError("comultiplication has wrong shape")
    if (counit.rows, counit.cols) != (1, n):
        raise LinAlgError("counit has wrong shape")
    i_n = Mat.identity(f, n)
    dt, ct = comult.transpose(), counit.transpose()
    report = []
    # row j of each is column j of (Delta (x) 1) Delta and (1 (x) Delta) Delta
    coassoc_l = mul_kron_id(dt, dt, n)
    coassoc_r = mul_id_kron(dt, n, dt)
    for j in range(n):
        if coassoc_l.data[j] != coassoc_r.data[j]:
            report.append(f"coassociativity fails on e{j}")
    if mul_kron_id(dt, ct, n) != i_n:
        report.append("left counit law fails")
    if mul_id_kron(dt, n, ct) != i_n:
        report.append("right counit law fails")
    # (m (x) m)(1 (x) swap (x) 1)(Delta (x) Delta) is a (x) b -> a1 b1 (x) a2 b2,
    # which is (1 (x) m)(s (x) 1)(1 (x) Delta) for any linear Delta
    fused = _fused_products(a, comult)
    one_delta_t = mul_id_kron(Mat.identity(f, n * n), n, dt)
    mult_aa_t = mul_id_kron(mul_kron_id(one_delta_t, fused[0], n), n, a.mult_mat.transpose())
    if (comult * a.mult_mat).transpose() != mult_aa_t:
        report.append("comultiplication is not an algebra map")
    if comult * a.unit_mat != kronecker(a.unit_mat, a.unit_mat):
        report.append("comultiplication does not preserve the unit")
    if counit * a.mult_mat != kronecker(counit, counit):
        report.append("counit is not an algebra map")
    if counit * a.unit_mat != Mat.identity(f, 1):
        report.append("counit does not preserve the unit")
    return report, fused


class Bimonoid:
    """An algebra with compatible comultiplication and counit.

    s_t and t_t are the transposes of the two maps on A (x) A through which
    `_codiagonal_coactions` applies the codiagonal coactions:
    s(a (x) c) = a1 c (x) a2 and t(c (x) b) = b1 (x) c b2.  Each has one row
    per basis vector, so building them costs n^2 rows, not a map on A^(x)4.
    """

    def __init__(self, alg: Algebra, comult: Mat, counit: Mat):
        report, (self.s_t, self.t_t) = _bimonoid_report(alg, comult, counit)
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


def _codiagonal_coactions(h: Bimonoid, x: Mat, g: Mat) -> tuple[Mat, Mat]:
    """(1 (x) g) lam_reg x and (g (x) 1) rho_reg x, where x has its columns in
    A (x) A, g is a map out of A (x) A, and lam_reg(a (x) b) = a1 b1 (x) a2 (x) b2
    and rho_reg(a (x) b) = a1 (x) b1 (x) a2 b2 are the codiagonal coactions.

    Each factor is a right product on the transposed rows of x, so only the
    columns of x are coacted on and no map on A^(x)4 is built.  One leg is
    comultiplied and the other comultiplication is fused with the product,
    lam_reg = (s (x) 1)(1 (x) Delta) and rho_reg = (1 (x) t)(Delta (x) 1) with
    the maps s and t that h keeps, so a row grows by one comultiplication,
    not by two.
    """
    n = h.alg.dim
    dt, gt, xt = h.comult.transpose(), g.transpose(), x.transpose()
    lam = mul_id_kron(mul_kron_id(mul_id_kron(xt, n, dt), h.s_t, n), n, gt)
    rho = mul_kron_id(mul_id_kron(mul_kron_id(xt, dt, n), n, h.t_t), gt, n)
    return lam.transpose(), rho.transpose()


class HopfCalculus:
    """A calculus together with compatible coactions (a Hopf calculus)."""

    def __init__(self, calculus: FirstOrderCalculus, lam: Mat, rho: Mat):
        self.calculus = calculus
        self.lam = lam
        self.rho = rho

    @property
    def dim(self):
        return self.calculus.dim

    @cached_property
    def _transposes(self) -> tuple[Mat, Mat]:
        """lam^T and rho^T, built on first read and kept: bicovariance_check
        applies its right products to their rows."""
        return self.lam.transpose(), self.rho.transpose()


@_memo
def universal_coactions(h: Bimonoid) -> HopfCalculus:
    """The Hopf structure on the universal calculus of a bimonoid, built once
    per bimonoid instance (`linalg._memo`).

    The coactions are the restrictions of the canonical A(x)A coactions
    through iota, read back by the retraction.  The bimonoid axioms of h were
    checked when h was built.
    """
    u = universal_calculus(h.alg)
    # lam = (1 (x) retraction) lam_reg iota and rho = (retraction (x) 1) rho_reg iota
    lam, rho = _codiagonal_coactions(h, u.iota, u.retraction)
    # Certificate for the coactions and the Hopf-module and d-comodule
    # axioms, in place of solving through 1 (x) iota and iota (x) 1 and of
    # the Hopf-module and d-comodule checks:
    # 1. A(x)A with the codiagonal coactions lam_reg and rho_reg is a Hopf
    #    bimodule, because Bimonoid checked that Delta is coassociative, that
    #    eps is its counit and that both are unital algebra maps.
    # 2. The coactions keep ker m = image of iota: m is a map of left
    #    comodules, (1 (x) m) lam_reg = Delta m, so lam_reg maps ker m into
    #    A (x) ker m, and likewise (m (x) 1) rho_reg = Delta m for rho_reg.
    #    On A (x) ker m, 1 (x) retraction inverts 1 (x) iota (retraction
    #    iota = id, certified in universal_calculus), so
    #    (1 (x) iota) lam = lam_reg iota and (iota (x) 1) rho = rho_reg iota:
    #    iota is a map of comodules.  It is injective and a bimodule map by
    #    Leibniz: it sends a0 (x) b to the form a0 db, and the actions of
    #    Omega_u are the Leibniz identities of these forms (tests/test_fodc.py
    #    runs bimod_map_report on it).
    # 3. So every Hopf-module axiom pulls back to Omega_u: each side of an
    #    identity composed with 1 (x) iota (x) 1 is the same side on A(x)A.
    #    d-colinearity pulls back the same way from iota d = 1 (x) a - a (x) 1,
    #    since lam_reg (1 (x) a - a (x) 1) = (1 (x) iota d) Delta(a) by Delta(1) = 1 (x) 1,
    #    and likewise for rho.
    # tests/test_hopf.py runs both checks (tests/oracles.py) and the
    # intertwining identities of (2), and checks lam and rho against the
    # other left inverse of iota.
    return HopfCalculus(u, lam, rho)


def _coacted(hc: HopfCalculus, x: Mat, phi: Mat) -> tuple[Mat, Mat]:
    """The transposes of (1 (x) phi) lam_u x and (phi (x) 1) rho_u x, with x
    a map into Omega_u.

    Each is a right product on the rows of x^T, one per column of x:
    x^T lam_u^T (1 (x) phi^T) and x^T rho_u^T (phi^T (x) 1), so neither
    1 (x) phi nor phi (x) 1 is built and a row grows only to the width of
    A (x) c.
    """
    n, pt, xt = hc.calculus.alg.dim, phi.transpose(), x.transpose()
    lam_t, rho_t = hc._transposes
    return mul_id_kron(xt * lam_t, n, pt), mul_kron_id(xt * rho_t, pt, n)


def bicovariance_check(h: Bimonoid, c: FirstOrderCalculus) -> dict:
    """Is N = ker(Omega_u -> c) a subcomodule for both canonical coactions?

    When it is, the coactions descend to c, which is then a Hopf calculus.
    """
    if c.alg != h.alg:
        raise LinAlgError("calculi over different algebras")
    # The coactions of Omega_u are built once per bimonoid (universal_coactions
    # is memoized), so every calculus of a sweep over one bimonoid reads the
    # same lam_u and rho_u.  A (x) N is the kernel of 1 (x) phi, and N (x) A
    # that of phi (x) 1, so N is a subcomodule on both sides iff
    # (1 (x) phi) lam_u N = 0 and (phi (x) 1) rho_u N = 0.  Since
    # lam_u = (1 (x) retraction) lam_reg iota, (1 (x) phi) lam_u is the
    # (1 (x) phi retraction) lam_reg iota this check applied before, and
    # likewise for rho_u, so the verdicts and the descended coactions are the
    # same matrices (tests/test_hopf.py holds them to that chain).
    hc = universal_coactions(h)
    phi = _phi(c)
    # a matrix is zero iff its transpose is
    lam_n, rho_n = _coacted(hc, _kernel(c), phi)
    witnesses = []
    if not lam_n.is_zero():
        witnesses.append("left coaction moves the defining subobject out of A (x) N")
    if not rho_n.is_zero():
        witnesses.append("right coaction moves the defining subobject out of N (x) A")
    if witnesses:
        return {"bicovariant": False, "witnesses": witnesses}
    lam, rho = (m.transpose() for m in _coacted(hc, _section(c), phi))
    # Certificate for the quotient coactions and the Hopf calculus axioms, in
    # place of factoring through phi and of the Hopf-module and d-comodule
    # checks on the quotient (Woronowicz 1989):
    # 1. phi is onto, a bimodule map and phi d_u = d (certified at
    #    fodc._phi), and phi section = id (fodc._section).  Omega_u with
    #    lam_u and rho_u is a Hopf calculus (certified at universal_coactions).
    # 2. lam_c = (1 (x) phi) lam_u section and rho_c = (phi (x) 1) rho_u
    #    section.  section phi - id maps into N, which (1 (x) phi) lam_u and
    #    (phi (x) 1) rho_u kill (the check above), so
    #    lam_c phi = (1 (x) phi) lam_u and rho_c phi = (phi (x) 1) rho_u:
    #    phi is a map of comodules.
    # 3. So every Hopf-module axiom of c composed with phi, or with
    #    1 (x) phi (x) 1 on the tensor factors, is the same axiom on Omega_u
    #    followed by phi; phi is onto, so each holds on c.  d-colinearity
    #    pulls back the same way: lam_c d = lam_c phi d_u = (1 (x) phi d_u) Delta
    #    = (1 (x) d) Delta, and likewise for rho_c.
    # tests/test_hopf.py runs both checks on the quotient coactions of every
    # bicovariant quotient in the enumerated lattices.
    return {
        "bicovariant": True,
        "witnesses": [],
        "lam": lam,
        "rho": rho,
        "hopf_calculus_ok": True,
    }
