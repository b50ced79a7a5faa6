"""Differential calculi in all degrees: the universal prolongation inside the
Amitsur complex, maximal prolongations of first-order calculi, and unique
morphisms of graded calculi.

The universal prolongation has degree-n component the joint kernel of the
maps 1^(x)i (x) m (x) 1^(x)(n-1-i), i < n, inside A^(x)(n+1); it is spanned
by the forms a0 da1 ... dan.  Its canonical basis iota^n has the left
inverse p^n that reads the pivot rows, and d and wedge are the Amitsur
differential and 1 (x) m (x) 1 read back through p^n.  The maximal
prolongation of a first-order calculus (Omega^1, d) is read off its
presentation: the tensor algebra T_A(Omega^1) divided by the ideal generated
by the sums da_i (x) db_i with sum a_i db_i = 0 (Woronowicz 1989), built one
degree at a time as Omega^k = Omega^(k-1) (x)_A Omega^1 / Omega^(k-2) ^ R.
"""

from __future__ import annotations

from .algebra import Algebra, AlgMap, alg_map_report
from .bimodule import (
    Bimodule,
    bimodule_axiom_report,
    quotient_bimodule,
    regular_bimodule,
    tensor_over_algebra,
)
from .fodc import FirstOrderCalculus, PreconditionError, universal_calculus
from .linalg import (
    LinAlgError,
    Mat,
    factor_through_surjection,
    image_basis,
    kernel_basis,
    kron_all,
    kronecker,
    mul_id_kron,
    mul_kron_id,
    pivot_retraction,
    rank,
)


# ---------------------------------------------------------------------------
# the Amitsur complex
# ---------------------------------------------------------------------------

def amitsur_differential(a: Algebra, n: int) -> Mat:
    """d_A^n = sum_i (-1)^i (1 (x) unit insertion at slot i (x) 1) on A^(x)(n+1)."""
    f = a.field
    total = Mat.zeros(f, a.dim ** (n + 2), a.dim ** (n + 1))
    for i in range(n + 2):
        left = Mat.identity(f, a.dim ** i)
        right = Mat.identity(f, a.dim ** (n + 1 - i))
        term = kron_all([left, a.unit_mat, right])
        total = total + (term if i % 2 == 0 else -term)
    return total


def amitsur_wedge(a: Algebra, n: int, m: int) -> Mat:
    """1 (x) mult (x) 1: A^(x)(n+1) (x) A^(x)(m+1) -> A^(x)(n+m+1)."""
    f = a.field
    return kron_all([
        Mat.identity(f, a.dim ** n),
        a.mult_mat,
        Mat.identity(f, a.dim ** m),
    ])


class AmitsurComplex:
    """The cochain complex A^(x)(n+1) with alternating unit insertions."""

    def __init__(self, alg: Algebra, max_degree: int):
        self.alg = alg
        self.max_degree = max_degree
        self.dims = [alg.dim ** (n + 1) for n in range(max_degree + 1)]
        self.diff = [amitsur_differential(alg, n) for n in range(max_degree)]
        for n in range(max_degree - 1):
            if not (self.diff[n + 1] * self.diff[n]).is_zero():
                raise AssertionError(f"Amitsur differential fails d.d=0 at degree {n}")


# ---------------------------------------------------------------------------
# graded calculi
# ---------------------------------------------------------------------------

class GradedCalculus:
    """A degreewise-finite dg-algebra generated in degree 0 by d and wedge.

    Holds the component dimensions, differentials diff[n]: n -> n+1 for
    n < max_degree, and wedge maps wedge[(i, j)] for i + j <= max_degree,
    where (0,0) is the multiplication and (0,n)/(n,0) are the actions.
    """

    def __init__(self, alg: Algebra, max_degree: int, dims: list[int],
                 diff: list[Mat], wedge: dict, check=True):
        self.alg = alg
        self.max_degree = max_degree
        self.dims = list(dims)
        self.diff = list(diff)
        self.wedge = dict(wedge)
        if check:
            report = self.validation_report()
            if report:
                raise AssertionError("graded calculus axioms fail: " + "; ".join(report))

    def component_bimodule(self, n: int) -> Bimodule:
        if n == 0:
            return regular_bimodule(self.alg)
        return Bimodule(
            self.alg, self.alg, self.dims[n],
            self.wedge[(0, n)], self.wedge[(n, 0)], check=False,
        )

    def surjectivity_maps(self) -> list[Mat]:
        """p_n: A^(x)(n+1) ->> Omega^n built from d and wedge only."""
        f = self.alg.field
        n0 = self.alg.dim
        ps = [Mat.identity(f, n0)]
        if self.max_degree >= 1:
            ps.append(mul_id_kron(self.wedge[(0, 1)], n0, self.diff[0]))
        for n in range(2, self.max_degree + 1):
            # wedge (p (x) d) = wedge (p (x) 1)(1 (x) d)
            w_p = mul_kron_id(self.wedge[(n - 1, 1)], ps[n - 1], self.dims[1])
            ps.append(mul_id_kron(w_p, ps[n - 1].cols, self.diff[0]))
        return ps

    def validation_report(self) -> list[str]:
        report = []
        n0 = self.alg.dim
        big_n = self.max_degree
        if self.dims[0] != n0:
            report.append("degree 0 is not the algebra")
        if self.wedge.get((0, 0)) != self.alg.mult_mat:
            report.append("wedge(0,0) is not the multiplication")
        # bimodule structure on each component
        for n in range(1, big_n + 1):
            errs = bimodule_axiom_report(
                self.alg, self.alg, self.dims[n], self.wedge[(0, n)], self.wedge[(n, 0)]
            )
            report.extend(f"degree {n}: {e}" for e in errs)
        # d . d = 0
        for n in range(big_n - 1):
            if not (self.diff[n + 1] * self.diff[n]).is_zero():
                report.append(f"d.d != 0 at degree {n}")
        # associativity of wedge on all defined triples
        for i in range(big_n + 1):
            for j in range(big_n + 1 - i):
                for k in range(big_n + 1 - i - j):
                    lhs = mul_kron_id(self.wedge[(i + j, k)], self.wedge[(i, j)], self.dims[k])
                    rhs = mul_id_kron(self.wedge[(i, j + k)], self.dims[i], self.wedge[(j, k)])
                    if lhs != rhs:
                        report.append(f"wedge associativity fails at ({i},{j},{k})")
        # graded Leibniz with sign (-1)^i at all pairs with i + j < N
        for i in range(big_n):
            for j in range(big_n - i):
                lhs = self.diff[i + j] * self.wedge[(i, j)]
                term1 = mul_kron_id(self.wedge[(i + 1, j)], self.diff[i], self.dims[j])
                term2 = mul_id_kron(self.wedge[(i, j + 1)], self.dims[i], self.diff[j])
                rhs = term1 + term2 if i % 2 == 0 else term1 - term2
                if lhs != rhs:
                    report.append(f"graded Leibniz fails at ({i},{j})")
        # surjectivity: A generates via d and wedge
        for n, p in enumerate(self.surjectivity_maps()):
            if rank(p) != self.dims[n]:
                report.append(f"surjectivity fails at degree {n}")
        return report


class UniversalProlongation(GradedCalculus):
    """The universal graded calculus as a subcomplex of the Amitsur complex.

    iota[n] is the canonical basis of Omega^n inside A^(x)(n+1) and proj[n]
    its left inverse that reads the pivot rows.
    """

    def __init__(self, alg, max_degree, dims, diff, wedge, u, iota, proj):
        super().__init__(alg, max_degree, dims, diff, wedge, check=True)
        self.universal = u
        self.iota = iota        # iota[n]: Omega^n >-> A^(x)(n+1)
        self.proj = proj        # proj[n]: A^(x)(n+1) ->> Omega^n, proj iota = id


def universal_prolongation(a: Algebra, max_degree: int) -> UniversalProlongation:
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1")
    u = universal_calculus(a)
    iota = [Mat.identity(a.field, a.dim)]
    for k in range(1, max_degree + 1):
        stacked = amitsur_wedge(a, 0, k - 1)
        for i in range(1, k):
            stacked = stacked.vstack(amitsur_wedge(a, i, k - 1 - i))
        iota.append(kernel_basis(stacked))
    proj = [pivot_retraction(b) for b in iota]
    dims = [b.cols for b in iota]

    wedge = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            w_a = amitsur_wedge(a, i, j)
            rhs = w_a * kronecker(iota[i], iota[j])
            w = proj[i + j] * rhs
            if iota[i + j] * w != rhs:
                raise AssertionError(f"wedge fails Amitsur compatibility at ({i},{j})")
            wedge[(i, j)] = w

    diff = []
    for k in range(max_degree):
        rhs = amitsur_differential(a, k) * iota[k]
        d_k = proj[k + 1] * rhs
        if iota[k + 1] * d_k != rhs:
            raise AssertionError(f"differential fails Amitsur compatibility at degree {k}")
        diff.append(d_k)

    return UniversalProlongation(a, max_degree, dims, diff, wedge, u, iota, proj)


def trivial_extension(c: FirstOrderCalculus, max_degree: int) -> GradedCalculus:
    """The graded calculus that is c in degree 1 and zero above."""
    a = c.alg
    f = a.field
    n0 = a.dim
    dims = [n0, c.dim] + [0] * (max_degree - 1)
    wedge = {(0, 0): a.mult_mat}
    if max_degree >= 1:
        wedge[(0, 1)] = c.omega.left_mat
        wedge[(1, 0)] = c.omega.right_mat
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            if (i, j) not in wedge:
                wedge[(i, j)] = Mat.zeros(f, dims[i + j], dims[i] * dims[j])
    diff = [c.d] + [Mat.zeros(f, dims[k + 1], dims[k]) for k in range(1, max_degree)]
    return GradedCalculus(a, max_degree, dims, diff, wedge, check=True)


def _descend(rhs: Mat, surj: Mat, what: str) -> Mat:
    """The map X with X surj = rhs; rhs must kill the kernel of surj."""
    x = factor_through_surjection(rhs, surj)
    if x is None:
        raise AssertionError(f"{what} does not descend")
    return x


def maximal_prolongation(c: FirstOrderCalculus, max_degree: int) -> GradedCalculus:
    """The largest graded calculus extending c, from its presentation.

    Degree 1 is c itself, and Omega^k = Omega^(k-1) (x)_A Omega^1 /
    Omega^(k-2) ^ R, where R holds the sums da_i (x) db_i with
    sum a_i db_i = 0.  The maps g_k: x (x) b -> x ^ db cover Omega^k, and the
    other wedges and d are read through them from x ^ (y ^ db) = (x ^ y) ^ db
    and d(x ^ db) = dx ^ db.
    """
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1")
    a = c.alg
    f = a.field
    g1 = mul_id_kron(c.omega.left_mat, a.dim, c.d)
    rel = kronecker(c.d, c.d) * kernel_basis(g1)
    dims = [a.dim, c.dim]
    prev = c.omega
    wedge = {(0, 0): a.mult_mat, (0, 1): c.omega.left_mat, (1, 0): c.omega.right_mat}
    g = [None, g1]          # g[k]: Omega^(k-1) (x) A ->> Omega^k, x (x) b -> x ^ db
    diff = [c.d]
    for k in range(2, max_degree + 1):
        t, q = tensor_over_algebra(prev, c.omega)
        gens = mul_id_kron(mul_kron_id(q, wedge[(k - 2, 1)], c.dim), dims[k - 2], rel)
        prev, proj, _s = quotient_bimodule(t, image_basis(gens))
        dims.append(prev.dim)
        wedge[(k - 1, 1)] = proj.matrix * q
        wedge[(0, k)] = prev.left_mat
        wedge[(k, 0)] = prev.right_mat
        g.append(mul_id_kron(wedge[(k - 1, 1)], dims[k - 1], c.d))
        for i in range(1, k - 1):
            wedge[(i, k - i)] = _descend(
                mul_kron_id(g[k], wedge[(i, k - i - 1)], a.dim),
                kronecker(Mat.identity(f, dims[i]), g[k - i]),
                f"wedge at ({i},{k - i})",
            )
        diff.append(_descend(mul_kron_id(g[k], diff[k - 2], a.dim), g[k - 1],
                             f"differential at degree {k - 1}"))
    return GradedCalculus(a, max_degree, dims, diff, wedge, check=True)


def unique_dg_morphism(src: GradedCalculus, tgt: GradedCalculus, f0: AlgMap):
    """The unique graded-calculus morphism extending f0, or None.

    Any morphism must satisfy h^n p_n(src) = p_n(tgt) f0^(x)(n+1); the
    candidate obtained by factoring through the source surjections is checked
    against the differential and wedge conditions, and rejection means no
    morphism exists.
    """
    if src.max_degree != tgt.max_degree:
        raise LinAlgError("graded calculi truncated at different degrees")
    if f0.source != src.alg or f0.target != tgt.alg:
        raise LinAlgError("degree-0 map does not match the calculi")
    if alg_map_report(f0):
        raise PreconditionError("degree-0 component is not an algebra map")
    f = src.alg.field
    p_src = src.surjectivity_maps()
    p_tgt = tgt.surjectivity_maps()
    maps = []
    for n in range(src.max_degree + 1):
        rhs = p_tgt[n] * kron_all([f0.matrix] * (n + 1))
        h_n = factor_through_surjection(rhs, p_src[n])
        if h_n is None:
            return None
        maps.append(h_n)
    if maps[0] != f0.matrix:
        return None
    for n in range(src.max_degree):
        if maps[n + 1] * src.diff[n] != tgt.diff[n] * maps[n]:
            return None
    for i in range(src.max_degree + 1):
        for j in range(src.max_degree + 1 - i):
            w_h = mul_kron_id(tgt.wedge[(i, j)], maps[i], maps[j].rows)
            if maps[i + j] * src.wedge[(i, j)] != mul_id_kron(w_h, maps[i].cols, maps[j]):
                return None
    return maps


def truncation_adjoints_check(a: Algebra, fodcs: list[FirstOrderCalculus],
                              gradeds: list[GradedCalculus], max_degree: int) -> dict:
    """Both truncation adjunctions, compared pair by pair on the probe.

    Left: dg maps from the maximal prolongation of c to Theta match calculus
    maps c -> degree-(0,1) truncation of Theta.  Right: dg maps Theta -> the
    trivial extension of c match calculus maps from the truncation to c.
    """
    u = universal_calculus(a)
    ident = a.identity_map()
    from .fodc import calculus_morphism_exists

    rows = []
    agree = True
    for ci, c in enumerate(fodcs):
        maxi = maximal_prolongation(c, max_degree)
        trivial = trivial_extension(c, max_degree)
        for ti, theta in enumerate(gradeds):
            pi_theta = FirstOrderCalculus(
                a, theta.component_bimodule(1), theta.diff[0], check=True
            )
            left_dg = unique_dg_morphism(maxi, theta, ident) is not None
            left_calc = calculus_morphism_exists(u, c, pi_theta)
            right_dg = unique_dg_morphism(theta, trivial, ident) is not None
            right_calc = calculus_morphism_exists(u, pi_theta, c)
            rows.append({
                "c_index": ci, "theta_index": ti,
                "left_dg": left_dg, "left_calc": left_calc,
                "right_dg": right_dg, "right_calc": right_calc,
                "agree": left_dg == left_calc and right_dg == right_calc,
            })
            agree = agree and rows[-1]["agree"]
    return {"all_agree": agree, "rows": rows}
