"""Differential calculi in all degrees: the universal prolongation inside the
Amitsur complex, maximal prolongations of first-order calculi, and unique
morphisms of graded calculi.

The universal prolongation has degree-n component the joint kernel of the
maps 1^(x)i (x) m (x) 1^(x)(n-1-i), i < n, inside A^(x)(n+1); it is spanned
by the forms a0 da1 ... dan.  Its canonical basis iota^n has the left
inverse p^n that reads the pivot rows, and d and wedge are the Amitsur
differential and 1 (x) m (x) 1 read back through p^n.  A maximal
prolongation is computed degreewise as a quotient of the universal one by
the relations generated in lower degrees (wedge products with the defining
kernel plus its differential), which is the vector-space form of the
recursive colimit.
"""

from __future__ import annotations

from .algebra import Algebra, AlgMap, alg_map_report
from .bimodule import Bimodule, bimodule_axiom_report, regular_bimodule
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    UniversalCalculus,
    induced_map,
    universal_calculus,
)
from .linalg import (
    LinAlgError,
    Mat,
    factor_through_surjection,
    image_basis,
    kernel_basis,
    kron_all,
    kronecker,
    pivot_retraction,
    quotient_maps,
    rank,
    solve,
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
            ps.append(self.wedge[(0, 1)] * kronecker(Mat.identity(f, n0), self.diff[0]))
        for n in range(2, self.max_degree + 1):
            ps.append(self.wedge[(n - 1, 1)] * kronecker(ps[n - 1], self.diff[0]))
        return ps

    def validation_report(self) -> list[str]:
        report = []
        f = self.alg.field
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
                    lhs = self.wedge[(i + j, k)] * kronecker(
                        self.wedge[(i, j)], Mat.identity(f, self.dims[k])
                    )
                    rhs = self.wedge[(i, j + k)] * kronecker(
                        Mat.identity(f, self.dims[i]), self.wedge[(j, k)]
                    )
                    if lhs != rhs:
                        report.append(f"wedge associativity fails at ({i},{j},{k})")
        # graded Leibniz with sign (-1)^i at all pairs with i + j < N
        for i in range(big_n):
            for j in range(big_n - i):
                lhs = self.diff[i + j] * self.wedge[(i, j)]
                term1 = self.wedge[(i + 1, j)] * kronecker(self.diff[i], Mat.identity(f, self.dims[j]))
                term2 = self.wedge[(i, j + 1)] * kronecker(Mat.identity(f, self.dims[i]), self.diff[j])
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


def universal_prolongation(a: Algebra, max_degree: int,
                           u: UniversalCalculus | None = None) -> UniversalProlongation:
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1")
    u = u or universal_calculus(a)
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


def maximal_prolongation(c: FirstOrderCalculus, max_degree: int,
                         prolongation: UniversalProlongation | None = None) -> GradedCalculus:
    """The largest graded calculus extending c, realized degreewise.

    With f^n the running quotients from the universal prolongation, degree n
    divides out S_n = wedge(ker f^i (x) Omega^j + Omega^i (x) ker f^j) summed
    over i + j = n plus d(ker f^{n-1}); degree 1 is kept equal to c itself.
    """
    a = c.alg
    f = a.field
    up = prolongation or universal_prolongation(a, max_degree)
    n0 = a.dim
    f1 = induced_map(up.universal, c).matrix

    f_maps = [Mat.identity(f, n0), f1]
    sections = [Mat.identity(f, n0), solve(f1, Mat.identity(f, c.dim))]
    dims = [n0, c.dim]
    kers = [Mat.zeros(f, n0, 0), kernel_basis(f1)]
    for n in range(2, max_degree + 1):
        pieces = []
        for i in range(1, n):
            j = n - i
            if kers[i].cols:
                pieces.append(up.wedge[(i, j)] * kronecker(kers[i], Mat.identity(f, up.dims[j])))
            if kers[j].cols:
                pieces.append(up.wedge[(i, j)] * kronecker(Mat.identity(f, up.dims[i]), kers[j]))
        if kers[n - 1].cols:
            pieces.append(up.diff[n - 1] * kers[n - 1])
        stacked = Mat.hstack_all(f, pieces, up.dims[n]) if pieces else Mat.zeros(f, up.dims[n], 0)
        s_n = image_basis(stacked)
        q_n, sec_n = quotient_maps(s_n, up.dims[n])
        f_maps.append(q_n)
        sections.append(sec_n)
        dims.append(q_n.rows)
        kers.append(kernel_basis(q_n))

    wedge = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            w = f_maps[i + j] * up.wedge[(i, j)] * kronecker(sections[i], sections[j])
            if w * kronecker(f_maps[i], f_maps[j]) != f_maps[i + j] * up.wedge[(i, j)]:
                raise AssertionError(f"wedge does not descend at ({i},{j})")
            wedge[(i, j)] = w
    diff = []
    for n in range(max_degree):
        d_n = f_maps[n + 1] * up.diff[n] * sections[n]
        if d_n * f_maps[n] != f_maps[n + 1] * up.diff[n]:
            raise AssertionError(f"differential does not descend at degree {n}")
        diff.append(d_n)

    result = GradedCalculus(a, max_degree, dims, diff, wedge, check=True)
    result.from_universal = f_maps
    return result


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
            if maps[i + j] * src.wedge[(i, j)] != tgt.wedge[(i, j)] * kronecker(maps[i], maps[j]):
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
    up = universal_prolongation(a, max_degree, u)
    ident = a.identity_map()
    from .fodc import calculus_morphism_exists

    rows = []
    agree = True
    for ci, c in enumerate(fodcs):
        maxi = maximal_prolongation(c, max_degree, up)
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
