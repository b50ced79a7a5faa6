"""Differential calculi in all degrees: the universal prolongation inside the
Amitsur complex, maximal prolongations of first-order calculi, and unique
morphisms of graded calculi.

The universal prolongation sits inside the Amitsur complex.  Its degree-n
component is spanned by the forms a0 da1 ... dan with a1, ..., an in a
complement of the scalars, so Omega^n = Omega^(n-1) . dA and
Omega^n ~ A (x) (A/k)^(x)n (Cuntz-Quillen 1995).  Its canonical basis
iota^n is the image basis of those forms, p^n is the left inverse that reads
the pivot rows, and d and wedge are the Amitsur differential and
1 (x) m (x) 1 read back through p^n.  Both are applied to the rows of iota
by two kernels that build neither the ambient map nor a Kronecker product;
`amitsur_differential` and `amitsur_wedge` build the same maps as matrices
and are the oracles the tests hold the kernels to.

The maximal prolongation of a first-order calculus (Omega^1, d) is read off
its presentation: the tensor algebra T_A(Omega^1) divided by the ideal
generated by the sums da_i (x) db_i with sum a_i db_i = 0 (Woronowicz 1989),
built one degree at a time as Omega^k = Omega^(k-1) (x)_A Omega^1 /
Omega^(k-2) ^ R.

None of the three constructions re-runs the full graded axiom check
(`GradedCalculus.validation_report`).  Each carries a written certificate
next to its code: the Amitsur embedding for the universal prolongation, the
presentation T_A(Omega^1)/<R> for the maximal prolongation, and the zero
components above degree 1 for the trivial extension.
"""

from __future__ import annotations

from .algebra import Algebra, AlgMap
from .bimodule import (
    Bimodule,
    bimodule_axiom_report,
    quotient_bimodule,
    regular_bimodule,
    tensor_over_algebra,
)
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    calculus_morphism_exists,
    universal_calculus,
)
from .linalg import (
    EngineError,
    LinAlgError,
    Mat,
    _clean,
    _mat,
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


def _amitsur_differential_times(a: Algebra, n: int, x: Mat) -> Mat:
    """amitsur_differential(a, n) * x without building d_A^n: the unit
    inserted at slot i sends row (l, r) of x, l of length i, to the rows
    (l, c, r), scaled by (-1)^i u_c for each nonzero unit coordinate u_c."""
    dim, p = a.dim, a.field.p
    units = [(c, u) for c, u in enumerate(a.unit) if u]
    data = [{} for _ in range(dim ** (n + 2))]
    for i in range(n + 2):
        q = dim ** (n + 1 - i)
        terms = [(c * q, -u if i % 2 else u) for c, u in units]
        for s, row in enumerate(x.data):
            if not row:
                continue
            l, r = divmod(s, q)
            base = l * dim * q + r
            for off, u in terms:
                orow = data[base + off]
                get = orow.get
                for j, v in row.items():
                    orow[j] = get(j, 0) + u * v
    return _mat(a.field, len(data), x.cols, [_clean(row, p) for row in data])


def _amitsur_wedge_times(a: Algebra, n: int, m: int, x: Mat, y: Mat) -> Mat:
    """amitsur_wedge(a, n, m) * kronecker(x, y) without building either
    factor: row (l, c, r), l of length n and r of length m, is the sum of
    s x[(l, e)] (x) y[(f, r)] over the structure constants s = m[c; e, f],
    the tensor product of two rows in kronecker's column order."""
    dim, p = a.dim, a.field.p
    left, right = dim ** n, dim ** m
    xd, yd, yc = x.data, y.data, y.cols
    # terms[c]: the triples (e, f, s) with s = m[c; e, f] != 0
    terms = [[(*divmod(ef, dim), s) for ef, s in row.items()] for row in a.mult_mat.data]
    data = []
    for l in range(left):
        xrows = xd[l * dim:(l + 1) * dim]
        for products in terms:
            live = [(xrows[e], f * right, s) for e, f, s in products if xrows[e]]
            for r in range(right):
                orow = None
                for xrow, fr, s in live:
                    yrow = yd[fr + r]
                    if not yrow:
                        continue
                    if orow is None:
                        orow = {j * yc + k: s * v * w
                                for j, v in xrow.items() for k, w in yrow.items()}
                        continue
                    get = orow.get
                    for j, v in xrow.items():
                        base, sv = j * yc, s * v
                        for k, w in yrow.items():
                            t = base + k
                            orow[t] = get(t, 0) + sv * w
                data.append({} if orow is None else _clean(orow, p))
    return _mat(a.field, len(data), x.cols * yc, data)


# ---------------------------------------------------------------------------
# graded calculi
# ---------------------------------------------------------------------------

class GradedCalculus:
    """A degreewise-finite dg-algebra generated in degree 0 by d and wedge.

    Holds the component dimensions, differentials diff[n]: n -> n+1 for
    n < max_degree, and wedge maps wedge[(i, j)] for i + j <= max_degree,
    where (0,0) is the multiplication and (0,n)/(n,0) are the actions.
    The constructor checks shapes only.  The constructions below build their
    maps under a written certificate; `validation_report` checks every graded
    axiom and is the oracle the test suite runs on their results.
    """

    def __init__(self, alg: Algebra, max_degree: int, dims: list[int],
                 diff: list[Mat], wedge: dict):
        # shapes only: O(N^2) comparisons and no matrix work
        if len(dims) != max_degree + 1 or len(diff) != max_degree:
            raise LinAlgError("need one component per degree up to the max degree "
                              "and one differential per adjacent pair")
        for k, d in enumerate(diff):
            if (d.rows, d.cols) != (dims[k + 1], dims[k]):
                raise LinAlgError(f"differential {k} has wrong shape")
        if set(wedge) != {(i, j) for i in range(max_degree + 1)
                          for j in range(max_degree + 1 - i)}:
            raise LinAlgError("need one wedge map per pair (i, j) with i + j <= max degree")
        for (i, j), w in wedge.items():
            if (w.rows, w.cols) != (dims[i + j], dims[i] * dims[j]):
                raise LinAlgError(f"wedge ({i},{j}) has wrong shape")
        self.alg = alg
        self.max_degree = max_degree
        self.dims = list(dims)
        self.diff = list(diff)
        self.wedge = dict(wedge)

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

    iota[n] is the canonical basis of Omega^n inside A^(x)(n+1), the image
    basis of the forms a0 da1 ... dan, and proj[n] its left inverse that
    reads the pivot rows.  The graded axioms are certified by the Amitsur
    embedding (see `universal_prolongation`), so they are not re-checked.
    """

    def __init__(self, alg, max_degree, dims, diff, wedge, iota, proj):
        super().__init__(alg, max_degree, dims, diff, wedge)
        self.iota = iota        # iota[n]: Omega^n >-> A^(x)(n+1)
        self.proj = proj        # proj[n]: A^(x)(n+1) ->> Omega^n, proj iota = id


def universal_prolongation(a: Algebra, max_degree: int) -> UniversalProlongation:
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1")
    # d1 = 0 writes de_p, p the unit's first nonzero coordinate, through the
    # other de_j, and those span dA; the zero algebra has no such p
    pivot = next((i for i, x in enumerate(a.unit) if x), None)
    ident = Mat.identity(a.field, a.dim)
    d_bar = _amitsur_differential_times(a, 0, ident.select_cols(
        [j for j in range(a.dim) if j != pivot]))
    iota = [ident]
    for k in range(1, max_degree + 1):
        # Omega^k = Omega^(k-1) . dA, spanned by the columns omega . da
        iota.append(image_basis(_amitsur_wedge_times(a, k - 1, 1, iota[k - 1], d_bar)))
    proj = [pivot_retraction(b) for b in iota]
    dims = [b.cols for b in iota]

    wedge = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            rhs = _amitsur_wedge_times(a, i, j, iota[i], iota[j])
            w = proj[i + j] * rhs
            if iota[i + j] * w != rhs:
                raise EngineError(f"wedge fails Amitsur compatibility at ({i},{j})")
            wedge[(i, j)] = w

    diff = []
    for k in range(max_degree):
        rhs = _amitsur_differential_times(a, k, iota[k])
        d_k = proj[k + 1] * rhs
        if iota[k + 1] * d_k != rhs:
            raise EngineError(f"differential fails Amitsur compatibility at degree {k}")
        diff.append(d_k)

    # Certificate for the graded axioms, in place of validation_report:
    # 1. A is associative and unital: Algebra runs _monoid_report on every
    #    construction and has no way to skip it.
    # 2. So the Amitsur complex A^(x)(k+1), with product 1 (x) m (x) 1 and
    #    d_A = sum_i (-1)^i (unit at slot i), is a dg algebra: the product is
    #    associative with unit 1 in A, d_A d_A = 0, and
    #    d_A(x y) = d_A(x) y + (-1)^i x d_A(y) for x of degree i.
    # 3. iota[k] is injective (an image basis, proj[k] iota[k] = I), and the
    #    asserts above give iota w = w_A (iota (x) iota) and iota d = d_A iota.
    #    So every identity of (2) pulls back to Omega: for example
    #    iota (d d) = d_A d_A iota = 0.  This gives the bimodule axioms of each
    #    component (wedges with degree 0), d d = 0, wedge associativity and
    #    graded Leibniz; iota[0] = I gives dims[0] = n and wedge(0,0) = mult.
    # 4. Surjectivity, by induction on k: im iota[k] is spanned by
    #    Omega^(k-1) . d(A-bar) by construction, and d(A-bar) spans dA, so
    #    a0 (x) ... (x) ak -> a0 da1 ... dak maps onto Omega^k.
    # A wedge or d that breaks the embedding fails an assert above.
    return UniversalProlongation(a, max_degree, dims, diff, wedge, iota, proj)


def trivial_extension(c: FirstOrderCalculus, max_degree: int) -> GradedCalculus:
    """The graded calculus that is c in degree 1 and zero above."""
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1")
    a = c.alg
    f = a.field
    dims = [a.dim, c.dim] + [0] * (max_degree - 1)
    wedge = {(0, 0): a.mult_mat, (0, 1): c.omega.left_mat, (1, 0): c.omega.right_mat}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            if (i, j) not in wedge:
                wedge[(i, j)] = Mat.zeros(f, dims[i + j], dims[i] * dims[j])
    diff = [c.d] + [Mat.zeros(f, dims[k + 1], dims[k]) for k in range(1, max_degree)]
    # Certificate for the graded axioms, in place of validation_report: every
    # component above degree 1 is zero, so every map into one holds any
    # identity.  What is left are the bimodule axioms of A and Omega^1 (the
    # wedges with degree-0 factors), Leibniz at (0, 0) and surjectivity in
    # degree 1, which are the axioms of c, checked when c was built.
    return GradedCalculus(a, max_degree, dims, diff, wedge)


def _descend(rhs: Mat, surj: Mat, what: str) -> Mat:
    """The map X with X surj = rhs; rhs must kill the kernel of surj."""
    x = factor_through_surjection(rhs, surj)
    if x is None:
        raise EngineError(f"{what} does not descend")
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
    # Certificate for the graded axioms, in place of validation_report:
    # 1. Write T^k for Omega^1 (x)_A ... (x)_A Omega^1 (k factors), R for the
    #    span of the sums da_i (x) db_i with sum a_i db_i = 0, and
    #    I^k = sum_i T^i (x) R (x) T^(k-2-i).  By induction Omega^k = T^k / I^k:
    #    (x)_A is right exact, so Omega^(k-1) (x)_A Omega^1 = T^k / I^(k-1) (x) T^1,
    #    and the quotient above adds T^(k-2) (x) R.  Its image is a
    #    sub-bimodule (quotient_bimodule checks that it is action-closed), so
    #    I is the two-sided ideal generated by R, and wedge(k-1, 1) = proj q is the
    #    product of T_A(Omega^1)/I, the maximal prolongation Omega_max
    #    (Woronowicz 1989; Beggs-Majid 2020, section 1.5).
    # 2. Omega_max is a dg algebra: its product is associative, each component
    #    is an A-bimodule, and its d extends c.d with d d = 0 and graded
    #    Leibniz.  So x ^ (y ^ db) = (x ^ y) ^ db and d(x ^ db) = dx ^ db.
    # 3. Each g_k is onto, by induction: g_1 because Omega^1 = A dA (c passed
    #    the calculus check), and g_k because
    #    Omega^k = Omega^(k-1) ^ Omega^1 = Omega^(k-1) ^ A dA = Omega^(k-1) ^ dA.
    # 4. So the _descend asserts fix wedge(i, k-i) and d on the spanning set
    #    x ^ db, where the maps of (2) satisfy the same equations; they are
    #    those maps, and every graded axiom holds.  Surjectivity is (3).
    # A wedge or d that is not well defined on the spanning set fails a
    # _descend; tests/test_prolong.py runs validation_report on the results.
    return GradedCalculus(a, max_degree, dims, diff, wedge)


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
    rows = []
    agree = True
    for ci, c in enumerate(fodcs):
        maxi = maximal_prolongation(c, max_degree)
        trivial = trivial_extension(c, max_degree)
        for ti, theta in enumerate(gradeds):
            pi_theta = FirstOrderCalculus(a, theta.component_bimodule(1), theta.diff[0])
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
