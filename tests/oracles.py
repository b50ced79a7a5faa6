"""Reference implementations and checks of the paper's propositions that
the tests hold the library to.  None of it is on a user path: the CLI, the
benchmark and the tools never reach it, so it lives here, next to
`oracle_algebras.py`, and not in the package.

- The Amitsur complex A^(x)(k+1) with its product 1 (x) m (x) 1 and
  differential d_A, the embedding iota of the universal prolongation into it
  (a0 (x) a1 ... (x) ak -> a0 da1 ... dak) and its left inverse
  proj = 1 (x) pi^(x)k, against which the Cuntz-Quillen basis of
  `prolong.universal_prolongation` is checked.
- `validation_report`, every graded axiom of a graded calculus, which the
  certificates of the prolongations and the trivial extension replace.
- `unique_dg_morphism`, the morphism of graded calculi extending an algebra
  map, factored one degree at a time through
  g_n: Omega^(n-1) (x) A ->> Omega^n, x (x) a -> x ^ da, and the truncation
  adjunctions it decides.
- The Hopf-module and d-comodule axioms, which the certificates of
  `hopf.universal_coactions` and `hopf.bicovariance_check` replace.
- The rank identity of a cohomology report, the bimodule-map property and
  functoriality of f_u, the square-zero characterization of derivations,
  initiality of the universal calculus and terminality of the zero one,
  uniqueness of the induced map (through the space of bimodule maps), the
  kernel-of-counit comparison and the calculus morphism between two
  calculi.
- The routes the first-order operations replaced: phi read off its
  formula for every calculus, the adjunction decided on the pushed and
  pulled calculi themselves, the bicovariance check on the codiagonal chain
  through iota and the retraction, and the lattice enumeration with each
  diagonal e_i +- e_j formed as a matrix sum.
- Test-only builders: the base field as an algebra, the identity algebra
  map, a matrix stacked on another, A (x) A, free bimodules, the regular
  bimodule, restriction and extension of scalars, and a bimodule as a JSON
  document.

The oracles that report on a bimodule or a bimodule map build it with
`linalg._certified`, past the constructor's check, so that a broken one is
reported on and not refused.
"""

from __future__ import annotations

from functools import reduce

from omegacalc.algebra import Algebra, AlgMap, alg_map_report, build_truncated_poly
from omegacalc.bimodule import (
    BimodMap,
    Bimodule,
    bimod_map_report,
    bimodule_axiom_report,
    build_square_zero,
    tensor_over_algebra,
)
from omegacalc.fodc import (
    FirstOrderCalculus,
    _kernel,
    _phi,
    _section,
    _unit_complement,
    calculus_morphism_exists,
    induced_map,
    universal_calculus,
    zero_calculus,
)
from omegacalc.hopf import Bimonoid, _codiagonal_coactions
from omegacalc.io import algebra_to_json
from omegacalc.linalg import (
    EngineError,
    LinAlgError,
    Mat,
    _certified,
    _mat,
    _null_vectors,
    _row_span,
    _rref_sparse,
    factor_through_surjection,
    kernel_basis,
    kronecker,
    mul_id_kron,
    mul_kron_id,
    rank,
    solve,
    swap_matrix,
)
from omegacalc.prolong import GradedCalculus, maximal_prolongation, trivial_extension
from omegacalc.scalars import calc_pullback, calc_pushforward, universal_map


def kron_all(mats: list[Mat]) -> Mat:
    return reduce(kronecker, mats)


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


def universal_iota(a: Algebra, max_degree: int) -> list[Mat]:
    """iota[k]: Omega_u^k >-> A^(x)(k+1), a0 (x) a1 ... (x) ak -> the form
    a0 da1 ... dak of the Amitsur complex, for k <= max_degree."""
    bar, _pi = _unit_complement(a)
    d_bar = amitsur_differential(a, 0).select_cols(bar)
    iota = [Mat.identity(a.field, a.dim)]
    for k in range(1, max_degree + 1):
        # a0 da1 ... dak = (a0 da1 ... da(k-1)) . dak
        iota.append(amitsur_wedge(a, k - 1, 1) * kronecker(iota[k - 1], d_bar))
    return iota


def universal_proj(a: Algebra, max_degree: int) -> list[Mat]:
    """proj[k] = 1 (x) pi^(x)k, the left inverse of iota[k]."""
    _bar, pi = _unit_complement(a)
    ident = Mat.identity(a.field, a.dim)
    return [kron_all([ident] + [pi] * k) for k in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# graded calculi
# ---------------------------------------------------------------------------

def generator_map(g: GradedCalculus, n: int) -> Mat:
    """g_n = wedge(n-1, 1) (1 (x) d0): Omega^(n-1) (x) A -> Omega^n, x (x) a -> x ^ da."""
    return mul_id_kron(g.wedge[(n - 1, 1)], g.dims[n - 1], g.diff[0])


def component_bimodule(g: GradedCalculus, n: int) -> Bimodule:
    if n == 0:
        return regular_bimodule(g.alg)
    return _certified(Bimodule, left_alg=g.alg, right_alg=g.alg, dim=g.dims[n],
                      left_mat=g.wedge[(0, n)], right_mat=g.wedge[(n, 0)])


def validation_report(g: GradedCalculus) -> list[str]:
    """Every violated graded axiom of g, by name."""
    report = []
    n0 = g.alg.dim
    big_n = g.max_degree
    if g.dims[0] != n0:
        report.append("degree 0 is not the algebra")
    if g.wedge.get((0, 0)) != g.alg.mult_mat:
        report.append("wedge(0,0) is not the multiplication")
    # bimodule structure on each component
    for n in range(1, big_n + 1):
        errs = bimodule_axiom_report(g.alg, g.alg, g.dims[n], g.wedge[(0, n)], g.wedge[(n, 0)])
        report.extend(f"degree {n}: {e}" for e in errs)
    # d . d = 0
    for n in range(big_n - 1):
        if not (g.diff[n + 1] * g.diff[n]).is_zero():
            report.append(f"d.d != 0 at degree {n}")
    # associativity of wedge on all defined triples
    for i in range(big_n + 1):
        for j in range(big_n + 1 - i):
            for k in range(big_n + 1 - i - j):
                lhs = mul_kron_id(g.wedge[(i + j, k)], g.wedge[(i, j)], g.dims[k])
                rhs = mul_id_kron(g.wedge[(i, j + k)], g.dims[i], g.wedge[(j, k)])
                if lhs != rhs:
                    report.append(f"wedge associativity fails at ({i},{j},{k})")
    # graded Leibniz with sign (-1)^i at all pairs with i + j < N
    for i in range(big_n):
        for j in range(big_n - i):
            lhs = g.diff[i + j] * g.wedge[(i, j)]
            term1 = mul_kron_id(g.wedge[(i + 1, j)], g.diff[i], g.dims[j])
            term2 = mul_id_kron(g.wedge[(i, j + 1)], g.dims[i], g.diff[j])
            rhs = term1 + term2 if i % 2 == 0 else term1 - term2
            if lhs != rhs:
                report.append(f"graded Leibniz fails at ({i},{j})")
    # surjectivity: A generates via d and wedge.  The products
    # a0 da1 ... dan span Omega^n for every n iff each g_n is onto: they
    # are g_n applied to (a0 da1 ... da(n-1)) (x) an, by induction on n
    for n in range(1, big_n + 1):
        if rank(generator_map(g, n)) != g.dims[n]:
            report.append(f"surjectivity fails at degree {n}")
    return report


def unique_dg_morphism(src: GradedCalculus, tgt: GradedCalculus, f0: AlgMap):
    """The unique graded-calculus morphism extending f0, or None.

    A morphism h takes x ^ da to h(x) ^ d f0(a), so h^n g_n(src) =
    g_n(tgt) (h^(n-1) (x) f0) with g_n: Omega^(n-1) (x) A ->> Omega^n,
    x (x) a -> x ^ da.  Each h^n is factored through the onto map g_n(src),
    one degree at a time, and the maps that factor are the morphism (the
    certificate below); a degree that does not factor means none exists.
    """
    if src.max_degree != tgt.max_degree:
        raise LinAlgError("graded calculi truncated at different degrees")
    if f0.source != src.alg or f0.target != tgt.alg:
        raise LinAlgError("degree-0 map does not match the calculi")
    maps = [f0.matrix]
    for n in range(1, src.max_degree + 1):
        # g_n(tgt) (h^(n-1) (x) f0) = g_n(tgt) (h^(n-1) (x) 1) (1 (x) f0)
        g_h = mul_kron_id(generator_map(tgt, n), maps[n - 1], tgt.alg.dim)
        rhs = mul_id_kron(g_h, src.dims[n - 1], f0.matrix)
        h_n = factor_through_surjection(rhs, generator_map(src, n))
        if h_n is None:
            return None
        maps.append(h_n)
    # Certificate that maps is a morphism, so that neither d nor a wedge is
    # re-checked and each calculus is read only through g_n:
    # 1. f0 is a unital algebra map (AlgMap checks it).  Both calculi satisfy
    #    the graded axioms and each g_n is onto, so each h^n is the unique
    #    solution of h(x ^ da) = h(x) ^ d f0(a).
    # 2. Right action, by induction on degree: write x = x' ^ db.  Then
    #    x c = x' ^ d(bc) - (x' b) ^ dc, so h(xc) = h(x') ^ d(f0(b) f0(c))
    #    - h(x') f0(b) ^ d f0(c) = h(x) f0(c).
    # 3. Wedge, by induction on deg y: write y = y' ^ db.  Then
    #    x ^ y = (x ^ y') ^ db, so h(x ^ y) = h(x ^ y') ^ d f0(b)
    #    = h(x) ^ h(y') ^ d f0(b) = h(x) ^ h(y).  The base case deg y = 0 is
    #    (2); the left action is the case deg x = 0.
    # 4. d: h(da) = h(1 ^ da) = f0(1) d f0(a) = d f0(a), and
    #    d(x ^ db) = dx ^ db, so h(d(x ^ db)) = h(dx) ^ d f0(b) = d h(x ^ db)
    #    by induction on degree.
    # 5. Conversely every morphism satisfies the factoring equation, so where
    #    some h^n does not factor no morphism exists.
    # tests/test_prolong.py holds the result to the Amitsur route, which
    # re-checks d and every wedge, on the graded calculi of every oracle map.
    return maps


def truncation_adjoints_check(a: Algebra, fodcs: list[FirstOrderCalculus],
                              gradeds: list[GradedCalculus], max_degree: int) -> dict:
    """Both truncation adjunctions, compared pair by pair on the probe.

    Left: dg maps from the maximal prolongation of c to Theta match calculus
    maps c -> degree-(0,1) truncation of Theta.  Right: dg maps Theta -> the
    trivial extension of c match calculus maps from the truncation to c.
    Degree 1 of Theta is built with the checked constructor: a
    GradedCalculus checks only its shapes and d.d = 0.
    """
    ident = identity_map(a)
    rows = []
    agree = True
    for ci, c in enumerate(fodcs):
        maxi = maximal_prolongation(c, max_degree)
        trivial = trivial_extension(c, max_degree)
        for ti, theta in enumerate(gradeds):
            pi_theta = FirstOrderCalculus(a, component_bimodule(theta, 1), theta.diff[0])
            left_dg = unique_dg_morphism(maxi, theta, ident) is not None
            left_calc = calculus_morphism_exists(c, pi_theta)
            right_dg = unique_dg_morphism(theta, trivial, ident) is not None
            right_calc = calculus_morphism_exists(pi_theta, c)
            rows.append({
                "c_index": ci, "theta_index": ti,
                "left_dg": left_dg, "left_calc": left_calc,
                "right_dg": right_dg, "right_calc": right_calc,
                "agree": left_dg == left_calc and right_dg == right_calc,
            })
            agree = agree and rows[-1]["agree"]
    return {"all_agree": agree, "rows": rows}


# ---------------------------------------------------------------------------
# Hopf modules
# ---------------------------------------------------------------------------

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
    # same-side diagonals
    shuffle_aa_m = kronecker(i_n, kronecker(swap_matrix(f, n, n), i_m))
    if lam * l_mat != kronecker(a.mult_mat, l_mat) * shuffle_aa_m * kronecker(delta, lam):
        report.append("left coaction is not a map of left modules")
    shuffle_m_aa = kronecker(i_m, kronecker(swap_matrix(f, n, n), i_n))
    if rho * r_mat != kronecker(r_mat, a.mult_mat) * shuffle_m_aa * kronecker(rho, delta):
        report.append("right coaction is not a map of right modules")
    return report


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


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

def rank_identity_report(c, rep) -> list[str]:
    """dim Omega^n = rank d^n + rank d^(n-1) + dim H^n at interior degrees,
    for a CochainComplex c and its CohomologyReport rep."""
    errs = []
    for d in rep.degrees:
        n = d.n
        r_out = rank(c.diff[n])
        r_in = 0 if n == 0 else rank(c.diff[n - 1])
        if c.dims[n] != r_out + r_in + d.dim_h:
            errs.append(f"rank identity fails at degree {n}")
    return errs


# ---------------------------------------------------------------------------
# first-order calculi and transport
# ---------------------------------------------------------------------------

def universal_map_is_bimodule_map(f: AlgMap) -> bool:
    """f_u lands in the restriction of Omega_u(B) as a map of A-bimodules."""
    restricted = restrict_bimodule(f, f, universal_calculus(f.target).omega)
    candidate = _certified(BimodMap, source=universal_calculus(f.source).omega,
                           target=restricted, matrix=universal_map(f))
    return bimod_map_report(candidate) == []


def universal_map_functorial(f: AlgMap, g: AlgMap) -> bool:
    """(g f)_u = g_u f_u on a composable pair."""
    gf = AlgMap(f.source, g.target, g.matrix * f.matrix)
    return universal_map(gf) == universal_map(g) * universal_map(f)


def square_zero_unit_check(a: Algebra, probes=None) -> dict:
    """(1_A, d_u): A -> A (+) Omega_u is an algebra map, and the hom bijection
    of the square-zero adjunction round-trips on every probe.

    A probe is (B, N, h1, h2) with N a B-bimodule and (h1, h2): A -> B (+) N
    an algebra map; the default probe set is built from A itself.
    """
    u = universal_calculus(a)
    f = a.field
    ext = build_square_zero(a, u.omega)
    unit_matrix = vstack(Mat.identity(f, a.dim), u.d)
    unit_report = alg_map_report(a, ext, unit_matrix)
    if probes is None:
        zero_h2 = Mat.zeros(f, u.dim, a.dim)
        probes = [
            (a, u.omega, Mat.identity(f, a.dim), u.d),
            (a, u.omega, Mat.identity(f, a.dim), zero_h2),
        ]
    probe_results = []
    for (b, n, h1, h2) in probes:
        ext_b = build_square_zero(b, n)
        h_matrix = vstack(h1, h2)
        h_report = alg_map_report(a, ext_b, h_matrix)
        if h_report:
            probe_results.append({"valid_probe": False, "roundtrip": False})
            continue
        # g = (h1 . h2) iota : Omega_u -> N, then back: h2' = g d_u
        g = n.left_mat * kronecker(h1, h2) * u.iota
        h2_back = g * u.d
        # and forward again: g' = (h1 . (g d_u)) iota
        g_back = n.left_mat * kronecker(h1, h2_back) * u.iota
        probe_results.append({
            "valid_probe": True,
            "roundtrip": h2_back == h2 and g_back == g,
        })
    return {
        "unit_is_algebra_map": unit_report == [],
        "unit_violations": unit_report,
        "probes": probe_results,
        "all_roundtrips": all(p["roundtrip"] for p in probe_results),
    }


def bimodule_hom_basis(m: Bimodule, n: Bimodule) -> list[Mat]:
    """Basis of the space of bimodule maps M -> N (canonical order)."""
    if m.left_alg != n.left_alg or m.right_alg != n.right_alg:
        raise LinAlgError("hom between bimodules over different algebra pairs")
    f = m.field
    na, nb = m.left_alg.dim, m.right_alg.dim
    mm, mn = m.dim, n.dim

    def relation(w, u, m_coeffs, n_coeffs):
        """sum_x m_x h[w, x] - sum_y n_y h[y, u] as a sparse row over the
        unknowns h, indexed row-major (w * mm + x)."""
        row = {w * mm + x: c for x, c in enumerate(m_coeffs) if c}
        for y, c in enumerate(n_coeffs):
            if c:
                row[y * mm + u] = f.sub(row.get(y * mm + u, 0), c)
        return {k: v for k, v in row.items() if v}

    # h . l_M = l_N . (1 (x) h)
    rows = [
        relation(w, u, m.left_mat.column(i * mm + u), [n.left_mat[w, i * mn + y] for y in range(mn)])
        for w in range(mn) for i in range(na) for u in range(mm)
    ]
    # h . r_M = r_N . (h (x) 1)
    rows += [
        relation(w, u, m.right_mat.column(u * nb + j), [n.right_mat[w, y * nb + j] for y in range(mn)])
        for w in range(mn) for u in range(mm) for j in range(nb)
    ]
    prows, pcols = _rref_sparse(f, rows)
    return [Mat.from_entries(f, mn, mm, [(k // mm, k % mm, v) for k, v in vec.items()])
            for vec in _null_vectors(f, prows, pcols, mn * mm)]


def induced_map_is_unique(target: FirstOrderCalculus) -> bool:
    """No nonzero bimodule map Omega_u -> target kills d_u (0-dim solution space)."""
    u = universal_calculus(target.alg)
    hom = bimodule_hom_basis(u.omega, target.omega)
    if not hom:
        return True
    f = u.alg.field
    cols = []
    for h in hom:
        hd = h * u.d
        cols.append([x for row in hd.dense_rows() for x in row])
    sys = Mat.from_cols(f, cols, rows=target.dim * u.alg.dim)
    return kernel_basis(sys).cols == 0


def calc1_category_adjoints_check(a: Algebra, family: list[FirstOrderCalculus]) -> dict:
    """Initiality of the universal calculus and terminality of the zero one."""
    zero = zero_calculus(a)
    rows = []
    for idx, c in enumerate(family):
        rows.append({
            "index": idx,
            "from_universal_exists": induced_map(c) is not None,
            "from_universal_unique": induced_map_is_unique(c),
            "to_zero_exists": calculus_morphism_exists(c, zero),
        })
    ok = all(r["from_universal_exists"] and r["from_universal_unique"] and r["to_zero_exists"]
             for r in rows)
    return {"all_ok": ok, "rows": rows}


def calculus_morphism(src: FirstOrderCalculus, dst: FirstOrderCalculus) -> Mat | None:
    """The unique morphism matrix src -> dst when it exists, else None."""
    if src.alg != dst.alg:
        raise LinAlgError("calculi over different algebras")
    return factor_through_surjection(_phi(dst), _phi(src))


def kernel_counit_comparison(left_module: Bimodule) -> dict:
    """ker(mu_M: A(x)M -> M) vs Omega_u (x)_A M, with the explicit inverse pair.

    left_module is an (A, field) bimodule.  Returns both dimensions and the
    two comparison matrices; "invertible" certifies they are mutually inverse.
    """
    a = left_module.left_alg
    f = a.field
    u = universal_calculus(a)
    mu = left_module.left_mat
    k_basis = kernel_basis(mu)
    t_mod, q = tensor_over_algebra(u.omega, left_module)
    # (1 (x) mu)(iota (x) 1) on transposed rows: (iota^T (x) 1)(1 (x) mu^T)
    dm = left_module.dim
    g_rhs = mul_id_kron(mul_kron_id(Mat.identity(f, u.dim * dm), u.iota.transpose(), dm),
                        a.dim, mu.transpose()).transpose()
    g = factor_through_surjection(g_rhs, q)
    if g is None:
        raise EngineError("comparison map does not descend to the tensor product")
    t_map = mul_kron_id(q, u.d, left_module.dim) * k_basis
    s_raw = solve(k_basis, g)
    if s_raw is None:
        raise EngineError("comparison does not land in the kernel of the action")
    # with iota d(a) = 1 (x) a - a (x) 1 the raw pair composes to -id, so the
    # inverse of t is -s
    s_map = -s_raw
    invertible = (
        s_map * t_map == Mat.identity(f, k_basis.cols)
        and t_map * s_map == Mat.identity(f, t_mod.dim)
    )
    return {
        "kernel_dim": k_basis.cols,
        "tensor_dim": t_mod.dim,
        "to_tensor": t_map,
        "to_kernel": s_map,
        "invertible": invertible,
    }


# ---------------------------------------------------------------------------
# the routes the first-order operations replaced
# ---------------------------------------------------------------------------

def phi_by_formula(c: FirstOrderCalculus) -> Mat:
    """phi: a0 (x) b -> a0 db read off c, (m (x) 1)(1 (x) d) on A (x) A-bar:
    what fodc._phi computes for a calculus that records no phi."""
    bar, _pi = _unit_complement(c.alg)
    return mul_id_kron(c.omega.left_mat, c.alg.dim, c.d.select_cols(bar))


def adjunction_by_calculi(f: AlgMap, cs: list[FirstOrderCalculus],
                          ts: list[FirstOrderCalculus]) -> dict:
    """scalars.verify_poset_adjunction in its earlier form: it builds F_! c
    and F* t and decides each morphism by solving for it."""
    pushed = [calc_pushforward(f, c) for c in cs]
    pulled = [calc_pullback(f, t) for t in ts]
    pairs = []
    for ci, c in enumerate(cs):
        for ti, t in enumerate(ts):
            lhs = calculus_morphism(pushed[ci], t) is not None
            rhs = calculus_morphism(c, pulled[ti]) is not None
            pairs.append({
                "c_index": ci, "t_index": ti,
                "pushforward_to_t": lhs, "c_to_pullback": rhs,
                "agree": lhs == rhs,
            })
    return {"all_agree": all(p["agree"] for p in pairs), "pairs": pairs}


def bicovariance_by_codiagonal_chain(h: Bimonoid, c: FirstOrderCalculus) -> dict:
    """hopf.bicovariance_check in its earlier form: the codiagonal coactions
    applied to iota N and iota section and read back through
    phi retraction, with no coactions of Omega_u built."""
    u = universal_calculus(h.alg)
    to_c = _phi(c) * u.retraction
    lam_n, rho_n = _codiagonal_coactions(h, u.iota * _kernel(c), to_c)
    witnesses = []
    if not lam_n.is_zero():
        witnesses.append("left coaction moves the defining subobject out of A (x) N")
    if not rho_n.is_zero():
        witnesses.append("right coaction moves the defining subobject out of N (x) A")
    if witnesses:
        return {"bicovariant": False, "witnesses": witnesses}
    lam, rho = _codiagonal_coactions(h, u.iota * _section(c), to_c)
    return {"bicovariant": True, "witnesses": [], "lam": lam, "rho": rho,
            "hopf_calculus_ok": True}


def enumerate_by_matrix_sums(m: Bimodule) -> list[Mat]:
    """fodc.enumerate_action_closed_subspaces outside its exhaustive branch,
    in its earlier form: the generators of A . e_k . A as matrices, each
    diagonal e_i +- e_j as their matrix sum or difference, and each pair as
    the span of both generator matrices."""
    from itertools import combinations

    f, dim = m.field, m.dim
    na, nb = m.left_alg.dim, m.right_alg.dim
    wt = mul_kron_id(m.right_mat, m.left_mat, nb).transpose().data
    gens = [_mat(f, na * nb, dim, [wt[(a * dim + k) * nb + b]
                                   for a in range(na) for b in range(nb)])
            for k in range(dim)]
    spans = [[], [{i: 1} for i in range(dim)]] + [_row_span(f, g.data) for g in gens]
    for i, j in combinations(range(dim), 2):
        spans += [_row_span(f, gens[i].data + gens[j].data),
                  _row_span(f, (gens[i] + gens[j]).data),
                  _row_span(f, (gens[i] - gens[j]).data)]
    found = {tuple(frozenset(row.items()) for row in rows): rows for rows in spans}
    family = [_mat(f, len(rows), dim, rows).transpose() for rows in found.values()]
    return sorted(family, key=lambda s: (
        s.cols, tuple(tuple(map(f.format, row)) for row in s.dense_rows())))


# ---------------------------------------------------------------------------
# test-only builders
# ---------------------------------------------------------------------------

def field_algebra(field) -> Algebra:
    """The base field as the unit algebra (1-dimensional)."""
    return build_truncated_poly(field, 1, var="t")


def identity_map(a: Algebra) -> AlgMap:
    return AlgMap(a, a, Mat.identity(a.field, a.dim))


def vstack(top: Mat, bottom: Mat) -> Mat:
    """The rows of top, then those of bottom (of as many columns)."""
    return _mat(top.field, top.rows + bottom.rows, top.cols, top.data + bottom.data)


def regular_bimodule(a: Algebra) -> Bimodule:
    """A acting on itself on both sides."""
    return Bimodule(a, a, a.dim, a.mult_mat, a.mult_mat)


def tensor_square_bimodule(a: Algebra) -> Bimodule:
    """A(x)A with outer actions m(x)1 and 1(x)m; the tests hold the universal
    calculus's iota to it as a bimodule map."""
    i_n = Mat.identity(a.field, a.dim)
    return Bimodule(a, a, a.dim * a.dim, kronecker(a.mult_mat, i_n),
                    kronecker(i_n, a.mult_mat))


def free_bimodule(a: Algebra, d: int, b: Algebra) -> Bimodule:
    """The free bimodule A(x)k^d(x)B on a d-dimensional space."""
    f = a.field
    left = kronecker(a.mult_mat, Mat.identity(f, d * b.dim))
    right = kronecker(Mat.identity(f, a.dim * d), b.mult_mat)
    return Bimodule(a, b, a.dim * d * b.dim, left, right)


def restrict_bimodule(f: AlgMap, g: AlgMap, m: Bimodule) -> Bimodule:
    """Restriction of scalars along f: A -> B and g: A' -> B'."""
    if f.target != m.left_alg or g.target != m.right_alg:
        raise LinAlgError("restriction maps do not land in the acting algebras")
    return Bimodule(
        f.source, g.source, m.dim,
        mul_kron_id(m.left_mat, f.matrix, m.dim),
        mul_id_kron(m.right_mat, m.dim, g.matrix),
    )


def extend_bimodule(f: AlgMap, g: AlgMap, m: Bimodule) -> tuple[Bimodule, Mat]:
    """Extension of scalars (B (x)_A M) (x)_A' B'; also returns the quotient
    map from B (x) M (x) B'."""
    if f.source != m.left_alg or g.source != m.right_alg:
        raise LinAlgError("extension maps do not start at the acting algebras")
    b, bp = f.target, g.target
    # B as a (B, A)-bimodule via f, B' as an (A', B')-bimodule via g
    b_bimod = Bimodule(b, m.left_alg, b.dim, b.mult_mat,
                       mul_id_kron(b.mult_mat, b.dim, f.matrix))
    bp_bimod = Bimodule(m.right_alg, bp, bp.dim,
                        mul_kron_id(bp.mult_mat, g.matrix, bp.dim), bp.mult_mat)
    t1, q1 = tensor_over_algebra(b_bimod, m)
    t2, q2 = tensor_over_algebra(t1, bp_bimod)
    return t2, mul_kron_id(q2, q1, bp.dim)


def bimodule_to_json(m: Bimodule) -> dict:
    """The document `io.bimodule_from_json` reads back to m."""
    return {
        "left_alg": algebra_to_json(m.left_alg),
        "right_alg": algebra_to_json(m.right_alg),
        "dim": m.dim,
        "left": [
            [[m.field.format(x) for x in m.left_mat.column(i * m.dim + u)] for u in range(m.dim)]
            for i in range(m.left_alg.dim)
        ],
        "right": [
            [[m.field.format(x) for x in m.right_mat.column(u * m.right_alg.dim + j)]
             for j in range(m.right_alg.dim)]
            for u in range(m.dim)
        ],
    }
