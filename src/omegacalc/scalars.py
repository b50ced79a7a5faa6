"""Functoriality of calculi along algebra maps.

An algebra map f: A -> B induces f_u between the universal calculi; pushing
a calculus forward quotients Omega_u(B) by the B-sub-bimodule generated by
the image of its defining relations, pulling back quotients Omega_u(A) by
the preimage of the target's relations.  Both are plain linear algebra in
vector spaces; the posetal adjunction between them is checked by comparing
kernels inside the universal calculi.
"""

from __future__ import annotations

from .algebra import Algebra, AlgMap, alg_map_report, build_square_zero
from .bimodule import BimodMap, bimod_map_report, restrict_bimodule, saturate_subspace
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    _kernel,
    _unit_complement,
    calculus_morphism_exists,
    induced_map,
    induced_map_is_unique,
    quotient_calculus,
    universal_calculus,
    zero_calculus,
)
from .linalg import (
    Mat,
    image_basis,
    kronecker,
    preimage_basis,
    subspace_leq,
)


def universal_map(f: AlgMap) -> Mat:
    """f_u: Omega_u(A) -> Omega_u(B), a0 db -> f(a0) d f(b), the restriction
    of f (x) f to the kernels of multiplication: f (x) (pi_B f) on A (x) A-bar,
    because f is unital, so pi_B only removes a multiple of the unit."""
    bar, _pi = _unit_complement(f.source)
    _bar, pi_b = _unit_complement(f.target)
    return kronecker(f.matrix, pi_b * f.matrix.select_cols(bar))


def universal_map_is_bimodule_map(f: AlgMap) -> bool:
    """f_u lands in the restriction of Omega_u(B) as a map of A-bimodules."""
    restricted = restrict_bimodule(f, f, universal_calculus(f.target).omega)
    candidate = BimodMap(universal_calculus(f.source).omega, restricted, universal_map(f),
                         check=False)
    return bimod_map_report(candidate) == []


def calc_pushforward(f: AlgMap, c: FirstOrderCalculus) -> FirstOrderCalculus:
    """Pushout realization: Omega_u(B) / <f_u(ker(Omega_u(A) -> c))>."""
    if c.alg != f.source:
        raise PreconditionError("calculus is not over the source algebra")
    # ker(Omega_u(A) -> c) is ker phi, which needs no Omega_u(A)
    u_b = universal_calculus(f.target)
    pushed = saturate_subspace(u_b.omega, image_basis(universal_map(f) * _kernel(c)))
    result, _proj = quotient_calculus(u_b, pushed)
    return result


def calc_pullback(f: AlgMap, t: FirstOrderCalculus) -> FirstOrderCalculus:
    """Pullback realization: Omega_u(A) / f_u^{-1}(ker(Omega_u(B) -> t))."""
    if t.alg != f.target:
        raise PreconditionError("calculus is not over the target algebra")
    # ker(Omega_u(B) -> t) is ker phi, which needs no Omega_u(B)
    u_a = universal_calculus(f.source)
    p = preimage_basis(universal_map(f), _kernel(t))
    # Certificate, in place of checking kernel_basis(proj) == p: p is a
    # canonical basis (preimage_basis returns one), and quotient_calculus
    # projects onto its echelon complement (quotient_maps), whose kernel is
    # exactly the span of p; it records p as ker(Omega_u -> result).
    # tests/test_scalars.py holds the projection's kernel to p on every
    # oracle map.
    result, _proj = quotient_calculus(u_a, p)
    return result


def verify_poset_adjunction(f: AlgMap, cs: list[FirstOrderCalculus],
                            ts: list[FirstOrderCalculus]) -> dict:
    """Morphisms F_! c -> t exist iff morphisms c -> F* t do, on every pair."""
    # every kernel is ker phi of its calculus, so neither Omega_u is built
    # here; a pushed or pulled calculus recorded its kernel when it was built
    pushed = [_kernel(calc_pushforward(f, c)) for c in cs]
    pulled = [_kernel(calc_pullback(f, t)) for t in ts]
    ker_cs = [_kernel(c) for c in cs]
    ker_ts = [_kernel(t) for t in ts]
    pairs = []
    agree = True
    for ci in range(len(cs)):
        for ti in range(len(ts)):
            lhs = subspace_leq(pushed[ci], ker_ts[ti])
            rhs = subspace_leq(ker_cs[ci], pulled[ti])
            pairs.append({
                "c_index": ci, "t_index": ti,
                "pushforward_to_t": lhs, "c_to_pullback": rhs,
                "agree": lhs == rhs,
            })
            agree = agree and lhs == rhs
    return {"all_agree": agree, "pairs": pairs}


def square_zero_unit_check(a: Algebra, probes=None) -> dict:
    """(1_A, d_u): A -> A (+) Omega_u is an algebra map, and the hom bijection
    of the square-zero adjunction round-trips on every probe.

    A probe is (B, N, h1, h2) with N a B-bimodule and (h1, h2): A -> B (+) N
    an algebra map; the default probe set is built from A itself.
    """
    u = universal_calculus(a)
    f = a.field
    ext = build_square_zero(a, u.omega)
    unit_matrix = Mat.identity(f, a.dim).vstack(u.d)
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
        h_matrix = h1.vstack(h2)
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


def calc1_category_adjoints_check(a: Algebra, family: list[FirstOrderCalculus]) -> dict:
    """Initiality of the universal calculus and terminality of the zero one."""
    zero = zero_calculus(a)
    rows = []
    for idx, c in enumerate(family):
        from_universal = induced_map(c)
        unique = induced_map_is_unique(c)
        to_zero = calculus_morphism_exists(c, zero)
        rows.append({
            "index": idx,
            "from_universal_exists": from_universal is not None,
            "from_universal_unique": unique,
            "to_zero_exists": to_zero,
        })
    ok = all(r["from_universal_exists"] and r["from_universal_unique"] and r["to_zero_exists"]
             for r in rows)
    return {"all_ok": ok, "rows": rows}


def universal_map_functorial(f: AlgMap, g: AlgMap) -> bool:
    """(g f)_u = g_u f_u on a composable pair."""
    gf = g.compose(f)
    return universal_map(gf) == universal_map(g) * universal_map(f)
