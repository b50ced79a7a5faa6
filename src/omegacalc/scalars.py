"""Functoriality of calculi along algebra maps.

An algebra map f: A -> B induces f_u between the universal calculi; pushing
a calculus forward quotients Omega_u(B) by the B-sub-bimodule generated by
the image of its defining relations, pulling back quotients Omega_u(A) by
the preimage of the target's relations.  Both are plain linear algebra in
vector spaces; the posetal adjunction between them is checked by comparing
kernels inside the universal calculi.  The tests hold f_u to its
functoriality and to being a bimodule map, and check the square-zero
characterization of derivations and the initial and terminal calculi
(`tests/oracles.py`).
"""

from __future__ import annotations

from .algebra import AlgMap
from .bimodule import saturate_subspace
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    _closed_quotient_calculus,
    _kernel,
    _unit_complement,
    universal_calculus,
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


def calc_pushforward(f: AlgMap, c: FirstOrderCalculus) -> FirstOrderCalculus:
    """Pushout realization: Omega_u(B) / <f_u(ker(Omega_u(A) -> c))>."""
    if c.alg != f.source:
        raise PreconditionError("calculus is not over the source algebra")
    # ker(Omega_u(A) -> c) is ker phi, which needs no Omega_u(A)
    u_b = universal_calculus(f.target)
    pushed = saturate_subspace(u_b.omega, image_basis(universal_map(f) * _kernel(c)))
    # Certificate, in place of the closure witness: saturate_subspace returns
    # the canonical basis of A . V . A, which is action-closed (its own
    # certificate).  tests/test_scalars.py runs action_closed on the kernel
    # of every pushed calculus.
    result, _proj = _closed_quotient_calculus(u_b, pushed)
    return result


def calc_pullback(f: AlgMap, t: FirstOrderCalculus) -> FirstOrderCalculus:
    """Pullback realization: Omega_u(A) / f_u^{-1}(ker(Omega_u(B) -> t))."""
    if t.alg != f.target:
        raise PreconditionError("calculus is not over the target algebra")
    # ker(Omega_u(B) -> t) is ker phi, which needs no Omega_u(B)
    u_a = universal_calculus(f.source)
    p = preimage_basis(universal_map(f), _kernel(t))
    # Certificate, in place of checking kernel_basis(proj) == p: p is a
    # canonical basis (preimage_basis returns one), and the quotient
    # projects onto its echelon complement (quotient_maps), whose kernel is
    # exactly the span of p; it records p as ker(Omega_u -> result).
    # Certificate, in place of the closure witness: f_u is a bimodule map
    # along f, f_u(a x b) = f(a) f_u(x) f(b), and ker(Omega_u(B) -> t) is a
    # sub-bimodule, so its preimage p is closed under both actions of A.
    # tests/test_scalars.py holds the projection's kernel to p, and runs
    # action_closed on it, on every oracle map.
    result, _proj = _closed_quotient_calculus(u_a, p)
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
