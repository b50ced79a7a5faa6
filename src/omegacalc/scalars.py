"""Functoriality of calculi along algebra maps.

An algebra map f: A -> B induces f_u between the universal calculi; pushing
a calculus forward quotients Omega_u(B) by the B-sub-bimodule generated by
the image of its defining relations, pulling back quotients Omega_u(A) by
the preimage of the target's relations.  Both are plain linear algebra in
vector spaces, and each kernel comes from one private helper,
`_pushed_kernel` or `_pulled_kernel`.  The posetal adjunction between them
is checked by comparing those kernels inside the universal calculi, with
no pushed or pulled calculus built.

Transport is a value of its map (`linalg._memo`): f_u is built once per
`AlgMap` instance, and each pushed or pulled kernel and calculus once per
(map, calculus) pair, kept on the map in a table keyed weakly by the
calculus, so an entry lives as long as both.  A pulled kernel P is a basis
certified for Omega_u(A), and no projection is kept beside it: the
adjunction reads the map onto F* t off the quotient maps kept on P
(`bimodule._basis_maps`), and the pull builds its calculus on the quotient
by P (`bimodule._basis_quotient`), which reads the same maps.  A repeated
push, pull or adjunction builds no f_u, saturation, preimage or quotient
map; a calculus over the wrong algebra is refused on every call, and
nothing is kept for it.  The tests hold f_u to its functoriality and to
being a bimodule map, the adjunction to the route that builds the calculi,
each kept result to the one built along a freshly loaded copy of its map,
and check the square-zero characterization of derivations and the initial
and terminal calculi (`tests/oracles.py`).
"""

from __future__ import annotations

from .algebra import AlgMap
from .bimodule import _basis_maps, _closed_basis, saturate_subspace
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    _kernel,
    _phi,
    _unit_complement,
    quotient_calculus,
    universal_calculus,
)
from .linalg import Mat, _memo, kronecker, preimage_basis


@_memo
def universal_map(f: AlgMap) -> Mat:
    """f_u: Omega_u(A) -> Omega_u(B), a0 db -> f(a0) d f(b), the restriction
    of f (x) f to the kernels of multiplication: f (x) (pi_B f) on A (x) A-bar,
    because f is unital, so pi_B only removes a multiple of the unit.  Built
    once per map instance (`_memo`)."""
    bar, _pi = _unit_complement(f.source)
    _bar, pi_b = _unit_complement(f.target)
    return kronecker(f.matrix, pi_b * f.matrix.select_cols(bar))


@_memo
def _pushed_kernel(f: AlgMap, c: FirstOrderCalculus) -> Mat:
    """ker(Omega_u(B) -> F_! c) = <f_u(ker(Omega_u(A) -> c))>, built once per
    (map, calculus) pair (`_memo`)."""
    if c.alg != f.source:
        raise PreconditionError("calculus is not over the source algebra")
    # ker(Omega_u(A) -> c) is ker phi, which needs no Omega_u(A)
    return saturate_subspace(universal_calculus(f.target).omega, universal_map(f) * _kernel(c))


@_memo
def _pulled_kernel(f: AlgMap, t: FirstOrderCalculus) -> Mat:
    """P = ker(Omega_u(A) -> F* t) = f_u^{-1}(ker(Omega_u(B) -> t)), a basis
    certified for Omega_u(A), built once per (map, calculus) pair (`_memo`)."""
    if t.alg != f.target:
        raise PreconditionError("calculus is not over the target algebra")
    # ker(Omega_u(B) -> t) is ker phi, which needs no Omega_u(B)
    # Certificate, in place of the closure witness: f_u is a bimodule map
    # along f, f_u(a x b) = f(a) f_u(x) f(b), and ker(Omega_u(B) -> t) is a
    # sub-bimodule, so its preimage is closed under both actions of A.
    # tests/test_scalars.py runs action_closed on it on every oracle map.
    return _closed_basis(universal_calculus(f.source).omega,
                         preimage_basis(universal_map(f), _kernel(t)))


@_memo
def calc_pushforward(f: AlgMap, c: FirstOrderCalculus) -> FirstOrderCalculus:
    """Pushout realization: Omega_u(B) / <f_u(ker(Omega_u(A) -> c))>, built
    once per (map, calculus) pair (`_memo`)."""
    return quotient_calculus(universal_calculus(f.target), _pushed_kernel(f, c))[0]


@_memo
def calc_pullback(f: AlgMap, t: FirstOrderCalculus) -> FirstOrderCalculus:
    """Pullback realization: Omega_u(A) / f_u^{-1}(ker(Omega_u(B) -> t)),
    built once per (map, calculus) pair (`_memo`)."""
    # Certificate, in place of checking kernel_basis(proj) == p: the pulled
    # kernel p is a canonical basis (preimage_basis returns one), and the
    # quotient projects onto its echelon complement (quotient_maps), whose
    # kernel is exactly the span of p; it records p as ker(Omega_u -> result).
    # tests/test_scalars.py holds the projection's kernel to p on every
    # oracle map.
    return quotient_calculus(universal_calculus(f.source), _pulled_kernel(f, t))[0]


def verify_poset_adjunction(f: AlgMap, cs: list[FirstOrderCalculus],
                            ts: list[FirstOrderCalculus]) -> dict:
    """Morphisms F_! c -> t exist iff morphisms c -> F* t do, on every pair."""
    # Certificate, in place of building F_! c and F* t: a calculus morphism
    # c -> t exists iff ker(Omega_u -> c) <= ker(Omega_u -> t)
    # (calculus_morphism_exists), and calc_pushforward and calc_pullback
    # record as the kernel of their results exactly the subspaces
    # _pushed_kernel and _pulled_kernel return, so comparing those subspaces
    # gives the same verdicts.  Each is kept per (map, calculus) pair.
    # tests/test_scalars.py holds the report to the one built from the
    # pushed and pulled calculi on every oracle map.
    pushed = [_pushed_kernel(f, c) for c in cs]
    ker_cs = [_kernel(c) for c in cs]
    # sub <= sup iff a map whose kernel is sup kills sub (linalg.subspace_leq):
    # one kept map per sup, not one per pair.  phi of t has kernel
    # ker(Omega_u -> t) by the definition of _kernel, and the quotient map
    # kept on the pulled kernel P is the map onto F* t, the projection the
    # pull then builds its calculus on; no action of F* t is built here
    to_ts = [_phi(t) for t in ts]
    to_pulled = [_basis_maps(_pulled_kernel(f, t))[0] for t in ts]
    pairs = []
    for ci in range(len(cs)):
        for ti in range(len(ts)):
            lhs = (to_ts[ti] * pushed[ci]).is_zero()
            rhs = (to_pulled[ti] * ker_cs[ci]).is_zero()
            pairs.append({"c_index": ci, "t_index": ti, "pushforward_to_t": lhs,
                          "c_to_pullback": rhs, "agree": lhs == rhs})
    return {"all_agree": all(p["agree"] for p in pairs), "pairs": pairs}
