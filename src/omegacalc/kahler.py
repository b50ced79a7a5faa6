"""The Kaehler calculus of a commutative algebra, in closed form.

Omega^1_{A/k} = I / I^2 with I = ker(m: A (x) A -> A) (EGA IV 16.3;
Matsumura, Commutative Ring Theory, section 25).  In the basis A (x) A-bar
of the universal calculus (see `fodc`), I is Omega_u and I^2 is spanned by
the forms x de_i de_j; the Kaehler calculus is the quotient by their span.
Its left action is m (x) 1, its right action the left one through the swap
and its d is a -> 1 (x) pi(a), each written from the structure constants
and reduced by the quotient map.  No universal calculus, saturation or
generic quotient is built.  Only the symmetric swap braiding is supported.
"""

from __future__ import annotations

from .algebra import Algebra, commutativity_witness, is_commutative
from .bimodule import Bimodule
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    _kernel,
    _phi,
    _section,
    _unit_complement,
)
from .linalg import (
    Mat,
    _certified,
    _clean,
    _mat,
    _memo,
    _row_span,
    kron_id_mul,
    kronecker,
    mul_swap,
    quotient_maps,
)


def kahler_relations(a: Algebra) -> Mat:
    """Canonical basis of N = I^2 in the basis A (x) A-bar of Omega_u.

    Column (x, i <= j), with i and j coordinates of A-bar, is the form
    x de_i de_j of A (x) A read through the retraction 1 (x) pi:
    x (x) pi(e_i e_j) - x e_j (x) pi(e_i) - x e_i (x) pi(e_j), the term
    x e_i e_j (x) pi(1) being zero.
    """
    f, n = a.field, a.dim
    bar, pi = _unit_complement(a)
    nb = pi.rows
    # column i*n + j of m is e_i e_j, column k of pi is pi(e_k)
    prod = a.mult_mat.transpose().data
    pi_e = pi.transpose().data
    pi_prod = (pi * a.mult_mat).transpose().data
    # Certificate that the pairs of A-bar coordinates span the same N as all
    # n(n+1)/2 pairs: with p the unit's pivot, 1 = sum u_j e_j and d1 = 0
    # give de_p = -sum_(j != p) (u_j / u_p) de_j, so each x de_p de_j and
    # x de_p de_p is a combination of the forms x de_i de_j with i, j != p
    # (de_i de_j = de_j de_i).  Where e_p is the unit those forms are zero.
    # The span is N, so its canonical basis is unchanged.
    forms = []
    for x in range(n):
        for k, i in enumerate(bar):
            for j in bar[k:]:
                acc = {x * nb + r: v for r, v in pi_prod[i * n + j].items()}
                get = acc.get
                for y, z in ((i, j), (j, i)):       # x e_z (x) pi(e_y)
                    for l, c in prod[x * n + z].items():
                        for r, v in pi_e[y].items():
                            t = l * nb + r
                            acc[t] = get(t, 0) - c * v
                forms.append(_clean(acc, f.p))
    rows = _row_span(f, forms)
    return _mat(f, len(rows), n * nb, rows).transpose()


@_memo
def kahler_calculus(a: Algebra) -> FirstOrderCalculus:
    """Omega_u / I^2 of a commutative algebra, with its recorded phi, kernel
    N and section, built once per algebra instance (`_memo`; a refusal is not
    kept)."""
    if (witness := commutativity_witness(a)) is not None:
        i, j = witness
        raise PreconditionError(
            f"algebra is not commutative: e{i}*e{j} != e{j}*e{i}"
        )
    n = a.dim
    _bar, pi = _unit_complement(a)
    nb = pi.rows
    rel = kahler_relations(a)
    q, s = quotient_maps(rel, n * nb)
    lm = q * kron_id_mul(a.mult_mat, nb, n, s)
    rm = mul_swap(lm, q.rows, n)
    omega = _certified(Bimodule, left_alg=a, right_alg=a, dim=q.rows, left_mat=lm, right_mat=rm)
    d = q * kronecker(a.unit_mat, pi)
    # Certificate, in place of check_fodc, a closure check and
    # centrality_check:
    # 1. In the commutative ring A (x) A, with da = 1 (x) a - a (x) 1,
    #    b da - da b = -db da, so the sub-bimodule of Omega_u = I that the
    #    centrality relations da b - b da generate is the ideal generated by
    #    the products da db, which is I^2.
    # 2. dc da db = d(ca) db - c da db - a dc db, so that ideal is the left
    #    A-span of the de_i de_j, and de_i de_j = de_j de_i, so i <= j
    #    suffices, over the coordinates of A-bar only (the certificate in
    #    kahler_relations).  Equal subspaces have equal canonical bases, so
    #    N is the canonical basis of the saturated relations, and each
    #    matrix here is that of the quotient of Omega_u by them.
    # 3. N is an ideal, so it is closed under m (x) 1, the left action of
    #    Omega_u, and q (m (x) 1)(1 (x) s) is the induced left action.  For w
    #    in I, w c - c w = w dc lies in I^2, so the quotient is central and
    #    its right action is the left one through the swap.
    # 4. d = q d_u with d_u(a) = 1 (x) pi(a), so d is a derivation with
    #    d1 = 0 and A dA is the whole quotient: the calculus axioms.  q is
    #    phi: a0 (x) b is the form a0 d_u b of Omega_u, and q is a map of
    #    left modules, so q sends it to a0 q(d_u b) = a0 db; its kernel is N
    #    and s is a section of it.
    # tests/test_kahler.py holds every matrix to the saturated quotient of
    # Omega_u, and runs check_fodc and centrality_check on the results;
    # tests/test_fodc.py holds the recorded phi to the formula of fodc._phi.
    return _certified(FirstOrderCalculus, alg=a, omega=omega, d=d,
                      **{_phi.slot: q, _kernel.slot: rel, _section.slot: s})


def centrality_check(m: Bimodule) -> bool:
    """Left and right actions agree through the swap (central bimodule)."""
    if m.left_alg != m.right_alg or not is_commutative(m.left_alg):
        raise PreconditionError("centrality needs equal commutative acting algebras")
    n = m.left_alg.dim
    # the swaps M (x) A -> A (x) M and A (x) M -> M (x) A relabel columns
    return (m.right_mat == mul_swap(m.left_mat, m.dim, n)
            and m.left_mat == mul_swap(m.right_mat, n, m.dim))
