"""The Kaehler calculus of a commutative algebra.

Realized as the quotient of the universal calculus by the image of
(d . 1) - (1 . d) swap on A(x)A, which forces a . db = db . a; the result is
the classical module of Kaehler differentials together with its universal
derivation.  Only the symmetric swap braiding is supported.
"""

from __future__ import annotations

from .algebra import Algebra, commutativity_witness, is_commutative
from .bimodule import Bimodule, saturate_subspace
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    _memo,
    quotient_calculus,
    universal_calculus,
)
from .linalg import Mat, image_basis, mul_id_kron, mul_kron_id, swap_matrix


def kahler_relations(a: Algebra) -> Mat:
    """The centrality relations in the universal calculus of a: the
    sub-bimodule generated by the image of (d . 1) - (1 . d) swap on A(x)A.

    The coequalizer lives in bimodules, so the plain image is closed up under
    both actions (for dim >= 3 it is not action-closed on its own).
    """
    u = universal_calculus(a)
    d_one = mul_kron_id(u.omega.right_mat, u.d, a.dim)
    one_d = mul_id_kron(u.omega.left_mat, a.dim, u.d)
    rel = d_one - one_d * swap_matrix(a.field, a.dim, a.dim)
    return saturate_subspace(u.omega, image_basis(rel))


@_memo
def kahler_calculus(a: Algebra) -> FirstOrderCalculus:
    """The central quotient of the universal calculus of a commutative algebra,
    built once per algebra instance (`_memo`; a refusal is not kept)."""
    if not is_commutative(a):
        i, j = commutativity_witness(a)
        raise PreconditionError(
            f"algebra is not commutative: e{i}*e{j} != e{j}*e{i}"
        )
    calc, _proj = quotient_calculus(universal_calculus(a), kahler_relations(a))
    # Certificate that the quotient is central, in place of centrality_check:
    # the relations hold (d . 1 - (1 . d) swap)(a (x) b) = da b - b da for
    # all a, b, and they are saturated, so the quotient is a bimodule in
    # which da b = b da.  Its elements are sums x db with x in A (the
    # quotient is a calculus), and for those
    # (x db) c = x (db c) = x (c db) = (xc) db = (cx) db = c (x db),
    # by associativity and commutativity of A.  So the left and right actions
    # agree through the swap.  tests/test_kahler.py runs centrality_check on
    # the Kaehler calculus of every commutative fixture and of generated
    # truncated polynomial, group and product algebras over Q and GF(p).
    return calc


def centrality_check(m: Bimodule) -> bool:
    """Left and right actions agree through the swap (central bimodule)."""
    if m.left_alg != m.right_alg or not is_commutative(m.left_alg):
        raise PreconditionError("centrality needs equal commutative acting algebras")
    n = m.left_alg.dim
    f = m.field
    swap_ma = swap_matrix(f, m.dim, n)  # M (x) A -> A (x) M
    swap_am = swap_matrix(f, n, m.dim)  # A (x) M -> M (x) A
    return (
        m.right_mat == m.left_mat * swap_ma
        and m.left_mat == m.right_mat * swap_am
    )
