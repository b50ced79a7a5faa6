"""A-B bimodules, and the constructions the calculi are built from:
sub-bimodules, quotients, saturation, the tensor product over an algebra
and the square-zero extension A (+) M.

Actions are kept as matrices: left_mat: A(x)M -> M and right_mat: M(x)B -> M
in the fixed row-major tensor basis.  Left modules and right modules are the
special cases where one side is the base field viewed as a 1-dimensional
algebra, so a single type covers all three notions.

`Bimodule` and `BimodMap` always check their axioms.  The sub-bimodules,
quotients, tensor products and zero bimodule built here, and their
inclusions and projections, satisfy them by construction and are built by
`linalg._certified` under the proof written at each call.
`quotient_bimodule` refuses a subspace that is not action-closed, reading
the closure off its quotient map (`_closure_witness`), with one rule: a
basis that the construction proving it closed certified for this bimodule
(`_closed_basis`) skips the witness, and anything else runs it.  The
quotient by such a basis is kept on it by `linalg._memo` (`_basis_quotient`),
and so are its quotient maps alone (`_basis_maps`); every other input
builds a fresh quotient and keeps nothing.
"""

from __future__ import annotations

from .algebra import Algebra, AxiomError
from .linalg import (
    LinAlgError,
    Mat,
    _certified,
    _memo,
    image_basis,
    kronecker,
    mul_id_kron,
    mul_kron_id,
    quotient_maps,
    solve,
)


def bimodule_axiom_report(a: Algebra, b: Algebra, dim: int, left_mat: Mat, right_mat: Mat) -> list[str]:
    report = []
    i_m = Mat.identity(a.field, dim)
    if (left_mat.rows, left_mat.cols) != (dim, a.dim * dim):
        raise LinAlgError("left action matrix has wrong shape")
    if (right_mat.rows, right_mat.cols) != (dim, dim * b.dim):
        raise LinAlgError("right action matrix has wrong shape")
    if mul_kron_id(left_mat, a.mult_mat, dim) != mul_id_kron(left_mat, a.dim, left_mat):
        report.append("left action not associative")
    if mul_kron_id(left_mat, a.unit_mat, dim) != i_m:
        report.append("left action not unital")
    if mul_kron_id(right_mat, right_mat, b.dim) != mul_id_kron(right_mat, dim, b.mult_mat):
        report.append("right action not associative")
    if mul_id_kron(right_mat, dim, b.unit_mat) != i_m:
        report.append("right action not unital")
    if mul_id_kron(left_mat, a.dim, right_mat) != mul_kron_id(right_mat, left_mat, b.dim):
        report.append("left and right actions do not commute (middle associativity)")
    return report


class Bimodule:
    """An (A, B)-bimodule on a finite-dimensional space."""

    def __init__(self, left_alg: Algebra, right_alg: Algebra, dim: int,
                 left_mat: Mat, right_mat: Mat):
        if left_alg.field != right_alg.field:
            raise LinAlgError("bimodule algebras over different fields")
        report = bimodule_axiom_report(left_alg, right_alg, dim, left_mat, right_mat)
        if report:
            raise AxiomError(report)
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_mat = left_mat
        self.right_mat = right_mat

    @property
    def field(self):
        return self.left_alg.field

    def __eq__(self, other):
        return (
            isinstance(other, Bimodule)
            and self.left_alg == other.left_alg
            and self.right_alg == other.right_alg
            and self.dim == other.dim
            and self.left_mat == other.left_mat
            and self.right_mat == other.right_mat
        )

    def __repr__(self):
        return f"Bimodule(dim={self.dim} over ({self.left_alg.dim}, {self.right_alg.dim}))"


class BimodMap:
    """Morphism of (A, B)-bimodules."""

    def __init__(self, source: Bimodule, target: Bimodule, matrix: Mat):
        if source.left_alg != target.left_alg or source.right_alg != target.right_alg:
            raise LinAlgError("bimodule morphism between different algebra pairs")
        if (matrix.rows, matrix.cols) != (target.dim, source.dim):
            raise LinAlgError("morphism matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix
        report = bimod_map_report(self)
        if report:
            raise AxiomError(report)

    def __repr__(self):
        return f"BimodMap({self.source.dim} -> {self.target.dim})"


def bimod_map_report(f: BimodMap) -> list[str]:
    report = []
    na = f.source.left_alg.dim
    nb = f.source.right_alg.dim
    if f.matrix * f.source.left_mat != mul_id_kron(f.target.left_mat, na, f.matrix):
        report.append("does not commute with the left action")
    if f.matrix * f.source.right_mat != mul_kron_id(f.target.right_mat, f.matrix, nb):
        report.append("does not commute with the right action")
    return report


def build_square_zero(a: Algebra, m: Bimodule) -> Algebra:
    """The square-zero extension A (+) M: (a,m)(a',m') = (aa', a m' + m a'),
    its structure constants read off the sparse rows of the multiplication
    of A and of the two actions of M."""
    if not isinstance(m, Bimodule):
        raise LinAlgError("second argument must be a bimodule")
    if m.left_alg != a or m.right_alg != a:
        raise LinAlgError("bimodule must be an A-A bimodule over the given algebra")
    n, d = a.dim, m.dim
    dim = n + d
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for k, row in enumerate(a.mult_mat.data):
        for col, x in row.items():
            mult[col // n][col % n][k] = x
    for v, row in enumerate(m.left_mat.data):
        for col, x in row.items():
            mult[col // d][n + col % d][n + v] = x
    for v, row in enumerate(m.right_mat.data):
        for col, x in row.items():
            mult[n + col // n][col % n][n + v] = x
    unit = list(a.unit) + [0] * d
    labels = list(a.basis_labels) + [f"m{u}" for u in range(d)]
    return Algebra(a.field, dim, mult, unit, labels)


def zero_bimodule(a: Algebra, b: Algebra) -> Bimodule:
    """The zero (A, B)-bimodule: every axiom is an identity in 0."""
    if a.field != b.field:
        raise LinAlgError("bimodule algebras over different fields")
    zero = Mat.zeros(a.field, 0, 0)
    return _certified(Bimodule, left_alg=a, right_alg=b, dim=0, left_mat=zero, right_mat=zero)


# ---------------------------------------------------------------------------
# sub/quotient machinery
# ---------------------------------------------------------------------------

class _ClosedBasis(Mat):
    """A canonical basis of a sub-bimodule of `ambient`, certified by the
    construction that proved it closed, with a `__dict__` where
    `_basis_quotient` keeps the quotient by it.  Every operation on it
    returns a plain `Mat`, uncertified, and it equals its plain twin."""

    __slots__ = ("ambient", "__dict__")

    def __init__(self, *args, **kwargs):
        raise TypeError("_ClosedBasis is built only by bimodule._closed_basis(m, basis)")


def _closed_basis(m: Bimodule, basis: Mat) -> _ClosedBasis:
    """basis, certified for m: quotient_bimodule(m, .) skips the witness on
    it, and each caller states its proof that the span is closed."""
    return _certified(_ClosedBasis, field=basis.field, rows=basis.rows, cols=basis.cols,
                      data=basis.data, ambient=m)


def _closure_witness(q_left: Mat, q_right: Mat, na: int, nb: int, basis: Mat) -> str | None:
    """None if col(basis) is closed under both actions, else a witness string.

    q_left = Q.left_mat and q_right = Q.right_mat for a map Q whose kernel is
    exactly col(basis), so basis is closed iff Q kills every e_i . b_l and
    every b_l . e_j.  Column i*k + l of the left product is e_i . b_l and
    column l*nb + j of the right one is b_l . e_j; the witness names the
    smallest such i, then the smallest such j.
    """
    left = mul_id_kron(q_left, na, basis)
    col = min((c for row in left.data for c in row), default=None)
    if col is not None:
        return f"left action of e{col // basis.cols} leaves the subspace"
    right = mul_kron_id(q_right, basis, nb)
    j = min((c % nb for row in right.data for c in row), default=None)
    if j is not None:
        return f"right action of e{j} leaves the subspace"
    return None


def action_closed(m: Bimodule, basis: Mat) -> str | None:
    """None if col(basis) is closed under both actions, else a witness string.
    The basis need not be canonical: the witness is read off the quotient
    map of its canonical span."""
    span = image_basis(basis)
    q, _s = quotient_maps(span, m.dim)
    return _closure_witness(q * m.left_mat, q * m.right_mat, m.left_alg.dim, m.right_alg.dim, span)


def sub_bimodule(m: Bimodule, basis: Mat) -> tuple[Bimodule, BimodMap]:
    """The sub-bimodule on an action-closed span of a basis, with its inclusion."""
    lm = solve(basis, mul_id_kron(m.left_mat, m.left_alg.dim, basis))
    rm = solve(basis, mul_kron_id(m.right_mat, basis, m.right_alg.dim))
    if lm is None or rm is None:
        side = "left" if lm is None else "right"
        raise LinAlgError(f"subspace is not closed under the {side} action")
    # the actions are those of m restricted to an action-closed span, read
    # back through the basis, so sub is a bimodule and basis a map into m
    sub = _certified(Bimodule, left_alg=m.left_alg, right_alg=m.right_alg, dim=basis.cols,
                     left_mat=lm, right_mat=rm)
    return sub, _certified(BimodMap, source=sub, target=m, matrix=basis)


def _mul_section(x: Mat, p: int, s: Mat, q: int) -> Mat:
    """x (I_p (x) s (x) I_q) for a section s of `quotient_maps`, as a column
    selection with no arithmetic: s is 0/1 with s e_a = e_c, c the a-th
    ambient coordinate off the pivot rows, so column (i s.cols + a) q + l of
    the product is column (i s.rows + c) q + l of x."""
    compl = [c for c, row in enumerate(s.data) if row]
    return x.select_cols([(i * s.rows + c) * q + l
                          for i in range(p) for c in compl for l in range(q)])


def quotient_bimodule(m: Bimodule, sub_canonical: Mat) -> tuple[Bimodule, BimodMap, Mat]:
    """Quotient by an action-closed subspace: (quotient, projection, section).

    Refuses a subspace that is not action-closed, with the witness of
    `_closure_witness`, unless it is a basis certified for m itself; the
    quotient by such a basis is built once and kept on it (`_basis_quotient`)."""
    if isinstance(sub_canonical, _ClosedBasis) and sub_canonical.ambient is m:
        return _basis_quotient(sub_canonical)
    q, s = quotient_maps(sub_canonical, m.dim)
    q_left, q_right = q * m.left_mat, q * m.right_mat
    witness = _closure_witness(q_left, q_right, m.left_alg.dim, m.right_alg.dim, sub_canonical)
    if witness is not None:
        raise LinAlgError(f"subspace is not action-closed: {witness}")
    return _quotient_by_maps(m, q, s, q_left, q_right)


@_memo
def _basis_quotient(basis: _ClosedBasis) -> tuple[Bimodule, BimodMap, Mat]:
    """The quotient of `basis.ambient` by a basis certified for it, with no
    witness, built once per basis (`_memo`): it reads only the immutable
    ambient and basis, and refers to the ambient, never back to the basis."""
    m = basis.ambient
    q, s = _basis_maps(basis)
    return _quotient_by_maps(m, q, s, q * m.left_mat, q * m.right_mat)


@_memo
def _basis_maps(basis: _ClosedBasis) -> tuple[Mat, Mat]:
    """`quotient_maps` of a certified basis, built once per basis (`_memo`):
    the quotient by it reads them, and so does a caller that needs only the
    projection, which then builds no action."""
    return quotient_maps(basis, basis.ambient.dim)


def _quotient_by_maps(m: Bimodule, q: Mat, s: Mat, q_left: Mat, q_right: Mat
                      ) -> tuple[Bimodule, BimodMap, Mat]:
    """(quotient, projection, section) of m from the quotient maps (q, s) of
    an action-closed subspace, q_left = q m.left_mat and q_right = q m.right_mat."""
    lm = _mul_section(q_left, m.left_alg.dim, s, 1)
    rm = _mul_section(q_right, 1, s, m.right_alg.dim)
    # the actions of m descend through q because its kernel is action-closed,
    # checked by quotient_bimodule or certified, so quo is a bimodule and q
    # an onto map
    quo = _certified(Bimodule, left_alg=m.left_alg, right_alg=m.right_alg, dim=q.rows,
                     left_mat=lm, right_mat=rm)
    return quo, _certified(BimodMap, source=m, target=quo, matrix=q), s


def saturate_subspace(m: Bimodule, gens) -> Mat:
    """Canonical basis of the sub-bimodule A . V . A generated by V = span(gens)."""
    if isinstance(gens, Mat):
        v = gens
    else:
        if any(len(g) != m.dim for g in gens):
            raise LinAlgError("generator has wrong dimension")
        v = Mat.from_cols(m.field, [list(g) for g in gens], rows=m.dim)
    # Certificate that this is the smallest action-closed subspace holding V:
    # the actions are unital, so V = 1 . V . 1 lies in A . V . A.  A . A = A,
    # so A . V is a left submodule.  The two actions commute, so
    # a . ((A . V) . A) = (a A . V) . A, and ((A . V) . A) . b =
    # (A . V) . (A b): the span is closed on both sides, and every
    # action-closed subspace holding V holds it, so the result is certified
    # for m.  tests/test_bimodule.py holds it to saturation by a fixpoint
    # loop and runs the closure witness on it.
    left = image_basis(mul_id_kron(m.left_mat, m.left_alg.dim, v))
    return _closed_basis(m, image_basis(mul_kron_id(m.right_mat, left, m.right_alg.dim)))


# ---------------------------------------------------------------------------
# tensor product over an algebra
# ---------------------------------------------------------------------------

def tensor_over_algebra(m: Bimodule, n: Bimodule) -> tuple[Bimodule, Mat]:
    """M (x)_B N as the cokernel of (nu_M (x) 1 - 1 (x) mu_N), with its quotient map."""
    if m.right_alg != n.left_alg:
        raise LinAlgError("tensor product over mismatched algebras")
    f = m.field
    i_m = Mat.identity(f, m.dim)
    i_n = Mat.identity(f, n.dim)
    rel = kronecker(m.right_mat, i_n) - kronecker(i_m, n.left_mat)
    q, s = quotient_maps(image_basis(rel), m.dim * n.dim)
    lm = _mul_section(mul_kron_id(q, m.left_mat, n.dim), m.left_alg.dim, s, 1)
    rm = _mul_section(mul_id_kron(q, m.dim, n.right_mat), 1, s, n.right_alg.dim)
    # the outer actions of M (x) N commute with the relations, so they
    # descend to the cokernel, which is a bimodule
    t = _certified(Bimodule, left_alg=m.left_alg, right_alg=n.right_alg, dim=q.rows,
                   left_mat=lm, right_mat=rm)
    return t, q
