"""First-order differential calculi and the universal calculus.

A calculus on A is an A-A bimodule Omega with a differential d: A -> Omega
satisfying the Leibniz rule and generated as a left module by dA.  The
universal calculus is the kernel of the multiplication A(x)A -> A with
iota(d(a)) = 1(x)a - a(x)1; every calculus is one of its quotients, and the
lattice of quotients matches the lattice of action-closed subspaces.
"""

from __future__ import annotations

from .algebra import Algebra, AxiomError
from .bimodule import (
    BimodMap,
    Bimodule,
    action_closed,
    bimodule_hom_basis,
    quotient_bimodule,
    saturate_subspace,
    tensor_over_algebra,
    tensor_square_bimodule,
    zero_bimodule,
)
from .linalg import (
    EngineError,
    LinAlgError,
    Mat,
    factor_through_surjection,
    image_basis,
    kernel_basis,
    kronecker,
    mul_id_kron,
    mul_kron_id,
    rank,
    solve,
    subspace_leq,
)


class PreconditionError(ValueError):
    """An operation was invoked outside its stated precondition."""


class FodcReport:
    """Outcome of the calculus axiom check.

    classification is one of "not_generalized", "generalized_only", "fodc".
    Surjectivity is read as Omega = A dA.  Under Leibniz it is the same as
    Omega = dA A and as Omega = A dA A, because a db = d(ab) - da b; the
    test suite compares the three ranks.
    """

    def __init__(self, leibniz, left_surjective, d_kills_unit, witnesses):
        self.leibniz = leibniz
        self.left_surjective = left_surjective
        self.d_kills_unit = d_kills_unit
        self.witnesses = witnesses
        if not leibniz:
            self.classification = "not_generalized"
        elif left_surjective:
            self.classification = "fodc"
        else:
            self.classification = "generalized_only"


def check_fodc(a: Algebra, omega: Bimodule, d: Mat) -> FodcReport:
    """Classify (Omega, d) as fodc / generalized-only / not even generalized."""
    if omega.left_alg != a or omega.right_alg != a:
        raise LinAlgError("omega must be an A-A bimodule over the given algebra")
    if (d.rows, d.cols) != (omega.dim, a.dim):
        raise LinAlgError("differential has wrong shape")
    witnesses = []
    one_d = mul_id_kron(omega.left_mat, a.dim, d)
    d_one = mul_kron_id(omega.right_mat, d, a.dim)
    # d m - (d . 1 + 1 . d) as a matrix A(x)A -> Omega; zero iff Leibniz holds
    defect = d * a.mult_mat - (d_one + one_d)
    leibniz = defect.is_zero()
    if not leibniz:
        n = a.dim
        for col in range(defect.cols):
            if any(defect.column(col)):
                witnesses.append(f"Leibniz fails on e{col // n} (x) e{col % n}")
                break
    left_rank = rank(one_d)
    if left_rank != omega.dim:
        witnesses.append(
            f"dA generates a left submodule of dimension {left_rank} < {omega.dim}"
        )
    d_unit = d * a.unit_mat
    if not d_unit.is_zero():
        witnesses.append("d(1) != 0")
    return FodcReport(leibniz, left_rank == omega.dim, d_unit.is_zero(), witnesses)


class FirstOrderCalculus:
    """A bimodule with a differential passing the full calculus check."""

    def __init__(self, alg: Algebra, omega: Bimodule, d: Mat):
        report = check_fodc(alg, omega, d)
        if report.classification != "fodc":
            raise AxiomError(
                [f"not a first-order calculus ({report.classification})"]
                + report.witnesses
            )
        self.alg = alg
        self.omega = omega
        self.d = d

    @property
    def dim(self) -> int:
        return self.omega.dim

    def __repr__(self):
        return f"FirstOrderCalculus(dim={self.dim} over algebra of dim {self.alg.dim})"


class UniversalCalculus(FirstOrderCalculus):
    """ker(m) with iota d = (i (x) 1) - (1 (x) i), plus the standard splitting.

    iota embeds Omega into A(x)A and retraction = (1 . d) satisfies
    retraction iota = id; the right-action composite satisfies
    (d . 1) iota = -id.  Both are stored because later constructions move
    between Omega and A(x)A constantly.
    """

    def __init__(self, alg: Algebra, omega: Bimodule, d: Mat, iota: Mat, retraction: Mat):
        super().__init__(alg, omega, d)
        self.iota = iota
        self.retraction = retraction


def universal_calculus(a: Algebra) -> UniversalCalculus:
    f = a.field
    i_n = Mat.identity(f, a.dim)
    iota = kernel_basis(a.mult_mat)
    sq = tensor_square_bimodule(a)
    lm = solve(iota, mul_id_kron(sq.left_mat, a.dim, iota))
    rm = solve(iota, mul_kron_id(sq.right_mat, iota, a.dim))
    if lm is None or rm is None:
        raise EngineError("kernel of multiplication is not action-closed")
    omega = Bimodule(a, a, iota.cols, lm, rm, check=False)
    d0 = kronecker(a.unit_mat, i_n) - kronecker(i_n, a.unit_mat)
    d = solve(iota, d0)
    if d is None:
        raise EngineError("universal differential does not factor through the kernel")
    retraction = mul_id_kron(lm, a.dim, d)
    if retraction * iota != Mat.identity(f, iota.cols):
        raise EngineError("retraction identity (1 . d) iota = id fails")
    if mul_kron_id(rm, d, a.dim) * iota != -Mat.identity(f, iota.cols):
        raise EngineError("split identity (d . 1) iota = -id fails")
    return UniversalCalculus(a, omega, d, iota, retraction)


def zero_calculus(a: Algebra) -> FirstOrderCalculus:
    return FirstOrderCalculus(a, zero_bimodule(a, a), Mat.zeros(a.field, 0, a.dim))


def induced_map(u: UniversalCalculus, target: FirstOrderCalculus) -> BimodMap:
    """The unique calculus morphism from the universal calculus.

    f = (1 . d_target) iota; the target passed the calculus check when it was
    built, existence and the universal property f d_u = d are verified,
    surjectivity is asserted, and uniqueness is certified by checking that no
    nonzero bimodule map kills d_u.
    """
    if target.alg != u.alg:
        raise LinAlgError("calculi over different algebras")
    f_mat = mul_id_kron(target.omega.left_mat, u.alg.dim, target.d) * u.iota
    f = BimodMap(u.omega, target.omega, f_mat, check=True)
    if f_mat * u.d != target.d:
        raise EngineError("induced map does not intertwine the differentials")
    if rank(f_mat) != target.dim:
        raise EngineError("induced map from the universal calculus is not surjective")
    return f


def induced_map_is_unique(u: UniversalCalculus, target: FirstOrderCalculus) -> bool:
    """No nonzero bimodule map Omega_u -> target kills d_u (0-dim solution space)."""
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


def quotient_calculus(c: FirstOrderCalculus, sub_basis: Mat) -> tuple[FirstOrderCalculus, BimodMap]:
    """Quotient of a calculus by an action-closed subspace, with the projection.

    The quotient basis is the echelon complement of the subspace, so repeated
    quotients are reproducible.
    """
    basis = image_basis(sub_basis)
    quo, proj, _s = quotient_bimodule(c.omega, basis)
    d_new = proj.matrix * c.d
    result = FirstOrderCalculus(c.alg, quo, d_new)
    return result, BimodMap(c.omega, result.omega, proj.matrix, check=False)


def kernel_from_universal(u: UniversalCalculus, c: FirstOrderCalculus) -> Mat:
    """Canonical basis of ker(Omega_u -> c), the subobject classifying c."""
    return kernel_basis(induced_map(u, c).matrix)


def calculus_morphism_exists(u: UniversalCalculus, src: FirstOrderCalculus,
                             dst: FirstOrderCalculus) -> bool:
    """Calc morphisms src -> dst over one algebra exist iff ker(src) <= ker(dst)."""
    return subspace_leq(kernel_from_universal(u, src), kernel_from_universal(u, dst))


def calculus_morphism(u: UniversalCalculus, src: FirstOrderCalculus,
                      dst: FirstOrderCalculus) -> Mat | None:
    """The unique morphism matrix src -> dst when it exists, else None."""
    f_src = induced_map(u, src).matrix
    f_dst = induced_map(u, dst).matrix
    return factor_through_surjection(f_dst, f_src)


def sub_calculus_correspondence(a: Algebra, family: list[Mat]) -> list[dict]:
    """Round-trip each sub-bimodule N through coker and back through ker."""
    u = universal_calculus(a)
    out = []
    for n_basis in family:
        n_canonical = image_basis(n_basis)
        calc, proj = quotient_calculus(u, n_canonical)
        back = kernel_basis(proj.matrix)
        out.append({
            "sub_dim": n_canonical.cols,
            "calculus_dim": calc.dim,
            "roundtrip_equal": back == n_canonical,
            "calculus": calc,
            "sub": n_canonical,
        })
    return out


def enumerate_action_closed_subspaces(m: Bimodule, max_generators: int = 2) -> list[Mat]:
    """A deterministic family of action-closed subspaces of m.

    Over a prime field with few enough vectors the enumeration is exhaustive
    over all spans of nonzero vectors; otherwise it saturates every subset of
    canonical basis vectors of size <= max_generators.  Always contains 0 and
    the full space; results are deduplicated canonical bases.
    """
    from itertools import combinations, product

    f = m.field
    found: dict = {}

    def record(basis: Mat):
        closed = saturate_subspace(m, basis) if basis.cols else basis
        key = (closed.cols, tuple(tuple(map(f.format, row)) for row in closed.dense_rows()))
        found.setdefault(key, closed)

    zero = Mat.zeros(f, m.dim, 0)
    found[(0, tuple(tuple() for _ in range(m.dim)))] = zero
    record(Mat.identity(f, m.dim))
    if not f.is_rational and (f.p ** m.dim - 1) <= 15:
        vectors = [v for v in product(range(f.p), repeat=m.dim) if any(v)]
        for r in range(1, len(vectors) + 1):
            for subset in combinations(vectors, r):
                span = image_basis(Mat.from_cols(f, [list(v) for v in subset], rows=m.dim))
                if action_closed(m, span) is None:
                    key = (span.cols, tuple(tuple(map(f.format, row)) for row in span.dense_rows()))
                    found.setdefault(key, span)
    else:
        basis_vectors = [Mat.identity(f, m.dim).column(i) for i in range(m.dim)]
        indices = range(m.dim)
        for r in range(1, max_generators + 1):
            for subset in combinations(indices, r):
                cols = [basis_vectors[i] for i in subset]
                record(Mat.from_cols(f, cols, rows=m.dim))
        # diagonal directions catch the subspaces missed by pure basis spans
        for i, j in combinations(indices, 2):
            for sign in (f.one(), f.neg(f.one())):
                vec = [f.zero()] * m.dim
                vec[i] = f.one()
                vec[j] = sign
                record(Mat.from_cols(f, [vec], rows=m.dim))
    return [found[k] for k in sorted(found.keys(), key=lambda t: (t[0], t[1]))]


def kernel_counit_comparison(u: UniversalCalculus, left_module: Bimodule) -> dict:
    """ker(mu_M: A(x)M -> M) vs Omega_u (x)_A M, with the explicit inverse pair.

    left_module is an (A, field) bimodule.  Returns both dimensions and the
    two comparison matrices; "invertible" certifies they are mutually inverse.
    """
    a = u.alg
    f = a.field
    if left_module.left_alg != a:
        raise LinAlgError("module is not over the calculus algebra")
    mu = left_module.left_mat
    k_basis = kernel_basis(mu)
    t_mod, q = tensor_over_algebra(u.omega, left_module)
    g_rhs = mul_kron_id(kronecker(Mat.identity(f, a.dim), mu), u.iota, left_module.dim)
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
