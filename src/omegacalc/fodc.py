"""First-order differential calculi and the universal calculus.

A calculus on A is an A-A bimodule Omega with a differential d: A -> Omega
satisfying the Leibniz rule and generated as a left module by dA.  With p
the unit's first nonzero coordinate, A-bar the span of the other basis
vectors and pi: A ->> A-bar, a -> a - (a_p / u_p) u, the universal calculus
is the normalized bar A (x) A-bar, a0 (x) b standing for a0 db
(Cuntz-Quillen 1995, section 1).  Every calculus is its quotient by the
kernel of phi: a0 (x) b -> a0 db, and the lattice of quotients matches the
lattice of action-closed subspaces.

`quotient_calculus` checks that its subspace is action-closed, with the
rule of `bimodule.quotient_bimodule`: a basis that the construction proving
it closed certified for this calculus's bimodule skips the witness, and
anything else runs it.  The certifying constructions are saturation, the
lattice enumeration and the preimage of a sub-bimodule under a bimodule
map, so transport (`scalars`), the lattice walkers and the CLI's relation
path pay no witness.  Every value kept below is kept by `linalg._memo`:
phi, its kernel and a section of it per calculus, recorded by a quotient of
the universal calculus when it is built, and the lattice of
`enumerate_action_closed_subspaces` per bimodule.  Each lattice member is a
saturation A . v . A or a sum of two members, runs no witness and keeps
its quotient bimodule (`bimodule._basis_quotient`), so a second round over
one lattice eliminates nothing and builds no quotient map.
"""
from __future__ import annotations

from .algebra import Algebra, AxiomError
from .bimodule import (
    BimodMap,
    Bimodule,
    _closed_basis,
    quotient_bimodule,
    zero_bimodule,
)
from .linalg import (
    LinAlgError,
    Mat,
    _certified,
    _clean,
    _mat,
    _memo,
    _row_span,
    kernel_basis,
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
    """A bimodule with a differential passing the full calculus check.

    The constructor checks every value given from outside.  The universal,
    zero, quotient and Kaehler calculi are built by `linalg._certified`
    instead, under the certificates written next to them.
    """

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
    """Omega_u = A (x) A-bar with d(a) = 1 (x) pi(a), plus the standard splitting.

    iota: a0 (x) b -> a0 (x) b - a0 b (x) 1 embeds Omega_u onto ker(m) in
    A(x)A, with iota d = (i (x) 1) - (1 (x) i); retraction = 1 (x) pi = (1 . d)
    satisfies retraction iota = id, and (d . 1) iota = -id.  Both are stored
    because later constructions move between Omega and A(x)A constantly.

    `universal_calculus(a)` is the only constructor, so every instance is in
    the A (x) A-bar basis.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("UniversalCalculus is built only by universal_calculus(a)")


def _unit_pivot(a: Algebra) -> int | None:
    """p, the unit's first nonzero coordinate, or None on the zero algebra."""
    return next((i for i, x in enumerate(a.unit) if x), None)


@_memo
def _unit_complement(a: Algebra) -> tuple[tuple[int, ...], Mat]:
    """The coordinates of A-bar, every one but the unit's pivot p, and
    pi: A ->> A-bar, built once per algebra instance (`_memo`).  The zero
    algebra has no pivot, so A-bar = 0 there and every component above
    degree 0 is zero."""
    f = a.field
    pivot = _unit_pivot(a)
    if pivot is None:
        return (), Mat.zeros(f, 0, 0)
    bar = tuple(j for j in range(a.dim) if j != pivot)
    # pi(a) = a - (a_p / u_p) u, read at the coordinates j != p
    lead = f.neg(f.inv(a.unit[pivot]))
    return bar, Mat.from_entries(f, len(bar), a.dim, [(r, j, 1) for r, j in enumerate(bar)] + [
        (r, pivot, f.mul(lead, a.unit[j])) for r, j in enumerate(bar)])


@_memo
def universal_calculus(a: Algebra) -> UniversalCalculus:
    """Degree 1 of the universal prolongation, with iota and retraction.

    Built once per algebra instance (`_memo`)."""
    from .prolong import _prolongation  # prolong builds on this module

    dims, diff, wedge, _quot = _prolongation(a, 1)
    omega = _certified(Bimodule, left_alg=a, right_alg=a, dim=dims[1],
                       left_mat=wedge[(0, 1)], right_mat=wedge[(1, 0)])
    n, f = a.dim, a.field
    bar, pi = _unit_complement(a)
    cols = [x * n + b for x in range(n) for b in bar]
    # iota: a0 (x) b -> a0 (x) b - a0 b (x) 1 on the columns of A (x) A at
    # A (x) A-bar, with a (x) b -> ab (x) 1 on them
    ones = Mat.from_entries(f, n * n, len(cols), [(col, j, 1) for j, col in enumerate(cols)])
    one_unit = Mat.from_entries(f, n * n, n, [(c * n + k, c, u) for c in range(n)
                                              for k, u in enumerate(a.unit) if u])
    iota = ones - one_unit * a.mult_mat.select_cols(cols)
    # the retraction 1 (x) pi: pi's rows repeated in n diagonal blocks
    retraction = Mat.from_entries(f, len(cols), n * n, [
        (x * len(bar) + r, x * n + j, v) for x in range(n)
        for r, row in enumerate(pi.data) for j, v in row.items()])
    # Certificate for iota and the retraction, in place of solving for them
    # on the kernel of multiplication:
    # 1. omega and d are degree 1 of the universal prolongation, whose
    #    certificate makes them a bimodule and a derivation: a0 (x) b is the
    #    form a0 db, so A . dA = omega, and d1 = 1 (x) pi(1) = 0.  These are
    #    the calculus axioms, so check_fodc does not run.
    # 2. iota sends a0 (x) b to the form a0 db of A (x) A, with
    #    db = 1 (x) b - b (x) 1.  The actions of omega are Leibniz identities
    #    of these forms, so iota is a bimodule map, and
    #    iota d(a) = 1 (x) pi(a) - pi(a) (x) 1 = 1 (x) a - a (x) 1, because
    #    pi only removes a multiple of the unit.
    # 3. (1 (x) pi) iota = id, because pi fixes A-bar and kills the unit; so
    #    iota is injective, and its image is all of ker m, which has
    #    dimension n^2 - n = dim omega because m is onto.  (1 (x) pi) is
    #    (1 . d), and (d . 1) iota = -id by Leibniz: da0 b - d(a0 b) = -a0 db.
    # tests/test_fodc.py holds iota to the kernel of multiplication and the
    # split identities on every fixture and generated algebra.
    return _certified(UniversalCalculus, alg=a, omega=omega, d=diff[0], iota=iota,
                      retraction=retraction)


def zero_calculus(a: Algebra) -> FirstOrderCalculus:
    """Omega = 0 with d = 0: every calculus axiom is an identity in 0."""
    return _certified(FirstOrderCalculus, alg=a, omega=zero_bimodule(a, a),
                      d=Mat.zeros(a.field, 0, a.dim))


@_memo
def _phi(c: FirstOrderCalculus) -> Mat:
    """phi: A (x) A-bar ->> Omega^1 of c, a0 (x) b -> a0 db, the unique
    calculus morphism from the universal calculus in its basis, built once
    per calculus instance.  A quotient of the universal calculus, and the
    Kaehler calculus, record their quotient map here when they are built."""
    a = c.alg
    bar, _pi = _unit_complement(a)
    # Certificate, in place of a bimodule-map check, an intertwining check
    # and a rank:
    # 1. phi is a bimodule map: it commutes with the left action m (x) 1, and
    #    the right action (a0 (x) b) e = a0 (x) pi(be) - a0 b (x) pi(e) maps
    #    to a0 d(be) - a0 b de = a0 db e, by Leibniz for c and d1 = 0.
    # 2. phi d_u = d: d_u(a) = 1 (x) pi(a) maps to d(pi a) = da, because pi
    #    only removes a multiple of the unit.
    # 3. phi is onto: its columns a0 db span A dA, and A dA = Omega^1 holds
    #    by construction for the certified calculi (universal_calculus,
    #    zero_calculus, quotient_calculus, kahler.kahler_calculus) and by
    #    the rank check_fodc ran when FirstOrderCalculus built any other.
    # tests/test_fodc.py runs bimod_map_report, phi d_u = d and the rank on
    # the universal, Kaehler, zero and two quotient calculi.
    return mul_id_kron(c.omega.left_mat, a.dim, c.d.select_cols(bar))


@_memo
def _kernel(c: FirstOrderCalculus) -> Mat:
    """Canonical basis of N = ker(phi: Omega_u -> c), the subobject that
    classifies c, built once per calculus instance.  A quotient of the
    universal calculus, and the Kaehler calculus, record their subspace here
    when they are built."""
    return kernel_basis(_phi(c))


@_memo
def _section(c: FirstOrderCalculus) -> Mat:
    """A section s of phi: Omega_u ->> c, phi s = I, built once per calculus
    instance.  A quotient of the universal calculus, and the Kaehler
    calculus, record the section their quotient map was built with; any
    other calculus solves for one.

    Certificate that the choice does not matter: two sections differ by a
    map into N = ker(phi).  The maximal prolongation applies s only to
    representatives it then reduces, where N enters as Omega^(k-1) . N and
    Omega^(k-2) ^ dN, both inside the relations R_k that every reduction
    kills; and the quotient coactions of `hopf.bicovariance_check` apply
    (1 (x) phi) lam_u and (phi (x) 1) rho_u to it, which kill N once N is a
    subcomodule.  So no output depends on which section is kept.
    tests/test_prolong.py and tests/test_hopf.py compare the outputs for a
    recorded and a solved section."""
    return solve(_phi(c), Mat.identity(c.alg.field, c.dim))


def induced_map(target: FirstOrderCalculus) -> BimodMap:
    """The unique calculus morphism from the universal calculus, phi.

    Existence, the universal property phi d_u = d and surjectivity are
    certified at `_phi`.  It is unique because Omega_u = A dA_u, so a
    bimodule map is fixed by its values on d_u(A); the tests check that no
    nonzero bimodule map kills d_u.
    """
    u = universal_calculus(target.alg)
    return _certified(BimodMap, source=u.omega, target=target.omega, matrix=_phi(target))


def quotient_calculus(c: FirstOrderCalculus, sub: Mat) -> tuple[FirstOrderCalculus, BimodMap]:
    """Quotient of a calculus by an action-closed subspace given by its
    canonical basis, with the projection onto the echelon complement of the
    subspace, so that repeated quotients are reproducible.  A subspace that
    is not action-closed is refused (`bimodule.quotient_bimodule`)."""
    quo, proj, s = quotient_bimodule(c.omega, sub)
    d_new = proj.matrix * c.d
    # Certificate, in place of check_fodc on the quotient: the subspace is
    # action-closed, checked or certified by quotient_bimodule, so
    # proj: c ->> c/N is an onto bimodule map, and d_new = proj d.  Then
    # Leibniz descends,
    # d_new(ab) = proj(da b + a db) = d_new(a) b + a d_new(b); proj maps
    # A dA = c onto A d_new(A), so that is c/N; and d_new(1) = proj d(1) = 0.
    # c itself is a calculus, checked or certified when it was built.
    # tests/test_fodc.py runs check_fodc on every quotient of the lattices.
    # phi of the universal calculus is the identity of A (x) A-bar, the basis
    # of every UniversalCalculus: a0 d_u b = a0 (x) b for b in A-bar.  So phi
    # of its quotient is a0 (x) b -> a0 d_new(b) = proj(a0 d_u b) (proj is a
    # bimodule map), which is proj itself, whose kernel is the subspace and
    # whose section is s.  tests/test_fodc.py holds the recorded phi to the
    # formula of _phi on every quotient of the enumerated lattices.
    split = {_phi.slot: proj.matrix, _kernel.slot: sub, _section.slot: s}
    result = _certified(FirstOrderCalculus, alg=c.alg, omega=quo, d=d_new,
                        **(split if isinstance(c, UniversalCalculus) else {}))
    return result, proj


def calculus_morphism_exists(src: FirstOrderCalculus, dst: FirstOrderCalculus) -> bool:
    """Calc morphisms src -> dst over one algebra exist iff ker(src) <= ker(dst)."""
    if src.alg != dst.alg:
        raise LinAlgError("calculi over different algebras")
    return subspace_leq(_kernel(src), _kernel(dst))


def sub_calculus_correspondence(a: Algebra, family: list[Mat]) -> list[dict]:
    """Round-trip each canonical sub-bimodule N through coker and back through ker."""
    u = universal_calculus(a)
    out = []
    for n in family:
        calc, proj = quotient_calculus(u, n)
        out.append({
            "sub_dim": n.cols,
            "calculus_dim": calc.dim,
            "roundtrip_equal": kernel_basis(proj.matrix) == n,
            "calculus": calc,
            "sub": n,
        })
    return out


def enumerate_action_closed_subspaces(m: Bimodule) -> list[Mat]:
    """A deterministic family of action-closed subspaces of m: saturations
    A . v . A and their sums, with no closure witness run.

    Over a prime field with few enough vectors it is exhaustive, every
    nonzero vector's saturation closed under sums; otherwise the saturations
    of each canonical basis vector e_i and each diagonal e_i +- e_j, and the
    sum of each two e_i's saturations.  Always contains 0 and the full
    space; results are deduplicated canonical bases.  Outside the exhaustive
    case the family depends on the basis of m: on Omega_u of M2(Q) it has 18
    members in A (x) A-bar, 14 in the echelon basis of ker(m).

    The family is built once per bimodule instance (`_closed_subspaces`);
    each call returns a new list of its members.
    """
    return list(_closed_subspaces(m))


@_memo
def _closed_subspaces(m: Bimodule) -> tuple[Mat, ...]:
    """The family of `enumerate_action_closed_subspaces`, built once per
    bimodule instance (`_memo`): bimodules are immutable and the enumeration
    is deterministic.  Each saturation or sum is one elimination of sparse
    rows (`linalg._row_span`), and members are compared on their reduced rows."""
    from itertools import combinations, product

    f, dim, nb = m.field, m.dim, m.right_alg.dim
    # Row (a*dim + k)*nb + b of w^T is e_a . e_k . e_b, so row a*nb + b of
    # gens[k], the rows with middle index k, is e_a . e_k . e_b, and that of
    # sum_k v_k gens[k] is e_a . v . e_b: its rows span A . v . A
    wt = mul_kron_id(m.right_mat, m.left_mat, nb).transpose().data
    gens = [[wt[(a * dim + k) * nb + b] for a in range(m.left_alg.dim) for b in range(nb)]
            for k in range(dim)]
    spans, found = [], {}

    def record(rows: list[dict]) -> int:
        """Keep the span of reduced rows, once; return its index in spans."""
        # canonical bases are equal iff their reduced rows are
        index = found.setdefault(tuple(frozenset(row.items()) for row in rows), len(spans))
        if index == len(spans):
            spans.append(rows)
        return index

    def saturation(v: dict) -> int:
        """Record A . v . A for v = {k: v_k} whose first coefficient is 1."""
        first, *rest = v
        rows = gens[first]
        if rest:
            # each row starts from a copy of the first term's
            rows = [dict(row) for row in rows]
            for k in rest:
                c = v[k]
                for row, term in zip(rows, gens[k]):
                    get = row.get
                    for col, x in term.items():
                        row[col] = get(col, 0) + c * x
            rows = [_clean(row, f.p) for row in rows]
        return record(_row_span(f, rows))

    record([])
    record([{i: 1} for i in range(dim)])
    exhaustive = not f.is_rational and (f.p ** dim - 1) <= 15
    if exhaustive:
        # every action-closed W is the sum of the saturations of its
        # vectors, and v and its multiples have one saturation, so the
        # vectors whose first nonzero coordinate is 1 give every member
        vectors = [{k: c for k, c in enumerate(v) if c}
                   for v in product(range(f.p), repeat=dim) if next(filter(None, v), 0) == 1]
    else:
        vectors = [{k: 1} for k in range(dim)]
        # diagonal directions catch the subspaces missed by pure basis spans
        for i, j in combinations(range(dim), 2):
            for sign in (1, -1):
                saturation({i: 1, j: sign})
    singles = {saturation(v) for v in vectors}
    # each round adds every single to each member the last one found; a
    # single is recorded before any sum, so y < x takes each pair of
    # singles once in the first round and every single after it.  Outside
    # the exhaustive case one round, the pairs of singles, is the family
    fresh = singles
    while fresh:
        known = len(spans)
        for x, y in product(fresh, singles):
            if y < x:
                record(_row_span(f, spans[x] + spans[y]))
        fresh = range(known, len(spans)) if exhaustive else ()
    # Certificate, in place of the closure witness: 0 and the whole space
    # are action-closed; A . v . A is, as saturate_subspace's certificate
    # shows; and so is the sum of two closed subspaces V and W, because
    # a . (V + W) . b = a . V . b + a . W . b.  tests/test_fodc.py runs the
    # witness on every member.
    members = [_closed_basis(m, _mat(f, len(rows), dim, rows).transpose()) for rows in spans]
    return tuple(sorted(members, key=lambda s: (
        s.cols, tuple(tuple(map(f.format, row)) for row in s.dense_rows()))))
