"""Differential calculi in all degrees: the universal and maximal
prolongations of first-order calculi, built by one route, the trivial
extension, and the dg map from the universal prolongation onto a maximal
one.

With A-bar and pi: A ->> A-bar as in `fodc` (pi kills the unit, so
d(pi a) = da), every first-order calculus is a quotient
Omega^1 = (A (x) A-bar) / N of the universal one: a0 (x) b maps to a0 db,
and N is the kernel.  Because (x)_A is right exact, its maximal
prolongation is, one degree at a time,

    Omega^k = (Omega^(k-1) (x) A-bar) / (Omega^(k-1) . N + Omega^(k-2) ^ dN),

with x (x) b standing for x ^ db (Woronowicz 1989; Beggs-Majid 2020,
section 1.5).  The universal prolongation is the case N = 0, the
normalized-bar presentation Omega^k = A (x) A-bar^(x)k of a0 da1 ... dak
(Cuntz-Quillen 1995).  In these bases each map is read off a Leibniz
identity, applied to the representatives x (x) b and reduced by the
quotient map: (x db) c = x d(pi(bc)) - (x b) d(pi c) gives the right
action, x ^ (y ^ db) = (x ^ y) ^ db the wedges and d(x ^ db) = dx ^ db the
differential.  The dg map from the universal prolongation onto a maximal
prolongation is read off the two presentations too: the universal dg
algebra is initial, and x (x) b stands for x ^ db in both, so
h^k = Q_k (h^(k-1) (x) I) with Q_k the quotient map of degree k
(`MaximalProlongation.from_universal`).  No map lives in the Amitsur
complex A^(x)(k+1).

The public GradedCalculus constructor checks the shapes and d.d = 0.  The
three constructions run neither that nor a full graded axiom check: they
build their results by `linalg._certified`, and the dg map re-checks
neither d nor a wedge.  Each carries a written certificate next to its
code: the Cuntz-Quillen basis for the universal prolongation, the
presentation with right exactness for the maximal prolongation, the zero
components above degree 1 for the trivial extension, and initiality and
the two presentations for the map from the universal prolongation.  The
test suite holds each result to the full graded axiom check and the
universal prolongation to the Amitsur complex (`tests/oracles.py`).

No Kronecker product is built only to be multiplied.  The relations, the
wedges and the differentials are products (x (x) I)(I (x) m), with m the
relations or a section, and `linalg.kron_id_mul` applies both identity
factors blockwise; the right action is written entry by entry from its
Leibniz identity.  A Kronecker product x (x) I is formed only where it is
the map itself: in the universal case, where no section is applied.

A prolongation builds its wedge maps on first read.  The degree loop
builds the dims, the quotient maps and the differentials; each wedge is
built from its identity when a caller first reads it, and kept, and its
shape is checked then.  So the dims, the differentials and cohomology
cost no wedge beyond the actions the relations read, and neither does the
map from the universal prolongation, which reads the quotient maps only.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache, cached_property

from .algebra import Algebra
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    _kernel,
    _phi,
    _section,
    _unit_complement,
)
from .linalg import (
    LinAlgError,
    Mat,
    _certified,
    _clean,
    _mat,
    image_basis,
    kron_id_mul,
    kronecker,
    mul_kron_id,
    quotient_maps,
)


def _check_wedge(dims: list[int], i: int, j: int, w: Mat) -> None:
    if (w.rows, w.cols) != (dims[i + j], dims[i] * dims[j]):
        raise LinAlgError(f"wedge ({i},{j}) has wrong shape")


class _Wedges(Mapping):
    """The wedge maps (i, j), i + j <= max_degree, of a graded calculus with
    components of the given dims, each built by make(self, i, j) on its
    first read, checked against dims and kept in `built`, which holds (0, 0)
    and may hold more from the start.  make(i, j) reads (i, j - 1), or
    (i - 1, 0) where j = 0; a read builds that chain's unbuilt maps in
    order, so no read recurses.  make gets the mapping as an argument, so no
    reference cycle keeps a calculus alive past its last use."""

    def __init__(self, max_degree: int, dims: list[int], built: dict, make):
        self._keys = {(i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)}
        self._dims = dims
        self.built = built
        self._make = make

    def __getitem__(self, key):
        # the unbuilt maps key reads in turn, back to the first one built
        chain, read = [], key
        while read not in self.built and read in self._keys:
            chain.append(read)
            i, j = read
            read = (i, j - 1) if j else (i - 1, 0)
        for i, j in reversed(chain):
            w = self._make(self, i, j)
            _check_wedge(self._dims, i, j, w)
            self.built[(i, j)] = w
        return self.built[key]

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(sorted(self._keys))

    def __len__(self):
        return len(self._keys)


class GradedCalculus:
    """A degreewise-finite dg-algebra generated in degree 0 by d and wedge.

    Holds the component dimensions, differentials diff[n]: n -> n+1 for
    n < max_degree, and wedge maps wedge[(i, j)] for i + j <= max_degree,
    where (0,0) is the multiplication and (0,n)/(n,0) are the actions.
    wedge is kept as given: a dict, or the mapping of a prolongation, which
    builds and checks each map on its first read.  The constructor checks
    the shapes, a dict's wedges in full, and d.d = 0.  The constructions
    below build their values by `linalg._certified` under a written
    certificate, and the test suite holds their results to every graded
    axiom.
    """

    def __init__(self, alg: Algebra, max_degree: int, dims: list[int],
                 diff: list[Mat], wedge: Mapping):
        # the shapes, O(N^2) comparisons, then one product per pair for d.d
        if len(dims) != max_degree + 1 or len(diff) != max_degree:
            raise LinAlgError("need one component per degree up to the max degree "
                              "and one differential per adjacent pair")
        for k, d in enumerate(diff):
            if (d.rows, d.cols) != (dims[k + 1], dims[k]):
                raise LinAlgError(f"differential {k} has wrong shape")
        if set(wedge) != {(i, j) for i in range(max_degree + 1)
                          for j in range(max_degree + 1 - i)}:
            raise LinAlgError("need one wedge map per pair (i, j) with i + j <= max degree")
        for (i, j), w in (wedge.built if isinstance(wedge, _Wedges) else wedge).items():
            _check_wedge(dims, i, j, w)
        for k in range(max_degree - 1):
            if not (diff[k + 1] * diff[k]).is_zero():
                raise LinAlgError(f"d.d != 0 at degree {k}")
        self.alg = alg
        self.max_degree = max_degree
        self.dims = list(dims)
        self.diff = list(diff)
        self.wedge = wedge


class MaximalProlongation(GradedCalculus):
    """The maximal prolongation of a first-order calculus, in the basis of
    its presentation Omega^k = (Omega^(k-1) (x) A-bar) / R_k.

    _quot[k] is the quotient map of degree k as `_prolongation` returns it.
    The maps from the universal prolongation, `from_universal`, are built
    from them on first use, so a caller that does not read them pays
    nothing for them.  `maximal_prolongation(c, max_degree)` is the only
    constructor, so every instance has its quotient maps.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("MaximalProlongation is built only by maximal_prolongation(c, max_degree)")

    @cached_property
    def from_universal(self) -> list[Mat]:
        """h^k: Omega_u^k ->> Omega^k for k <= max_degree, the unique dg map
        from the universal prolongation that extends the identity of A:
        h^0 = I, h^1 = phi and h^k = Q_k (h^(k-1) (x) I)."""
        f = self.alg.field
        nb = len(_unit_complement(self.alg)[0])
        maps = [Mat.identity(f, self.alg.dim), self._quot[1]]
        for k in range(2, self.max_degree + 1):
            q = self._quot[k]
            if q is None:
                # R_k = 0: Omega^k is Omega^(k-1) (x) A-bar itself
                q = Mat.identity(f, self.dims[k])
            maps.append(mul_kron_id(q, maps[k - 1], nb))
        # Certificate that these are the maps of the unique dg map
        # universal_prolongation(A, N) -> self extending id_A, in place of
        # factoring one degree at a time:
        # 1. Initiality: Omega_u is the universal dg algebra of A
        #    (Cuntz-Quillen 1995, section 1).  For every dg algebra whose
        #    degree 0 receives an algebra map from A there is exactly one dg
        #    map from Omega_u extending it; for id_A it takes
        #    a0 da1 ... dak to a0 da1 ... dak.  So h exists, h^0 = I and
        #    h(x ^ db) = h(x) ^ db.
        # 2. The two presentations: in Omega_u^k = Omega_u^(k-1) (x) A-bar
        #    (universal_prolongation) and in Omega^k = (Omega^(k-1) (x) A-bar)
        #    / R_k (maximal_prolongation) the basis vector x (x) b stands for
        #    x ^ db.  So h^1(a0 (x) b) = a0 db is phi = Q_1, and h^k(x (x) b) =
        #    h^(k-1)(x) ^ db is the class Q_k(h^(k-1)(x) (x) b), which is the
        #    formula above.  Q_k is the identity where R_k = 0; past a zero
        #    component Q_k and h^k are zero maps into Omega^k = 0.
        # 3. Uniqueness: both calculi are generated in degree 0 by d and
        #    wedge, so a dg map is fixed by its degree-0 part.  So every
        #    matrix here is that map's, and, h being a dg map, neither d nor
        #    a wedge is re-checked.
        # tests/test_prolong.py holds the maps to the degreewise factoring
        # through g_n: Omega^(n-1) (x) A ->> Omega^n (in tests/oracles.py)
        # on the Kaehler, lattice, zero and universal calculi of the oracle
        # algebras.
        return maps


def _right_action(pi: Mat, pi_m: Mat, at_bar: Mat, s: Mat | None) -> Mat:
    """Omega^k (x) A -> Omega^(k-1) (x) A-bar, v (x) c -> vc before the
    reduction, written entry by entry from (x db) c = x d(pi(bc)) - (x b) d(pi c).

    s writes each v in Omega^k as the sum of s[x (x) b, v] x ^ db (None where
    v is x (x) b itself), and at_bar: Omega^(k-1) (x) A-bar -> Omega^(k-1) is
    x (x) b -> xb.  So the entry at row x (x) b' and column v (x) c is the
    sum over b of s[x (x) b, v] pi(bc)_b', minus (at_bar s)[x, v] pi(c)_b'.
    """
    f, n, nb = pi.field, pi.cols, pi.rows
    at_s = at_bar if s is None else at_bar * s
    s_rows = (Mat.identity(f, at_bar.cols) if s is None else s).data
    # row b' of pi_m as the triples (b, c, pi(bc)_b'), and of pi as (c, pi(c)_b')
    pi_bc = [[(*divmod(col, n), y) for col, y in row.items()] for row in pi_m.data]
    pi_c = [list(row.items()) for row in pi.data]
    rows = []
    for x in range(at_bar.rows):
        s_block = s_rows[x * nb:(x + 1) * nb]
        at_s_row = at_s.data[x].items()
        for bp in range(nb):
            acc = {}
            get = acc.get
            for b, c, y in pi_bc[bp]:           # x d(pi(bc))
                for v, z in s_block[b].items():
                    t = v * n + c
                    acc[t] = get(t, 0) + z * y
            for v, z in at_s_row:               # (x b) d(pi c)
                for c, y in pi_c[bp]:
                    t = v * n + c
                    acc[t] = get(t, 0) - z * y
            rows.append(_clean(acc, f.p))
    return _mat(f, at_bar.cols, at_s.cols * n, rows)


def _prolongation(a: Algebra, max_degree: int, c: FirstOrderCalculus | None = None):
    """dims, diff and wedge of the maximal prolongation of the calculus
    c = Omega^1 = (A (x) A-bar) / N.

    Its presentation is p1 = phi: A (x) A-bar ->> Omega^1, a0 (x) b -> a0 db,
    s1 = fodc._section(c) a section of it and rel = fodc._kernel(c) the
    canonical basis of its kernel N.  Left out, c is the universal calculus:
    p1 = s1 = I and N = 0.  Omega^k is (Omega^(k-1) (x) A-bar) / R_k, with
    quotient map quot[k] and section sect[k], both None where R_k = 0.
    quot is returned with the maps: quot[1] is p1, and past a zero component
    each quot[k] is the zero map of Omega^(k-1) (x) A-bar = 0.

    `kron_id_mul` applies the identity factors blockwise, without forming
    either Kronecker product: Omega^(k-1) . N = (R_(k-1) (x) I)(I (x) N),
    Omega^(k-2) ^ dN = (Q_(k-1) (x) I)(I (x) dN), each wedge
    (W (x) I)(I (x) s_j) and each differential (d_(k-2) (x) I) s_(k-1),
    with R the right action, Q the quotient maps and s the sections.  The
    right action is written entry by entry (`_right_action`).  Where a
    section is None, the map before reduction is the Kronecker product
    itself, so that product is formed: the wedges and differentials of the
    universal case, which have nothing else to compute.

    The degree loop builds dims, the quotient maps and sections and the
    differentials.  The wedges are a `_Wedges` mapping: each is built from
    its identity on its first read and kept, so a caller that reads only the
    dims and the differentials builds none above the actions the relations
    need.  Where a component is zero, every map into it and above is a
    stored zero matrix.
    """
    f, n = a.field, a.dim
    bar, pi = _unit_complement(a)
    nb = len(bar)
    if c is None:
        p1 = s1 = rel = None
        dims = [n, n * nb]
        diff = [kronecker(a.unit_mat, pi)]              # da = 1 d(pi a)
        built = {(0, 0): a.mult_mat}
    else:
        p1, s1, rel = _phi(c), _section(c), _kernel(c)
        # Certificate, in place of building degree 1 from the presentation:
        # phi is an onto bimodule map with phi s1 = I and phi d_u = d
        # (fodc._phi, fodc._section), so the left action p1 (m (x) 1)(1 (x) s1),
        # the right action p1 R (s1 (x) 1) and p1 d_u that the presentation
        # gives are those of c, whose basis Omega^1 is.
        dims = [n, c.dim]
        diff = [c.d]
        built = {(0, 0): a.mult_mat, (0, 1): c.omega.left_mat, (1, 0): c.omega.right_mat}
    i_bar = Mat.identity(f, nb)
    # pi m (iota (x) 1): A-bar (x) A -> A-bar, b (x) c -> pi(bc)
    pi_m = pi * a.mult_mat.select_cols([x * n + y for x in bar for y in range(n)])
    # (pi (x) 1) N: the sums da_i (x) b_i with sum a_i (x) b_i in N
    d_rel = None if rel is None else kron_id_mul(pi, nb, 1, rel)
    quot, sect = [None, p1], [None, s1]

    def reduce(k, x):
        return x if quot[k] is None else quot[k] * x

    def wedge_d(k, x, p, j):
        """quot[k] (x (x) I)(I_p (x) s_j): y (x) v -> x(y (x) w) ^ db, where
        s_j writes v in Omega^j as a sum of w ^ db with w in Omega^(j-1)."""
        out = kronecker(x, i_bar) if sect[j] is None else kron_id_mul(x, nb, p, sect[j])
        return reduce(k, out)

    def make(wedge, i, j):
        if j == 0:
            # the right action: (x db) c = x d(pi(bc)) - (x b) d(pi c)
            at_bar = wedge[(i - 1, 0)].select_cols(
                [w * n + x for w in range(dims[i - 1]) for x in bar])
            return reduce(i, _right_action(pi, pi_m, at_bar, sect[i]))
        # x ^ (y ^ db) = (x ^ y) ^ db
        return wedge_d(i + j, wedge[(i, j - 1)], dims[i], j)

    wedge = _Wedges(max_degree, dims, built, make)
    for k in range(2, max_degree + 1):
        if dims[k - 1] == 0:
            # Omega^k is spanned by Omega^(k-1) ^ dA, so Omega^(k-1) = 0 makes
            # every component from degree k on zero, and every map into one;
            # the maps of one width share one immutable zero matrix
            zero = cache(lambda cols: Mat.zeros(f, 0, cols))
            dims += [0] * (max_degree + 1 - k)
            diff += [zero(dims[i]) for i in range(k - 1, max_degree)]
            quot += [zero(0)] * (max_degree + 1 - k)
            built.update(((i, j), zero(dims[i] * dims[j]))
                         for i in range(max_degree + 1)
                         for j in range(max(k - i, 0), max_degree + 1 - i))
            break
        size = dims[k - 1] * nb
        q = s = None
        if rel is not None and rel.cols:
            # Omega^(k-1) . N and Omega^(k-2) ^ dN, in Omega^(k-1) (x) A-bar
            acted = kron_id_mul(wedge[(k - 1, 0)], nb, dims[k - 1], rel)
            wedged = kron_id_mul(quot[k - 1], nb, dims[k - 2], d_rel)
            # Certificate that quot[k - 1] is a matrix, not None: with N != 0,
            # no j >= 2 has R_j = 0 and Omega^j != 0, and Omega^(k-1) != 0
            # here.  Let D span the c_b of every n = sum_b db c_b in N; D != 0.
            # 1. Omega^j = dA-bar ^ Omega^(j-1), as a db ^ x = d(ab) ^ x -
            #    da ^ bx, so dim Omega^j <= nb dim Omega^(j-1), with equality
            #    iff R_j = 0, and then b (x) x -> db ^ x is one-to-one.
            # 2. Say R_j = 0.  n and dn = -sum_b db ^ dc_b vanish in Omega, so
            #    by 1 D Omega^(j-1) = 0 and dD ^ Omega^(j-2) = 0.
            # 3. By right exactness read from the left, Omega^(j-1) is
            #    A-bar (x) Omega^(j-2) modulo N Omega^(j-2) + dN ^ Omega^(j-3)
            #    (Omega^(-1) = 0), relations whose right legs lie in
            #    S = D Omega^(j-2) + dD ^ Omega^(j-3).  By 2 they hold
            #    pi(D) (x) Omega^(j-2), so Omega^(j-2) = S, or pi(D) = 0 and
            #    D = k.1.
            # 4. Either way Omega^(j-1) = Omega^(j-2) ^ dA lies in
            #    D Omega^(j-1) + dD ^ Omega^(j-2) = 0, and by 1 Omega^j = 0.
            # tests/test_prolong.py holds every oracle calculus with N != 0
            # to a quotient map in every degree.
            basis = image_basis(acted.hstack(wedged))
            if basis.cols:
                q, s = quotient_maps(basis, size)
        quot.append(q)
        sect.append(s)
        dims.append(size if q is None else q.rows)
        # d(x ^ db) = dx ^ db
        diff.append(wedge_d(k, diff[k - 2], 1, k - 1))
    return dims, diff, wedge, quot


def universal_prolongation(a: Algebra, max_degree: int) -> GradedCalculus:
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1")
    # Certificate for the graded axioms, in place of the full check:
    # 1. A is associative and unital: Algebra runs _monoid_report on every
    #    construction and has no way to skip it.
    # 2. The universal dg algebra Omega_u of A is the tensor algebra
    #    T_A(Omega^1_u), and Omega^1_u = A (x) A-bar as a left module, by
    #    a0 (x) b -> a0 db (d1 = 0 and d(A-bar) spans dA).  So
    #    Omega^k_u = A (x) A-bar^(x)k by a0 (x) a1 ... (x) ak -> a0 da1 ... dak
    #    (Cuntz-Quillen 1995, section 1): the maximal prolongation below
    #    with N = 0, so no relations and no quotient.
    # 3. In this basis the left action is m (x) 1, and the right action, the
    #    wedges and d are the identities of the dg algebra Omega_u named at
    #    each step of _prolongation, read on the basis forms.  Each identity
    #    holds in Omega_u, so the maps are its product and d, and every graded
    #    axiom holds; every form is a product of a0 and the d(a_i), which is
    #    surjectivity.
    # tests/test_prolong.py holds iota w = w_A (iota (x) iota), iota d =
    # d_A iota and proj iota = I on every fixture and generated algebra, with
    # iota: Omega^k >-> A^(x)(k+1) the embedding into the Amitsur complex
    # and proj its left inverse, and runs the full graded axiom check on the
    # results (tests/oracles.py).
    dims, diff, wedge, _quot = _prolongation(a, max_degree)
    return _certified(GradedCalculus, alg=a, max_degree=max_degree, dims=dims, diff=diff,
                      wedge=wedge)


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
    # Certificate for the graded axioms, in place of the full check: every
    # component above degree 1 is zero, so every map into one holds any
    # identity.  What is left are the bimodule axioms of A and Omega^1 (the
    # wedges with degree-0 factors), Leibniz at (0, 0) and surjectivity in
    # degree 1, which are the axioms of c, checked when c was built.  The
    # shapes are those of dims by construction.
    return _certified(GradedCalculus, alg=a, max_degree=max_degree, dims=dims, diff=diff,
                      wedge=wedge)


def maximal_prolongation(c: FirstOrderCalculus, max_degree: int) -> MaximalProlongation:
    """The largest graded calculus extending c, from its presentation.

    Degree 1 is c itself, in its own basis, the quotient of A (x) A-bar by
    phi: a0 (x) b -> a0 db, and Omega^k = (Omega^(k-1) (x) A-bar) /
    (Omega^(k-1) . N + Omega^(k-2) ^ dN) with N the kernel of phi.  The dg
    map from the universal prolongation is its `from_universal`, built on
    first read.
    """
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1")
    a = c.alg
    # Certificate for the graded axioms, in place of the full check:
    # 1. phi is onto and a bimodule map with phi d_u = d (certified at
    #    fodc._phi), and fodc._section is a section of it.  Its kernel N is a
    #    sub-bimodule of Omega^1_u = A (x) A-bar, and Omega^1 = Omega^1_u / N.
    # 2. The maximal prolongation is T_A(Omega^1) / <dN>, the quotient by the
    #    ideal generated by the sums da_i ^ db_i with sum a_i (x) b_i in N
    #    (Woronowicz 1989; Beggs-Majid 2020, section 1.5).  It is a dg algebra
    #    whose d extends c.d.
    # 3. (x)_A is right exact, so Omega^(k-1) (x)_A Omega^1 is
    #    (Omega^(k-1) (x) A-bar) / Omega^(k-1) . N, and the ideal adds
    #    Omega^(k-2) ^ dN in degree k; _prolongation divides by both.  So by
    #    induction its Omega^k is the degree-k part of (2), with x (x) b
    #    standing for x ^ db.
    # 4. The right action, the wedges and d are the identities of the dg
    #    algebra (2) named at each step of _prolongation, evaluated on
    #    representatives and reduced by the quotient maps, so they are its
    #    product and d, and every graded axiom holds.  In degree 1 they are
    #    the actions and d of c itself (the certificate in _prolongation).
    #    Every class is a sum of x ^ db, which is surjectivity by induction
    #    from (1).
    # tests/test_prolong.py runs the full check on the results and holds
    # the maximal prolongation of the universal calculus to the universal
    # prolongation.
    dims, diff, wedge, quot = _prolongation(a, max_degree, c)
    return _certified(MaximalProlongation, alg=a, max_degree=max_degree, dims=dims, diff=diff,
                      wedge=wedge, _quot=quot)
