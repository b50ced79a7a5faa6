import random

import pytest

from omegacalc import bimodule
from omegacalc.algebra import AlgMap, AxiomError, build_matrix_algebra, build_truncated_poly
from omegacalc.bimodule import (
    BimodMap,
    Bimodule,
    _ClosedBasis,
    _mul_section,
    action_closed,
    bimod_map_report,
    bimodule_axiom_report,
    build_square_zero,
    quotient_bimodule,
    saturate_subspace,
    sub_bimodule,
    tensor_over_algebra,
    zero_bimodule,
)
from omegacalc.fodc import check_fodc, enumerate_action_closed_subspaces, universal_calculus
from omegacalc.linalg import (
    GF,
    QQ,
    LinAlgError,
    Mat,
    _certified,
    _mat,
    image_basis,
    kernel_basis,
    kronecker,
    mul_id_kron,
    mul_kron_id,
    quotient_maps,
    rank,
    solve,
)

from oracles import (
    bimodule_hom_basis,
    extend_bimodule,
    field_algebra,
    free_bimodule,
    identity_map,
    regular_bimodule,
    restrict_bimodule,
    tensor_square_bimodule,
)
import oracle_algebras
from oracle_algebras import ORACLE_ALGEBRAS, enumerate_by_saturation, incidence_algebra


def unit_embedding(alg):
    field = alg.field
    qa = field_algebra(field)
    return AlgMap(qa, alg, Mat.col_vector(field, alg.unit))


def test_free_bimodule_dims(qx2, qz2):
    assert free_bimodule(qx2, 1, qx2).dim == 4
    qa = field_algebra(QQ)
    plain = free_bimodule(qa, 3, qa)
    assert plain.dim == 3
    assert bimodule_axiom_report(qa, qa, 3, plain.left_mat, plain.right_mat) == []
    fz = free_bimodule(qz2, 1, qz2)
    assert fz.dim == 4
    assert bimodule_axiom_report(qz2, qz2, 4, fz.left_mat, fz.right_mat) == []


def test_free_bimodule_actions_are_outer(qz2):
    fz = free_bimodule(qz2, 1, qz2)
    assert fz.left_mat == kronecker(qz2.mult_mat, Mat.identity(QQ, 2))
    assert fz.right_mat == kronecker(Mat.identity(QQ, 2), qz2.mult_mat)


def test_middle_associativity_violation_detected(qx2):
    # right action twisted to disagree with the left one
    bad_right = tensor_square_bimodule(qx2).left_mat
    report = bimodule_axiom_report(qx2, qx2, 4, tensor_square_bimodule(qx2).left_mat, bad_right)
    assert report


def test_bimodule_refuses_every_corruption_that_check_fodc_accepts():
    # check_fodc reads the actions only through Leibniz and one rank, so it
    # passes actions that are no bimodule: flipping any single entry of the
    # actions of Omega_u of GF(2)[x]/x^3 gives 144 such.  The constructor
    # refuses each, and has no switch to skip its check.
    alg = build_truncated_poly(GF(2), 3)
    u = universal_calculus(alg)
    accepted = 0
    for side in ("left_mat", "right_mat"):
        m = getattr(u.omega, side)
        for i in range(m.rows):
            for j in range(m.cols):
                data = [dict(row) for row in m.data]
                if not data[i].pop(j, 0):
                    data[i][j] = 1
                actions = {"left_mat": u.omega.left_mat, "right_mat": u.omega.right_mat,
                           side: _mat(m.field, m.rows, m.cols, data)}
                omega = _certified(Bimodule, left_alg=alg, right_alg=alg, dim=u.dim, **actions)
                if check_fodc(alg, omega, u.d).classification == "fodc":
                    accepted += 1
                    with pytest.raises(AxiomError):
                        Bimodule(alg, alg, u.dim, actions["left_mat"], actions["right_mat"])
    assert accepted


def test_bimodule_and_its_maps_take_no_check_switch(qx2):
    reg = regular_bimodule(qx2)
    with pytest.raises(TypeError):
        Bimodule(qx2, qx2, 2, qx2.mult_mat, qx2.mult_mat, check=False)
    with pytest.raises(TypeError):
        BimodMap(reg, reg, Mat.identity(QQ, 2), check=False)


QX2 = build_truncated_poly(QQ, 2)
QX3 = build_truncated_poly(QQ, 3)
F2X2 = build_truncated_poly(GF(2), 2)


# Each refusal of outside input in bimodule.py: (what is built, exception,
# message).  The algebras are built once, at collection.
REFUSALS = {
    "left action of the wrong shape": (
        lambda: Bimodule(QX2, QX2, 2, Mat.zeros(QQ, 2, 3), QX2.mult_mat),
        LinAlgError, "left action matrix has wrong shape"),
    "right action of the wrong shape": (
        lambda: Bimodule(QX2, QX2, 2, QX2.mult_mat, Mat.zeros(QQ, 2, 3)),
        LinAlgError, "right action matrix has wrong shape"),
    "algebras over two fields": (
        lambda: Bimodule(QX2, F2X2, 2, QX2.mult_mat, QX2.mult_mat),
        LinAlgError, "bimodule algebras over different fields"),
    "zero bimodule over two fields": (
        lambda: zero_bimodule(QX2, F2X2),
        LinAlgError, "bimodule algebras over different fields"),
    "map between two algebra pairs": (
        lambda: BimodMap(regular_bimodule(QX2), regular_bimodule(QX3), Mat.zeros(QQ, 3, 2)),
        LinAlgError, "bimodule morphism between different algebra pairs"),
    "map of the wrong shape": (
        lambda: BimodMap(regular_bimodule(QX2), regular_bimodule(QX2), Mat.identity(QQ, 3)),
        LinAlgError, "morphism matrix has wrong shape"),
    "generator of the wrong length": (
        lambda: saturate_subspace(regular_bimodule(QX2), [[1, 0, 0]]),
        LinAlgError, "generator has wrong dimension"),
    "tensor over two algebras": (
        lambda: tensor_over_algebra(regular_bimodule(QX2), regular_bimodule(QX3)),
        LinAlgError, "tensor product over mismatched algebras"),
    "square-zero extension by a matrix": (
        lambda: build_square_zero(QX2, QX2.mult_mat),
        LinAlgError, "second argument must be a bimodule"),
    "square-zero extension by a bimodule of another algebra": (
        lambda: build_square_zero(QX3, regular_bimodule(QX2)),
        LinAlgError, "bimodule must be an A-A bimodule over the given algebra"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_outside_input_is_refused(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message


def multiplication_by(alg, c, side):
    """The linear map x -> c x (side "left") or x -> x c of alg."""
    col = Mat.col_vector(alg.field, c)
    ident = Mat.identity(alg.field, alg.dim)
    return alg.mult_mat * (kronecker(col, ident) if side == "left" else kronecker(ident, col))


@pytest.mark.parametrize("side", ["left", "right"])
def test_bimod_map_refuses_a_map_that_breaks_an_action(side):
    # on the regular bimodule of M2, x -> c x commutes with the right action
    # and x -> x c with the left one; for c = E01, which is not central, each
    # breaks the action on its own side, and BimodMap names that side alone
    m2 = build_matrix_algebra(QQ, 2)
    reg = regular_bimodule(m2)
    f = multiplication_by(m2, [0, 1, 0, 0], side)
    with pytest.raises(AxiomError) as refused:
        BimodMap(reg, reg, f)
    assert refused.value.report == [f"does not commute with the {side} action"]
    # multiplication by the unit is the identity, a bimodule map
    assert BimodMap(reg, reg, multiplication_by(m2, m2.unit, side)).matrix == Mat.identity(QQ, 4)


def test_tensor_cancels_the_algebra(qx2):
    # A (x)_A M = M via the split coequalizer
    u = universal_calculus(qx2)
    reg = regular_bimodule(qx2)
    t, q = tensor_over_algebra(reg, u.omega)
    assert t.dim == u.omega.dim
    # the splitting 1 (x) unit (x) 1 composed with q is invertible
    unit_col = Mat.col_vector(QQ, [1, 0])
    split = q * kronecker(unit_col, Mat.identity(QQ, u.dim))
    assert rank(split) == split.rows == split.cols


def test_tensor_with_square_gives_m_tensor_a(qx2):
    # M (x)_A (A (x) A) = M (x) A
    u = universal_calculus(qx2)
    sq = tensor_square_bimodule(qx2)
    t, _ = tensor_over_algebra(u.omega, sq)
    assert t.dim == u.omega.dim * qx2.dim


def test_omega_tensor_omega_dim(qx2):
    u = universal_calculus(qx2)
    t, _ = tensor_over_algebra(u.omega, u.omega)
    assert t.dim == 2  # n (n-1)^2 with n = 2


def test_tensor_assoc_dims_and_comparison(qx2):
    from omegacalc.linalg import factor_through_surjection

    u = universal_calculus(qx2)
    m = u.omega
    mm, q_inner = tensor_over_algebra(m, m)
    left, q_left = tensor_over_algebra(mm, m)
    right, q_right = tensor_over_algebra(m, mm)
    assert left.dim == right.dim
    # both sides are quotients of m (x) m (x) m; the comparison is invertible
    i_m = Mat.identity(QQ, m.dim)
    q1 = q_left * kronecker(q_inner, i_m)
    q2 = q_right * kronecker(i_m, q_inner)
    comp = factor_through_surjection(q2, q1)
    assert comp is not None and rank(comp) == comp.rows == comp.cols


def test_kernel_of_multiplication_is_universal(qx2):
    # the kernel of the bimodule map m: A (x) A -> A, as a sub-bimodule, is
    # the image of iota
    sq = tensor_square_bimodule(qx2)
    k, incl = sub_bimodule(sq, kernel_basis(qx2.mult_mat))
    assert k.dim == 2
    assert incl.matrix == universal_calculus(qx2).iota


def test_generated_sub_trivial_cases(qx2):
    sq = tensor_square_bimodule(qx2)
    assert saturate_subspace(sq, []).cols == 0
    full = saturate_subspace(sq, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert full.cols == 4


def test_generated_sub_x_tensor_x(qx2):
    u = universal_calculus(qx2)
    # x (x) x in omega coordinates
    v = solve(u.iota, Mat(QQ, [[0], [0], [0], [1]]))
    assert saturate_subspace(u.omega, [v.column(0)]).cols == 1


def test_sub_bimodule_refuses_a_subspace_that_is_not_action_closed(qx3, m2q):
    # span(1) in Q[x]/x^3, where x . 1 = x leaves it, and the first column
    # span(E00, E10) of M2(Q), a left ideal with E00 . E01 = E01 outside it
    for m, basis, side in ((regular_bimodule(qx3), [[1, 0, 0]], "left"),
                           (regular_bimodule(m2q), [[1, 0, 0, 0], [0, 0, 1, 0]], "right")):
        with pytest.raises(LinAlgError, match=f"not closed under the {side} action"):
            sub_bimodule(m, Mat.from_cols(QQ, basis))


def test_restrict_along_identity(qx2):
    reg = regular_bimodule(qx2)
    r = restrict_bimodule(identity_map(qx2), identity_map(qx2), reg)
    assert r.left_mat == reg.left_mat and r.right_mat == reg.right_mat


def test_restrict_to_base_field(qx2):
    reg = regular_bimodule(qx2)
    unit = unit_embedding(qx2)
    r = restrict_bimodule(unit, unit, reg)
    qa = field_algebra(QQ)
    assert r.dim == 2
    assert bimodule_axiom_report(qa, qa, 2, r.left_mat, r.right_mat) == []


def test_restrict_universal_along_y_to_x2(qy2, qx4):
    f = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    omega = universal_calculus(qx4).omega
    r = restrict_bimodule(f, f, omega)
    assert bimodule_axiom_report(qy2, qy2, r.dim, r.left_mat, r.right_mat) == []


def test_extend_along_identity_is_isomorphic(qx2):
    reg = regular_bimodule(qx2)
    ext, _ = extend_bimodule(identity_map(qx2), identity_map(qx2), reg)
    assert ext.dim == reg.dim


def test_extend_trivial_module_gives_square(qx2):
    qa = field_algebra(QQ)
    unit = unit_embedding(qx2)
    ext, _ = extend_bimodule(unit, unit, regular_bimodule(qa))
    assert ext.dim == qx2.dim ** 2


def test_hom_adjunction_dimension_identity(qy2, qx4):
    f = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    u_y = universal_calculus(qy2)
    pairs = [
        (regular_bimodule(qy2), regular_bimodule(qx4)),
        (u_y.omega, regular_bimodule(qx4)),
        (regular_bimodule(qy2), universal_calculus(qx4).omega),
        (u_y.omega, universal_calculus(qx4).omega),
    ]
    for m, n in pairs:
        ext, _ = extend_bimodule(f, f, m)
        lhs = len(bimodule_hom_basis(ext, n))
        rhs = len(bimodule_hom_basis(m, restrict_bimodule(f, f, n)))
        assert lhs == rhs


def test_tensor_assoc_mixed_algebras(qy2, qx4):
    # (M (x)_B N) (x)_Q P vs M (x)_B (N (x)_Q P) with three different algebras
    from omegacalc.linalg import factor_through_surjection

    f = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    qa = field_algebra(QQ)
    # M = B as an (A, B)-bimodule via f
    m = Bimodule(
        qy2, qx4, 4,
        qx4.mult_mat * kronecker(f.matrix, Mat.identity(QQ, 4)),
        qx4.mult_mat,
    )
    # N = B as a (B, Q)-bimodule, P = Q^2 as a (Q, Q)-bimodule
    n = Bimodule(qx4, qa, 4, qx4.mult_mat, Mat.identity(QQ, 4))
    p = free_bimodule(qa, 2, qa)
    mn, q_mn = tensor_over_algebra(m, n)
    left, q_left = tensor_over_algebra(mn, p)
    np_, q_np = tensor_over_algebra(n, p)
    right, q_right = tensor_over_algebra(m, np_)
    assert left.dim == right.dim
    q1 = q_left * kronecker(q_mn, Mat.identity(QQ, p.dim))
    q2 = q_right * kronecker(Mat.identity(QQ, m.dim), q_np)
    comp = factor_through_surjection(q2, q1)
    assert comp is not None and rank(comp) == comp.rows == comp.cols


def test_tensor_cancels_on_the_right(qx2):
    # M (x)_A A = M via the splitting 1 (x) unit
    u = universal_calculus(qx2)
    reg = regular_bimodule(qx2)
    t, q = tensor_over_algebra(u.omega, reg)
    assert t.dim == u.omega.dim
    unit_col = Mat.col_vector(QQ, [1, 0])
    split = q * kronecker(Mat.identity(QQ, u.dim), unit_col)
    assert rank(split) == split.rows == split.cols


def _span(alg, cols):
    return Mat.from_cols(alg.field, cols, rows=alg.dim)


def test_action_closed_names_the_first_failing_left_action(qx3, m2q):
    # span(1) in Q[x]/x^3: x and x^2 both move 1 out; e1 = x is reported
    assert action_closed(regular_bimodule(qx3), _span(qx3, [[1, 0, 0]])) == (
        "left action of e1 leaves the subspace")
    # the first row span(E00, E01) of M2 is a right ideal: only E10 moves it out
    first_row = _span(m2q, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert action_closed(regular_bimodule(m2q), first_row) == (
        "left action of e2 leaves the subspace")


def test_action_closed_names_the_first_failing_right_action(qx3, m2q):
    # A (x) 1 in A (x) A is closed on the left; x and x^2 move it out on the right
    ones = [[1 if k == 3 * i else 0 for k in range(9)] for i in range(3)]
    square = tensor_square_bimodule(qx3)
    assert action_closed(square, Mat.from_cols(qx3.field, ones, rows=9)) == (
        "right action of e1 leaves the subspace")
    # the second column span(E01, E11) of M2 is a left ideal: only E10 moves it out
    second_col = _span(m2q, [[0, 1, 0, 0], [0, 0, 0, 1]])
    assert action_closed(regular_bimodule(m2q), second_col) == (
        "right action of e2 leaves the subspace")
    assert action_closed(regular_bimodule(m2q), _span(m2q, [[1, 0, 0, 0], [0, 0, 1, 0]])) == (
        "right action of e1 leaves the subspace")


# ---------------------------------------------------------------------------
# saturation and the closure check against the routes they replaced
# ---------------------------------------------------------------------------

def fixpoint_saturation(m, gens):
    """The smallest action-closed subspace holding col(gens), by adding the
    left and right basis actions until the dimension stops growing."""
    current = image_basis(gens)
    while True:
        pieces = [current, mul_id_kron(m.left_mat, m.left_alg.dim, current),
                  mul_kron_id(m.right_mat, current, m.right_alg.dim)]
        bigger = image_basis(Mat.hstack_all(m.field, pieces, m.dim))
        if bigger.cols == current.cols:
            return current
        current = bigger


def solving_closure_witness(m, basis):
    """The closure witness by one solve per basis element of each algebra."""
    na, nb, k = m.left_alg.dim, m.right_alg.dim, basis.cols
    left = mul_id_kron(m.left_mat, na, basis)
    for i in range(na):
        if solve(basis, left.select_cols(range(i * k, (i + 1) * k))) is None:
            return f"left action of e{i} leaves the subspace"
    right = mul_kron_id(m.right_mat, basis, nb)
    for j in range(nb):
        if solve(basis, right.select_cols(range(j, k * nb, nb))) is None:
            return f"right action of e{j} leaves the subspace"
    return None


MODULES = {
    "Omega_u": lambda alg: universal_calculus(alg).omega,
    "A": regular_bimodule,
    "A (x) A": tensor_square_bimodule,
}


def generator_sets(m, seed):
    """Seeded samples of at most 12 single basis vectors and of at most 8
    pairs e_i +- e_j, and three seeded random pairs of vectors with at most
    three nonzero entries each."""
    f, n = m.field, m.dim
    rng = random.Random(seed)
    e = Mat.identity(f, n)
    sets = [e.select_cols([i]) for i in sorted(rng.sample(range(n), min(12, n)))]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, min(8, len(pairs))):
        for sign in (1, -1):
            vec = [0] * n
            vec[i], vec[j] = 1, sign
            sets.append(Mat.from_cols(f, [vec], rows=n))
    for _ in range(3 if n else 0):
        cols = [[0] * n for _ in range(2)]
        for col in cols:
            for i in rng.sample(range(n), min(3, n)):
                col[i] = rng.choice([-2, -1, 1, 2])
        sets.append(Mat.from_cols(f, cols, rows=n))
    return sets


def noncanonical(basis):
    """Another spanning set of col(basis): columns reversed, the first one
    doubled and added to the others, and a repeated column."""
    cols = basis.columns()[::-1]
    if not cols:
        return basis
    f = basis.field
    first = [f.add(x, x) for x in cols[0]]
    rest = [[f.add(x, y) for x, y in zip(c, first)] for c in cols[1:]]
    return Mat.from_cols(f, [first] + rest + [first], rows=basis.rows)


ORACLE_CASES = [(alg, mod) for alg in ORACLE_ALGEBRAS for mod in MODULES]


@pytest.mark.parametrize("alg_name,module", ORACLE_CASES)
def test_saturation_is_the_fixpoint_of_the_actions(alg_name, module):
    m = MODULES[module](ORACLE_ALGEBRAS[alg_name]())
    for gens in generator_sets(m, seed=len(alg_name)):
        sat = saturate_subspace(m, gens)
        assert sat == fixpoint_saturation(m, gens), gens
        # certified for m, and passing the closure witness its quotient skips
        assert isinstance(sat, _ClosedBasis) and sat.ambient is m
        assert action_closed(m, sat) is None


def test_a_certified_basis_is_a_mat_that_nothing_derived_from_it_inherits(qx2):
    # the certificate is a type that only bimodule._closed_basis builds; a
    # certified basis reads and compares as the matrix it is, and every
    # matrix operation on it returns a plain Mat
    m = universal_calculus(qx2).omega
    sat = saturate_subspace(m, Mat.identity(QQ, m.dim).select_cols([0]))
    plain = _mat(sat.field, sat.rows, sat.cols, sat.data)
    with pytest.raises(TypeError):
        _ClosedBasis(QQ, [[1]])
    assert type(sat) is _ClosedBasis and type(plain) is Mat
    assert sat == plain and plain == sat
    for derived in (sat + plain, sat - plain, -sat, sat.transpose(), plain.transpose() * sat,
                    sat.select_cols(range(sat.cols)), image_basis(sat)):
        assert type(derived) is Mat


@pytest.mark.parametrize("alg_name,module", ORACLE_CASES)
def test_closure_witness_matches_one_solve_per_basis_element(alg_name, module):
    m = MODULES[module](ORACLE_ALGEBRAS[alg_name]())
    for gens in generator_sets(m, seed=len(alg_name) + 1):
        sat = saturate_subspace(m, gens)
        for basis in (gens, noncanonical(gens), sat, noncanonical(sat)):
            assert action_closed(m, basis) == solving_closure_witness(m, basis), basis


@pytest.mark.parametrize("alg_name,module", ORACLE_CASES)
def test_quotient_bimodule_checks_closure_through_the_quotient_map(alg_name, module):
    m = MODULES[module](ORACLE_ALGEBRAS[alg_name]())
    for gens in generator_sets(m, seed=len(alg_name) + 2):
        sub = image_basis(gens)
        witness = solving_closure_witness(m, sub)
        if witness is None:
            quo, proj, s = quotient_bimodule(m, sub)
            assert bimodule_axiom_report(m.left_alg, m.right_alg, quo.dim,
                                         quo.left_mat, quo.right_mat) == []
            assert bimod_map_report(proj) == []
            assert (proj.matrix * sub).is_zero() and quo.dim == m.dim - sub.cols
        else:
            with pytest.raises(LinAlgError) as exc:
                quotient_bimodule(m, sub)
            assert str(exc.value) == f"subspace is not action-closed: {witness}"


def test_quotient_bimodule_refuses_a_noncanonical_basis(qx3):
    # the saturation of e1 + e2 in Omega_u of Q[x]/x^3, once canonical and
    # once times 2: the quotient map of the second would not kill it
    u = universal_calculus(qx3)
    sat = saturate_subspace(u.omega, [[0, 1, 1] + [0] * (u.dim - 3)])
    assert sat.cols == 4
    quo, proj, _s = quotient_bimodule(u.omega, sat)
    assert quo.dim == 2 and (proj.matrix * sat).is_zero()
    doubled = sat + sat
    assert image_basis(doubled) == sat
    for basis in (doubled, noncanonical(sat)):
        with pytest.raises(LinAlgError, match="not in reduced column echelon form"):
            quotient_bimodule(u.omega, basis)


@pytest.mark.parametrize("name", ["qx3", "m2q", "f2x2"])
def test_the_quotient_by_a_certified_member_is_built_once(name, calls_of):
    # a lattice member keeps the quotient built on it, in its own memo: a
    # second quotient is the same triple, with no quotient map and no
    # witness.  Its plain twin and member + 0 are checked and build their
    # quotient on every call, and what the member keeps is the quotient the
    # plain twin gives
    m = universal_calculus(ORACLE_ALGEBRAS[name]()).omega
    members = enumerate_action_closed_subspaces(m)
    witnesses = calls_of(bimodule, "_closure_witness")
    maps = calls_of(bimodule, "quotient_maps")
    slot = bimodule._basis_quotient.slot
    for n in members:
        assert slot not in vars(n)
        kept = quotient_bimodule(m, n)
        assert vars(n)[slot] is kept and len(maps) == 1
        maps.clear()
        assert quotient_bimodule(m, n) is kept
        assert maps == witnesses == []
        for twin in (_mat(n.field, n.rows, n.cols, n.data), n + Mat.zeros(n.field, n.rows, n.cols)):
            for _ in range(2):
                quo, proj, s = quotient_bimodule(m, twin)
            assert len(maps) == len(witnesses) == 2
            maps.clear()
            witnesses.clear()
            assert (quo, proj.source, proj.matrix, s) == (kept[0], m, kept[1].matrix, kept[2])
        assert vars(n)[slot] is kept
    assert slot not in vars(m)


def test_a_foreign_member_is_checked_and_keeps_only_its_own_quotient(calls_of):
    # Omega_u of Q[Z/3] and of Q[x]/x^3 both have dimension 6; a member of
    # the first's lattice, its quotient kept there, handed to a quotient of
    # the second runs the witness, is refused exactly where action_closed
    # refuses it, and keeps the quotient of its own bimodule only
    m = universal_calculus(ORACLE_ALGEBRAS["qx3"]()).omega
    home = universal_calculus(ORACLE_ALGEBRAS["qz3"]()).omega
    members = enumerate_action_closed_subspaces(home)
    assert m.dim == home.dim == 6
    kept = [quotient_bimodule(home, n) for n in members]
    slot = bimodule._basis_quotient.slot
    witnesses = calls_of(bimodule, "_closure_witness")
    refused = 0
    for n, own in zip(members, kept):
        witness = action_closed(m, n)
        for _ in range(2):
            witnesses.clear()
            if witness is None:
                quo, proj, _s = quotient_bimodule(m, n)
                assert proj.source is m and quo.dim == m.dim - n.cols
            else:
                with pytest.raises(LinAlgError) as exc:
                    quotient_bimodule(m, n)
                assert str(exc.value) == f"subspace is not action-closed: {witness}"
            assert len(witnesses) == 1 and vars(n)[slot] is own
        refused += witness is not None
    assert refused


@pytest.mark.parametrize("name,build,members", [
    ("x3", lambda: ORACLE_ALGEBRAS["qx3"](), None),
    ("m2q", lambda: ORACLE_ALGEBRAS["m2q"](), 18),
    ("inc3", lambda: incidence_algebra(2, [(0, 1)]), None),
    ("f2x2 (exhaustive)", lambda: ORACLE_ALGEBRAS["f2x2"](), None),
])
def test_enumerated_family_is_the_one_the_replaced_routes_give(name, build, members, monkeypatch):
    # the per-candidate enumeration, saturating by the fixpoint loop and
    # testing closure by one solve per basis element
    u = universal_calculus(build())
    family = enumerate_action_closed_subspaces(u.omega)
    monkeypatch.setattr(oracle_algebras, "saturate_subspace", fixpoint_saturation)
    monkeypatch.setattr(oracle_algebras, "action_closed", solving_closure_witness)
    assert family == enumerate_by_saturation(u.omega)
    assert members is None or len(family) == members


@pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (2, 1), (1, 3), (2, 2)])
def test_a_section_product_is_a_column_selection(p, q):
    # quotient_bimodule and tensor_over_algebra pick the columns of their
    # 0/1 section instead of multiplying by I_p (x) s (x) I_q
    rng = random.Random(p * 10 + q)
    sub = image_basis(Mat(QQ, [[1, 0], [2, 0], [0, 1], [0, 0], [3, -1]]))
    _q, s = quotient_maps(sub, 5)
    x = Mat(QQ, [[rng.randint(-2, 2) for _ in range(p * 5 * q)] for _ in range(3)])
    whiskered = kronecker(kronecker(Mat.identity(QQ, p), s), Mat.identity(QQ, q))
    assert _mul_section(x, p, s, q) == x * whiskered
