import pytest

from omegacalc import bimodule, cli, fodc, linalg
from omegacalc.algebra import AlgMap, AxiomError, build_truncated_poly, is_commutative

from omegacalc.bimodule import (
    BimodMap,
    Bimodule,
    action_closed,
    bimod_map_report,
    zero_bimodule,
)
from omegacalc.fodc import (
    FirstOrderCalculus,
    PreconditionError,
    UniversalCalculus,
    _kernel,
    _phi,
    check_fodc,
    enumerate_action_closed_subspaces,
    induced_map,
    calculus_morphism_exists,
    quotient_calculus,
    sub_calculus_correspondence,
    universal_calculus,
    zero_calculus,
)
from omegacalc.kahler import kahler_calculus
from omegacalc.linalg import (
    GF,
    QQ,
    LinAlgError,
    Mat,
    _certified,
    image_basis,
    inverse,
    kernel_basis,
    kronecker,
    rank,
    solve,
    subspace_leq,
)
from omegacalc.prolong import universal_prolongation
from omegacalc.scalars import calc_pullback, calc_pushforward

from oracles import (
    calculus_morphism,
    enumerate_by_matrix_sums,
    field_algebra,
    free_bimodule,
    induced_map_is_unique,
    kernel_counit_comparison,
    phi_by_formula,
    tensor_square_bimodule,
    universal_iota,
    universal_proj,
)
from oracle_algebras import (
    COMMUTATIVE,
    ORACLE_ALGEBRAS,
    enumerate_by_saturation,
    load_fixture,
    oracle_calculi,
    subspace_leq_by_solve,
)


def omega_coords(u, aa_vector):
    return solve(u.iota, Mat.col_vector(u.alg.field, aa_vector))


def surjectivity_ranks(a, omega, d):
    """The ranks of a (x) b -> a db, a (x) b -> da b and a (x) b (x) c -> a db c.

    check_fodc reads only the first; under Leibniz the three agree, because
    a db = d(ab) - da b."""
    one_d = kronecker(Mat.identity(a.field, a.dim), d)
    d_one = kronecker(d, Mat.identity(a.field, a.dim))
    left = omega.left_mat * one_d
    right = omega.right_mat * d_one
    two_sided = omega.left_mat * kronecker(Mat.identity(a.field, a.dim), right)
    return rank(left), rank(right), rank(two_sided)


def test_zero_calculus_is_a_calculus(qx2):
    rep = check_fodc(qx2, zero_bimodule(qx2, qx2), Mat.zeros(QQ, 0, 2))
    assert rep.classification == "fodc"


def test_universal_is_a_calculus(qx2):
    u = universal_calculus(qx2)
    rep = check_fodc(qx2, u.omega, u.d)
    assert rep.classification == "fodc"
    assert rep.left_surjective
    assert surjectivity_ranks(qx2, u.omega, u.d) == (u.dim,) * 3
    assert rep.d_kills_unit


def test_unrestricted_square_is_generalized_only(qx2):
    sq = tensor_square_bimodule(qx2)
    i2 = Mat.identity(QQ, 2)
    d = kronecker(qx2.unit_mat, i2) - kronecker(i2, qx2.unit_mat)
    rep = check_fodc(qx2, sq, d)
    assert rep.classification == "generalized_only"
    assert rep.leibniz and not rep.left_surjective
    # under Leibniz the left, right and two-sided spans agree below full rank too
    left, right, two_sided = surjectivity_ranks(qx2, sq, d)
    assert left == right == two_sided < sq.dim


def test_broken_leibniz_is_not_generalized(qx2):
    sq = tensor_square_bimodule(qx2)
    d = Mat(QQ, [[1, 0], [0, 0], [0, 0], [0, 0]])  # d(1) = 1 (x) 1 breaks Leibniz
    rep = check_fodc(qx2, sq, d)
    assert rep.classification == "not_generalized"
    assert rep.witnesses


@pytest.mark.parametrize("fixture,expected", [
    ("qq_alg", 0), ("qx2", 2), ("qx3", 6), ("qx4", 12),
    ("qz2", 2), ("qz3", 6), ("m2q", 12), ("qs3", 30),
])
def test_universal_dimension_formula(fixture, expected, request):
    alg = request.getfixturevalue(fixture)
    u = universal_calculus(alg)
    assert u.dim == alg.dim ** 2 - alg.dim == expected


def test_universal_d_of_x(qx2):
    u = universal_calculus(qx2)
    dx = u.iota * u.d * Mat(QQ, [[0], [1]])
    assert dx.column(0) == [QQ.zero(), QQ.one(), -QQ.one(), QQ.zero()]


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_split_identities(name):
    alg = ORACLE_ALGEBRAS[name]()
    u = universal_calculus(alg)
    i_n = Mat.identity(alg.field, alg.dim)
    ident = Mat.identity(alg.field, u.dim)
    assert u.retraction * u.iota == ident
    d_dot_one = u.omega.right_mat * kronecker(u.d, i_n)
    assert d_dot_one * u.iota == -ident


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_universal_calculus_is_the_kernel_of_multiplication(name):
    # the kernel route the closed form replaced is the oracle: iota is a
    # bimodule embedding onto ker(m: A (x) A -> A) with iota d(a) = 1 (x) a - a (x) 1
    alg = ORACLE_ALGEBRAS[name]()
    u = universal_calculus(alg)
    i_n = Mat.identity(alg.field, alg.dim)
    assert u.dim == alg.dim * alg.dim - alg.dim
    assert image_basis(u.iota) == kernel_basis(alg.mult_mat)
    incl = _certified(BimodMap, source=u.omega, target=tensor_square_bimodule(alg), matrix=u.iota)
    assert bimod_map_report(incl) == []
    assert u.iota * u.d == kronecker(alg.unit_mat, i_n) - kronecker(i_n, alg.unit_mat)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_universal_calculus_is_degree_one_of_the_universal_prolongation(name):
    alg = ORACLE_ALGEBRAS[name]()
    u = universal_calculus(alg)
    up = universal_prolongation(alg, 2)
    iota, proj = universal_iota(alg, 2), universal_proj(alg, 2)
    assert up.dims[1] == u.dim
    assert up.diff[0] == u.d
    assert (up.wedge[(0, 1)], up.wedge[(1, 0)]) == (u.omega.left_mat, u.omega.right_mat)
    assert (iota[1], proj[1]) == (u.iota, u.retraction)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_induced_map_passes_its_certificate_oracles(name):
    # induced_map builds phi unchecked; the three checks it no longer runs
    alg = ORACLE_ALGEBRAS[name]()
    u = universal_calculus(alg)
    for label, c in oracle_calculi(name, alg).items():
        phi = induced_map(c)
        assert bimod_map_report(phi) == [], label
        assert phi.matrix * u.d == c.d, label
        assert rank(phi.matrix) == c.dim, label


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_certified_calculi_pass_check_fodc(name):
    # universal_calculus, zero_calculus, quotient_calculus and
    # kahler_calculus build their calculi without check_fodc, under the
    # certificates in fodc.py and kahler.py; the check they skip is the
    # oracle
    alg = ORACLE_ALGEBRAS[name]()
    for label, c in oracle_calculi(name, alg).items():
        assert check_fodc(alg, c.omega, c.d).classification == "fodc", label


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_enumeration_matches_saturation_per_candidate(name):
    # every fixture (qs3 included), the generated and incidence algebras and
    # the GF(p) ones: the same family in the same order as saturating each
    # candidate on its own
    alg = ORACLE_ALGEBRAS[name]()
    m = universal_calculus(alg).omega
    members = enumerate_action_closed_subspaces(m)
    assert members == enumerate_by_saturation(m)
    # every member is certified for the bimodule it came from, and passes
    # the closure witness its quotient skips; so does every member of the
    # Kaehler module where there is one
    kahler = [kahler_calculus(alg).omega] if is_commutative(alg) else []
    for ambient, family in [(m, members)] + [(k, enumerate_action_closed_subspaces(k))
                                              for k in kahler]:
        for n in family:
            assert isinstance(n, bimodule._ClosedBasis) and n.ambient is ambient
            assert action_closed(ambient, n) is None


@pytest.mark.parametrize("fixture", ["qx3", "qz3", "f2x2"])
def test_every_quotient_in_the_lattice_passes_check_fodc(fixture, request):
    # quotients of the universal calculus and of its Kaehler quotient, which
    # is itself certified
    alg = request.getfixturevalue(fixture)
    for c in (universal_calculus(alg), kahler_calculus(alg)):
        for n in enumerate_action_closed_subspaces(c.omega):
            quo, _ = quotient_calculus(c, n)
            assert check_fodc(alg, quo.omega, quo.d).classification == "fodc"


def test_induced_map_to_self_is_identity(qx2):
    u = universal_calculus(qx2)
    assert induced_map(u).matrix == Mat.identity(QQ, 2)
    assert induced_map_is_unique(u)


def test_induced_map_to_zero(qx2):
    f = induced_map(zero_calculus(qx2))
    assert f.matrix.rows == 0


def test_induced_map_to_kahler_quotient(qx2):
    u = universal_calculus(qx2)
    n = omega_coords(u, [0, 0, 0, 1])  # x (x) x
    quot, proj = quotient_calculus(u, n)
    assert quot.dim == 1
    f = induced_map(quot)
    assert f.matrix == proj.matrix
    assert f.matrix * u.d == quot.d
    assert rank(f.matrix) == 1
    assert induced_map_is_unique(quot)


def test_induced_map_rejects_non_calculus(qx2):
    # induced_map no longer checks its target: a non-calculus cannot be built,
    # and the constructor's error says which axiom fails.
    sq = tensor_square_bimodule(qx2)
    i2 = Mat.identity(QQ, 2)
    d = kronecker(qx2.unit_mat, i2) - kronecker(i2, qx2.unit_mat)
    with pytest.raises(AxiomError) as exc:
        FirstOrderCalculus(qx2, sq, d)
    report = check_fodc(qx2, sq, d)
    assert exc.value.report == ["not a first-order calculus (generalized_only)"] + report.witnesses
    assert report.witnesses


def test_quotient_by_zero_and_everything(qx2):
    u = universal_calculus(qx2)
    same, _ = quotient_calculus(u, Mat.zeros(QQ, 2, 0))
    assert same.dim == 2
    nothing, _ = quotient_calculus(u, Mat.identity(QQ, 2))
    assert nothing.dim == 0


def test_quotient_rejects_non_closed_subspace(qx2):
    u = universal_calculus(qx2)
    # span{d(x)} is not action-closed: x . dx = x (x) x
    dx = omega_coords(u, [0, 1, -1, 0])
    with pytest.raises(LinAlgError):
        quotient_calculus(u, dx)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_quotient_calculus_refuses_what_the_closure_witness_refuses(name):
    # the public quotient runs the closure witness on every subspace it is
    # given: here span(e_i) for each basis vector of Omega_u, which is
    # canonical and, on every algebra with Omega_u != 0, not always closed
    u = universal_calculus(ORACLE_ALGEBRAS[name]())
    e = Mat.identity(u.alg.field, u.dim)
    refused = 0
    for i in range(u.dim):
        sub = e.select_cols([i])
        witness = action_closed(u.omega, sub)
        if witness is None:
            assert quotient_calculus(u, sub)[0].dim == u.dim - 1
        else:
            refused += 1
            with pytest.raises(LinAlgError) as exc:
                quotient_calculus(u, sub)
            assert str(exc.value) == f"subspace is not action-closed: {witness}"
    assert refused or u.dim == 0


def test_the_closure_witness_runs_exactly_on_uncertified_input(calls_of, qx3, qx4, qy2, qz3):
    # a basis certified for the quotient's own bimodule, by the construction
    # that proved it closed, skips the witness: push (a saturation), pull (a
    # preimage), the CLI relation path (a saturation) and every lattice
    # member; a bare Mat, a matrix computed from a certified basis and a
    # basis certified for another bimodule run it once
    calls = calls_of(bimodule, "_closure_witness")
    y_to_x2 = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    for c in (universal_calculus(qy2), kahler_calculus(qy2)):
        calc_pushforward(y_to_x2, c)
    for t in (universal_calculus(qx4), kahler_calculus(qx4)):
        calc_pullback(y_to_x2, t)
    # [dx, x] = 1 (x) x^2 - 2 x (x) x + x^2 (x) 1 in A (x) A coordinates
    relation = ["0", "0", "1", "0", "-2", "0", "1", "0", "0"]
    assert cli._quotient_of_universal(qx3, {"generators": [relation]}).dim == 2
    u = universal_calculus(qx3)
    lattice = enumerate_action_closed_subspaces(u.omega)
    for n in lattice:
        quotient_calculus(u, n)
    assert calls == []
    n = lattice[len(lattice) // 2]
    other = enumerate_action_closed_subspaces(universal_calculus(qz3).omega)[-1]
    for uncertified in (Mat.zeros(QQ, u.dim, 0), n.select_cols(range(n.cols)),
                        n + Mat.zeros(QQ, n.rows, n.cols), other):
        calls.clear()
        quotient_calculus(u, uncertified)
        assert len(calls) == 1


def test_a_basis_certified_for_another_bimodule_is_checked(calls_of, qx3, qz3):
    # Omega_u of Q[Z/3] and of Q[x]/x^3 both have dimension 6; a lattice
    # member of the first, handed to a quotient of the second, runs the
    # witness and is refused exactly where action_closed refuses it there
    u = universal_calculus(qx3)
    members = enumerate_action_closed_subspaces(universal_calculus(qz3).omega)
    assert u.dim == members[0].rows == 6
    calls = calls_of(bimodule, "_closure_witness")
    refused = 0
    for n in members:
        witness = action_closed(u.omega, n)
        calls.clear()
        if witness is None:
            assert quotient_calculus(u, n)[0].dim == u.dim - n.cols
        else:
            refused += 1
            with pytest.raises(LinAlgError) as exc:
                quotient_calculus(u, n)
            assert str(exc.value) == f"subspace is not action-closed: {witness}"
        assert len(calls) == 1
    assert refused


def test_quotient_calculus_d_behaviour(qx2):
    u = universal_calculus(qx2)
    quot, _ = quotient_calculus(u, omega_coords(u, [0, 0, 0, 1]))
    x = Mat(QQ, [[0], [1]])
    dx = quot.d * x
    assert not dx.is_zero()
    assert (quot.omega.left_mat * kronecker(x, dx)).is_zero()


def test_correspondence_trivial_family(qz3):
    u = universal_calculus(qz3)
    fam = [Mat.zeros(QQ, u.dim, 0), Mat.identity(QQ, u.dim)]
    rows = sub_calculus_correspondence(qz3, fam)
    assert rows[0]["calculus_dim"] == u.dim and rows[1]["calculus_dim"] == 0
    assert all(r["roundtrip_equal"] for r in rows)


@pytest.mark.parametrize("fixture", ["qx2", "qx3"])
def test_correspondence_enumerated_families(fixture, request):
    alg = request.getfixturevalue(fixture)
    u = universal_calculus(alg)
    fam = enumerate_action_closed_subspaces(u.omega)
    assert len(fam) >= 3
    rows = sub_calculus_correspondence(alg, fam)
    assert all(r["roundtrip_equal"] for r in rows)


def test_correspondence_exhaustive_over_gf2(f2x2):
    u = universal_calculus(f2x2)
    fam = enumerate_action_closed_subspaces(u.omega)
    # exhaustive enumeration over GF(2) in dimension 2
    assert [m.cols for m in fam] == [0, 1, 2]
    rows = sub_calculus_correspondence(f2x2, fam)
    assert all(r["roundtrip_equal"] for r in rows)


@pytest.mark.parametrize("q,d,members", [(2, 1, 2), (2, 2, 5), (2, 3, 16), (2, 4, 67),
                                         (3, 1, 2), (3, 2, 6)])
def test_the_exhaustive_enumeration_is_every_subspace_of_a_vector_space(q, d, members,
                                                                         calls_of):
    # GF(q) acts on GF(q)^d by scalars, so every subspace is action-closed
    # and the family is all of them: the Galois number, the sum over k of
    # the Gaussian binomials [d, k]_q.  Each nonzero vector is saturated at
    # most once and each member added to each saturation at most once: no
    # elimination per subset of vectors
    k = field_algebra(GF(q))
    m = free_bimodule(k, d, k)
    calls = calls_of(linalg, "_rref_sparse")
    family = enumerate_action_closed_subspaces(m)
    assert len(family) == members
    assert len(calls) <= (q ** d - 1) * (members + 1)
    assert all(action_closed(m, n) is None for n in family)


@pytest.mark.parametrize("calculus,p,n,members", [
    (universal_calculus, 3, 2, 3),
    (kahler_calculus, 2, 3, 3),
    (kahler_calculus, 2, 4, 5),
    (kahler_calculus, 3, 3, 4),
], ids=["universal-GF(3)[x]/x^2", "kahler-GF(2)[x]/x^3", "kahler-GF(2)[x]/x^4",
        "kahler-GF(3)[x]/x^3"])
def test_the_enumeration_is_the_subset_search_where_few_subspaces_are_closed(calculus, p, n,
                                                                             members):
    # the first three are exhaustive bimodules of dimension 2, 2 and 4 with
    # 6, 5 and 67 subspaces, only some of them action-closed: the sums of
    # saturations give the members, in the order, that searching every set
    # of vectors with the closure witness gives.  The last, of dimension 3
    # over GF(3), is past the exhaustive bound and runs the row family
    m = calculus(build_truncated_poly(GF(p), n)).omega
    family = enumerate_action_closed_subspaces(m)
    assert len(family) == members
    assert family == enumerate_by_saturation(m)


def test_surjectivity_variants_agree_on_family(qx3):
    u = universal_calculus(qx3)
    for n in enumerate_action_closed_subspaces(u.omega):
        c, _ = quotient_calculus(u, n)
        rep = check_fodc(qx3, c.omega, c.d)
        assert rep.leibniz and rep.left_surjective
        assert surjectivity_ranks(qx3, c.omega, c.d) == (c.dim,) * 3


def test_kernel_counit_on_three_modules(qx2):
    qa = field_algebra(QQ)
    modules = [
        Bimodule(qx2, qa, 2, qx2.mult_mat, Mat.identity(QQ, 2)),       # A itself
        Bimodule(qx2, qa, 1, Mat(QQ, [[1, 0]]), Mat.identity(QQ, 1)),  # A/(x)
        free_bimodule(qx2, 2, qa),                                     # free rank 2
    ]
    for m in modules:
        rep = kernel_counit_comparison(m)
        assert rep["invertible"]
        assert rep["kernel_dim"] == rep["tensor_dim"]


def test_the_kernel_of_a_quotient_is_canonical(qx2):
    u = universal_calculus(qx2)
    quot, proj = quotient_calculus(u, omega_coords(u, [0, 0, 0, 1]))
    assert _kernel(quot) == kernel_basis(proj.matrix)


def test_generalized_calculus_type(qx2):
    sq = tensor_square_bimodule(qx2)
    i2 = Mat.identity(QQ, 2)
    d = kronecker(qx2.unit_mat, i2) - kronecker(i2, qx2.unit_mat)
    # Leibniz holds, surjectivity fails
    assert check_fodc(qx2, sq, d).classification == "generalized_only"
    with pytest.raises(AxiomError):
        FirstOrderCalculus(qx2, sq, d)


@pytest.mark.parametrize("fixture", ["qx3", "qz3", "m2q", "qs3"])
def test_kernel_counit_comparison_on_the_regular_module(fixture):
    # (1 (x) mu)(iota (x) 1) is applied blockwise; the comparison must still
    # descend to the tensor product and be invertible
    alg = load_fixture(fixture)
    qa = field_algebra(alg.field)
    regular = Bimodule(alg, qa, alg.dim, alg.mult_mat, Mat.identity(alg.field, alg.dim))
    rep = kernel_counit_comparison(regular)
    assert rep["invertible"]
    assert rep["kernel_dim"] == rep["tensor_dim"] == alg.dim * alg.dim - alg.dim


# The memo: universal_calculus and kahler_calculus per algebra instance, and
# _kernel = ker(Omega_u -> c) per calculus instance


def test_memo_returns_the_value_built_on_the_first_call():
    alg = load_fixture("qx3")
    u = universal_calculus(alg)
    k = kahler_calculus(alg)
    assert universal_calculus(alg) is u
    assert kahler_calculus(alg) is k
    assert _kernel(k) is _kernel(k)
    assert alg.__dict__[universal_calculus.slot] is u


def test_memo_keeps_equal_instances_apart():
    a, b = load_fixture("qx3"), load_fixture("qx3")
    assert a == b and a is not b
    ua, ub = universal_calculus(a), universal_calculus(b)
    assert ua is not ub and ua.alg is a and ub.alg is b
    assert (ua.omega, ua.d, ua.iota) == (ub.omega, ub.d, ub.iota)
    ka, kb = kahler_calculus(a), kahler_calculus(b)
    assert ka is not kb and ka.alg is a and kb.alg is b
    assert _kernel(ka) is not _kernel(kb)
    assert _kernel(ka) == _kernel(kb)
    # a different algebra gets its own calculus, not the last one built
    assert universal_calculus(load_fixture("qz2")).dim == 2


def test_memo_keeps_no_refusal():
    m2 = load_fixture("m2q")
    for _ in range(2):
        with pytest.raises(PreconditionError, match="not commutative"):
            kahler_calculus(m2)
    assert kahler_calculus.slot not in m2.__dict__


@pytest.mark.parametrize("name", ["qx3", "m2q", "f2x2"])
def test_the_lattice_is_built_once_per_bimodule(name, calls_of):
    # a second call on one bimodule eliminates nothing and returns a new
    # list of the same members, which its caller may change without the
    # next call seeing it; an equal bimodule of a separately parsed algebra
    # builds its own members.  f2x2 takes the exhaustive branch
    a, b = load_fixture(name), load_fixture(name)
    m, twin = universal_calculus(a).omega, universal_calculus(b).omega
    assert m == twin and m is not twin
    eliminations = calls_of(linalg, "_rref_sparse")
    spans = calls_of(fodc, "_row_span")
    first = enumerate_action_closed_subspaces(m)
    assert eliminations
    expected = list(first)
    eliminations.clear()
    spans.clear()
    second = enumerate_action_closed_subspaces(m)
    assert eliminations == spans == []
    assert type(second) is list and second is not first
    assert second == expected and all(x is y for x, y in zip(second, expected))
    first.clear()
    second.append(Mat.identity(m.field, m.dim))
    assert enumerate_action_closed_subspaces(m) == expected
    assert eliminations == []
    own = enumerate_action_closed_subspaces(twin)
    assert eliminations and own == expected
    assert all(n.ambient is twin and not any(n is x for x in expected) for n in own)


def recorded_kernel(c):
    """The kernel c recorded when it was built, or None."""
    return c.__dict__.get(_kernel.slot)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_quotients_of_the_universal_calculus_record_the_kernel_of_phi(name):
    # every quotient of the enumerated lattice and the Kaehler calculus
    # record their kernel; the elimination it replaces is the oracle
    alg = ORACLE_ALGEBRAS[name]()
    u = universal_calculus(alg)
    calculi = [quotient_calculus(u, n)[0] for n in enumerate_action_closed_subspaces(u.omega)]
    if is_commutative(alg):
        calculi.append(kahler_calculus(alg))
    assert calculi
    for c in calculi:
        assert recorded_kernel(c) is not None
        assert recorded_kernel(c) == kernel_basis(_phi(c))
        assert _kernel(c) is recorded_kernel(c)


def recorded_phi(c):
    """The phi c recorded when it was built, or None."""
    return c.__dict__.get(_phi.slot)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_quotients_of_the_universal_calculus_record_phi_by_its_formula(name):
    # every quotient of the enumerated lattice records its projection as
    # phi, and the Kaehler calculus its quotient map; the formula that
    # _phi computes for any other calculus is the oracle
    alg = ORACLE_ALGEBRAS[name]()
    u = universal_calculus(alg)
    calculi = [quotient_calculus(u, n)[0] for n in enumerate_action_closed_subspaces(u.omega)]
    if is_commutative(alg):
        calculi.append(kahler_calculus(alg))
    for c in calculi:
        assert recorded_phi(c) is not None
        assert recorded_phi(c) == phi_by_formula(c)
        assert _phi(c) is recorded_phi(c)


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_the_kaehler_calculus_records_phi_by_its_formula(name):
    c = kahler_calculus(COMMUTATIVE[name]())
    assert recorded_phi(c) is not None and recorded_phi(c) == phi_by_formula(c)


@pytest.mark.parametrize("name", {**ORACLE_ALGEBRAS, **COMMUTATIVE})
def test_enumeration_matches_the_matrix_sum_route(name):
    # the diagonals e_i +- e_j summed as rows, against the same family with
    # each diagonal formed as a matrix sum, over Q and GF(p), on Omega_u and
    # on the Kaehler module; the exhaustive GF(p) branch has no diagonals
    alg = {**ORACLE_ALGEBRAS, **COMMUTATIVE}[name]()
    modules = [universal_calculus(alg).omega]
    if is_commutative(alg):
        modules.append(kahler_calculus(alg).omega)
    for m in modules:
        if m.field.is_rational or m.field.p ** m.dim - 1 > 15:
            assert enumerate_action_closed_subspaces(m) == enumerate_by_matrix_sums(m)


def test_a_universal_quotient_records_the_basis_it_was_given(qx3):
    # a quotient takes the canonical basis of its subspace and re-derives
    # nothing: the kernel it records is that very basis, and any other basis
    # of the subspace is refused, also inside sub_calculus_correspondence
    u = universal_calculus(qx3)
    for n in enumerate_action_closed_subspaces(u.omega):
        assert recorded_kernel(quotient_calculus(u, n)[0]) is n
        assert sub_calculus_correspondence(qx3, [n])[0]["sub"] is n
        if n.cols:
            with pytest.raises(LinAlgError, match="not in reduced column echelon form"):
                quotient_calculus(u, n + n)
            with pytest.raises(LinAlgError, match="not in reduced column echelon form"):
                sub_calculus_correspondence(qx3, [n + n])


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_subspace_leq_matches_the_solve_oracle(name):
    # every ordered pair of the enumerated lattice, and of the kernels of the
    # oracle calculi.  A lattice with more than 64 members (up to 530, on the
    # chain incidence algebra) takes every k-th, at most 64 of them.
    alg = ORACLE_ALGEBRAS[name]()
    lattice = enumerate_action_closed_subspaces(universal_calculus(alg).omega)
    members = lattice[::-(-len(lattice) // 64)]
    kernels = [_kernel(c) for c in oracle_calculi(name, alg).values()]
    for family in (members, kernels):
        for sub in family:
            for sup in family:
                assert subspace_leq(sub, sup) == subspace_leq_by_solve(sub, sup)


def change_of_basis(u, p):
    """The universal calculus u in the basis of Omega_u given by the columns of
    p^-1, built by the public FirstOrderCalculus constructor, which checks it."""
    f = u.alg.field
    n = u.alg.dim
    p_inv = inverse(p)
    i_n = Mat.identity(f, n)
    omega = Bimodule(u.alg, u.alg, u.dim, p * u.omega.left_mat * kronecker(i_n, p_inv),
                     p * u.omega.right_mat * kronecker(p_inv, i_n))
    return FirstOrderCalculus(u.alg, omega, p * u.d)


def test_a_quotient_of_a_calculus_in_another_basis_computes_its_kernel(qx3):
    # the shortcut holds only for the universal calculus, which is always in
    # the A (x) A-bar basis: a calculus isomorphic to it in another basis, and
    # the Kaehler calculus, are quotiented by subspaces of their own basis
    u = universal_calculus(qx3)
    f = qx3.field
    shear = Mat.identity(f, u.dim) + Mat.from_entries(f, u.dim, u.dim, [(0, u.dim - 1, 1)])
    v = change_of_basis(u, shear)
    assert _kernel(v).cols == 0 and not isinstance(v, UniversalCalculus)
    checked = 0
    for c in (v, kahler_calculus(qx3)):
        for n in enumerate_action_closed_subspaces(c.omega):
            quo, _proj = quotient_calculus(c, n)
            assert recorded_kernel(quo) is None
            assert _kernel(quo) == kernel_basis(_phi(quo))
            checked += _kernel(quo) != n
    assert checked


def test_universal_calculus_has_no_public_constructor(qx2):
    # universal_calculus(a) is the only way to a UniversalCalculus, so every
    # instance is in the A (x) A-bar basis
    u = universal_calculus(qx2)
    for args, kwargs in [((), {}), (("anything",), {}),
                         ((u.alg, u.omega, u.d, u.iota, u.retraction), {}),
                         ((u.alg, u.omega, u.d), {"iota": u.iota, "retraction": u.retraction})]:
        with pytest.raises(TypeError, match=r"universal_calculus\(a\)"):
            UniversalCalculus(*args, **kwargs)


@pytest.mark.parametrize("morphism", [calculus_morphism, calculus_morphism_exists])
def test_calculus_morphisms_refuse_calculi_over_different_algebras(morphism, qx2, qx3, qz2):
    for src, dst in ((universal_calculus(qx2), universal_calculus(qz2)),
                     (zero_calculus(qx2), kahler_calculus(qx3))):
        with pytest.raises(LinAlgError, match="calculi over different algebras"):
            morphism(src, dst)


QX2 = build_truncated_poly(QQ, 2)
QX3 = build_truncated_poly(QQ, 3)

# Each refusal of outside input in fodc.py: (what is built, exception,
# message).
REFUSALS = {
    "bimodule of another algebra": (
        lambda: check_fodc(QX3, universal_calculus(QX2).omega, universal_calculus(QX2).d),
        LinAlgError, "omega must be an A-A bimodule over the given algebra"),
    "differential of the wrong shape": (
        lambda: check_fodc(QX2, universal_calculus(QX2).omega, Mat.zeros(QQ, 1, 2)),
        LinAlgError, "differential has wrong shape"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_outside_input_is_refused(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message
