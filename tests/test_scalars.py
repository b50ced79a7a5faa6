import gc
import importlib
import pkgutil
import weakref

import pytest

import omegacalc
from omegacalc import bimodule, linalg, scalars
from omegacalc.algebra import AlgMap, is_commutative
from omegacalc.bimodule import action_closed
from omegacalc.fodc import (
    PreconditionError,
    _kernel,
    _phi,
    enumerate_action_closed_subspaces,
    induced_map,
    quotient_calculus,
    universal_calculus,
    zero_calculus,
)
from omegacalc.hopf import group_like_bimonoid, universal_coactions
from omegacalc.kahler import kahler_calculus
from omegacalc.linalg import (
    QQ,
    Mat,
    factor_through_surjection,
    image_basis,
    kernel_basis,
    kronecker,
    rank,
    solve,
)
from omegacalc.prolong import maximal_prolongation, universal_prolongation
from omegacalc.scalars import (
    calc_pullback,
    calc_pushforward,
    universal_map,
    verify_poset_adjunction,
)

from oracles import (
    adjunction_by_calculi,
    calc1_category_adjoints_check,
    calculus_morphism,
    extend_bimodule,
    field_algebra,
    identity_map,
    phi_by_formula,
    square_zero_unit_check,
    unique_dg_morphism,
    universal_map_functorial,
    universal_map_is_bimodule_map,
)
from oracle_algebras import ORACLE_MAPS, first_proper_quotients, oracle_calculi


def load_y_to_x2(qy2, qx4):
    """y -> x^2, a new map instance on every call, so that no transport kept
    on another instance is shared with it."""
    return AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))


@pytest.fixture(scope="module")
def y_to_x2(qy2, qx4):
    return load_y_to_x2(qy2, qx4)


def test_universal_map_is_bimodule_map(y_to_x2):
    assert universal_map_is_bimodule_map(y_to_x2)


def parent_universal_map(f):
    """f_u by the kernel route: solve iota_B f_u = (f (x) f) iota_A."""
    u_src, u_dst = universal_calculus(f.source), universal_calculus(f.target)
    return solve(u_dst.iota, kronecker(f.matrix, f.matrix) * u_src.iota)


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_universal_map_is_the_restriction_of_f_tensor_f(name):
    f = ORACLE_MAPS[name]()
    assert universal_map(f) == parent_universal_map(f)


def canonical_calculi(alg):
    return [universal_calculus(alg)] + ([kahler_calculus(alg)] if is_commutative(alg) else [])


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_pushed_and_pulled_calculi_record_the_kernel_of_phi(name):
    # a push or pull is a quotient of the universal calculus of the far
    # algebra, so it records ker(Omega_u -> c) when it is built; the
    # elimination it replaces is the oracle
    f = ORACLE_MAPS[name]()
    results = ([calc_pushforward(f, c) for c in canonical_calculi(f.source)]
               + [calc_pullback(f, t) for t in canonical_calculi(f.target)])
    for c in results:
        recorded = c.__dict__.get(_kernel.slot)
        assert recorded is not None and recorded == kernel_basis(_phi(c))


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_pushed_and_pulled_calculi_record_phi_by_its_formula(name):
    # a push or pull is a quotient of the universal calculus of the far
    # algebra, so it records its projection as phi; the formula that _phi
    # computes for any other calculus is the oracle
    f = ORACLE_MAPS[name]()
    results = ([calc_pushforward(f, c) for c in canonical_calculi(f.source)]
               + [calc_pullback(f, t) for t in canonical_calculi(f.target)])
    for c in results:
        recorded = c.__dict__.get(_phi.slot)
        assert recorded is not None and recorded == phi_by_formula(c)


def transport_family(alg):
    return canonical_calculi(alg) + [zero_calculus(alg)] + first_proper_quotients(alg)


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_adjunction_matches_the_calculus_building_route(name):
    # verify_poset_adjunction compares the pushed and pulled kernels and
    # builds no calculus; the oracle builds F_! c and F* t and solves for
    # each morphism, on the universal, Kaehler, zero and two quotient
    # calculi of each end
    f = ORACLE_MAPS[name]()
    cs, ts = transport_family(f.source), transport_family(f.target)
    report = verify_poset_adjunction(f, cs, ts)
    assert report == adjunction_by_calculi(f, cs, ts)
    assert report["all_agree"]


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_pullback_projection_kills_exactly_the_recorded_kernel(name, monkeypatch):
    # calc_pullback hands quotient_calculus the certified canonical preimage p,
    # and quotient_maps builds a projection whose kernel is exactly p; this
    # is the check calc_pullback ran on every call, held here on every oracle
    # map and on the universal, Kaehler, zero and two quotient calculi
    f = ORACLE_MAPS[name]()
    built = []

    def recording(c, sub):
        result, proj = quotient_calculus(c, sub)
        built.append((sub, result, proj))
        return result, proj

    monkeypatch.setattr(scalars, "quotient_calculus", recording)
    targets = (canonical_calculi(f.target) + [zero_calculus(f.target)]
               + first_proper_quotients(f.target))
    for t in targets:
        result = calc_pullback(f, t)
        sub, last, proj = built[-1]
        assert last is result
        assert kernel_basis(proj.matrix) == sub == _kernel(result)
    assert len(built) == len(targets)


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_pushed_and_pulled_kernels_are_action_closed(name):
    # calc_pushforward and calc_pullback skip the closure witness, under the
    # certificates of saturate_subspace and _pulled_kernel; this is the
    # witness they skip, on every oracle map and on the universal, Kaehler,
    # zero and two quotient calculi of each end
    f = ORACLE_MAPS[name]()
    for transport, near, far in ((calc_pushforward, f.source, f.target),
                                 (calc_pullback, f.target, f.source)):
        u = universal_calculus(far)
        for c in canonical_calculi(near) + [zero_calculus(near)] + first_proper_quotients(near):
            assert action_closed(u.omega, _kernel(transport(f, c))) is None


def test_universal_map_functoriality(qx2, y_to_x2, qy2):
    qa = field_algebra(QQ)
    unit_map = AlgMap(qa, qy2, Mat(QQ, [[1], [0]]))
    assert universal_map_functorial(unit_map, y_to_x2)


def test_pushforward_along_identity(qx2):
    u = universal_calculus(qx2)
    result = calc_pushforward(identity_map(qx2), u)
    assert _kernel(result).cols == 0  # isomorphic to universal


def test_pushforward_to_base_field_is_zero(qx2):
    qa = field_algebra(QQ)
    to_q = AlgMap(qx2, qa, Mat(QQ, [[1, 0]]))
    result = calc_pushforward(to_q, universal_calculus(qx2))
    assert result.dim == 0


def pushout_oracle_dim(f, c):
    """Brute-force pushout through the honest extension functor.

    dim F_! c = dim Omega_u(B) - rank(fhat_u(ker(alpha))) where alpha is the
    extension of the projection Omega_u(A) ->> c and fhat_u is the adjunction
    mate of f_u, both computed on the extended bimodule directly.
    """
    u_a = universal_calculus(f.source)
    u_b = universal_calculus(f.target)
    f_u = universal_map(f)
    ext_omega, q_total = extend_bimodule(f, f, u_a.omega)
    nb = f.target.dim
    i_b = Mat.identity(QQ, nb)
    # mate of f_u: multiply both outer legs after applying f_u in the middle
    mu = u_b.omega.left_mat * kronecker(i_b, u_b.omega.right_mat)
    fhat_rhs = mu * kronecker(kronecker(i_b, f_u), i_b)
    fhat = factor_through_surjection(fhat_rhs, q_total)
    assert fhat is not None
    proj_c = induced_map(c).matrix
    ext_c, q_total_c = extend_bimodule(f, f, c.omega)
    alpha_rhs = q_total_c * kronecker(kronecker(i_b, proj_c), i_b)
    alpha = factor_through_surjection(alpha_rhs, q_total)
    assert alpha is not None
    glued = image_basis(fhat * kernel_basis(alpha))
    return u_b.dim - glued.cols


@pytest.mark.parametrize("kind", ["universal", "kahler", "zero"])
def test_pushforward_matches_pushout_oracle(y_to_x2, qy2, kind):
    if kind == "universal":
        c = universal_calculus(qy2)
    elif kind == "kahler":
        c = kahler_calculus(qy2)
    else:
        c = zero_calculus(qy2)
    result = calc_pushforward(y_to_x2, c)
    assert result.dim == pushout_oracle_dim(y_to_x2, c)


def test_pushforward_preserves_epi_from_universal(y_to_x2, qy2):
    c = kahler_calculus(qy2)
    result = calc_pushforward(y_to_x2, c)
    f = induced_map(result)
    assert rank(f.matrix) == result.dim


def test_pullback_of_universal(y_to_x2, qy2, qx4):
    u_a = universal_calculus(qy2)
    u_b = universal_calculus(qx4)
    f_u = universal_map(y_to_x2)
    result = calc_pullback(y_to_x2, u_b)
    assert result.dim == u_a.dim - kernel_basis(f_u).cols


def test_pullback_of_zero_is_zero(y_to_x2, qx4):
    result = calc_pullback(y_to_x2, zero_calculus(qx4))
    assert result.dim == 0


def test_pullback_along_identity(qx2):
    k = kahler_calculus(qx2)
    result = calc_pullback(identity_map(qx2), k)
    assert _kernel(result) == _kernel(k)


def test_poset_adjunction_endpoints(y_to_x2, qy2, qx4):
    cs = [universal_calculus(qy2), zero_calculus(qy2)]
    ts = [universal_calculus(qx4), zero_calculus(qx4)]
    rep = verify_poset_adjunction(y_to_x2, cs, ts)
    assert rep["all_agree"]
    by_pair = {(p["c_index"], p["t_index"]): p for p in rep["pairs"]}
    # universal endpoints: both directions exist; zero endpoints likewise
    assert by_pair[(0, 0)]["pushforward_to_t"] and by_pair[(0, 0)]["c_to_pullback"]
    assert by_pair[(1, 1)]["pushforward_to_t"] and by_pair[(1, 1)]["c_to_pullback"]


def test_poset_adjunction_full_families(y_to_x2, qy2, qx4):
    u_y = universal_calculus(qy2)
    u_x = universal_calculus(qx4)
    cs = [quotient_calculus(u_y, n)[0] for n in enumerate_action_closed_subspaces(u_y.omega)]
    ts = [quotient_calculus(u_x, n)[0] for n in enumerate_action_closed_subspaces(u_x.omega)]
    rep = verify_poset_adjunction(y_to_x2, cs, ts)
    assert rep["all_agree"]
    assert len(rep["pairs"]) == len(cs) * len(ts)


@pytest.mark.parametrize("fixture", ["qq_alg", "qx2", "qz2"])
def test_square_zero_unit(fixture, request):
    a = request.getfixturevalue(fixture)
    rep = square_zero_unit_check(a)
    assert rep["unit_is_algebra_map"]
    assert rep["all_roundtrips"]


def test_square_zero_with_kahler_probe(qx2):
    u = universal_calculus(qx2)
    k = kahler_calculus(qx2)
    probes = [
        (qx2, u.omega, Mat.identity(QQ, 2), u.d),
        (qx2, k.omega, Mat.identity(QQ, 2), k.d),
    ]
    rep = square_zero_unit_check(qx2, probes)
    assert rep["all_roundtrips"]


def test_calc1_adjoints_on_family(qx3):
    u = universal_calculus(qx3)
    fam = [quotient_calculus(u, n)[0] for n in enumerate_action_closed_subspaces(u.omega)]
    rep = calc1_category_adjoints_check(qx3, fam)
    assert rep["all_ok"]
    assert len(rep["rows"]) == len(fam)


def test_pushforward_result_passes_fodc(y_to_x2, qy2):
    from omegacalc.fodc import check_fodc

    result = calc_pushforward(y_to_x2, kahler_calculus(qy2))
    rep = check_fodc(result.alg, result.omega, result.d)
    assert rep.classification == "fodc"


def test_identity_transport_comparisons_invertible(qx3):
    u = universal_calculus(qx3)
    k = kahler_calculus(qx3)
    ident = identity_map(qx3)
    for c in (u, k, zero_calculus(qx3)):
        pushed = calc_pushforward(ident, c)
        pulled = calc_pullback(ident, c)
        for other in (pushed, pulled):
            fwd = calculus_morphism(c, other)
            back = calculus_morphism(other, c)
            assert fwd is not None and back is not None
            assert rank(fwd) == fwd.rows == fwd.cols and back * fwd == Mat.identity(QQ, c.dim)


def test_universal_map_functoriality_truncation(qy2, qx4, qx2):
    # q[x]/(x^4) ->> q[x]/(x^2) truncation composed with y |-> x^2
    f = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    g = AlgMap(qx4, qx2, Mat(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    assert universal_map_functorial(f, g)


def test_poset_adjunction_along_surjection(qx4, qx2):
    # truncation q[x]/(x^4) ->> q[x]/(x^2) probes the surjective direction
    g = AlgMap(qx4, qx2, Mat(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    u4 = universal_calculus(qx4)
    u2 = universal_calculus(qx2)
    cs = [quotient_calculus(u4, s)[0] for s in enumerate_action_closed_subspaces(u4.omega)]
    ts = [quotient_calculus(u2, s)[0] for s in enumerate_action_closed_subspaces(u2.omega)]
    rep = verify_poset_adjunction(g, cs, ts)
    assert rep["all_agree"]


def test_transport_builds_the_universal_calculus_of_one_algebra(monkeypatch, qy2, qx4):
    # ker(Omega_u -> c) is read off phi of c: a push builds only Omega_u of
    # the target, a pull only that of the source, and the adjunction check
    # none besides those of its pushes and pulls.  A push or pull asks for
    # it twice, for its kernel and for its quotient, and the memoized
    # universal_calculus builds it once.  The maps are loaded here, so no
    # transport kept on a shared map hides a build; along the map of the
    # push and the pull, the adjunction reads their kept kernels
    built = []

    def counting(a):
        built.append(a)
        return universal_calculus(a)

    monkeypatch.setattr(scalars, "universal_calculus", counting)
    f, g = load_y_to_x2(qy2, qx4), load_y_to_x2(qy2, qx4)
    c, t = kahler_calculus(qy2), kahler_calculus(qx4)
    assert calc_pushforward(f, c).alg == qx4
    assert built == [qx4, qx4]
    assert calc_pullback(f, t).alg == qy2
    assert built == [qx4, qx4, qy2, qy2]
    assert verify_poset_adjunction(g, [c], [t])["all_agree"]
    assert built == [qx4, qx4, qy2, qy2, qx4, qy2]
    assert verify_poset_adjunction(f, [c], [t])["all_agree"]
    assert built == [qx4, qx4, qy2, qy2, qx4, qy2]


def test_transport_refuses_a_calculus_over_the_wrong_algebra(y_to_x2, qy2, qx4):
    on_source, on_target = kahler_calculus(qy2), kahler_calculus(qx4)
    with pytest.raises(PreconditionError, match="not over the source algebra"):
        calc_pushforward(y_to_x2, on_target)
    with pytest.raises(PreconditionError, match="not over the target algebra"):
        calc_pullback(y_to_x2, on_source)
    with pytest.raises(PreconditionError, match="not over the source algebra"):
        verify_poset_adjunction(y_to_x2, [on_target], [on_target])
    with pytest.raises(PreconditionError, match="not over the target algebra"):
        verify_poset_adjunction(y_to_x2, [on_source], [on_source])


def test_typed_inputs_are_not_rechecked(monkeypatch, qx2, qy2, qx4, qz2):
    """A typed value was checked when it was built, so a function that takes
    one does not run its axiom check again.  In every module that binds them,
    alg_map_report, bimonoid_axiom_report and the private report behind
    Bimonoid refuse exactly the data of the inputs, and check_fodc refuses
    everything: the universal, Kaehler and quotient calculi are certified by
    their construction."""
    u = universal_calculus(qx2)
    target = kahler_calculus(qx2)
    c = kahler_calculus(qy2)
    t = kahler_calculus(qx4)
    ident = identity_map(qx2)
    # loaded here, so that the push and the pull below build their results
    y_to_x2 = load_y_to_x2(qy2, qx4)
    up = universal_prolongation(qx2, 2)
    kp = maximal_prolongation(target, 2)
    h = group_like_bimonoid(qz2)
    inputs = [y_to_x2, y_to_x2.matrix, ident, ident.matrix, h, h.comult]

    def refusing(report):
        def wrapped(*args):
            if any(arg is x for arg in args for x in inputs):
                raise RuntimeError(f"{report.__name__} re-checks a typed input")
            return report(*args)
        return wrapped

    def refused(*args):
        raise RuntimeError("check_fodc runs on a certified calculus")

    modules = [omegacalc] + [importlib.import_module(f"omegacalc.{m.name}")
                             for m in pkgutil.iter_modules(omegacalc.__path__)]
    for module in modules:
        if hasattr(module, "check_fodc"):
            monkeypatch.setattr(module, "check_fodc", refused)
        for name in ("alg_map_report", "bimonoid_axiom_report", "_bimonoid_report"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refusing(getattr(module, name)))
    u4 = universal_calculus(qx4)
    assert u4.dim == 12
    sub = enumerate_action_closed_subspaces(u.omega)[1]
    assert quotient_calculus(u, sub)[0].dim == u.dim - sub.cols
    assert kahler_calculus(qx4).dim == t.dim
    assert rank(induced_map(target).matrix) == target.dim
    assert calc_pushforward(y_to_x2, c).alg == qx4
    assert calc_pullback(y_to_x2, t).alg == qy2
    assert unique_dg_morphism(up, kp, ident) is not None
    assert universal_coactions(h).dim == 2


# ---------------------------------------------------------------------------
# transport kept per (map, calculus) pair
# ---------------------------------------------------------------------------

# the functions whose values are kept per (map, calculus) pair
PAIR_MEMOS = (calc_pushforward, calc_pullback, scalars._pushed_kernel, scalars._pulled_kernel)


def transports(f, cs, ts):
    return ([calc_pushforward(f, c) for c in cs], [calc_pullback(f, t) for t in ts],
            verify_poset_adjunction(f, cs, ts))


def test_a_repeated_transport_builds_nothing(calls_of, qy2, qx4):
    # the first round along a map builds f_u, the saturations, the preimages
    # and the quotient maps, each of which bimodule or linalg builds; a
    # second round returns the same calculi and an equal report in new
    # containers, and builds none of them
    f = load_y_to_x2(qy2, qx4)
    cs, ts = canonical_calculi(qy2), canonical_calculi(qx4)
    calls = [calls_of(scalars, "universal_map"), calls_of(scalars, "saturate_subspace"),
             calls_of(scalars, "preimage_basis"), calls_of(bimodule, "quotient_maps"),
             calls_of(linalg, "quotient_maps")]
    pushed, pulled, report = transports(f, cs, ts)
    assert all(calls)
    for seen in calls:
        seen.clear()
    again_pushed, again_pulled, again = transports(f, cs, ts)
    assert calls == [[], [], [], [], []]
    assert all(a is b for a, b in zip(pushed + pulled, again_pushed + again_pulled))
    assert again == report and again is not report
    assert again["pairs"] is not report["pairs"]
    assert all(a is not b for a, b in zip(again["pairs"], report["pairs"]))


def test_the_calculi_of_one_algebra_pushed_along_one_map_are_kept_apart(qy2, qx4):
    # the table is keyed by the calculus, not its algebra: the universal and
    # Kaehler calculi of y -> x^2 push to kernels of dimension 0 and 4
    f = load_y_to_x2(qy2, qx4)
    u, k = calc_pushforward(f, universal_calculus(qy2)), calc_pushforward(f, kahler_calculus(qy2))
    assert (_kernel(u).cols, _kernel(k).cols) == (0, 4)
    pu, pk = calc_pullback(f, universal_calculus(qx4)), calc_pullback(f, kahler_calculus(qx4))
    assert _kernel(pu) != _kernel(pk)


def test_maps_do_not_share_a_transport(qy2, qx4):
    # one table per map instance: y -> x^3 pushes the Kaehler calculus to a
    # kernel of dimension 1, and y -> x^2 loaded twice gets two equal results
    c, t = kahler_calculus(qy2), kahler_calculus(qx4)
    f, twin = load_y_to_x2(qy2, qx4), load_y_to_x2(qy2, qx4)
    g = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 0], [0, 1]]))
    assert (_kernel(calc_pushforward(f, c)).cols, _kernel(calc_pushforward(g, c)).cols) == (4, 1)
    for transport, x in ((calc_pushforward, c), (calc_pullback, t)):
        a, b = transport(f, x), transport(twin, x)
        assert a is not b and (a.omega, a.d) == (b.omega, b.d) and _kernel(a) == _kernel(b)
    assert universal_map(f) is not universal_map(twin) and universal_map(f) == universal_map(twin)


def test_a_refused_transport_is_refused_every_time_and_not_kept(qy2, qx4):
    f = load_y_to_x2(qy2, qx4)
    on_source, on_target = kahler_calculus(qy2), kahler_calculus(qx4)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="not over the source algebra"):
            calc_pushforward(f, on_target)
        with pytest.raises(PreconditionError, match="not over the target algebra"):
            calc_pullback(f, on_source)
        with pytest.raises(PreconditionError, match="not over the source algebra"):
            verify_poset_adjunction(f, [on_target], [])
    kept = [f.__dict__.get(build.slot, {}) for build in PAIR_MEMOS]
    assert [len(table) for table in kept] == [0, 0, 0, 0]


def test_the_pair_memo_keeps_neither_the_calculus_nor_the_map_alive(qy2, qx4):
    # with the cyclic collector off, a calculus dropped after its push or
    # pull is freed by its last reference and takes its entries with it,
    # and so is a dropped map: no kept value refers back to either
    f = load_y_to_x2(qy2, qx4)
    u_y, u_x = universal_calculus(qy2), universal_calculus(qx4)
    c = quotient_calculus(u_y, enumerate_action_closed_subspaces(u_y.omega)[1])[0]
    t = quotient_calculus(u_x, enumerate_action_closed_subspaces(u_x.omega)[1])[0]
    gc.disable()
    try:
        calc_pushforward(f, c)
        calc_pullback(f, t)
        tables = [f.__dict__[build.slot] for build in PAIR_MEMOS]
        assert [len(table) for table in tables] == [1, 1, 1, 1]
        refs = weakref.ref(c), weakref.ref(t)
        del c, t
        assert [ref() for ref in refs] == [None, None]
        assert [len(table) for table in tables] == [0, 0, 0, 0]
        # an entry whose calculus lives on does not hold the map either
        calc_pushforward(f, u_y)
        ref = weakref.ref(f)
        del f, tables
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_kept_transport_equals_transport_along_a_fresh_copy(name):
    # a second round along the map returns what it kept, and a copy of the
    # map loaded afterwards builds equal calculi and an equal report of its
    # own, on the universal, Kaehler, zero and two quotient calculi of each end
    f = ORACLE_MAPS[name]()
    cs, ts = transport_family(f.source), transport_family(f.target)
    kept = transports(f, cs, ts)
    again = transports(f, cs, ts)
    fresh = transports(AlgMap(f.source, f.target, f.matrix), cs, ts)
    assert all(a is b for a, b in zip(kept[0] + kept[1], again[0] + again[1]))
    for a, b in zip(kept[0] + kept[1], fresh[0] + fresh[1]):
        assert a is not b and (a.omega, a.d) == (b.omega, b.d) and _kernel(a) == _kernel(b)
    assert kept[2] == again[2] == fresh[2]
    # the adjunction reads each pulled kernel P through the projection of
    # the quotient kept on P, and the pullback records that very projection
    # as its phi
    for t, pulled in zip(ts, kept[1]):
        p = scalars._pulled_kernel(f, t)
        assert vars(p)[bimodule._basis_quotient.slot][1].matrix is _phi(pulled)


# ---------------------------------------------------------------------------
# one quotient map per pulled kernel
# ---------------------------------------------------------------------------

def quotient_map_calls(calls_of) -> list[list]:
    """The calls of quotient_maps in every library module that binds it."""
    modules = [importlib.import_module(f"omegacalc.{m.name}")
               for m in pkgutil.iter_modules(omegacalc.__path__)]
    return [calls_of(module, "quotient_maps") for module in modules
            if hasattr(module, "quotient_maps")]


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_a_cold_pull_builds_two_quotient_maps(name, calls_of):
    # with Omega_u of the source and ker phi of each target built, a pull
    # along a fresh map builds the quotient map of ker(Omega_u(B) -> t) for
    # the preimage and that of the pulled kernel for its quotient, once:
    # 2 per target calculus
    f = ORACLE_MAPS[name]()
    ts = transport_family(f.target)
    universal_calculus(f.source)
    for t in ts:
        _kernel(t)
    calls = quotient_map_calls(calls_of)
    for t in ts:
        calc_pullback(f, t)
    assert sum(map(len, calls)) == 2 * len(ts)


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_a_pull_after_the_adjunction_builds_no_quotient_map(name, calls_of):
    # the adjunction reads the projection onto F* t off the quotient kept on
    # the pulled kernel, and the pull builds its calculus on that quotient
    f = ORACLE_MAPS[name]()
    cs, ts = transport_family(f.source), transport_family(f.target)
    assert verify_poset_adjunction(f, cs, ts)["all_agree"]
    calls = quotient_map_calls(calls_of)
    pulled = [calc_pullback(f, t) for t in ts]
    assert sum(map(len, calls)) == 0
    for t, result in zip(ts, pulled):
        p = scalars._pulled_kernel(f, t)
        kept = vars(p)[bimodule._basis_quotient.slot]
        assert _kernel(result) is p and _phi(result) is kept[1].matrix


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_a_cold_adjunction_builds_no_quotient_action(name, calls_of):
    # the adjunction reads only the quotient map kept on each pulled kernel
    # (bimodule._basis_maps); the actions of F* t are left to a pull
    f = ORACLE_MAPS[name]()
    cs, ts = transport_family(f.source), transport_family(f.target)
    actions = calls_of(bimodule, "_mul_section")
    assert verify_poset_adjunction(f, cs, ts)["all_agree"]
    assert actions == []
    for t in ts:
        kept = vars(scalars._pulled_kernel(f, t))
        assert bimodule._basis_maps.slot in kept
        assert bimodule._basis_quotient.slot not in kept


# the isomorphisms among the oracle maps, with the name oracle_calculi
# takes for their source
ISOMORPHISMS = {"transpose: M2(Q) -> M2(Q)^op": "m2q", "qx3 -> qx3 in the basis x, 1, x^2": "qx3",
                **{name: name.removeprefix("identity of ") for name in ORACLE_MAPS
                   if name.startswith("identity of ")}}


@pytest.mark.parametrize("name", ISOMORPHISMS)
def test_pulling_back_a_pushed_calculus_along_an_isomorphism_returns_it(name):
    # F* F_! c = c when F is invertible; the pull reads f_u^{-1} of the
    # pushed kernel, a saturation already keeping its quotient from the push
    f = ORACLE_MAPS[name]()
    assert rank(f.matrix) == f.source.dim == f.target.dim
    cs = list(oracle_calculi(ISOMORPHISMS[name], f.source).values())
    for c in cs:
        assert _kernel(calc_pullback(f, calc_pushforward(f, c))) == _kernel(c)
    ts = cs if f.target is f.source else list(oracle_calculi("target", f.target).values())
    assert verify_poset_adjunction(f, cs, ts)["all_agree"]
