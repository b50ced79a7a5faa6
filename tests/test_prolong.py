import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is test-only: the one test that needs it is skipped
    given = None

from omegacalc.algebra import Algebra, AlgMap, is_commutative
from omegacalc.bimodule import tensor_over_algebra
from omegacalc.derham import CochainComplex, cohomology, de_rham, de_rham_comparison
from omegacalc.fodc import (
    FirstOrderCalculus,
    PreconditionError,
    _section,
    enumerate_action_closed_subspaces,
    induced_map,
    quotient_calculus,
    universal_calculus,
    zero_calculus,
)
from omegacalc.kahler import kahler_calculus
from omegacalc.linalg import (
    QQ,
    LinAlgError,
    Mat,
    factor_through_surjection,
    image_basis,
    kernel_basis,
    kronecker,
    quotient_maps,
    rank,
    solve,
)
from omegacalc import prolong
from omegacalc.prolong import (
    GradedCalculus,
    MaximalProlongation,
    maximal_prolongation,
    trivial_extension,
    universal_prolongation,
)

import oracles
from oracles import (
    amitsur_differential,
    amitsur_wedge,
    identity_map,
    kron_all,
    truncation_adjoints_check,
    unique_dg_morphism,
    universal_iota,
    universal_proj,
    validation_report,
    vstack,
)
from oracle_algebras import (
    COMMUTATIVE,
    GENERATED,
    INCIDENCE,
    ORACLE_ALGEBRAS,
    ORACLE_MAPS,
    load_fixture,
    oracle_calculi,
    permuted,
    structure_tensor,
)


def test_universal_prolongation_dims_qx2(qx2):
    up = universal_prolongation(qx2, 4)
    assert up.dims == [2, 2, 2, 2, 2]


def test_universal_prolongation_dims_qx3(qx3):
    up = universal_prolongation(qx3, 3)
    assert up.dims == [3, 6, 12, 24]


def test_universal_prolongation_over_field(qq_alg):
    up = universal_prolongation(qq_alg, 3)
    assert up.dims == [1, 0, 0, 0]


def test_universal_prolongation_of_zero_algebra():
    assert universal_prolongation(Algebra(QQ, 0, [], []), 2).dims == [0, 0, 0]


def test_maximal_prolongation_of_zero_algebra():
    assert maximal_prolongation(zero_calculus(Algebra(QQ, 0, [], [])), 2).dims == [0, 0, 0]


def test_splitting_and_embedding(qx3):
    up = universal_prolongation(qx3, 3)
    iota, proj = universal_iota(qx3, 3), universal_proj(qx3, 3)
    for n in range(4):
        assert proj[n] * iota[n] == Mat.identity(QQ, up.dims[n])
        assert rank(iota[n]) == up.dims[n]


def universal_forms_oracle(alg, k):
    """The forms a0 da1 ... dak in A^(x)(k+1), each ai a basis element, built
    from the structure constants alone: da = 1 (x) a - a (x) 1, and a product
    of tensors multiplies the two factors where they touch."""
    f, n = alg.field, alg.dim

    def d(a):
        w = {}
        for c, u in enumerate(alg.unit):
            if u:
                w[c * n + a] = f.add(w.get(c * n + a, f.zero()), u)
                w[a * n + c] = f.sub(w.get(a * n + c, f.zero()), u)
        return w

    def times(v, w):  # v in A^(x)(m+1), w in A^(x)2
        out = {}
        for iv, x in v.items():
            head, last = divmod(iv, n)
            for iw, y in w.items():
                first, tail = divmod(iw, n)
                for c, s in enumerate(alg.mult_mat.column(last * n + first)):
                    if s:
                        idx = (head * n + c) * n + tail
                        out[idx] = f.add(out.get(idx, f.zero()), f.mul(f.mul(x, y), s))
        return out

    forms = [{a0: f.one()} for a0 in range(n)]
    for _ in range(k):
        forms = [times(v, d(a)) for v in forms for a in range(n)]
    size = n ** (k + 1)
    return Mat.from_cols(f, [[v.get(i, f.zero()) for i in range(size)] for v in forms], rows=size)


@pytest.mark.parametrize("fixture,max_degree", [
    ("qx2", 3), ("qx3", 3), ("m2q", 3), ("f2x2", 3), ("qz3", 3), ("qs3", 2),
])
def test_universal_prolongation_is_span_of_forms(fixture, max_degree, request):
    alg = request.getfixturevalue(fixture)
    up = universal_prolongation(alg, max_degree)
    iota, proj = universal_iota(alg, max_degree), universal_proj(alg, max_degree)
    for k in range(max_degree + 1):
        assert rank(iota[k]) == up.dims[k]
        assert image_basis(universal_forms_oracle(alg, k)) == image_basis(iota[k])
        assert proj[k] * iota[k] == Mat.identity(alg.field, up.dims[k])


def joint_kernel_oracle(alg, k):
    """Omega^k of the universal calculus as the joint kernel in A^(x)(k+1) of
    the maps 1^(x)i (x) m (x) 1^(x)(k-1-i), i < k, stacked into one matrix."""
    stacked = amitsur_wedge(alg, 0, k - 1)
    for i in range(1, k):
        stacked = vstack(stacked, amitsur_wedge(alg, i, k - 1 - i))
    return kernel_basis(stacked)


@pytest.mark.parametrize("name,perm,max_degree", [
    ("f2x2", None, 3), ("f3x3", None, 3), ("m2q", None, 3), ("q", None, 3), ("qs3", None, 2),
    ("qx2", None, 3), ("qx3", None, 3), ("qx4", None, 3), ("qz2", None, 3), ("qz3", None, 3),
    ("qx3", [1, 0, 2], 3),
])
def test_universal_prolongation_is_joint_kernel(name, perm, max_degree):
    # the forms a0 da1 ... dak span the joint kernel and are independent;
    # Q[x]/x^3 in the basis x, 1, x^2 has its unit at e1, which moves the
    # basis index that universal_prolongation leaves out of A-bar
    alg = load_fixture(name)
    if perm:
        alg = permuted(alg, perm)
        assert alg.unit == [0, 1, 0]
    up = universal_prolongation(alg, max_degree)
    iota = universal_iota(alg, max_degree)
    for k in range(1, max_degree + 1):
        assert rank(iota[k]) == up.dims[k]
        assert image_basis(iota[k]) == joint_kernel_oracle(alg, k)


@pytest.mark.parametrize("fixture", ["qx2", "qx3", "m2q", "f2x2", "qz2", "qz3"])
def test_degree_two_matches_tensor_over_algebra(fixture, request):
    alg = request.getfixturevalue(fixture)
    up = universal_prolongation(alg, 2)
    iota = universal_iota(alg, 2)
    u = universal_calculus(alg)
    t, _ = tensor_over_algebra(u.omega, u.omega)
    assert t.dim == up.dims[2]
    forms = amitsur_wedge(alg, 1, 1) * kronecker(u.iota, u.iota)
    assert image_basis(forms) == image_basis(iota[2])


def test_amitsur_compatibility(qx2):
    up = universal_prolongation(qx2, 3)
    iota = universal_iota(qx2, 3)
    for n in range(3):
        assert iota[n + 1] * up.diff[n] == amitsur_differential(qx2, n) * iota[n]


def test_validation_report_empty(qx2):
    up = universal_prolongation(qx2, 4)
    assert validation_report(up) == []


def test_amitsur_complex_over_field(qq_alg):
    diff = [amitsur_differential(qq_alg, n) for n in range(4)]
    assert [(d.rows, d.cols) for d in diff] == [(1, 1)] * 4
    assert diff[0].is_zero()
    assert diff[1] == Mat.identity(QQ, 1)


@pytest.mark.parametrize("fixture", ["qx2", "qz2"])
def test_amitsur_d_squared_zero(fixture, request):
    alg = request.getfixturevalue(fixture)
    for n in range(2):
        assert (amitsur_differential(alg, n + 1) * amitsur_differential(alg, n)).is_zero()


def test_maximal_prolongation_of_universal_is_universal(qx2):
    u = universal_calculus(qx2)
    maxi = maximal_prolongation(u, 3)
    up = universal_prolongation(qx2, 3)
    assert maxi.dims == up.dims
    # the dg morphism from the universal prolongation is injective in every degree
    maps = unique_dg_morphism(up, maxi, identity_map(qx2))
    assert maps is not None
    for m in maps:
        assert kernel_basis(m).cols == 0


def test_maximal_prolongation_of_zero(qx2):
    maxi = maximal_prolongation(zero_calculus(qx2), 3)
    assert maxi.dims == [2, 0, 0, 0]


def test_maximal_prolongation_degree_one_is_input(qx3):
    k = kahler_calculus(qx3)
    maxi = maximal_prolongation(k, 3)
    assert maxi.dims[1] == k.dim
    assert maxi.diff[0] == k.d
    assert maxi.wedge[(0, 1)] == k.omega.left_mat
    assert maxi.wedge[(1, 0)] == k.omega.right_mat


def test_maximal_prolongation_has_no_public_constructor(qx3):
    # maximal_prolongation is the only way to a MaximalProlongation, so every
    # instance has the quotient maps from_universal reads; the same maps
    # handed to the public constructor make a checked GradedCalculus
    built = maximal_prolongation(kahler_calculus(qx3), 2)
    args = (built.alg, built.max_degree, built.dims, built.diff, dict(built.wedge))
    for call in (lambda: MaximalProlongation(*args), lambda: MaximalProlongation()):
        with pytest.raises(TypeError, match=r"maximal_prolongation\(c, max_degree\)"):
            call()
    assert GradedCalculus(*args).dims == built.dims == [3, 2, 0]


def pushout_chain_oracle(c, max_degree):
    """Independent realization of each degree as the colimit of the span
    diagram: relations glue wedge values to lower-degree tensor products and
    differentials to the previous degree, all stacked into one cokernel."""
    alg = c.alg
    f = alg.field
    up = universal_prolongation(alg, max_degree)
    iota = universal_iota(alg, max_degree)
    u = universal_calculus(alg)
    # degree 1 of up in the basis of u, both inside A (x) A
    up_to_u = solve(u.iota, iota[1])
    g = [Mat.identity(f, alg.dim), induced_map(c).matrix * up_to_u]
    dims = [alg.dim, c.dim]
    kernels = [kernel_basis(g[0]), kernel_basis(g[1])]
    for n in range(2, max_degree + 1):
        zdim = up.dims[n]
        blocks = [(i, n - i) for i in range(1, n)]
        wdims = [dims[i] * dims[j] for i, j in blocks]
        ydim = dims[n - 1]
        total = zdim + sum(wdims) + ydim
        rel_cols = []
        for bidx, (i, j) in enumerate(blocks):
            src_dim = up.dims[i] * up.dims[j]
            wedge_cols = up.wedge[(i, j)]
            mapped = kronecker(g[i], g[j])
            offset = zdim + sum(wdims[:bidx])
            for col in range(src_dim):
                vec = [f.zero()] * total
                wc = wedge_cols.column(col)
                for r, v in enumerate(wc):
                    vec[r] = v
                mc = mapped.column(col)
                for r, v in enumerate(mc):
                    vec[offset + r] = f.sub(vec[offset + r], v)
                rel_cols.append(vec)
        offset_y = zdim + sum(wdims)
        dcol = up.diff[n - 1]
        for col in range(up.dims[n - 1]):
            vec = [f.zero()] * total
            for r, v in enumerate(dcol.column(col)):
                vec[r] = v
            for r, v in enumerate(g[n - 1].column(col)):
                vec[offset_y + r] = f.sub(vec[offset_y + r], v)
            rel_cols.append(vec)
        rel = Mat.from_cols(f, rel_cols, rows=total)
        q, _s = quotient_maps(image_basis(rel), total)
        incl_z = Mat.from_entries(f, total, zdim, [(r, r, 1) for r in range(zdim)])
        g_n = q * incl_z
        # the colimit is covered by the universal component
        assert rank(g_n) == q.rows
        g.append(g_n)
        dims.append(q.rows)
        kernels.append(kernel_basis(g_n))
    return dims, kernels


def proper_quotient(alg, index):
    """The quotient of the universal calculus by its index-th proper nonzero
    action-closed subspace, in the enumeration order."""
    u = universal_calculus(alg)
    subs = [n for n in enumerate_action_closed_subspaces(u.omega) if 0 < n.cols < u.dim]
    return quotient_calculus(u, subs[index])[0]


@pytest.mark.parametrize("fixture,build,deg,dims", [
    ("qx3", "kahler", 3, [3, 2, 0, 0]),
    ("qx2", "kahler", 3, [2, 1, 0, 0]),
    ("f2x2", "kahler", 3, [2, 2, 2, 2]),
    ("qz2", "quotient 0", 3, [2, 1, 0, 0]),
    ("qx3", "quotient 0", 3, [3, 5, 8, 13]),
    ("m2q", "quotient 1", 2, [4, 8, 12]),
    ("qz3", "universal", 3, [3, 6, 12, 24]),
    ("qz3", "zero", 3, [3, 0, 0, 0]),
], ids=["kahler_qx3", "kahler_qx2", "kahler_f2x2", "quot_qz2", "quot_qx3", "quot_m2q",
        "universal_qz3", "zero_qz3"])
def test_maximal_prolongation_matches_pushout_oracle(fixture, build, deg, dims, request):
    # the dg morphism from the universal prolongation carries d and wedge, so
    # equal kernels in every degree make the two realizations isomorphic
    alg = request.getfixturevalue(fixture)
    if build == "kahler":
        c = kahler_calculus(alg)
    elif build == "universal":
        c = universal_calculus(alg)
    elif build == "zero":
        c = zero_calculus(alg)
    else:
        c = proper_quotient(alg, int(build.split()[1]))
    maxi = maximal_prolongation(c, deg)
    oracle_dims, oracle_kernels = pushout_chain_oracle(c, deg)
    assert maxi.dims == oracle_dims == dims
    maps = unique_dg_morphism(universal_prolongation(alg, deg), maxi, identity_map(alg))
    assert maps is not None
    for n in range(deg + 1):
        assert kernel_basis(maps[n]) == oracle_kernels[n]


def test_trivial_extension_is_valid(qx3):
    te = trivial_extension(kahler_calculus(qx3), 3)
    assert te.dims == [3, 2, 0, 0]
    assert validation_report(te) == []


def test_unique_dg_morphism_identity(qx2):
    up = universal_prolongation(qx2, 3)
    maps = unique_dg_morphism(up, up, identity_map(qx2))
    assert maps is not None
    assert all(m == Mat.identity(QQ, d) for m, d in zip(maps, up.dims))


def test_unique_dg_morphism_to_maximal_kahler(qx2):
    up = universal_prolongation(qx2, 3)
    k = kahler_calculus(qx2)
    maxi = maximal_prolongation(k, 3)
    maps = unique_dg_morphism(up, maxi, identity_map(qx2))
    assert maps is not None
    assert all(rank(m) == d for m, d in zip(maps, maxi.dims))
    assert maps[1] == induced_map(k).matrix


def test_no_morphism_from_zero_prolongation(qx2):
    mz = maximal_prolongation(zero_calculus(qx2), 3)
    up = universal_prolongation(qx2, 3)
    assert unique_dg_morphism(mz, up, identity_map(qx2)) is None


def test_morphism_along_algebra_map(qy2, qx4):
    from omegacalc.algebra import AlgMap

    f = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    src = universal_prolongation(qy2, 2)
    tgt = trivial_extension(universal_calculus(qx4), 2)
    maps = unique_dg_morphism(src, tgt, f)
    assert maps is not None
    assert maps[0] == f.matrix


def amitsur_route_dg_morphism(src, tgt, f0):
    """unique_dg_morphism through the Amitsur surjections, the route it
    replaced: h^n p_n(src) = p_n(tgt) f0^(x)(n+1) with p_n: A^(x)(n+1) ->>
    Omega^n, a0 (x) ... (x) an -> a0 da1 ... dan, then the same d and wedge
    checks."""
    def surjections(g):
        ps = [Mat.identity(g.alg.field, g.alg.dim)]
        for n in range(1, g.max_degree + 1):
            ps.append(g.wedge[(n - 1, 1)] * kronecker(ps[n - 1], g.diff[0]))
        return ps

    maps = []
    for n, (p_src, p_tgt) in enumerate(zip(surjections(src), surjections(tgt))):
        h_n = factor_through_surjection(p_tgt * kron_all([f0.matrix] * (n + 1)), p_src)
        if h_n is None:
            return None
        maps.append(h_n)
    for n in range(src.max_degree):
        if maps[n + 1] * src.diff[n] != tgt.diff[n] * maps[n]:
            return None
    for (i, j), w in src.wedge.items():
        if maps[i + j] * w != tgt.wedge[(i, j)] * kronecker(maps[i], maps[j]):
            return None
    return maps


def graded_family(alg, calculi, max_degree=3):
    """The universal prolongation, and the maximal prolongation and trivial
    extension of each calculus of alg."""
    family = {"universal prolongation": universal_prolongation(alg, max_degree)}
    for label, c in calculi.items():
        family[f"maximal({label})"] = maximal_prolongation(c, max_degree)
        family[f"trivial({label})"] = trivial_extension(c, max_degree)
    return family


DG_MORPHISM_MAPS = [name for name in ORACLE_MAPS if not name.startswith("identity of")] + [
    f"identity of {name}" for name in ("qx3", "qz3", "m2q", "f2x2", "V 0<1, 0<2", "zero algebra")
] + ["identity of k(S3)"]


def dg_morphism_case(name):
    """f0, and the calculi of its source and of its target: the oracle
    calculi, or on k(S3) the transposition calculus."""
    if name == "identity of k(S3)":
        c = transposition_calculus()
        return identity_map(c.alg), {"transpositions": c}, {"transpositions": c}
    f0 = ORACLE_MAPS[name]()
    return f0, oracle_calculi(None, f0.source), oracle_calculi(None, f0.target)


@pytest.mark.parametrize("name", DG_MORPHISM_MAPS)
def test_unique_dg_morphism_matches_the_amitsur_route(name):
    # the oracle behind factoring one degree at a time through g_n:
    # p_n = g_n (p_(n-1) (x) 1), so both routes find the same maps; at
    # degree 3 the wedges (1, 2) and (2, 1) the oracle re-checks are reached
    # by the induction steps of the certificate
    f0, source_calculi, target_calculi = dg_morphism_case(name)
    sources = graded_family(f0.source, source_calculi)
    targets = graded_family(f0.target, target_calculi)
    found = 0
    for s_label, src in sources.items():
        for t_label, tgt in targets.items():
            maps = unique_dg_morphism(src, tgt, f0)
            assert maps == amitsur_route_dg_morphism(src, tgt, f0), (s_label, t_label)
            found += maps is not None
    # the universal prolongation maps to every graded calculus
    assert found >= len(targets)


def test_unique_dg_morphism_builds_no_ambient_map(qx3, qy2, qx4, monkeypatch):
    f = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    pairs = [
        (universal_prolongation(qx3, 3), maximal_prolongation(kahler_calculus(qx3), 3),
         identity_map(qx3)),
        (universal_prolongation(qy2, 3), universal_prolongation(qx4, 3), f),
    ]
    # the universal wedges are Kronecker products W (x) I, built on first
    # read: read them all first, so what is refused below is a map that
    # unique_dg_morphism itself would build
    for src, tgt, _f0 in pairs:
        dict(src.wedge), dict(tgt.wedge)

    def refuse(*args):
        raise RuntimeError("ambient map built")

    for name in ("amitsur_differential", "amitsur_wedge", "kron_all", "kronecker"):
        monkeypatch.setattr(oracles, name, refuse)
    for src, tgt, f0 in pairs:
        maps = unique_dg_morphism(src, tgt, f0)
        assert maps is not None and maps[0] == f0.matrix


# every commutative oracle algebra over Q, GF(2), GF(3) and GF(5), and every
# oracle algebra of dimension at most 4, where the first noncommutative ones
# (M2(Q), M2(GF(3)), qx2 + Omega_u(qx2)) appear
PROJECTION_ALGEBRAS = {name: build for name, build in ORACLE_ALGEBRAS.items()
                       if (alg := build()).dim <= 4 or is_commutative(alg)}
PROJECTION_ALGEBRAS.update(COMMUTATIVE)


def projection_cases(alg):
    """The calculi whose maximal prolongations the closed-form maps are held
    to: the universal and zero calculi, the Kaehler calculus of a
    commutative algebra, and, below dimension 5, the quotient by every
    subspace of the enumerated lattice of the universal calculus."""
    u = universal_calculus(alg)
    calculi = {"universal": u, "zero": zero_calculus(alg)}
    if is_commutative(alg):
        calculi["kahler"] = kahler_calculus(alg)
    if alg.dim <= 4:
        calculi.update((f"quotient {i}", quotient_calculus(u, sub)[0])
                       for i, sub in enumerate(enumerate_action_closed_subspaces(u.omega)))
    return calculi


@pytest.mark.parametrize("name", PROJECTION_ALGEBRAS)
def test_maps_from_the_universal_prolongation_match_unique_dg_morphism(name):
    # the oracle behind the certificate at MaximalProlongation.from_universal:
    # h^k = Q_k (h^(k-1) (x) I) is the map the degreewise factoring finds,
    # through the zero branch past a zero component and, on the universal
    # calculus, where every Q_k is the identity; on the Kaehler calculus,
    # read on the generic universal theory's representatives, it is the
    # comparison de_rham_comparison reads off the closed form
    alg = PROJECTION_ALGEBRAS[name]()
    top = 3 if alg.dim <= 4 else 2
    up = universal_prolongation(alg, top)
    for label, c in projection_cases(alg).items():
        maxi = maximal_prolongation(c, top)
        maps = maxi.from_universal
        assert maps == unique_dg_morphism(up, maxi, identity_map(alg)), label
        assert [(m.rows, m.cols) for m in maps] == list(zip(maxi.dims, up.dims)), label
        if label == "universal":
            assert maps == [Mat.identity(alg.field, d) for d in up.dims]
        if label == "kahler":
            rep_u = cohomology(CochainComplex.from_graded(up))
            rep_k = cohomology(CochainComplex.from_graded(maxi))
            assert de_rham_comparison(alg, top)["comparison"] == [
                dk.class_coordinates(maps[du.n] * du.representatives)
                for du, dk in zip(rep_u.degrees, rep_k.degrees)]


def test_validation_report_sees_a_calculus_not_generated_in_degree_zero(qq_alg):
    # over Q, Omega^1 = 0 and Omega^2 = Q: every identity holds, but no
    # product a0 da1 da2 reaches Omega^2
    def zero(rows, cols):
        return Mat.zeros(QQ, rows, cols)

    one = Mat.identity(QQ, 1)
    wedge = {(0, 0): qq_alg.mult_mat, (0, 1): zero(0, 0), (1, 0): zero(0, 0),
             (0, 2): one, (2, 0): one, (1, 1): zero(1, 0)}
    g = GradedCalculus(qq_alg, 2, [1, 0, 1], [zero(0, 1), zero(1, 0)], wedge)
    assert validation_report(g) == ["surjectivity fails at degree 2"]


def test_truncation_adjoints_endpoints(qx2):
    u = universal_calculus(qx2)
    fodcs = [u, zero_calculus(qx2)]
    gradeds = [universal_prolongation(qx2, 2),
               trivial_extension(zero_calculus(qx2), 2)]
    rep = truncation_adjoints_check(qx2, fodcs, gradeds, 2)
    assert rep["all_agree"]


def test_truncation_adjoints_kahler_family(qx3):
    u = universal_calculus(qx3)
    k = kahler_calculus(qx3)
    fodcs = [u, k, zero_calculus(qx3)]
    gradeds = [
        universal_prolongation(qx3, 2),
        maximal_prolongation(k, 2),
        trivial_extension(k, 2),
        trivial_extension(zero_calculus(qx3), 2),
    ]
    rep = truncation_adjoints_check(qx3, fodcs, gradeds, 2)
    assert rep["all_agree"]


def test_universal_prolongation_noncommutative(m2q):
    up = universal_prolongation(m2q, 2)
    assert up.dims == [4, 12, 36]
    assert validation_report(up) == []


@pytest.mark.parametrize("fixture", ["qx2", "qz2", "qx3"])
def test_amitsur_cohomology_is_contractible(fixture, request):
    # unit insertion splits the complex: scalars in degree 0, nothing above
    from omegacalc.derham import CochainComplex, cohomology

    alg = request.getfixturevalue(fixture)
    dims = [alg.dim ** (n + 1) for n in range(4)]
    rep = cohomology(CochainComplex(dims, [amitsur_differential(alg, n) for n in range(3)]))
    assert rep.dims() == [1, 0, 0]


@pytest.mark.parametrize("fixture", ["qx2", "qx3"])
def test_maximal_prolongation_universal_property(fixture, request):
    # unique dg morphism onto anything sharing degree <= 1, with h1 = id
    alg = request.getfixturevalue(fixture)
    u = universal_calculus(alg)
    maxi = maximal_prolongation(u, 3)
    te = trivial_extension(u, 3)
    maps = unique_dg_morphism(maxi, te, identity_map(alg))
    assert maps is not None
    assert maps[1] == Mat.identity(QQ, u.dim)
    # and nothing maps the other way once the differential dies early
    assert unique_dg_morphism(te, maxi, identity_map(alg)) is None


@pytest.mark.parametrize("name,max_degree", [
    ("f2x2", 3), ("f3x3", 3), ("m2q", 3), ("q", 3), ("qs3", 2), ("qx2", 3), ("qx3", 3),
    ("qx4", 3), ("qz2", 3), ("qz3", 3), ("opposite(qs3)", 2), ("qx2 + Omega_u(qx2)", 3),
    ("qx2 + qx2", 3), ("M2(GF(3))", 3), ("qx3 in the basis x, 1, x^2", 3),
])
def test_universal_prolongation_passes_full_validation(name, max_degree):
    # the oracle behind the Amitsur certificate: universal_prolongation no
    # longer runs validation_report, so the suite runs it here
    alg = GENERATED[name]() if name in GENERATED else load_fixture(name)
    up = universal_prolongation(alg, max_degree)
    assert validation_report(up) == []


def oracle_degree(alg):
    """The top degree the Amitsur oracles reach: A^(x)4 has 1296 rows at dim 6."""
    return 2 if alg.dim > 4 else 3


def materialized_universal_prolongation(alg, max_degree):
    """iota, proj, wedge and d of the universal prolongation with every
    Amitsur map built as a matrix: the forms a0 da1 ... dak through
    amitsur_wedge and kronecker, proj = 1 (x) pi^(x)k with pi: A ->> A-bar
    the projection along the unit, d and wedge read back through proj."""
    f, n = alg.field, alg.dim
    pivot = next((i for i, x in enumerate(alg.unit) if x), None)
    bar = [j for j in range(n) if j != pivot]
    if pivot is None:
        pi = Mat.zeros(f, 0, 0)
    else:
        # a - (a_p / u_p) 1, at the rows other than p
        along = Mat.from_entries(f, 1, n, [(0, pivot, f.inv(alg.unit[pivot]))])
        pi = (Mat.identity(f, n) - alg.unit_mat * along).transpose().select_cols(bar).transpose()
    d_bar = amitsur_differential(alg, 0).select_cols(bar)
    iota = [Mat.identity(f, n)]
    for k in range(1, max_degree + 1):
        iota.append(amitsur_wedge(alg, k - 1, 1) * kronecker(iota[k - 1], d_bar))
    proj = [kron_all([Mat.identity(f, n)] + [pi] * k) for k in range(max_degree + 1)]
    wedge = {(i, j): proj[i + j] * amitsur_wedge(alg, i, j) * kronecker(iota[i], iota[j])
             for i in range(max_degree + 1) for j in range(max_degree + 1 - i)}
    diff = [proj[k + 1] * amitsur_differential(alg, k) * iota[k] for k in range(max_degree)]
    return iota, proj, wedge, diff


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_universal_prolongation_equals_its_materialized_definition(name):
    alg = ORACLE_ALGEBRAS[name]()
    top = oracle_degree(alg)
    up = universal_prolongation(alg, top)
    iota, proj = universal_iota(alg, top), universal_proj(alg, top)
    assert (iota, proj, up.wedge, up.diff) == materialized_universal_prolongation(alg, top)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_universal_prolongation_is_amitsur_compatible(name):
    # the oracle behind the Cuntz-Quillen certificate: iota embeds the
    # universal prolongation into the Amitsur complex as a dg subalgebra
    alg = ORACLE_ALGEBRAS[name]()
    top = oracle_degree(alg)
    up = universal_prolongation(alg, top)
    iota, proj = universal_iota(alg, top), universal_proj(alg, top)
    for k in range(top + 1):
        assert rank(iota[k]) == up.dims[k], k
        assert proj[k] * iota[k] == Mat.identity(alg.field, up.dims[k]), k
    for k in range(top):
        assert iota[k + 1] * up.diff[k] == amitsur_differential(alg, k) * iota[k], k
    for i in range(top + 1):
        for j in range(top + 1 - i):
            rhs = amitsur_wedge(alg, i, j) * kronecker(iota[i], iota[j])
            assert iota[i + j] * up.wedge[(i, j)] == rhs, (i, j)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_universal_prolongation_is_maximal_prolongation_of_universal_calculus(name):
    # one basis for both: with N = 0, phi is the identity of A (x) A-bar
    alg = ORACLE_ALGEBRAS[name]()
    top = oracle_degree(alg)
    up = universal_prolongation(alg, top)
    maxi = maximal_prolongation(universal_calculus(alg), top)
    assert (maxi.dims, maxi.diff, maxi.wedge) == (up.dims, up.diff, up.wedge)


@pytest.mark.parametrize("name,max_degree", [
    ("f2x2", 3), ("f3x3", 3), ("m2q", 3), ("q", 3), ("qs3", 2), ("qx2", 3), ("qx3", 3),
    ("qx4", 3), ("qz2", 3), ("qz3", 3), ("opposite(qs3)", 2), ("qx2 + Omega_u(qx2)", 3),
    ("qx2 + qx2", 3), ("M2(GF(3))", 3), ("qx3 in the basis x, 1, x^2", 3),
    ("chain 0<1<2", 2), ("V 0<1, 0<2", 3),
])
def test_maximal_prolongation_and_trivial_extension_pass_full_validation(name, max_degree):
    # the oracle behind their certificates: neither construction runs
    # validation_report, so the suite runs it here
    build = GENERATED.get(name) or INCIDENCE.get(name)
    alg = build() if build else load_fixture(name)
    for label, c in oracle_calculi(name, alg).items():
        assert validation_report(maximal_prolongation(c, max_degree)) == [], label
        assert validation_report(trivial_extension(c, max_degree)) == [], label


def test_constructions_are_certified_not_validated(qx3, qz2, monkeypatch):
    import omegacalc.hopf as hopf

    def refuse(*args):
        raise RuntimeError("report called")

    for name in ("validation_report", "check_hopf_module", "d_comodule_report"):
        monkeypatch.setattr(oracles, name, refuse)
    assert universal_prolongation(qx3, 3).dims == [3, 6, 12, 24]
    assert maximal_prolongation(universal_calculus(qx3), 3).dims == [3, 6, 12, 24]
    assert trivial_extension(kahler_calculus(qx3), 3).dims == [3, 2, 0, 0]
    h = hopf.group_like_bimonoid(qz2)
    assert hopf.universal_coactions(h).dim == 2
    # the quotient coactions are certified too
    for c in (universal_calculus(qz2), zero_calculus(qz2)):
        assert hopf.bicovariance_check(h, c)["hopf_calculus_ok"]


def test_universal_prolongation_builds_no_ambient_map(qs3, monkeypatch):
    def refuse(*args):
        raise RuntimeError("ambient map built")

    rows = []

    def recording(x, y):
        out = kronecker(x, y)
        rows.append(out.rows)
        return out

    for name in ("amitsur_differential", "amitsur_wedge", "kron_all"):
        monkeypatch.setattr(oracles, name, refuse)
    monkeypatch.setattr(prolong, "kronecker", recording)
    up = universal_prolongation(qs3, 3)
    assert up.dims == [6, 30, 150, 750]
    # A^(x)4 has 1296 rows; every Kronecker product stays inside Omega^3
    assert rows and max(rows) <= up.dims[3]


def test_prolongation_stops_at_the_first_zero_component(qx3, qq_alg, monkeypatch):
    # Omega^2 = 0 for the Kaehler calculus of Q[x]/x^3 and Omega^1 = 0 over
    # Q: every map above is zero, and none is computed
    k = kahler_calculus(qx3)
    maxi, te = maximal_prolongation(k, 6), trivial_extension(k, 6)
    assert (maxi.dims, maxi.diff, maxi.wedge) == (te.dims, te.diff, te.wedge)
    calls = []

    def recording(x, y):
        calls.append((x.rows, y.rows))
        return kronecker(x, y)

    monkeypatch.setattr(prolong, "kronecker", recording)
    counts = []
    for max_degree in (3, 40):
        calls.clear()
        maximal_prolongation(k, max_degree)
        assert universal_prolongation(qq_alg, max_degree).dims == [1] + [0] * max_degree
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("max_degree", [0, -1])
def test_trivial_extension_needs_degree_one(qx2, max_degree):
    with pytest.raises(PreconditionError, match="max degree must be at least 1"):
        trivial_extension(universal_calculus(qx2), max_degree)


def _drop_top_dim(g):
    return dict(dims=g.dims[:-1])


def _drop_diff(g):
    return dict(diff=g.diff[:-1])


def _transpose_diff(g):
    return dict(diff=[g.diff[0].transpose()] + g.diff[1:])


def _drop_wedge(g):
    return dict(wedge={k: w for k, w in g.wedge.items() if k != (1, 1)})


def _extra_wedge(g):
    return dict(wedge={**g.wedge, (2, 1): Mat.zeros(QQ, 0, g.dims[2] * g.dims[1])})


def _wedge_shape(g):
    w = g.wedge[(1, 1)]
    return dict(wedge={**g.wedge, (1, 1): Mat.zeros(QQ, w.rows, w.cols + 1)})


@pytest.mark.parametrize("change,message", [
    (_drop_top_dim, "one component per degree"),
    (_drop_diff, "one differential per adjacent pair"),
    (_transpose_diff, "differential 0 has wrong shape"),
    (_drop_wedge, "one wedge map per pair"),
    (_extra_wedge, "one wedge map per pair"),
    (_wedge_shape, r"wedge \(1,1\) has wrong shape"),
])
def test_graded_calculus_shapes_are_checked_without_check(qx3, change, message):
    g = universal_prolongation(qx3, 2)
    parts = dict(max_degree=g.max_degree, dims=g.dims, diff=g.diff, wedge=g.wedge)
    parts.update(change(g))
    with pytest.raises(LinAlgError, match=message):
        GradedCalculus(qx3, **parts)


def transposition_calculus():
    """The calculus on k(S3), the functions on S3 in the basis of the delta_g,
    spanned by the delta_x d delta_y with x^-1 y a transposition: the
    quotient of Omega_u by the delta_x (x) delta_y, x != y, with x^-1 y a
    3-cycle (Woronowicz 1989)."""
    table = [[e_ij.index(1) for e_ij in row] for row in structure_tensor(load_fixture("qs3"))]
    n = len(table)
    e = table.index(list(range(n)))
    inv = [row.index(e) for row in table]
    alg = Algebra(QQ, n, [[[int(k == i == j) for k in range(n)] for j in range(n)]
                          for i in range(n)], [1] * n)
    u = universal_calculus(alg)
    cycle = [x * n + y for x in range(n) for y in range(n)
             if x != y and table[table[inv[x]][y]][table[inv[x]][y]] != e]
    rel = Mat.from_entries(QQ, n * n, len(cycle), [(r, k, 1) for k, r in enumerate(cycle)])
    return quotient_calculus(u, image_basis(u.retraction * rel))[0]


def test_transposition_calculus_prolongs_to_the_maximal_dims():
    g = maximal_prolongation(transposition_calculus(), 4)
    assert g.dims == [6, 18, 42, 90, 186]
    assert validation_report(g) == []


SMALL_ALGEBRAS = [name for name in ORACLE_ALGEBRAS if ORACLE_ALGEBRAS[name]().dim <= 3]


def fresh_graded(name, label):
    """A new instance, from a new algebra up, of the universal prolongation
    or of the maximal prolongation of one oracle calculus of a small oracle
    algebra, to degree 3, or of the k(S3) transposition calculus to degree 4."""
    if name == "k(S3)":
        return maximal_prolongation(transposition_calculus(), 4)
    alg = ORACLE_ALGEBRAS[name]()
    if label == "universal prolongation":
        return universal_prolongation(alg, 3)
    return maximal_prolongation(oracle_calculi(name, alg)[label], 3)


def drawn(test):
    """test(data), driven by Hypothesis, or skipped where it is not installed."""
    if given is None:
        return pytest.mark.skip(reason="needs hypothesis")(test)
    return settings(max_examples=40, deadline=None, derandomize=True)(given(st.data())(test))


@drawn
def test_wedges_do_not_depend_on_the_order_they_are_read(data):
    # each wedge is built on its first read, from the wedges it reads in turn
    name = data.draw(st.sampled_from(SMALL_ALGEBRAS + ["k(S3)"]))
    labels = ["transpositions"] if name == "k(S3)" else (
        ["universal prolongation"] + list(oracle_calculi(name, ORACLE_ALGEBRAS[name]())))
    label = data.draw(st.sampled_from(labels))
    graded = fresh_graded(name, label)
    order = data.draw(st.permutations(sorted(graded.wedge)))
    read = {key: graded.wedge[key] for key in order}
    fresh = fresh_graded(name, label)
    assert read == {key: fresh.wedge[key] for key in sorted(fresh.wedge)}


@pytest.mark.parametrize("build", [universal_prolongation,
                                   lambda a, top: maximal_prolongation(universal_calculus(a), top)],
                         ids=["universal", "maximal"])
def test_a_wedge_far_from_the_actions_is_read_first_without_recursion(build, qx2):
    # each wedge reads the one before it in its chain, (i, j - 1) or
    # (i - 1, 0); reading (0, 600) or (600, 0) first built 600 nested reads
    top, half = 600, 300
    first = build(qx2, top)
    read = {key: first.wedge[key] for key in [(0, top), (top, 0), (half, half)]}
    # the three chains in sorted order, each read one step past a built wedge
    chains = ({(0, j) for j in range(top + 1)} | {(i, 0) for i in range(top + 1)}
              | {(half, j) for j in range(half + 1)})
    second = build(qx2, top)
    in_order = {key: second.wedge[key] for key in sorted(chains)}
    assert read == {key: in_order[key] for key in read}


@pytest.mark.parametrize("name", ["qx3", "qz3", "m2q", "f2x2", "qs3", "chain 0<1<2"])
def test_dims_and_de_rham_build_no_wedge_beyond_the_actions(name, monkeypatch):
    # only the actions are read: the relations read Omega^(k-1) . N, and the
    # universal calculus reads both actions of Omega^1
    built = []

    class Recording(prolong._Wedges):
        def __init__(self, max_degree, dims, maps, make):
            super().__init__(max_degree, dims, maps,
                             lambda wedge, i, j: built.append((i, j)) or make(wedge, i, j))

    monkeypatch.setattr(prolong, "_Wedges", Recording)
    alg = INCIDENCE[name]() if name in INCIDENCE else load_fixture(name)
    top = oracle_degree(alg)
    assert len(universal_prolongation(alg, top).dims) == top + 1
    de_rham(alg, "universal", top)
    if is_commutative(alg):
        de_rham(alg, "kahler", top)
    assert [(i, j) for i, j in built if j >= 1 and i + j >= 2] == []
    # the comparison morphism is read off the quotient maps, so it builds no
    # wedge beyond the actions either
    if is_commutative(alg):
        de_rham_comparison(alg, top)
        assert [(i, j) for i, j in built if j >= 1 and i + j >= 2] == []


def test_a_lazy_wedge_of_the_wrong_shape_raises_when_read(qx3):
    g = universal_prolongation(qx3, 2)
    w = g.wedge[(1, 1)]

    def make(_wedge, i, j):
        return Mat.zeros(QQ, w.rows, w.cols + 1) if (i, j) == (1, 1) else g.wedge[(i, j)]

    bad = GradedCalculus(qx3, 2, g.dims, g.diff,
                         prolong._Wedges(2, g.dims, {(0, 0): qx3.mult_mat}, make))
    assert bad.wedge[(0, 1)] == g.wedge[(0, 1)]
    with pytest.raises(LinAlgError, match=r"wedge \(1,1\) has wrong shape"):
        bad.wedge[(1, 1)]
    # a map the mapping holds from the start is checked at construction
    with pytest.raises(LinAlgError, match=r"wedge \(0,0\) has wrong shape"):
        GradedCalculus(qx3, 2, g.dims, g.diff, prolong._Wedges(2, g.dims, {(0, 0): w}, make))


@pytest.mark.parametrize("name", SMALL_ALGEBRAS)
def test_maximal_prolongation_does_not_depend_on_the_section(name):
    # the certificate at fodc._section: a quotient of the universal calculus
    # keeps the section of its quotient map, the same calculus checked anew
    # solves for one, and the two differ by a map into N
    alg = ORACLE_ALGEBRAS[name]()
    top = oracle_degree(alg)
    for label, c in oracle_calculi(name, alg).items():
        solved = FirstOrderCalculus(alg, c.omega, c.d)
        kept, other = maximal_prolongation(c, top), maximal_prolongation(solved, top)
        assert (kept.dims, kept.diff, dict(kept.wedge)) == (
            other.dims, other.diff, dict(other.wedge)), label


def test_a_kept_section_can_differ_from_a_solved_one(qz3):
    # so the test above compares two constructions, not one twice
    c = oracle_calculi("qz3", qz3)["quotient 0"]
    assert _section(c) != _section(FirstOrderCalculus(qz3, c.omega, c.d))


def test_a_graded_calculus_is_freed_by_reference_counting(qx3):
    # the lazy wedges hold no reference cycle, so a prolongation and every
    # map it built are freed as soon as the caller drops it, not at the next
    # garbage collection
    import gc
    import weakref

    gc.disable()
    try:
        for build in (lambda: universal_prolongation(qx3, 3),
                      lambda: maximal_prolongation(kahler_calculus(qx3), 3),
                      lambda: maximal_prolongation(proper_quotient(qx3, 0), 3)):
            g = build()
            dict(g.wedge)
            ref = weakref.ref(g)
            del g
            assert ref() is None
    finally:
        gc.enable()
