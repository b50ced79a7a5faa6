import pytest

from omegacalc import cli, derham, prolong
from omegacalc.algebra import build_truncated_poly
from omegacalc.derham import CochainComplex, cohomology, de_rham, de_rham_comparison
from omegacalc.fodc import PreconditionError, universal_calculus
from omegacalc.kahler import kahler_calculus, kahler_relations
from omegacalc.linalg import QQ, LinAlgError, Mat, image_basis, kernel_basis, rank
from omegacalc.prolong import (
    GradedCalculus,
    maximal_prolongation,
    trivial_extension,
    universal_prolongation,
)
from oracles import identity_map, rank_identity_report, unique_dg_morphism
from oracle_algebras import (
    FIXTURES,
    ORACLE_ALGEBRAS,
    oracle_calculi,
    universal_de_rham_by_prolongation,
)


def test_zero_complex():
    rep = cohomology(CochainComplex([0, 0, 0], [Mat.zeros(QQ, 0, 0)] * 2))
    assert rep.dims() == [0, 0]


def test_field_in_degree_zero():
    rep = cohomology(CochainComplex([1, 0], [Mat.zeros(QQ, 0, 1)]))
    assert rep.dims() == [1]
    assert rep.degrees[0].representatives == Mat.identity(QQ, 1)


def test_d_squared_violation_rejected():
    with pytest.raises(LinAlgError, match="degree 0"):
        CochainComplex([1, 1, 1], [Mat.identity(QQ, 1), Mat.identity(QQ, 1)])


def test_universal_prolongation_cohomology_qx2(qx2):
    up = universal_prolongation(qx2, 4)
    rep = cohomology(up)
    assert rep.dims() == [1, 0, 0, 0]
    assert rank_identity_report(up, rep) == []


def test_de_rham_of_the_field(qq_alg):
    assert de_rham(qq_alg, "universal", 3).dims() == [1, 0, 0]
    assert de_rham(qq_alg, "kahler", 3).dims() == [1, 0, 0]


def test_de_rham_universal_qx2(qx2):
    assert de_rham(qx2, "universal", 4).dims() == [1, 0, 0, 0]


def test_de_rham_universal_qz2(qz2):
    assert de_rham(qz2, "universal", 3).dims() == [1, 0, 0]


def test_de_rham_kahler_qx2(qx2):
    # H^0 = span{1}: d_K(x) = dx != 0; H^1 = 0 since im(d) = Omega_K = ker(d^1)
    rep = de_rham(qx2, "kahler", 3)
    assert rep.dims() == [1, 0, 0]
    assert rep.degrees[0].representatives.column(0) == [QQ.one(), QQ.zero()]


def test_unit_is_always_a_cycle(qx3, qz3, m2q):
    for alg in (qx3, qz3, m2q):
        rep = de_rham(alg, "universal", 2)
        assert rep.dims()[0] >= 1


def test_rank_identity_all_interior_degrees(qx3):
    g = maximal_prolongation(kahler_calculus(qx3), 3)
    assert rank_identity_report(g, cohomology(g)) == []


def test_comparison_on_the_field(qq_alg):
    comp = de_rham_comparison(qq_alg, 2)
    assert comp["comparison"][0] == Mat.identity(QQ, 1)


def test_comparison_qx2(qx2):
    comp = de_rham_comparison(qx2, 3)
    assert comp["universal"].dims() == [1, 0, 0]
    assert comp["kahler"].dims() == [1, 0, 0]
    assert comp["comparison"][0] == Mat.identity(QQ, 1)


def test_comparison_char2_is_isomorphism(f2x2):
    # in characteristic 2 the centrality relation vanishes, Omega_K = Omega_u
    assert kahler_relations(f2x2).cols == 0
    comp = de_rham_comparison(f2x2, 2)
    h1 = maximal_prolongation(kahler_calculus(f2x2), 2).from_universal[1]
    assert rank(h1) == h1.rows == h1.cols
    for m_u, m_k in zip(comp["universal"].dims(), comp["kahler"].dims()):
        assert m_u == m_k


def h_matrix(chain_maps, rep_src, rep_tgt):
    out = []
    for deg_s, deg_t in zip(rep_src.degrees, rep_tgt.degrees):
        mapped = chain_maps[deg_s.n] * deg_s.representatives
        out.append(deg_t.class_coordinates(mapped))
    return out


def test_cohomology_functoriality(qx3):
    up = universal_prolongation(qx3, 3)
    k = kahler_calculus(qx3)
    mk = maximal_prolongation(k, 3)
    te = trivial_extension(k, 3)
    ident = identity_map(qx3)
    f_maps = unique_dg_morphism(up, mk, ident)
    g_maps = unique_dg_morphism(mk, te, ident)
    assert f_maps is not None and g_maps is not None
    gf_maps = [g * f for g, f in zip(g_maps, f_maps)]
    rep_up = cohomology(up)
    rep_mk = cohomology(mk)
    rep_te = cohomology(te)
    h_f = h_matrix(f_maps, rep_up, rep_mk)
    h_g = h_matrix(g_maps, rep_mk, rep_te)
    h_gf = h_matrix(gf_maps, rep_up, rep_te)
    for hg, hf, hgf in zip(h_g, h_f, h_gf):
        assert hg * hf == hgf


def test_representatives_are_cycles_mod_boundaries(qz2):
    up = universal_prolongation(qz2, 3)
    rep = cohomology(up)
    for deg in rep.degrees:
        if deg.dim_h:
            assert (up.diff[deg.n] * deg.representatives).is_zero()
            coords = deg.class_coordinates(deg.representatives)
            assert rank(coords) == coords.rows == coords.cols


def test_de_rham_universal_matrix_algebra(m2q):
    assert de_rham(m2q, "universal", 2).dims() == [1, 0]


def degree_data(d):
    return (d.n, d.dim_omega, d.dim_h, d.boundary_rank, d.representatives,
            d._boundary_quotient, d._class_basis)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
@pytest.mark.parametrize("top", [1, 2, 3, 4])
def test_universal_de_rham_matches_the_generic_route(name, top):
    # the oracle behind the certificate at derham._universal_de_rham: the
    # cohomology of the universal prolongation, with d.d checked, gives the
    # same dims, representatives, boundary quotients and class bases; the
    # basis 2, x of Q[x]/x^2 has u_p = 1/2, so u / u_p is not u there
    alg = ORACLE_ALGEBRAS[name]()
    closed = de_rham(alg, "universal", top)
    generic = universal_de_rham_by_prolongation(alg, top)
    assert [degree_data(d) for d in closed.degrees] == [degree_data(d) for d in generic.degrees]
    up = universal_prolongation(alg, top)
    for deg_c, deg_g in zip(closed.degrees, generic.degrees):
        n = deg_c.n
        # every cycle, and every boundary, has the same class coordinates
        cycles = kernel_basis(up.diff[n])
        assert deg_c.class_coordinates(cycles) == deg_g.class_coordinates(cycles)
        if n:
            boundaries = image_basis(up.diff[n - 1])
            assert deg_c.class_coordinates(boundaries) == deg_g.class_coordinates(boundaries)
            assert deg_c.class_coordinates(boundaries).is_zero()


def test_universal_de_rham_normalizes_the_unit():
    alg = ORACLE_ALGEBRAS["Q[x]/x^2 in the basis 2, x"]()
    assert alg.unit == [QQ.inv(2), 0]
    assert de_rham(alg, "universal", 2).degrees[0].representatives == Mat.identity(QQ, 2).select_cols([0])


def test_universal_de_rham_needs_a_degree(qx2):
    with pytest.raises(PreconditionError, match="max degree must be at least 1"):
        de_rham(qx2, "universal", 0)


def test_the_universal_theory_builds_no_prolongation(monkeypatch, capsys, qx3):
    # de_rham on the universal flavor, de_rham_comparison and the CLI's
    # universal cohomology read the universal theory off its closed form:
    # no universal prolongation is built and no universal complex reaches
    # cohomology; the comparison eliminates the Kaehler complex only
    def refuse(*_args):
        raise AssertionError("universal_prolongation called")

    for module in (prolong, derham, cli):
        monkeypatch.setattr(module, "universal_prolongation", refuse, raising=False)
    seen = []
    real = derham.cohomology

    def recording(c):
        seen.append(c.dims)
        return real(c)

    monkeypatch.setattr(derham, "cohomology", recording)
    assert de_rham(qx3, "universal", 3).dims() == [1, 0, 0]
    assert seen == []
    comp = de_rham_comparison(qx3, 3)
    assert seen == [maximal_prolongation(kahler_calculus(qx3), 3).dims]
    assert comp["comparison"][0] == Mat.identity(QQ, 1)
    assert [(m.rows, m.cols) for m in comp["comparison"][1:]] == [(0, 0), (0, 0)]
    assert "chain_maps" not in comp
    seen.clear()
    code = cli.main(["cohomology", str(FIXTURES / "qx3.json"), "--flavor", "universal",
                     "--max-degree", "3", "--format", "json"])
    capsys.readouterr()
    assert code == 0 and seen == []


def test_a_user_built_graded_calculus_keeps_the_d_squared_check():
    # the GradedCalculus constructor checks d.d = 0, so cohomology need not
    qq = ORACLE_ALGEBRAS["q"]()
    one = Mat.identity(QQ, 1)
    wedge = {(0, 0): qq.mult_mat, (0, 1): one, (1, 0): one, (0, 2): one, (2, 0): one,
             (1, 1): one}
    with pytest.raises(LinAlgError, match=r"d\.d != 0 at degree 0"):
        GradedCalculus(qq, 2, [1, 1, 1], [one, one], wedge)


@pytest.mark.parametrize("name", ["qx3", "m2q", "f2x2", "chain 0<1<2", "zero algebra",
                                  "Q[x]/x^2 in the basis 2, x"])
def test_library_prolongations_pass_the_d_squared_check(name):
    # the certificates behind the library's graded calculi skipping the
    # GradedCalculus constructor, and cohomology taking them as given,
    # against the checks they skip, on the universal prolongation and on the
    # maximal prolongation and trivial extension of every oracle calculus
    alg = ORACLE_ALGEBRAS[name]()
    gradeds = [universal_prolongation(alg, 3)]
    for c in oracle_calculi(name, alg).values():
        gradeds += [maximal_prolongation(c, 3), trivial_extension(c, 3)]
    for g in gradeds:
        GradedCalculus(alg, g.max_degree, g.dims, g.diff, dict(g.wedge))
        CochainComplex(g.dims, g.diff)


QX2 = build_truncated_poly(QQ, 2)
ONE = Mat.identity(QQ, 1)

# Each refusal of outside input in derham.py: (what is built, exception,
# message).  Degree 0 of d = I has no cycle but 0, so [1] is no cycle.
REFUSALS = {
    "one differential too few": (lambda: CochainComplex([1, 1], []), LinAlgError,
                                 "need exactly one differential per adjacent pair"),
    "differential of the wrong shape": (lambda: CochainComplex([1, 2], [ONE]), LinAlgError,
                                        "differential 0 has wrong shape"),
    "class of a non-cycle": (
        lambda: cohomology(CochainComplex([1, 1], [ONE])).degrees[0].class_coordinates(ONE),
        LinAlgError, "vector is not a cycle class in this degree"),
    "unknown flavor": (lambda: de_rham(QX2, "sheaf", 2), LinAlgError, "unknown flavor 'sheaf'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_outside_input_is_refused(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message
