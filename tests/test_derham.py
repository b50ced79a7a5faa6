import pytest

from omegacalc.derham import (
    CochainComplex,
    cohomology,
    de_rham,
    de_rham_comparison,
    rank_identity_report,
)
from omegacalc.fodc import universal_calculus
from omegacalc.kahler import kahler_calculus, kahler_relations
from omegacalc.linalg import QQ, LinAlgError, Mat, is_invertible
from omegacalc.prolong import (
    maximal_prolongation,
    trivial_extension,
    unique_dg_morphism,
    universal_prolongation,
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
    rep = cohomology(CochainComplex.from_graded(up))
    assert rep.dims() == [1, 0, 0, 0]
    assert rank_identity_report(CochainComplex.from_graded(up), rep) == []


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
    c = CochainComplex.from_graded(g)
    assert rank_identity_report(c, cohomology(c)) == []


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
    assert is_invertible(comp["chain_maps"][1])
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
    ident = qx3.identity_map()
    f_maps = unique_dg_morphism(up, mk, ident)
    g_maps = unique_dg_morphism(mk, te, ident)
    assert f_maps is not None and g_maps is not None
    gf_maps = [g * f for g, f in zip(g_maps, f_maps)]
    rep_up = cohomology(CochainComplex.from_graded(up))
    rep_mk = cohomology(CochainComplex.from_graded(mk))
    rep_te = cohomology(CochainComplex.from_graded(te))
    h_f = h_matrix(f_maps, rep_up, rep_mk)
    h_g = h_matrix(g_maps, rep_mk, rep_te)
    h_gf = h_matrix(gf_maps, rep_up, rep_te)
    for hg, hf, hgf in zip(h_g, h_f, h_gf):
        assert hg * hf == hgf


def test_representatives_are_cycles_mod_boundaries(qz2):
    up = universal_prolongation(qz2, 3)
    c = CochainComplex.from_graded(up)
    rep = cohomology(c)
    for deg in rep.degrees:
        if deg.dim_h:
            assert (c.diff[deg.n] * deg.representatives).is_zero()
            coords = deg.class_coordinates(deg.representatives)
            assert is_invertible(coords)


def test_de_rham_universal_matrix_algebra(m2q):
    assert de_rham(m2q, "universal", 2).dims() == [1, 0]
