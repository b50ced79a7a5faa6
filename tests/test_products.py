"""Product algebras: constructions must split across factors.

Kaehler differentials and their cohomology commute with finite products, so
A x B gives independent expected values (including a 2-dimensional H^0, which
the connected fixtures can never produce)."""

from omegacalc.algebra import build_truncated_poly, is_commutative
from omegacalc.derham import de_rham
from omegacalc.fodc import universal_calculus
from omegacalc.kahler import kahler_calculus
from omegacalc.linalg import GF, QQ, Mat

from oracle_algebras import product_algebra


def test_product_is_a_valid_algebra(qx2, qx3):
    p = product_algebra(qx2, qx3)
    assert p.dim == 5
    assert is_commutative(p)


def test_universal_dimension_formula_on_products(qx2, qx3):
    p = product_algebra(qx2, qx3)
    assert universal_calculus(p).dim == p.dim ** 2 - p.dim


def test_kahler_splits_across_factors(qx2, qx3, qx4):
    for a, b in [(qx2, qx2), (qx2, qx3), (qx3, qx4)]:
        p = product_algebra(a, b)
        expected = kahler_calculus(a).dim + kahler_calculus(b).dim
        assert kahler_calculus(p).dim == expected


def test_kahler_splits_in_positive_characteristic():
    a = build_truncated_poly(GF(2), 2)
    b = build_truncated_poly(GF(2), 3)
    p = product_algebra(a, b)
    expected = kahler_calculus(a).dim + kahler_calculus(b).dim
    assert kahler_calculus(p).dim == expected


def test_idempotent_has_zero_kahler_differential(qx2):
    # d(e) = 0 for the factor idempotent e = (1, 0): e^2 = e forces it
    p = product_algebra(qx2, qx2)
    k = kahler_calculus(p)
    e = Mat(QQ, [[1], [0], [0], [0]])
    assert (k.d * e).is_zero()


def test_de_rham_h0_counts_factors(qx2, qx3):
    p = product_algebra(qx2, qx3)
    rep = de_rham(p, "kahler", 2)
    assert rep.dims()[0] == 2
    # each local factor contributes vanishing H^1
    assert rep.dims()[1] == 0


def test_de_rham_universal_h0_on_product(qx2):
    # the universal differential kills only scalars, so unlike the Kaehler
    # theory it does not see the idempotent splitting: H^0 stays 1-dimensional
    p = product_algebra(qx2, qx2)
    rep = de_rham(p, "universal", 2)
    assert rep.dims()[0] == 1


def test_random_product_families():
    # seeded sweep over products of truncated polynomial factors
    import random

    from omegacalc.fodc import universal_calculus
    from omegacalc.linalg import Mat, kronecker

    rng = random.Random(2024)
    fields = [QQ, GF(2), GF(3)]
    for _ in range(8):
        field = rng.choice(fields)
        factors = [build_truncated_poly(field, rng.randint(1, 3))
                   for _ in range(rng.randint(1, 2))]
        alg = factors[0]
        for extra in factors[1:]:
            alg = product_algebra(alg, extra)
        if alg.dim > 5:
            continue
        u = universal_calculus(alg)
        assert u.dim == alg.dim ** 2 - alg.dim
        i_n = Mat.identity(field, alg.dim)
        d_dot_one = u.omega.right_mat * kronecker(u.d, i_n)
        assert d_dot_one * u.iota == -Mat.identity(field, u.dim)
        expected = sum(kahler_calculus(f).dim for f in factors)
        assert kahler_calculus(alg).dim == expected
