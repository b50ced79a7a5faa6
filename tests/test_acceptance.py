"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from omegacalc.algebra import AlgMap, build_truncated_poly
from omegacalc.bimodule import Bimodule
from omegacalc.derham import de_rham
from omegacalc.fodc import (
    enumerate_action_closed_subspaces,
    induced_map,
    quotient_calculus,
    universal_calculus,
    zero_calculus,
)
from omegacalc.hopf import bicovariance_check, group_like_bimonoid, universal_coactions
from omegacalc.io import algebra_from_json, load_json
from omegacalc.kahler import kahler_calculus
from omegacalc.linalg import GF, QQ, Mat, kernel_basis, kronecker, rank
from omegacalc.prolong import (
    maximal_prolongation,
    trivial_extension,
    universal_prolongation,
)
from omegacalc.scalars import verify_poset_adjunction

from oracles import (
    amitsur_differential,
    amitsur_wedge,
    check_hopf_module,
    d_comodule_report,
    field_algebra,
    free_bimodule,
    identity_map,
    induced_map_is_unique,
    kernel_counit_comparison,
    truncation_adjoints_check,
    universal_iota,
    universal_proj,
    validation_report,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "omegacalc" / "fixtures"


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS - {description}")


def fixture_algebras():
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "y_to_x2.json":
            continue
        out.append((path.name, algebra_from_json(load_json(path))))
    return out


def test_criterion_01_universal_dimension():
    with criterion(1, "dim of the universal calculus is n^2 - n on every fixture"):
        named = {"qx2.json": 2, "qx3.json": 6, "m2q.json": 12, "qs3.json": 30}
        for name, alg in fixture_algebras():
            start = time.monotonic()
            u = universal_calculus(alg)
            elapsed = time.monotonic() - start
            assert u.dim == alg.dim ** 2 - alg.dim, name
            if name in named:
                assert u.dim == named[name], name
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


def test_criterion_02_split_identity():
    with criterion(2, "(d . 1) iota = -id exactly on every fixture"):
        for name, alg in fixture_algebras():
            u = universal_calculus(alg)
            i_n = Mat.identity(alg.field, alg.dim)
            d_dot_one = u.omega.right_mat * kronecker(u.d, i_n)
            assert d_dot_one * u.iota == -Mat.identity(alg.field, u.dim), name


def test_criterion_03_universal_property():
    with criterion(3, "induced map exists, intertwines d, is surjective and unique"):
        for n in (2, 3):
            alg = build_truncated_poly(QQ, n)
            u = universal_calculus(alg)
            family = enumerate_action_closed_subspaces(u.omega)
            assert len(family) >= 3
            for sub in family:
                calc, _ = quotient_calculus(u, sub)
                f = induced_map(calc)
                assert f.matrix * u.d == calc.d
                assert rank(f.matrix) == calc.dim
                assert induced_map_is_unique(calc)


def test_criterion_04_kahler_dimensions():
    with criterion(4, "Kaehler dimensions match the classical presentation"):
        for field, n, expected in [
            (QQ, 2, 1), (QQ, 3, 2), (QQ, 4, 3),
            (GF(2), 2, 2), (GF(3), 3, 3),
        ]:
            alg = build_truncated_poly(field, n)
            calc = kahler_calculus(alg)
            assert calc.dim == expected, (field, n)
            # classical oracle: A dx / (n x^(n-1) dx)
            elem = [field.zero()] * n
            elem[n - 1] = field.coerce(n)
            mult_by = alg.mult_mat * kronecker(
                Mat.identity(field, n), Mat.col_vector(field, elem)
            )
            assert calc.dim == n - rank(mult_by), (field, n)


def test_criterion_05_prolongation():
    with criterion(5, "prolongation dims n(n-1)^k with all graded axioms, under 30s"):
        for n0 in (2, 3):
            alg = build_truncated_poly(QQ, n0)
            start = time.monotonic()
            up = universal_prolongation(alg, 4)
            elapsed = time.monotonic() - start
            iota, proj = universal_iota(alg, 4), universal_proj(alg, 4)
            assert up.dims == [n0] + [n0 * (n0 - 1) ** k for k in range(1, 5)]
            # d.d = 0, graded Leibniz, associativity, surjectivity
            assert validation_report(up) == []
            # Amitsur compatibility and the splitting at every degree
            for k in range(4):
                assert iota[k + 1] * up.diff[k] == amitsur_differential(alg, k) * iota[k]
            for k in range(5):
                assert proj[k] * iota[k] == Mat.identity(QQ, up.dims[k])
            for i in range(5):
                for j in range(5 - i):
                    lhs = iota[i + j] * up.wedge[(i, j)]
                    rhs = amitsur_wedge(alg, i, j) * kronecker(iota[i], iota[j])
                    assert lhs == rhs
            if n0 == 3:
                assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_06_de_rham_universal():
    with criterion(6, "universal de Rham concentrated in degree 0 on qx2 and QZ2"):
        qx2 = build_truncated_poly(QQ, 2)
        assert de_rham(qx2, "universal", 3).dims() == [1, 0, 0]
        qz2 = algebra_from_json(load_json(FIXTURES / "qz2.json"))
        assert de_rham(qz2, "universal", 3).dims() == [1, 0, 0]


def test_criterion_07_adjunction_probes():
    with criterion(7, "poset adjunction and truncation adjoints agree on all probes"):
        qy2 = build_truncated_poly(QQ, 2, var="y")
        qx4 = build_truncated_poly(QQ, 4)
        f = AlgMap(qy2, qx4, Mat(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
        u_y = universal_calculus(qy2)
        u_x = universal_calculus(qx4)
        cs = [quotient_calculus(u_y, s)[0] for s in enumerate_action_closed_subspaces(u_y.omega)]
        ts = [quotient_calculus(u_x, s)[0] for s in enumerate_action_closed_subspaces(u_x.omega)]
        rep = verify_poset_adjunction(f, cs, ts)
        assert rep["all_agree"] and len(rep["pairs"]) == len(cs) * len(ts)
        # one-algebra families through the trivial endomorphism (identity map)
        qx3 = build_truncated_poly(QQ, 3)
        u3 = universal_calculus(qx3)
        fam3 = [quotient_calculus(u3, s)[0] for s in enumerate_action_closed_subspaces(u3.omega)]
        rep_id = verify_poset_adjunction(identity_map(qx3), fam3, fam3)
        assert rep_id["all_agree"]
        k3 = kahler_calculus(qx3)
        gradeds = [
            universal_prolongation(qx3, 2),
            maximal_prolongation(k3, 2),
            trivial_extension(k3, 2),
            trivial_extension(zero_calculus(qx3), 2),
        ]
        rep_tr = truncation_adjoints_check(qx3, [u3, k3, zero_calculus(qx3)], gradeds, 2)
        assert rep_tr["all_agree"]


def test_criterion_08_hopf_suite():
    with criterion(8, "Hopf axioms on QZ2/QZ3 and bicovariance vs brute force"):
        for name in ("qz2.json", "qz3.json"):
            alg = algebra_from_json(load_json(FIXTURES / name))
            h = group_like_bimonoid(alg)
            hc = universal_coactions(h)
            u = hc.calculus
            assert check_hopf_module(h, hc.calculus.omega, hc.lam, hc.rho) == []
            assert d_comodule_report(h, hc.calculus, hc.lam, hc.rho) == []
            i_n = Mat.identity(alg.field, alg.dim)
            for sub in enumerate_action_closed_subspaces(u.omega):
                calc, proj = quotient_calculus(u, sub)
                got = bicovariance_check(h, calc)["bicovariant"]
                nker = kernel_basis(proj.matrix)
                if nker.cols == 0:
                    expected = True
                else:
                    an = kronecker(i_n, nker)
                    na = kronecker(nker, i_n)
                    expected = (
                        rank(an.hstack(hc.lam * nker)) == rank(an)
                        and rank(na.hstack(hc.rho * nker)) == rank(na)
                    )
                assert got == expected


def test_criterion_09_kernel_of_counit():
    with criterion(9, "ker(action) = Omega_u (x)_A M with invertible comparison"):
        qx2 = build_truncated_poly(QQ, 2)
        qa = field_algebra(QQ)
        modules = [
            Bimodule(qx2, qa, 2, qx2.mult_mat, Mat.identity(QQ, 2)),
            Bimodule(qx2, qa, 1, Mat(QQ, [[1, 0]]), Mat.identity(QQ, 1)),
            free_bimodule(qx2, 2, qa),
        ]
        for m in modules:
            rep = kernel_counit_comparison(m)
            assert rep["invertible"]
            assert rep["kernel_dim"] == rep["tensor_dim"]


def test_criterion_10_cli_determinism():
    with criterion(10, "CLI JSON output is byte-identical across consecutive runs"):
        invocations = [
            ["check", str(FIXTURES / "qx2.json")],
            ["universal", str(FIXTURES / "m2q.json")],
            ["kahler", str(FIXTURES / "qx4.json")],
            ["prolong", str(FIXTURES / "qx3.json"), "--calculus", "kahler", "--max-degree", "3"],
            ["cohomology", str(FIXTURES / "qz2.json"), "--flavor", "universal", "--max-degree", "3"],
            ["compare", str(FIXTURES / "qx2.json"), "--max-degree", "3"],
            ["hopf-check", str(FIXTURES / "qz3.json")],
        ]
        for argv in invocations:
            cmd = [sys.executable, "-m", "omegacalc.cli"] + argv + ["--format", "json"]
            first = subprocess.run(cmd, capture_output=True, check=True)
            second = subprocess.run(cmd, capture_output=True, check=True)
            assert first.stdout == second.stdout, argv
            json.loads(first.stdout)
