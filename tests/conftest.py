from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import pytest

from omegacalc.algebra import (
    build_group_algebra,
    build_matrix_algebra,
    build_truncated_poly,
)
from omegacalc.linalg import GF, QQ

from oracles import field_algebra


def s3_cayley_table():
    perms = list(permutations([0, 1, 2]))
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    return [[perms.index(compose(p, q)) for q in perms] for p in perms]


@pytest.fixture(scope="session")
def qq_alg():
    return field_algebra(QQ)


@pytest.fixture(scope="session")
def qx2():
    return build_truncated_poly(QQ, 2)


@pytest.fixture(scope="session")
def qx3():
    return build_truncated_poly(QQ, 3)


@pytest.fixture(scope="session")
def qx4():
    return build_truncated_poly(QQ, 4)


@pytest.fixture(scope="session")
def qy2():
    return build_truncated_poly(QQ, 2, var="y")


@pytest.fixture(scope="session")
def f2x2():
    return build_truncated_poly(GF(2), 2)


@pytest.fixture(scope="session")
def f3x3():
    return build_truncated_poly(GF(3), 3)


@pytest.fixture(scope="session")
def qz2():
    return build_group_algebra(QQ, [[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def qz3():
    return build_group_algebra(QQ, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])


@pytest.fixture(scope="session")
def qs3():
    return build_group_algebra(QQ, s3_cayley_table())


@pytest.fixture(scope="session")
def m2q():
    return build_matrix_algebra(QQ, 2)


def _storage_violations(m):
    """Violations of the storage invariant: rows are dicts {col: value} with
    no zero value, every col in range(cols), and every value in normal form
    (Q: an int or a non-integral Fraction; GF(p): an int in [0, p))."""
    if len(m.data) != m.rows:
        return [("row count", len(m.data), m.rows)]
    bad = []
    p = m.field.p
    for row in m.data:
        if type(row) is not dict:
            bad.append(("row type", type(row)))
            continue
        for j, x in row.items():
            if not (type(j) is int and 0 <= j < m.cols):
                bad.append(("col", j, m.cols))
            if not x:
                bad.append(("stored zero", j, x))
            if p is None:
                if type(x) is not int and not (type(x) is Fraction and x.denominator != 1):
                    bad.append(("Q normal form", j, x))
            elif not (type(x) is int and 0 <= x < p):
                bad.append(("GF(p) range", j, x))
    return bad


@pytest.fixture(scope="session")
def storage_violations():
    return _storage_violations


@pytest.fixture
def calls_of(monkeypatch):
    """calls_of(module, name) wraps module.name for this test and returns
    the list that gets the arguments of each of its calls from then on."""
    def start(module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return start
