"""Seeded input generator for the benchmark.

Every input is a JSON document in the formats the omegacalc CLI reads
(algebra, relation, calculus and morphism files).  Structure constants are
written here from their definitions, without calling the library, so the
inputs do not change when the library does.

The seed relabels bases (an isomorphic algebra) and picks posets, product
splits, relation generators and map exponents from finite pools (see
`Draw`).  Every dimension and verdict the benchmark checks is invariant under
relabeling, so the expected values in reference.json are keyed by pool entry
and hold for every seed.  The same seed gives byte-identical documents.
"""

from __future__ import annotations

import itertools
import random

# Posets with incidence algebras of dimension 3 and 4, up to isomorphism.
# Each is (points, strict relations i < j).
POSETS = {
    3: {"C2": (2, [(0, 1)]), "A3": (3, [])},
    4: {"C2+1": (3, [(0, 1)]), "A4": (4, [])},
}

# Map slots y -> x^k from Q[y]/y^m to Q[x]/x^n, with km >= n so that y^m maps
# to zero and 1 <= k < n so that y does not map to zero.
MAP_SLOTS = [(2, 4), (3, 4), (4, 3)]


def field_label(p):
    return "Q" if p is None else f"F{p}"


def _field_json(p):
    return "Q" if p is None else {"Fp": p}


def _zero_mult(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def truncated(n):
    """k[x]/x^n as (mult, unit, labels) with integer structure constants."""
    mult = _zero_mult(n)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                mult[i][j][i + j] = 1
    labels = ["1"] + [f"x^{e}" for e in range(1, n)]
    return mult, [1] + [0] * (n - 1), labels


def cyclic_group(n):
    mult = _zero_mult(n)
    for i in range(n):
        for j in range(n):
            mult[i][j][(i + j) % n] = 1
    return mult, [1] + [0] * (n - 1), [f"g{i}" for i in range(n)]


def symmetric_group3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mult = _zero_mult(n)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mult[i][j][index[tuple(p[q[t]] for t in range(3))]] = 1
    return mult, [1] + [0] * (n - 1), ["".join(map(str, p)) for p in perms]


def matrix_algebra(k):
    n = k * k
    mult = _zero_mult(n)
    for a, b, d in itertools.product(range(k), repeat=3):
        mult[a * k + b][b * k + d][a * k + d] = 1
    unit = [1 if a == b else 0 for a in range(k) for b in range(k)]
    return mult, unit, [f"E{a}{b}" for a in range(k) for b in range(k)]


def incidence(points, relations):
    """Incidence algebra of the poset generated by `relations` on `points`."""
    leq = {(i, i) for i in range(points)} | set(relations)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(leq), repeat=2):
            if b == c and (a, d) not in leq:
                leq.add((a, d))
                changed = True
    pairs = sorted(leq)
    index = {pr: t for t, pr in enumerate(pairs)}
    n = len(pairs)
    mult = _zero_mult(n)
    for (a, b), (c, d) in itertools.product(pairs, repeat=2):
        if b == c:
            mult[index[(a, b)]][index[(c, d)]][index[(a, d)]] = 1
    unit = [1 if a == b else 0 for (a, b) in pairs]
    return mult, unit, [f"e{a}{b}" for (a, b) in pairs]


def product(left, right):
    """Direct product of two algebras given as (mult, unit, labels)."""
    (m1, u1, l1), (m2, u2, l2) = left, right
    n1, n2 = len(u1), len(u2)
    n = n1 + n2
    mult = _zero_mult(n)
    for i, j, k in itertools.product(range(n1), repeat=3):
        mult[i][j][k] = m1[i][j][k]
    for i, j, k in itertools.product(range(n2), repeat=3):
        mult[n1 + i][n1 + j][n1 + k] = m2[i][j][k]
    labels = [f"({lb},0)" for lb in l1] + [f"(0,{lb})" for lb in l2]
    return mult, list(u1) + list(u2), labels


def group_like(n):
    """Comultiplication g -> g (x) g and counit 1 on a group basis."""
    comult = _zero_mult(n)
    for g in range(n):
        comult[g][g][g] = 1
    return comult, [1] * n


def _permuted(tensor3, perm):
    n = len(perm)
    out = _zero_mult(n)
    for i, j, k in itertools.product(range(n), repeat=3):
        out[perm[i]][perm[j]][perm[k]] = tensor3[i][j][k]
    return out


def _vec_permuted(vec, perm):
    out = [0] * len(vec)
    for i, v in enumerate(vec):
        out[perm[i]] = v
    return out


def _fmt(x, p):
    return str(x if p is None else x % p)


class AlgebraInput:
    """A generated algebra: its JSON document plus what the checks need.

    `key` names the isomorphism class (the reference lookup key); `perm`
    sends original basis index i to position perm[i] in the document.
    """

    def __init__(self, key, p, raw, perm, commutative, group=False, factors=None):
        mult, unit, labels = raw
        self.key = key
        self.p = p
        self.perm = perm
        self.dim = len(unit)
        self.commutative = commutative
        self.factors = factors
        self.mult = _permuted(mult, perm)
        self.unit = _vec_permuted(unit, perm)
        inv = sorted(range(self.dim), key=lambda i: perm[i])
        self.labels = [labels[i] for i in inv]
        self.doc = {
            "field": _field_json(p),
            "dim": self.dim,
            "basis": self.labels,
            "mult": [[[_fmt(x, p) for x in cell] for cell in row] for row in self.mult],
            "unit": [_fmt(x, p) for x in self.unit],
        }
        if group:
            comult, counit = group_like(self.dim)
            comult = _permuted(comult, perm)
            self.doc["comult"] = [[[_fmt(x, p) for x in c] for c in row] for row in comult]
            self.doc["counit"] = [_fmt(x, p) for x in _vec_permuted(counit, perm)]

    def relation(self, a, b):
        """a.db = e_a (x) e_b - (e_a e_b) (x) 1 in A(x)A coordinates of the
        document's basis, for original basis indices a, b (None if zero)."""
        n = self.dim
        pa, pb = self.perm[a], self.perm[b]
        vec = [0] * (n * n)
        vec[pa * n + pb] += 1
        for k in range(n):
            c = self.mult[pa][pb][k]
            if c:
                for l in range(n):
                    if self.unit[l]:
                        vec[k * n + l] -= c * self.unit[l]
        if self.p is not None:
            vec = [v % self.p for v in vec]
        return vec if any(vec) else None

    def relation_doc(self, a, b):
        return {"generators": [[_fmt(x, self.p) for x in self.relation(a, b)]]}


def relation_pool(alg: AlgebraInput):
    """Basis pairs (a, b), in original indices, whose a.db is nonzero."""
    return [
        (a, b)
        for a in range(alg.dim)
        for b in range(alg.dim)
        if alg.relation(a, b) is not None
    ]


def variants(family):
    """The isomorphism classes a family draws from: poset names, product splits."""
    if family.startswith("inc"):
        return sorted(POSETS[int(family[3:])])
    if family.startswith("prod"):
        dim = int(family[4:])
        return [(a, dim - a) for a in range(1, dim // 2 + 1)]
    return [None]


class Draw:
    """The seeded choices of input variant `v` of a workload.

    Picks from small pools (poset, product split, map exponent) cycle with
    `v`, so consecutive variants cover each pool evenly and the cost mix of a
    run does not hinge on a coin flip; relabelings, relation pairs and op
    order come from the variant's own random stream.
    """

    def __init__(self, workload, seed, v):
        self.rng = random.Random(f"{workload}:{seed}:{v}")
        self.turn = seed + v

    def pick(self, pool):
        return pool[self.turn % len(pool)]

    def algebra(self, family, p=None):
        return make_algebra(self.rng, family, p, self.pick(variants(family)))


def make_algebra(rng: random.Random, family: str, p=None, variant=None) -> AlgebraInput:
    """One algebra of a named family, with a seeded basis relabeling.

    Families: xN (truncated polynomial), zN (cyclic group algebra), s3, m2,
    incN (incidence algebra of a seeded poset of incidence dimension N),
    prodN (seeded product of two truncated polynomials of total dim N).
    `variant` fixes the poset name or the product split instead of drawing it.
    """
    if family.startswith("x"):
        n = int(family[1:])
        raw, key, comm, group, factors = truncated(n), family, True, False, None
    elif family.startswith("z"):
        n = int(family[1:])
        raw, key, comm, group, factors = cyclic_group(n), family, True, True, None
    elif family == "s3":
        raw, key, comm, group, factors = symmetric_group3(), "s3", False, True, None
    elif family == "m2":
        raw, key, comm, group, factors = matrix_algebra(2), "m2", False, False, None
    elif family.startswith("inc"):
        dim = int(family[3:])
        name = variant or rng.choice(variants(family))
        points, rels = POSETS[dim][name]
        raw = incidence(points, rels)
        key, comm, group, factors = f"inc:{name}", not rels, False, None
    elif family.startswith("prod"):
        a, b = variant or rng.choice(variants(family))
        raw = product(truncated(a), truncated(b))
        key, comm, group, factors = f"x{a}*x{b}", True, False, (f"x{a}", f"x{b}")
    else:
        raise ValueError(f"unknown family {family!r}")
    perm = list(range(len(raw[1])))
    rng.shuffle(perm)
    return AlgebraInput(key, p, raw, perm, comm, group, factors)


def map_doc(m, n, k, p=None):
    """Morphism file for y -> x^k from k[y]/y^m to k[x]/x^n."""
    src = AlgebraInput(f"x{m}", p, truncated(m), list(range(m)), True)
    dst = AlgebraInput(f"x{n}", p, truncated(n), list(range(n)), True)
    matrix = [["0"] * m for _ in range(n)]
    for i in range(m):
        if k * i < n:
            matrix[k * i][i] = "1"
    return {"source": src.doc, "target": dst.doc, "matrix": matrix}


def map_exponents(m, n):
    return [k for k in range(1, n) if k * m >= n]
