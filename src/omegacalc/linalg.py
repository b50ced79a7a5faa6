"""Exact dense linear algebra over Q and GF(p).

Everything downstream (algebras, bimodules, calculi, cohomology) reduces to
kernels, images, cokernels and solves of matrices over an exact field, so
this module is the single computational substrate.  No floating point.

Scalar normal form: over Q an integral value is an `int` and only a
non-integral value is a `fractions.Fraction` (never an integral Fraction,
never a float); over GF(p) a value is an `int` in [0, p).  Zero is tested by
truthiness, which is exact for both representations.

Canonical form convention: bases of subspaces are returned in reduced column
echelon form (the transpose of a reduced row echelon form), so two subspaces
are equal iff their canonical matrices are equal.  Tensor product bases are
ordered row-major: e_i (x) e_j  ->  index i*dim2 + j.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress


class LinAlgError(ValueError):
    """Invalid input to a linear-algebra operation (shape/field mismatch)."""


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    # deterministic Miller-Rabin, valid far beyond any modulus we meet
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _q(x):
    """Normal form of a rational: a Fraction with denominator 1 becomes its numerator."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _q_row(row: list) -> None:
    """Normalize a row of rationals in place; a row of ints is only scanned."""
    if not set(map(type, row)) <= {int}:
        for j, v in enumerate(row):
            if type(v) is not int and v.denominator == 1:
                row[j] = v.numerator


class Field:
    """A computable exact field: the rationals or a prime field GF(p)."""

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise LinAlgError(f"{p} is not prime")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    # element arithmetic -----------------------------------------------------

    def coerce(self, x):
        if self.p is None:
            if type(x) is int:
                return x
            if isinstance(x, (int, Fraction, str)):
                return _q(Fraction(x))
            raise LinAlgError(f"cannot coerce {x!r} into {self}")
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise LinAlgError(f"cannot coerce {x} into {self}")
            x = x.numerator
        if not isinstance(x, int):
            raise LinAlgError(f"cannot coerce {x!r} into {self}")
        return x % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return _q(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return _q(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return _q(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if not a:
                raise ZeroDivisionError("inverse of 0")
            # Fraction(1, a), never 1 / a: two ints would divide to a float
            return _q(Fraction(1, a))
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def format(self, a) -> str:
        """Canonical scalar string: "a/b" (b>0, reduced) over Q, decimal over GF(p)."""
        if self.p is None:
            if a.denominator == 1:
                return str(a.numerator)
            return f"{a.numerator}/{a.denominator}"
        return str(a % self.p)

    def parse(self, s: str):
        return self.coerce(s)


QQ = Field()

_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    if p not in _gf_cache:
        _gf_cache[p] = Field(p)
    return _gf_cache[p]


def field_from_json(spec) -> Field:
    """Decode "Q" or {"Fp": p}."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        return GF(int(spec["Fp"]))
    raise LinAlgError(f"bad field spec {spec!r}")


def field_to_json(field: Field):
    return "Q" if field.is_rational else {"Fp": field.p}


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Mat:
    """Immutable-by-convention dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data):
        self.field = field
        self.data = [[field.coerce(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise LinAlgError("ragged rows")

    # constructors -----------------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        z = field.zero()
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols = field, rows, cols
        m.data = [[z] * cols for _ in range(rows)]
        return m

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        m = Mat.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    @staticmethod
    def from_cols(field: Field, cols: list[list], rows: int | None = None) -> "Mat":
        if not cols:
            if rows is None:
                raise LinAlgError("from_cols with no columns needs explicit row count")
            return Mat.zeros(field, rows, 0)
        n = len(cols[0])
        return Mat(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @staticmethod
    def col_vector(field: Field, entries: list) -> "Mat":
        return Mat(field, [[x] for x in entries])

    # basics -----------------------------------------------------------------

    def copy(self) -> "Mat":
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols = self.field, self.rows, self.cols
        m.data = [row[:] for row in self.data]
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols} over {self.field}: [{body}])"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols = self.field, self.cols, self.rows
        m.data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return m

    # arithmetic ---------------------------------------------------------------

    def _check_same_shape(self, other: "Mat"):
        if self.field != other.field:
            raise LinAlgError("field mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _entrywise(self, other: "Mat", op) -> "Mat":
        self._check_same_shape(other)
        p = self.field.p
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols = self.field, self.rows, self.cols
        if p is None:
            m.data = [list(map(op, r1, r2)) for r1, r2 in zip(self.data, other.data)]
            for row in m.data:
                _q_row(row)
        else:
            m.data = [[x % p for x in map(op, r1, r2)] for r1, r2 in zip(self.data, other.data)]
        return m

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "Mat":
        f = self.field
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols = f, self.rows, self.cols
        m.data = [[f.neg(a) for a in row] for row in self.data]
        return m

    def scale(self, c) -> "Mat":
        f = self.field
        c = f.coerce(c)
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols = f, self.rows, self.cols
        m.data = [[f.mul(c, a) for a in row] for row in self.data]
        return m

    def __mul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise LinAlgError("field mismatch")
        if self.cols != other.rows:
            raise LinAlgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.field.p
        out = Mat.zeros(self.field, self.rows, other.cols)
        bdata = other.data
        ks, js = range(self.cols), range(other.cols)
        # nonzero (j, b) of each row of other, built on first use so that
        # zero columns of self cost nothing
        bnz = [None] * other.rows
        for arow, orow in zip(self.data, out.data):
            for k in compress(ks, arow):
                a = arow[k]
                row = bnz[k]
                if row is None:
                    brow = bdata[k]
                    row = bnz[k] = [(j, brow[j]) for j in compress(js, brow)]
                if p is None:
                    for j, b in row:
                        orow[j] += a * b
                else:
                    for j, b in row:
                        orow[j] = (orow[j] + a * b) % p
            if p is None:
                _q_row(orow)
        return out

    # block operations ---------------------------------------------------------

    def hstack(self, other: "Mat") -> "Mat":
        if self.field != other.field or self.rows != other.rows:
            raise LinAlgError("hstack mismatch")
        return Mat(self.field, [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.field != other.field or self.cols != other.cols:
            raise LinAlgError("vstack mismatch")
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols = self.field, self.rows + other.rows, self.cols
        m.data = [row[:] for row in self.data] + [row[:] for row in other.data]
        return m

    @staticmethod
    def hstack_all(field: Field, mats: list["Mat"], rows: int) -> "Mat":
        out = Mat.zeros(field, rows, 0)
        for m in mats:
            out = out.hstack(m)
        return out


def kronecker(a: Mat, b: Mat) -> Mat:
    """Tensor product of linear maps in the row-major basis order."""
    if a.field != b.field:
        raise LinAlgError("field mismatch")
    mul = a.field.mul
    out = Mat.zeros(a.field, a.rows * b.rows, a.cols * b.cols)
    ls = range(b.cols)
    bnz = [[(l, brow[l]) for l in compress(ls, brow)] for brow in b.data]
    for i, arow in enumerate(a.data):
        orows = out.data[i * b.rows:(i + 1) * b.rows]
        for j in compress(range(a.cols), arow):
            x = arow[j]
            off = j * b.cols
            for orow, row in zip(orows, bnz):
                for l, y in row:
                    orow[off + l] = mul(x, y)
    return out


def kron_all(mats: list[Mat]) -> Mat:
    out = mats[0]
    for m in mats[1:]:
        out = kronecker(out, m)
    return out


def direct_sum(a: Mat, b: Mat) -> Mat:
    if a.field != b.field:
        raise LinAlgError("field mismatch")
    out = Mat.zeros(a.field, a.rows + b.rows, a.cols + b.cols)
    for i in range(a.rows):
        out.data[i][: a.cols] = a.data[i][:]
    for i in range(b.rows):
        out.data[a.rows + i][a.cols:] = b.data[i][:]
    return out


def swap_matrix(field: Field, m: int, n: int) -> Mat:
    """Matrix of the braiding V(x)W -> W(x)V on spaces of dims m, n."""
    out = Mat.zeros(field, m * n, m * n)
    one = field.one()
    for i in range(m):
        for j in range(n):
            out.data[j * m + i][i * n + j] = one
    return out


# ---------------------------------------------------------------------------
# elimination core (sparse rows over the exact field)
# ---------------------------------------------------------------------------

def _rref_sparse(field: Field, rows: list[dict], ncols: int, pivot_limit: int | None = None):
    """Reduced row echelon form of sparse rows; returns (pivot_rows, pivot_cols).

    pivot_rows is a list of fully reduced rows (dicts col->val, pivot value 1)
    ordered by pivot column.  Pivot search stops at pivot_limit columns when
    given (used by solvers to keep augmented columns pivot-free).
    """
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[tuple[int, dict]] = []  # (pivot col, row)
    work = [dict(r) for r in rows]
    for r in work:
        # reduce against existing pivots
        for pc, prow in pivots:
            c = r.get(pc)
            if not c:
                continue
            for col, v in prow.items():
                nv = field.sub(r.get(col, 0), field.mul(c, v))
                if nv:
                    r[col] = nv
                else:
                    r.pop(col, None)
        live = [c for c in r if c < limit and r[c]]
        if not live:
            continue
        pc = min(live)
        inv = field.inv(r[pc])
        r = {c: field.mul(inv, v) for c, v in r.items() if v}
        # back-substitute into earlier pivot rows
        for k, (opc, orow) in enumerate(pivots):
            c = orow.get(pc)
            if not c:
                continue
            nrow = dict(orow)
            for col, v in r.items():
                nv = field.sub(nrow.get(col, 0), field.mul(c, v))
                if nv:
                    nrow[col] = nv
                else:
                    nrow.pop(col, None)
            pivots[k] = (opc, nrow)
        pivots.append((pc, r))
    pivots.sort(key=lambda t: t[0])
    return [row for _, row in pivots], [pc for pc, _ in pivots]


def _to_sparse_rows(m: Mat) -> list[dict]:
    return [{j: v for j, v in enumerate(row) if v} for row in m.data]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (unique) and pivot column indices."""
    prows, pcols = _rref_sparse(m.field, _to_sparse_rows(m), m.cols)
    out = Mat.zeros(m.field, len(prows), m.cols)
    for i, row in enumerate(prows):
        for c, v in row.items():
            out.data[i][c] = v
    return out, pcols


def rank(m: Mat) -> int:
    _, pcols = _rref_sparse(m.field, _to_sparse_rows(m), m.cols)
    return len(pcols)


def column_echelon(m: Mat) -> Mat:
    """Canonical reduced column echelon basis of the column space."""
    return rref(m.transpose())[0].transpose()


def image_basis(m: Mat) -> Mat:
    """Canonical basis of col(M), one column per pivot."""
    return column_echelon(m)


def kernel_basis(m: Mat) -> Mat:
    """Canonical basis (columns) of the null space of M."""
    prows, pcols = _rref_sparse(m.field, _to_sparse_rows(m), m.cols)
    field = m.field
    zero, one = field.zero(), field.one()
    pivot_of = {c: i for i, c in enumerate(pcols)}
    free = [c for c in range(m.cols) if c not in pivot_of]
    cols = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for pc, row in zip(pcols, prows):
            coeff = row.get(fc)
            if coeff is not None:
                v[pc] = field.neg(coeff)
        cols.append(v)
    basis = Mat.from_cols(field, cols, rows=m.cols)
    return column_echelon(basis)


def solve(m: Mat, b: Mat) -> Mat | None:
    """Some X with M X = B (free variables set to 0), or None if inconsistent."""
    if m.field != b.field:
        raise LinAlgError("field mismatch")
    if m.rows != b.rows:
        raise LinAlgError("solve: row mismatch")
    field = m.field
    aug_rows = []
    for i in range(m.rows):
        row = {j: v for j, v in enumerate(m.data[i]) if v}
        for k in range(b.cols):
            v = b.data[i][k]
            if v:
                row[m.cols + k] = v
        aug_rows.append(row)
    prows, pcols = _rref_sparse(field, aug_rows, m.cols + b.cols, pivot_limit=m.cols)
    x = Mat.zeros(field, m.cols, b.cols)
    for pc, row in zip(pcols, prows):
        for c, v in row.items():
            if c >= m.cols:
                x.data[pc][c - m.cols] = v
    # free variables were set to 0; verifying directly doubles as the
    # consistency check for pivotless rows with nonzero augmented part
    if m * x != b:
        return None
    return x


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise LinAlgError("inverse of non-square matrix")
    x = solve(m, Mat.identity(m.field, m.rows))
    if x is None or x * m != Mat.identity(m.field, m.rows):
        raise LinAlgError("matrix is not invertible")
    return x


def is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def cokernel_projection(m: Mat) -> tuple[Mat, int]:
    """Canonical surjection Q from the ambient row space with Q M = 0.

    The quotient coordinates are the non-pivot rows of the canonical image
    basis (echelon complement), so Q comes with the canonical section used
    by quotient_maps.
    """
    q, _s = quotient_maps(image_basis(m), m.rows)
    return q, q.rows


def quotient_maps(sub_canonical: Mat, ambient_dim: int) -> tuple[Mat, Mat]:
    """(Q, s) for the quotient by a subspace given by its canonical basis.

    Q: ambient -> quotient kills the subspace; s is a section with Q s = id.
    Quotient coordinates are the ambient coordinates away from the pivot rows
    of the canonical basis, which makes repeated quotients reproducible.
    """
    field = sub_canonical.field
    if sub_canonical.rows not in (ambient_dim,) and sub_canonical.cols != 0:
        raise LinAlgError("subspace basis does not live in the ambient space")
    one = field.one()
    pivot_rows = []
    for j in range(sub_canonical.cols):
        col = sub_canonical.column(j)
        pr = next(i for i, v in enumerate(col) if v)
        pivot_rows.append(pr)
    pivot_of = {pr: j for j, pr in enumerate(pivot_rows)}
    compl = [i for i in range(ambient_dim) if i not in pivot_of]
    q = Mat.zeros(field, len(compl), ambient_dim)
    for a, i in enumerate(compl):
        q.data[a][i] = one
    # reducing e_p for a pivot row p subtracts the corresponding basis column
    for pr, j in pivot_of.items():
        col = sub_canonical.column(j)
        for a, i in enumerate(compl):
            if col[i]:
                q.data[a][pr] = field.neg(col[i])
    s = Mat.zeros(field, ambient_dim, len(compl))
    for a, i in enumerate(compl):
        s.data[i][a] = one
    return q, s


# ---------------------------------------------------------------------------
# subspace utilities
# ---------------------------------------------------------------------------

def subspace_leq(sub: Mat, sup: Mat) -> bool:
    """col(sub) contained in col(sup)?"""
    if sub.cols == 0:
        return True
    return solve(sup, sub) is not None


def subspace_intersection(a: Mat, b: Mat) -> Mat:
    """Canonical basis of col(a) & col(b)."""
    if a.rows != b.rows or a.field != b.field:
        raise LinAlgError("subspace mismatch")
    if a.cols == 0 or b.cols == 0:
        return Mat.zeros(a.field, a.rows, 0)
    # columns of k are stacked (x; y) with a x = b y; the intersection is a x
    k = kernel_basis(a.hstack(-b))
    xs = Mat(a.field, [k.data[i] for i in range(a.cols)])
    return image_basis(a * xs)


def preimage_basis(f: Mat, sub: Mat) -> Mat:
    """Canonical basis of f^{-1}(col(sub)); sub lives in the target of f."""
    if f.rows != sub.rows:
        raise LinAlgError("preimage: ambient mismatch")
    q, _ = quotient_maps(image_basis(sub), f.rows)
    return kernel_basis(q * f)


def factor_through_surjection(rhs: Mat, q: Mat) -> Mat | None:
    """Unique X with X q = rhs, when it exists (q surjective)."""
    if rhs.cols != q.cols:
        raise LinAlgError("factor: shape mismatch")
    xt = solve(q.transpose(), rhs.transpose())
    if xt is None:
        return None
    x = xt.transpose()
    return x if x * q == rhs else None
