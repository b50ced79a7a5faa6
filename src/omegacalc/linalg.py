"""Exact sparse linear algebra over Q and GF(p).

Everything downstream (algebras, bimodules, calculi, cohomology) reduces to
kernels, images, quotient maps and solves of matrices over an exact field,
so this module is the single computational substrate.  No floating point.

Storage: a matrix keeps each row as a dict {col: value} holding only the
nonzero entries; a zero is never stored, so equality of matrices is equality
of their row dicts and every kernel costs time in the number of nonzeros.
Rows are never mutated once a matrix is built, so matrices may share them.

Scalar normal form: over Q an integral value is an `int` and only a
non-integral value is a `fractions.Fraction` (never an integral Fraction,
never a float); over GF(p) a value is an `int` in [0, p).  Zero is tested by
truthiness, which is exact for both representations.

Canonical form convention: bases of subspaces are returned in reduced column
echelon form (the transpose of a reduced row echelon form), so two subspaces
are equal iff their canonical matrices are equal.  A function handed a
subspace takes it in this form, and quotient_maps, which every such function
reaches, raises on any other basis and on a basis of another height, an
empty one included.  Tensor product bases are
ordered row-major: e_i (x) e_j  ->  index i*dim2 + j.

Kernels: the product `Mat.__mul__`, `kronecker`, elimination
(`_rref_sparse`, behind rank, image_basis, kernel_basis and solve, each one
elimination), three products with identity factors that form no Kronecker
product: m (I (x) x) (`mul_id_kron`), m (x (x) I) (`mul_kron_id`) and
(x (x) I)(I (x) m) (`kron_id_mul`), each in time linear in the nonzeros of
its operands and its output, and the braiding m swap as a column relabel
(`mul_swap`).  solve reads consistency off its elimination and multiplies
nothing out.

Two private helpers serve every module: `_certified`, the one way past a
constructor's check, and beside it `_memo`, the one way to keep a value on
an instance.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from functools import wraps
from weakref import WeakKeyDictionary


class LinAlgError(ValueError):
    """Invalid input to a linear-algebra operation (shape/field mismatch)."""


class EngineError(AssertionError):
    """An internal invariant of the engine failed: a bug, not bad input."""


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


def _clean(row: dict, p: int | None) -> dict:
    """A row of unreduced sums and products in normal form, without zeros."""
    if p is not None:
        return {j: r for j, v in row.items() if (r := v % p)}
    vals = row.values()
    if Fraction in set(map(type, vals)):
        return {j: _q(v) for j, v in row.items() if v}
    return row if all(vals) else {j: v for j, v in row.items() if v}


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
        if type(x) is int:
            return x if self.p is None else x % self.p
        # bool is a subclass of int, so JSON true/false would pass as 1/0
        if isinstance(x, bool):
            raise LinAlgError(f"cannot coerce {x!r} into {self}: a boolean is not a scalar")
        if self.p is None:
            if isinstance(x, (int, Fraction, str)):
                try:
                    return _q(Fraction(x))
                except (ValueError, ZeroDivisionError):
                    raise LinAlgError(f"cannot coerce {x!r} into {self}") from None
            raise LinAlgError(f"cannot coerce {x!r} into {self}")
        if isinstance(x, str):
            try:
                x = int(x)
            except ValueError:
                raise LinAlgError(f"cannot coerce {x!r} into {self}") from None
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


QQ = Field()

_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    if p not in _gf_cache:
        _gf_cache[p] = Field(p)
    return _gf_cache[p]


def field_from_json(spec) -> Field:
    """Decode "Q" or {"Fp": p}, with p a JSON integer: int() would read 5.5
    as 5, accept "7" and true, and overflow on 1e400."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise LinAlgError(f'"Fp" must be an integer, not {json.dumps(p)}')
        return GF(p)
    raise LinAlgError(f"bad field spec {spec!r}")


def field_to_json(field: Field):
    return "Q" if field.is_rational else {"Fp": field.p}


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

_EMPTY: dict = {}  # the zero row that kronecker shares between its outputs


def _mat(field: Field, rows: int, cols: int, data: list[dict]) -> "Mat":
    """A matrix on finished rows: normal-form values, no zeros, keys < cols."""
    m = Mat.__new__(Mat)
    m.field, m.rows, m.cols, m.data = field, rows, cols, data
    return m


def _certified(cls, **fields):
    """A value of cls with the given attributes, built without running the
    constructor of cls and so without its check.  This is the one way past
    a constructor's check: each caller builds a value whose axioms its
    construction proves, and states that proof next to the call."""
    value = object.__new__(cls)
    for name, x in fields.items():
        setattr(value, name, x)
    return value


def _memo(build):
    """build(x), computed once per instance x and kept in x's own __dict__;
    or build(x, y), computed once per pair of instances and kept in a table
    in x's __dict__ keyed weakly by y, so that it lives as long as both.

    Equal but distinct instances do not share a value, a value lives as
    long as its instance, and an exception is not kept.  Values are
    immutable, so two threads racing on one x at most build an equal value
    twice.  No build returns None, which would be built again on every
    call.  `slot` names the key, for a construction that has the value in
    hand to record it.

    Certificate for the pairs, which are the transports of `scalars`, x an
    algebra map and y a calculus: maps, calculi and `Mat`s are immutable,
    so F_! c and F* t are functions of (f, c); `FirstOrderCalculus` has
    identity equality, so a weak key stands for one instance; and a kept
    value refers to neither the map nor the calculus, so the table adds no
    reference cycle and an entry goes when its calculus does.
    tests/test_scalars.py checks the last two and holds every kept result
    to the one built along a freshly loaded copy of its map.
    """
    slot = "_memo_" + build.__name__

    @wraps(build)
    def memoized(x, *y):
        kept = x.__dict__
        key = slot
        if y:
            (key,) = y
            if slot not in kept:
                kept[slot] = WeakKeyDictionary()
            kept = kept[slot]
        value = kept.get(key)
        if value is None:
            value = kept[key] = build(x, *y)
        return value

    memoized.slot = slot
    return memoized


class Mat:
    """Immutable-by-convention sparse matrix over an exact field.

    `data` holds one dict {col: value} per row with the zero entries absent;
    `Mat(field, rows)` takes dense rows, and `m[i, j]`, `column(j)` and
    `dense_rows()` read entries back with the zeros filled in.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data):
        coerce = field.coerce
        dense = [[coerce(x) for x in row] for row in data]
        cols = len(dense[0]) if dense else 0
        if any(len(row) != cols for row in dense):
            raise LinAlgError("ragged rows")
        self.field = field
        self.rows, self.cols = len(dense), cols
        self.data = [{j: x for j, x in enumerate(row) if x} for row in dense]

    # constructors -----------------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return _mat(field, rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return _mat(field, n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def from_entries(field: Field, rows: int, cols: int, entries) -> "Mat":
        """The matrix with the given (i, j, value) entries and zeros elsewhere.

        Values are coerced into the field and zeros are dropped; each
        position is given at most once.
        """
        data = [{} for _ in range(rows)]
        coerce = field.coerce
        for i, j, x in entries:
            if not 0 <= i < rows:
                raise LinAlgError(f"row {i} outside a {rows}x{cols} matrix")
            if not 0 <= j < cols:
                raise LinAlgError(f"column {j} outside a {rows}x{cols} matrix")
            x = coerce(x)
            if x:
                data[i][j] = x
        return _mat(field, rows, cols, data)

    @staticmethod
    def from_cols(field: Field, cols: list[list], rows: int | None = None) -> "Mat":
        if not cols:
            if rows is None:
                raise LinAlgError("from_cols with no columns needs explicit row count")
            return Mat.zeros(field, rows, 0)
        n = len(cols[0])
        coerce = field.coerce
        data = [{} for _ in range(n)]
        for j, col in enumerate(cols):
            if len(col) != n:
                raise LinAlgError("ragged columns")
            for row, x in zip(data, col):
                x = coerce(x)
                if x:
                    row[j] = x
        return _mat(field, n, len(cols), data)

    @staticmethod
    def col_vector(field: Field, entries: list) -> "Mat":
        return Mat(field, [[x] for x in entries])

    # basics -----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(" ".join(map(self.field.format, row)) for row in self.dense_rows())
        return f"Mat({self.rows}x{self.cols} over {self.field}: [{body}])"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i].get(j, 0)

    def is_zero(self) -> bool:
        return not any(self.data)

    def dense_rows(self) -> list[list]:
        """The entries as a list of rows, zeros included."""
        out = []
        for row in self.data:
            dense = [0] * self.cols
            for j, v in row.items():
                dense[j] = v
            out.append(dense)
        return out

    def column(self, j: int) -> list:
        return [row.get(j, 0) for row in self.data]

    def columns(self) -> list[list]:
        return self.transpose().dense_rows()

    def transpose(self) -> "Mat":
        data = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in row.items():
                data[j][i] = v
        return _mat(self.field, self.cols, self.rows, data)

    # arithmetic ---------------------------------------------------------------

    def _check_same_shape(self, other: "Mat"):
        if self.field != other.field:
            raise LinAlgError("field mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _entrywise(self, other: "Mat", op) -> "Mat":
        self._check_same_shape(other)
        p = self.field.p
        data = []
        for r1, r2 in zip(self.data, other.data):
            row = dict(r1)
            get = row.get
            for j, b in r2.items():
                row[j] = op(get(j, 0), b)
            data.append(_clean(row, p))
        return _mat(self.field, self.rows, self.cols, data)

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "Mat":
        p = self.field.p
        if p is None:
            data = [{j: -v for j, v in row.items()} for row in self.data]
        else:
            data = [{j: p - v for j, v in row.items()} for row in self.data]
        return _mat(self.field, self.rows, self.cols, data)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise LinAlgError("field mismatch")
        if self.cols != other.rows:
            raise LinAlgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.field.p
        bdata = other.data
        data = []
        for arow in self.data:
            if len(arow) == 1:
                # a single term: the row of other, scaled (no cancellation)
                ((k, a),) = arow.items()
                if a == 1:
                    data.append(bdata[k])
                elif p is None:
                    data.append(_clean({j: a * b for j, b in bdata[k].items()}, None))
                else:
                    data.append({j: a * b % p for j, b in bdata[k].items()})
                continue
            orow = {}
            for k, a in arow.items():
                brow = bdata[k]
                if not orow:
                    orow = dict(brow) if a == 1 else {j: a * b for j, b in brow.items()}
                else:
                    get = orow.get
                    for j, b in brow.items():
                        orow[j] = get(j, 0) + a * b
            data.append(_clean(orow, p))
        return _mat(self.field, self.rows, other.cols, data)

    # block operations ---------------------------------------------------------

    def select_cols(self, cols) -> "Mat":
        """The matrix of the listed (distinct) columns, in the listed order."""
        index = {c: a for a, c in enumerate(cols)}
        data = [{index[j]: v for j, v in row.items() if j in index} for row in self.data]
        return _mat(self.field, self.rows, len(index), data)

    def hstack(self, other: "Mat") -> "Mat":
        return Mat.hstack_all(self.field, [self, other], self.rows)

    @staticmethod
    def hstack_all(field: Field, mats: list["Mat"], rows: int) -> "Mat":
        data = [{} for _ in range(rows)]
        off = 0
        for m in mats:
            if m.field != field or m.rows != rows:
                raise LinAlgError("hstack mismatch")
            for row, mrow in zip(data, m.data):
                if mrow:
                    row.update(zip(map(off.__add__, mrow), mrow.values()))
            off += m.cols
        return _mat(field, rows, off, data)


def kronecker(a: Mat, b: Mat) -> Mat:
    """Tensor product of linear maps in the row-major basis order."""
    if a.field != b.field:
        raise LinAlgError("field mismatch")
    p = a.field.p
    bc = b.cols
    bdata = b.data
    data = []
    for arow in a.data:
        if not arow:
            data.extend([_EMPTY] * len(bdata))
            continue
        offs = [(j * bc, x) for j, x in arow.items()]
        ones = all(x == 1 for _, x in offs)
        for brow in bdata:
            if len(brow) == 1:
                ((l, y),) = brow.items()
                if y == 1:
                    data.append({off + l: x for off, x in offs})
                    continue
                orow = {off + l: x * y for off, x in offs}
            else:
                orow = {off + l: x * y for off, x in offs for l, y in brow.items()}
            # products of nonzeros are nonzero; only their normal form is owed
            data.append(orow if ones else _clean(orow, p))
    return _mat(a.field, a.rows * b.rows, a.cols * bc, data)


def _mul_id_kron_id(m: Mat, p: int, x: Mat, q: int) -> Mat:
    """m (I_p (x) x (x) I_q) blockwise, without forming the Kronecker product:
    a nonzero a of m at column (i*x.rows + k)*q + l adds a*x[k, j] at column
    (i*x.cols + j)*q + l, so the cost is that of the nonzeros of m and x."""
    if m.field != x.field:
        raise LinAlgError("field mismatch")
    if m.cols != p * x.rows * q:
        raise LinAlgError(f"cannot multiply {m.rows}x{m.cols} by I_{p} (x) "
                          f"{x.rows}x{x.cols} (x) I_{q}")
    xr, block = x.rows, x.cols * q
    strided = x.data if q == 1 else [{j * q: b for j, b in xrow.items()} for xrow in x.data]
    data = []
    for row in m.data:
        orow = {}
        get = orow.get
        for c, a in row.items():
            ik, l = divmod(c, q)
            i, k = divmod(ik, xr)
            base = i * block + l
            for jq, b in strided[k].items():
                t = base + jq
                orow[t] = get(t, 0) + a * b
        data.append(_clean(orow, m.field.p))
    return _mat(m.field, m.rows, p * block, data)


def mul_id_kron(m: Mat, p: int, x: Mat) -> Mat:
    """m (I_p (x) x): column i*x.rows + k of m meets row k of x in block i."""
    return _mul_id_kron_id(m, p, x, 1)


def mul_kron_id(m: Mat, x: Mat, q: int) -> Mat:
    """m (x (x) I_q): column i*q + l of m meets row i of x at offset l."""
    return _mul_id_kron_id(m, 1, x, q)


def kron_id_mul(x: Mat, q: int, p: int, m: Mat) -> Mat:
    """(x (x) I_q)(I_p (x) m) blockwise, without forming either product: a
    nonzero v of x at (r, c) meets row k of m in block i, where
    c*q + l = i*m.rows + k, and adds v*m[k, j] at (r*q + l, i*m.cols + j)."""
    if x.field != m.field:
        raise LinAlgError("field mismatch")
    if x.cols * q != p * m.rows:
        raise LinAlgError(f"cannot multiply {x.rows}x{x.cols} (x) I_{q} by I_{p} (x) "
                          f"{m.rows}x{m.cols}")
    mr, mc, mdata, fp = m.rows, m.cols, m.data, x.field.p
    data = []
    for xrow in x.data:
        if len(xrow) == 1:
            # a single term: rows of m, shifted and scaled (no cancellation)
            ((c, v),) = xrow.items()
            for l in range(q):
                i, k = divmod(c * q + l, mr)
                base, mrow = i * mc, mdata[k]
                if v != 1:
                    data.append(_clean({base + j: v * b for j, b in mrow.items()}, fp))
                else:
                    data.append({base + j: b for j, b in mrow.items()} if base else mrow)
            continue
        for l in range(q):
            orow = {}
            get = orow.get
            for c, v in xrow.items():
                i, k = divmod(c * q + l, mr)
                base = i * mc
                for j, b in mdata[k].items():
                    t = base + j
                    orow[t] = get(t, 0) + v * b
            data.append(_clean(orow, fp))
    return _mat(x.field, x.rows * q, p * mc, data)


def swap_matrix(field: Field, m: int, n: int) -> Mat:
    """Matrix of the braiding V(x)W -> W(x)V on spaces of dims m, n."""
    data = [{} for _ in range(m * n)]
    for i in range(m):
        for j in range(n):
            data[j * m + i] = {i * n + j: 1}
    return _mat(field, m * n, m * n, data)


def mul_swap(x: Mat, m: int, n: int) -> Mat:
    """x swap_matrix(m, n), the braiding V (x) W -> W (x) V applied on the
    right, as a column relabel with no arithmetic: column k of x is
    w_j (x) v_i with k = j m + i, and it goes to v_i (x) w_j, column
    (k mod m) n + k div m."""
    if x.cols != m * n:
        raise LinAlgError(f"cannot multiply {x.rows}x{x.cols} by the swap of {m} and {n}")
    data = [{(k % m) * n + k // m: v for k, v in row.items()} for row in x.data]
    return _mat(x.field, x.rows, x.cols, data)


# ---------------------------------------------------------------------------
# elimination core (sparse rows over the exact field)
# ---------------------------------------------------------------------------

def _rref_sparse(field: Field, rows: list[dict], pivot_limit: int | None = None):
    """Reduced row echelon form of sparse rows; returns (pivot_rows,
    pivot_cols, inconsistent).

    pivot_rows is a list of fully reduced rows (dicts col->val without zeros,
    pivot value 1) ordered by pivot column.  The input rows are not changed.
    Pivot search stops at pivot_limit columns when given (used by solvers to
    keep augmented columns pivot-free).  inconsistent is True when some row
    reduces to zero left of pivot_limit but not right of it: that row is a
    combination of the input rows reading 0 = b with b != 0.  Without a
    limit a row that is left nonzero always takes a pivot, so it is False.
    """
    p = field.p
    pivots: dict[int, dict] = {}  # pivot col -> fully reduced row
    inconsistent = False

    def axpy(r: dict, c, prow: dict) -> None:
        """r -= c * prow in place, dropping the entries that cancel."""
        get = r.get
        for col, v in prow.items():
            nv = get(col, 0) - c * v
            if p is not None:
                nv %= p
            elif type(nv) is Fraction and nv.denominator == 1:
                nv = nv.numerator
            if nv:
                r[col] = nv
            else:
                del r[col]

    for r in rows:
        # pivot rows are zero in each other's pivot columns, so one pass over
        # the pivot columns that r meets reduces it completely
        hits = [c for c in r if c in pivots]
        if hits:
            r = dict(r)
            for pc in hits:
                axpy(r, r[pc], pivots[pc])
        live = r if pivot_limit is None else [c for c in r if c < pivot_limit]
        if not live:
            if r:
                inconsistent = True
            continue
        pc = min(live)
        lead = r[pc]
        if lead != 1:
            inv = field.inv(lead)
            r = {c: field.mul(inv, v) for c, v in r.items()}
        # back-substitute into earlier pivot rows
        for opc, orow in pivots.items():
            c = orow.get(pc)
            if c:
                orow = dict(orow)
                axpy(orow, c, r)
                pivots[opc] = orow
        pivots[pc] = r
    pcols = sorted(pivots)
    return [pivots[pc] for pc in pcols], pcols, inconsistent


def _null_vectors(field: Field, prows: list[dict], pcols: list[int], ncols: int) -> list[dict]:
    """The null space basis read off a reduced row echelon form: for each
    free column fc in order, 1 at fc and -row[fc] at each pivot column."""
    pivot_set = set(pcols)
    vecs = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    for pc, row in zip(pcols, prows):
        for c, v in row.items():
            if c != pc:
                vecs[c][pc] = field.neg(v)
    return list(vecs.values())


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (unique) and pivot column indices."""
    prows, pcols, _ = _rref_sparse(m.field, m.data)
    return _mat(m.field, len(prows), m.cols, prows), pcols


def rank(m: Mat) -> int:
    _, pcols, _ = _rref_sparse(m.field, m.data)
    return len(pcols)


def _row_span(field: Field, vectors: list[dict]) -> list[dict]:
    """The canonical basis of the span of sparse vectors, as rows: the
    reduced row echelon form of one elimination, so two spans are equal iff
    their rows are.  image_basis puts these rows in the columns of a
    matrix; a caller that compares spans before it builds one reads the
    rows."""
    return _rref_sparse(field, vectors)[0]


def image_basis(m: Mat) -> Mat:
    """Canonical basis of col(M): reduced column echelon form, one column per pivot."""
    rows = _row_span(m.field, m.transpose().data)
    return _mat(m.field, len(rows), m.rows, rows).transpose()


def kernel_basis(m: Mat) -> Mat:
    """Canonical basis (columns) of the null space of M, from one elimination.

    M is eliminated with its columns in reverse order, c -> n-1-c.  Read off
    that form, the null vector of a free column f is 1 at f and nonzero
    elsewhere only at pivot columns before f in the reversed order, which
    are columns after f in M's order; and it is zero at every other free
    column.  Mapped back and ordered by free column, the vectors have their
    first nonzero, a 1, at increasing rows that no other vector touches:
    reduced column echelon form, which is unique, so no second elimination
    brings them into it.
    """
    n = m.cols
    last = n - 1
    flipped = [{last - c: v for c, v in row.items()} for row in m.data]
    prows, pcols, _ = _rref_sparse(m.field, flipped)
    vecs = _null_vectors(m.field, prows, pcols, n)
    data = [{} for _ in range(n)]
    for a, vec in enumerate(reversed(vecs)):
        for c, v in vec.items():
            data[last - c][a] = v
    return _mat(m.field, n, len(vecs), data)


def solve(m: Mat, b: Mat) -> Mat | None:
    """Some X with M X = B (free variables set to 0), or None if inconsistent."""
    if m.field != b.field:
        raise LinAlgError("field mismatch")
    if m.rows != b.rows:
        raise LinAlgError("solve: row mismatch")
    field = m.field
    n = m.cols
    aug_rows = []
    for mrow, brow in zip(m.data, b.data):
        row = dict(mrow)
        row.update(zip(map(n.__add__, brow), brow.values()))
        aug_rows.append(row)
    prows, pcols, inconsistent = _rref_sparse(field, aug_rows, pivot_limit=n)
    # Certificate, in place of multiplying out M X = B: every reduced row is
    # a combination of rows of (M | B).  A row left zero in M but not in B
    # reads 0 = b != 0, so no X exists.  Otherwise each row of (M | B) is a
    # combination of the pivot rows, and X, read off them with the free
    # variables at 0, satisfies each pivot row: its pivot coordinate is the
    # row's B part and it is zero at the row's free columns.
    if inconsistent:
        return None
    data = [{} for _ in range(n)]
    for pc, row in zip(pcols, prows):
        data[pc] = {c - n: v for c, v in row.items() if c >= n}
    return _mat(field, n, b.cols, data)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise LinAlgError("inverse of non-square matrix")
    # M X = I for square M makes X a two-sided inverse: rank X = n, so X is
    # onto and X M X = X forces X M = I; no product re-checks it
    x = solve(m, Mat.identity(m.field, m.rows))
    if x is None:
        raise LinAlgError("matrix is not invertible")
    return x


def quotient_maps(sub_canonical: Mat, ambient_dim: int) -> tuple[Mat, Mat]:
    """(Q, s) for the quotient by a subspace given by its canonical basis.

    Q: ambient -> quotient kills the subspace; s is a section with Q s = id.
    Quotient coordinates are the ambient coordinates away from the pivot rows
    of the canonical basis, which makes repeated quotients reproducible.
    Any other basis raises a LinAlgError: Q would not kill its span.
    """
    field = sub_canonical.field
    if sub_canonical.rows != ambient_dim:
        raise LinAlgError("subspace basis does not live in the ambient space")
    # reduced column echelon form, read row by row: the pivot row of column l
    # is the first row with an entry in a column >= l, and it is exactly
    # {l: 1}; every other row has entries only in columns whose pivot rows
    # lie above it, and is a quotient coordinate
    neg = field.neg
    pivots, q_data, s_data = [], [], []
    for i, row in enumerate(sub_canonical.data):
        l = len(pivots)
        if len(row) == 1 and row.get(l) == 1:
            pivots.append(i)
            s_data.append({})
        elif row and max(row) >= l:
            raise LinAlgError("subspace basis is not in reduced column echelon form")
        else:
            # reducing e_p for a pivot row p subtracts the corresponding basis column
            q_row = {pivots[c]: neg(v) for c, v in row.items()}
            q_row[i] = 1
            s_data.append({len(q_data): 1})
            q_data.append(q_row)
    if len(pivots) != sub_canonical.cols:
        raise LinAlgError("subspace basis is not in reduced column echelon form")
    return (_mat(field, len(q_data), ambient_dim, q_data),
            _mat(field, ambient_dim, len(q_data), s_data))


# ---------------------------------------------------------------------------
# subspace utilities
# ---------------------------------------------------------------------------

def subspace_leq(sub: Mat, sup: Mat) -> bool:
    """col(sub) <= col(sup), read off the quotient map of the canonical sup."""
    q, _s = quotient_maps(sup, sup.rows)
    return (q * sub).is_zero()


def preimage_basis(f: Mat, sub: Mat) -> Mat:
    """Canonical basis of f^{-1}(col(sub)), sub canonical in the target of f."""
    if f.rows != sub.rows:
        raise LinAlgError("preimage: ambient mismatch")
    q, _ = quotient_maps(sub, f.rows)
    return kernel_basis(q * f)


def factor_through_surjection(rhs: Mat, q: Mat) -> Mat | None:
    """Unique X with X q = rhs, when it exists (q surjective)."""
    if rhs.cols != q.cols:
        raise LinAlgError("factor: shape mismatch")
    # solve checks q^T x^T = rhs^T, which is x q = rhs
    xt = solve(q.transpose(), rhs.transpose())
    return None if xt is None else xt.transpose()
