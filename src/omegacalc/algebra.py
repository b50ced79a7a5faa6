"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is the data (field, dim, basis labels, structure tensor, unit
coordinates) with e_i * e_j = sum_k c[i][j][k] e_k, kept only as the
multiplication matrix m: A(x)A -> A (`mult_mat`), the single source of
truth: every axiom check, equality, commutativity and the JSON form read m.
"""

from __future__ import annotations

from .linalg import (
    Field,
    LinAlgError,
    Mat,
    mul_id_kron,
    mul_kron_id,
    mul_swap,
)


class AxiomError(ValueError):
    """Raised when typed construction meets data violating the axioms."""

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(report) if report else "axiom violation")


def is_cube(raw, n: int) -> bool:
    """Whether raw is n lists of n lists of n entries, the shape of a structure tensor."""
    return isinstance(raw, list) and len(raw) == n and all(
        isinstance(block, list) and len(block) == n
        and all(isinstance(row, list) and len(row) == n for row in block)
        for block in raw)


def _mult_matrix(field: Field, dim: int, mult) -> Mat:
    """Multiplication as a matrix A(x)A -> A, column (i*dim+j) = coords of e_i e_j."""
    if not is_cube(mult, dim):
        raise LinAlgError(f"mult must be {dim} blocks of {dim} rows of {dim} scalars")
    return Mat.from_entries(field, dim, dim * dim, (
        (k, i * dim + j, x)
        for i in range(dim) for j in range(dim) for k, x in enumerate(mult[i][j])
    ))


def algebra_axiom_report(field: Field, dim: int, mult, unit) -> list[str]:
    """Every violated monoid axiom on raw structure data, with a witnessing
    triple or unit index; empty iff the data is a monoid."""
    try:
        m = _mult_matrix(field, dim, mult)
    except (LinAlgError, IndexError, TypeError) as exc:
        raise LinAlgError(f"bad structure data: {exc}") from exc
    return _monoid_report(m, Mat.col_vector(field, unit))


def _monoid_report(m: Mat, u: Mat) -> list[str]:
    """algebra_axiom_report on the multiplication matrix and the unit column."""
    dim = m.rows
    if u.rows != dim:
        raise LinAlgError("unit vector has wrong length")
    report = []
    i_n = Mat.identity(m.field, dim)
    assoc_l = mul_kron_id(m, m, dim)
    assoc_r = mul_id_kron(m, dim, m)
    if assoc_l != assoc_r:
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    col = (i * dim + j) * dim + k
                    if assoc_l.column(col) != assoc_r.column(col):
                        report.append(
                            f"associativity fails at (e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})"
                        )
    left_unit = mul_kron_id(m, u, dim)
    right_unit = mul_id_kron(m, dim, u)
    for name, got in (("left", left_unit), ("right", right_unit)):
        if got != i_n:
            for j in range(dim):
                if got.column(j) != i_n.column(j):
                    report.append(f"{name} unit law fails at e{j}")
    return report


class Algebra:
    """A monoid in the category of finite-dimensional vector spaces."""

    def __init__(self, field: Field, dim: int, mult, unit, basis_labels=None):
        self.mult_mat = _mult_matrix(field, dim, mult)  # checks the shape of mult first
        self.field = field
        self.dim = dim
        self.unit = [field.coerce(x) for x in unit]
        if basis_labels is None:
            basis_labels = [f"e{i}" for i in range(dim)]
        if not (isinstance(basis_labels, list) and all(isinstance(x, str) for x in basis_labels)):
            raise LinAlgError("basis labels must be a list of strings")
        self.basis_labels = list(basis_labels)
        if len(self.basis_labels) != dim:
            raise LinAlgError("basis label count mismatch")
        self.unit_mat = Mat.col_vector(field, self.unit)
        report = _monoid_report(self.mult_mat, self.unit_mat)
        if report:
            raise AxiomError(report)

    def __eq__(self, other):
        # equal matrices have equal fields and shapes
        return (
            isinstance(other, Algebra)
            and self.mult_mat == other.mult_mat
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"Algebra(dim={self.dim} over {self.field})"


def is_commutative(a: Algebra) -> bool:
    return commutativity_witness(a) is None


def commutativity_witness(a: Algebra):
    """The first pair (i, j), i < j, with e_i e_j != e_j e_i, or None."""
    n, products = a.dim, a.mult_mat.transpose().data
    for i in range(n):
        for j in range(i + 1, n):
            if products[i * n + j] != products[j * n + i]:
                return (i, j)
    return None


def _tensor(m: Mat) -> list:
    """The structure tensor c[i][j] of the multiplication matrix m."""
    n, cols = m.rows, m.columns()
    return [cols[i * n:(i + 1) * n] for i in range(n)]


def opposite(a: Algebra) -> Algebra:
    # e_i e_j in A^op is e_j e_i: m with its columns relabelled by the swap
    return Algebra(a.field, a.dim, _tensor(mul_swap(a.mult_mat, a.dim, a.dim)), a.unit,
                   [lb + "^op" for lb in a.basis_labels])


class AlgMap:
    """Algebra morphism; matrix[k][i] = coefficient of target e_k in f(e_i)."""

    def __init__(self, source: Algebra, target: Algebra, matrix: Mat):
        report = alg_map_report(source, target, matrix)
        if report:
            raise AxiomError(report)
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self):
        return f"AlgMap({self.source.dim} -> {self.target.dim})"


def alg_map_report(source: Algebra, target: Algebra, matrix: Mat) -> list[str]:
    """Multiplicativity/unit failures of the linear map source -> target given
    by matrix, with basis witnesses; empty iff it is an algebra map."""
    if source.field != target.field:
        raise LinAlgError("field mismatch between source and target")
    if (matrix.rows, matrix.cols) != (target.dim, source.dim):
        raise LinAlgError("morphism matrix has wrong shape")
    report = []
    n = source.dim
    lhs = mul_id_kron(mul_kron_id(target.mult_mat, matrix, target.dim), n, matrix)
    rhs = matrix * source.mult_mat
    if lhs != rhs:
        for i in range(n):
            for j in range(n):
                if lhs.column(i * n + j) != rhs.column(i * n + j):
                    report.append(f"multiplicativity fails at f(e{i} e{j}) != f(e{i}) f(e{j})")
    if matrix * source.unit_mat != target.unit_mat:
        report.append("unit is not preserved")
    return report


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_truncated_poly(field: Field, n: int, var: str = "x") -> Algebra:
    """field[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise LinAlgError("dimension must be at least 1")
    zero, one = field.zero(), field.one()
    mult = [
        [
            [one if k == i + j else zero for k in range(n)] if i + j < n else [zero] * n
            for j in range(n)
        ]
        for i in range(n)
    ]
    unit = [one] + [zero] * (n - 1)
    labels = ["1"] + [var if e == 1 else f"{var}^{e}" for e in range(1, n)]
    return Algebra(field, n, mult, unit, labels)


def _check_group_table(table: list[list[int]]) -> int:
    """Validate a Cayley table (rows/cols permutations, identity, associativity).

    Returns the index of the identity element.
    """
    n = len(table)
    idx = set(range(n))
    for row in table:
        if len(row) != n or set(row) != idx:
            raise LinAlgError("Cayley table rows must be permutations")
    for j in range(n):
        if {table[i][j] for i in range(n)} != idx:
            raise LinAlgError("Cayley table columns must be permutations")
    identity = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise LinAlgError("Cayley table has no identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise LinAlgError(f"Cayley table not associative at ({i},{j},{k})")
    return identity


def build_group_algebra(field: Field, cayley_table: list[list[int]], labels=None) -> Algebra:
    """Group algebra of a finite group given by its multiplication table."""
    identity = _check_group_table(cayley_table)
    n = len(cayley_table)
    zero, one = field.zero(), field.one()
    mult = [
        [[one if k == cayley_table[i][j] else zero for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    unit = [one if i == identity else zero for i in range(n)]
    labels = labels or [f"g{i}" for i in range(n)]
    return Algebra(field, n, mult, unit, labels)


def build_matrix_algebra(field: Field, k: int) -> Algebra:
    """Full matrix algebra M_k with basis E_ab ordered row-major (a*k+b)."""
    n = k * k
    zero, one = field.zero(), field.one()
    mult = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for a in range(k):
        for b in range(k):
            for c in range(k):
                for d in range(k):
                    if b == c:
                        mult[a * k + b][c * k + d][a * k + d] = one
    unit = [one if a == b else zero for a in range(k) for b in range(k)]
    labels = [f"E{a}{b}" for a in range(k) for b in range(k)]
    return Algebra(field, n, mult, unit, labels)


def build_square_zero(a: Algebra, m) -> Algebra:
    """The square-zero extension A (+) M: (a,m)(a',m') = (aa', a m' + m a')."""
    from .bimodule import Bimodule  # local import to avoid a cycle

    if not isinstance(m, Bimodule):
        raise LinAlgError("second argument must be a bimodule")
    if m.left_alg != a or m.right_alg != a:
        raise LinAlgError("bimodule must be an A-A bimodule over the given algebra")
    field = a.field
    n, d = a.dim, m.dim
    dim = n + d
    zero = field.zero()
    mult = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for k, row in enumerate(a.mult_mat.data):
        for col, x in row.items():
            mult[col // n][col % n][k] = x
    for i in range(n):
        for u in range(d):
            coords = m.left_action_coords(i, u)
            for v in range(d):
                mult[i][n + u][n + v] = coords[v]
    for u in range(d):
        for j in range(n):
            coords = m.right_action_coords(u, j)
            for v in range(d):
                mult[n + u][j][n + v] = coords[v]
    unit = list(a.unit) + [zero] * d
    labels = list(a.basis_labels) + [f"m{u}" for u in range(d)]
    return Algebra(field, dim, mult, unit, labels)
