"""Cochain complexes, de Rham cohomology, and the universal-to-Kaehler
comparison.

H^n = ker(d^n) / im(d^(n-1)) with canonical cycle representatives: classes
are coordinatized by the echelon complement of the boundary space, and each
canonical class is lifted to the unique cycle over the canonical solve, so
reports and comparison matrices are reproducible across runs.  The top
degree of a truncated complex has no outgoing differential and is never
reported.

The universal theory is read off its closed form, with no prolongation
built: H^0 = k.1 and H^n = 0 above (Cuntz-Quillen 1995, section 1), in the
canonical representatives the generic route returns (`_universal_de_rham`).
So the comparison with the Kaehler theory is the class of the unit in
degree 0 and the empty map above.  A complex built from bare matrices
checks its shapes and d.d = 0.  A graded calculus is its own complex, with
the wedge forgotten, and `cohomology` takes it as given: every
GradedCalculus has fitting shapes and d.d = 0, checked by its constructor
or certified by the construction that built it.
"""

from __future__ import annotations

from . import kahler, prolong
from .algebra import Algebra
from .fodc import PreconditionError, _unit_pivot
from .linalg import (
    EngineError,
    LinAlgError,
    Mat,
    image_basis,
    kernel_basis,
    kronecker,
    quotient_maps,
    solve,
)


class CochainComplex:
    """Components and differentials d[n]: n -> n+1 with d.d = 0."""

    def __init__(self, dims: list[int], diff: list[Mat]):
        if len(diff) != len(dims) - 1:
            raise LinAlgError("need exactly one differential per adjacent pair")
        for n, d in enumerate(diff):
            if (d.rows, d.cols) != (dims[n + 1], dims[n]):
                raise LinAlgError(f"differential {n} has wrong shape")
        for n in range(len(diff) - 1):
            if not (diff[n + 1] * diff[n]).is_zero():
                raise LinAlgError(f"d.d != 0 at degree {n}")
        self.dims = list(dims)
        self.diff = list(diff)


class DegreeReport:
    """Cohomology data of one degree, with canonical representatives."""

    def __init__(self, n, dim_omega, dim_h, boundary_rank, representatives,
                 boundary_quotient, class_basis):
        self.n = n
        self.dim_omega = dim_omega
        self.dim_h = dim_h
        self.boundary_rank = boundary_rank
        self.representatives = representatives      # dim_omega x dim_h matrix of cycles
        self._boundary_quotient = boundary_quotient  # kills boundaries
        self._class_basis = class_basis              # canonical basis of H in quotient coords

    def class_coordinates(self, cycle: Mat) -> Mat:
        """Coordinates of a cycle's class in the canonical H basis."""
        coords = solve(self._class_basis, self._boundary_quotient * cycle)
        if coords is None:
            raise LinAlgError("vector is not a cycle class in this degree")
        return coords


class CohomologyReport:
    def __init__(self, degrees: list[DegreeReport]):
        self.degrees = degrees

    def dims(self) -> list[int]:
        return [d.dim_h for d in self.degrees]


def cohomology(c: CochainComplex | prolong.GradedCalculus) -> CohomologyReport:
    """H^n for every degree with an outgoing differential (n < top).

    c is a CochainComplex or a GradedCalculus, taken as given: only c.dims
    and c.diff are read, and both kinds have fitting shapes and d.d = 0."""
    out = []
    for n in range(len(c.diff)):
        field = c.diff[n].field
        cycles = kernel_basis(c.diff[n])
        if n == 0:
            boundaries = Mat.zeros(field, c.dims[0], 0)
        else:
            boundaries = image_basis(c.diff[n - 1])
        q, _s = quotient_maps(boundaries, c.dims[n])
        classes = q * cycles
        class_basis = image_basis(classes)
        # solve lifts each column of class_basis on its own, one cycle per class
        x = solve(classes, class_basis)
        if x is None:
            raise EngineError("canonical class fails to lift to a cycle")
        reps = cycles * x
        dim_h = cycles.cols - boundaries.cols
        if dim_h != class_basis.cols:
            raise EngineError("rank bookkeeping mismatch in cohomology")
        out.append(DegreeReport(
            n, c.dims[n], dim_h, boundaries.cols, reps, q, class_basis,
        ))
    return CohomologyReport(out)


def _universal_de_rham(a: Algebra, max_degree: int) -> CohomologyReport:
    """The cohomology of the universal prolongation in closed form, equal to
    cohomology(universal_prolongation(a, N)), with no prolongation, kernel,
    image or solve."""
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1")
    f, n = a.field, a.dim
    pivot = _unit_pivot(a)
    if pivot is None:
        # the zero algebra: every component is zero, and so is every H
        zero = Mat.zeros(f, 0, 0)
        return CohomologyReport([DegreeReport(k, 0, 0, 0, zero, zero, zero)
                                 for k in range(max_degree)])
    lead = f.inv(a.unit[pivot])
    unit = Mat.col_vector(f, [f.mul(lead, x) for x in a.unit])
    degrees = [DegreeReport(0, n, 1, 0, unit, Mat.identity(f, n), unit)]
    nb = n - 1  # the dimension of A-bar
    for k in range(1, max_degree):
        size = nb ** k
        boundaries = kronecker(unit, Mat.identity(f, size))
        q, _s = quotient_maps(boundaries, n * size)
        degrees.append(DegreeReport(k, n * size, 0, size, Mat.zeros(f, n * size, 0), q,
                                    Mat.zeros(f, q.rows, 0)))
    # Certificate that these are the reports `cohomology` returns on the
    # universal prolongation, with u the unit and p its pivot, the first
    # coordinate with u_p != 0, read from fodc._unit_pivot as the universal
    # calculus reads it:
    # 1. Omega_u^k = A (x) A-bar^(x)k and d(a0 (x) w) = u (x) pi(a0) (x) w
    #    (prolong.universal_prolongation), with pi: A ->> A-bar and
    #    ker pi = k.u.  So ker d^0 = k.u, and d^(k-1) maps onto
    #    u (x) A-bar^(x)k = ker d^k: the complement of u in A, tensored with
    #    A-bar^(x)(k-1), goes isomorphically onto u (x) A-bar^(x)k.  Hence
    #    H^0 = k.u and H^k = 0 for k >= 1 (Cuntz-Quillen 1995, section 1).
    # 2. Degree 0: the cycles have the canonical basis u / u_p, with its 1 at
    #    row p; there are no boundaries, so the quotient map is the identity
    #    and the class basis and the lifted representative are u / u_p.
    # 3. Degree k >= 1: the boundaries span u (x) A-bar^(x)k, and its basis
    #    u / u_p (x) I has column w's 1 at row p nb^k + w, the first row it
    #    touches and one no other column touches: reduced column echelon
    #    form, which is unique, so image_basis returns it and quotient_maps
    #    reads it with no elimination.  The cycles are the same space, so
    #    the classes, the class basis and the representatives are empty.
    # 4. A 1-dimensional algebra has A-bar = 0, so nb^k = 0 above degree 0
    #    and every such component is zero; the zero algebra has no pivot and
    #    zero components, the branch above.
    # tests/test_derham.py holds the reports to the generic route on every
    # oracle algebra up to degree 4.
    return CohomologyReport(degrees)


def de_rham(a: Algebra, flavor: str, max_degree: int) -> CohomologyReport:
    """H^n of the universal or the Kaehler theory for n < max_degree: the
    universal one in closed form, the Kaehler one as the cohomology of the
    maximal prolongation of the Kaehler calculus.

    Reports degrees 0..max_degree-1; H at the truncation edge would need the
    next differential.
    """
    if flavor == "universal":
        return _universal_de_rham(a, max_degree)
    if flavor == "kahler":
        g = prolong.maximal_prolongation(kahler.kahler_calculus(a), max_degree)
        return cohomology(g)
    raise LinAlgError(f"unknown flavor {flavor!r}")


def de_rham_comparison(a: Algebra, max_degree: int) -> dict:
    """The canonical surjection from the universal to the Kaehler theory, on
    cohomology, degree by degree in the canonical representatives.  The
    Kaehler side is built first: it rejects a noncommutative algebra.

    The chain maps are the unique dg map h from the universal prolongation
    extending the identity of A (`prolong.MaximalProlongation.from_universal`
    builds it).  On cohomology only h^0 = I is read: H^0 of the universal
    theory is spanned by the unit u / u_p, whose Kaehler class is the
    comparison in degree 0, and the universal H^k is 0 for k >= 1, so the
    comparison there is the dim H^k_K x 0 matrix (`_universal_de_rham`)."""
    kp = prolong.maximal_prolongation(kahler.kahler_calculus(a), max_degree)
    rep_u = _universal_de_rham(a, max_degree)
    rep_k = cohomology(kp)
    # h^0 = I: the class of the universal representative, read in H^0_K
    comparison = [rep_k.degrees[0].class_coordinates(rep_u.degrees[0].representatives)]
    comparison += [Mat.zeros(a.field, d.dim_h, 0) for d in rep_k.degrees[1:]]
    return {
        "universal": rep_u,
        "kahler": rep_k,
        "comparison": comparison,
    }
