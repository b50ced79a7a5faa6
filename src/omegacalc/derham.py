"""Cochain complexes, de Rham cohomology, and the universal-to-Kaehler
comparison.

H^n = ker(d^n) / im(d^(n-1)) with canonical cycle representatives: classes
are coordinatized by the echelon complement of the boundary space, and each
canonical class is lifted to the unique cycle over the canonical solve, so
reports and comparison matrices are reproducible across runs.  The top
degree of a truncated complex has no outgoing differential and is never
reported.
"""

from __future__ import annotations

from .algebra import Algebra
from .kahler import kahler_calculus
from .linalg import (
    EngineError,
    LinAlgError,
    Mat,
    image_basis,
    kernel_basis,
    quotient_maps,
    rank,
    solve,
)
from .prolong import GradedCalculus, maximal_prolongation, universal_prolongation


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

    @staticmethod
    def from_graded(g: GradedCalculus) -> "CochainComplex":
        return CochainComplex(g.dims, g.diff)


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


def cohomology(c: CochainComplex) -> CohomologyReport:
    """H^n for every degree with an outgoing differential (n < top)."""
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


def rank_identity_report(c: CochainComplex, rep: CohomologyReport) -> list[str]:
    """dim Omega^n = rank d^n + rank d^(n-1) + dim H^n at interior degrees."""
    errs = []
    for d in rep.degrees:
        n = d.n
        r_out = rank(c.diff[n])
        r_in = 0 if n == 0 else rank(c.diff[n - 1])
        if c.dims[n] != r_out + r_in + d.dim_h:
            errs.append(f"rank identity fails at degree {n}")
    return errs


def graded_calculus_for(a: Algebra, flavor: str, max_degree: int) -> GradedCalculus:
    if flavor == "universal":
        return universal_prolongation(a, max_degree)
    if flavor == "kahler":
        return maximal_prolongation(kahler_calculus(a), max_degree)
    raise LinAlgError(f"unknown flavor {flavor!r}")


def de_rham(a: Algebra, flavor: str, max_degree: int) -> CohomologyReport:
    """Calculus construction -> maximal prolongation -> cohomology.

    Reports degrees 0..max_degree-1; H at the truncation edge would need the
    next differential.
    """
    g = graded_calculus_for(a, flavor, max_degree)
    return cohomology(CochainComplex.from_graded(g))


def de_rham_comparison(a: Algebra, max_degree: int) -> dict:
    """The canonical surjection from the universal to the Kaehler theory, on
    cohomology, degree by degree in the canonical representatives.  The
    Kaehler side is built first: it rejects a noncommutative algebra before
    the universal prolongation is computed.

    The chain maps are the unique dg map from the universal prolongation
    extending the identity of A.  The universal dg algebra is initial, so it
    exists, and it is read off the two presentations with no solve:
    h^k = Q_k (h^(k-1) (x) I), with Q_k the quotient map of the Kaehler
    prolongation in degree k (the certificate is at
    `prolong.MaximalProlongation.from_universal`)."""
    kp = maximal_prolongation(kahler_calculus(a), max_degree)
    up = universal_prolongation(a, max_degree)
    maps = kp.from_universal
    rep_u = cohomology(CochainComplex.from_graded(up))
    rep_k = cohomology(CochainComplex.from_graded(kp))
    comparison = []
    for deg_u, deg_k in zip(rep_u.degrees, rep_k.degrees):
        n = deg_u.n
        mapped = maps[n] * deg_u.representatives
        comparison.append(deg_k.class_coordinates(mapped))
    return {
        "universal": rep_u,
        "kahler": rep_k,
        "chain_maps": maps,
        "comparison": comparison,
    }
