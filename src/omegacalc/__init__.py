"""Exact computation of differential calculi over finite-dimensional algebras."""

from .algebra import (
    Algebra,
    AlgMap,
    AxiomError,
    build_group_algebra,
    build_matrix_algebra,
    build_truncated_poly,
)
from .bimodule import BimodMap, Bimodule, tensor_over_algebra
from .derham import (
    CochainComplex,
    CohomologyReport,
    cohomology,
    de_rham,
    de_rham_comparison,
)
from .fodc import (
    FirstOrderCalculus,
    PreconditionError,
    UniversalCalculus,
    check_fodc,
    enumerate_action_closed_subspaces,
    induced_map,
    quotient_calculus,
    sub_calculus_correspondence,
    universal_calculus,
    zero_calculus,
)
from .hopf import Bimonoid, bicovariance_check, group_like_bimonoid, universal_coactions
from .kahler import centrality_check, kahler_calculus
from .linalg import (
    GF,
    QQ,
    EngineError,
    Field,
    LinAlgError,
    Mat,
    image_basis,
    kernel_basis,
    rank,
    solve,
)
from .prolong import (
    GradedCalculus,
    maximal_prolongation,
    trivial_extension,
    universal_prolongation,
)
from .scalars import calc_pullback, calc_pushforward, verify_poset_adjunction

__version__ = "0.1.0"
