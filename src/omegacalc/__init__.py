"""Exact computation of differential calculi over finite-dimensional algebras."""

from .algebra import (
    Algebra,
    AlgMap,
    AxiomError,
    alg_map_report,
    algebra_axiom_report,
    build_group_algebra,
    build_matrix_algebra,
    build_square_zero,
    build_truncated_poly,
    is_commutative,
    opposite,
)
from .bimodule import (
    BimodMap,
    Bimodule,
    bimod_cokernel,
    bimod_kernel,
    bimodule_hom_basis,
    bimodule_hom_dim,
    extend_bimodule,
    free_bimodule,
    generated_sub_bimodule,
    regular_bimodule,
    restrict_bimodule,
    tensor_over_algebra,
    zero_bimodule,
)
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
    kernel_counit_comparison,
    quotient_calculus,
    sub_calculus_correspondence,
    universal_calculus,
    zero_calculus,
)
from .hopf import (
    Bimonoid,
    bicovariance_check,
    bimonoid_axiom_report,
    check_hopf_module,
    group_like_bimonoid,
    universal_coactions,
)
from .kahler import centrality_check, kahler_calculus
from .linalg import (
    GF,
    QQ,
    EngineError,
    Field,
    LinAlgError,
    Mat,
    cokernel_projection,
    direct_sum,
    image_basis,
    kernel_basis,
    kronecker,
    rank,
    solve,
)
from .prolong import (
    GradedCalculus,
    maximal_prolongation,
    trivial_extension,
    truncation_adjoints_check,
    unique_dg_morphism,
    universal_prolongation,
)
from .scalars import (
    calc1_category_adjoints_check,
    calc_pullback,
    calc_pushforward,
    square_zero_unit_check,
    verify_poset_adjunction,
)

__version__ = "0.1.0"
