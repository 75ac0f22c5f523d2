"""Fixed points of completely positive unital maps, numerically.

Models CP unital maps in finite dimensions as weighted Kraus families
and exposes every step of the fixed-point-implies-commutation argument
as a checkable numerical operation.
"""

from .matcore import (
    DomainError,
    HermiticityError,
    SpectralDecomposition,
    ToleranceConfig,
    herm_eig,
    herm_part,
    hermitize,
    mat_func,
    nullspace_basis,
    psd_min_eig,
)
from .channel import (
    ChoiCheck,
    DimensionMismatchError,
    FixedSpace,
    KrausFamily,
    NormalizationReport,
    Superoperator,
    apply_map,
    choi_psd_check,
    dual_apply,
    fixed_space_basis,
    normalization_report,
    superoperator_matrix,
)
from .algebra import (
    BlockAlgebra,
    MembershipError,
    OperatorBasis,
    commutant_basis,
    invariance_check,
    trace_tau,
)
from .jensen import (
    EpsFunction,
    IneqResidual,
    f_eps_eval,
    jensen_residual,
    kadison_schwarz_residual,
    lambda_domination_check,
    midpoint_convexity_residual,
    series_truncation_check,
)
from .verify import (
    ExplorationReport,
    PeelTrace,
    PreconditionError,
    TheoremReport,
    TrialConfig,
    corollary_verify,
    hypothesis_explorer,
    power_fixed_check,
    random_bistochastic,
    random_selfadjoint_family,
    spectral_peel,
    theorem_verify,
    trace_inequality_check,
)

__version__ = "0.1.0"
