"""Fixed points of completely positive unital maps, numerically.

Models CP unital maps in finite dimensions as weighted Kraus families
and exposes every step of the fixed-point-implies-commutation argument
as a checkable numerical operation.
"""

from .matcore import (
    Check,
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
    DimensionMismatchError,
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
    AlgebraStructure,
    BlockAlgebra,
    MembershipError,
    algebra_structure,
    commutant_basis,
    invariance_check,
    structure_commutant,
    structure_fixed_space,
    trace_tau,
)
from .jensen import (
    EpsFunction,
    IneqResidual,
    f_eps_eval,
    jensen_residual,
    kadison_schwarz_residual,
)
from .verify import (
    ExplorationReport,
    PeelTrace,
    PreconditionError,
    TheoremReport,
    TrialConfig,
    corollary_verify,
    hypothesis_explorer,
    spectral_peel,
    theorem_verify,
    trace_inequality_check,
)

__version__ = "0.1.0"
