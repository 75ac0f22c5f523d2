"""Fixed points of completely positive unital maps, numerically.

Models CP unital maps in finite dimensions as weighted Kraus families
and exposes every step of the fixed-point-implies-commutation argument
as a checkable numerical operation.
"""

from .matcore import (
    Check,
    DomainError,
    HermiticityError,
    ToleranceConfig,
)
from .channel import (
    DimensionMismatchError,
    KrausFamily,
    NormalizationReport,
    apply_map,
    dual_apply,
    fixed_space_basis,
    normalization_report,
)
from .algebra import (
    AlgebraStructure,
    BlockAlgebra,
    MembershipError,
    algebra_structure,
    commutant_basis,
    structure_commutant,
    structure_fixed_space,
)
from .jensen import (
    EpsFunction,
    IneqResidual,
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
