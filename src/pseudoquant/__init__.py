"""Exact symbolic and numeric engine for pseudo-quantisation on cotangent charts."""

from .symcore import (
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    Scalar,
    SmoothMap,
    TwoForm,
    exterior_d,
    poisson,
    pullback_form,
    standard_chart,
    standard_potential,
    standard_symplectic,
)
from .prequant import (
    ConnectionData,
    FormalOperator,
    PullbackSetup,
    commutator,
    commutator_rhs,
    phase_conjugate,
    pullback_quantise,
    quantise,
    theorem_commutator,
)
from .polarisation import (
    FlatSectionAction,
    Polarisation,
    PreservationReport,
    classify_monomials,
    flat_action,
    preserves,
    scaled_connection,
)

__version__ = "0.1.0"
