"""Exact simulator and hidden-variable auditor for a sequential-measurement
Bell test built on a 3x3 square of two-qubit observables.

The package reproduces every quantum prediction of the experiment exactly
(state preparation with per-pair white noise, each measurement sequence as
one joint measurement of commuting observables, conditional correlators,
inequality values, visibility thresholds) and computes the classical bounds
by exhaustively enumerating deterministic hidden-variable models.
"""

__version__ = "0.1.0"

from .pauli import PauliString, commutes, pauli_mul, pauli_product, to_matrix
from .observables import (
    ALICE_LABELS,
    BOB_LABELS,
    CHI_SIGNS,
    OBSERVABLES,
    PAIR_SIGNS,
    S_TERMS,
    SEQUENCE_ORDER,
    SEQUENCES,
    STermSpec,
    mermin_square_check,
)
from .states import (
    DensityState,
    expectation,
    four_qubit_state,
    singlet_pair,
    werner_pair,
)
from .sequences import (
    OutcomeDistribution,
    SequenceSpec,
    ShotRecord,
    bob_marginal,
    conditional_pair_expectation,
    derive_seed,
    product_expectation,
    sample,
    sample_outcomes,
    sequence_distribution,
    uniform01,
)
from .inequality import (
    ChiTerms,
    InequalityReport,
    LOCAL_OMEGA_BOUND,
    NONCONTEXTUAL_CHI_BOUND,
    STerms,
    SampledInequality,
    estimate_inequality,
    fidelity_from_visibility,
    find_violation_threshold,
    omega,
    sweep,
    visibility_threshold,
)
from .hv_models import (
    BoundResult,
    GapReport,
    HVModel,
    NoncontextualAssignment,
    bound_gap_report,
    chain_inequality_scan,
    decode_model,
    encode_model,
    evaluate_model,
    local_omega_bound,
    first_measurement_bound,
    noncontextual_chi_bound,
    relaxed_omega_scan,
)

__all__ = [
    "__version__",
    "PauliString", "commutes", "pauli_mul", "pauli_product", "to_matrix",
    "ALICE_LABELS", "BOB_LABELS", "CHI_SIGNS", "OBSERVABLES", "PAIR_SIGNS",
    "S_TERMS", "SEQUENCE_ORDER", "SEQUENCES", "STermSpec",
    "mermin_square_check",
    "DensityState", "expectation", "four_qubit_state", "singlet_pair",
    "werner_pair",
    "OutcomeDistribution", "SequenceSpec", "ShotRecord", "bob_marginal",
    "conditional_pair_expectation", "derive_seed", "product_expectation",
    "sample", "sample_outcomes", "sequence_distribution", "uniform01",
    "ChiTerms", "InequalityReport", "LOCAL_OMEGA_BOUND",
    "NONCONTEXTUAL_CHI_BOUND", "STerms", "SampledInequality",
    "estimate_inequality", "fidelity_from_visibility",
    "find_violation_threshold", "omega", "sweep", "visibility_threshold",
    "BoundResult", "GapReport", "HVModel", "NoncontextualAssignment",
    "bound_gap_report", "chain_inequality_scan", "decode_model",
    "encode_model", "evaluate_model",
    "local_omega_bound", "first_measurement_bound", "noncontextual_chi_bound",
    "relaxed_omega_scan",
]
