"""lglab: a simulation laboratory for sequential polarization measurements.

Generates trial data under quantum, hidden-variable, and loophole-injected
world-models, estimates the three pair correlations, and tests the temporal
inequality |P(a,b) - P(a,c)| <= 1 - P(b,c): quantum mechanics reaches LHS
3/2 while every deterministic response model obeys the bound of 1.
"""

from .analysis import (
    AnalysisError,
    LgReport,
    LogFold,
    PairEstimate,
    StabilizationReport,
    estimate_pairs,
    estimates_from_counts,
    evaluate_lg,
    maximize_violation,
    quantum_lhs,
    stabilization,
)
from .experiment import (
    FreedomOfChoiceError,
    QuantumWorld,
    SlotBinding,
    SpacetimeEvent,
    run_chunks,
    run_experiment,
    select_pair,
    spacelike_separated,
)
from .hidden_vars import (
    ConspiracyModel,
    PairChoice,
    ResponseModel,
    RotorModel,
    TableModel,
    TimeSlot,
    World,
    brute_force_bound,
    conspiracy_from_quantum,
    expectation_exact,
    mixture_bound_check,
)
from .quantum import (
    Direction,
    PolarizationState,
    measure_polarization,
    run_quantum_trial,
    sequential_correlation_exact,
)
from .rng import SeededGenerator, derive_trial_generator
from .triallog import TrialLog, TrialRecord, fold_trial_log, read_trial_log, write_trial_log

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "ConspiracyModel",
    "Direction",
    "FreedomOfChoiceError",
    "LgReport",
    "LogFold",
    "PairChoice",
    "PairEstimate",
    "PolarizationState",
    "QuantumWorld",
    "ResponseModel",
    "RotorModel",
    "SeededGenerator",
    "SlotBinding",
    "SpacetimeEvent",
    "StabilizationReport",
    "TableModel",
    "TimeSlot",
    "TrialLog",
    "TrialRecord",
    "World",
    "brute_force_bound",
    "conspiracy_from_quantum",
    "derive_trial_generator",
    "estimate_pairs",
    "estimates_from_counts",
    "evaluate_lg",
    "expectation_exact",
    "fold_trial_log",
    "maximize_violation",
    "measure_polarization",
    "mixture_bound_check",
    "quantum_lhs",
    "read_trial_log",
    "run_chunks",
    "run_experiment",
    "run_quantum_trial",
    "select_pair",
    "sequential_correlation_exact",
    "spacelike_separated",
    "stabilization",
    "write_trial_log",
]
