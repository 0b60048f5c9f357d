"""mrtest: macrorealism tests for a single dichotomic variable.

Given the statistics of one two-valued observable at 2-4 times (measured or
simulated), decide which notions of macrorealism they admit: the augmented
Leggett-Garg inequality sets, the no-signaling-in-time equalities, the
coherence witness bound, and joint-probability existence via the
closed-form triple-correlator interval with an independent LP check.
"""

from .conditions import (
    Check,
    ConditionReport,
    lg2,
    lg3,
    lg4,
    mr_int,
    mr_strong,
    mr_weak,
    nsit,
    nsit_pairwise,
)
from .errors import (
    ConvergenceError,
    InputFormatError,
    InvalidObservableError,
    MrtestError,
    ValidationError,
)
from .fine import FeasibilityResult, d_interval, lp_feasibility, triple_expansion_table
from .harness import (
    CampaignSummary,
    RunRecord,
    SweepSpec,
    apply_parameter,
    default_model_path,
    haar_unitary,
    load_model,
    load_moments,
    load_sweep_spec,
    model_from_jsonable,
    model_to_jsonable,
    run_campaign,
    run_sweep,
    sample_model,
    simulate,
    sweep_csv_lines,
    write_sweep_csv,
)
from .measurement import (
    ContextualMoments,
    MomentSet,
    ProbabilityTable,
    TableSet,
    interference_term,
    measure_all,
    pair_expansion_table,
    pair_set,
    piecewise_moments,
    quasi_prob2,
    sequential_moments,
    sequential_prob,
    single_time_prob,
    witness,
)
from .quantum import QuantumModel, eig_hermitian, expectation
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "Check",
    "CampaignSummary",
    "ConditionReport",
    "ContextualMoments",
    "ConvergenceError",
    "FeasibilityResult",
    "InputFormatError",
    "InvalidObservableError",
    "MomentSet",
    "MrtestError",
    "ProbabilityTable",
    "QuantumModel",
    "RunRecord",
    "SweepSpec",
    "TOL",
    "TableSet",
    "Tolerances",
    "ValidationError",
    "apply_parameter",
    "d_interval",
    "default_model_path",
    "eig_hermitian",
    "expectation",
    "haar_unitary",
    "interference_term",
    "lg2",
    "lg3",
    "lg4",
    "load_model",
    "load_moments",
    "load_sweep_spec",
    "lp_feasibility",
    "measure_all",
    "model_from_jsonable",
    "model_to_jsonable",
    "mr_int",
    "mr_strong",
    "mr_weak",
    "nsit",
    "nsit_pairwise",
    "pair_expansion_table",
    "pair_set",
    "piecewise_moments",
    "quasi_prob2",
    "run_campaign",
    "run_sweep",
    "sample_model",
    "sequential_moments",
    "sequential_prob",
    "simulate",
    "single_time_prob",
    "sweep_csv_lines",
    "triple_expansion_table",
    "witness",
    "write_sweep_csv",
]
