"""mrtest: macrorealism tests for a single dichotomic variable.

Given the statistics of one two-valued observable at 2-4 times (measured or
simulated), decide which notions of macrorealism they admit: the augmented
Leggett-Garg inequality sets, the no-signaling-in-time equalities, the
coherence witness bound, and joint-probability existence (Fine's theorem)
via a closed-form interval on the one free correlator.
"""

import types

from .conditions import (
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
    InputFormatError,
    InvalidObservableError,
    MrtestError,
    ValidationError,
)
from .fine import FeasibilityResult, d_bounds, d_interval, lp_feasibility, triple_expansion_table
from .harness import (
    SweepSpec,
    default_model_path,
    haar_unitary,
    load_model,
    load_moments,
    load_sweep_spec,
    model_from_jsonable,
    model_to_jsonable,
    run_campaign,
    sample_model,
    simulate,
    sweep_blocks,
    sweep_csv_lines,
    write_sweep_csv,
)
from .measurement import (
    MomentSet,
    ProbabilityTable,
    TableSet,
    interference_term,
    measure_all,
    pair_set,
    sequential_moments,
    witness,
)
from .quantum import QuantumModel, eig_hermitian, expectation
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"

# the public API is exactly the names imported above
__all__ = sorted(
    name for name, value in vars().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
