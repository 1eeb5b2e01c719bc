"""Uncertain inference on two-evidence networks.

The package models a tiny inference network — two evidence variables, one
conclusion — as its full joint probability table, answers evidence updates
with the classic rule-based engine (conjunctive, disjunctive, and
independent rule sets), computes the statistically correct answer by
minimum cross-entropy projection, and ships a Monte Carlo harness that
compares the two across randomly generated network populations.
"""

from .cases import case_study_table, independent_table_from_profile, solve_link_constraints
from .engine import (
    InferenceTrace,
    LinkParams,
    Rule,
    combine_independent,
    infer,
    propagate,
)
from .errors import (
    DegenerateBaseRateError,
    EmptyEvidenceError,
    GenerationError,
    InfeasibleConstraintsError,
    InfeasibleUpdateError,
    InvalidTableError,
    NotIndependentError,
    ProspectorEvalError,
    ZeroMarginalError,
)
from .generate import (
    GenerationConfig,
    generate,
    generate_associated,
    generate_independent,
)
from .oracle import (
    EvidenceUpdate,
    UpdatedTable,
    correct_posterior,
    independent_closed_form,
    mce_update,
)
from .study import (
    DEFAULT_SEED,
    DEFAULT_UPDATE_GRID,
    GRID_FIFTH_VALUES,
    GRID_QUARTERS,
    Diagnostics,
    EvaluationRecord,
    Evaluations,
    MonotonicityPattern,
    NetworkErrorSummary,
    NetworkEvaluation,
    StudyConfig,
    StudyReport,
    diagnostics,
    error_surface,
    evaluate_network,
    evaluate_tables,
    monotonicity_pattern,
    run_study,
    summarize,
)
from .table import (
    ConditionalProfile,
    JointTable,
    NetworkView,
    Provenance,
    base_rates,
    compose_table,
    conditional_profile,
    load_networks,
    network_view,
    save_networks,
    validate,
)

__version__ = "0.1.0"
