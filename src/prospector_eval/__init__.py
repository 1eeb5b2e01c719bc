"""Uncertain inference on two-evidence networks.

The package models a tiny inference network — two evidence variables, one
conclusion — as its full joint probability table, answers evidence updates
with the classic rule-based engine (conjunctive, disjunctive, and
independent rule sets), computes the statistically correct answer by
minimum cross-entropy projection, and ships a Monte Carlo harness that
compares the two across randomly generated network populations.

Every public name, and every submodule as an attribute, loads on first use
(PEP 562): ``import prospector_eval`` itself loads neither numpy nor any
submodule, so a command-line query pays only for the modules it runs.  No
public name is a submodule's name (``generate`` is a function of
``samplers``), so importing a submodule never rebinds a public name.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each submodule and the public names it gives the package.
_EXPORTS = {
    "cases": "case_study_table independent_table_from_profile solve_link_constraints",
    "engine": "InferenceTrace LinkParams Rule combine_independent infer propagate",
    "errors": """DegenerateBaseRateError EmptyEvidenceError GenerationError
        InfeasibleConstraintsError InfeasibleUpdateError InvalidTableError NotIndependentError
        ProspectorEvalError ZeroMarginalError""",
    "oracle": "EvidenceUpdate UpdatedTable correct_posterior independent_closed_form mce_update",
    "samplers": "GenerationConfig generate generate_associated generate_independent",
    "study": """DEFAULT_SEED DEFAULT_UPDATE_GRID GRID_FIFTH_VALUES GRID_QUARTERS Diagnostics
        EvaluationRecord Evaluations MonotonicityPattern NetworkErrorSummary NetworkEvaluation
        StudyConfig StudyReport diagnostics error_surface evaluate_network evaluate_tables
        monotonicity_pattern run_study summarize""",
    "table": """JointTable NetworkView Provenance compose_table conditional_profile
        load_networks network_view save_networks validate""",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
        return value
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

