"""Built-in benchmark networks, constructed from their defining constraints.

Case study 1: both evidence variables at base rate 1/2, independent, with
the symmetric conditional profile (.10, .50, .50, .90) — a strongly
associative conclusion with plenty of room on either side.

Case study 2: rare evidence (P(E1) = .01, P(E2) = .02), independent, pinned
by single-link conditionals P(C) = .05, P(C|E1) = .60, P(C|E2) = .70 and the
joint conditional P(C|E1 and E2) = .95.  The remaining conditionals are the
unique solution of the linear constraint system; building the table from
the constraints (rather than hard-coding cells) keeps it exact.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InfeasibleConstraintsError
from .table import JointTable, compose_table, product_masses

CASE_STUDY_IDS = (1, 2)


def independent_table_from_profile(
    p_e1: float, p_e2: float, profile: Sequence[float]
) -> JointTable:
    """Independent-evidence table with the given conditional profile."""
    for name, value in (("p_e1", p_e1), ("p_e2", p_e2)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    if len(profile) != 4 or not all(0.0 <= q <= 1.0 for q in profile):
        raise ValueError("profile must be 4 probabilities in FF, FT, TF, TT order")
    return compose_table(product_masses(p_e1, p_e2), tuple(profile), kind="independent")


def solve_link_constraints(
    p_e1: float,
    p_e2: float,
    p_c: float,
    p_c_given_e1: float,
    p_c_given_e2: float,
    p_c_given_both: float,
) -> JointTable:
    """Solve for the independent-evidence table matching per-link conditionals.

    The four unknown conclusion-true cells are determined linearly:
    the (T, T) cell by P(C|E1 and E2), the (T, F) and (F, T) cells by the
    single-link conditionals, and the (F, F) cell by the prior.  Raises
    InfeasibleConstraintsError when the implied cells fall outside their
    rows (some conditional would leave [0, 1]).
    """
    marginals = product_masses(p_e1, p_e2).tolist()
    x_tt = p_c_given_both * marginals[3]
    x_tf = p_c_given_e1 * p_e1 - x_tt
    x_ft = p_c_given_e2 * p_e2 - x_tt
    x_ff = p_c - x_tt - x_tf - x_ft
    profile = []
    for (label, x), mass in zip(
        (("ff", x_ff), ("ft", x_ft), ("tf", x_tf), ("tt", x_tt)), marginals
    ):
        if mass <= 0.0:
            raise InfeasibleConstraintsError(
                f"evidence state {label} has zero probability under the given base rates"
            )
        q = x / mass
        if not 0.0 <= q <= 1.0:
            raise InfeasibleConstraintsError(
                f"constraints force P(C | {label}) = {q!r}, outside [0, 1]"
            )
        profile.append(q)
    return independent_table_from_profile(p_e1, p_e2, profile)


def case_study_table(case: int) -> JointTable:
    """The built-in benchmark network ``case`` (1 or 2)."""
    if case == 1:
        return independent_table_from_profile(0.5, 0.5, (0.10, 0.50, 0.50, 0.90))
    if case == 2:
        return solve_link_constraints(
            p_e1=0.01,
            p_e2=0.02,
            p_c=0.05,
            p_c_given_e1=0.60,
            p_c_given_e2=0.70,
            p_c_given_both=0.95,
        )
    raise ValueError(f"unknown case study id: {case!r} (valid: {CASE_STUDY_IDS})")
