"""PROSPECTOR-style belief propagation and evidence combination.

A single evidence-to-conclusion link updates the conclusion by linear
interpolation through three anchor points: certainly-false evidence maps to
P(C | not E), evidence at its base rate maps back to the prior P(C), and
certainly-true evidence maps to P(C | E).  In between the map is piecewise
linear with a knee at the base rate:

    p_new_e <= P(E):  P(C|not E) + (P(C) - P(C|not E)) * p_new_e / P(E)
    p_new_e >  P(E):  P(C) + (P(C|E) - P(C)) * (p_new_e - P(E)) / (1 - P(E))

A query gives new probabilities (u1, u2) for the two evidence variables,
and ``infer`` answers it under one of three rule sets:

* conjunctive  — the smaller of u1 and u2 is propagated through its own
  link (MIN);
* disjunctive  — likewise with the larger (MAX);
* independent  — each link is propagated separately, each posterior is
  converted to odds, divided by the prior odds to give an effective
  likelihood ratio, and the ratios multiply the prior odds.

The arithmetic is written once, as elementwise numpy functions that the
study's sweep shares: ``linear_link``, ``odds`` (after clamping into
[1e-12, 1 - 1e-12], so certain evidence stays finite), ``odds_product`` and
the MIN/MAX choice ``takes_e1``, which gives ties (u1 == u2) to E1.  Every
rule's trace is built from them one way: the clamped prior and its odds, one
entry per fused posterior (each clamp flagged), the combined odds, and the
answer.  Like the sweep, ``infer`` and ``combine_independent`` refuse a P(C)
of 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EmptyEvidenceError
from .table import NetworkView, require_base_rate, require_probability, require_real

#: Bound used when converting probabilities to odds.
ODDS_CLAMP = 1e-12


class Rule(Enum):
    """Evidence-combination rule set."""

    CONJUNCTIVE = "conjunctive"
    DISJUNCTIVE = "disjunctive"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class LinkParams:
    """Parameters of one evidence-to-conclusion link, as Python floats."""

    p_c: float
    p_e: float
    p_c_given_e: float
    p_c_given_not_e: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            object.__setattr__(self, name, require_real(value, name))


def linear_link(p_c, p_e, p_c_given_e, p_c_given_not_e, u):
    """P'(C) of links given P'(E) = u, elementwise: piecewise-linear through
    the anchors (0, P(C|not E)), (P(E), P(C)), (1, P(C|E)), clamped into
    [0, 1] to absorb rounding on slightly inconsistent links."""
    below = p_c_given_not_e + (p_c - p_c_given_not_e) * u / p_e
    above = p_c + (p_c_given_e - p_c) * (u - p_e) / (1.0 - p_e)
    return np.minimum(np.maximum(np.where(u <= p_e, below, above), 0.0), 1.0)


def odds_clamp(p):
    """``p`` clamped into [ODDS_CLAMP, 1 - ODDS_CLAMP], elementwise."""
    return np.minimum(np.maximum(p, ODDS_CLAMP), 1.0 - ODDS_CLAMP)


def odds(p):
    """The odds of ``p`` after ``odds_clamp``, elementwise."""
    p = odds_clamp(p)
    return p / (1.0 - p)


def odds_product(prior_odds, evidence_odds):
    """The independent rule in odds space: each of ``evidence_odds`` over
    ``prior_odds`` (the likelihood ratios, in evidence order), the prior
    odds times the ratios in that order, and that product's probability."""
    ratios, combined = [], prior_odds
    for value in evidence_odds:
        ratios.append(value / prior_odds)
        combined = combined * ratios[-1]
    return ratios, combined, combined / (1.0 + combined)


def takes_e1(rule, u1, u2):
    """Where MIN or MAX propagates E1's link, elementwise: MIN takes the
    smaller update, MAX the larger, and a tie goes to E1 (ValueError for any
    other rule)."""
    if rule not in (Rule.CONJUNCTIVE, Rule.DISJUNCTIVE):
        raise ValueError(f"unknown rule: {rule!r}")
    return u1 <= u2 if rule is Rule.CONJUNCTIVE else u1 >= u2


def propagate(link: LinkParams, p_new_e: float) -> float:
    """Posterior conclusion probability for one link given P'(E) = p_new_e,
    ``linear_link``'s value as a Python float."""
    p_new_e = require_probability(p_new_e, "new evidence probability")
    require_base_rate("E", link.p_e)
    return float(linear_link(link.p_c, link.p_e, link.p_c_given_e, link.p_c_given_not_e, p_new_e))


def _check_probabilities(values: Sequence[float]) -> list[float]:
    """``values`` as Python floats, each checked by ``require_probability``."""
    if len(values) == 0:
        raise EmptyEvidenceError("need at least one evidence value")
    return [require_probability(v, "probabilities") for v in values]


@dataclass(frozen=True)
class EvidenceTrace:
    """Per-evidence record of an inference.

    ``posterior`` is the raw propagated value; ``used_posterior`` is the
    value actually converted to odds (different only when clamping fired,
    which ``clamped`` flags).  ``p_new_e`` is None when the combination was
    fed posteriors directly rather than evidence updates.
    """

    index: int
    p_new_e: float | None
    posterior: float
    used_posterior: float
    odds: float
    likelihood_ratio: float
    clamped: bool


@dataclass(frozen=True)
class InferenceTrace:
    """Complete audit trail of one inference.

    Invariants (all checked in the test suite): every recorded odds value
    equals used/(1 - used) for its recorded used-probability; the combined
    odds equal prior_odds times the product of the likelihood ratios in
    evidence order; and combined_odds/(1 + combined_odds) reproduces
    ``probability`` within 1e-12 (exactly, for the independent rule).
    """

    rule: Rule
    prior: float
    used_prior: float
    prior_odds: float
    prior_clamped: bool
    evidence: tuple[EvidenceTrace, ...]
    combined_odds: float
    probability: float
    selected: int | None
    tie: bool


def _trace(
    rule: Rule,
    p_c: float,
    fused: Sequence[tuple[int, float | None, float]],
    tie: bool = False,
) -> InferenceTrace:
    """The audit trail every rule builds: the clamped prior and its odds,
    one entry per fused (index, p_new_e, posterior) with its clamped odds
    and likelihood ratio, and the combined odds, each from the sweep's
    functions.  The probability is the odds product's, or under MIN/MAX the
    one fused posterior."""
    indices, updates, posteriors = zip(*fused)
    values = np.array([p_c, *posteriors])
    used = odds_clamp(values)
    used_prior, *used_posteriors = used.tolist()
    prior_clamped, *clamped = (used != values).tolist()
    prior_odds, *evidence_odds = odds(values).tolist()
    ratios, combined, probability = odds_product(prior_odds, evidence_odds)
    entries = map(
        EvidenceTrace, indices, updates, posteriors, used_posteriors, evidence_odds, ratios, clamped
    )
    independent = rule is Rule.INDEPENDENT
    return InferenceTrace(
        rule=rule,
        prior=p_c,
        used_prior=used_prior,
        prior_odds=prior_odds,
        prior_clamped=prior_clamped,
        evidence=tuple(entries),
        combined_odds=combined,
        probability=probability if independent else posteriors[0],
        selected=None if independent else indices[0],
        tie=tie,
    )


def combine_independent(
    posteriors: Sequence[float], p_c: float
) -> tuple[float, InferenceTrace]:
    """Fuse per-link posteriors multiplicatively in odds space.

    Each posterior is turned into an effective likelihood ratio against the
    prior odds; the prior odds times the product of the ratios gives the
    combined odds, which convert back to a probability.  Raises
    DegenerateBaseRateError, with the sweep's text, when the prior is 0 or 1.
    """
    posteriors = _check_probabilities(posteriors)
    require_base_rate("C", prior := require_real(p_c, "prior"))
    trace = _trace(Rule.INDEPENDENT, prior, [(i, None, p) for i, p in enumerate(posteriors)])
    return trace.probability, trace


def infer(
    view: NetworkView, rule: Rule, update: tuple[float, float]
) -> tuple[float, InferenceTrace]:
    """Answer one two-evidence query: new evidence probabilities
    (u1, u2) -> P'(C).  Raises DegenerateBaseRateError, with the sweep's
    text, when P(C), P(E1) or P(E2) is 0 or 1."""
    update = _check_probabilities(update)
    if len(update) != 2:
        raise ValueError(f"need one update per evidence variable (two), got {len(update)}")
    for name, rate in (("C", view.p_c), ("E1", view.p_e[0]), ("E2", view.p_e[1])):
        require_base_rate(name, rate)
    u1, u2 = update
    chosen = (0, 1) if rule is Rule.INDEPENDENT else (0 if takes_e1(rule, u1, u2) else 1,)
    fields = view.p_e, view.p_c_given_e, view.p_c_given_not_e
    fused = [
        (i, update[i], float(linear_link(view.p_c, *(f[i] for f in fields), update[i])))
        for i in chosen
    ]
    trace = _trace(rule, view.p_c, fused, tie=rule is not Rule.INDEPENDENT and bool(u1 == u2))
    return trace.probability, trace
