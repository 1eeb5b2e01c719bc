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

Every rule's trace is built one way: the clamped prior and its odds, one
entry per fused posterior, the combined odds, and the answer.
Probabilities are clamped into [1e-12, 1 - 1e-12] before any odds
conversion so certain evidence stays finite; every clamp is flagged in the
returned trace.  Ties in MIN/MAX (u1 == u2) go to E1 and are flagged.
Like the sweep, ``infer`` refuses a network whose P(C) is 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


def propagate(link: LinkParams, p_new_e: float) -> float:
    """Posterior conclusion probability for one link given P'(E) = p_new_e.

    Piecewise-linear through the anchors (0, P(C|not E)), (P(E), P(C)),
    (1, P(C|E)); the result is clamped into [0, 1] to absorb rounding on
    slightly inconsistent links.
    """
    p_new_e = require_probability(p_new_e, "new evidence probability")
    require_base_rate("E", link.p_e)
    if p_new_e <= link.p_e:
        value = link.p_c_given_not_e + (link.p_c - link.p_c_given_not_e) * p_new_e / link.p_e
    else:
        value = link.p_c + (link.p_c_given_e - link.p_c) * (p_new_e - link.p_e) / (
            1.0 - link.p_e
        )
    return min(max(value, 0.0), 1.0)


def _check_probabilities(values: Sequence[float]) -> list[float]:
    """``values`` as Python floats, each checked by ``require_probability``."""
    if len(values) == 0:
        raise EmptyEvidenceError("need at least one evidence value")
    return [require_probability(v, "probabilities") for v in values]


def _clamp_unit(p: float) -> float:
    return min(max(p, ODDS_CLAMP), 1.0 - ODDS_CLAMP)


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
    and likelihood ratio, and the combined odds.  The probability is the
    odds product's, or under MIN/MAX the one fused posterior."""
    used_prior = _clamp_unit(p_c)
    prior_odds = used_prior / (1.0 - used_prior)
    combined = prior_odds
    entries = []
    for index, p_new_e, posterior in fused:
        used = _clamp_unit(posterior)
        odds = used / (1.0 - used)
        ratio = odds / prior_odds
        combined *= ratio
        entries.append(
            EvidenceTrace(index, p_new_e, posterior, used, odds, ratio, used != posterior)
        )
    independent = rule is Rule.INDEPENDENT
    return InferenceTrace(
        rule=rule,
        prior=p_c,
        used_prior=used_prior,
        prior_odds=prior_odds,
        prior_clamped=used_prior != p_c,
        evidence=tuple(entries),
        combined_odds=combined,
        probability=combined / (1.0 + combined) if independent else entries[0].posterior,
        selected=None if independent else entries[0].index,
        tie=tie,
    )


def combine_independent(
    posteriors: Sequence[float], p_c: float
) -> tuple[float, InferenceTrace]:
    """Fuse per-link posteriors multiplicatively in odds space.

    Each posterior is turned into an effective likelihood ratio against the
    prior odds; the prior odds times the product of the ratios gives the
    combined odds, which convert back to a probability.  Requires a prior
    strictly inside (0, 1).
    """
    posteriors = _check_probabilities(posteriors)
    if not 0.0 < (prior := require_real(p_c, "prior")) < 1.0:
        raise ValueError(f"prior must lie strictly inside (0, 1), got {p_c!r}")
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
    if rule is Rule.INDEPENDENT:
        chosen = (0, 1)
    elif rule is Rule.CONJUNCTIVE:
        chosen = (0 if u1 <= u2 else 1,)
    elif rule is Rule.DISJUNCTIVE:
        chosen = (0 if u1 >= u2 else 1,)
    else:
        raise ValueError(f"unknown rule: {rule!r}")
    fused = []
    for i in chosen:
        link = LinkParams(view.p_c, view.p_e[i], view.p_c_given_e[i], view.p_c_given_not_e[i])
        fused.append((i, update[i], propagate(link, update[i])))
    trace = _trace(rule, view.p_c, fused, tie=rule is not Rule.INDEPENDENT and bool(u1 == u2))
    return trace.probability, trace
