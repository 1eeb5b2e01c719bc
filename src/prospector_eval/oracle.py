"""Statistically correct updates: minimum cross-entropy projection.

Given a source table p and new evidence marginals, the correct updated
distribution q minimizes the directed divergence sum(q * log(q / p)) among
all distributions with the prescribed P'(E1) and P'(E2) — the conclusion
marginal is left free and lands wherever the projection puts it.

The minimizer has the form q = p * a^[e1] * b^[e2] (one multiplier per
constrained variable).  Because the multipliers do not depend on C, every
conditional P(C | E1, E2) — and more generally every defined conditional
odds ratio — survives the update untouched; only the four evidence-pair
weights n_ab = P(E1=a, E2=b) move, and they keep their odds ratio
theta = n_FF n_TT / (n_FT n_TF) (Mosteller 1968, JASA 63:1).  So the new
weight x = n'_TT is the root in [max(0, u1 + u2 - 1), min(u1, u2)] of

    (1 - theta) x^2 + [(1 - u1 - u2) + theta (u1 + u2)] x - theta u1 u2 = 0,

the other three weights follow from the margins (where such a difference
is at most 2^-16, from a root at the small diagonal cell), and

    P'(C) = sum over (a, b) of n'_ab * P(C | E1=a, E2=b).

Certain targets (u = 0 or 1) satisfy the same equation, and the result is
exact conditioning.  A zero pair weight (theta = 0 or infinity) stays zero,
which pins x by the margins alone; targets that would need mass on it are
unreachable.  Nothing iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleUpdateError, NotIndependentError
from .table import (
    EVIDENCE_STATES,
    JointTable,
    check_cells,
    conditional_profiles,
    pair_masses,
    product_masses,
    rates,
    require_probability,
    require_valid,
    scale_pairs,
)

#: The smallest normal double.
_TINY = np.finfo(float).tiny

#: A weight formed as a difference of margins is off by about an ulp of 1,
#: so one above this keeps about 2^-36 of itself; a row with a weight at
#: most this is solved again at its small cell.
_REDO_CUT = 2.0**-16

#: Margins within this of their targets count as met: an update at the
#: table's own base rates returns the cells unchanged, and rounding of this
#: size on a zero pair weight does not make an update unreachable.
MATCH_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class EvidenceUpdate:
    """New marginal probabilities for the two evidence variables, stored as
    Python floats (ValueError for a bool, a non-real number or a value
    outside [0, 1])."""

    p_new_e1: float
    p_new_e2: float

    def __post_init__(self) -> None:
        for name in ("p_new_e1", "p_new_e2"):
            object.__setattr__(self, name, require_probability(getattr(self, name), name))

    def as_tuple(self) -> tuple[float, float]:
        return (self.p_new_e1, self.p_new_e2)


@dataclass(frozen=True)
class UpdatedTable:
    """Result of a minimum cross-entropy update.

    ``iterations`` is always 0: the projection is solved in closed form.
    """

    table: JointTable
    marginal_deviation: tuple[float, float]
    iterations: int


def unreachable_message(u1: float, u2: float) -> str:
    """Why the update (u1, u2) has no answer on a table where it is NaN."""
    return (
        f"evidence marginals ({u1!r}, {u2!r}) are unreachable: they need mass on "
        "an evidence-pair state the table gives zero probability"
    )


def _root(log_t, u, v):
    """The (T, T) weight with margins u and v at odds ratio t = e^log_t >= 1.
    Scaled by 1 / max(1, t - 1), every term stays finite, even for t = inf,
    and the discriminant is a sum of non-negative terms."""
    d = np.expm1(log_t)
    a, b = np.minimum(d, 1.0), np.minimum(1.0 / d, 1.0)
    mixed = u * (1.0 - v) + v * (1.0 - u)
    disc = (a * (u - v)) ** 2 + b * b + 2.0 * a * b * mixed
    scale, den = 2.0 * (a + b), b + a * (u + v) + np.sqrt(disc)
    root = scale * u * v / den
    # Where u * v is subnormal, it would round away the root's last digits,
    # and the discriminant's terms may underflow: hypot forms its root.
    tiny = (u * v < _TINY) & (u > 0.0) & (v > 0.0)
    if not tiny.any():
        return root
    disc_root = np.hypot(np.hypot(a * (u - v), b), np.sqrt(2.0 * a * b) * np.sqrt(mixed))
    return np.where(tiny, scale * u / (b + a * (u + v) + disc_root) * v, root)


def pair_weights(pairs, u1, u2) -> np.ndarray:
    """New evidence-pair weights with margins P'(E1) = u1 and P'(E2) = u2.

    ``pairs`` holds weights in FF, FT, TF, TT order along its last axis and
    broadcasts against ``u1`` and ``u2``, which must broadcast to the shape
    of the result without that axis.  Each result keeps its row's odds
    ratio and zero pattern; where the targets are unreachable it is NaN.
    """
    pairs = np.asarray(pairs, dtype=float)
    n_ff, n_ft, n_tf, n_tt = (pairs[..., k] for k in range(4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log theta: no product of weights can underflow or overflow.
        log_theta = np.log(n_ff) + np.log(n_tt) - np.log(n_ft) - np.log(n_tf)
        # Relabel E2 where theta < 1, so the root is taken with t >= 1.
        flip = log_theta < 0.0
        y = _root(np.abs(log_theta), u1, np.where(flip, 1.0 - u2, u2))
        x = np.where(flip, u1 - y, y)
    zero = pairs <= 0.0
    degenerate = zero.any()
    if degenerate:
        # A zero weight stays zero, which pins x by the margins alone.
        x = np.where(n_ff <= 0.0, u2 - (1.0 - u1), x)
        x = np.where(n_ft <= 0.0, u2, x)
        x = np.where(n_tf <= 0.0, u1, x)
        x = np.where(n_tt <= 0.0, 0.0, x)
    # Clipping to the bounds any table with these margins obeys removes
    # rounding and makes certain targets exact.
    x = np.minimum(np.maximum(x, np.maximum(0.0, u2 - (1.0 - u1))), np.minimum(u1, u2))
    ff, ft, tf = (1.0 - u1) - (u2 - x), u2 - x, u1 - x
    weights = np.stack((ff, ft, tf, x), axis=-1)
    # A weight of at most _REDO_CUT is a difference of margins with fewer
    # than 36 correct bits left.  Certain targets make exact zeros, and
    # zero pair weights are pinned below; any other such row is solved
    # again at its small cell.
    interior = ((0.0 < u1) & (u1 < 1.0)) & ((0.0 < u2) & (u2 < 1.0))
    least = np.minimum(np.minimum(ff, ft), np.minimum(tf, x))
    redo = (least <= _REDO_CUT) & interior & ~zero.any(axis=-1)
    if redo.any():
        rows = (np.broadcast_to(v, redo.shape)[redo] for v in (log_theta, u1, u2))
        weights[redo] = _small_cell_weights(*rows)
    weights = np.maximum(weights, 0.0)
    if degenerate:
        unreachable = (zero & (weights > MATCH_TOL)).any(axis=-1)
        weights = np.where(zero, 0.0, weights)
        weights = np.where(unreachable[..., None], np.nan, weights)
    return weights


def _small_cell_weights(log_theta, u1, u2) -> np.ndarray:
    """``pair_weights`` of positive rows at interior targets, each weight
    with its relative accuracy.  The root is taken at the diagonal cell of
    the t >= 1 frame whose margins p and q add to at most 1, and the far
    cell is the smaller remaining margin less its neighbour.  The two cells
    beside the root differ by p - q.  Where the root is at most half the
    smaller margin, the lesser is that margin less the root; elsewhere it is
    solved from their difference and, by the odds-ratio identity, their
    product s * s = root * far / t, with s formed so that it cannot
    underflow."""
    e1 = np.where(log_theta < 0.0, u1 <= u2, u1 + u2 <= 1.0)  # the root cell's states
    e2 = e1 ^ (log_theta < 0.0)
    p, p_rest = np.where(e1, u1, 1.0 - u1), np.where(e1, 1.0 - u1, u1)
    q, q_rest = np.where(e2, u2, 1.0 - u2), np.where(e2, 1.0 - u2, u2)
    low = np.minimum(p, q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.minimum(_root(np.abs(log_theta), p, q), low)
        far = np.where(p_rest <= q_rest, p_rest - (q - root), q_rest - (p - root))
        gap, s = p - q, np.sqrt(root) * np.sqrt(far) * np.exp(-0.5 * np.abs(log_theta))
        solved = 2.0 * s / (np.abs(gap) + np.hypot(gap, 2.0 * s)) * s
    lesser = np.where(root <= 0.5 * low, low - root, np.where(s > 0.0, solved, 0.0))
    near_p = np.where(gap < 0.0, lesser, lesser + gap)  # cell (e1, not e2)
    near_q = np.where(gap < 0.0, lesser - gap, lesser)  # cell (not e1, e2)
    # Cell (a, b) is the one at 2 * (a == e1) + (b == e2) of (far, near_q, near_p, root).
    at = np.stack([2 * (e1 == a) + (e2 == b) for a, b in EVIDENCE_STATES], axis=-1)
    return np.take_along_axis(np.stack((far, near_q, near_p, root), axis=-1), at, axis=-1)


def posteriors(cells, u1, u2) -> np.ndarray:
    """P'(C) under the minimum cross-entropy update, NaN where unreachable.

    ``cells`` holds tables in the canonical order along its last axis and
    broadcasts (without that axis) against ``u1`` and ``u2``.  The four
    weighted terms, FF, FT, TF, TT, are added left to right, the order in
    which numpy sums a length-4 axis and so the one the study's pinned
    bytes encode.
    """
    terms = pair_weights(pair_masses(cells), u1, u2) * conditional_profiles(cells)
    return terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def mce_update(table: JointTable, update: EvidenceUpdate) -> UpdatedTable:
    """Project the table onto the prescribed evidence marginals.

    Zero cells stay zero, conditional odds ratios are preserved, and if the
    update equals the table's own base rates (within ``MATCH_TOL``) the cells
    come back unchanged.  Raises InfeasibleUpdateError when a target is
    unreachable for the table's zero pattern.
    """
    u1, u2 = update.as_tuple()
    cells = table.as_array()
    p_e1, p_e2, _ = rates(cells)
    if abs(float(p_e1) - u1) > MATCH_TOL or abs(float(p_e2) - u2) > MATCH_TOL:
        pairs = pair_masses(cells)
        weights = pair_weights(pairs, u1, u2)
        if np.isnan(weights).any():
            raise InfeasibleUpdateError(unreachable_message(u1, u2))
        cells = scale_pairs(cells, np.divide(weights, pairs, out=np.zeros(4), where=pairs > 0.0))
        p_e1, p_e2, _ = rates(cells)
    deviation = (abs(float(p_e1) - u1), abs(float(p_e2) - u2))
    projected = JointTable(tuple(float(v) for v in cells), kind=table.kind, provenance=None)
    return UpdatedTable(table=projected, marginal_deviation=deviation, iterations=0)


def correct_posterior(table: JointTable, update: EvidenceUpdate) -> float:
    """P'(C) under the minimum cross-entropy update — the reference answer."""
    u1, u2 = update.as_tuple()
    posterior = float(posteriors(table.as_array(), u1, u2))
    if posterior != posterior:
        raise InfeasibleUpdateError(unreachable_message(u1, u2))
    return posterior


def independent_closed_form(table: JointTable, update: EvidenceUpdate) -> float:
    """Closed-form P'(C) for independent-evidence tables.

    When the evidence pair factorizes, theta = 1 and the projected evidence
    weights are just the products of the new marginals, so

        P'(C) = sum over (a, b) of P(C | E1=a, E2=b) * w1(a) * w2(b)

    with w_i(true) = P'(E_i), summed in FF, FT, TF, TT order.  Raises
    InvalidTableError (``require_valid`` at floor 0) for non-finite,
    negative or unnormalized cells; NotIndependentError where ``validate``
    would flag kind="independent": an evidence pair off the product of its
    base rates by more than ``INDEPENDENCE_TOL``; and InfeasibleUpdateError
    where an evidence state of zero mass would get a weight above
    ``MATCH_TOL``.
    """
    cells = table.as_array()
    checks = check_cells(cells, np.array([True]), marginal_floor=0.0)
    if not checks.finite[0] or checks.negative.any() or checks.not_normalized[0]:
        require_valid(table, marginal_floor=0.0)
    if checks.mismatch.any():
        raise NotIndependentError(
            f"evidence pair deviates from independence by {float(checks.deviation.max())!r}; "
            "the closed form only applies to independent tables"
        )
    u1, u2 = update.as_tuple()
    pairs, weights = pair_masses(cells), product_masses(u1, u2)
    if ((pairs <= 0.0) & (weights > MATCH_TOL)).any():
        raise InfeasibleUpdateError(unreachable_message(u1, u2))
    ff, ft, tf, tt = (conditional_profiles(cells) * weights).tolist()
    return ff + ft + tf + tt
