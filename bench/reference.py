"""Reference answers the benchmark checks the package against.

Everything here is written from the formulas alone with numpy and shares no
code with ``prospector_eval``, so a wrong answer in the package cannot be
reproduced by the check.  Every function takes a cell array of shape
(P, 8) -- one network's eight cells per query point, in the package's
flat order index = 4*e1 + 2*e2 + c -- and the update arrays ``u1``, ``u2``
of shape (P,).
"""

from __future__ import annotations

import numpy as np

#: Bound applied before converting a probability to odds (the engine's
#: documented clamp).
ODDS_CLAMP = 1e-12

#: Absolute tolerance for oracle answers.  The package's projection stops
#: at a marginal deviation of 1e-10, so its answers sit well inside this.
ORACLE_TOL = 1e-9

#: Absolute tolerance for rule answers.  Both sides evaluate the same
#: closed formulas, so they may differ only by the order of summation.
ENGINE_TOL = 1e-11


def _by_state(cells: np.ndarray) -> np.ndarray:
    """Cells as (P, e1, e2, c)."""
    return np.asarray(cells, dtype=float).reshape(-1, 2, 2, 2)


def _propagate(p_c, p_e, p_c_given_e, p_c_given_not_e, u):
    """Piecewise-linear link through (0, P(C|~E)), (P(E), P(C)), (1, P(C|E))."""
    below = p_c_given_not_e + (p_c - p_c_given_not_e) * u / p_e
    above = p_c + (p_c_given_e - p_c) * (u - p_e) / (1.0 - p_e)
    return np.clip(np.where(u <= p_e, below, above), 0.0, 1.0)


def rule_answers(cells: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """(P, 3) answers of the conjunctive, disjunctive and independent rules."""
    x = _by_state(cells)
    p_c = x[:, :, :, 1].sum(axis=(1, 2))
    p_e1 = x[:, 1].sum(axis=(1, 2))
    p_e2 = x[:, :, 1].sum(axis=(1, 2))
    link1 = (p_c, p_e1, x[:, 1, :, 1].sum(axis=1) / p_e1, x[:, 0, :, 1].sum(axis=1) / (1.0 - p_e1))
    link2 = (p_c, p_e2, x[:, :, 1, 1].sum(axis=1) / p_e2, x[:, :, 0, 1].sum(axis=1) / (1.0 - p_e2))
    post1 = _propagate(*link1, u1)
    post2 = _propagate(*link2, u2)

    # MIN / MAX propagate through the selected link; ties select E1.
    conjunctive = np.where(u1 <= u2, post1, post2)
    disjunctive = np.where(u1 >= u2, post1, post2)

    def odds(p):
        p = np.clip(p, ODDS_CLAMP, 1.0 - ODDS_CLAMP)
        return p / (1.0 - p)

    prior_odds = odds(p_c)
    combined = prior_odds * (odds(post1) / prior_odds) * (odds(post2) / prior_odds)
    independent = combined / (1.0 + combined)
    return np.stack([conjunctive, disjunctive, independent], axis=1)


def _profile_and_pairs(cells: np.ndarray):
    x = _by_state(cells)
    pairs = x.sum(axis=3)  # (P, e1, e2)
    return x[:, :, :, 1] / pairs, pairs


def _odds_ratio(pairs: np.ndarray) -> np.ndarray:
    return pairs[:, 0, 0] * pairs[:, 1, 1] / (pairs[:, 0, 1] * pairs[:, 1, 0])


def oracle_independent(cells: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """P'(C) for independent evidence: the new pair weights are products of
    the new marginals."""
    q, _ = _profile_and_pairs(cells)
    w1 = np.stack([1.0 - u1, u1], axis=1)
    w2 = np.stack([1.0 - u2, u2], axis=1)
    return np.einsum("pab,pa,pb->p", q, w1, w2)


def oracle_associated(cells: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """P'(C) for any table with positive evidence-pair cells.

    The projection keeps the pair odds ratio theta, so the new weight
    x = n11 solves (1-theta) x^2 + [(1-u1-u2) + theta (u1+u2)] x
    - theta u1 u2 = 0; the root is taken in its cancellation-free form.
    """
    q, n = _profile_and_pairs(cells)
    theta = _odds_ratio(n)
    b = (1.0 - u1 - u2) + theta * (u1 + u2)
    root = np.sqrt(b * b + 4.0 * (1.0 - theta) * theta * u1 * u2)
    x = 2.0 * theta * u1 * u2 / (b + root)
    weights = np.stack([1.0 - u1 - u2 + x, u2 - x, u1 - x, x], axis=1)
    return (q.reshape(-1, 4) * weights).sum(axis=1)


def log_odds_ratio(cells: np.ndarray) -> np.ndarray:
    """|log theta| of each table's evidence pair: how strongly E1 and E2 are
    associated."""
    return np.abs(np.log(_odds_ratio(_profile_and_pairs(cells)[1])))


def misses(got, want, tol: float) -> np.ndarray:
    """Where an answer misses the reference by more than ``tol`` (NaN misses)."""
    return ~(np.abs(np.asarray(got, dtype=float) - want) <= tol)
