"""Monte Carlo comparison of rule sets against the correct answers.

The harness generates (or loads) a sample of networks, screens each
network's conditional profile for monotone response to evidence, sweeps a
grid of evidence updates, answers every update with all three rule sets,
scores each answer against the minimum cross-entropy posterior, and
aggregates per network, per rule set, and per relation class.

Error convention everywhere: signed error = correct answer - rule answer,
so a positive error means the rule undershoots.

Aggregate reading used for the per-class comparison block: a network's
headline numbers are its *best* rule set's average-absolute and
maximum-absolute error over the grid (best = smallest average absolute
error, ties resolved independent > conjunctive > disjunctive and flagged);
a class's overall average (maximum) error is the mean over its kept
networks of those per-network best-rule numbers.  Per-network summaries are
always included in the report so other aggregations can be recomputed from
it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Literal, Mapping, get_args

import numpy as np

from . import _serialize
from .engine import ODDS_CLAMP, Rule
from .errors import DegenerateBaseRateError, InfeasibleUpdateError, InvalidTableError
from .generate import BASE_RATE_MARGIN, IPF_MAX_ITERATIONS, IPF_TOLERANCE, MAX_RESAMPLES
from .generate import GenerationConfig, associated_cells, independent_cells
from .oracle import EvidenceUpdate, posteriors, unreachable_message
from .table import (
    KINDS,
    ConditionalProfile,
    JointTable,
    Provenance,
    check_cells,
    conclusion_cells,
    conditional_profile,
    link_conditionals,
    rates,
    require_valid,
)

#: Default update grid per evidence variable: quarter steps, endpoints
#: included so certain evidence in both directions is always probed.
GRID_QUARTERS: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Alternative five-value grid with probes at 0.2/0.8 instead of 0.25/0.75.
GRID_FIFTH_VALUES: tuple[float, ...] = (0.0, 0.2, 0.5, 0.8, 1.0)

DEFAULT_UPDATE_GRID = GRID_QUARTERS

#: Seed used when none is given.  The shipped default yields the expected
#: qualitative outcome of the comparison (independent rule dominant in both
#: classes, larger errors on associated networks, positive strength/error
#: rank correlation) with a comfortable margin.
DEFAULT_SEED = 30

#: Column order for per-rule output.
RULE_ORDER: tuple[Rule, ...] = (Rule.CONJUNCTIVE, Rule.DISJUNCTIVE, Rule.INDEPENDENT)

#: Each rule's name in the output files, in RULE_ORDER.
_RULE_NAMES: tuple[str, ...] = tuple(rule.value for rule in RULE_ORDER)

#: Tie-break preference when two rule sets have equal average error.
BEST_RULE_TIE_ORDER: tuple[Rule, ...] = (Rule.INDEPENDENT, Rule.CONJUNCTIVE, Rule.DISJUNCTIVE)


class MonotonicityPattern(Enum):
    """Direction of the conditional profile's response to evidence."""

    NONDECREASING = "nondecreasing"
    NONINCREASING = "nonincreasing"
    REJECTED = "rejected"


FilterMode = Literal["full", "e2-only"]

#: The sweep settings, in the order ``sweep_settings`` takes and returns.
SWEEP_SETTINGS = ("grid", "filter_enabled", "filter_mode")


def sweep_settings(
    grid: Sequence[float], filter_enabled: bool = True, filter_mode: FilterMode = "full"
) -> tuple[tuple[float, ...], bool, FilterMode]:
    """The one check of the sweep settings, raising ValueError for a value
    the sweep cannot use; returns the grid as Python floats (-0.0 as 0.0)
    and the flag as a bool.  Floats skip the slow ``numbers.Real`` test."""
    grid = tuple(grid)
    for value in grid:
        if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
            raise ValueError(f"grid values must be real numbers, got {value!r}")
        if not 0 <= value <= 1:
            raise ValueError(f"grid value {value!r} lies outside [0, 1]")
    if not grid:
        raise ValueError("update grid must not be empty")
    if not isinstance(filter_enabled, (bool, np.bool_)):
        raise ValueError(f"filter_enabled must be a bool, got {filter_enabled!r}")
    if not isinstance(filter_mode, str) or filter_mode not in get_args(FilterMode):
        raise ValueError(f"filter_mode must be one of {get_args(FilterMode)}, got {filter_mode!r}")
    return tuple(float(value) + 0.0 for value in grid), bool(filter_enabled), filter_mode


#: Pattern of each code that ``_pattern_code`` returns.
_PATTERNS: tuple[MonotonicityPattern, ...] = tuple(MonotonicityPattern)
_PATTERN_NAMES: tuple[str, ...] = tuple(pattern.value for pattern in _PATTERNS)


def _pattern_code(q_ff, q_ft, q_tf, q_tt, mode: FilterMode):
    """Index into ``_PATTERNS`` of one profile's pattern (floats in) or of
    every profile's (arrays in): 0 nondecreasing (checked first), 1
    nonincreasing, 2 rejected."""
    nondecreasing = (q_ff <= q_ft) & (q_tf <= q_tt)
    nonincreasing = (q_ff >= q_ft) & (q_tf >= q_tt)
    if mode == "full":
        nondecreasing = nondecreasing & (q_ff <= q_tf) & (q_ft <= q_tt)
        nonincreasing = nonincreasing & (q_ff >= q_tf) & (q_ft >= q_tt)
    elif mode != "e2-only":
        raise ValueError(f"unknown filter mode: {mode!r}")
    return 2 - nondecreasing - (nondecreasing | nonincreasing)


def monotonicity_pattern(
    profile: ConditionalProfile, *, mode: FilterMode = "full"
) -> MonotonicityPattern:
    """Classify a profile as monotone (either direction) or rejected.

    ``"full"`` (default) demands monotonicity in each evidence variable with
    the other held fixed — four comparisons per direction.  ``"e2-only"``
    checks only the two comparisons along E2.  A flat profile satisfies both
    directions; it is reported as NONDECREASING (checked first).  The
    one-profile case of the screen ``evaluate_tables`` runs.
    """
    return _PATTERNS[_pattern_code(*profile.as_tuple(), mode)]


@dataclass(frozen=True)
class EvaluationRecord:
    """One update answered by every rule set and scored against the oracle."""

    network_id: str
    update: EvidenceUpdate
    answers: dict[Rule, float]
    oracle: float
    signed_error: dict[Rule, float]


def _propagate(p_c, p_e, p_c_given_e, p_c_given_not_e, u):
    """The engine's piecewise-linear link, elementwise."""
    below = p_c_given_not_e + (p_c - p_c_given_not_e) * u / p_e
    above = p_c + (p_c_given_e - p_c) * (u - p_e) / (1.0 - p_e)
    return np.minimum(np.maximum(np.where(u <= p_e, below, above), 0.0), 1.0)


def _odds(p):
    p = np.minimum(np.maximum(p, ODDS_CLAMP), 1.0 - ODDS_CLAMP)
    return p / (1.0 - p)


def sweep(
    cells, grid: Sequence[float], *, ids: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Answer every update of the grid on every network in one array pass.

    ``cells`` is (N, 8), one table per row in the canonical order, and
    ``ids`` optionally names the rows in error messages.  Returns
    the rule answers, shape (N, G, G, 3) with rules in RULE_ORDER, and the
    minimum cross-entropy posteriors, shape (N, G, G), NaN where an update
    is unreachable; axis 1 runs over P'(E1) and axis 2 over P'(E2).  The
    rules use the engine's formulas in the engine's order of operations:
    piecewise-linear links, MIN/MAX with E1 winning ties, and the odds
    product with probabilities clamped into [ODDS_CLAMP, 1 - ODDS_CLAMP].
    Raises DegenerateBaseRateError if some table has P(C), P(E1) or P(E2)
    at 0 or 1: the links and the odds product are undefined there, and the
    engine refuses such a table as well; ``sweep_settings`` checks ``grid``.
    """
    u = np.array(sweep_settings(grid)[0])
    # One network per row, broadcast against the (G, G) update grid.
    tables = np.asarray(cells, dtype=float).reshape(-1, 1, 1, 8)
    p_e1, p_e2, p_c = rates(tables)
    for name, rate in (("C", p_c), ("E1", p_e1), ("E2", p_e2)):
        degenerate = np.flatnonzero(~((rate > 0.0) & (rate < 1.0)))
        if degenerate.size:
            row = int(degenerate[0])
            where = "" if ids is None else f"network {ids[row]}: "
            raise DegenerateBaseRateError(
                f"{where}base rate of {name} is {float(rate.ravel()[row])!r}; "
                f"the rules need 0 < P({name}) < 1"
            )
    u1, u2 = u[:, None], u[None, :]
    given_e1, given_not_e1, given_e2, given_not_e2 = link_conditionals(tables)
    post1 = _propagate(p_c, p_e1, given_e1, given_not_e1, u1)
    post2 = _propagate(p_c, p_e2, given_e2, given_not_e2, u2)
    prior_odds = _odds(p_c)
    combined = prior_odds * (_odds(post1) / prior_odds) * (_odds(post2) / prior_odds)
    answers = np.stack(
        (
            np.where(u1 <= u2, post1, post2),
            np.where(u1 >= u2, post1, post2),
            combined / (1.0 + combined),
        ),
        axis=-1,
    )
    return answers, posteriors(tables, u1, u2)


def _records(
    network_id: str, grid: Sequence[float], answers: np.ndarray, oracle: np.ndarray
) -> tuple[EvaluationRecord, ...]:
    """One network's sweep as records, row-major in (e1, e2)."""
    records = []
    points = zip(product(grid, grid), answers.reshape(-1, 3).tolist(), oracle.ravel().tolist())
    for (u1, u2), rule_answers, correct in points:
        records.append(
            EvaluationRecord(
                network_id=network_id,
                update=EvidenceUpdate(u1, u2),
                answers=dict(zip(RULE_ORDER, rule_answers)),
                oracle=correct,
                signed_error={
                    rule: correct - answer for rule, answer in zip(RULE_ORDER, rule_answers)
                },
            )
        )
    return tuple(records)


def evaluate_network(
    table: JointTable,
    grid: Sequence[float] = DEFAULT_UPDATE_GRID,
    *,
    network_id: str = "net",
) -> tuple[EvaluationRecord, ...]:
    """Sweep the update grid (row-major in (e1, e2)) over one network.

    Raises InfeasibleUpdateError for the first unreachable update in
    row-major order.
    """
    grid = sweep_settings(grid)[0]
    answers, oracle = sweep([table.cells], grid, ids=[network_id])
    _require_reachable(grid, oracle[0])
    return _records(network_id, grid, answers[0], oracle[0])


def _require_reachable(grid: Sequence[float], values: np.ndarray) -> None:
    """Raise InfeasibleUpdateError for the first NaN of a (G, G) sweep over
    ``grid``, row-major in (e1, e2): its update is unreachable."""
    unreachable = np.argwhere(np.isnan(values))
    if unreachable.size:
        i, j = unreachable[0]
        raise InfeasibleUpdateError(unreachable_message(grid[i], grid[j]))


@dataclass(frozen=True)
class RuleStats:
    """Error statistics of one rule set over a grid sweep."""

    mean_signed: float
    mean_abs: float
    max_abs: float


@dataclass(frozen=True)
class NetworkErrorSummary:
    network_id: str
    stats: dict[Rule, RuleStats]
    best: Rule
    tie: bool


def _rule_stats(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From signed errors of shape (N, 3, P), rules in RULE_ORDER: each
    rule's RuleStats fields, (N, 3, 3); the index of the best rule, (N,);
    and whether another rule ties it, (N,)."""
    absolute = np.abs(errors)
    mean_abs = absolute.mean(axis=-1)
    rows = np.arange(len(errors))
    tie_order = [RULE_ORDER.index(rule) for rule in BEST_RULE_TIE_ORDER]
    best = np.full(len(errors), tie_order[0])
    for k in tie_order[1:]:
        best = np.where(mean_abs[:, k] < mean_abs[rows, best], k, best)
    tie = (mean_abs == mean_abs[rows, best][:, None]).sum(axis=1) > 1
    return np.stack((errors.mean(axis=-1), mean_abs, absolute.max(axis=-1)), axis=-1), best, tie


def _summary(network_id: str, stats: np.ndarray, best, tie) -> NetworkErrorSummary:
    """One row of ``_rule_stats`` as a summary."""
    rules = {rule: RuleStats(*row) for rule, row in zip(RULE_ORDER, stats.tolist())}
    return NetworkErrorSummary(network_id, rules, RULE_ORDER[best], bool(tie))


def summarize(records: Sequence[EvaluationRecord]) -> NetworkErrorSummary:
    """Collapse a sweep into per-rule statistics and pick the best rule set.

    Raises ValueError if some error is not finite (an unreachable update's
    NaN): no rule can be ranked through it.
    """
    if not records:
        raise ValueError("cannot summarize an empty record list")
    errors = np.array([[record.signed_error[rule] for record in records] for rule in RULE_ORDER])
    if not np.isfinite(errors).all():
        raise ValueError(
            f"network {records[0].network_id}: cannot summarize a sweep with "
            "non-finite errors (unreachable updates)"
        )
    stats, best, tie = _rule_stats(errors[None])
    return _summary(records[0].network_id, stats[0], best[0], tie[0])


@dataclass(frozen=True)
class Diagnostics:
    """Structural measurements of one network's conditional profile.

    The two ``*_approximation`` values are single-number stand-ins for the
    profile rows each rule set treats as interchangeable; the spreads say
    how far that treatment can be off, and the fourth-conditional gaps
    measure how far the remaining row sits from those pooled three.
    ``associative_strength`` = |P(C|E1,not E2) - P(C|E1,E2)| is the
    second-evidence leverage used in the strength/error correlation.
    """

    conjunctive_approximation: float
    conjunctive_spread: float
    conjunctive_fourth_gap: float
    disjunctive_approximation: float
    disjunctive_spread: float
    disjunctive_fourth_gap: float
    associative_strength: float


def _spread(a, b, c):
    """Elementwise max(a, b, c) - min(a, b, c), each picked as Python's
    ``max`` and ``min`` pick it: the first largest and the first smallest."""
    high = np.where(b > a, b, a)
    low = np.where(b < a, b, a)
    return np.where(c > high, c, high) - np.where(c < low, c, low)


def _diagnostics(cells: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """The Diagnostics fields, (N, 7), of every row of an (N, 8) cell array,
    given its (N, 4) conditional profiles."""
    q_ff, q_ft, q_tf, q_tt = profiles.T
    x_ff, x_ft, x_tf, x_tt = conclusion_cells(cells).T
    p_e1, p_e2, _ = rates(cells)
    columns = (
        (x_ff + x_ft + x_tf) / (1.0 - p_e1 * p_e2),
        _spread(q_ff, q_ft, q_tf),
        np.abs(q_tt - (q_ff + q_ft + q_tf) / 3.0),
        (x_ft + x_tf + x_tt) / (1.0 - (1.0 - p_e1) * (1.0 - p_e2)),
        _spread(q_ft, q_tf, q_tt),
        np.abs(q_ff - (q_ft + q_tf + q_tt) / 3.0),
        np.abs(q_tf - q_tt),
    )
    return np.stack(columns, axis=1)


def diagnostics(table: JointTable) -> Diagnostics:
    """The one-table case of the diagnostics ``evaluate_tables`` computes.

    Raises ZeroMarginalError if some evidence state has no mass.
    """
    profile = conditional_profile(table)
    row = _diagnostics(table.as_array()[None], np.array([profile.as_tuple()]))[0]
    return Diagnostics(*row.tolist())


@dataclass(frozen=True, eq=False)
class NetworkEvaluation:
    """Everything the study keeps about one evaluated network: a view of
    one row of an Evaluations.

    ``answers`` (G, G, 3, rules in RULE_ORDER) and ``oracle`` (G, G) hold
    the sweep over ``grid``, row-major in (e1, e2); ``records`` shows them
    as one EvaluationRecord per update, built on first access.
    """

    network_id: str
    kind: str
    pattern: MonotonicityPattern
    passes_filter: bool
    grid: tuple[float, ...]
    answers: np.ndarray
    oracle: np.ndarray
    summary: NetworkErrorSummary
    diagnostics: Diagnostics
    table: JointTable

    @cached_property
    def records(self) -> tuple[EvaluationRecord, ...]:
        return _records(self.network_id, self.grid, self.answers, self.oracle)


def _table(cells: np.ndarray, kind: int, provenance: list) -> JointTable:
    """One row's table from its cells, KINDS index and provenance row."""
    seed, index, resamples = provenance
    provenance = None if seed is None else Provenance(seed, index, resamples)
    return JointTable(tuple(cells.tolist()), kind=KINDS[kind], provenance=provenance)


@dataclass(frozen=True, eq=False)
class Evaluations(Sequence):
    """One sweep's ``grid``, ``filter_enabled`` and ``filter_mode``, and its
    evaluated networks as aligned columns, row k of each for ``ids[k]``.

    ``provenance`` holds Python ints, so loaded values of any size are
    written back unchanged, and None rows for tables without it.  Row k
    reads as a NetworkEvaluation, built on first access and then kept; a
    slice reads as the Evaluations of its rows, with the same settings.
    """

    grid: tuple[float, ...]
    filter_enabled: bool
    filter_mode: FilterMode
    ids: tuple[str, ...]
    kinds: np.ndarray  # (N,): index into KINDS
    patterns: np.ndarray  # (N,): index into MonotonicityPattern
    passes_filter: np.ndarray  # (N,)
    cells: np.ndarray  # (N, 8)
    provenance: np.ndarray  # (N, 3) objects: the Provenance fields
    answers: np.ndarray  # (N, G, G, 3)
    oracle: np.ndarray  # (N, G, G)
    stats: np.ndarray  # (N, 3, 3): the RuleStats fields of each rule in RULE_ORDER
    best: np.ndarray  # (N,): index into RULE_ORDER
    tie: np.ndarray  # (N,)
    diagnostics: np.ndarray  # (N, 7): the Diagnostics fields
    _views: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            columns = (f.name for f in fields(self) if f.init and f.name not in SWEEP_SETTINGS)
            return replace(self, **{name: getattr(self, name)[k] for name in columns})
        k = range(len(self))[k]
        if k not in self._views:
            self._views[k] = self._view(k)
        return self._views[k]

    def _view(self, k: int) -> NetworkEvaluation:
        network_id, kind = self.ids[k], self.kinds[k]
        return NetworkEvaluation(
            network_id, KINDS[kind], _PATTERNS[self.patterns[k]], bool(self.passes_filter[k]),
            self.grid, self.answers[k], self.oracle[k],
            _summary(network_id, self.stats[k], self.best[k], self.tie[k]),
            Diagnostics(*self.diagnostics[k].tolist()),
            _table(self.cells[k], kind, self.provenance[k].tolist()),
        )


def _evaluate(
    cells: np.ndarray,
    kinds: np.ndarray,
    labels: Callable[[np.ndarray], tuple[list[str], np.ndarray]],
    *,
    grid: Sequence[float],
    filter_enabled: bool,
    filter_mode: FilterMode,
) -> Evaluations:
    """The array evaluation behind ``evaluate_tables`` and ``run_study``.

    ``cells`` is (N, 8) and ``kinds`` (N,) holds each row's index into
    KINDS.  ``labels(rows)`` gives the ids and the provenance column (as
    in Evaluations) of the given rows; it is called for the kept rows, and
    for the first invalid row if there is one.  Validation, the screen,
    the sweep, the rule statistics and the diagnostics each run as one
    array pass over all (kept) rows.
    """
    grid, filter_enabled, filter_mode = sweep_settings(grid, filter_enabled, filter_mode)
    checks = check_cells(cells, kinds == KINDS.index("independent"))
    invalid = np.flatnonzero(~checks.ok)[:1]
    if invalid.size:
        (network_id,), provenance = labels(invalid)
        table = _table(cells[invalid[0]], kinds[invalid[0]], provenance[0].tolist())
        try:
            require_valid(table)
        except InvalidTableError as exc:
            raise InvalidTableError(
                f"network {network_id} (provenance {table.provenance}): {exc}",
                issues=exc.issues,
            ) from exc
    # Validation put every evidence-state mass at or above MARGINAL_FLOOR.
    profiles = conclusion_cells(cells) / checks.masses
    codes = _pattern_code(*profiles.T, filter_mode)
    passes = codes != _PATTERNS.index(MonotonicityPattern.REJECTED)
    kept = np.flatnonzero(passes) if filter_enabled else np.arange(len(cells))
    ids, provenance = labels(kept)

    answers, oracle = sweep(cells[kept], grid, ids=ids)
    # Contiguous per (network, rule), so each mean sums in the order
    # summarize(records) uses.
    errors = np.ascontiguousarray(np.moveaxis(oracle[..., None] - answers, -1, 1))
    stats = _rule_stats(errors.reshape(len(kept), 3, len(grid) ** 2))
    return Evaluations(
        grid, filter_enabled, filter_mode, tuple(ids), kinds[kept], codes[kept], passes[kept],
        cells[kept], provenance, answers, oracle, *stats, _diagnostics(cells[kept], profiles[kept]),
    )


def evaluate_tables(
    tables: Sequence[JointTable],
    *,
    ids: Sequence[str] | None = None,
    grid: Sequence[float] = DEFAULT_UPDATE_GRID,
    filter_enabled: bool = True,
    filter_mode: FilterMode = "full",
    workers: int = 1,
) -> Evaluations:
    """Validate, screen, and sweep a collection of networks.

    With the filter on, rejected networks are screened out before
    evaluation; with it off, every network is evaluated and its
    ``passes_filter`` flag records what the filter would have done.  Output
    order follows input order, and the first invalid network in input order
    raises InvalidTableError naming it.  The tables are stacked into one
    cell array for the evaluation ``run_study`` runs too, and the result is
    the kept rows' Evaluations columns.  ``workers`` has no effect; it
    stays only because the benchmark script ``bench/run.py`` passes it.
    """
    if ids is None:
        ids = [f"net-{i:04d}" for i in range(len(tables))]
    if len(ids) != len(tables):
        raise ValueError("need exactly one id per table")
    provenance = [table.provenance for table in tables]
    provenance = np.array(
        [(None,) * 3 if p is None else (p.seed, p.index, p.resamples) for p in provenance],
        dtype=object,
    ).reshape(-1, 3)
    return _evaluate(
        np.array([table.cells for table in tables], dtype=float).reshape(-1, 8),
        np.array([KINDS.index(table.kind) for table in tables], dtype=int),
        lambda rows: ([ids[i] for i in rows.tolist()], provenance[rows]),
        grid=grid,
        filter_enabled=filter_enabled,
        filter_mode=filter_mode,
    )


@dataclass(frozen=True)
class ClassReport:
    """Aggregates over one relation class's kept networks."""

    kind: str
    generated: int
    filtered_in: int
    best_rule_counts: dict[Rule, int]
    overall_average_error: float | None
    overall_maximum_error: float | None


@dataclass(frozen=True)
class StudyConfig:
    """Everything one study run depends on; see ``sweep_settings``."""

    independent: GenerationConfig
    associated: GenerationConfig
    grid: tuple[float, ...] = DEFAULT_UPDATE_GRID
    filter_enabled: bool = True
    filter_mode: FilterMode = "full"

    def __post_init__(self) -> None:
        settings = sweep_settings(self.grid, self.filter_enabled, self.filter_mode)
        for name, value in zip(SWEEP_SETTINGS, settings):
            object.__setattr__(self, name, value)
        if self.independent.kind != "independent" or self.associated.kind != "associated":
            raise ValueError("generation configs must match their class slots")

    @classmethod
    def default(cls, *, seed: int = DEFAULT_SEED, count: int = 400, **overrides) -> "StudyConfig":
        """The study design used throughout: ``count`` networks per class."""
        return cls(
            independent=GenerationConfig(count=count, seed=seed, kind="independent"),
            associated=GenerationConfig(count=count, seed=seed, kind="associated"),
            **overrides,
        )


@dataclass(frozen=True)
class StudyReport:
    classes: dict[str, ClassReport]
    networks: Evaluations
    strength_error_pairs: tuple[tuple[float, float], ...]
    spearman_strength_error: float | None
    generation: StudyConfig | None = None


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks from 1 in ascending order, tied values sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman_strength_error(
    pairs: Sequence[tuple[float, float]],
) -> float | None:
    """Spearman rank correlation of (strength, error) pairs; None if undefined.

    It is the Pearson correlation of the average ranks, as in
    ``scipy.stats.spearmanr``.
    """
    if len(pairs) < 2:
        return None
    strengths, errors = np.array(pairs, dtype=float).T
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = float(np.corrcoef(_average_ranks(strengths), _average_ranks(errors))[0, 1])
    return None if math.isnan(statistic) else statistic


def build_report(
    evaluations: Evaluations,
    generated_counts: Mapping[str, int],
    *,
    grid: Sequence[float] | None = None,
    filter_enabled: bool | None = None,
    filter_mode: FilterMode | None = None,
    generation: StudyConfig | None = None,
) -> StudyReport:
    """Aggregate the evaluated networks into the study report: per class of
    ``generated_counts``, a count of best rules and the means of the best
    rules' average and maximum errors, each over the class's rows.  The
    setting keywords exist only for ``bench/run.py`` and must repeat the
    evaluations' settings, or ValueError is raised."""
    own = tuple(getattr(evaluations, name) for name in SWEEP_SETTINGS)
    stated = (grid, filter_enabled, filter_mode)
    if sweep_settings(*(o if s is None else s for o, s in zip(own, stated))) != own:
        raise ValueError(f"settings {stated!r} differ from the evaluations' {own!r}")
    best_stats = evaluations.stats[np.arange(len(evaluations)), evaluations.best]  # (N, 3)
    classes = {}
    for code, kind in enumerate(KINDS):
        if kind not in generated_counts:
            continue
        kept = evaluations.kinds == code
        counts = np.bincount(evaluations.best[kept], minlength=len(RULE_ORDER)).tolist()
        average = maximum = None
        if kept.any():
            average = float(np.mean(best_stats[kept, 1]))
            maximum = float(np.mean(best_stats[kept, 2]))
        classes[kind] = ClassReport(
            kind=kind,
            generated=generated_counts[kind],
            filtered_in=int(kept.sum()),
            best_rule_counts=dict(zip(RULE_ORDER, counts)),
            overall_average_error=average,
            overall_maximum_error=maximum,
        )
    pairs = tuple(zip(evaluations.diagnostics[:, -1].tolist(), best_stats[:, 1].tolist()))
    return StudyReport(
        classes=classes,
        networks=evaluations,
        strength_error_pairs=pairs,
        spearman_strength_error=spearman_strength_error(pairs),
        generation=generation,
    )


def run_study(config: StudyConfig) -> StudyReport:
    """Generate both classes, evaluate, and aggregate.

    Networks are identified as ``independent-0000`` … / ``associated-0000``
    …; the independent class comes first everywhere, including the pooled
    (strength, error) list.  Both classes stay one cell array from the
    samplers to the sweep, and the report's ``networks`` are the kept rows'
    Evaluations columns: no object is built per network.
    """
    batches = config.independent, config.associated
    samples = independent_cells(batches[0]), associated_cells(batches[1])
    cells, resamples = map(np.concatenate, zip(*samples))
    kinds = np.repeat([0, 1], [batch.count for batch in batches])  # KINDS index
    indices = np.arange(len(cells)) - batches[0].count * kinds

    def labels(rows: np.ndarray) -> tuple[list[str], np.ndarray]:
        columns = kinds[rows].tolist(), indices[rows].tolist(), resamples[rows].tolist()
        ids = [f"{KINDS[k]}-{i:04d}" for k, i, _ in zip(*columns)]
        provenance = [(batches[k].seed, i, r) for k, i, r in zip(*columns)]
        return ids, np.array(provenance, dtype=object).reshape(-1, 3)

    evaluations = _evaluate(
        cells,
        kinds,
        labels,
        grid=config.grid,
        filter_enabled=config.filter_enabled,
        filter_mode=config.filter_mode,
    )
    generated_counts = {batch.kind: batch.count for batch in batches}
    return build_report(evaluations, generated_counts, generation=config)


@dataclass(frozen=True, eq=False)
class ErrorSurface(Sequence):
    """One rule set's signed error on a square update lattice.

    Reads as the sequence of (e1, e2, signed error) rows, row-major in
    (e1, e2), over the lattice ``values`` of each axis.  ``errors`` is the
    (G, G) array itself, so a surface holds 8 bytes per point.
    """

    values: tuple[float, ...]
    errors: np.ndarray

    def __len__(self) -> int:
        return self.errors.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        i, j = divmod(range(len(self))[k], len(self.values))
        return (self.values[i], self.values[j], float(self.errors[i, j]))

    def __iter__(self):
        points = product(self.values, self.values)
        return ((u1, u2, e) for (u1, u2), e in zip(points, self.errors.ravel().tolist()))


#: Largest number of lattice values per axis ``error_surface`` accepts.
MAX_SURFACE_VALUES = 1001


def _lattice(step: float) -> list[float]:
    """0, step, 2*step, … below 1 - 1e-9, then 1.0.

    Refused before anything is built if ``step`` is outside (0, 0.5] or the
    axis would have more than MAX_SURFACE_VALUES values, that is, if the
    value at index MAX_SURFACE_VALUES - 1 would still lie below the end.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError(f"step must lie in (0, 0.5], got {step!r}")
    end = 1.0 - 1e-9
    if (MAX_SURFACE_VALUES - 1) * step < end:
        raise ValueError(
            f"step {step!r} gives more than {MAX_SURFACE_VALUES} lattice values per axis"
        )
    values = []
    k = 0
    while k * step < end:
        values.append(k * step)
        k += 1
    values.append(1.0)
    return values


def error_surface(table: JointTable, rule: Rule, step: float) -> ErrorSurface:
    """Signed error of one rule set on a square update lattice.

    The lattice runs 0, step, 2*step, … and always ends exactly at 1.0.
    Rows are (e1, e2, signed error), row-major in (e1, e2).  Raises
    ValueError unless 0 < step <= 0.5 and the lattice has at most
    MAX_SURFACE_VALUES values per axis, and InfeasibleUpdateError if some
    lattice update is unreachable.
    """
    values = _lattice(step)
    answers, oracle = sweep([table.cells], values)
    errors = oracle[0] - answers[0, :, :, RULE_ORDER.index(rule)]
    _require_reachable(values, errors)
    return ErrorSurface(tuple(values), errors)


# ---------------------------------------------------------------------------
# Output files.
# ---------------------------------------------------------------------------

RESULTS_HEADER = (
    "network_id",
    "kind",
    "pattern",
    "e1",
    "e2",
    "answer_conjunctive",
    "answer_disjunctive",
    "answer_independent",
    "oracle",
    "error_conjunctive",
    "error_disjunctive",
    "error_independent",
)

SURFACE_HEADER = ("e1", "e2", "signed_error")


#: Networks per formatting call of ``results_csv_text``: one call for the
#: whole file raised a 4000+4000 study's peak RSS by 10-30 %.
_CSV_CHUNK = 128


def _names(names: Sequence[str], codes: np.ndarray) -> list[str]:
    """The name of each code, as an index into ``names``."""
    return np.array(names, dtype=object)[codes].tolist()


def results_csv_text(evaluations: Evaluations) -> str:
    """Per-update results, one row per (network, grid point).

    Byte-identical to ``_serialize.csv_text`` on the same rows (pinned by
    the tests).  The networks are written in chunks of ``_CSV_CHUNK`` rows
    of the columns, as ``_serialize.csv_rows`` of three parts: the
    network's text fields, repeated over its grid points; the "e1,e2"
    fields of the grid, formatted once for the file; and the seven float
    columns, whose ``%.17g`` text ``_serialize.float_fields`` renders in
    numpy.  A non-finite float or a text field that would need quoting is
    refused with the generic writer's error for the first one in document
    order.
    """
    points = tuple(product(evaluations.grid, evaluations.grid))
    grid_fields = _serialize.float_fields(np.array(points, dtype=float).reshape(-1, 2))
    kinds = _names(KINDS, evaluations.kinds)
    patterns = _names(_PATTERN_NAMES, evaluations.patterns)
    pieces = [",".join(RESULTS_HEADER) + "\n"]
    for start in range(0, len(evaluations), _CSV_CHUNK):
        rows = slice(start, start + _CSV_CHUNK)
        heads = tuple(zip(evaluations.ids[rows], kinds[rows], patterns[rows]))
        answers = evaluations.answers[rows].reshape(-1, 3)
        oracle = evaluations.oracle[rows].reshape(-1, 1)
        values = np.hstack((answers, oracle, oracle - answers))
        try:
            texts = _serialize.text_fields(
                [",".join(map(_serialize.format_cell, head)) + "," for head in heads]
            )
            pieces.append(_serialize.csv_rows(
                tuple(np.repeat(part, len(points), axis=0) for part in texts),
                tuple(np.tile(part, (len(heads), 1)) for part in grid_fields),
                _serialize.float_fields(values),
            ))
        except ValueError:
            # Each part above is checked on its own; the generic writer
            # raises the chunk's first refusal in document order.
            fronts = (head + point for head, point in product(heads, points))
            _serialize.csv_text((), (f + tuple(row) for f, row in zip(fronts, values.tolist())))
            raise
    return "".join(pieces)


def surface_csv_text(points: Sequence[tuple[float, float, float]]) -> str:
    return _serialize.csv_text(SURFACE_HEADER, points)


#: The field names of the provenance and of the diagnostics, in the order
#: of the last axis of their Evaluations column.
_PROVENANCE_NAMES = tuple(Provenance.__dataclass_fields__)
_DIAGNOSTIC_NAMES = tuple(Diagnostics.__dataclass_fields__)


def _network_dicts(ev: Evaluations) -> list[dict]:
    """The report's ``networks`` list, one dict per row of the columns.
    The provenance, rule statistics and diagnostics blocks hold their
    dataclass's fields in field order."""
    rows = zip(
        ev.ids,
        _names(KINDS, ev.kinds),
        _names(_PATTERN_NAMES, ev.patterns),
        ev.passes_filter.tolist(),
        ev.provenance.tolist(),
        _names(_RULE_NAMES, ev.best),
        ev.tie.tolist(),
        ev.stats.tolist(),
        ev.diagnostics.tolist(),
    )
    return [
        {
            "id": network_id,
            "kind": kind,
            "pattern": pattern,
            "passes_filter": passed,
            "provenance": (
                None if provenance[0] is None else dict(zip(_PROVENANCE_NAMES, provenance))
            ),
            "summary": {
                "best": best,
                "tie": tie,
                "rules": {
                    name: {"mean_signed": signed, "mean_abs": average, "max_abs": maximum}
                    for name, (signed, average, maximum) in zip(_RULE_NAMES, stats)
                },
            },
            "diagnostics": dict(zip(_DIAGNOSTIC_NAMES, diagnostics)),
        }
        for network_id, kind, pattern, passed, provenance, best, tie, stats, diagnostics in rows
    ]


def report_to_dict(report: StudyReport) -> dict:
    """The report as a JSON-ready dict (deterministic key order)."""
    generation = None
    if report.generation is not None:
        generation = {}
        for kind in ("independent", "associated"):
            cfg: GenerationConfig = getattr(report.generation, kind)
            generation[kind] = {
                "count": cfg.count,
                "seed": cfg.seed,
                "base_rate_margin": BASE_RATE_MARGIN,
                "ipf_tolerance": IPF_TOLERANCE,
                "ipf_max_iterations": IPF_MAX_ITERATIONS,
                "max_resamples": MAX_RESAMPLES,
            }
    classes = {}
    for kind, cls in report.classes.items():
        classes[kind] = {
            "generated": cls.generated,
            "filtered_in": cls.filtered_in,
            "best_rule_counts": {
                name: cls.best_rule_counts[rule] for rule, name in zip(RULE_ORDER, _RULE_NAMES)
            },
            "overall_average_error": cls.overall_average_error,
            "overall_maximum_error": cls.overall_maximum_error,
        }
    return {
        "config": {
            "grid": list(report.networks.grid),
            "filter_enabled": report.networks.filter_enabled,
            "filter_mode": report.networks.filter_mode,
            "generation": generation,
        },
        "classes": classes,
        "spearman_strength_error": report.spearman_strength_error,
        "strength_error_pairs": [list(pair) for pair in report.strength_error_pairs],
        "networks": _network_dicts(report.networks),
    }


def report_json_text(report: StudyReport) -> str:
    """The report as deterministic JSON: ``_serialize.dumps`` of
    ``report_to_dict``, whose templating writer renders the long
    ``strength_error_pairs`` and ``networks`` lists from one template per
    element shape."""
    return _serialize.dumps(report_to_dict(report))


def format_class_table(report: StudyReport) -> str:
    """Human-readable per-class comparison block (6 significant digits)."""
    header = (
        f"{'class':<13}{'generated':>10}{'kept':>6}"
        f"{'conjunctive':>13}{'disjunctive':>13}{'independent':>13}"
        f"{'avg |err|':>12}{'max |err|':>12}"
    )
    lines = ["best rule set per network, by relation class", header]
    for kind, cls in report.classes.items():
        average = "-" if cls.overall_average_error is None else f"{cls.overall_average_error:.6g}"
        maximum = "-" if cls.overall_maximum_error is None else f"{cls.overall_maximum_error:.6g}"
        lines.append(
            f"{kind:<13}{cls.generated:>10}{cls.filtered_in:>6}"
            f"{cls.best_rule_counts[Rule.CONJUNCTIVE]:>13}"
            f"{cls.best_rule_counts[Rule.DISJUNCTIVE]:>13}"
            f"{cls.best_rule_counts[Rule.INDEPENDENT]:>13}"
            f"{average:>12}{maximum:>12}"
        )
    if report.spearman_strength_error is not None:
        lines.append(
            "rank correlation (associative strength vs best-rule avg |err|): "
            f"{report.spearman_strength_error:.6g}"
        )
    return "\n".join(lines) + "\n"
