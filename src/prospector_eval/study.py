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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property, lru_cache
from itertools import product
from typing import Mapping, get_args
from weakref import WeakValueDictionary

import numpy as np

from . import _serialize
from .engine import Rule, linear_link, odds, odds_product, takes_e1
from .errors import InfeasibleUpdateError, InvalidTableError
from .oracle import EvidenceUpdate, posteriors, unreachable_message
from .samplers import BASE_RATE_MARGIN, IPF_MAX_ITERATIONS, IPF_TOLERANCE, MAX_RESAMPLES
from .samplers import DEFAULT_SEED, GenerationConfig, network_batch
from .table import (
    FilterMode,
    JointTable,
    NetworkBatch,
    Provenance,
    check_cells,
    conclusion_cells,
    conditional_profile,
    conditional_profiles,
    link_conditionals,
    rates,
    require_base_rate,
    require_int,
    require_real,
    require_valid,
)

#: Default update grid per evidence variable: quarter steps, endpoints
#: included so certain evidence in both directions is always probed.
GRID_QUARTERS: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Alternative five-value grid with probes at 0.2/0.8 instead of 0.25/0.75.
GRID_FIFTH_VALUES: tuple[float, ...] = (0.0, 0.2, 0.5, 0.8, 1.0)

DEFAULT_UPDATE_GRID = GRID_QUARTERS

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


#: The sweep settings, in the order ``sweep_settings`` takes and returns.
SWEEP_SETTINGS = ("grid", "filter_enabled", "filter_mode")


def sweep_settings(
    grid: Sequence[float], filter_enabled: bool = True, filter_mode: FilterMode = "full"
) -> tuple[tuple[float, ...], bool, FilterMode]:
    """The one check of the sweep settings, raising ValueError for a value
    the sweep cannot use; returns the grid as Python floats (-0.0 as 0.0),
    the flag as a bool and the mode as its FilterMode literal."""
    grid = tuple(grid)
    for value in grid:
        require_real(value, "grid value")
        if not 0 <= value <= 1:
            raise ValueError(f"grid value {value!r} lies outside [0, 1]")
    if not grid:
        raise ValueError("update grid must not be empty")
    if not isinstance(filter_enabled, (bool, np.bool_)):
        raise ValueError(f"filter_enabled must be a bool, got {filter_enabled!r}")
    modes = get_args(FilterMode)
    if not isinstance(filter_mode, str) or filter_mode not in modes:
        raise ValueError(f"filter_mode must be one of {modes}, got {filter_mode!r}")
    mode = modes[modes.index(filter_mode)]
    return tuple(float(value) + 0.0 for value in grid), bool(filter_enabled), mode


#: Pattern of each code that ``_pattern_code`` returns.
_PATTERNS: tuple[MonotonicityPattern, ...] = tuple(MonotonicityPattern)
_PATTERN_NAMES: tuple[str, ...] = tuple(pattern.value for pattern in _PATTERNS)
_REJECTED = _PATTERNS.index(MonotonicityPattern.REJECTED)


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
    profile: Sequence[float], *, mode: FilterMode = "full"
) -> MonotonicityPattern:
    """Classify a profile, FF, FT, TF, TT, as monotone (either way) or rejected.

    ``"full"`` (default) demands monotonicity in each evidence variable with
    the other held fixed — four comparisons per direction.  ``"e2-only"``
    checks only the two comparisons along E2.  A flat profile satisfies both
    directions; it is reported as NONDECREASING (checked first).  The
    one-profile case of the screen ``evaluate_tables`` runs.
    """
    return _PATTERNS[_pattern_code(*profile, mode)]


@dataclass(frozen=True, slots=True)
class EvaluationRecord:
    """One update answered by every rule set, and the oracle's answer."""

    update: EvidenceUpdate
    answers: dict[Rule, float]
    oracle: float


def sweep(
    cells, grid: Sequence[float], *, ids: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Answer every update of the grid on every network in one array pass.

    ``cells`` is (N, 8), one table per row in the canonical order, and
    ``ids`` optionally names the rows in error messages.  Returns
    the rule answers, shape (N, G, G, 3) with rules in RULE_ORDER, and the
    minimum cross-entropy posteriors, shape (N, G, G), NaN where an update
    is unreachable; axis 1 runs over P'(E1) and axis 2 over P'(E2).  The
    rules call the engine's ``linear_link``, ``odds``, ``odds_product`` and
    ``takes_e1`` (MIN/MAX take E1 on ties), so each answer equals the engine's
    ``infer`` bit for bit.  Raises DegenerateBaseRateError if some table has
    P(C), P(E1) or P(E2) at 0 or 1: the links and the odds product are
    undefined there, and the engine refuses such a table as well;
    ``sweep_settings`` checks ``grid``.
    """
    u = np.array(sweep_settings(grid)[0])
    # One network per row, broadcast against the (G, G) update grid.
    tables = np.asarray(cells, dtype=float).reshape(-1, 1, 1, 8)
    p_e1, p_e2, p_c = rates(tables)
    for name, rate in (("C", p_c), ("E1", p_e1), ("E2", p_e2)):
        require_base_rate(name, rate, ids)
    u1, u2 = u[:, None], u[None, :]
    given_e1, given_not_e1, given_e2, given_not_e2 = link_conditionals(tables)
    post1 = linear_link(p_c, p_e1, given_e1, given_not_e1, u1)
    post2 = linear_link(p_c, p_e2, given_e2, given_not_e2, u2)
    independent = odds_product(odds(p_c), map(odds, (post1, post2)))[-1]
    answers = [
        independent if rule is Rule.INDEPENDENT else np.where(takes_e1(rule, u1, u2), post1, post2)
        for rule in RULE_ORDER
    ]
    return np.stack(answers, axis=-1), posteriors(tables, u1, u2)


@lru_cache(maxsize=4)
def _updates(grid: tuple[float, ...]) -> tuple[EvidenceUpdate, ...]:
    """The grid's updates, row-major in (e1, e2), built once per grid."""
    return tuple(EvidenceUpdate(u1, u2) for u1, u2 in product(grid, grid))


def _records(grid: Sequence[float], answers, oracle) -> tuple[EvaluationRecord, ...]:
    """One network's sweep as records, row-major in (e1, e2)."""
    columns = answers.reshape(-1, 3).tolist(), oracle.ravel().tolist()
    return tuple(
        EvaluationRecord(update, dict(zip(RULE_ORDER, a)), o)
        for update, a, o in zip(_updates(tuple(grid)), *columns)
    )


def evaluate_network(
    table: JointTable, grid: Sequence[float] = DEFAULT_UPDATE_GRID
) -> tuple[EvaluationRecord, ...]:
    """Sweep the update grid (row-major in (e1, e2)) over one network.

    Raises InfeasibleUpdateError for the first unreachable update in
    row-major order.
    """
    grid = sweep_settings(grid)[0]
    answers, oracle = sweep([table.cells], grid)
    _require_reachable(grid, oracle[0])
    return _records(grid, answers[0], oracle[0])


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


def summarize(records: Sequence[EvaluationRecord]) -> NetworkErrorSummary:
    """Collapse a sweep into per-rule statistics and pick the best rule set.

    Each signed error is ``record.oracle - record.answers[rule]``.  Raises
    ValueError if some error is not finite (an unreachable update's NaN):
    no rule can be ranked through it.
    """
    if not records:
        raise ValueError("cannot summarize an empty record list")
    errors = np.array([[r.oracle - r.answers[rule] for r in records] for rule in RULE_ORDER])
    if not np.isfinite(errors).all():
        raise ValueError("cannot summarize a sweep with non-finite errors (unreachable updates)")
    stats, best, tie = _rule_stats(errors[None])
    rules = {rule: RuleStats(*row) for rule, row in zip(RULE_ORDER, stats[0].tolist())}
    return NetworkErrorSummary(rules, RULE_ORDER[best[0]], bool(tie[0]))


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
    row = _diagnostics(table.as_array()[None], np.array([conditional_profile(table)]))[0]
    return Diagnostics(*row.tolist())


@dataclass(frozen=True, eq=False)
class NetworkEvaluation:
    """One row of an Evaluations, kept while referenced: the network's id, kind,
    table and sweep; its pattern, statistics and diagnostics stay in the columns.

    ``answers`` (G, G, 3, rules in RULE_ORDER) and ``oracle`` (G, G) hold
    the sweep over ``grid``, row-major in (e1, e2); ``records`` shows them
    as one EvaluationRecord per update, built on first access.
    """

    network_id: str
    kind: str
    grid: tuple[float, ...]
    answers: np.ndarray
    oracle: np.ndarray
    table: JointTable

    @cached_property
    def records(self) -> tuple[EvaluationRecord, ...]:
        return _records(self.grid, self.answers, self.oracle)


@dataclass(frozen=True, eq=False)
class Evaluations(Sequence):
    """One sweep's ``grid``, ``filter_enabled`` and ``filter_mode``, and its
    evaluated networks as aligned columns, row k of each for ``ids[k]``.

    ``batch`` is the NetworkBatch of the kept rows, so their cells, kinds
    and provenance stay in ``table``'s layout; a row passes the filter
    unless its pattern is REJECTED.  Row k reads as a NetworkEvaluation,
    kept while referenced: while a caller holds it, row k reads as that
    same view, and once none does it is freed.  A slice reads as the
    Evaluations of its rows, with the same settings.
    """

    grid: tuple[float, ...]
    filter_enabled: bool
    filter_mode: FilterMode
    ids: tuple[str, ...]
    batch: NetworkBatch
    patterns: np.ndarray  # (N,): index into MonotonicityPattern
    answers: np.ndarray  # (N, G, G, 3)
    oracle: np.ndarray  # (N, G, G)
    stats: np.ndarray  # (N, 3, 3): the RuleStats fields of each rule in RULE_ORDER
    best: np.ndarray  # (N,): index into RULE_ORDER
    tie: np.ndarray  # (N,)
    diagnostics: np.ndarray  # (N, 7): the Diagnostics fields
    _views: WeakValueDictionary = field(default_factory=WeakValueDictionary, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            columns = (f.name for f in fields(self) if f.init and f.name not in SWEEP_SETTINGS)
            return replace(self, **{name: getattr(self, name)[k] for name in columns})
        k = range(len(self))[k]
        view = self._views.get(k)
        if view is None:
            table = self.batch[k]
            view = self._views[k] = NetworkEvaluation(
                self.ids[k], table.kind, self.grid, self.answers[k], self.oracle[k], table
            )
        return view


def _evaluate(
    batch: NetworkBatch,
    name: Callable[[np.ndarray], list[str]],
    *,
    grid: Sequence[float],
    filter_enabled: bool,
    filter_mode: FilterMode,
) -> Evaluations:
    """The array evaluation behind ``evaluate_tables`` and ``run_study``.

    ``name(rows)`` gives the ids of the given rows of ``batch``; it is
    called for the kept rows, and for the first invalid row if there is
    one.  Validation, the screen, the sweep, the rule statistics and the
    diagnostics each run as one array pass over all (kept) rows.
    """
    grid, filter_enabled, filter_mode = sweep_settings(grid, filter_enabled, filter_mode)
    cells = batch.cells
    checks = check_cells(cells, batch.kind_masks()["independent"])
    invalid = np.flatnonzero(~checks.ok)[:1]
    if invalid.size:
        (network_id,) = name(invalid)
        table = batch[int(invalid[0])]
        try:
            require_valid(table)
        except InvalidTableError as exc:
            raise InvalidTableError(
                f"network {network_id} (provenance {table.provenance}): {exc}"
            ) from exc
    profiles = conditional_profiles(cells)
    codes = _pattern_code(*profiles.T, filter_mode)
    kept = np.flatnonzero(codes != _REJECTED) if filter_enabled else np.arange(len(cells))
    ids, rows = name(kept), batch[kept]

    answers, oracle = sweep(rows.cells, grid, ids=ids)
    # Contiguous per (network, rule), so each mean sums in the order
    # summarize(records) uses.
    errors = np.ascontiguousarray(np.moveaxis(oracle[..., None] - answers, -1, 1))
    stats = _rule_stats(errors.reshape(len(kept), 3, len(grid) ** 2))
    return Evaluations(
        grid, filter_enabled, filter_mode, tuple(ids), rows, codes[kept], answers, oracle,
        *stats, _diagnostics(rows.cells, profiles[kept]),
    )


def evaluate_tables(
    tables: Sequence[JointTable] | NetworkBatch,
    *,
    ids: Sequence[str] | None = None,
    grid: Sequence[float] = DEFAULT_UPDATE_GRID,
    filter_enabled: bool = True,
    filter_mode: FilterMode = "full",
    workers: int = 1,
) -> Evaluations:
    """Validate, screen, and sweep a collection of networks.

    With the filter on, rejected networks are screened out before
    evaluation; with it off, every network is evaluated and its pattern
    records what the filter would have done.  Output order follows input
    order, and the first invalid network in input order raises
    InvalidTableError naming it.  ``tables`` is a NetworkBatch or
    tables to make one of, for the evaluation ``run_study`` runs too, and
    the result is the kept rows' Evaluations columns.
    ``workers`` has no effect; it stays only because the benchmark script
    ``bench/run.py`` passes it.
    """
    batch = tables if isinstance(tables, NetworkBatch) else NetworkBatch.of(tables)
    if ids is None:
        ids = [f"net-{i:04d}" for i in range(len(batch))]
    if len(ids) != len(batch):
        raise ValueError("need exactly one id per table")
    return _evaluate(
        batch,
        lambda rows: [ids[i] for i in rows.tolist()],
        grid=grid,
        filter_enabled=filter_enabled,
        filter_mode=filter_mode,
    )


@dataclass(frozen=True)
class ClassReport:
    """Aggregates over one relation class's kept networks."""

    generated: int
    filtered_in: int
    best_rule_counts: dict[Rule, int]
    overall_average_error: float | None
    overall_maximum_error: float | None


@dataclass(frozen=True)
class StudyConfig:
    """Everything one study run depends on: ``count`` networks of each class
    from stream ``seed``, and the sweep settings (see ``sweep_settings``).
    ``independent`` and ``associated`` are each class's GenerationConfig."""

    count: int = 400
    seed: int = DEFAULT_SEED
    grid: tuple[float, ...] = DEFAULT_UPDATE_GRID
    filter_enabled: bool = True
    filter_mode: FilterMode = "full"
    independent: GenerationConfig = field(init=False)
    associated: GenerationConfig = field(init=False)

    def __post_init__(self) -> None:
        settings = sweep_settings(self.grid, self.filter_enabled, self.filter_mode)
        for name, value in zip(SWEEP_SETTINGS, settings):
            object.__setattr__(self, name, value)
        for kind in ("independent", "associated"):
            object.__setattr__(self, kind, GenerationConfig(self.count, self.seed, kind))

    @classmethod
    def default(cls, **settings) -> "StudyConfig":
        """The study design used throughout: 400 networks per class."""
        return cls(**settings)


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
    for kind, kept in evaluations.batch.kind_masks().items():
        if kind not in generated_counts:
            continue
        counts = np.bincount(evaluations.best[kept], minlength=len(RULE_ORDER)).tolist()
        average = maximum = None
        if kept.any():
            average = float(np.mean(best_stats[kept, 1]))
            maximum = float(np.mean(best_stats[kept, 2]))
        classes[kind] = ClassReport(
            generated=require_int(generated_counts[kind], f"generated count of {kind}"),
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
    (strength, error) list.  Both classes stay one NetworkBatch from the
    samplers to the sweep, and the report's ``networks`` are the kept rows'
    Evaluations columns: no object is built per network.
    """
    configs = config.independent, config.associated
    batch = NetworkBatch.concatenate([network_batch(c) for c in configs])

    def name(rows: np.ndarray) -> list[str]:
        named = batch[rows]
        return [f"{k}-{i:04d}" for k, i in zip(named.kind_names(), named.provenance[:, 1].tolist())]

    evaluations = _evaluate(
        batch,
        name,
        grid=config.grid,
        filter_enabled=config.filter_enabled,
        filter_mode=config.filter_mode,
    )
    generated_counts = {c.kind: c.count for c in configs}
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

    ``step`` is read as a Python float (ValueError for a bool or a non-real
    one) and refused if it is outside (0, 0.5] or the axis would have more
    than MAX_SURFACE_VALUES values, that is, if the value at index
    MAX_SURFACE_VALUES - 1 still lies below the end.
    """
    step = require_real(step, "step")
    if not 0.0 < step <= 0.5:
        raise ValueError(f"step must lie in (0, 0.5], got {step!r}")
    end = 1.0 - 1e-9
    values = np.arange(MAX_SURFACE_VALUES) * step
    if values[-1] < end:
        raise ValueError(
            f"step {step!r} gives more than {MAX_SURFACE_VALUES} lattice values per axis"
        )
    return [*values[values < end].tolist(), 1.0]


def error_surface(table: JointTable, rule: Rule, step: float) -> ErrorSurface:
    """Signed error of one rule set on a square update lattice.

    The lattice runs 0, step, 2*step, … and always ends exactly at 1.0.
    Rows are (e1, e2, signed error), row-major in (e1, e2).  Raises
    ValueError unless ``step`` is a real number (not a bool) with
    0 < step <= 0.5 and the lattice has at most MAX_SURFACE_VALUES values
    per axis or ``rule`` is not a Rule, and InfeasibleUpdateError if some
    lattice update is unreachable.
    """
    if rule not in RULE_ORDER:
        raise ValueError(f"unknown rule: {rule!r}")
    values = _lattice(step)
    answers, oracle = sweep([table.cells], values)
    errors = oracle[0] - answers[0, :, :, RULE_ORDER.index(rule)]
    _require_reachable(values, errors)
    return ErrorSurface(tuple(values), errors)


# ---------------------------------------------------------------------------
# Output files.
# ---------------------------------------------------------------------------

RESULTS_HEADER = (
    "network_id", "kind", "pattern", "e1", "e2",
    *(f"answer_{name}" for name in _RULE_NAMES),
    "oracle",
    *(f"error_{name}" for name in _RULE_NAMES),
)

SURFACE_HEADER = ("e1", "e2", "signed_error")


#: Networks per chunk of ``results_csv_text``.  A chunk's buffers stay below
#: the text already written, so the writer peaks at the final join; 128 pays
#: half the per-call cost of 64 at the same peak.
_CSV_CHUNK = 128


def _names(names: Sequence[str], codes: np.ndarray) -> list[str]:
    """The name of each code, as an index into ``names``."""
    return np.array(names, dtype=object)[codes].tolist()


def results_csv_text(evaluations: Evaluations) -> str:
    """Per-update results, one row per (network, grid point).

    Byte-identical to ``_serialize.csv_text`` on the same rows (pinned by
    the tests).  Each field leads with its separator: the header is written
    without its newline, every row starts with one, and a single newline
    closes the file.  The networks are written in chunks of ``_CSV_CHUNK``
    rows of the columns, each one ``_serialize.csv_rows`` buffer that
    broadcasts three parts: text fields of each network's newline and
    "id,kind,pattern" and of each grid point's ",e1,e2", both formatted once
    for the file, and the seven float columns, whose ``%.17g`` text
    ``_serialize.float_fields`` renders in numpy.  An id that would need quoting is refused first, with
    ``format_cell``'s error; then a non-finite float, with ``float_fields``'
    error for the first one in row order.
    """
    points = tuple(product(evaluations.grid, evaluations.grid))
    kinds, patterns = evaluations.batch.kind_names(), _names(_PATTERN_NAMES, evaluations.patterns)
    heads = tuple(zip(evaluations.ids, kinds, patterns))
    answers, oracle = evaluations.answers, evaluations.oracle[..., None]
    pieces = [",".join(RESULTS_HEADER)]
    # Only the ids can need quoting: kinds and patterns are fixed names.
    texts = _serialize.text_fields([f"\n{_serialize.format_cell(i)},{k},{p}" for i, k, p in heads])
    grid = _serialize.text_fields(
        [f",{_serialize.format_float(e1)},{_serialize.format_float(e2)}" for e1, e2 in points]
    )
    for start in range(0, len(heads), _CSV_CHUNK):
        rows = slice(start, start + _CSV_CHUNK)
        values = np.concatenate((answers[rows], oracle[rows], oracle[rows] - answers[rows]), -1)
        pieces.append(_serialize.csv_rows(
            texts[rows, None],
            grid,
            _serialize.float_fields(values.reshape(len(values), len(points), 7)),
        ))
    pieces.append("\n")
    return "".join(pieces)


def surface_csv_text(points: Sequence[tuple[float, float, float]]) -> str:
    return _serialize.csv_text(SURFACE_HEADER, points)


#: An element of the report's ``networks`` list, one leaf of each column's
#: type in the order of ``_network_columns``.  The provenance, rule
#: statistics and diagnostics blocks hold their dataclass's fields in field
#: order.
_NETWORK_EXAMPLE = {
    "id": "",
    "kind": "",
    "pattern": "",
    "passes_filter": False,
    "provenance": dict.fromkeys(Provenance.__dataclass_fields__, 0),
    "summary": {
        "best": "",
        "tie": False,
        "rules": {name: dict.fromkeys(RuleStats.__dataclass_fields__, 0.0) for name in _RULE_NAMES},
    },
    "diagnostics": dict.fromkeys(Diagnostics.__dataclass_fields__, 0.0),
}


def _network_columns(ev: Evaluations) -> tuple:
    """One column per leaf of the report's ``networks`` elements."""
    return (
        ev.ids,
        ev.batch.kind_names(),
        _names(_PATTERN_NAMES, ev.patterns),
        ev.patterns != _REJECTED,
        *ev.batch.provenance.T,
        _names(_RULE_NAMES, ev.best),
        ev.tie,
        *ev.stats.reshape(len(ev), 9).T,
        *ev.diagnostics.T,
    )


def report_to_dict(report: StudyReport) -> dict:
    """The report as a document for ``_serialize.dumps`` (deterministic key
    order).  The two long lists enter it as ``_serialize.Rows`` of their
    columns, so no dict is built per network; a network without provenance
    has ``null`` there."""
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
            "best_rule_counts": {rule.value: cls.best_rule_counts[rule] for rule in RULE_ORDER},
            "overall_average_error": cls.overall_average_error,
            "overall_maximum_error": cls.overall_maximum_error,
        }
    ev = report.networks
    pairs = np.array(report.strength_error_pairs, dtype=float).reshape(-1, 2)
    return {
        "config": {
            "grid": list(ev.grid),
            "filter_enabled": ev.filter_enabled,
            "filter_mode": ev.filter_mode,
            "generation": generation,
        },
        "classes": classes,
        "spearman_strength_error": report.spearman_strength_error,
        "strength_error_pairs": _serialize.Rows(([0.0, 0.0],), pairs.T),
        "networks": _serialize.Rows(
            (_NETWORK_EXAMPLE, {**_NETWORK_EXAMPLE, "provenance": None}),
            _network_columns(ev),
            [seed is None for seed in ev.batch.provenance[:, 0]],
        ),
    }


def report_json_text(report: StudyReport) -> str:
    """The report as deterministic JSON."""
    return _serialize.dumps(report_to_dict(report))


def format_class_table(report: StudyReport) -> str:
    """Human-readable per-class comparison block (6 significant digits)."""
    names = "".join(f"{name:>13}" for name in _RULE_NAMES)
    header = f"{'class':<13}{'generated':>10}{'kept':>6}{names}{'avg |err|':>12}{'max |err|':>12}"
    lines = ["best rule set per network, by relation class", header]
    for kind, cls in report.classes.items():
        average = "-" if cls.overall_average_error is None else f"{cls.overall_average_error:.6g}"
        maximum = "-" if cls.overall_maximum_error is None else f"{cls.overall_maximum_error:.6g}"
        counts = "".join(f"{cls.best_rule_counts[rule]:>13}" for rule in RULE_ORDER)
        lines.append(
            f"{kind:<13}{cls.generated:>10}{cls.filtered_in:>6}{counts}{average:>12}{maximum:>12}"
        )
    if report.spearman_strength_error is not None:
        lines.append(
            "rank correlation (associative strength vs best-rule avg |err|): "
            f"{report.spearman_strength_error:.6g}"
        )
    return "\n".join(lines) + "\n"
