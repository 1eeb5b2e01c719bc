"""Random network generation.

Two samplers, one per evidence-relation class:

* associated — draw three base-rate targets uniformly from
  (margin, 1 - margin), draw eight cells uniformly and normalize, then
  rescale by iterative proportional fitting until all three one-dimensional
  margins hit their targets.  The fit moves margins without destroying the
  random association structure, so evidence stays (generically) dependent.
* independent — draw the two evidence base rates uniformly from
  (margin, 1 - margin), form the product evidence-pair marginals, and split
  each of the four pair masses between its conclusion-false/true cells with
  an independent uniform fraction.  The product structure makes the
  evidence pair exactly independent; the conclusion base rate is whatever
  the fractions imply.

Determinism: network ``i`` of a batch draws all of its randomness from a
dedicated stream keyed by (seed, i, attempt): a PCG64 generator seeded by
``SeedSequence(entropy=seed, spawn_key=(i, attempt))``, whose raw outputs
become doubles as ``Generator.random`` makes them and are scaled as
``Generator.uniform`` scales them.  Batches are therefore reproducible and
order-independent, and the files rest only on ``SeedSequence`` and PCG64
raw output, which NumPy keeps stable across releases.  The seed hash runs
for every pending network in one array pass (``_stream_words``), and so
does the arithmetic after the draws: one array pass builds every
independent network, and one ``fit_margins`` call fits every associated
network, row by row exactly as a one-table fit would.  Failed proportional
fits are resampled with the attempt counter bumped (bounded; the table
records how many resamples it took), and only the resampled networks are
redrawn and refitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import GenerationError, InvalidTableError, NoConvergenceError
from .table import MASK_C, MASK_E1, MASK_E2, JointTable, Provenance

DEFAULT_BASE_RATE_MARGIN = 1e-3
DEFAULT_IPF_TOLERANCE = 1e-10
DEFAULT_IPF_MAX_ITERATIONS = 10000
DEFAULT_MAX_RESAMPLES = 10


@dataclass(frozen=True)
class MarginTargets:
    """Target one-dimensional margins for (E1, E2, C)."""

    t_e1: float
    t_e2: float
    t_c: float

    def __post_init__(self) -> None:
        for name, value in (("t_e1", self.t_e1), ("t_e2", self.t_e2), ("t_c", self.t_c)):
            if not 0.0 < float(value) < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t_e1, self.t_e2, self.t_c)


@dataclass(frozen=True)
class GenerationConfig:
    """Everything a batch of networks depends on."""

    count: int
    seed: int
    kind: Literal["independent", "associated"]
    base_rate_margin: float = DEFAULT_BASE_RATE_MARGIN
    ipf_tolerance: float = DEFAULT_IPF_TOLERANCE
    ipf_max_iterations: int = DEFAULT_IPF_MAX_ITERATIONS
    max_resamples: int = DEFAULT_MAX_RESAMPLES

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.count > 2**32:
            raise ValueError("count must not exceed 2**32 (one stream-key word per index)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.kind not in ("independent", "associated"):
            raise ValueError(f"kind must be 'independent' or 'associated', got {self.kind!r}")
        if not 0.0 < self.base_rate_margin < 0.5:
            raise ValueError("base_rate_margin must lie strictly between 0 and 0.5")
        # A margin deviation is at most 1, so a tolerance of 1 or more (or
        # NaN, or inf) would make every fit converge before it starts.
        if not 0.0 < self.ipf_tolerance < 1.0:
            raise ValueError(
                f"ipf_tolerance must lie strictly between 0 and 1, got {self.ipf_tolerance!r}"
            )
        if self.ipf_max_iterations < 1 or self.max_resamples < 1:
            raise ValueError("iteration and resample caps must be at least 1")


# SeedSequence's hash constants (numpy/random/bit_generator.pyx), as uint32
# so that every product wraps the way its C code does.
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def _stream_words(seed: int, indices: np.ndarray, attempt: int) -> np.ndarray:
    """PCG64 seed words of every network's stream, as an (N, 4) uint64 array.

    Row ``r`` equals ``SeedSequence(entropy=seed, spawn_key=(indices[r],
    attempt)).generate_state(4, np.uint64)``: the seed's 32-bit words, zero
    padded to the pool size, then the index and the attempt are mixed into a
    pool of four words, which are then hashed into eight output words.  Every
    step is the same for all rows, so the rows are computed together.
    Indices and attempts must be below 2**32 (one word each).
    """
    indices = np.asarray(indices, dtype=np.int64)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    entropy = [np.uint32(seed & 0xFFFFFFFF), np.uint32(seed >> 32), np.uint32(0), np.uint32(0)]
    spawn_key = [indices.astype(np.uint32), np.full(len(indices), attempt, dtype=np.uint32)]
    with np.errstate(over="ignore"):
        pool = [hashmix(word) for word in entropy]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in spawn_key:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_const = _INIT_B
        state = np.empty((len(indices), 2 * _POOL_SIZE), dtype=np.uint64)
        for k in range(2 * _POOL_SIZE):
            value = pool[k % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B
            value = value * hash_const
            state[:, k] = value ^ (value >> _XSHIFT)
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


class _StreamSeed:
    """Hands PCG64 the seed words that ``_stream_words`` computed for one
    stream; registered as numpy's ISeedSequence on first use."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a stream seed holds exactly PCG64's four uint64 words")
        return self.words


def _draw_doubles(seed: int, indices: np.ndarray, attempt: int, count: int) -> np.ndarray:
    """The first ``count`` doubles in [0, 1) of every listed network's stream.

    Shape (N, count); the same values ``Generator.random`` would return.
    """
    # Imported here so that commands which never generate skip numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StreamSeed)
    raw = np.array(
        [
            np.random.PCG64(_StreamSeed(words)).random_raw(count)
            for words in _stream_words(seed, indices, attempt)
        ],
        dtype=np.uint64,
    ).reshape(len(indices), count)
    return (raw >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Scale doubles in [0, 1) into [low, high) as ``Generator.uniform`` does."""
    return low + (high - low) * u


#: (true-cell, false-cell) flat indices of E1, E2 and C, in fitting order.
_MARGIN_CELLS = tuple(
    (np.flatnonzero(mask), np.flatnonzero(~mask)) for mask in (MASK_E1, MASK_E2, MASK_C)
)


def _margin_sum(q: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Row sums of four cells, added left to right as a 1-D numpy sum does."""
    return q[:, cells[0]] + q[:, cells[1]] + q[:, cells[2]] + q[:, cells[3]]


def _deviation(q: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Largest absolute margin error of each row."""
    errors = [
        np.abs(_margin_sum(q, true_cells) - targets[:, k])
        for k, (true_cells, _) in enumerate(_MARGIN_CELLS)
    ]
    return np.maximum(np.maximum(errors[0], errors[1]), errors[2])


def fit_margins(
    cells: np.ndarray,
    targets: np.ndarray,
    *,
    tolerance: float,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit the E1, E2 and C margins of every row of ``cells`` to ``targets``.

    ``cells`` is (N, 8) with strictly positive entries and ``targets`` is
    (N, 3).  Each row is fitted on its own: its deviation is checked before
    each cycle, at most ``max_iterations`` times, and a cycle scales E1, E2
    and C in that order by t/cur on the true cells and (1 - t)/(1 - cur) on
    the others.  A converged row leaves the active set and is normalised.
    Returns (fitted, converged, deviation): converged rows are normalised,
    the others hold their cells after the last cycle; ``deviation`` is each
    row's margin deviation at its last check, or after the last cycle.
    """
    q = np.array(cells, dtype=float)
    targets = np.asarray(targets, dtype=float)
    fitted = np.empty_like(q)
    converged = np.zeros(len(q), dtype=bool)
    deviation = np.empty(len(q))
    rows = np.arange(len(q))
    for _ in range(max_iterations):
        if not len(rows):
            break
        deviation[rows] = _deviation(q, targets)
        done = deviation[rows] <= tolerance
        if done.any():
            fitted[rows[done]] = q[done] / q[done].sum(axis=1)[:, None]
            converged[rows[done]] = True
            rows, q, targets = rows[~done], q[~done], targets[~done]
        for k, (true_cells, false_cells) in enumerate(_MARGIN_CELLS):
            target = targets[:, k]
            current = _margin_sum(q, true_cells)
            q[:, true_cells] *= (target / current)[:, None]
            q[:, false_cells] *= ((1.0 - target) / (1.0 - current))[:, None]
    fitted[rows] = q
    deviation[rows] = _deviation(q, targets)
    return fitted, converged, deviation


def ipf_fit(
    table: JointTable,
    targets: MarginTargets,
    *,
    tolerance: float = DEFAULT_IPF_TOLERANCE,
    max_iterations: int = DEFAULT_IPF_MAX_ITERATIONS,
) -> JointTable:
    """Iteratively rescale cells until all three margins match the targets.

    The one-table case of ``fit_margins``.  Cycles E1, E2, C in a fixed
    order; convergence is checked before each cycle, so a table that already
    matches comes back (numerically) unchanged.  Requires strictly positive
    cells — proportional scaling can never move mass onto or off a zero.
    Raises NoConvergenceError with the remaining deviation if the cap runs
    out.
    """
    q = table.as_array()
    if np.any(q <= 0.0):
        raise InvalidTableError(
            "proportional fitting requires strictly positive cells"
        )
    fitted, converged, deviation = fit_margins(
        q[None, :],
        np.array([targets.as_tuple()]),
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    if not converged[0]:
        raise NoConvergenceError(
            f"margins still off by {deviation[0]:.3e} after {max_iterations} cycles",
            deviation=float(deviation[0]),
            iterations=max_iterations,
        )
    return JointTable(tuple(fitted[0].tolist()), kind=table.kind, provenance=table.provenance)


def generate_associated(config: GenerationConfig) -> list[JointTable]:
    """Generate ``config.count`` associated-evidence networks.

    Every pending network draws its targets and raw cells from its own
    stream; one ``fit_margins`` call then fits them all.  Networks whose draw
    has a zero cell or whose fit hits the cap are redrawn with the next
    attempt number, and only those are refitted.
    """
    if config.kind != "associated":
        raise ValueError(f"config.kind is {config.kind!r}, expected 'associated'")
    eps = config.base_rate_margin
    tables: list[JointTable | None] = [None] * config.count
    pending = np.arange(config.count)
    for attempt in range(config.max_resamples):
        if not len(pending):
            break
        u = _draw_doubles(config.seed, pending, attempt, 11)
        targets = _uniform(u[:, :3], eps, 1.0 - eps)
        raw = u[:, 3:]
        drawable = np.all(raw > 0.0, axis=1)  # else un-normalizable: redraw
        fitted, converged, _ = fit_margins(
            raw[drawable] / raw[drawable].sum(axis=1)[:, None],
            targets[drawable],
            tolerance=config.ipf_tolerance,
            max_iterations=config.ipf_max_iterations,
        )
        done = np.zeros(len(pending), dtype=bool)
        done[np.flatnonzero(drawable)[converged]] = True
        for index, cells in zip(pending[done].tolist(), fitted[converged].tolist()):
            tables[index] = JointTable(
                tuple(cells),
                kind="associated",
                provenance=Provenance(seed=config.seed, index=index, resamples=attempt),
            )
        pending = pending[~done]
    if len(pending):
        raise GenerationError(
            f"network {pending[0]} (seed {config.seed}): no converged fit "
            f"within {config.max_resamples} attempts"
        )
    return tables


def generate_independent(config: GenerationConfig) -> list[JointTable]:
    """Generate ``config.count`` independent-evidence networks.

    Each network draws two evidence base rates and four conclusion fractions
    from its own stream; one array pass then builds all the tables' cells.
    """
    if config.kind != "independent":
        raise ValueError(f"config.kind is {config.kind!r}, expected 'independent'")
    eps = config.base_rate_margin
    u = _draw_doubles(config.seed, np.arange(config.count), 0, 6)
    draws = np.concatenate((_uniform(u[:, :2], eps, 1.0 - eps), u[:, 2:]), axis=1)
    p_e1, p_e2, fractions = draws[:, 0], draws[:, 1], draws[:, 2:]
    masses = np.stack(
        (
            (1.0 - p_e1) * (1.0 - p_e2),
            (1.0 - p_e1) * p_e2,
            p_e1 * (1.0 - p_e2),
            p_e1 * p_e2,
        ),
        axis=1,
    )
    cells = np.empty((config.count, 8))
    cells[:, 1::2] = masses * fractions
    cells[:, 0::2] = masses * (1.0 - fractions)
    return [
        JointTable(
            tuple(row),
            kind="independent",
            provenance=Provenance(seed=config.seed, index=index, resamples=0),
        )
        for index, row in enumerate(cells.tolist())
    ]


def generate(config: GenerationConfig) -> list[JointTable]:
    """Dispatch on ``config.kind``."""
    if config.kind == "independent":
        return generate_independent(config)
    return generate_associated(config)
