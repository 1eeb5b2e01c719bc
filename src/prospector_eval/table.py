"""Joint probability tables over two evidence variables and one conclusion.

A network is stored as the full joint distribution of ``(E1, E2, C)``:
eight cells in a canonical flat order

    index = 4*e1 + 2*e2 + c        (false = 0, true = 1)

so E1 varies slowest and the conclusion fastest:
FFF, FFT, FTF, FTT, TFF, TFT, TTF, TTT.  All file formats, derived
quantities, and tests in this package assume that order.

Evidence-state pairs (rows of the conditional profile) use the analogous
order FF, FT, TF, TT.

This is the only module that decodes the cell order.  The others use its
helpers, which broadcast over arrays of shape (..., 8), one table along the
last axis: ``rates``, ``pair_masses``, ``conclusion_cells``,
``conditional_profiles``, ``link_conditionals``, ``product_masses``,
``compose_cells`` and ``scale_pairs``, plus ``margin_halves`` for the
margin fit and ``require_base_rate``, the one refusal of a base rate at 0
or 1.
``conditional_profile``, ``network_view`` and ``validate`` take one table.

A batch of networks is a ``NetworkBatch``, the one owner of the batch
layout: (N, 8) cells, kind codes and provenance fields as columns, from the
samplers and the network file to the sweep and the study's kept rows.  It
alone maps kind codes to names; row k becomes a JointTable only when asked
for, and a slice or an index array selects a smaller batch.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import DegenerateBaseRateError, InvalidTableError, ZeroMarginalError

Kind = Literal["independent", "associated", "unspecified"]

#: The network classes, in the order the report lists them.
KINDS: tuple[str, ...] = ("independent", "associated", "unspecified")

#: Evidence-state pairs in canonical row order (FF, FT, TF, TT).
EVIDENCE_STATES: tuple[tuple[bool, bool], ...] = (
    (False, False),
    (False, True),
    (True, False),
    (True, True),
)

NORMALIZATION_TOL = 1e-12
INDEPENDENCE_TOL = 1e-9
MARGINAL_FLOOR = 1e-9


def cell_index(e1: bool, e2: bool, c: bool) -> int:
    """Flat index of the cell for the assignment (e1, e2, c)."""
    return 4 * bool(e1) + 2 * bool(e2) + bool(c)


#: Boolean masks over the flat cell order, one per variable (True where the
#: variable is true).
MASK_E1 = np.array([i >= 4 for i in range(8)])
MASK_E2 = np.array([(i >> 1) & 1 == 1 for i in range(8)])
MASK_C = np.array([i & 1 == 1 for i in range(8)])

#: (conclusion-false, conclusion-true) cell indices of each evidence state,
#: in FF, FT, TF, TT order.
PAIR_CELLS: tuple[tuple[int, int], ...] = tuple(
    (cell_index(a, b, False), cell_index(a, b, True)) for a, b in EVIDENCE_STATES
)


def margin_halves(q: np.ndarray):
    """(true, false) cells of E1, E2 and C, in fitting order, of tables held
    cell-major, ``q`` (8, N) and C-contiguous: basic-slice (2, 2, N) views,
    so scaling one scales ``q`` in place."""
    cube = q.reshape(2, 2, 2, -1)
    return (cube[1], cube[0]), (cube[:, 1], cube[:, 0]), (cube[:, :, 1], cube[:, :, 0])


def rates(cells):
    """(P(E1), P(E2), P(C)) of tables (..., 8): each its four cells added
    left to right from 0.0, bit for bit a numpy sum of the masked cells."""
    c = np.moveaxis(np.asarray(cells, dtype=float), -1, 0)
    return (
        0.0 + c[4] + c[5] + c[6] + c[7],
        0.0 + c[2] + c[3] + c[6] + c[7],
        0.0 + c[1] + c[3] + c[5] + c[7],
    )


def pair_masses(cells) -> np.ndarray:
    """P(E1=a, E2=b) of tables (..., 8) as (..., 4), FF, FT, TF, TT: the
    conclusion-false cell plus the true one."""
    cells = np.asarray(cells, dtype=float)
    return cells[..., 0::2] + cells[..., 1::2]


def conclusion_cells(cells) -> np.ndarray:
    """P(E1=a, E2=b, C) of tables (..., 8) as (..., 4), FF, FT, TF, TT."""
    return np.asarray(cells, dtype=float)[..., 1::2]


def conditional_profiles(cells) -> np.ndarray:
    """P(C | E1=a, E2=b) of tables (..., 8) as (..., 4), FF, FT, TF, TT, 0.0
    where a state has no mass (zero or less)."""
    pairs = pair_masses(cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pairs <= 0.0, 0.0, conclusion_cells(cells) / pairs)


def require_base_rate(name: str, rate, ids: Sequence[str] | None = None) -> None:
    """DegenerateBaseRateError for the first P(``name``) in ``rate`` (a float, or
    one per network, named by ``ids`` if given) outside (0, 1)."""
    rate = np.asarray(rate, dtype=float).ravel()
    if (bad := np.flatnonzero(~((rate > 0.0) & (rate < 1.0)))).size:
        where = "" if ids is None else f"network {ids[bad[0]]}: "
        raise DegenerateBaseRateError(
            f"{where}base rate of {name} is {float(rate[bad[0]])!r}; "
            f"the rules need 0 < P({name}) < 1"
        )


def link_conditionals(cells):
    """(P(C | E1), P(C | not E1), P(C | E2), P(C | not E2)) of tables (..., 8),
    numerators added from 0.0 like ``rates``.  Callers first check that the
    evidence base rates lie in (0, 1): elsewhere this divides by zero."""
    cells = np.asarray(cells, dtype=float)
    c = np.moveaxis(cells, -1, 0)
    p_e1, p_e2, _ = rates(cells)
    return (
        (0.0 + c[5] + c[7]) / p_e1,
        (0.0 + c[1] + c[3]) / (1.0 - p_e1),
        (0.0 + c[3] + c[7]) / p_e2,
        (0.0 + c[1] + c[5]) / (1.0 - p_e2),
    )


def product_masses(p_e1, p_e2) -> np.ndarray:
    """Evidence-state masses (..., 4), FF, FT, TF, TT, of independent evidence
    with base rates ``p_e1`` and ``p_e2``."""
    return np.stack(
        ((1.0 - p_e1) * (1.0 - p_e2), (1.0 - p_e1) * p_e2, p_e1 * (1.0 - p_e2), p_e1 * p_e2),
        axis=-1,
    )


def compose_cells(masses, profile) -> np.ndarray:
    """Cells (..., 8) from evidence-state masses and conditional profiles,
    both (..., 4): mass * (1 - q) and mass * q on each state's two cells."""
    masses, profile = np.asarray(masses, dtype=float), np.asarray(profile, dtype=float)
    pairs = np.stack((masses * (1.0 - profile), masses * profile), axis=-1)
    return pairs.reshape(pairs.shape[:-2] + (8,))


def scale_pairs(cells, factors) -> np.ndarray:
    """Cells (..., 8) with both cells of each evidence state times its factor."""
    return np.asarray(cells, dtype=float) * np.repeat(factors, 2, axis=-1)


def require_int(value, name: str) -> int:
    """``value`` as a Python int; ValueError for a bool or a non-integer."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(value, name: str) -> float:
    """``value`` as a Python float; ValueError for a bool or a non-real one
    (floats skip ``numbers.Real``)."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def require_probability(value, name: str) -> float:
    """``value`` as a Python float; ValueError for a bool, a non-real number
    or a value outside [0, 1]."""
    if not 0.0 <= (real := require_real(value, name)) <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return real


@dataclass(frozen=True)
class Provenance:
    """How a generated network came to be: stream seed, index, resample
    count, each stored as a Python int (ValueError for any other value)."""

    seed: int
    index: int
    resamples: int = 0

    def __post_init__(self) -> None:
        if not type(self.seed) is type(self.index) is type(self.resamples) is int:
            for name in ("seed", "index", "resamples"):
                object.__setattr__(self, name, require_int(getattr(self, name), name))


def _checked_cells(cells, kind) -> tuple[float, ...]:
    """A table's cells as 8 floats; InvalidTableError for another count or
    a kind not in KINDS, OverflowError for an integer past the float range."""
    cells = tuple(map(float, cells))
    if len(cells) != 8:
        raise InvalidTableError(f"expected 8 cells, got {len(cells)}")
    if kind not in KINDS:
        raise InvalidTableError(f"unknown table kind: {kind!r}")
    return cells


@dataclass(frozen=True)
class JointTable:
    """Immutable joint distribution over (E1, E2, C).

    ``kind`` tags the relation between the evidence variables:
    ``"independent"`` promises the product identity on the evidence pair,
    ``"associated"`` promises nothing, ``"unspecified"`` is for hand-built
    tables.  The tag is asserted, not inferred; ``validate`` checks it.
    """

    cells: tuple[float, ...]
    kind: Kind = "unspecified"
    provenance: Provenance | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", _checked_cells(self.cells, self.kind))

    def as_array(self) -> np.ndarray:
        """Cells as a fresh float64 array in canonical order."""
        return np.array(self.cells, dtype=float)


FilterMode = Literal["full", "e2-only"]


@dataclass(frozen=True)
class NetworkView:
    """The single-link quantities an inference engine sees.

    Holds the conclusion prior, both evidence base rates, and for each
    evidence variable the conclusion probability given that variable alone
    (its partner marginalized out), as Python floats, real but not range-checked:
    a link conditional can round above 1, and the engine clamps its answers.
    """

    p_c: float
    p_e: tuple[float, float]
    p_c_given_e: tuple[float, float]
    p_c_given_not_e: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_c", require_real(self.p_c, "p_c"))
        for name in ("p_e", "p_c_given_e", "p_c_given_not_e"):
            values = tuple(require_real(v, name) for v in getattr(self, name))
            object.__setattr__(self, name, values)


def conditional_profile(table: JointTable) -> tuple[float, float, float, float]:
    """P(C | E1, E2) at each evidence state, FF, FT, TF, TT: bit for bit
    ``conditional_profiles``, in Python floats, ten times as fast for one table.

    Raises ZeroMarginalError if some evidence-state pair has no probability
    mass, since the conditional is undefined there.
    """
    cells = table.cells
    values = []
    for (a, b), (f, t) in zip(EVIDENCE_STATES, PAIR_CELLS):
        mass = cells[f] + cells[t]
        if mass <= 0.0:
            raise ZeroMarginalError(
                f"evidence state (E1={a}, E2={b}) has zero probability; "
                "conditional profile is undefined"
            )
        values.append(cells[t] / mass)
    return tuple(values)


def network_view(table: JointTable) -> NetworkView:
    """Collapse the joint table to per-link quantities.

    Requires both evidence base rates strictly inside (0, 1); otherwise one
    of the link conditionals would be undefined.
    """
    cells = table.as_array()
    p_e1, p_e2, p_c = (float(rate) for rate in rates(cells))
    require_base_rate("E1", p_e1)
    require_base_rate("E2", p_e2)
    given_e1, given_not_e1, given_e2, given_not_e2 = map(float, link_conditionals(cells))
    return NetworkView(p_c, (p_e1, p_e2), (given_e1, given_e2), (given_not_e1, given_not_e2))


def compose_table(
    pair_marginals: Sequence[float],
    profile: Sequence[float],
    *,
    kind: Kind = "unspecified",
) -> JointTable:
    """Build a table from evidence-state marginals and a conditional profile.

    Both sequences use the FF, FT, TF, TT row order.  Inverse of
    (pair_marginals, conditional_profile) up to floating point.
    """
    if len(pair_marginals) != 4 or len(profile) != 4:
        raise ValueError("need 4 pair marginals and 4 conditional values")
    cells = compose_cells(pair_marginals, profile).tolist()
    return JointTable(tuple(cells), kind=kind)


@dataclass(frozen=True)
class CellChecks:
    """Every quantity ``validate`` checks, for a batch of tables (one row each).

    ``negative``, ``not_normalized``, ``mismatch`` and ``degenerate`` flag
    the violations; they are meaningful only on rows whose cells are all
    ``finite``.  ``ok`` marks the rows with no violation at all.
    """

    finite: np.ndarray  # (N,)
    negative: np.ndarray  # (N, 8)
    total: np.ndarray  # (N,)
    not_normalized: np.ndarray  # (N,)
    masses: np.ndarray  # (N, 4), FF, FT, TF, TT
    deviation: np.ndarray  # (N, 4): |mass - product of the evidence base rates|
    mismatch: np.ndarray  # (N, 4)
    degenerate: np.ndarray  # (N, 4)
    ok: np.ndarray  # (N,)


def check_cells(
    cells: np.ndarray, independent: np.ndarray, *, marginal_floor: float = MARGINAL_FLOOR
) -> CellChecks:
    """Check the structural invariants of every row of an (N, 8) cell array.

    ``independent`` (N,) marks the rows whose table claims
    ``kind="independent"``.  The quantities are computed with one-table
    arithmetic: the total is numpy's sum of eight cells,
    ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)), the base rates are
    four-cell sums added left to right, and a pair mass is cells[f] + cells[t].
    """
    cells = np.asarray(cells, dtype=float).reshape(-1, 8)
    c = cells.T
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(cells).all(axis=1)
        total = 0.0 + (((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])))
        not_normalized = np.abs(total - 1.0) > NORMALIZATION_TOL
        masses = pair_masses(cells)
        p_e1, p_e2, _ = rates(cells)
        deviation = np.abs(masses - product_masses(p_e1, p_e2))
        negative = cells < 0.0
        mismatch = np.asarray(independent, dtype=bool)[:, None] & (deviation > INDEPENDENCE_TOL)
        degenerate = masses < marginal_floor
    ok = finite & ~(
        negative.any(axis=1) | not_normalized | mismatch.any(axis=1) | degenerate.any(axis=1)
    )
    return CellChecks(
        finite, negative, total, not_normalized, masses, deviation, mismatch, degenerate, ok
    )


def validate(table: JointTable, *, marginal_floor: float = MARGINAL_FLOOR) -> tuple[str, ...]:
    """Check structural invariants, returning a message for every violation
    found: none for a valid table.

    Checks: finite cells, nonnegativity, normalization (sum within
    ``NORMALIZATION_TOL`` of 1), the product identity on evidence pairs when
    the table claims ``kind="independent"`` (within ``INDEPENDENCE_TOL``),
    and evidence-state marginals at or above ``marginal_floor`` (smaller is
    degenerate: conditionals on that row are numerically meaningless).  The
    one-table case of ``check_cells``.
    """
    independent = np.array([table.kind == "independent"])
    checks = check_cells(table.as_array(), independent, marginal_floor=marginal_floor)
    cells = table.cells
    if not checks.finite[0]:
        bad = next(i for i, value in enumerate(cells) if not math.isfinite(value))
        return (f"cell {bad} is not finite: {cells[bad]!r}",)

    negative = np.flatnonzero(checks.negative[0]).tolist()
    issues = [f"cell {i} is negative: {cells[i]!r}" for i in negative]
    if checks.not_normalized[0]:
        issues.append(
            f"cells sum to {float(checks.total[0])!r}, expected 1 within {NORMALIZATION_TOL}"
        )
    deviations = checks.deviation[0].tolist()
    for k in np.flatnonzero(checks.mismatch[0]).tolist():
        a, b = EVIDENCE_STATES[k]
        issues.append(
            f"kind=independent but P(E1={a}, E2={b}) deviates from "
            f"the product of base rates by {deviations[k]!r}"
        )
    masses = checks.masses[0].tolist()
    for k in np.flatnonzero(checks.degenerate[0]).tolist():
        a, b = EVIDENCE_STATES[k]
        issues.append(
            f"evidence state (E1={a}, E2={b}) has probability {masses[k]!r}, "
            f"below {marginal_floor}"
        )
    return tuple(issues)


def require_valid(table: JointTable, *, marginal_floor: float = MARGINAL_FLOOR) -> None:
    """Raise InvalidTableError (listing every issue) unless the table is valid."""
    if issues := validate(table, marginal_floor=marginal_floor):
        raise InvalidTableError(f"invalid table: {'; '.join(issues)}")


# ---------------------------------------------------------------------------
# Batches of networks as columns, and the network files that hold them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NetworkBatch:
    """Networks as aligned columns, row k for network k: the only owner of
    the batch layout.  ``cells`` is (N, 8), ``kinds`` (N,) indices into
    KINDS, and ``provenance`` (N, 3) objects: the Provenance fields as
    Python ints, so values of any size stay exact, or None rows for tables
    without one.  ``batch[k]`` is row k's JointTable, and ``batch[rows]``,
    for a slice or an index array or list, the batch of those rows."""

    cells: np.ndarray
    kinds: np.ndarray
    provenance: np.ndarray

    @classmethod
    def of(cls, tables: Iterable[JointTable]) -> NetworkBatch:
        """The columns of ``tables``."""
        tables = list(tables)
        provenance = [table.provenance for table in tables]
        fields = [(None,) * 3 if p is None else (p.seed, p.index, p.resamples) for p in provenance]
        return cls(
            np.array([table.cells for table in tables], dtype=float).reshape(-1, 8),
            np.array([KINDS.index(table.kind) for table in tables], dtype=int),
            np.array(fields, dtype=object).reshape(-1, 3),
        )

    @classmethod
    def generated(cls, kind: Kind, seed: int, cells: np.ndarray, resamples) -> NetworkBatch:
        """Networks 0, 1, … of a ``kind`` batch from stream ``seed``, given
        their (N, 8) cells and (N,) resample counts."""
        count = len(cells)
        seeds = np.full(count, seed, dtype=object)
        provenance = np.column_stack((seeds, np.arange(count), resamples))
        return cls(cells, np.full(count, KINDS.index(kind)), provenance)

    @classmethod
    def concatenate(cls, batches: Sequence[NetworkBatch]) -> NetworkBatch:
        columns = ((batch.cells, batch.kinds, batch.provenance) for batch in batches)
        return cls(*map(np.concatenate, zip(*columns)))

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            return self.row(self.cells[k].tolist(), self.kinds[k], *self.provenance[k].tolist())
        return NetworkBatch(self.cells[k], self.kinds[k], self.provenance[k])

    def kind_names(self) -> list[str]:
        """Each row's kind."""
        return np.array(KINDS, dtype=object)[self.kinds].tolist()

    def kind_masks(self) -> dict[str, np.ndarray]:
        """Each kind's (N,) row mask, in KINDS order."""
        return {kind: self.kinds == code for code, kind in enumerate(KINDS)}

    def kind_counts(self) -> dict[str, int]:
        """The rows of each kind the batch holds, in KINDS order."""
        counts = np.bincount(self.kinds, minlength=len(KINDS)).tolist()
        return {kind: count for kind, count in zip(KINDS, counts) if count}

    def tables(self) -> list[JointTable]:
        """The batch's tables, built from one ``tolist`` per column.  Each row's
        cells are grouped from the flat list as it is used, so no list per
        row outlives its table."""
        cells = iter(self.cells.ravel().tolist())
        columns = zip(*[cells] * 8), self.kinds.tolist(), *self.provenance.T.tolist()
        return list(map(self.row, *columns))

    @staticmethod
    def row(cells: Sequence[float], kind: int, seed, index, resamples) -> JointTable:
        """The table of one row's cells, kind code and provenance fields."""
        provenance = None if seed is None else Provenance(seed, index, resamples)
        return JointTable(cells, KINDS[kind], provenance)

    def to_json(self) -> str:
        """The network file of the batch (deterministic bytes), its entries
        rendered from the columns as ``_serialize.Rows``."""
        from . import _serialize

        example = {
            "kind": "",
            "provenance": {"seed": 0, "index": 0, "resamples": 0},
            "cells": [0.0] * 8,
        }
        rows = _serialize.Rows(
            (example, {**example, "provenance": None}),
            (self.kind_names(), *self.provenance.T, *self.cells.T),
            [seed is None for seed in self.provenance[:, 0]],
        )
        return _serialize.dumps({"networks": rows})

    @classmethod
    def from_json(cls, text: str) -> NetworkBatch:
        """Parse a network file, preserving cell values exactly.  The entries
        are checked one by one, and InvalidTableError names the first bad one."""
        import json  # here, not at import: an oracle query on a built-in case needs no JSON
        try:
            document = json.loads(text)
        # ValueError: malformed JSON, or an integer too long to convert;
        # RecursionError: nesting deeper than the parser's stack.
        except (ValueError, RecursionError) as exc:
            raise InvalidTableError(f"network file is not valid JSON: {exc}") from exc
        if not isinstance(document, dict) or "networks" not in document:
            raise InvalidTableError('network file must be an object with a "networks" list')
        entries = document["networks"]
        if not isinstance(entries, list):
            raise InvalidTableError('"networks" must be a list')
        cells, kinds, provenance = [], [], []  # cells and provenance flat
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "cells" not in entry:
                raise InvalidTableError(f'network {i} must be an object with "cells"')
            row, kind = entry["cells"], entry.get("kind", "unspecified")
            if type(row) is not list or not (types := set(map(type, row))) <= {int, float}:
                raise InvalidTableError(f'network {i}: "cells" must be a list of numbers')
            provenance += _provenance_fields(entry.get("provenance"), i)
            try:
                if int in types or len(row) != 8 or kind not in KINDS:
                    row = _checked_cells(row, kind)  # as JointTable checks them
            except (InvalidTableError, OverflowError) as exc:
                raise InvalidTableError(f"network {i}: {exc}") from exc
            cells += row
            kinds.append(KINDS.index(kind))
        return cls(
            np.array(cells, dtype=float).reshape(-1, 8),
            np.array(kinds, dtype=int),
            np.array(provenance, dtype=object).reshape(-1, 3),
        )

    @classmethod
    def load(cls, path: str | Path) -> NetworkBatch:
        """Read a network file; InvalidTableError unless it is UTF-8 JSON in
        the network file format."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidTableError(f"network file is not UTF-8 text: {exc}") from exc
        return cls.from_json(text)


def _provenance_fields(raw, i: int) -> tuple:
    """The Provenance fields of network ``i``'s ``provenance``, as Python
    ints, or three Nones for null."""
    if raw is None:
        return (None,) * 3
    if type(raw) is not dict:
        raise InvalidTableError(f'network {i}: "provenance" must be an object or null')
    fields = raw.get("seed"), raw.get("index"), raw.get("resamples", 0)
    if not type(fields[0]) is type(fields[1]) is type(fields[2]) is int:  # no bool, no float
        raise InvalidTableError(
            f'network {i}: provenance needs integer "seed", "index" and "resamples" '
            f"(0 if absent), got {raw!r}"
        )
    return fields


def save_networks(tables: Iterable[JointTable], path: str | Path) -> None:
    Path(path).write_text(NetworkBatch.of(tables).to_json(), encoding="utf-8")


def load_networks(path: str | Path) -> list[JointTable]:
    """Read a network file; InvalidTableError unless it is UTF-8 JSON in the
    network file format."""
    return NetworkBatch.load(path).tables()
