"""Joint probability tables over two evidence variables and one conclusion.

A network is stored as the full joint distribution of ``(E1, E2, C)``:
eight cells in a canonical flat order

    index = 4*e1 + 2*e2 + c        (false = 0, true = 1)

so E1 varies slowest and the conclusion fastest:
FFF, FFT, FTF, FTT, TFF, TFT, TTF, TTT.  All file formats, derived
quantities, and tests in this package assume that order.

Evidence-state pairs (rows of the conditional profile) use the analogous
order FF, FT, TF, TT.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from . import _serialize
from .errors import DegenerateBaseRateError, InvalidTableError, ZeroMarginalError

Kind = Literal["independent", "associated", "unspecified"]

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
#: variable is true).  Shared by every numeric routine in the package.
MASK_E1 = np.array([i >= 4 for i in range(8)])
MASK_E2 = np.array([(i >> 1) & 1 == 1 for i in range(8)])
MASK_C = np.array([i & 1 == 1 for i in range(8)])

#: (conclusion-false, conclusion-true) cell indices of each evidence state,
#: in FF, FT, TF, TT order.
PAIR_CELLS: tuple[tuple[int, int], ...] = tuple(
    (cell_index(a, b, False), cell_index(a, b, True)) for a, b in EVIDENCE_STATES
)


@dataclass(frozen=True)
class Provenance:
    """How a generated network came to be: stream seed, index, resample count."""

    seed: int
    index: int
    resamples: int = 0


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
        cells = tuple(map(float, self.cells))
        if len(cells) != 8:
            raise InvalidTableError(f"expected 8 cells, got {len(cells)}")
        if self.kind not in KINDS:
            raise InvalidTableError(f"unknown table kind: {self.kind!r}")
        object.__setattr__(self, "cells", cells)

    def cell(self, e1: bool, e2: bool, c: bool) -> float:
        return self.cells[cell_index(e1, e2, c)]

    def as_array(self) -> np.ndarray:
        """Cells as a fresh float64 array in canonical order."""
        return np.array(self.cells, dtype=float)

    def pair_marginals(self) -> tuple[float, float, float, float]:
        """P(E1=a, E2=b) for the four evidence states in FF, FT, TF, TT order."""
        cells = self.cells
        return tuple(cells[f] + cells[t] for f, t in PAIR_CELLS)


@dataclass(frozen=True)
class ConditionalProfile:
    """P(C | E1=a, E2=b) for the four evidence states."""

    q_ff: float
    q_ft: float
    q_tf: float
    q_tt: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.q_ff, self.q_ft, self.q_tf, self.q_tt)


@dataclass(frozen=True)
class NetworkView:
    """The single-link quantities an inference engine sees.

    Holds the conclusion prior, both evidence base rates, and for each
    evidence variable the conclusion probability given that variable alone
    (its partner marginalized out).
    """

    p_c: float
    p_e: tuple[float, float]
    p_c_given_e: tuple[float, float]
    p_c_given_not_e: tuple[float, float]


def base_rates(table: JointTable) -> tuple[float, float, float]:
    """(P(E1), P(E2), P(C)) by marginalization."""
    cells = table.as_array()
    return (
        float(cells[MASK_E1].sum()),
        float(cells[MASK_E2].sum()),
        float(cells[MASK_C].sum()),
    )


def conditional_profile(table: JointTable) -> ConditionalProfile:
    """P(C | E1, E2) at each evidence state.

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
    return ConditionalProfile(*values)


def network_view(table: JointTable) -> NetworkView:
    """Collapse the joint table to per-link quantities.

    Requires both evidence base rates strictly inside (0, 1); otherwise one
    of the link conditionals would be undefined.
    """
    cells = table.as_array()
    p_e1 = float(cells[MASK_E1].sum())
    p_e2 = float(cells[MASK_E2].sum())
    p_c = float(cells[MASK_C].sum())
    for name, rate in (("E1", p_e1), ("E2", p_e2)):
        if not 0.0 < rate < 1.0:
            raise DegenerateBaseRateError(
                f"base rate of {name} is {rate!r}; link conditionals need 0 < P({name}) < 1"
            )
    p_c_given_e1 = float(cells[MASK_E1 & MASK_C].sum()) / p_e1
    p_c_given_not_e1 = float(cells[~MASK_E1 & MASK_C].sum()) / (1.0 - p_e1)
    p_c_given_e2 = float(cells[MASK_E2 & MASK_C].sum()) / p_e2
    p_c_given_not_e2 = float(cells[~MASK_E2 & MASK_C].sum()) / (1.0 - p_e2)
    return NetworkView(
        p_c=p_c,
        p_e=(p_e1, p_e2),
        p_c_given_e=(p_c_given_e1, p_c_given_e2),
        p_c_given_not_e=(p_c_given_not_e1, p_c_given_not_e2),
    )


def compose_table(
    pair_marginals: Sequence[float],
    profile: Sequence[float],
    *,
    kind: Kind = "unspecified",
    provenance: Provenance | None = None,
) -> JointTable:
    """Build a table from evidence-state marginals and a conditional profile.

    Both sequences use the FF, FT, TF, TT row order.  Inverse of
    (pair_marginals, conditional_profile) up to floating point.
    """
    if len(pair_marginals) != 4 or len(profile) != 4:
        raise ValueError("need 4 pair marginals and 4 conditional values")
    cells = [0.0] * 8
    for (a, b), mass, q in zip(EVIDENCE_STATES, pair_marginals, profile):
        cells[cell_index(a, b, True)] = mass * q
        cells[cell_index(a, b, False)] = mass * (1.0 - q)
    return JointTable(tuple(cells), kind=kind, provenance=provenance)


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant: a stable code plus a message with the offending value."""

    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def _pair_masses(cells: np.ndarray) -> np.ndarray:
    """P(E1=a, E2=b) of every row of an (N, 8) cell array, shape (N, 4)."""
    return cells[:, [f for f, _ in PAIR_CELLS]] + cells[:, [t for _, t in PAIR_CELLS]]


def evidence_rates(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(E1), P(E2)) of every row of an (N, 8) cell array.

    Each is its four cells added left to right from 0.0, as ``base_rates``
    adds them, so the two agree bit for bit.
    """
    c = cells.T
    return 0.0 + c[4] + c[5] + c[6] + c[7], 0.0 + c[2] + c[3] + c[6] + c[7]


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
    cells: np.ndarray,
    independent: np.ndarray,
    *,
    normalization_tol: float = NORMALIZATION_TOL,
    independence_tol: float = INDEPENDENCE_TOL,
    marginal_floor: float = MARGINAL_FLOOR,
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
        not_normalized = np.abs(total - 1.0) > normalization_tol
        masses = _pair_masses(cells)
        p_e1, p_e2 = evidence_rates(cells)
        products = np.stack(
            ((1.0 - p_e1) * (1.0 - p_e2), (1.0 - p_e1) * p_e2, p_e1 * (1.0 - p_e2), p_e1 * p_e2),
            axis=1,
        )
        deviation = np.abs(masses - products)
        negative = cells < 0.0
        mismatch = np.asarray(independent, dtype=bool)[:, None] & (deviation > independence_tol)
        degenerate = masses < marginal_floor
    ok = finite & ~(
        negative.any(axis=1) | not_normalized | mismatch.any(axis=1) | degenerate.any(axis=1)
    )
    return CellChecks(
        finite, negative, total, not_normalized, masses, deviation, mismatch, degenerate, ok
    )


def validate(
    table: JointTable,
    *,
    normalization_tol: float = NORMALIZATION_TOL,
    independence_tol: float = INDEPENDENCE_TOL,
    marginal_floor: float = MARGINAL_FLOOR,
) -> ValidationReport:
    """Check structural invariants, reporting every violation found.

    Checks: finite cells, nonnegativity, normalization (sum within
    ``normalization_tol`` of 1), the product identity on evidence pairs when
    the table claims ``kind="independent"`` (within ``independence_tol``),
    and evidence-state marginals at or above ``marginal_floor`` (smaller is
    degenerate: conditionals on that row are numerically meaningless).  The
    one-table case of ``check_cells``.
    """
    checks = check_cells(
        table.as_array(),
        np.array([table.kind == "independent"]),
        normalization_tol=normalization_tol,
        independence_tol=independence_tol,
        marginal_floor=marginal_floor,
    )
    cells = table.cells
    if not checks.finite[0]:
        bad = next(i for i, value in enumerate(cells) if not math.isfinite(value))
        message = f"cell {bad} is not finite: {cells[bad]!r}"
        return ValidationReport((ValidationIssue("non-finite", message),))

    issues = [
        ValidationIssue("negative-cell", f"cell {i} is negative: {cells[i]!r}")
        for i in np.flatnonzero(checks.negative[0]).tolist()
    ]
    if checks.not_normalized[0]:
        issues.append(
            ValidationIssue(
                "not-normalized",
                f"cells sum to {float(checks.total[0])!r}, expected 1 within {normalization_tol}",
            )
        )
    deviations = checks.deviation[0].tolist()
    for k in np.flatnonzero(checks.mismatch[0]).tolist():
        a, b = EVIDENCE_STATES[k]
        issues.append(
            ValidationIssue(
                "independence-mismatch",
                f"kind=independent but P(E1={a}, E2={b}) deviates from "
                f"the product of base rates by {deviations[k]!r}",
            )
        )
    masses = checks.masses[0].tolist()
    for k in np.flatnonzero(checks.degenerate[0]).tolist():
        a, b = EVIDENCE_STATES[k]
        issues.append(
            ValidationIssue(
                "degenerate-marginal",
                f"evidence state (E1={a}, E2={b}) has probability {masses[k]!r}, "
                f"below {marginal_floor}",
            )
        )
    return ValidationReport(tuple(issues))


def require_valid(table: JointTable, **tolerances: float) -> None:
    """Raise InvalidTableError (listing every issue) unless the table is valid."""
    report = validate(table, **tolerances)
    if not report.ok:
        summary = "; ".join(issue.message for issue in report.issues)
        raise InvalidTableError(f"invalid table: {summary}", issues=report.issues)


# ---------------------------------------------------------------------------
# Network files: an ordered list of tables as deterministic JSON.
# ---------------------------------------------------------------------------


def networks_to_json(tables: Iterable[JointTable]) -> str:
    """Serialize tables to the network file format (deterministic bytes)."""
    entries = []
    for table in tables:
        provenance = None
        if table.provenance is not None:
            provenance = {
                "seed": table.provenance.seed,
                "index": table.provenance.index,
                "resamples": table.provenance.resamples,
            }
        entries.append(
            {"kind": table.kind, "provenance": provenance, "cells": list(table.cells)}
        )
    return _serialize.dumps({"networks": entries})


def networks_from_json(text: str) -> list[JointTable]:
    """Parse a network file, preserving cell values exactly."""
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
    tables = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "cells" not in entry:
            raise InvalidTableError(f'network {i} must be an object with "cells"')
        cells = entry["cells"]
        if type(cells) is not list or any(type(v) not in (int, float) for v in cells):
            raise InvalidTableError(f'network {i}: "cells" must be a list of numbers')
        provenance = _provenance_from_json(entry.get("provenance"), i)
        try:
            table = JointTable(
                tuple(cells), kind=entry.get("kind", "unspecified"), provenance=provenance
            )
        except (InvalidTableError, OverflowError) as exc:
            raise InvalidTableError(f"network {i}: {exc}") from exc
        tables.append(table)
    return tables


def _provenance_from_json(raw, i: int) -> Provenance | None:
    if raw is None:
        return None
    if type(raw) is not dict:
        raise InvalidTableError(f'network {i}: "provenance" must be an object or null')
    values = (raw.get("seed"), raw.get("index"), raw.get("resamples", 0))
    if any(type(v) is not int for v in values):
        raise InvalidTableError(
            f'network {i}: provenance needs integer "seed", "index" and "resamples" '
            f"(0 if absent), got {raw!r}"
        )
    return Provenance(*values)


def save_networks(tables: Iterable[JointTable], path: str | Path) -> None:
    Path(path).write_text(networks_to_json(tables), encoding="utf-8")


def load_networks(path: str | Path) -> list[JointTable]:
    """Read a network file; InvalidTableError unless it is UTF-8 JSON in the
    network file format."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidTableError(f"network file is not UTF-8 text: {exc}") from exc
    return networks_from_json(text)
