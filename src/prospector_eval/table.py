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
        cells = tuple(float(c) for c in self.cells)
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
    degenerate: conditionals on that row are numerically meaningless).
    """
    issues: list[ValidationIssue] = []
    cells = table.as_array()

    if not np.all(np.isfinite(cells)):
        bad = int(np.flatnonzero(~np.isfinite(cells))[0])
        issues.append(
            ValidationIssue("non-finite", f"cell {bad} is not finite: {cells[bad]!r}")
        )
        return ValidationReport(tuple(issues))

    for i, value in enumerate(cells):
        if value < 0.0:
            issues.append(
                ValidationIssue("negative-cell", f"cell {i} is negative: {value!r}")
            )

    total = float(cells.sum())
    if abs(total - 1.0) > normalization_tol:
        issues.append(
            ValidationIssue(
                "not-normalized",
                f"cells sum to {total!r}, expected 1 within {normalization_tol}",
            )
        )

    if table.kind == "independent":
        p_e1 = float(cells[MASK_E1].sum())
        p_e2 = float(cells[MASK_E2].sum())
        rate = {True: p_e1, False: 1.0 - p_e1}, {True: p_e2, False: 1.0 - p_e2}
        for (a, b), mass in zip(EVIDENCE_STATES, table.pair_marginals()):
            deviation = abs(mass - rate[0][a] * rate[1][b])
            if deviation > independence_tol:
                issues.append(
                    ValidationIssue(
                        "independence-mismatch",
                        f"kind=independent but P(E1={a}, E2={b}) deviates from "
                        f"the product of base rates by {deviation!r}",
                    )
                )

    for (a, b), mass in zip(EVIDENCE_STATES, table.pair_marginals()):
        if mass < marginal_floor:
            issues.append(
                ValidationIssue(
                    "degenerate-marginal",
                    f"evidence state (E1={a}, E2={b}) has probability {mass!r}, "
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
    except json.JSONDecodeError as exc:
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
    return networks_from_json(Path(path).read_text(encoding="utf-8"))
