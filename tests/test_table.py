import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json_reference
from prospector_eval import (
    EvidenceUpdate,
    GenerationConfig,
    InvalidTableError,
    JointTable,
    NotIndependentError,
    Provenance,
    ZeroMarginalError,
    compose_table,
    conditional_profile,
    evaluate_tables,
    generate,
    independent_closed_form,
    network_view,
    validate,
)
from prospector_eval import samplers
from prospector_eval.errors import DegenerateBaseRateError, InfeasibleUpdateError
from prospector_eval.study import build_report, report_json_text
from prospector_eval.table import (
    EVIDENCE_STATES,
    INDEPENDENCE_TOL,
    KINDS,
    MARGINAL_FLOOR,
    NORMALIZATION_TOL,
    NetworkBatch,
    check_cells,
    MASK_C,
    MASK_E1,
    MASK_E2,
    PAIR_CELLS,
    cell_index,
    compose_cells,
    conclusion_cells,
    conditional_profiles,
    link_conditionals,
    load_networks,
    margin_halves,
    pair_masses,
    product_masses,
    rates,
    require_valid,
    save_networks,
    scale_pairs,
)

UNIFORM = JointTable((0.125,) * 8)

positive_cells = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=8, max_size=8
)


def normalized_table(raw) -> JointTable:
    total = sum(raw)
    return JointTable(tuple(v / total for v in raw))


class TestCellOrder:
    def test_flat_index_layout(self):
        """The canonical order is FFF, FFT, FTF, FTT, TFF, TFT, TTF, TTT."""
        seen = []
        for e1 in (False, True):
            for e2 in (False, True):
                for c in (False, True):
                    seen.append(cell_index(e1, e2, c))
        assert seen == list(range(8))

    def test_masks_agree_with_index(self):
        for i in range(8):
            assert MASK_E1[i] == (i >= 4)
            assert MASK_E2[i] == bool((i >> 1) & 1)
            assert MASK_C[i] == bool(i & 1)

    def test_pair_cells(self):
        """(conclusion-false, conclusion-true) cells of FF, FT, TF, TT."""
        assert PAIR_CELLS == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidTableError):
            JointTable((0.5, 0.5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidTableError):
            JointTable((0.125,) * 8, kind="mystery")


class TestBaseRates:
    def test_case_study_1(self, case1):
        assert rates(case1.cells) == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)

    def test_uniform(self):
        assert rates(UNIFORM.cells) == pytest.approx((0.5, 0.5, 0.5), abs=0)

    def test_point_mass(self):
        cells = [0.0] * 8
        cells[cell_index(True, True, True)] = 1.0
        assert rates(cells) == (1.0, 1.0, 1.0)

    def test_case_study_2(self, case2):
        assert rates(case2.cells) == pytest.approx((0.01, 0.02, 0.05), abs=1e-12)


class TestConditionalProfile:
    def test_case_study_1(self, case1):
        profile = conditional_profile(case1)
        assert profile == pytest.approx((0.10, 0.50, 0.50, 0.90), abs=1e-12)
        assert type(profile) is tuple and all(type(q) is float for q in profile)

    def test_case_study_2_matches_linear_solve(self, case2):
        """Re-derive the profile from the defining constraints, independently.

        The conclusion-true masses are pinned linearly by the case's
        conditionals: x_tt by P(C|E1,E2) = .95 on the (T,T) row, the
        single-evidence rows by P(C|E1) = .60 and P(C|E2) = .70, and the
        last row by the prior P(C) = .05.
        """
        x_tt = 0.95 * (0.01 * 0.02)
        x_tf = 0.60 * 0.01 - x_tt
        x_ft = 0.70 * 0.02 - x_tt
        x_ff = 0.05 - x_tt - x_tf - x_ft
        expected = (
            x_ff / (0.99 * 0.98),
            x_ft / (0.99 * 0.02),
            x_tf / (0.01 * 0.98),
            0.95,
        )
        profile = conditional_profile(case2)
        assert profile == pytest.approx(expected, abs=1e-12)
        # Frozen values of that solve, for reference elsewhere.
        assert profile == pytest.approx(
            (0.0311172954030097, 0.6974747474747475, 0.5928571428571429, 0.95),
            abs=1e-12,
        )

    def test_zero_marginal_raises(self):
        cells = [0.0] * 8
        cells[cell_index(False, False, False)] = 0.5
        cells[cell_index(True, True, True)] = 0.5
        with pytest.raises(ZeroMarginalError):
            conditional_profile(JointTable(tuple(cells)))

    def test_constant_profile_when_conclusion_independent(self):
        table = compose_table((0.24, 0.16, 0.36, 0.24), (0.3, 0.3, 0.3, 0.3))
        profile = conditional_profile(table)
        assert profile == pytest.approx((0.3,) * 4, abs=1e-12)


class TestNetworkView:
    def test_case_study_1(self, case1):
        view = network_view(case1)
        assert view.p_c == pytest.approx(0.5, abs=1e-12)
        assert view.p_e == pytest.approx((0.5, 0.5), abs=1e-12)
        assert view.p_c_given_e == pytest.approx((0.7, 0.7), abs=1e-12)
        assert view.p_c_given_not_e == pytest.approx((0.3, 0.3), abs=1e-12)

    def test_case_study_2(self, case2):
        view = network_view(case2)
        assert view.p_c == pytest.approx(0.05, abs=1e-12)
        assert view.p_e == pytest.approx((0.01, 0.02), abs=1e-12)
        assert view.p_c_given_e == pytest.approx((0.60, 0.70), abs=1e-12)

    @given(raw=positive_cells)
    @settings(max_examples=100, deadline=None)
    def test_total_probability_identity(self, raw):
        """P(C) must equal the base-rate mixture of each link's conditionals."""
        table = normalized_table(raw)
        view = network_view(table)
        for i in range(2):
            mixed = view.p_c_given_e[i] * view.p_e[i] + view.p_c_given_not_e[i] * (
                1.0 - view.p_e[i]
            )
            assert mixed == pytest.approx(view.p_c, abs=1e-9)

    def test_degenerate_base_rate_raises(self):
        cells = [0.0] * 8
        cells[cell_index(True, False, False)] = 0.4
        cells[cell_index(True, True, True)] = 0.6
        with pytest.raises(DegenerateBaseRateError):
            network_view(JointTable(tuple(cells)))


class TestComposeTable:
    @given(raw=positive_cells)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, raw):
        """(pair marginals, profile) is a lossless factorization of the cells."""
        table = normalized_table(raw)
        rebuilt = compose_table(pair_masses(table.cells), conditional_profile(table))
        assert rebuilt.cells == pytest.approx(table.cells, abs=1e-12)

    def test_independent_mixture_identity(self):
        """On a product table, P(C|E_i) is the partner-weighted profile mixture."""
        p_e1, p_e2 = 0.3, 0.65
        marginals = (
            (1 - p_e1) * (1 - p_e2),
            (1 - p_e1) * p_e2,
            p_e1 * (1 - p_e2),
            p_e1 * p_e2,
        )
        profile = (0.1, 0.4, 0.55, 0.8)
        table = compose_table(marginals, profile, kind="independent")
        view = network_view(table)
        expected_e1 = profile[2] * (1 - p_e2) + profile[3] * p_e2
        expected_e2 = profile[1] * (1 - p_e1) + profile[3] * p_e1
        assert view.p_c_given_e == pytest.approx((expected_e1, expected_e2), abs=1e-12)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            compose_table((0.5, 0.5), (0.1, 0.2, 0.3, 0.4))


class TestValidate:
    def test_case_studies_valid(self, case1, case2):
        assert validate(case1) == ()
        assert validate(case2) == ()

    def test_negative_cell(self):
        cells = list(UNIFORM.cells)
        cells[3] = -0.125
        cells[4] = 0.375
        assert "cell 3 is negative: -0.125" in validate(JointTable(tuple(cells)))

    def test_not_normalized_lists_the_sum(self):
        issues = validate(JointTable((0.1125,) * 8))
        bad = [message for message in issues if issue_kind(message) == "not-normalized"]
        assert len(bad) == 1
        assert "0.9" in bad[0]

    def test_independence_tag_mismatch(self, case1):
        # Case study 1's cells are genuinely independent; the same cells with
        # mass shifted between evidence states are not.
        cells = list(case1.cells)
        cells[0] += 0.05
        cells[7] -= 0.05
        issues = validate(JointTable(tuple(cells), kind="independent"))
        assert "independence-mismatch" in map(issue_kind, issues)
        # Without the tag the same cells pass.
        assert validate(JointTable(tuple(cells))) == ()

    def test_degenerate_marginal(self):
        # No mass at all on the (T, T) evidence state.
        cells = [0.0] * 8
        cells[cell_index(False, False, False)] = 0.4
        cells[cell_index(False, True, False)] = 0.3
        cells[cell_index(True, False, True)] = 0.3
        assert validate(JointTable(tuple(cells))) == (
            "evidence state (E1=True, E2=True) has probability 0.0, below 1e-09",
        )

    def test_non_finite(self):
        issues = validate(JointTable((math.nan,) + (0.125,) * 7))
        assert issues == ("cell 0 is not finite: nan",)

    def test_require_valid_raises_with_issues(self):
        cells = [0.1125] * 8
        cells[2] = -0.1125
        table = JointTable(tuple(cells))
        with pytest.raises(InvalidTableError) as excinfo:
            require_valid(table)
        assert str(excinfo.value) == (
            "invalid table: cell 2 is negative: -0.1125; "
            "cells sum to 0.675, expected 1 within 1e-12; "
            "evidence state (E1=False, E2=True) has probability 0.0, below 1e-09"
        )
        assert str(excinfo.value) == "invalid table: " + "; ".join(validate(table))


#: The kind of each of validate's messages, told by its opening words.
ISSUE_KINDS = {
    "non-finite": r"cell \d is not finite: ",
    "negative-cell": r"cell \d is negative: ",
    "not-normalized": r"cells sum to ",
    "independence-mismatch": r"kind=independent but P\(E1=",
    "degenerate-marginal": r"evidence state \(E1=",
}


def issue_kind(message: str) -> str:
    (kind,) = [kind for kind, opening in ISSUE_KINDS.items() if re.match(opening, message)]
    return kind


def scalar_validate(table: JointTable) -> list[str]:
    """Reference validator: the one-table loop the array checks replaced."""
    issues = []
    cells = table.as_array()
    if not np.all(np.isfinite(cells)):
        bad = int(np.flatnonzero(~np.isfinite(cells))[0])
        return [f"cell {bad} is not finite: {cells[bad]!r}"]
    for i, value in enumerate(cells):
        if value < 0.0:
            issues.append(f"cell {i} is negative: {value!r}")
    total = float(cells.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        issues.append(f"cells sum to {total!r}, expected 1 within {NORMALIZATION_TOL}")
    if table.kind == "independent":
        p_e1 = float(cells[MASK_E1].sum())
        p_e2 = float(cells[MASK_E2].sum())
        rate = {True: p_e1, False: 1.0 - p_e1}, {True: p_e2, False: 1.0 - p_e2}
        for (a, b), mass in zip(EVIDENCE_STATES, pair_masses(table.cells).tolist()):
            deviation = abs(mass - rate[0][a] * rate[1][b])
            if deviation > INDEPENDENCE_TOL:
                issues.append(
                    f"kind=independent but P(E1={a}, E2={b}) deviates from "
                    f"the product of base rates by {deviation!r}"
                )
    for (a, b), mass in zip(EVIDENCE_STATES, pair_masses(table.cells).tolist()):
        if mass < MARGINAL_FLOOR:
            issues.append(
                f"evidence state (E1={a}, E2={b}) has probability {mass!r}, "
                f"below {MARGINAL_FLOOR}"
            )
    return issues


def plain_reprs(issues: list[str]) -> list[str]:
    """The reference's messages with numpy scalar reprs printed as plain floats."""
    return [re.sub(r"np\.float64\((.*?)\)", r"\1", message) for message in issues]


@st.composite
def edge_tables(draw) -> JointTable:
    """Independent-looking tables pushed onto one of validate's tolerance edges."""
    p_e1, p_e2 = draw(st.floats(0.001, 0.999)), draw(st.floats(0.001, 0.999))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    masses = ((1 - p_e1) * (1 - p_e2), (1 - p_e1) * p_e2, p_e1 * (1 - p_e2), p_e1 * p_e2)
    cells = list(compose_table(masses, fractions).cells)
    edge = draw(st.sampled_from(("total", "independence", "floor", "negative", "non-finite")))
    if edge == "total":
        # Land the eight-cell sum on 1 - 1e-12, 1 or 1 + 1e-12, give or take ulps.
        target = 1.0 + draw(st.sampled_from((-NORMALIZATION_TOL, 0.0, NORMALIZATION_TOL)))
        k = cells.index(max(cells))
        cells[k] += target - float(np.array(cells).sum())
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            cells[k] = math.nextafter(cells[k], math.copysign(math.inf, ulps))
    elif edge == "independence":
        # Move mass between two cells of different evidence states.
        i, j = draw(st.sampled_from([(i, j) for i in range(8) for j in range(8) if i // 2 != j // 2]))
        delta = INDEPENDENCE_TOL * draw(st.floats(0.25, 4.0))
        cells[i] += delta
        cells[j] -= delta
    elif edge == "floor":
        # One evidence state with mass near the floor, the rest rescaled.
        state = draw(st.integers(0, 3))
        mass = MARGINAL_FLOOR * draw(st.sampled_from((1.0, 0.5, 2.0)) | st.floats(0.9, 1.1))
        q = draw(st.floats(0.0, 1.0))
        f, t = PAIR_CELLS[state]
        rest = sum(cells) - cells[f] - cells[t]
        cells = [v * (1.0 - mass) / rest for v in cells]
        cells[f], cells[t] = mass * (1.0 - q), mass * q
    elif edge == "negative":
        cells[draw(st.integers(0, 7))] = -draw(st.floats(0.0, 0.1))
    else:
        cells[draw(st.integers(0, 7))] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    return JointTable(tuple(cells), kind=draw(st.sampled_from(KINDS)))


class TestArrayValidation:
    """validate and check_cells against the one-table reference loop."""

    @settings(max_examples=400, deadline=None)
    @given(edge_tables())
    def test_validate_matches_the_reference(self, table):
        assert validate(table) == tuple(plain_reprs(scalar_validate(table)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(edge_tables(), min_size=1, max_size=12))
    def test_batch_decisions_match_the_reference(self, tables):
        checks = check_cells(
            np.array([t.cells for t in tables]),
            np.array([t.kind == "independent" for t in tables]),
        )
        assert checks.ok.tolist() == [not scalar_validate(t) for t in tables]

    def test_edge_cases_are_drawn_on_both_sides(self):
        # The strategy must reach every issue code, valid tables included.
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(edge_tables())
        def collect(table):
            issues = scalar_validate(table)
            seen.update(map(issue_kind, issues))
            if not issues:
                seen.add("ok")

        collect()
        assert seen == {
            "ok",
            "non-finite",
            "negative-cell",
            "not-normalized",
            "independence-mismatch",
            "degenerate-marginal",
        }

    def test_messages_print_plain_floats(self):
        cells = [0.125] * 8
        cells[1] = -0.1
        assert validate(JointTable(tuple(cells)))[0] == "cell 1 is negative: -0.1"
        cells[1] = math.nan
        assert validate(JointTable(tuple(cells))) == ("cell 1 is not finite: nan",)


cell_values = st.sampled_from((0.0, -0.0, 1.0)) | st.floats(-0.5, 1.0, allow_nan=False)

#: (N, 8) cell arrays, unnormalized, with exact (and negative) zeros.
cell_arrays = st.lists(
    st.lists(cell_values, min_size=8, max_size=8), min_size=1, max_size=20
).map(lambda rows: np.array(rows, dtype=float))


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns: tells -0.0 from 0.0."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def linkable(cells: np.ndarray) -> np.ndarray:
    """Rows whose link conditionals are defined: 0 < P(E1), P(E2) < 1."""
    p_e1, p_e2, _ = rates(cells)
    return (0.0 < p_e1) & (p_e1 < 1.0) & (0.0 < p_e2) & (p_e2 < 1.0)


class TestLayoutHelpers:
    """The array helpers against the MASK_* sums and PAIR_CELLS arithmetic
    of one table at a time."""

    @settings(max_examples=200, deadline=None)
    @given(cell_arrays)
    def test_rates_and_pair_masses_match_the_masked_sums(self, cells):
        p_e1, p_e2, p_c = rates(cells)
        masses = pair_masses(cells)
        true_cells = conclusion_cells(cells)
        for k, row in enumerate(cells):
            for mask, rate in ((MASK_E1, p_e1), (MASK_E2, p_e2), (MASK_C, p_c)):
                assert same_bits(rate[k], row[mask].sum())
            assert same_bits(masses[k], [row[f] + row[t] for f, t in PAIR_CELLS])
            assert same_bits(true_cells[k], [row[t] for _, t in PAIR_CELLS])

    @settings(max_examples=200, deadline=None)
    @given(cell_arrays)
    def test_conditional_profiles_match_the_one_state_division(self, cells):
        """Each state's conclusion-true cell over its pair mass, 0.0 where
        that mass is not positive; ``conditional_profile`` gives the same
        floats for a table with mass on every state and refuses any other."""
        profiles = conditional_profiles(cells)
        for k, row in enumerate(cells.tolist()):
            masses = [row[f] + row[t] for f, t in PAIR_CELLS]
            expected = [row[t] / m if m > 0.0 else 0.0 for m, (_, t) in zip(masses, PAIR_CELLS)]
            assert same_bits(profiles[k], expected)
            if min(masses) > 0.0:
                assert same_bits(conditional_profile(JointTable(tuple(row))), expected)
            else:
                with pytest.raises(ZeroMarginalError):
                    conditional_profile(JointTable(tuple(row)))

    @settings(max_examples=200, deadline=None)
    @given(cell_arrays)
    def test_link_conditionals_match_the_masked_sums(self, cells):
        with np.errstate(divide="ignore", invalid="ignore"):
            conditionals = np.stack(link_conditionals(cells), axis=-1)
        for k in np.flatnonzero(linkable(cells)).tolist():
            row = cells[k]
            p_e1, p_e2 = float(row[MASK_E1].sum()), float(row[MASK_E2].sum())
            expected = (
                float(row[MASK_E1 & MASK_C].sum()) / p_e1,
                float(row[~MASK_E1 & MASK_C].sum()) / (1.0 - p_e1),
                float(row[MASK_E2 & MASK_C].sum()) / p_e2,
                float(row[~MASK_E2 & MASK_C].sum()) / (1.0 - p_e2),
            )
            assert same_bits(conditionals[k], expected)

    @settings(max_examples=100, deadline=None)
    @given(cell_arrays)
    def test_one_table_calls_match_the_sweep_broadcast(self, cells):
        # study.sweep reads every network as a (N, 1, 1, 8) array.
        tables = cells.reshape(-1, 1, 1, 8)
        p_e1, p_e2, p_c = (rate.ravel() for rate in rates(tables))
        with np.errstate(divide="ignore", invalid="ignore"):
            given_e1, given_not_e1, given_e2, given_not_e2 = (
                value.ravel() for value in link_conditionals(tables)
            )
        ok = linkable(cells)
        for k, row in enumerate(cells):
            table = JointTable(tuple(row))
            assert same_bits(rates(table.cells), (p_e1[k], p_e2[k], p_c[k]))
            if not ok[k]:
                with pytest.raises(DegenerateBaseRateError):
                    network_view(table)
                continue
            view = network_view(table)
            assert same_bits(view.p_c, p_c[k])
            assert same_bits(view.p_e, (p_e1[k], p_e2[k]))
            assert same_bits(view.p_c_given_e, (given_e1[k], given_e2[k]))
            assert same_bits(view.p_c_given_not_e, (given_not_e1[k], given_not_e2[k]))

    @settings(max_examples=100, deadline=None)
    @given(cell_arrays, cell_arrays)
    def test_builders_place_cells_by_pair_cells(self, masses, profile):
        masses, profile = masses[:, :4], profile[:1, 4:]
        cells = compose_cells(masses, profile)
        scaled = scale_pairs(cells, masses)
        products = product_masses(masses[:, 0], masses[:, 1])
        for k, mass in enumerate(masses):
            p_e1, p_e2 = float(mass[0]), float(mass[1])
            expected_products = (
                (1.0 - p_e1) * (1.0 - p_e2), (1.0 - p_e1) * p_e2, p_e1 * (1.0 - p_e2), p_e1 * p_e2
            )
            assert same_bits(products[k], expected_products)
            for state, (f, t) in enumerate(PAIR_CELLS):
                q = float(profile[0, state])
                assert same_bits(cells[k, t], mass[state] * q)
                assert same_bits(cells[k, f], mass[state] * (1.0 - q))
                assert same_bits(scaled[k, [f, t]], cells[k, [f, t]] * mass[state])

    def test_margin_cells_split_by_the_masks(self):
        halves = margin_halves(np.arange(8)[:, None])
        masks = (MASK_E1, MASK_E2, MASK_C)
        for (true, false), (true_cells, false_cells), mask in zip(halves, samplers._MARGINS, masks):
            assert true.ravel().tolist() == true_cells == np.flatnonzero(mask).tolist()
            assert false.ravel().tolist() == false_cells == np.flatnonzero(~mask).tolist()


class TestClosedFormRefusals:
    @settings(max_examples=400, deadline=None)
    @given(edge_tables())
    def test_refuses_exactly_the_independence_mismatches(self, table):
        claimed = JointTable(table.cells, kind="independent")
        kinds = set(map(issue_kind, validate(claimed)))
        if kinds & {"non-finite", "negative-cell", "not-normalized"}:
            with pytest.raises(InvalidTableError):
                independent_closed_form(table, EvidenceUpdate(0.5, 0.5))
            return
        try:
            independent_closed_form(table, EvidenceUpdate(0.5, 0.5))
            refused = False
        except NotIndependentError:
            refused = True
        except InfeasibleUpdateError:
            refused = False
        assert refused == ("independence-mismatch" in kinds)


class TestNetworkFiles:
    def test_round_trip_is_exact(self, tmp_path, rng):
        tables = []
        for i in range(5):
            raw = rng.uniform(0.01, 1.0, 8)
            tables.append(
                JointTable(
                    tuple(raw / raw.sum()),
                    kind="associated",
                    provenance=Provenance(seed=9, index=i, resamples=1),
                )
            )
        path = tmp_path / "nets.json"
        save_networks(tables, path)
        loaded = load_networks(path)
        assert len(loaded) == 5
        for original, read in zip(tables, loaded):
            assert read.cells == original.cells  # bitwise: 17 digits round-trip
            assert read.kind == original.kind
            assert read.provenance == original.provenance

    def test_serialization_is_deterministic(self, case1, case2):
        batch = NetworkBatch.of([case1, case2])
        assert batch.to_json() == NetworkBatch.of([case1, case2]).to_json()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_networks(tmp_path / "absent.json")


class TestProvenance:
    """A provenance holds only what a network file and a report can write
    and read back: Python ints."""

    @pytest.mark.parametrize("field", ["seed", "index", "resamples"])
    @pytest.mark.parametrize(
        "value", ["x", "3", True, False, np.True_, 1.5, 2.0, np.float64(2.0), None, [1]]
    )
    def test_non_integers_are_refused(self, field, value):
        given = {"seed": 1, "index": 2, "resamples": 0, field: value}
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            Provenance(**given)

    @pytest.mark.parametrize(
        "fields",
        [
            (np.int64(-3), np.uint64(2**64 - 1), np.int8(7)),
            (2**64, 2**70 + 1, 0),
            (-1, -(2**65), 2**64 - 1),
        ],
        ids=["numpy", "past-2**64", "negative"],
    )
    def test_integers_are_stored_as_python_ints_and_read_back(self, fields):
        provenance = Provenance(*fields)
        stored = (provenance.seed, provenance.index, provenance.resamples)
        assert [type(v) for v in stored] == [int, int, int]
        assert stored == tuple(int(v) for v in fields)

        table = JointTable(
            compose_table((0.25,) * 4, (0.2, 0.4, 0.5, 0.8)).cells,
            kind="associated",
            provenance=provenance,
        )
        (read,) = NetworkBatch.from_json(NetworkBatch.of([table]).to_json()).tables()
        assert read.provenance == provenance
        report = build_report(evaluate_tables([table]), {"associated": 1})
        (network,) = json.loads(report_json_text(report))["networks"]
        assert tuple(network["provenance"].values()) == stored


#: Cells at the edges of the float renderer: zeros, the smallest subnormal,
#: a value below its fast path, one and the largest decade.
FILE_CELLS = (0.0, -0.0, 5e-324, 1e-5, 1.0, 1e308, 0.25, -0.5)

#: Provenance at and past 2**64, negative, and absent.
FILE_PROVENANCE = (
    Provenance(seed=2**64, index=2**70 + 1, resamples=3),
    None,
    Provenance(seed=0, index=-7, resamples=2**64 - 1),
    None,
    Provenance(seed=30, index=4, resamples=0),
)


def file_tables(poison=()) -> list[JointTable]:
    """One table per (kind, provenance) pair, each a rotation of FILE_CELLS,
    with (table, cell, value) of ``poison`` written in."""
    tables = []
    for i, (kind, provenance) in enumerate(
        (kind, provenance) for kind in KINDS for provenance in FILE_PROVENANCE
    ):
        cells = list(FILE_CELLS[i % 8 :] + FILE_CELLS[: i % 8])
        for table, cell, value in poison:
            if table == i:
                cells[cell] = value
        tables.append(JointTable(tuple(cells), kind=kind, provenance=provenance))
    return tables


def reference_network_file(tables) -> str:
    """The network file written leaf by leaf."""
    entries = [
        {
            "kind": table.kind,
            "provenance": None if table.provenance is None else vars(table.provenance),
            "cells": list(table.cells),
        }
        for table in tables
    ]
    return json_reference.dumps({"networks": entries})


class TestNetworkFileWriter:
    """``NetworkBatch.to_json`` renders the entries from their columns; the
    leaf-by-leaf reference writes the same bytes and refuses the same
    values."""

    def test_matches_the_reference(self):
        tables = file_tables()
        text = NetworkBatch.of(tables).to_json()
        assert text == reference_network_file(tables)
        assert NetworkBatch.from_json(text).tables() == tables
        assert NetworkBatch.of([]).to_json() == reference_network_file([]) == '{\n  "networks": []\n}\n'
        for kind in KINDS:  # every row of one layout
            subset = [t for t in tables if t.kind == kind and t.provenance is None]
            assert NetworkBatch.of(subset).to_json() == reference_network_file(subset)

    @pytest.mark.parametrize(
        "poison",
        [
            [(3, 5, math.nan)],
            [(2, 7, math.inf), (3, 0, math.nan)],
            [(4, 6, -math.inf), (4, 2, math.nan)],
            [(14, 0, math.nan), (14, 1, math.inf)],
        ],
        ids=["nan", "earlier-table-first", "earlier-cell-first", "last-table"],
    )
    def test_raises_at_the_first_non_finite_cell(self, poison):
        tables = file_tables(poison)
        with pytest.raises(ValueError) as expected:
            reference_network_file(tables)
        assert str(expected.value).startswith("non-finite value cannot be serialized")
        with pytest.raises(ValueError) as excinfo:
            NetworkBatch.of(tables).to_json()
        assert str(excinfo.value) == str(expected.value)


#: Any JSON value, NaN and infinities included (Python's json writes and
#: reads them).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)

#: Network-file-shaped documents, so the checks past the top level are reached.
network_entries = st.fixed_dictionaries(
    {"cells": st.lists(st.floats() | st.integers(), min_size=7, max_size=9) | json_values},
    optional={
        "kind": st.sampled_from(KINDS) | json_values,
        "provenance": st.fixed_dictionaries(
            {"seed": st.integers(), "index": st.integers()},
            optional={"resamples": st.integers() | json_values},
        )
        | json_values,
    },
)
network_documents = st.fixed_dictionaries(
    {"networks": st.lists(network_entries | json_values, max_size=3) | json_values}
)


def tables_or_invalid(text: str) -> None:
    """The loader either returns tables or raises InvalidTableError."""
    try:
        tables = NetworkBatch.from_json(text).tables()
    except InvalidTableError:
        return
    assert all(isinstance(table, JointTable) for table in tables)


class TestLoaderFuzzing:
    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        tables_or_invalid(text)

    @settings(max_examples=200, deadline=None)
    @given(json_values | network_documents)
    def test_arbitrary_documents(self, document):
        tables_or_invalid(json.dumps(document))

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(("independent", "associated")),
        st.integers(1, 4),
        st.integers(0, 2**64 - 1),
    )
    def test_generated_tables_round_trip(self, kind, count, seed):
        tables = generate(GenerationConfig(count=count, seed=seed, kind=kind))
        assert NetworkBatch.from_json(NetworkBatch.of(tables).to_json()).tables() == tables

    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8),
                st.sampled_from(KINDS),
            ),
            max_size=4,
        )
    )
    def test_tables_without_provenance_round_trip(self, drawn):
        tables = [JointTable(tuple(cells), kind=kind) for cells, kind in drawn]
        assert NetworkBatch.from_json(NetworkBatch.of(tables).to_json()).tables() == tables


#: Floats at the edges of the renderer, and any other finite float.
batch_floats = st.sampled_from([0.0, -0.0, 5e-324, 1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)
batch_ints = st.integers() | st.sampled_from([2**64, 2**70 + 1, -1, -(2**65)])
hand_built = st.builds(
    JointTable,
    st.tuples(*[batch_floats] * 8),
    st.sampled_from(KINDS),
    st.none() | st.builds(Provenance, batch_ints, batch_ints, batch_ints),
)
sampled = st.builds(
    GenerationConfig,
    count=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
    kind=st.sampled_from(["independent", "associated"]),
).map(generate)
#: Generated and hand-built tables, interleaved.
table_lists = st.lists(sampled | hand_built.map(lambda table: [table]), max_size=5).map(
    lambda parts: [table for part in parts for table in part]
)


def bits(batch: NetworkBatch) -> tuple:
    """The columns of a batch, cells bit for bit and fields with their types."""
    provenance = [(type(v), v) for v in batch.provenance.ravel().tolist()]
    return batch.cells.tobytes(), batch.cells.shape, batch.kinds.tolist(), provenance


def batch_or_message(text: str):
    try:
        return bits(NetworkBatch.from_json(text))
    except InvalidTableError as exc:
        return str(exc)


def reference_tables(text: str) -> list[JointTable]:
    """A network file read one entry at a time into JointTables: the
    reader's checks and messages, stated independently of NetworkBatch."""
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidTableError(f"network file is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or "networks" not in document:
        raise InvalidTableError('network file must be an object with a "networks" list')
    if not isinstance(document["networks"], list):
        raise InvalidTableError('"networks" must be a list')
    tables = []
    for i, entry in enumerate(document["networks"]):
        if not isinstance(entry, dict) or "cells" not in entry:
            raise InvalidTableError(f'network {i} must be an object with "cells"')
        cells, raw = entry["cells"], entry.get("provenance")
        if type(cells) is not list or any(type(v) not in (int, float) for v in cells):
            raise InvalidTableError(f'network {i}: "cells" must be a list of numbers')
        if raw is not None and type(raw) is not dict:
            raise InvalidTableError(f'network {i}: "provenance" must be an object or null')
        try:
            provenance = None if raw is None else Provenance(
                raw.get("seed"), raw.get("index"), raw.get("resamples", 0)
            )
        except ValueError:
            raise InvalidTableError(
                f'network {i}: provenance needs integer "seed", "index" and "resamples" '
                f"(0 if absent), got {raw!r}"
            ) from None
        try:
            tables.append(JointTable(tuple(cells), entry.get("kind", "unspecified"), provenance))
        except (InvalidTableError, OverflowError) as exc:
            raise InvalidTableError(f"network {i}: {exc}") from exc
    return tables


def tables_or_message(text: str):
    try:
        return bits(NetworkBatch.of(reference_tables(text)))
    except InvalidTableError as exc:
        return str(exc)


class TestNetworkBatch:
    """A batch holds its tables' columns; the network file reads into it
    with the cells, kinds, provenance and error messages of a reference
    reader that builds one JointTable per entry."""

    @settings(max_examples=100, deadline=None)
    @given(table_lists)
    def test_round_trip(self, tables):
        batch = NetworkBatch.of(tables)
        assert len(batch) == len(tables)
        assert [batch[k] for k in range(len(batch))] == batch.tables() == tables
        assert bits(NetworkBatch.of(batch.tables())) == bits(batch)
        text = NetworkBatch.of(tables).to_json()
        assert batch.to_json() == text
        read = NetworkBatch.from_json(text)
        # Bit for bit, so a -0.0 cell reads back as -0.0.
        assert bits(read) == tables_or_message(text) == bits(batch)
        assert read.tables() == tables

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            '{"something": []}',
            '{"networks": [{"kind": "associated"}]}',
            '{"networks": [' + "1" * 5000 + "]}",
            '{"networks": [{"cells": "abcdefgh"}]}',
            '{"networks": [{"cells": [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, "x"]}]}',
            '{"networks": [{"cells": CELLS, "provenance": {"seed": 1}}]}',
            '{"networks": [{"cells": CELLS, "provenance": 5}]}',
            '{"networks": [{"cells": CELLS, "provenance": {"seed": 1, "index": 2.5}}]}',
            '{"networks": [{"cells": CELLS}, {"cells": CELLS, "kind": "dependent"}]}',
            '{"networks": [{"cells": CELLS}, {"cells": [' + "9" * 400 + ', 0, 0, 0, 0, 0, 0, 0]}]}',
            '{"networks": [{"cells": CELLS, "provenance": {"seed": 1, "index": true}}]}',
            '{"networks": [{"cells": [true, 0, 0, 0, 0, 0, 0, 0]}]}',
            '{"networks": [{"cells": CELLS}, {"cells": [0.5, 0.5]}]}',
            '{"networks": [{"cells": 5}]}',
            '{"networks": [{"cells": [' + "9" * 400 + ', 0, 0, 0, 0, 0, 0], "kind": "x"}]}',
            '{"networks": [{"cells": [1, 0, 0, 0, 0, 0, 0], "kind": "dependent"}]}',
            '{"networks": [{"cells": CELLS, "kind": ["independent"]}]}',
            '{"networks": [{"cells": CELLS, "kind": "dependent", "provenance": 5}]}',
            '{"networks": [{"cells": [1, 0, 0, 0, 0, 0, 0, 0]}, {"cells": [0.5]}]}',
        ],
    )
    def test_malformed_documents_raise_the_per_entry_message(self, text):
        text = text.replace("CELLS", json.dumps([0.125] * 8))
        with pytest.raises(InvalidTableError) as expected:
            reference_tables(text)
        with pytest.raises(InvalidTableError) as excinfo:
            NetworkBatch.from_json(text)
        assert str(excinfo.value) == str(expected.value)

    @settings(max_examples=200, deadline=None)
    @given(json_values | network_documents)
    def test_arbitrary_documents_read_as_the_per_entry_reader_reads_them(self, document):
        text = json.dumps(document)
        assert batch_or_message(text) == tables_or_message(text)

    @pytest.mark.parametrize(
        "rows",
        [
            slice(2, 9),
            slice(None, None, -4),
            slice(20, None),
            np.array([4, 0, 4, 14]),
            np.array([], dtype=int),
            np.array([-1, 10]),
            [3, 11],
        ],
        ids=["slice", "reversed-step", "past-the-end", "repeats", "empty", "negative", "list"],
    )
    def test_slices_and_index_arrays_select_a_batch(self, rows):
        tables = file_tables()
        batch = NetworkBatch.of(tables)
        part = batch[rows]
        assert isinstance(part, NetworkBatch)
        indices = range(len(tables))[rows] if isinstance(rows, slice) else list(rows)
        assert part.tables() == [tables[k] for k in indices]
        assert bits(part) == bits(NetworkBatch.of(part.tables()))
        if not isinstance(rows, slice):
            assert [part[k] for k in range(len(rows))] == [batch[rows[k]] for k in range(len(rows))]

    def test_negative_ints_count_from_the_end(self):
        tables = file_tables()
        batch = NetworkBatch.of(tables)
        assert [batch[k] for k in range(-len(tables), 0)] == tables
        for k in (len(tables), -len(tables) - 1):
            with pytest.raises(IndexError):
                batch[k]

    def test_kinds_by_name_mask_and_count(self):
        tables = file_tables()  # five of each kind, in KINDS order
        batch = NetworkBatch.of(tables)
        assert batch.kind_names() == [table.kind for table in tables]
        masks = batch.kind_masks()
        assert list(masks) == list(KINDS)
        for kind, mask in masks.items():
            assert mask.tolist() == [table.kind == kind for table in tables]
        assert list(batch.kind_counts().items()) == [(kind, 5) for kind in KINDS]
        # Counted in KINDS order whatever the row order; absent kinds left out.
        mixed = batch[np.array([14, 0, 7, 1])]
        assert list(mixed.kind_counts().items()) == [
            ("independent", 2), ("associated", 1), ("unspecified", 1)
        ]
        assert batch[5:10].kind_counts() == {"associated": 5}
        assert NetworkBatch.of([]).kind_counts() == {}
