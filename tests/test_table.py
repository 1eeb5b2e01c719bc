import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prospector_eval import (
    ConditionalProfile,
    GenerationConfig,
    InvalidTableError,
    JointTable,
    Provenance,
    ZeroMarginalError,
    base_rates,
    compose_table,
    conditional_profile,
    generate,
    network_view,
    validate,
)
from prospector_eval.errors import DegenerateBaseRateError
from prospector_eval.table import (
    EVIDENCE_STATES,
    INDEPENDENCE_TOL,
    KINDS,
    MARGINAL_FLOOR,
    NORMALIZATION_TOL,
    ValidationIssue,
    check_cells,
    MASK_C,
    MASK_E1,
    MASK_E2,
    PAIR_CELLS,
    cell_index,
    load_networks,
    networks_from_json,
    networks_to_json,
    require_valid,
    save_networks,
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

    def test_cell_accessor(self, case1):
        assert case1.cell(False, False, False) == case1.cells[0]
        assert case1.cell(True, True, True) == case1.cells[7]

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidTableError):
            JointTable((0.5, 0.5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidTableError):
            JointTable((0.125,) * 8, kind="mystery")


class TestBaseRates:
    def test_case_study_1(self, case1):
        assert base_rates(case1) == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)

    def test_uniform(self):
        assert base_rates(UNIFORM) == pytest.approx((0.5, 0.5, 0.5), abs=0)

    def test_point_mass(self):
        cells = [0.0] * 8
        cells[cell_index(True, True, True)] = 1.0
        assert base_rates(JointTable(tuple(cells))) == (1.0, 1.0, 1.0)

    def test_case_study_2(self, case2):
        assert base_rates(case2) == pytest.approx((0.01, 0.02, 0.05), abs=1e-12)


class TestConditionalProfile:
    def test_case_study_1(self, case1):
        profile = conditional_profile(case1)
        assert profile.as_tuple() == pytest.approx((0.10, 0.50, 0.50, 0.90), abs=1e-12)

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
        assert profile.as_tuple() == pytest.approx(expected, abs=1e-12)
        # Frozen values of that solve, for reference elsewhere.
        assert profile.as_tuple() == pytest.approx(
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
        assert profile.as_tuple() == pytest.approx((0.3,) * 4, abs=1e-12)


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
        rebuilt = compose_table(table.pair_marginals(), conditional_profile(table).as_tuple())
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
        assert validate(case1).ok
        assert validate(case2).ok

    def test_negative_cell(self):
        cells = list(UNIFORM.cells)
        cells[3] = -0.125
        cells[4] = 0.375
        report = validate(JointTable(tuple(cells)))
        assert any(issue.code == "negative-cell" for issue in report.issues)

    def test_not_normalized_lists_the_sum(self):
        report = validate(JointTable((0.1125,) * 8))
        bad = [issue for issue in report.issues if issue.code == "not-normalized"]
        assert len(bad) == 1
        assert "0.9" in bad[0].message

    def test_independence_tag_mismatch(self, case1):
        # Case study 1's cells are genuinely independent; the same cells with
        # mass shifted between evidence states are not.
        cells = list(case1.cells)
        cells[0] += 0.05
        cells[7] -= 0.05
        report = validate(JointTable(tuple(cells), kind="independent"))
        assert any(issue.code == "independence-mismatch" for issue in report.issues)
        # Without the tag the same cells pass.
        assert validate(JointTable(tuple(cells))).ok

    def test_degenerate_marginal(self):
        # No mass at all on the (T, T) evidence state.
        cells = [0.0] * 8
        cells[cell_index(False, False, False)] = 0.4
        cells[cell_index(False, True, False)] = 0.3
        cells[cell_index(True, False, True)] = 0.3
        report = validate(JointTable(tuple(cells)))
        assert not report.ok
        assert any(issue.code == "degenerate-marginal" for issue in report.issues)

    def test_non_finite(self):
        report = validate(JointTable((math.nan,) + (0.125,) * 7))
        assert [issue.code for issue in report.issues] == ["non-finite"]

    def test_require_valid_raises_with_issues(self):
        with pytest.raises(InvalidTableError) as excinfo:
            require_valid(JointTable((0.1125,) * 8))
        assert excinfo.value.issues


def scalar_validate(table: JointTable) -> list[ValidationIssue]:
    """Reference validator: the one-table loop the array checks replaced."""
    issues = []
    cells = table.as_array()
    if not np.all(np.isfinite(cells)):
        bad = int(np.flatnonzero(~np.isfinite(cells))[0])
        return [ValidationIssue("non-finite", f"cell {bad} is not finite: {cells[bad]!r}")]
    for i, value in enumerate(cells):
        if value < 0.0:
            issues.append(ValidationIssue("negative-cell", f"cell {i} is negative: {value!r}"))
    total = float(cells.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        issues.append(
            ValidationIssue(
                "not-normalized",
                f"cells sum to {total!r}, expected 1 within {NORMALIZATION_TOL}",
            )
        )
    if table.kind == "independent":
        p_e1 = float(cells[MASK_E1].sum())
        p_e2 = float(cells[MASK_E2].sum())
        rate = {True: p_e1, False: 1.0 - p_e1}, {True: p_e2, False: 1.0 - p_e2}
        for (a, b), mass in zip(EVIDENCE_STATES, table.pair_marginals()):
            deviation = abs(mass - rate[0][a] * rate[1][b])
            if deviation > INDEPENDENCE_TOL:
                issues.append(
                    ValidationIssue(
                        "independence-mismatch",
                        f"kind=independent but P(E1={a}, E2={b}) deviates from "
                        f"the product of base rates by {deviation!r}",
                    )
                )
    for (a, b), mass in zip(EVIDENCE_STATES, table.pair_marginals()):
        if mass < MARGINAL_FLOOR:
            issues.append(
                ValidationIssue(
                    "degenerate-marginal",
                    f"evidence state (E1={a}, E2={b}) has probability {mass!r}, "
                    f"below {MARGINAL_FLOOR}",
                )
            )
    return issues


def plain_reprs(issues: list[ValidationIssue]) -> list[ValidationIssue]:
    """The reference's issues with numpy scalar reprs printed as plain floats."""
    return [
        ValidationIssue(issue.code, re.sub(r"np\.float64\((.*?)\)", r"\1", issue.message))
        for issue in issues
    ]


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
        report = validate(table)
        expected = plain_reprs(scalar_validate(table))
        assert list(report.issues) == expected
        assert report.ok == (not expected)

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
            seen.update(issue.code for issue in issues)
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
        assert validate(JointTable(tuple(cells))).issues[0].message == (
            "cell 1 is negative: -0.1"
        )
        cells[1] = math.nan
        assert [issue.message for issue in validate(JointTable(tuple(cells))).issues] == [
            "cell 1 is not finite: nan"
        ]


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
        assert networks_to_json([case1, case2]) == networks_to_json([case1, case2])

    def test_rejects_malformed_documents(self):
        with pytest.raises(InvalidTableError):
            networks_from_json("not json at all")
        with pytest.raises(InvalidTableError):
            networks_from_json('{"something": []}')
        with pytest.raises(InvalidTableError):
            networks_from_json('{"networks": [{"kind": "associated"}]}')
        with pytest.raises(InvalidTableError, match="not valid JSON"):
            networks_from_json('{"networks": [' + "1" * 5000 + "]}")  # past int's digit limit

    @pytest.mark.parametrize(
        "entry",
        [
            '{"cells": "abcdefgh"}',
            '{"cells": [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, "x"]}',
            '{"cells": CELLS, "provenance": {"seed": 1}}',
            '{"cells": CELLS, "provenance": 5}',
            '{"cells": CELLS, "provenance": {"seed": 1, "index": 2.5}}',
        ],
        ids=["string-cells", "non-numeric-cell", "provenance-without-index",
             "provenance-not-an-object", "non-integer-provenance"],
    )
    def test_rejects_malformed_entries(self, entry):
        entry = entry.replace("CELLS", json.dumps([0.125] * 8))
        with pytest.raises(InvalidTableError, match="network 0"):
            networks_from_json('{"networks": [%s]}' % entry)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_networks(tmp_path / "absent.json")


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
        tables = networks_from_json(text)
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
        assert networks_from_json(networks_to_json(tables)) == tables

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
        assert networks_from_json(networks_to_json(tables)) == tables
