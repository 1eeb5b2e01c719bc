import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prospector_eval import (
    ConditionalProfile,
    InvalidTableError,
    JointTable,
    Provenance,
    ZeroMarginalError,
    base_rates,
    compose_table,
    conditional_profile,
    network_view,
    validate,
)
from prospector_eval.errors import DegenerateBaseRateError
from prospector_eval.table import (
    EVIDENCE_STATES,
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
