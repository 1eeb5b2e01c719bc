import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import json_reference
from prospector_eval import (
    ConditionalProfile,
    Diagnostics,
    EvidenceUpdate,
    GenerationConfig,
    JointTable,
    MonotonicityPattern,
    NetworkErrorSummary,
    NetworkEvaluation,
    Rule,
    StudyConfig,
    base_rates,
    compose_table,
    conditional_profile,
    diagnostics,
    generate,
    generate_associated,
    generate_independent,
    error_surface,
    evaluate_network,
    infer,
    monotonicity_pattern,
    network_view,
    run_study,
    summarize,
    validate,
)
from prospector_eval import cli, study
from prospector_eval.study import (
    DEFAULT_SEED,
    DEFAULT_UPDATE_GRID,
    GRID_FIFTH_VALUES,
    GRID_QUARTERS,
    RESULTS_HEADER,
    RULE_ORDER,
    EvaluationRecord,
    RuleStats,
    build_report,
    evaluate_tables,
    format_class_table,
    report_json_text,
    report_to_dict,
    results_csv_text,
    spearman_strength_error,
    surface_csv_text,
    sweep,
)
from prospector_eval import _serialize
from prospector_eval.errors import (
    DegenerateBaseRateError,
    InfeasibleUpdateError,
    InvalidTableError,
)
from prospector_eval.oracle import unreachable_message
from prospector_eval.table import MARGINAL_FLOOR, require_valid


def profile(q_ff, q_ft, q_tf, q_tt) -> ConditionalProfile:
    return ConditionalProfile(q_ff, q_ft, q_tf, q_tt)


class TestMonotonicityPattern:
    def test_increasing_profile(self):
        assert (
            monotonicity_pattern(profile(0.10, 0.50, 0.50, 0.90))
            is MonotonicityPattern.NONDECREASING
        )

    def test_decreasing_profile(self):
        assert (
            monotonicity_pattern(profile(0.90, 0.50, 0.50, 0.10))
            is MonotonicityPattern.NONINCREASING
        )

    def test_non_monotone_profile_rejected(self):
        assert (
            monotonicity_pattern(profile(0.10, 0.50, 0.50, 0.20))
            is MonotonicityPattern.REJECTED
        )

    def test_flat_profile_counts_as_nondecreasing(self):
        assert (
            monotonicity_pattern(profile(0.4, 0.4, 0.4, 0.4))
            is MonotonicityPattern.NONDECREASING
        )

    def test_e2_only_mode_is_weaker(self):
        """Monotone along E2 but not along E1: kept only by the weaker filter."""
        p = profile(0.10, 0.50, 0.05, 0.50)
        assert monotonicity_pattern(p) is MonotonicityPattern.REJECTED
        assert (
            monotonicity_pattern(p, mode="e2-only")
            is MonotonicityPattern.NONDECREASING
        )

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            monotonicity_pattern(profile(0.1, 0.2, 0.3, 0.4), mode="diagonal")


class TestEvaluateNetwork:
    def test_grid_sweep_shape_and_order(self, case1):
        records = evaluate_network(case1, network_id="cs1")
        assert len(records) == 25
        assert records[0].update.as_tuple() == (0.0, 0.0)
        assert records[1].update.as_tuple() == (0.0, 0.25)  # row-major in (e1, e2)
        assert records[-1].update.as_tuple() == (1.0, 1.0)
        assert all(r.network_id == "cs1" for r in records)

    def test_base_rate_update_has_zero_error_for_every_rule(self, case1):
        records = evaluate_network(case1)
        at_prior = [r for r in records if r.update.as_tuple() == (0.5, 0.5)]
        assert len(at_prior) == 1
        for rule in Rule:
            assert abs(at_prior[0].signed_error[rule]) <= 1e-12

    def test_certain_corner_values(self, case1):
        records = evaluate_network(case1)
        corner = [r for r in records if r.update.as_tuple() == (1.0, 1.0)][0]
        assert corner.answers[Rule.INDEPENDENT] == pytest.approx(49 / 58, abs=1e-12)
        assert corner.oracle == pytest.approx(0.9, abs=1e-12)
        assert corner.signed_error[Rule.INDEPENDENT] == pytest.approx(
            0.9 - 49 / 58, abs=1e-12
        )

    def test_first_unreachable_update_raises(self):
        """(E1, not E2) has no mass, so three updates of the grid are
        unreachable; the first in row-major order is named."""
        table = JointTable((0.489, 0.001, 0.25, 0.25, 0.0, 0.0, 0.005, 0.005))
        grid = (0.0, 0.5, 1.0)
        _, oracle = sweep([table.cells], grid)
        assert np.argwhere(np.isnan(oracle[0])).tolist() == [[1, 0], [2, 0], [2, 1]]
        with pytest.raises(InfeasibleUpdateError) as excinfo:
            evaluate_network(table, grid=grid)
        assert str(excinfo.value) == unreachable_message(0.5, 0.0)

    def test_symmetric_network_balances_signed_error(self, case1):
        """Case study 1 is symmetric under flipping all three variables, so
        the independent rule's signed errors cancel over the full grid."""
        summary = summarize(evaluate_network(case1))
        assert abs(summary.stats[Rule.INDEPENDENT].mean_signed) <= 1e-9


class TestSummarize:
    def test_case_study_1_statistics(self, case1):
        summary = summarize(evaluate_network(case1))
        independent = summary.stats[Rule.INDEPENDENT]
        assert summary.best is Rule.INDEPENDENT
        assert not summary.tie
        assert independent.mean_abs == pytest.approx(0.00997604, abs=5e-7)
        assert independent.max_abs == pytest.approx(8 / 145, abs=1e-12)
        for rule in Rule:
            stats = summary.stats[rule]
            assert stats.max_abs >= stats.mean_abs >= abs(stats.mean_signed)

    def test_handcrafted_arithmetic(self):
        def record(i, err):
            return EvaluationRecord(
                network_id="x",
                update=EvidenceUpdate(0.5, 0.5),
                answers={rule: 0.5 for rule in Rule},
                oracle=0.5 + err,
                signed_error={rule: err for rule in Rule},
            )

        records = [record(0, 0.0), record(1, 0.1), record(2, -0.3)]
        summary = summarize(records)
        stats = summary.stats[Rule.INDEPENDENT]
        assert stats.mean_signed == pytest.approx(-0.2 / 3, abs=1e-15)
        assert stats.mean_abs == pytest.approx(0.4 / 3, abs=1e-15)
        assert stats.max_abs == pytest.approx(0.3, abs=1e-15)

    def test_all_rules_exact_on_conclusion_independent_network(self):
        """A flat profile makes every rule exact, forcing a flagged tie that
        resolves to the independent rule.  Dyadic cell values keep every
        intermediate result exactly representable, so the errors are 0.0."""
        table = compose_table((0.25, 0.25, 0.25, 0.25), (0.5,) * 4)
        summary = summarize(evaluate_network(table))
        assert summary.best is Rule.INDEPENDENT
        assert summary.tie
        for rule in Rule:
            assert summary.stats[rule].max_abs == 0.0

    def test_empty_records_raise(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_non_finite_errors_raise_naming_the_network(self):
        """An unreachable update's NaN errors are refused; no best rule is
        picked through them."""
        records = [
            EvaluationRecord(
                network_id="x-7",
                update=EvidenceUpdate(0.5, u2),
                answers={rule: 0.5 for rule in Rule},
                oracle=oracle,
                signed_error={rule: oracle - 0.5 for rule in Rule},
            )
            for u2, oracle in ((0.0, 0.5), (1.0, math.nan))
        ]
        with pytest.raises(ValueError, match="network x-7: .*non-finite"):
            summarize(records)


class TestDiagnostics:
    def test_case_study_1_values(self, case1):
        d = diagnostics(case1)
        # Pooled conclusion mass outside (T,T): (.5 - .225) / (1 - .25)
        assert d.conjunctive_approximation == pytest.approx(0.275 / 0.75, abs=1e-12)
        assert d.conjunctive_spread == pytest.approx(0.4, abs=1e-12)
        assert d.conjunctive_fourth_gap == pytest.approx(0.9 - 1.1 / 3, abs=1e-12)
        assert d.disjunctive_approximation == pytest.approx(
            (0.125 + 0.125 + 0.225) / 0.75, abs=1e-12
        )
        assert d.disjunctive_spread == pytest.approx(0.4, abs=1e-12)
        assert d.disjunctive_fourth_gap == pytest.approx(1.9 / 3 - 0.1, abs=1e-12)
        assert d.associative_strength == pytest.approx(0.4, abs=1e-12)

    def test_case_study_2_strength(self, case2):
        assert diagnostics(case2).associative_strength == pytest.approx(
            0.95 - 0.5928571428571429, abs=1e-12
        )

    def test_flat_profile_scores_zero_everywhere(self):
        table = compose_table((0.25, 0.25, 0.25, 0.25), (0.5,) * 4)
        d = diagnostics(table)
        assert d.conjunctive_spread == 0.0
        assert d.disjunctive_spread == 0.0
        assert d.conjunctive_fourth_gap == 0.0
        assert d.disjunctive_fourth_gap == 0.0
        assert d.associative_strength == 0.0
        assert d.conjunctive_approximation == 0.5
        assert d.disjunctive_approximation == 0.5


class TestErrorSurface:
    def test_coarse_surface_shape_and_corners(self, case1):
        points = error_surface(case1, Rule.INDEPENDENT, 0.5)
        assert len(points) == 9
        by_update = {(p[0], p[1]): p[2] for p in points}
        assert by_update[(0.0, 0.0)] == pytest.approx(-(8 / 145), abs=1e-12)
        assert by_update[(1.0, 1.0)] == pytest.approx(8 / 145, abs=1e-12)
        assert by_update[(0.5, 0.5)] == pytest.approx(0.0, abs=1e-12)

    def test_lattice_always_ends_at_one(self, case1):
        points = error_surface(case1, Rule.INDEPENDENT, 0.3)
        axis = sorted({p[0] for p in points})
        assert axis[0] == 0.0
        assert axis[-1] == 1.0
        assert len(axis) == 5

    def test_antisymmetric_for_case_study_1(self, case1):
        """Flipping both updates through .5 negates the error on this
        symmetric network."""
        points = error_surface(case1, Rule.INDEPENDENT, 0.25)
        by_update = {(p[0], p[1]): p[2] for p in points}
        for (u1, u2), err in by_update.items():
            mirrored = by_update[(1.0 - u1, 1.0 - u2)]
            assert err + mirrored == pytest.approx(0.0, abs=1e-9)

    def test_reads_as_a_sequence_of_rows(self, case1):
        points = error_surface(case1, Rule.INDEPENDENT, 0.5)
        rows = tuple(points)
        assert [points[k] for k in range(-len(rows), len(rows))] == list(rows + rows)
        assert points[2:7:2] == rows[2:7:2]
        assert rows[1][:2] == (0.0, 0.5)
        with pytest.raises(IndexError):
            points[len(rows)]

    def test_step_validation(self, case1):
        with pytest.raises(ValueError):
            error_surface(case1, Rule.INDEPENDENT, 0.0)
        with pytest.raises(ValueError):
            error_surface(case1, Rule.INDEPENDENT, 0.6)

    @pytest.mark.parametrize("step", [0.7, 0.0, math.nan, 1e-12, -0.1, math.inf])
    def test_bad_steps_are_refused_before_building(self, case1, step):
        with pytest.raises(ValueError, match="step"):
            error_surface(case1, Rule.INDEPENDENT, step)

    def test_lattice_size_bound(self, monkeypatch):
        # The bound is computed from the step, so a small cap shows it
        # without building a large lattice.
        monkeypatch.setattr(study, "MAX_SURFACE_VALUES", 5)
        assert study._lattice(0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert len(study._lattice(0.3)) == 5
        with pytest.raises(ValueError, match="more than 5 lattice values"):
            study._lattice(0.2)

    def test_bound_at_the_shipped_cap(self):
        assert len(study._lattice(1.0 / (study.MAX_SURFACE_VALUES - 1))) == study.MAX_SURFACE_VALUES
        with pytest.raises(ValueError, match="lattice values"):
            study._lattice(0.999 / (study.MAX_SURFACE_VALUES - 1))


def small_study_config(**overrides) -> StudyConfig:
    return StudyConfig.default(count=12, **overrides)


class TestRunStudy:
    def test_shapes_counts_and_ids(self):
        report = run_study(small_study_config())
        assert set(report.classes) == {"independent", "associated"}
        for kind, cls in report.classes.items():
            assert cls.generated == 12
            assert cls.filtered_in == sum(cls.best_rule_counts.values())
            assert 0 <= cls.filtered_in <= 12
        kept_ids = [ev.network_id for ev in report.networks]
        assert all(
            id.startswith(("independent-", "associated-")) for id in kept_ids
        )
        assert len(report.strength_error_pairs) == len(report.networks)
        for ev in report.networks:
            assert len(ev.records) == len(DEFAULT_UPDATE_GRID) ** 2
            assert ev.passes_filter

    def test_filter_off_keeps_everything_flagged(self):
        report = run_study(small_study_config(filter_enabled=False))
        assert len(report.networks) == 24
        for kind, cls in report.classes.items():
            assert cls.filtered_in == cls.generated == 12
        rejected = [ev for ev in report.networks if not ev.passes_filter]
        assert rejected  # with 24 random networks some profile is non-monotone
        for ev in rejected:
            assert ev.pattern is MonotonicityPattern.REJECTED

    @pytest.mark.parametrize("filter_enabled", [True, False])
    def test_tables_are_the_generated_networks(self, filter_enabled, monkeypatch):
        # A low iteration cap makes some associated networks resample.  The
        # package's ``generate`` attribute is the function, not the module.
        generate_module = importlib.import_module("prospector_eval.generate")
        monkeypatch.setattr(generate_module, "IPF_MAX_ITERATIONS", 10)
        config = StudyConfig.default(seed=DEFAULT_SEED, count=200, filter_enabled=filter_enabled)
        generated = {
            "independent": generate(config.independent),
            "associated": generate(config.associated),
        }
        report = run_study(config)
        assert filter_enabled or len(report.networks) == 400
        assert any(ev.table.provenance.resamples for ev in report.networks)
        for ev in report.networks:
            kind, index = ev.network_id.split("-")
            expected = generated[kind][int(index)]
            assert ev.table.cells == expected.cells
            assert ev.table.kind == expected.kind == ev.kind
            assert ev.table.provenance == expected.provenance

    def test_deterministic_bytes(self):
        config = small_study_config()
        assert report_json_text(run_study(config)) == report_json_text(run_study(config))

    def test_numpy_integer_count_and_seed_write_the_same_report(self):
        numpy_ints = StudyConfig.default(seed=np.int64(7), count=np.int64(10))
        python_ints = StudyConfig.default(seed=7, count=10)
        assert report_json_text(run_study(numpy_ints)) == report_json_text(run_study(python_ints))

    def test_grid_is_configurable(self):
        report = run_study(small_study_config(grid=GRID_FIFTH_VALUES))
        assert report.networks.grid == (0.0, 0.2, 0.5, 0.8, 1.0)
        updates = {r.update.as_tuple() for ev in report.networks for r in ev.records}
        assert (0.2, 0.8) in updates

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_study_config(grid=())
        with pytest.raises(ValueError):
            small_study_config(grid=(0.0, 1.5))
        with pytest.raises(ValueError):
            StudyConfig(
                independent=GenerationConfig(count=1, seed=1, kind="associated"),
                associated=GenerationConfig(count=1, seed=1, kind="associated"),
            )

    def test_numpy_float_grid_is_stored_as_floats(self):
        config = small_study_config(grid=(np.float32(0.5), np.float32(0.25)))
        assert config.grid == (0.5, 0.25) and all(type(v) is float for v in config.grid)
        expected = report_json_text(run_study(small_study_config(grid=(0.5, 0.25))))
        assert report_json_text(run_study(config)) == expected

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None])
    def test_grid_values_that_are_not_real_numbers_are_refused(self, value):
        with pytest.raises(ValueError, match=f"grid values must be real numbers, got {value!r}"):
            small_study_config(grid=(value, 0.5))

    def test_list_grid_is_stored_as_a_tuple(self):
        config = small_study_config(grid=[0.0, 0.5, 1.0])
        assert config.grid == (0.0, 0.5, 1.0)
        assert hash(config) == hash(small_study_config(grid=(0.0, 0.5, 1.0)))


#: Grid values of every kind: in range, out of range, NaN, signed zero, the
#: float just above 1, NumPy floats, and values that are not real numbers.
GRID_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.0, 2.0, width=32).map(np.float32),
    st.sampled_from([-0.0, 1 + 2**-52, math.nan, -math.inf, True, False, np.True_, "0.5", None]),
)


def outcome(call):
    """("ok", the call's value) or ("refused", its ValueError message)."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "refused", str(exc)


class TestSweepSettings:
    """``study.sweep_settings`` is the one check of the grid, the filter
    flag and the filter mode: every entry point keeps or refuses alike."""

    @settings(max_examples=150, deadline=None)
    @given(grid=st.lists(GRID_VALUES, max_size=4).map(tuple))
    @example(grid=(True, 0.5))
    @example(grid=(-0.0, 1.0))
    @example(grid=(np.float32(0.1), 1 + 2**-52))
    @example(grid=())
    def test_every_entry_point_keeps_or_refuses_a_grid_alike(self, grid, case1):
        def records_grid():
            records = evaluate_network(case1, grid)
            return tuple(r.update.p_new_e1 for r in records[:: math.isqrt(len(records))])

        def swept_grid():
            answers, _ = sweep([case1.cells], grid)
            return len(answers[0])

        def cli_grid():
            text = ",".join(repr(float(value)) for value in grid)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    return cli._parse_grid(text, cli.build_parser())
                except SystemExit:
                    raise ValueError(err.getvalue().rsplit("error: --grid: ", 1)[-1].strip())

        results = [
            outcome(lambda: small_study_config(grid=grid).grid),
            outcome(lambda: evaluate_tables([case1], grid=grid, filter_enabled=False).grid),
            outcome(records_grid),
        ]
        if all(type(value) in (float, np.float32) for value in grid):
            # The command line reads the values' text, so it sees Python floats.
            floats = tuple(map(float, grid))
            expected = outcome(lambda: small_study_config(grid=floats).grid)
            assert repr(outcome(cli_grid)) == repr(expected)
        valid = bool(grid) and all(
            not isinstance(value, (bool, np.bool_, str, type(None))) and 0.0 <= value <= 1.0
            for value in grid
        )
        if valid:
            stored = tuple(float(value) + 0.0 for value in grid)
            assert [repr(result) for result in results] == [repr(("ok", stored))] * len(results)
            assert outcome(swept_grid) == ("ok", len(stored))
        else:
            assert {kind for kind, _ in results} == {"refused"}
            assert len({message for _, message in results + [outcome(swept_grid)]}) == 1

    @pytest.mark.parametrize("flag", ["no", 1])
    def test_filter_flag_that_is_not_a_bool_is_refused(self, flag, case1):
        with pytest.raises(ValueError, match=f"filter_enabled must be a bool, got {flag!r}"):
            StudyConfig.default(count=5, filter_enabled=flag)
        with pytest.raises(ValueError, match=f"filter_enabled must be a bool, got {flag!r}"):
            evaluate_tables([case1], filter_enabled=flag)

    def test_numpy_bool_flag_is_stored_as_a_bool(self):
        config = small_study_config(filter_enabled=np.False_)
        assert config.filter_enabled is False
        report = run_study(config)
        assert report.networks.filter_enabled is False
        expected = report_json_text(run_study(small_study_config(filter_enabled=False)))
        assert report_json_text(report) == expected

    def test_unknown_filter_mode_is_refused_on_construction(self):
        with pytest.raises(ValueError, match="filter_mode must be one of"):
            StudyConfig.default(count=5, filter_mode="bogus")

    @pytest.fixture(scope="class")
    def swept(self):
        """Networks swept on (0.5,) with the filter off in "e2-only" mode,
        and their generated counts."""
        tables = generate(GenerationConfig(count=8, seed=4, kind="associated"))
        evaluations = evaluate_tables(
            tables, grid=(0.5,), filter_enabled=False, filter_mode="e2-only"
        )
        return evaluations, {"associated": 8}

    @pytest.mark.parametrize(
        "stated",
        [
            {"grid": (0.0, 1.0)},
            {"filter_enabled": True},
            {"filter_mode": "full"},
            {"grid": (0.0, 1.0), "filter_enabled": True, "filter_mode": "full"},
        ],
        ids=["grid", "filter_enabled", "filter_mode", "all"],
    )
    def test_build_report_refuses_settings_the_sweep_did_not_use(self, swept, stated):
        with pytest.raises(ValueError, match="differ from the evaluations'"):
            build_report(*swept, **stated)

    def test_build_report_states_the_settings_of_its_evaluations(self, swept):
        evaluations, counts = swept
        stated = dict(grid=[0.5], filter_enabled=np.False_, filter_mode="e2-only")
        bare = report_json_text(build_report(evaluations, counts))
        assert bare == report_json_text(build_report(evaluations, counts, **stated))
        assert json.loads(bare)["config"] == {
            "grid": [0.5], "filter_enabled": False, "filter_mode": "e2-only", "generation": None
        }
        part = evaluations[2:5]
        assert (part.grid, part.filter_enabled, part.filter_mode) == ((0.5,), False, "e2-only")


def reference_pattern(profile: ConditionalProfile, mode: str) -> MonotonicityPattern:
    """The one-profile screen the array pass replaced."""
    q = profile
    nondecreasing = q.q_ff <= q.q_ft and q.q_tf <= q.q_tt
    nonincreasing = q.q_ff >= q.q_ft and q.q_tf >= q.q_tt
    if mode == "full":
        nondecreasing = nondecreasing and q.q_ff <= q.q_tf and q.q_ft <= q.q_tt
        nonincreasing = nonincreasing and q.q_ff >= q.q_tf and q.q_ft >= q.q_tt
    if nondecreasing:
        return MonotonicityPattern.NONDECREASING
    if nonincreasing:
        return MonotonicityPattern.NONINCREASING
    return MonotonicityPattern.REJECTED


def reference_diagnostics(table: JointTable) -> tuple[float, ...]:
    """The one-table diagnostics the array pass replaced, as a tuple."""
    q = conditional_profile(table)
    p_e1, p_e2, _ = base_rates(table)
    x_ff, x_ft, x_tf, x_tt = (table.cells[t] for t in (1, 3, 5, 7))
    conjunctive_rows = (q.q_ff, q.q_ft, q.q_tf)
    disjunctive_rows = (q.q_ft, q.q_tf, q.q_tt)
    return (
        (x_ff + x_ft + x_tf) / (1.0 - p_e1 * p_e2),
        max(conjunctive_rows) - min(conjunctive_rows),
        abs(q.q_tt - sum(conjunctive_rows) / 3.0),
        (x_ft + x_tf + x_tt) / (1.0 - (1.0 - p_e1) * (1.0 - p_e2)),
        max(disjunctive_rows) - min(disjunctive_rows),
        abs(q.q_ff - sum(disjunctive_rows) / 3.0),
        abs(q.q_tf - q.q_tt),
    )


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestArrayScreenAndDiagnostics:
    """evaluate_tables screens and measures all networks in one array pass."""

    @pytest.mark.parametrize("mode", ["full", "e2-only"])
    def test_generated_sample_matches_one_table_calls(self, mode):
        tables = generate(GenerationConfig(count=150, seed=11, kind="independent"))
        tables += generate(GenerationConfig(count=150, seed=11, kind="associated"))
        tables += [NON_MONOTONE, compose_table((0.25,) * 4, (0.5,) * 4)]
        everything = evaluate_tables(tables, filter_enabled=False, filter_mode=mode)
        assert [ev.table for ev in everything] == tables
        for ev in everything:
            pattern = monotonicity_pattern(conditional_profile(ev.table), mode=mode)
            assert ev.pattern == pattern == reference_pattern(conditional_profile(ev.table), mode)
            assert ev.passes_filter == (pattern is not MonotonicityPattern.REJECTED)
            assert ev.diagnostics == diagnostics(ev.table)
            assert bits(dataclasses.astuple(ev.diagnostics)) == bits(reference_diagnostics(ev.table))
        kept = evaluate_tables(tables, filter_mode=mode)
        assert [ev.network_id for ev in kept] == [
            ev.network_id for ev in everything if ev.passes_filter
        ]
        assert {ev.pattern for ev in everything} == set(MonotonicityPattern)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    )
    def test_ties_and_signed_zeros_match_the_reference(self, profile_values, weights):
        masses = [w / sum(weights) for w in weights]
        table = compose_table(masses, profile_values)
        assume(validate(table).ok and 0.0 < base_rates(table)[2] < 1.0)
        for mode in ("full", "e2-only"):
            (ev,) = evaluate_tables([table], filter_enabled=False, filter_mode=mode)
            assert ev.pattern == reference_pattern(conditional_profile(table), mode)
            assert bits(dataclasses.astuple(ev.diagnostics)) == bits(reference_diagnostics(table))


class TestPinnedStudyBytes:
    """The study's output files: a refactor must not move their bytes."""

    def test_sha256_of_default_study(self):
        report = run_study(StudyConfig.default(seed=DEFAULT_SEED, count=400))
        digests = [
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in (report_json_text(report), results_csv_text(report.networks))
        ]
        assert digests == [
            "f658d498155055312c99cb38ed335e13e87532231bdc6781757ccb39e0305ff0",
            "f9d8577b5c3996f6deeeafdcc85d0f5b4fe069e2de296c67a2a6fb3ffd90b58d",
        ]

    def test_sha256_of_large_study(self):
        """4000+4000 at seed 30, pinned before the writers were rebuilt on
        arrays."""
        report = run_study(StudyConfig.default(seed=30, count=4000))
        digests = [
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in (report_json_text(report), results_csv_text(report.networks))
        ]
        assert digests == [
            "e481f195e117d657bee999ac3d654dfae8abfb4ec2d29461d0f86cc0a4e90945",
            "fb1aa68c1fa3413ad8c85b6790106f6cdf1b03de62a35f8b63da840aa6550c43",
        ]

    def test_sha256_of_a_case_study_surface(self, case2):
        """A ``case-study`` surface file, pinned before its writer changes."""
        text = surface_csv_text(error_surface(case2, Rule.INDEPENDENT, 0.02))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "47f6577a9401495bdc7fd29938bd8c9b9826b5c51e8a03e03f2620ba96c9da72"
        )


class TestColumns:
    """The study result is one set of columns; a network's object is built
    only when asked for."""

    def test_a_valid_study_builds_no_object_per_network(self, monkeypatch):
        calls = []
        for cls in (JointTable, NetworkEvaluation, NetworkErrorSummary, RuleStats, Diagnostics):

            def counted(self, *args, init=cls.__init__, **kwargs):
                calls.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        report = run_study(StudyConfig.default(count=400))
        report_json_text(report)
        results_csv_text(report.networks)
        assert calls == []
        report.networks[-1]  # the counters count
        assert sorted(calls) == [
            "Diagnostics", "JointTable", "NetworkErrorSummary", "NetworkEvaluation",
            "RuleStats", "RuleStats", "RuleStats",
        ]

    @pytest.mark.parametrize("filter_enabled", [True, False])
    def test_evaluate_tables_and_build_report_write_the_run_study_bytes(self, filter_enabled):
        config = StudyConfig.default(seed=2**64 - 1, count=40, filter_enabled=filter_enabled)
        tables = generate_independent(config.independent) + generate_associated(config.associated)
        ids = [f"{table.kind}-{table.provenance.index:04d}" for table in tables]
        evaluations = evaluate_tables(
            tables, ids=ids, grid=config.grid, filter_enabled=filter_enabled, filter_mode="full"
        )
        report = build_report(
            evaluations,
            {"independent": 40, "associated": 40},
            grid=config.grid,
            filter_enabled=filter_enabled,
            filter_mode="full",
            generation=config,
        )
        direct = run_study(config)
        assert report_json_text(report) == report_json_text(direct)
        assert results_csv_text(evaluations) == results_csv_text(direct.networks)

    def test_rows_read_as_the_same_view_and_slices_as_columns(self):
        networks = run_study(small_study_config(filter_enabled=False)).networks
        assert networks[-1] is networks[len(networks) - 1] is list(networks)[-1]
        with pytest.raises(IndexError):
            networks[len(networks)]
        head = networks[2:5]
        assert isinstance(head, study.Evaluations) and head.grid == networks.grid
        assert [ev.network_id for ev in head] == [ev.network_id for ev in list(networks)[2:5]]
        assert bits(head.answers) == bits(networks.answers[2:5])


def generic_results_csv(evaluations) -> str:
    """The results CSV written field by field from the records."""
    rows = []
    for ev in evaluations:
        for record in ev.records:
            rows.append(
                (
                    ev.network_id,
                    ev.kind,
                    ev.pattern.value,
                    record.update.p_new_e1,
                    record.update.p_new_e2,
                    *(record.answers[rule] for rule in RULE_ORDER),
                    record.oracle,
                    *(record.signed_error[rule] for rule in RULE_ORDER),
                )
            )
    return _serialize.csv_text(RESULTS_HEADER, rows)


def generic_report_json(report) -> str:
    """The report JSON written leaf by leaf."""
    return json_reference.dumps(report_to_dict(report))


def value_error(write, *args) -> str:
    with pytest.raises(ValueError) as excinfo:
        write(*args)
    return str(excinfo.value)


#: Ids that need JSON escapes or care in a %-template: a backslash,
#: non-ASCII text, control characters and percent signs.  (A quote is
#: refused by the CSV writer, so only the report test adds one.)
ODD_IDS = ("back\\slash", "n\u00e9t-\u03b1\u2603", "tab\tbell\x07", "50%-odd%s")


def with_oddities(report):
    """The report with ODD_IDS at every third network from the first, a
    flagged tie at network 7 and no provenance on networks 40 to 59."""
    networks = report.networks
    ids = list(networks.ids)
    ids[: 3 * len(ODD_IDS) : 3] = ODD_IDS
    tie = networks.tie.copy()
    tie[7] = True
    provenance = networks.provenance.copy()
    provenance[40:60] = None
    networks = dataclasses.replace(networks, ids=tuple(ids), tie=tie, provenance=provenance)
    return dataclasses.replace(report, networks=networks)


def reference_network_dict(ev) -> dict:
    """One element of the report's ``networks`` list, from a network's view."""
    provenance = ev.table.provenance
    return {
        "id": ev.network_id,
        "kind": ev.kind,
        "pattern": ev.pattern.value,
        "passes_filter": ev.passes_filter,
        "provenance": None if provenance is None else vars(provenance),
        "summary": {
            "best": ev.summary.best.value,
            "tie": ev.summary.tie,
            "rules": {rule.value: vars(ev.summary.stats[rule]) for rule in RULE_ORDER},
        },
        "diagnostics": vars(ev.diagnostics),
    }


class TestArrayWriters:
    """The array writers against the generic writers they replace."""

    @pytest.fixture(scope="class")
    def mixed(self):
        """One report per grid, each more than one CSV chunk of networks:
        odd ids, networks with and without provenance, and a flagged tie."""
        quarters = run_study(StudyConfig.default(count=90, filter_enabled=False))
        tables = [ev.table for ev in quarters.networks]
        fifths = build_report(
            evaluate_tables(
                tables,
                ids=[f"fifth-{i}" for i in range(len(tables))],
                grid=GRID_FIFTH_VALUES,
                filter_enabled=False,
            ),
            {"independent": 90, "associated": 90},
            grid=GRID_FIFTH_VALUES,
            filter_enabled=False,
            filter_mode="full",
        )
        reports = (with_oddities(quarters), with_oddities(fifths))
        assert [report.networks.grid for report in reports] == [GRID_QUARTERS, GRID_FIFTH_VALUES]
        assert all(len(report.networks) > study._CSV_CHUNK for report in reports)
        return reports

    def test_results_csv_matches_the_generic_writer(self, mixed):
        for report in mixed:
            assert results_csv_text(report.networks) == generic_results_csv(report.networks)
        assert results_csv_text(mixed[0].networks[:0]) == generic_results_csv([])

    def test_report_json_matches_the_generic_writer(self, mixed):
        for report in mixed:
            ids = list(report.networks.ids)
            ids[1] = 'say "hi"'
            report = dataclasses.replace(
                report, networks=dataclasses.replace(report.networks, ids=tuple(ids))
            )
            networks = report_to_dict(report)["networks"]
            assert networks == [reference_network_dict(ev) for ev in report.networks]
            text = report_json_text(report)
            assert text == generic_report_json(report)
            document = json.loads(text)
            assert [n["id"] for n in document["networks"][: 3 * len(ODD_IDS) : 3]] == list(ODD_IDS)
            assert document["networks"][1]["id"] == 'say "hi"'
            assert {n["provenance"] is None for n in document["networks"]} == {True, False}
            assert document["networks"][7]["summary"]["tie"] is True

    def test_empty_reports_match_the_generic_writer(self):
        emptied = run_study(small_study_config(filter_mode="full", grid=(0.5,)))
        emptied = dataclasses.replace(
            emptied, networks=emptied.networks[:0], strength_error_pairs=()
        )
        bare = build_report(
            evaluate_tables([], grid=(0.5,)), {}, grid=(0.5,), filter_enabled=True,
            filter_mode="full",
        )
        for report in (emptied, bare):
            assert report_json_text(report) == generic_report_json(report)

    @pytest.mark.parametrize(
        "poison",
        [
            # (network, array, flat index, value) for each poisoned value
            [(2, "answers", -1, math.inf), (3, "oracle", 0, math.nan)],
            [(3, "oracle", 0, math.nan), (3, "answers", 1, -math.inf)],
            [(3, "answers", 5, math.nan), (3, "oracle", 0, math.inf)],
            [(150, "oracle", 4, -math.inf), (170, "answers", 0, math.nan)],
        ],
        ids=["inf-then-nan", "answer-before-oracle", "earlier-row-first", "later-chunk"],
    )
    def test_results_csv_raises_at_the_first_non_finite_value(self, mixed, poison):
        for report in mixed:
            evaluations = report.networks
            for k, name, flat, value in poison:
                array = getattr(evaluations, name).copy()
                array[k].flat[flat] = value
                evaluations = dataclasses.replace(evaluations, **{name: array})
            expected = value_error(generic_results_csv, evaluations)
            assert expected.startswith("non-finite value cannot be serialized")
            assert value_error(results_csv_text, evaluations) == expected

    @pytest.mark.parametrize(
        "networks, pairs, spearman",
        [
            ([(4, "associative_strength", math.nan), (2, "max_abs", math.inf)], [], 0.5),
            ([(2, "mean_signed", -math.inf), (2, "conjunctive_spread", math.nan)], [], 0.5),
            ([(1, "mean_abs", math.inf)], [(9, 1, math.nan)], 0.5),
            ([], [(0, 0, math.nan)], math.inf),
        ],
        ids=["networks-in-order", "stats-before-diagnostics", "pairs-before-networks",
             "head-first"],
    )
    def test_report_json_raises_at_the_first_non_finite_value(
        self, mixed, networks, pairs, spearman
    ):
        """``networks`` poisons a diagnostic, or else a disjunctive rule
        statistic, of a network; ``pairs`` poisons one value of a pair."""
        for report in mixed:
            stats = report.networks.stats.copy()
            diagnostic_values = report.networks.diagnostics.copy()
            for k, field, value in networks:
                if field in Diagnostics.__dataclass_fields__:
                    column = list(Diagnostics.__dataclass_fields__).index(field)
                    diagnostic_values[k, column] = value
                else:
                    rule = RULE_ORDER.index(Rule.DISJUNCTIVE)
                    stats[k, rule, list(RuleStats.__dataclass_fields__).index(field)] = value
            strength_error_pairs = [list(pair) for pair in report.strength_error_pairs]
            for k, column, value in pairs:
                strength_error_pairs[k][column] = value
            report = dataclasses.replace(
                report,
                networks=dataclasses.replace(
                    report.networks, stats=stats, diagnostics=diagnostic_values
                ),
                strength_error_pairs=tuple(map(tuple, strength_error_pairs)),
                spearman_strength_error=spearman,
            )
            expected = value_error(generic_report_json, report)
            assert expected.startswith("non-finite value cannot be serialized")
            assert value_error(report_json_text, report) == expected


class TestReportOutputs:
    def test_report_document_structure(self):
        report = run_study(small_study_config())
        document = json.loads(report_json_text(report))
        assert set(document) == {
            "config",
            "classes",
            "spearman_strength_error",
            "strength_error_pairs",
            "networks",
        }
        assert document["config"]["grid"] == list(GRID_QUARTERS)
        assert document["config"]["generation"]["independent"]["count"] == 12
        first = document["networks"][0]
        assert set(first) == {
            "id",
            "kind",
            "pattern",
            "passes_filter",
            "provenance",
            "summary",
            "diagnostics",
        }
        assert set(first["summary"]["rules"]) == {
            "conjunctive",
            "disjunctive",
            "independent",
        }

    def test_results_csv_layout(self):
        report = run_study(small_study_config())
        text = results_csv_text(report.networks)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "network_id,kind,pattern,e1,e2,answer_conjunctive,answer_disjunctive,"
            "answer_independent,oracle,error_conjunctive,error_disjunctive,"
            "error_independent"
        )
        assert len(lines) == 1 + 25 * len(report.networks)
        first = lines[1].split(",")
        assert first[0] == report.networks[0].network_id
        assert first[1] in ("independent", "associated")
        # Every numeric field parses back to a float.
        for field in first[3:]:
            float(field)

    def test_results_csv_matches_the_generic_writer(self):
        """The row-pattern writer is byte-identical to formatting field by
        field, signed zeros, subnormals and 17-digit values included."""
        evaluations = run_study(small_study_config(filter_enabled=False)).networks[:4]
        answers = evaluations.answers.copy()
        answers[3].flat[:4] = (-0.0, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2)
        evaluations = dataclasses.replace(
            evaluations, ids=evaluations.ids[:3] + ("odd%id",), answers=answers
        )
        expected = generic_results_csv(evaluations)
        assert results_csv_text(evaluations) == expected
        assert ",-0," in expected and ",4.9406564584124654e-324," in expected

    def test_results_csv_refuses_non_finite_and_quoting(self):
        evaluations = run_study(small_study_config()).networks[:1]
        oracle = evaluations.oracle.copy()
        oracle.flat[3] = np.nan
        with pytest.raises(ValueError, match="non-finite value cannot be serialized: nan"):
            results_csv_text(dataclasses.replace(evaluations, oracle=oracle))
        for text in ("a,b", 'say "x"', "two\nlines", "carriage\rreturn"):
            with pytest.raises(ValueError, match="CSV field would need quoting"):
                results_csv_text(dataclasses.replace(evaluations, ids=(text,)))

    @pytest.mark.parametrize(
        "bad_id, nan_oracle",
        [(1, 3), (3, 1), (2, 2)],
        ids=["id-before-nan", "nan-before-id", "same-network"],
    )
    def test_results_csv_raises_the_first_refusal_in_document_order(self, bad_id, nan_oracle):
        """A text field that needs quoting and a non-finite float are both
        refused, and the one whose row comes first is named; within a row
        the text fields come first."""
        evaluations = run_study(StudyConfig.default(count=40)).networks[:4]
        assert len(evaluations) == 4
        oracle = evaluations.oracle.copy()
        oracle[nan_oracle].flat[3] = np.nan
        ids = list(evaluations.ids)
        ids[bad_id] = "a,b"
        evaluations = dataclasses.replace(evaluations, oracle=oracle, ids=tuple(ids))
        expected = value_error(generic_results_csv, evaluations)
        assert value_error(results_csv_text, evaluations) == expected

    def test_surface_csv_layout(self, case1):
        points = error_surface(case1, Rule.INDEPENDENT, 0.5)
        lines = surface_csv_text(points).strip().split("\n")
        assert lines[0] == "e1,e2,signed_error"
        assert len(lines) == 10

    def test_class_table_text(self):
        report = run_study(small_study_config())
        text = format_class_table(report)
        assert "independent" in text and "associated" in text
        assert "rank correlation" in text

    def test_spearman_undefined_for_single_network(self, case1):
        evaluations = evaluate_tables([case1], filter_enabled=False)
        report = build_report(
            evaluations,
            {"unspecified": 1},
            grid=DEFAULT_UPDATE_GRID,
            filter_enabled=False,
            filter_mode="full",
        )
        assert report.spearman_strength_error is None
        assert report_to_dict(report)["spearman_strength_error"] is None

    def test_invalid_network_inside_a_batch_is_named(self):
        tables = generate(GenerationConfig(count=6, seed=4, kind="associated"))
        bad = JointTable((0.2,) * 8)  # sums to 1.6
        also_bad = JointTable((-0.1,) + (0.1625,) * 7)
        batch = tables[:3] + [bad] + tables[3:] + [also_bad]
        with pytest.raises(InvalidTableError) as excinfo:
            evaluate_tables(batch)
        assert str(excinfo.value) == (
            "network net-0003 (provenance None): invalid table: "
            "cells sum to 1.6, expected 1 within 1e-12"
        )
        with pytest.raises(InvalidTableError) as direct:
            require_valid(bad)
        assert excinfo.value.issues == direct.value.issues

    def test_evaluate_tables_rejects_invalid_networks(self):
        bad = JointTable((0.2,) * 8)  # sums to 1.6
        with pytest.raises(Exception) as excinfo:
            evaluate_tables([bad], ids=["bad-0"])
        assert "bad-0" in str(excinfo.value)


conditionals = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def networks_and_grids(draw):
    """A valid network, and a grid holding both of its evidence base rates
    (the links' knees) and both certain values."""
    raw = np.array(draw(st.lists(st.floats(0.001, 1.0), min_size=4, max_size=4)))
    pairs = raw / raw.sum()
    assume(pairs.min() >= MARGINAL_FLOOR)
    table = compose_table(tuple(pairs), tuple(draw(st.lists(conditionals, min_size=4, max_size=4))))
    p_e1, p_e2, p_c = base_rates(table)
    assume(0.0 < p_c < 1.0)  # the engine's independent rule needs an interior prior
    grid = draw(st.lists(st.floats(0.0, 1.0), max_size=4)) + [p_e1, p_e2, 0.0, 1.0]
    return table, grid


# P(C | E1) = 1, so the update u1 = 1 fires the odds clamp.
CLAMPED = compose_table((0.3, 0.2, 0.25, 0.25), (0.0, 0.5, 1.0, 1.0))


class TestSweepKernel:
    @given(case=networks_and_grids())
    @example(case=(CLAMPED, [0.0, 0.3, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_engine_point_by_point(self, case):
        """Every kernel answer equals the audited single query within 1e-12,
        ties (u1 = u2 on the diagonal), knees and clamped odds included."""
        table, grid = case
        answers, _ = sweep([table.cells], grid)
        view = network_view(table)
        for i, u1 in enumerate(grid):
            for j, u2 in enumerate(grid):
                for k, rule in enumerate(RULE_ORDER):
                    expected = infer(view, rule, (u1, u2))[0]
                    assert abs(answers[0, i, j, k] - expected) <= 1e-12

    def test_clamp_example_fires_the_clamp(self):
        _, trace = infer(network_view(CLAMPED), Rule.INDEPENDENT, (1.0, 0.0))
        assert any(item.clamped for item in trace.evidence)

    def test_shapes_and_oracle_agree_with_single_queries(self, case1, case2):
        answers, oracle = sweep([case1.cells, case2.cells], GRID_FIFTH_VALUES)
        assert answers.shape == (2, 5, 5, 3)
        assert oracle.shape == (2, 5, 5)
        for n, table in enumerate((case1, case2)):
            records = evaluate_network(table, GRID_FIFTH_VALUES)
            assert [r.oracle for r in records] == oracle[n].ravel().tolist()

    def test_rejects_bad_grids(self, case1):
        with pytest.raises(ValueError):
            sweep([case1.cells], [])
        with pytest.raises(ValueError):
            sweep([case1.cells], [0.5, 1.5])


class TestJsonStrings:
    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_strings_and_keys_render_as_json_dumps_does(self, text):
        quoted = json.dumps(text, ensure_ascii=False)
        assert _serialize.dumps(text) == quoted + "\n"
        assert _serialize.dumps({text: [text]}) == "{\n  " + quoted + ": [" + quoted + "]\n}\n"


class TestSpearman:
    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, pairs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on constant input
            expected = float(scipy.stats.spearmanr(*zip(*pairs)).statistic)
        got = spearman_strength_error(pairs)
        if math.isnan(expected):
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


# Rejected by the monotonicity screen in both modes.
NON_MONOTONE = compose_table((0.25, 0.25, 0.25, 0.25), (0.9, 0.1, 0.1, 0.9))
# Valid, monotone (flat), and with P(C) = 0: the odds product is undefined.
NEVER_C = compose_table((0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0, 0.0))


class TestEdgeSamples:
    def test_sample_the_filter_empties(self):
        evaluations = evaluate_tables([NON_MONOTONE, NON_MONOTONE])
        assert len(evaluations) == 0
        assert results_csv_text(evaluations).splitlines() == [",".join(RESULTS_HEADER)]
        report = build_report(
            evaluations,
            {"associated": 2},
            grid=DEFAULT_UPDATE_GRID,
            filter_enabled=True,
            filter_mode="full",
        )
        assert report.classes["associated"].filtered_in == 0
        assert report.classes["associated"].overall_average_error is None
        assert report.spearman_strength_error is None

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_degenerate_prior_is_refused(self, rate):
        table = compose_table((0.25, 0.25, 0.25, 0.25), (rate,) * 4)
        with pytest.raises(DegenerateBaseRateError, match="network net-0001: base rate of C"):
            evaluate_tables([NON_MONOTONE, table], filter_enabled=False)
        with pytest.raises(DegenerateBaseRateError):
            evaluate_network(table)
        with pytest.raises(DegenerateBaseRateError):
            error_surface(table, Rule.CONJUNCTIVE, 0.5)
        message = rf"^base rate of C is {rate!r}; the rules need 0 < P\(C\) < 1$"
        for rule in Rule:
            with pytest.raises(DegenerateBaseRateError, match=message):
                infer(network_view(table), rule, (0.3, 0.6))
