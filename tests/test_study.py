import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import json_reference
from prospector_eval import (
    Diagnostics,
    EvidenceUpdate,
    GenerationConfig,
    JointTable,
    LinkParams,
    MonotonicityPattern,
    NetworkErrorSummary,
    NetworkEvaluation,
    NetworkView,
    Rule,
    StudyConfig,
    combine_independent,
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
    propagate,
    run_study,
    summarize,
    validate,
)
from prospector_eval import cli, samplers, study
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
from prospector_eval.table import MARGINAL_FLOOR, NetworkBatch, check_cells, rates


class TestMonotonicityPattern:
    def test_increasing_profile(self):
        assert (
            monotonicity_pattern((0.10, 0.50, 0.50, 0.90))
            is MonotonicityPattern.NONDECREASING
        )

    def test_decreasing_profile(self):
        assert (
            monotonicity_pattern((0.90, 0.50, 0.50, 0.10))
            is MonotonicityPattern.NONINCREASING
        )

    def test_non_monotone_profile_rejected(self):
        assert (
            monotonicity_pattern((0.10, 0.50, 0.50, 0.20))
            is MonotonicityPattern.REJECTED
        )

    def test_flat_profile_counts_as_nondecreasing(self):
        assert (
            monotonicity_pattern((0.4, 0.4, 0.4, 0.4))
            is MonotonicityPattern.NONDECREASING
        )

    def test_e2_only_mode_is_weaker(self):
        """Monotone along E2 but not along E1: kept only by the weaker filter."""
        p = (0.10, 0.50, 0.05, 0.50)
        assert monotonicity_pattern(p) is MonotonicityPattern.REJECTED
        assert (
            monotonicity_pattern(p, mode="e2-only")
            is MonotonicityPattern.NONDECREASING
        )

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            monotonicity_pattern((0.1, 0.2, 0.3, 0.4), mode="diagonal")


class TestEvaluateNetwork:
    def test_grid_sweep_shape_and_order(self, case1):
        records = evaluate_network(case1)
        assert len(records) == 25
        assert records[0].update.as_tuple() == (0.0, 0.0)
        assert records[1].update.as_tuple() == (0.0, 0.25)  # row-major in (e1, e2)
        assert records[-1].update.as_tuple() == (1.0, 1.0)
        fields = [field.name for field in dataclasses.fields(EvaluationRecord)]
        assert fields == ["update", "answers", "oracle"]

    def test_base_rate_update_has_zero_error_for_every_rule(self, case1):
        records = evaluate_network(case1)
        at_prior = [r for r in records if r.update.as_tuple() == (0.5, 0.5)]
        assert len(at_prior) == 1
        for rule in Rule:
            assert abs(at_prior[0].oracle - at_prior[0].answers[rule]) <= 1e-12

    def test_certain_corner_values(self, case1):
        records = evaluate_network(case1)
        corner = [r for r in records if r.update.as_tuple() == (1.0, 1.0)][0]
        assert corner.answers[Rule.INDEPENDENT] == pytest.approx(49 / 58, abs=1e-12)
        assert corner.oracle == pytest.approx(0.9, abs=1e-12)
        assert summarize([corner]).stats[Rule.INDEPENDENT].mean_signed == pytest.approx(
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
                update=EvidenceUpdate(0.5, 0.5),
                answers={rule: 0.5 for rule in Rule},
                oracle=0.5 + err,
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

    def test_non_finite_errors_raise(self):
        """An unreachable update's NaN errors are refused; no best rule is
        picked through them."""
        records = [
            EvaluationRecord(
                update=EvidenceUpdate(0.5, u2),
                answers={rule: 0.5 for rule in Rule},
                oracle=oracle,
            )
            for u2, oracle in ((0.0, 0.5), (1.0, math.nan))
        ]
        message = r"^cannot summarize a sweep with non-finite errors \(unreachable updates\)$"
        with pytest.raises(ValueError, match=message):
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
        assert rows[1][:2] == (0.0, 0.5)
        assert points[1:3] == rows[1:3] and len(rows[1:3]) == 2
        assert points[::-1] == rows[::-1]
        assert points[:0] == ()
        with pytest.raises(IndexError):
            points[len(rows)]

    def test_unknown_rule_is_named(self, case1):
        with pytest.raises(ValueError, match="^unknown rule: 'independent'$"):
            error_surface(case1, "independent", 0.25)

    def test_step_validation(self, case1):
        with pytest.raises(ValueError):
            error_surface(case1, Rule.INDEPENDENT, 0.0)
        with pytest.raises(ValueError):
            error_surface(case1, Rule.INDEPENDENT, 0.6)
        with pytest.raises(ValueError, match="^step must be a real number, got True$"):
            error_surface(case1, Rule.INDEPENDENT, True)

    def test_step_is_read_as_a_python_float(self, case2):
        """A float32 step builds the lattice of the float it rounds to, in
        doubles, as grid values and updates are read."""
        narrow = error_surface(case2, Rule.INDEPENDENT, np.float32(0.1))
        assert surface_csv_text(narrow) == surface_csv_text(
            error_surface(case2, Rule.INDEPENDENT, float(np.float32(0.1)))
        )
        assert all(type(value) is float for value in narrow.values)
        assert surface_csv_text(narrow).splitlines()[2] == "0,0.10000000149011612,0.0055709823440414918"

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

    @given(st.floats(1e-3, 0.5))
    def test_lattice_is_every_multiple_of_the_step_below_the_end(self, step):
        values, k = [], 0
        while k * step < 1.0 - 1e-9:
            values.append(k * step)
            k += 1
        assert study._lattice(step) == [*values, 1.0]

    def test_bound_at_the_shipped_cap(self):
        assert len(study._lattice(1.0 / (study.MAX_SURFACE_VALUES - 1))) == study.MAX_SURFACE_VALUES
        with pytest.raises(ValueError, match="lattice values"):
            study._lattice(0.999 / (study.MAX_SURFACE_VALUES - 1))


def small_study_config(**overrides) -> StudyConfig:
    return StudyConfig.default(count=12, **overrides)


def patterns(evaluations) -> list[MonotonicityPattern]:
    """The pattern of each row of an Evaluations, from its column."""
    return [list(MonotonicityPattern)[code] for code in evaluations.patterns.tolist()]


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
        assert MonotonicityPattern.REJECTED not in patterns(report.networks)

    def test_filter_off_keeps_everything_flagged(self):
        report = run_study(small_study_config(filter_enabled=False))
        assert len(report.networks) == 24
        for kind, cls in report.classes.items():
            assert cls.filtered_in == cls.generated == 12
        flags = [n["passes_filter"] for n in json.loads(report_json_text(report))["networks"]]
        assert flags == [p is not MonotonicityPattern.REJECTED for p in patterns(report.networks)]
        assert not all(flags)  # with 24 random networks some profile is non-monotone

    @pytest.mark.parametrize("filter_enabled", [True, False])
    def test_tables_are_the_generated_networks(self, filter_enabled, monkeypatch):
        # A low iteration cap makes some associated networks resample.
        monkeypatch.setattr(samplers, "IPF_MAX_ITERATIONS", 10)
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
        with pytest.raises(ValueError, match="count must be positive"):
            StudyConfig(count=0)
        # Each class's generation config follows count and seed, and cannot
        # be given on its own.
        config = StudyConfig(count=3, seed=9)
        assert (config.independent, config.associated) == (
            GenerationConfig(count=3, seed=9, kind="independent"),
            GenerationConfig(count=3, seed=9, kind="associated"),
        )
        with pytest.raises(TypeError):
            StudyConfig(independent=config.associated)

    def test_numpy_float_grid_is_stored_as_floats(self):
        config = small_study_config(grid=(np.float32(0.5), np.float32(0.25)))
        assert config.grid == (0.5, 0.25) and all(type(v) is float for v in config.grid)
        expected = report_json_text(run_study(small_study_config(grid=(0.5, 0.25))))
        assert report_json_text(run_study(config)) == expected

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None])
    def test_grid_values_that_are_not_real_numbers_are_refused(self, value):
        with pytest.raises(ValueError, match=f"grid value must be a real number, got {value!r}"):
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

    def test_a_str_subclass_mode_is_stored_as_its_literal(self):
        class Mode(str):
            pass

        config = small_study_config(filter_mode=Mode("e2-only"))
        assert type(config.filter_mode) is str
        report = run_study(config)
        assert type(report.networks.filter_mode) is str
        expected = report_json_text(run_study(small_study_config(filter_mode="e2-only")))
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

    def test_build_report_stores_each_generated_count_as_an_int(self, swept):
        evaluations, counts = swept
        report = build_report(evaluations, {"associated": np.int64(8)})
        assert type(report.classes["associated"].generated) is int
        assert report_json_text(report) == report_json_text(build_report(evaluations, counts))

    @pytest.mark.parametrize("count", [8.0, True, "8"])
    def test_build_report_refuses_a_generated_count_that_is_not_an_integer(self, swept, count):
        with pytest.raises(ValueError, match="generated count of associated must be an integer"):
            build_report(swept[0], {"associated": count})

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


def reference_pattern(profile: tuple[float, ...], mode: str) -> MonotonicityPattern:
    """The one-profile screen the array pass replaced."""
    q_ff, q_ft, q_tf, q_tt = profile
    nondecreasing = q_ff <= q_ft and q_tf <= q_tt
    nonincreasing = q_ff >= q_ft and q_tf >= q_tt
    if mode == "full":
        nondecreasing = nondecreasing and q_ff <= q_tf and q_ft <= q_tt
        nonincreasing = nonincreasing and q_ff >= q_tf and q_ft >= q_tt
    if nondecreasing:
        return MonotonicityPattern.NONDECREASING
    if nonincreasing:
        return MonotonicityPattern.NONINCREASING
    return MonotonicityPattern.REJECTED


def reference_diagnostics(table: JointTable) -> tuple[float, ...]:
    """The one-table diagnostics the array pass replaced, as a tuple."""
    q_ff, q_ft, q_tf, q_tt = conditional_profile(table)
    p_e1, p_e2, _ = rates(table.cells)
    x_ff, x_ft, x_tf, x_tt = (table.cells[t] for t in (1, 3, 5, 7))
    conjunctive_rows = (q_ff, q_ft, q_tf)
    disjunctive_rows = (q_ft, q_tf, q_tt)
    return (
        (x_ff + x_ft + x_tf) / (1.0 - p_e1 * p_e2),
        max(conjunctive_rows) - min(conjunctive_rows),
        abs(q_tt - sum(conjunctive_rows) / 3.0),
        (x_ft + x_tf + x_tt) / (1.0 - (1.0 - p_e1) * (1.0 - p_e2)),
        max(disjunctive_rows) - min(disjunctive_rows),
        abs(q_ff - sum(disjunctive_rows) / 3.0),
        abs(q_tf - q_tt),
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
        found = patterns(everything)
        for ev, pattern, row in zip(everything, found, everything.diagnostics):
            q = conditional_profile(ev.table)
            assert pattern == monotonicity_pattern(q, mode=mode) == reference_pattern(q, mode)
            assert Diagnostics(*row.tolist()) == diagnostics(ev.table)
            assert bits(row) == bits(reference_diagnostics(ev.table))
        kept = evaluate_tables(tables, filter_mode=mode)
        passed = [pattern is not MonotonicityPattern.REJECTED for pattern in found]
        assert list(kept.ids) == [i for i, p in zip(everything.ids, passed) if p]
        assert set(found) == set(MonotonicityPattern)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    )
    def test_ties_and_signed_zeros_match_the_reference(self, profile_values, weights):
        masses = [w / sum(weights) for w in weights]
        table = compose_table(masses, profile_values)
        assume(not validate(table) and 0.0 < rates(table.cells)[2] < 1.0)
        for mode in ("full", "e2-only"):
            evaluations = evaluate_tables([table], filter_enabled=False, filter_mode=mode)
            assert patterns(evaluations) == [reference_pattern(conditional_profile(table), mode)]
            assert bits(evaluations.diagnostics[0]) == bits(reference_diagnostics(table))


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


def serialize_calls(write, *args) -> int:
    """The Python calls into ``_serialize`` that ``write(*args)`` makes,
    after one call that lets lazy tables fill."""
    write(*args)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename == _serialize.__file__

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        write(*args)
    finally:
        sys.setprofile(previous)
    return calls


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
        assert sorted(calls) == ["JointTable", "NetworkEvaluation"]
        # Nor does either JSON writer walk the networks leaf by leaf: ten
        # times the networks (one fill chunk either way) take no more Python
        # calls into _serialize.
        small = run_study(StudyConfig.default(count=40))
        assert len(report.networks) > 5 * len(small.networks) > 0
        assert serialize_calls(report_json_text, small) == serialize_calls(
            report_json_text, report
        )
        batches = [
            NetworkBatch.of(generate(GenerationConfig(count=n, seed=3, kind="associated")))
            for n in (40, 400)
        ]
        assert serialize_calls(NetworkBatch.to_json, batches[0]) == serialize_calls(
            NetworkBatch.to_json, batches[1]
        )

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

    @pytest.mark.parametrize("rows", [slice(2, 5), slice(None, None, -3), slice(30, None)])
    def test_slices_keep_the_batch_aligned_with_the_ids(self, rows):
        networks = run_study(small_study_config(filter_enabled=False)).networks
        part = networks[rows]
        assert len(part.batch) == len(part.ids) == len(part.patterns)
        assert part.ids == networks.ids[rows]
        assert part.batch.tables() == [ev.table for ev in list(networks)[rows]]
        named = [f"{t.kind}-{t.provenance.index:04d}" for t in part.batch.tables()]
        assert list(part.ids) == named


class TestViewLifetime:
    """A row view, and its records, live exactly as long as a caller holds
    the view."""

    @pytest.fixture(scope="class")
    def networks(self):
        return run_study(StudyConfig.default(count=400)).networks

    def test_a_held_view_is_the_one_every_read_returns(self, networks):
        first = networks[3]
        assert networks[3] is first
        assert networks[3 - len(networks)] is first
        assert list(networks)[3] is first

    def test_a_dropped_view_is_freed(self, networks):
        view = networks[5]
        view.records
        ref = weakref.ref(view)
        del view
        assert ref() is None
        assert networks[5].network_id == networks.ids[5]

    def test_a_record_changed_through_a_held_view_is_the_one_read_back(self, networks):
        """Code that checks the answers (such as ``bench/run.py``'s checker)
        may plant a wrong value through a view it holds and expect the next
        walk of the rows to read it."""
        held = networks[7]
        record = held.records[12]
        original = record.answers[Rule.DISJUNCTIVE], record.oracle
        try:
            record.answers[Rule.DISJUNCTIVE] = -1.0
            object.__setattr__(record, "oracle", -2.0)
            walked = [ev.records[12] for ev in networks][7]
            assert walked is record
            assert (walked.answers[Rule.DISJUNCTIVE], walked.oracle) == (-1.0, -2.0)
        finally:
            record.answers[Rule.DISJUNCTIVE] = original[0]
            object.__setattr__(record, "oracle", original[1])

    def test_walking_every_record_keeps_nothing(self):
        """A cache that kept every view kept about 2.7 MB of views and
        records after this walk of a fresh 400+400 study."""
        networks = run_study(StudyConfig.default(count=400)).networks
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            points = sum(len(ev.records) for ev in networks)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert points == len(networks) * len(networks.grid) ** 2 > 0
        assert kept < 256 * 1024

    def test_a_view_built_with_a_list_grid_reads_its_records(self, networks):
        view = networks[2]
        listed = dataclasses.replace(view, grid=list(view.grid))
        assert listed.records == view.records

    def test_records_share_the_grid_updates_and_hold_no_dict(self, networks):
        first, second = networks[0].records, networks[1].records
        grid = networks.grid
        assert [r.update for r in first] == [EvidenceUpdate(u1, u2) for u1 in grid for u2 in grid]
        assert all(a.update is b.update for a, b in zip(first, second))
        for value in (first[0], first[0].update):
            assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            first[0].oracle = 0.0


def generic_results_csv(evaluations) -> str:
    """The results CSV written field by field from the records."""
    rows = []
    for ev, pattern in zip(evaluations, patterns(evaluations)):
        for record in ev.records:
            rows.append(
                (
                    ev.network_id,
                    ev.kind,
                    pattern.value,
                    record.update.p_new_e1,
                    record.update.p_new_e2,
                    *(record.answers[rule] for rule in RULE_ORDER),
                    record.oracle,
                    *(record.oracle - record.answers[rule] for rule in RULE_ORDER),
                )
            )
    return _serialize.csv_text(RESULTS_HEADER, rows)


def reference_report_dict(report) -> dict:
    """The report document with its two long lists built element by
    element, in place of the columns ``report_to_dict`` gives them as."""
    networks = report.networks
    return {
        **report_to_dict(report),
        "strength_error_pairs": [list(pair) for pair in report.strength_error_pairs],
        "networks": [reference_network_dict(networks, k) for k in range(len(networks))],
    }


def generic_report_json(report) -> str:
    """The report JSON written leaf by leaf."""
    return json_reference.dumps(reference_report_dict(report))


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
    provenance = networks.batch.provenance.copy()
    provenance[40:60] = None
    batch = dataclasses.replace(networks.batch, provenance=provenance)
    networks = dataclasses.replace(networks, ids=tuple(ids), tie=tie, batch=batch)
    return dataclasses.replace(report, networks=networks)


def reference_network_dict(networks, k: int) -> dict:
    """Element k of the report's ``networks`` list, from row k's view and
    the rest of row k of the columns."""
    ev, pattern = networks[k], list(MonotonicityPattern)[networks.patterns[k]]
    provenance = ev.table.provenance
    stats = networks.stats[k].tolist()
    return {
        "id": ev.network_id,
        "kind": ev.kind,
        "pattern": pattern.value,
        "passes_filter": pattern is not MonotonicityPattern.REJECTED,
        "provenance": None if provenance is None else vars(provenance),
        "summary": {
            "best": RULE_ORDER[networks.best[k]].value,
            "tie": bool(networks.tie[k]),
            "rules": {rule.value: vars(RuleStats(*row)) for rule, row in zip(RULE_ORDER, stats)},
        },
        "diagnostics": vars(Diagnostics(*networks.diagnostics[k].tolist())),
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
        empty = mixed[0].networks[:0]
        assert results_csv_text(empty) == generic_results_csv(empty)

    def test_report_json_matches_the_generic_writer(self, mixed):
        for report in mixed:
            ids = list(report.networks.ids)
            ids[1] = 'say "hi"'
            report = dataclasses.replace(
                report, networks=dataclasses.replace(report.networks, ids=tuple(ids))
            )
            text = report_json_text(report)
            assert text == generic_report_json(report)
            document = json.loads(text)
            assert document["networks"] == reference_report_dict(report)["networks"]
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


#: Both certainties and a hair inside each, beside interior updates.
EDGE_GRID = (0.0, 1e-12, 0.25, 0.5, 0.75, 1 - 1e-12, 1.0)


@st.composite
def checked_tables(draw) -> JointTable:
    """Tables that pass ``check_cells``: pair masses log-uniform down to
    MARGINAL_FLOOR, conditionals anywhere in [0, 1] and often exactly 0 or 1."""
    logs = draw(st.lists(st.floats(math.log10(MARGINAL_FLOOR), 0.0), min_size=4, max_size=4))
    masses = 10.0 ** np.array(logs)
    conditionals = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    profile = draw(st.lists(conditionals, min_size=4, max_size=4))
    table = compose_table(tuple((masses / masses.sum()).tolist()), tuple(profile))
    assume(check_cells(np.array([table.cells]), np.array([False])).ok[0])
    return table


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
        refused.  The ids are checked first, wherever their rows lie; then
        the floats in row order, so with the id made plain the NaN is named
        as the generic writer names it."""
        evaluations = run_study(StudyConfig.default(count=40)).networks[:4]
        assert len(evaluations) == 4
        oracle = evaluations.oracle.copy()
        oracle[nan_oracle].flat[3] = np.nan
        plain = dataclasses.replace(evaluations, oracle=oracle)
        ids = list(evaluations.ids)
        ids[bad_id] = "a,b"
        evaluations = dataclasses.replace(plain, ids=tuple(ids))
        assert value_error(results_csv_text, evaluations) == "CSV field would need quoting: 'a,b'"
        assert value_error(results_csv_text, plain) == value_error(generic_results_csv, plain)

    @given(table=checked_tables())
    @example(table=compose_table((MARGINAL_FLOOR,) * 3 + (1 - 3 * MARGINAL_FLOOR,), (0, 1, 1, 0)))
    @example(table=compose_table((0.25,) * 4, (1.0,) * 4))
    @settings(max_examples=300, deadline=None)
    def test_valid_tables_sweep_to_finite_values(self, table):
        """The results writer's float refusal is reached only by a hand-built
        Evaluations: a table that passes validation sweeps to finite answers
        and oracle values at and next to certain evidence, or is refused
        whole when P(C) is 0 or 1."""
        options = {"grid": EDGE_GRID, "filter_enabled": False}
        if not 0.0 < rates(table.cells)[2] < 1.0:
            with pytest.raises(DegenerateBaseRateError):
                evaluate_tables([table], **options)
            return
        evaluations = evaluate_tables([table], **options)
        assert np.isfinite(evaluations.answers).all() and np.isfinite(evaluations.oracle).all()
        assert results_csv_text(evaluations).count("\n") == 1 + len(EDGE_GRID) ** 2

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

    def test_evaluate_tables_rejects_invalid_networks(self):
        bad = JointTable((0.2,) * 8)  # sums to 1.6
        with pytest.raises(Exception) as excinfo:
            evaluate_tables([bad], ids=["bad-0"])
        assert "bad-0" in str(excinfo.value)

    def test_evaluate_tables_needs_one_id_per_table(self):
        table = JointTable((0.125,) * 8)
        with pytest.raises(ValueError, match="need exactly one id per table"):
            evaluate_tables([table], ids=["a", "b"])


conditionals = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def networks_and_grids(draw):
    """A valid network, and a grid holding both of its evidence base rates
    (the links' knees) and both certain values."""
    raw = np.array(draw(st.lists(st.floats(0.001, 1.0), min_size=4, max_size=4)))
    pairs = raw / raw.sum()
    assume(pairs.min() >= MARGINAL_FLOOR)
    table = compose_table(tuple(pairs), tuple(draw(st.lists(conditionals, min_size=4, max_size=4))))
    p_e1, p_e2, p_c = rates(table.cells)
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
        """Every kernel answer equals the audited single query bit for bit,
        ties (u1 = u2 on the diagonal), knees and clamped odds included, and
        the independent answer equals ``combine_independent`` of the two
        links' ``propagate`` values."""
        table, grid = case
        answers, _ = sweep([table.cells], grid)
        view = network_view(table)
        link1, link2 = (
            LinkParams(view.p_c, view.p_e[i], view.p_c_given_e[i], view.p_c_given_not_e[i])
            for i in range(2)
        )
        for i, u1 in enumerate(grid):
            for j, u2 in enumerate(grid):
                for k, rule in enumerate(RULE_ORDER):
                    expected = infer(view, rule, (u1, u2))[0]
                    assert answers[0, i, j, k] == expected
                fused = [propagate(link1, u1), propagate(link2, u2)]
                assert combine_independent(fused, view.p_c)[0] == answers[0, i, j, 2]

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
# P(E1) = 0 with P(E2) = P(C) = 1/2: the E1 link is undefined.
NEVER_E1 = JointTable((0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0))
# The view of such a table, which network_view refuses to build.
NEVER_E1_VIEW = NetworkView(0.5, (0.0, 0.5), (0.5, 0.5), (0.5, 0.5))


def refusal(name: str, where: str = "") -> str:
    return f"{where}base rate of {name} is 0.0; the rules need 0 < P({name}) < 1"


#: Every entry point that refuses a base rate of 0, with the text it gives.
#: ``evaluate_tables`` refuses NEVER_E1 earlier, as an invalid table (its
#: E1-true evidence states have no mass).
BASE_RATE_REFUSALS = {
    "sweep-C": (lambda: sweep([NEVER_C.cells], GRID_QUARTERS), refusal("C")),
    "sweep-ids-C": (
        lambda: sweep([NEVER_C.cells], GRID_QUARTERS, ids=["x-7"]),
        refusal("C", "network x-7: "),
    ),
    "evaluate_tables-C": (lambda: evaluate_tables([NEVER_C]), refusal("C", "network net-0000: ")),
    "evaluate_network-C": (lambda: evaluate_network(NEVER_C), refusal("C")),
    "error_surface-C": (lambda: error_surface(NEVER_C, Rule.CONJUNCTIVE, 0.5), refusal("C")),
    "infer-C": (lambda: infer(network_view(NEVER_C), Rule.INDEPENDENT, (0.3, 0.6)), refusal("C")),
    "combine_independent-C": (lambda: combine_independent([0.5], 0.0), refusal("C")),
    "sweep-E1": (lambda: sweep([NEVER_E1.cells], GRID_QUARTERS), refusal("E1")),
    "sweep-ids-E1": (
        lambda: sweep([NEVER_E1.cells], GRID_QUARTERS, ids=["x-7"]),
        refusal("E1", "network x-7: "),
    ),
    "evaluate_network-E1": (lambda: evaluate_network(NEVER_E1), refusal("E1")),
    "error_surface-E1": (lambda: error_surface(NEVER_E1, Rule.CONJUNCTIVE, 0.5), refusal("E1")),
    "network_view-E1": (lambda: network_view(NEVER_E1), refusal("E1")),
    "propagate-E1": (lambda: propagate(LinkParams(0.5, 0.0, 0.5, 0.5), 0.3), refusal("E")),
    "infer-E1": (lambda: infer(NEVER_E1_VIEW, Rule.INDEPENDENT, (0.3, 0.6)), refusal("E1")),
}


@pytest.mark.parametrize("entry", BASE_RATE_REFUSALS)
def test_every_base_rate_refusal_gives_the_one_text(entry):
    call, message = BASE_RATE_REFUSALS[entry]
    with pytest.raises(DegenerateBaseRateError) as excinfo:
        call()
    assert str(excinfo.value) == message


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
