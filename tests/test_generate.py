import hashlib
import math

import numpy as np
import pytest
import scipy.stats

import bruteforce as bf
from prospector_eval import (
    GenerationConfig,
    GenerationError,
    InvalidTableError,
    JointTable,
    MarginTargets,
    NoConvergenceError,
    base_rates,
    conditional_profile,
    generate,
    generate_associated,
    generate_independent,
    ipf_fit,
    validate,
)
from prospector_eval.generate import _stream_words, fit_margins
from prospector_eval.study import DEFAULT_SEED
from prospector_eval.table import MASK_C, MASK_E1, MASK_E2, Provenance, networks_to_json

# One-sided Kolmogorov-Smirnov critical value at the 1% level for n = 400.
KS_CRITICAL_1PCT_400 = 1.62762 / np.sqrt(400)


def margins(table: JointTable) -> tuple[float, float, float]:
    cells = table.as_array()
    return (
        float(cells[MASK_E1].sum()),
        float(cells[MASK_E2].sum()),
        float(cells[MASK_C].sum()),
    )


def scalar_fit(cells, targets, tolerance, max_iterations):
    """Reference three-margin fit: one table at a time, 4-element numpy sums.

    Returns (cells, cycles) on convergence and (None, deviation) at the cap.
    """
    q = np.array(cells, dtype=float)
    plan = tuple(zip(targets, (MASK_E1, MASK_E2, MASK_C)))
    for cycle in range(max_iterations):
        deviation = max(abs(float(q[mask].sum()) - t) for t, mask in plan)
        if deviation <= tolerance:
            return tuple(float(v) for v in q / q.sum()), cycle
        for target, mask in plan:
            current = float(q[mask].sum())
            q[mask] *= target / current
            q[~mask] *= (1.0 - target) / (1.0 - current)
    return None, max(abs(float(q[mask].sum()) - t) for t, mask in plan)


def scalar_associated(config: GenerationConfig) -> list[JointTable]:
    """Reference sampler: draw, fit and resample each network in turn."""
    eps = config.base_rate_margin
    tables = []
    for index in range(config.count):
        for attempt in range(config.max_resamples):
            stream = np.random.default_rng(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(index, attempt))
            )
            targets = stream.uniform(eps, 1.0 - eps, 3)
            raw = stream.uniform(0.0, 1.0, 8)
            if raw.sum() <= 0.0 or np.any(raw <= 0.0):
                continue
            cells, _ = scalar_fit(
                raw / raw.sum(), targets, config.ipf_tolerance, config.ipf_max_iterations
            )
            if cells is not None:
                provenance = Provenance(seed=config.seed, index=index, resamples=attempt)
                tables.append(JointTable(cells, kind="associated", provenance=provenance))
                break
        else:
            raise GenerationError(
                f"network {index} (seed {config.seed}): no converged fit "
                f"within {config.max_resamples} attempts"
            )
    return tables


class TestMarginTargets:
    def test_interior_only(self):
        with pytest.raises(ValueError):
            MarginTargets(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            MarginTargets(0.5, 1.0, 0.5)


class TestGenerationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(count=0, seed=1, kind="associated")
        with pytest.raises(ValueError):
            GenerationConfig(count=1, seed=-1, kind="associated")
        with pytest.raises(ValueError, match="2\\*\\*32"):
            GenerationConfig(count=2**32 + 1, seed=1, kind="associated")
        with pytest.raises(ValueError):
            GenerationConfig(count=1, seed=1, kind="both")
        with pytest.raises(ValueError):
            GenerationConfig(count=1, seed=1, kind="associated", base_rate_margin=0.7)
        for tolerance in (0.0, 1.0, 2.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="ipf_tolerance"):
                GenerationConfig(count=1, seed=1, kind="associated", ipf_tolerance=tolerance)


class TestIpfFit:
    def test_hits_all_three_margins(self, rng):
        raw = rng.uniform(0.01, 1.0, 8)
        table = JointTable(tuple(raw / raw.sum()))
        fitted = ipf_fit(table, MarginTargets(0.3, 0.6, 0.5))
        assert margins(fitted) == pytest.approx((0.3, 0.6, 0.5), abs=1e-10)

    def test_already_matching_table_is_a_fixed_point(self, case1):
        fitted = ipf_fit(case1, MarginTargets(*base_rates(case1)))
        assert fitted.cells == pytest.approx(case1.cells, abs=1e-12)

    def test_idempotent(self, rng):
        raw = rng.uniform(0.01, 1.0, 8)
        table = JointTable(tuple(raw / raw.sum()))
        targets = MarginTargets(0.44, 0.17, 0.72)
        once = ipf_fit(table, targets)
        twice = ipf_fit(once, targets)
        assert twice.cells == pytest.approx(once.cells, abs=1e-12)

    @pytest.mark.parametrize("targets", [(0.3, 0.6, 0.5), (0.12, 0.81, 0.4)])
    def test_matches_divergence_minimizer(self, rng, targets):
        """The fit must be the minimum directed-divergence table, not just
        some table with the right margins."""
        raw = rng.uniform(0.05, 1.0, 8)
        table = JointTable(tuple(raw / raw.sum()))
        ours = ipf_fit(table, MarginTargets(*targets)).as_array()
        reference = bf.brute_three_margin_fit(table.as_array(), *targets)
        assert float(np.max(np.abs(ours - reference))) <= 1e-6

    def test_cycle_order_does_not_matter(self, rng):
        """A reversed-order scaling loop lands on the same distribution."""
        raw = rng.uniform(0.01, 1.0, 8)
        cells = raw / raw.sum()
        targets = (0.35, 0.62, 0.48)

        q = cells.copy()
        plan = list(zip(targets, (MASK_E1, MASK_E2, MASK_C)))[::-1]
        for _ in range(10000):
            if max(abs(q[m].sum() - t) for t, m in plan) <= 1e-12:
                break
            for t, m in plan:
                current = q[m].sum()
                q[m] *= t / current
                q[~m] *= (1.0 - t) / (1.0 - current)
        reversed_order = q / q.sum()

        fitted = ipf_fit(JointTable(tuple(cells)), MarginTargets(*targets))
        assert fitted.cells == pytest.approx(tuple(reversed_order), abs=1e-9)

    def test_requires_strictly_positive_cells(self):
        cells = [0.0] * 8
        cells[0] = cells[7] = 0.5
        with pytest.raises(InvalidTableError):
            ipf_fit(JointTable(tuple(cells)), MarginTargets(0.5, 0.5, 0.5))

    def test_reports_deviation_when_capped(self, rng):
        raw = rng.uniform(0.01, 1.0, 8)
        table = JointTable(tuple(raw / raw.sum()))
        with pytest.raises(NoConvergenceError) as excinfo:
            ipf_fit(table, MarginTargets(0.9, 0.1, 0.5), max_iterations=1)
        assert excinfo.value.deviation > 0.0


class TestBatchedFit:
    """The batched fit must reproduce the one-table-at-a-time loop exactly."""

    def test_default_config_matches_scalar_loop(self):
        config = GenerationConfig(count=200, seed=DEFAULT_SEED, kind="associated")
        batched = generate_associated(config)
        reference = scalar_associated(config)
        assert [t.cells for t in batched] == [t.cells for t in reference]
        assert [t.provenance for t in batched] == [t.provenance for t in reference]

    def test_small_cap_resamples_match_scalar_loop(self):
        config = GenerationConfig(
            count=200,
            seed=DEFAULT_SEED,
            kind="associated",
            ipf_max_iterations=10,
            max_resamples=8,
        )
        batched = generate_associated(config)
        reference = scalar_associated(config)
        assert [t.cells for t in batched] == [t.cells for t in reference]
        resamples = [t.provenance.resamples for t in batched]
        assert resamples == [t.provenance.resamples for t in reference]
        # Some fit at once, some after resampling, one on the last attempt.
        assert 0 in resamples and 1 in resamples
        assert max(resamples) == config.max_resamples - 1

    def test_exhausted_budget_names_the_same_network(self):
        config = GenerationConfig(
            count=200, seed=DEFAULT_SEED, kind="associated", ipf_max_iterations=8
        )
        with pytest.raises(GenerationError) as expected:
            scalar_associated(config)
        with pytest.raises(GenerationError) as batched:
            generate_associated(config)
        assert str(batched.value) == str(expected.value)

    def test_rows_converging_on_different_cycles(self, rng, case1):
        raw = rng.uniform(0.01, 1.0, (6, 8))
        cells = np.vstack((case1.as_array(), raw / raw.sum(axis=1)[:, None]))
        targets = np.vstack(
            (base_rates(case1), rng.uniform(0.05, 0.95, (6, 3)))
        )
        cap = 12  # below what the slowest of these rows needs
        fitted, converged, deviation = fit_margins(
            cells, targets, tolerance=1e-10, max_iterations=cap
        )
        cycles = set()
        for row in range(len(cells)):
            expected, detail = scalar_fit(cells[row], targets[row], 1e-10, cap)
            if expected is None:
                assert not converged[row]
                assert deviation[row] == detail
            else:
                assert converged[row]
                assert tuple(fitted[row].tolist()) == expected
                cycles.add(detail)
        assert not converged.all()
        assert 0 in cycles and len(cycles) >= 3


def scalar_independent(config: GenerationConfig) -> list[tuple[float, ...]]:
    """Reference independent sampler: each network's draws from its own
    Generator, its cells built one table at a time."""
    eps = config.base_rate_margin
    tables = []
    for index in range(config.count):
        stream = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(index, 0))
        )
        p_e1, p_e2 = stream.uniform(eps, 1.0 - eps, 2)
        fractions = stream.uniform(0.0, 1.0, 4)
        masses = (
            (1.0 - p_e1) * (1.0 - p_e2),
            (1.0 - p_e1) * p_e2,
            p_e1 * (1.0 - p_e2),
            p_e1 * p_e2,
        )
        cells = []
        for mass, fraction in zip(masses, fractions):
            cells += [float(mass * (1.0 - fraction)), float(mass * fraction)]
        tables.append(tuple(cells))
    return tables


class TestBatchedSeeding:
    """Every stream is seeded exactly as SeedSequence(seed, (index, attempt))."""

    @pytest.mark.parametrize("seed", [0, 30, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("attempt", [0, 9])
    def test_stream_words_equal_seed_sequence_state(self, seed, attempt):
        indices = np.array([0, 1, 2, 399, 4000, 65537, 2**31, 2**32 - 1])
        expected = [
            np.random.SeedSequence(entropy=seed, spawn_key=(int(i), attempt)).generate_state(
                4, np.uint64
            )
            for i in indices
        ]
        words = _stream_words(seed, indices, attempt)
        assert words.dtype == np.uint64
        assert words.shape == (len(indices), 4)
        np.testing.assert_array_equal(words, np.array(expected))

    @pytest.mark.parametrize("seed", [0, 31, 2**64 - 1])
    def test_independent_matches_scalar_loop(self, seed):
        config = GenerationConfig(count=300, seed=seed, kind="independent", base_rate_margin=0.02)
        batched = generate_independent(config)
        assert [t.cells for t in batched] == scalar_independent(config)

    def test_associated_at_large_seed_matches_scalar_loop(self):
        config = GenerationConfig(count=50, seed=2**64 - 1, kind="associated")
        assert [t.cells for t in generate_associated(config)] == [
            t.cells for t in scalar_associated(config)
        ]


class TestPinnedBytes:
    """Network files are the study's inputs: their bytes must not drift."""

    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("independent", "ead4f3b77459664289d76be59c9436d61f2a432f73dd38851a29311c16eed05a"),
            ("associated", "38def252353c935b86af0e74d8aa2c3567921754213650d53e67c8122fa2bebf"),
        ],
    )
    def test_sha256_at_default_seed(self, kind, digest):
        tables = generate(GenerationConfig(count=400, seed=DEFAULT_SEED, kind=kind))
        text = networks_to_json(tables)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestAssociatedGeneration:
    def test_deterministic_and_valid(self):
        config = GenerationConfig(count=50, seed=DEFAULT_SEED, kind="associated")
        first = generate_associated(config)
        second = generate_associated(config)
        assert [t.cells for t in first] == [t.cells for t in second]
        assert networks_to_json(first) == networks_to_json(second)
        for table in first:
            assert validate(table).ok
            assert table.kind == "associated"

    def test_margins_match_their_drawn_targets(self):
        """Each network's margins must equal the targets drawn from its own
        dedicated stream (seed, index, attempt)."""
        config = GenerationConfig(count=25, seed=9, kind="associated")
        for index, table in enumerate(generate_associated(config)):
            assert table.provenance.resamples == 0
            stream = np.random.default_rng(
                np.random.SeedSequence(entropy=9, spawn_key=(index, 0))
            )
            eps = config.base_rate_margin
            targets = stream.uniform(eps, 1.0 - eps, 3)
            assert margins(table) == pytest.approx(tuple(targets), abs=1e-10)

    def test_base_rates_are_uniform_across_the_sample(self):
        config = GenerationConfig(count=400, seed=DEFAULT_SEED, kind="associated")
        tables = generate_associated(config)
        eps = config.base_rate_margin
        distribution = scipy.stats.uniform(loc=eps, scale=1.0 - 2 * eps)
        for axis in range(3):
            rates = [margins(t)[axis] for t in tables]
            statistic = scipy.stats.kstest(rates, distribution.cdf).statistic
            assert statistic < KS_CRITICAL_1PCT_400

    def test_provenance_records_the_stream(self):
        config = GenerationConfig(count=3, seed=123, kind="associated")
        for index, table in enumerate(generate_associated(config)):
            assert table.provenance.seed == 123
            assert table.provenance.index == index

    def test_exhausted_resamples_raise(self):
        # An iteration cap of 1 cannot fit random targets, so every attempt
        # fails and the budget runs out.
        config = GenerationConfig(
            count=1, seed=5, kind="associated", ipf_max_iterations=1
        )
        with pytest.raises(GenerationError):
            generate_associated(config)

    def test_kind_mismatch_raises(self):
        config = GenerationConfig(count=1, seed=1, kind="independent")
        with pytest.raises(ValueError):
            generate_associated(config)


class TestIndependentGeneration:
    def test_deterministic_and_valid(self):
        config = GenerationConfig(count=50, seed=DEFAULT_SEED, kind="independent")
        first = generate_independent(config)
        second = generate_independent(config)
        assert [t.cells for t in first] == [t.cells for t in second]
        for table in first:
            assert table.kind == "independent"
            assert validate(table).ok  # includes the independence identity

    def test_profile_equals_the_drawn_fractions(self):
        """The conclusion split of each evidence state is the raw uniform draw."""
        config = GenerationConfig(count=10, seed=31, kind="independent")
        for index, table in enumerate(generate_independent(config)):
            stream = np.random.default_rng(
                np.random.SeedSequence(entropy=31, spawn_key=(index, 0))
            )
            eps = config.base_rate_margin
            p_e1, p_e2 = stream.uniform(eps, 1.0 - eps, 2)
            fractions = stream.uniform(0.0, 1.0, 4)
            assert base_rates(table)[:2] == pytest.approx((p_e1, p_e2), abs=1e-15)
            assert conditional_profile(table).as_tuple() == pytest.approx(
                tuple(fractions), abs=1e-12
            )

    def test_evidence_rates_uniform_conclusion_rate_emergent(self):
        config = GenerationConfig(count=400, seed=DEFAULT_SEED, kind="independent")
        tables = generate_independent(config)
        eps = config.base_rate_margin
        distribution = scipy.stats.uniform(loc=eps, scale=1.0 - 2 * eps)
        for axis in range(2):
            rates = [base_rates(t)[axis] for t in tables]
            statistic = scipy.stats.kstest(rates, distribution.cdf).statistic
            assert statistic < KS_CRITICAL_1PCT_400
        # The conclusion base rate is not pinned; it must actually vary.
        conclusion_rates = [base_rates(t)[2] for t in tables]
        assert np.std(conclusion_rates) > 0.05

    def test_dispatch(self):
        config = GenerationConfig(count=2, seed=8, kind="independent")
        assert [t.cells for t in generate(config)] == [
            t.cells for t in generate_independent(config)
        ]
        config = GenerationConfig(count=2, seed=8, kind="associated")
        assert [t.cells for t in generate(config)] == [
            t.cells for t in generate_associated(config)
        ]
