import itertools
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from prospector_eval import (
    EvidenceUpdate,
    GenerationConfig,
    InfeasibleUpdateError,
    InvalidTableError,
    JointTable,
    NotIndependentError,
    compose_table,
    conditional_profile,
    correct_posterior,
    generate_associated,
    generate_independent,
    independent_closed_form,
    mce_update,
)
from prospector_eval.oracle import MATCH_TOL, pair_weights, posteriors
from prospector_eval.table import (
    MARGINAL_FLOOR,
    MASK_E1,
    MASK_E2,
    cell_index,
    pair_masses,
    product_masses,
    rates,
)


def random_table(rng) -> JointTable:
    raw = rng.uniform(0.01, 1.0, 8)
    return JointTable(tuple(raw / raw.sum()))


class TestEvidenceUpdate:
    def test_range_checked(self):
        with pytest.raises(ValueError, match=r"^p_new_e1 must lie in \[0, 1\], got 1.2$"):
            EvidenceUpdate(1.2, 0.5)
        with pytest.raises(ValueError, match=r"^p_new_e2 must lie in \[0, 1\], got -0.1$"):
            EvidenceUpdate(0.5, -0.1)

    def test_values_are_stored_as_python_floats(self, case1):
        update = EvidenceUpdate(np.float32(0.3), np.int64(0))
        assert update.as_tuple() == (float(np.float32(0.3)), 0.0)
        assert list(map(type, update.as_tuple())) == [float, float]
        result = mce_update(case1, EvidenceUpdate(np.float32(0.3), 0.4))
        assert list(map(type, result.marginal_deviation)) == [float, float]
        assert result == mce_update(case1, EvidenceUpdate(float(np.float32(0.3)), 0.4))

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None, 0.5j])
    def test_a_bool_or_non_real_value_is_refused(self, value):
        with pytest.raises(ValueError, match="^p_new_e2 must be a real number, got "):
            EvidenceUpdate(0.5, value)

    def test_as_tuple(self):
        assert EvidenceUpdate(0.3, 0.8).as_tuple() == (0.3, 0.8)


class TestFixedPoint:
    def test_update_at_own_base_rates_returns_cells_unchanged(self, rng):
        """Margins already match, so not a single scaling cycle may run."""
        for _ in range(20):
            table = random_table(rng)
            p_e1, p_e2, _ = rates(table.cells)
            result = mce_update(table, EvidenceUpdate(p_e1, p_e2))
            assert result.iterations == 0
            assert result.table.cells == table.cells


class TestCertainUpdates:
    def test_both_certain_is_exact_conditioning(self, case1, rng):
        q_ff, _, _, q_tt = conditional_profile(case1)
        assert correct_posterior(case1, EvidenceUpdate(1.0, 1.0)) == pytest.approx(
            q_tt, abs=1e-12
        )
        assert correct_posterior(case1, EvidenceUpdate(0.0, 0.0)) == pytest.approx(
            q_ff, abs=1e-12
        )
        for _ in range(10):
            table = random_table(rng)
            q_tf = conditional_profile(table)[2]
            assert correct_posterior(table, EvidenceUpdate(1.0, 0.0)) == pytest.approx(
                q_tf, abs=1e-12
            )

    def test_case_study_1_certain_posterior(self, case1):
        assert correct_posterior(case1, EvidenceUpdate(1.0, 1.0)) == pytest.approx(
            0.9, abs=1e-12
        )

    def test_mixed_boundary_and_interior(self, rng):
        """u1 = 1 conditions away E1-false mass; u2 is then fit exactly."""
        for _ in range(10):
            table = random_table(rng)
            result = mce_update(table, EvidenceUpdate(1.0, 0.8))
            cells = result.table.as_array()
            assert float(cells[~MASK_E1].sum()) == 0.0
            assert float(cells[MASK_E2].sum()) == pytest.approx(0.8, abs=1e-10)


class TestAgainstBruteForce:
    """Spot checks against the scipy reference (the acceptance suite sweeps wider)."""

    @pytest.mark.parametrize("update", [(0.8, 0.2), (0.3, 0.7), (0.55, 0.95)])
    def test_matches_constrained_minimizer(self, rng, update):
        table = random_table(rng)
        ours = mce_update(table, EvidenceUpdate(*update)).table.as_array()
        reference = bf.brute_mce(table.as_array(), *update)
        assert float(np.max(np.abs(ours - reference))) <= 1e-6

    def test_minimality_against_feasible_perturbations(self, rng):
        """No nearby distribution with the same margins may score better."""
        table = random_table(rng)
        update = EvidenceUpdate(0.7, 0.3)
        solution = mce_update(table, update).table.as_array()
        source = table.as_array()
        for candidate in bf.feasible_perturbations(solution, rng, count=1000):
            assert bf.divergence_gap(candidate, solution, source) >= -1e-9


class TestInvariants:
    def test_marginals_hit_tolerance(self, rng):
        for _ in range(25):
            table = random_table(rng)
            u1, u2 = rng.uniform(0.02, 0.98, 2)
            result = mce_update(table, EvidenceUpdate(u1, u2))
            cells = result.table.as_array()
            assert abs(float(cells[MASK_E1].sum()) - u1) <= 1e-10
            assert abs(float(cells[MASK_E2].sum()) - u2) <= 1e-10
            assert result.marginal_deviation[0] <= 1e-10
            assert result.marginal_deviation[1] <= 1e-10

    def test_zero_cells_stay_zero(self):
        cells = [0.15, 0.0, 0.1, 0.15, 0.1, 0.2, 0.05, 0.25]
        table = JointTable(tuple(cells))
        updated = mce_update(table, EvidenceUpdate(0.4, 0.6)).table
        assert updated.cells[1] == 0.0
        assert all(v > 0.0 for i, v in enumerate(updated.cells) if i != 1)

    def test_conditional_odds_ratios_preserved(self, rng):
        """The scaling family can move margins but never association."""
        for _ in range(25):
            table = random_table(rng)
            u1, u2 = rng.uniform(0.02, 0.98, 2)
            updated = mce_update(table, EvidenceUpdate(u1, u2)).table
            for c in (False, True):
                def cross_ratio(t, c=c):
                    return (
                        t.cells[cell_index(False, False, c)] * t.cells[cell_index(True, True, c)]
                    ) / (t.cells[cell_index(False, True, c)] * t.cells[cell_index(True, False, c)])

                before = cross_ratio(table)
                after = cross_ratio(updated)
                assert after == pytest.approx(before, rel=1e-9)

    def test_conclusion_conditionals_survive_the_update(self, rng):
        table = random_table(rng)
        updated = mce_update(table, EvidenceUpdate(0.25, 0.65)).table
        assert conditional_profile(updated) == pytest.approx(
            conditional_profile(table), abs=1e-12
        )


class TestClosedForm:
    def test_case_study_1_partial_updates(self, case1):
        """Mixture of the profile under (.8, .8): .74 by both routes."""
        update = EvidenceUpdate(0.8, 0.8)
        assert independent_closed_form(case1, update) == pytest.approx(0.74, abs=1e-12)
        assert correct_posterior(case1, update) == pytest.approx(0.74, abs=1e-12)

    def test_agrees_with_iterative_oracle_on_generated_tables(self, rng):
        config = GenerationConfig(count=15, seed=4213, kind="independent")
        for table in generate_independent(config):
            for u1, u2 in rng.uniform(0.0, 1.0, (4, 2)):
                update = EvidenceUpdate(float(u1), float(u2))
                assert independent_closed_form(table, update) == pytest.approx(
                    correct_posterior(table, update), abs=1e-9
                )

    def test_is_the_four_term_product_sum(self):
        """P'(C) is q_ab * w1(a) * w2(b) summed in FF, FT, TF, TT order, with
        q_ab = P(C | E1=a, E2=b) from the cells: the formula itself, not the
        general projection, which may differ in the last bit."""
        rng = np.random.default_rng(4215)
        config = GenerationConfig(count=1000, seed=4214, kind="independent")
        for table in generate_independent(config):
            u1, u2 = (float(u) for u in rng.uniform(0.0, 1.0, 2))
            c = table.cells
            q = [c[2 * k + 1] / (c[2 * k] + c[2 * k + 1]) for k in range(4)]
            w = [(1.0 - u1) * (1.0 - u2), (1.0 - u1) * u2, u1 * (1.0 - u2), u1 * u2]
            expected = q[0] * w[0] + q[1] * w[1] + q[2] * w[2] + q[3] * w[3]
            assert independent_closed_form(table, EvidenceUpdate(u1, u2)) == expected

    @pytest.mark.parametrize(
        "p_e1, p_e2", [(0.0, 0.3), (1.0, 0.3), (0.3, 0.0), (0.3, 1.0), (0.0, 1.0), (1.0, 1.0)]
    )
    def test_refuses_what_the_oracle_refuses_at_degenerate_rates(self, p_e1, p_e2):
        masses = ((1.0 - p_e1) * (1.0 - p_e2), (1.0 - p_e1) * p_e2, p_e1 * (1.0 - p_e2), p_e1 * p_e2)
        table = compose_table(masses, (0.2, 0.4, 0.6, 0.8), kind="independent")
        outcomes = set()
        for u1, u2 in itertools.product((0.0, 0.25, 0.5, 1.0), repeat=2):
            update = EvidenceUpdate(u1, u2)
            try:
                expected = correct_posterior(table, update)
            except InfeasibleUpdateError as refusal:
                with pytest.raises(InfeasibleUpdateError) as excinfo:
                    independent_closed_form(table, update)
                assert str(excinfo.value) == str(refusal)
                outcomes.add("refused")
            else:
                assert independent_closed_form(table, update) == pytest.approx(
                    expected, abs=1e-15
                )
                outcomes.add("answered")
        assert outcomes == {"refused", "answered"}

    def test_rejects_associated_tables(self):
        config = GenerationConfig(count=1, seed=77, kind="associated")
        table = generate_associated(config)[0]
        with pytest.raises(NotIndependentError):
            independent_closed_form(table, EvidenceUpdate(0.5, 0.5))

    @pytest.mark.parametrize(
        "cells, message",
        [
            ((math.nan,) + (0.125,) * 7, "invalid table: cell 0 is not finite: nan"),
            ((-0.125, 0.375) + (0.125,) * 6, "invalid table: cell 0 is negative: -0.125"),
        ],
        ids=["nan-cell", "negative-cell"],
    )
    def test_rejects_invalid_tables_as_validate_words_them(self, cells, message):
        table = JointTable(cells, kind="independent")
        with pytest.raises(InvalidTableError) as excinfo:
            independent_closed_form(table, EvidenceUpdate(0.8, 0.8))
        assert str(excinfo.value) == message


class TestInfeasibleAndNonConvergent:
    def make_e1_free_table(self) -> JointTable:
        """A table with no E1-true mass at all."""
        cells = [0.0] * 8
        cells[cell_index(False, False, False)] = 0.4
        cells[cell_index(False, True, False)] = 0.3
        cells[cell_index(False, True, True)] = 0.3
        return JointTable(tuple(cells))

    def test_certain_target_on_zero_mass_is_infeasible(self):
        table = self.make_e1_free_table()
        with pytest.raises(InfeasibleUpdateError):
            mce_update(table, EvidenceUpdate(1.0, 0.5))

    def test_interior_target_on_zero_mass_is_infeasible(self):
        table = self.make_e1_free_table()
        with pytest.raises(InfeasibleUpdateError):
            mce_update(table, EvidenceUpdate(0.5, 0.5))

    def test_zero_target_on_zero_mass_is_fine(self):
        table = self.make_e1_free_table()
        result = mce_update(table, EvidenceUpdate(0.0, 0.5))
        assert float(result.table.as_array()[MASK_E2].sum()) == pytest.approx(
            0.5, abs=1e-10
        )


interior_targets = st.floats(min_value=0.02, max_value=0.98)
targets = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
profiles = st.lists(st.floats(0.01, 0.99), min_size=4, max_size=4)


def log_odds_ratio(pairs) -> float:
    return math.log(pairs[0]) + math.log(pairs[3]) - math.log(pairs[1]) - math.log(pairs[2])


@st.composite
def skewed_tables(draw) -> JointTable:
    """Positive tables whose evidence-pair weights reach down to the
    validation floor, with |log theta| up to 10."""
    logs = draw(st.lists(st.floats(math.log(MARGINAL_FLOOR), 0.0), min_size=4, max_size=4))
    pairs = np.exp(logs) / np.exp(logs).sum()
    assume(pairs.min() >= MARGINAL_FLOOR and abs(log_odds_ratio(pairs)) <= 10.0)
    return compose_table(tuple(pairs), tuple(draw(profiles)))


# Pair weights at the floor, and |log theta| = 10 with theta above and below 1.
FLOOR_ROW = compose_table((2e-9, 0.3, 1e-9, 0.7 - 3e-9), (0.2, 0.5, 0.6, 0.9))
STRONG = compose_table((0.49, 0.0033, 0.0033, 0.5034), (0.1, 0.3, 0.6, 0.8))
STRONG_NEGATIVE = compose_table((0.0033, 0.49, 0.5034, 0.0033), (0.1, 0.3, 0.6, 0.8))


class TestClosedFormProperties:
    @given(table=skewed_tables(), u1=interior_targets, u2=interior_targets)
    @example(table=FLOOR_ROW, u1=0.5, u2=0.5)
    @example(table=STRONG, u1=0.9, u2=0.1)
    @example(table=STRONG_NEGATIVE, u1=0.9, u2=0.9)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_skewed_tables(self, table, u1, u2):
        ours = mce_update(table, EvidenceUpdate(u1, u2)).table.as_array()
        reference = bf.brute_mce(table.as_array(), u1, u2)
        assert float(np.max(np.abs(ours - reference))) <= 1e-6

    @given(
        zero=st.integers(0, 3),
        weights=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        profile=profiles,
        u1=targets,
        u2=targets,
    )
    @example(zero=3, weights=[1.0, 1.0, 1.0], profile=[0.5] * 4, u1=0.6, u2=0.7)
    @settings(max_examples=300, deadline=None)
    def test_single_zero_pair_weight(self, zero, weights, profile, u1, u2):
        """With one pair weight at zero (theta = 0 or infinity) the margins
        alone fix the update: reachable targets are hit and the zero stays,
        unreachable ones raise.  FF = 0 needs u1 + u2 >= 1, FT = 0 needs
        u1 >= u2, TF = 0 needs u2 >= u1, TT = 0 needs u1 + u2 <= 1."""
        pairs = list(np.array(weights) / sum(weights))
        pairs.insert(zero, 0.0)
        table = compose_table(tuple(pairs), tuple(profile))
        slack = (u1 + u2 - 1.0, u1 - u2, u2 - u1, 1.0 - u1 - u2)[zero]
        assume(slack >= 0.0 or slack < -1e-9)
        update = EvidenceUpdate(u1, u2)
        if slack < 0.0:
            with pytest.raises(InfeasibleUpdateError):
                mce_update(table, update)
            with pytest.raises(InfeasibleUpdateError):
                correct_posterior(table, update)
            return
        updated = mce_update(table, update).table
        cells = updated.as_array()
        assert abs(float(cells[MASK_E1].sum()) - u1) <= 1e-10
        assert abs(float(cells[MASK_E2].sum()) - u2) <= 1e-10
        assert pair_masses(updated.cells)[zero] == 0.0
        assert correct_posterior(table, update) == pytest.approx(
            float(cells[1::2].sum()), abs=1e-12
        )


def bisected_posterior(cells, u1: float, u2: float) -> float:
    """P'(C) with n'_TT found by bisection in 60-digit decimals on the
    odds-ratio equation x (1 - u1 - u2 + x) = theta (u1 - x)(u2 - x), whose
    left side minus right side increases across the Frechet bounds."""
    with localcontext() as ctx:
        ctx.prec = 60
        c = [Decimal(v) for v in cells]
        n = [c[0] + c[1], c[2] + c[3], c[4] + c[5], c[6] + c[7]]
        theta = n[0] * n[3] / (n[1] * n[2])
        a, b = Decimal(u1), Decimal(u2)
        lo, hi = max(Decimal(0), a + b - 1), min(a, b)
        for _ in range(200):
            x = (lo + hi) / 2
            if x * (1 - a - b + x) < theta * (a - x) * (b - x):
                lo = x
            else:
                hi = x
        weights = (1 - a - b + lo, b - lo, a - lo, lo)
        return float(sum(w * c[2 * k + 1] / n[k] for k, w in enumerate(weights)))


#: Evidence-pair weights (FF, FT, TF, TT) with |log theta| of several hundred:
#: one weight of 1e-160 on either diagonal, and pairs of 1e-170 whose product
#: underflows to zero in double precision.
EXTREME_PAIRS = [
    (0.3, 0.3, 0.4, 1e-160),
    (0.3, 1e-160, 0.3, 0.4),
    (0.5, 1e-170, 1e-170, 0.5),
    (1e-170, 0.5, 0.5, 1e-170),
]


class TestExtremeOddsRatios:
    @pytest.mark.parametrize("pairs", EXTREME_PAIRS)
    @pytest.mark.parametrize("u1, u2", [(0.3, 0.6), (0.7, 0.7), (0.5, 0.5), (0.9, 0.2)])
    def test_matches_bisection(self, pairs, u1, u2):
        # Not additive in E1 and E2, so P'(C) depends on n'_TT, not only on the margins.
        table = compose_table(pairs, (0.1, 0.3, 0.6, 0.2))
        update = EvidenceUpdate(u1, u2)
        expected = bisected_posterior(table.cells, u1, u2)
        assert correct_posterior(table, update) == pytest.approx(expected, abs=1e-12)
        cells = mce_update(table, update).table.as_array()
        assert float(cells[1::2].sum()) == pytest.approx(expected, abs=1e-12)
        assert abs(float(cells[MASK_E1].sum()) - u1) <= 1e-12
        assert abs(float(cells[MASK_E2].sum()) - u2) <= 1e-12


#: One unit in the last place of 1.0: the bounds below are a few of them.
ULP = 2.0**-52

#: Targets at, and a hair inside, certainty, beside interior ones.
EDGE_TARGETS = (0.0, 1e-12, 1e-6, 0.25, 0.5, 1 - 1e-6, 1 - 1e-12, 1.0)
edge_targets = st.sampled_from(EDGE_TARGETS) | st.floats(0.0, 1.0)


def decimal_update(cells, u1: float, u2: float, digits: int = 80) -> list[Decimal]:
    """The minimum cross-entropy update of positive ``cells`` in 80-digit
    decimals: n'_TT is the root in the Frechet bounds of the quadratic in
    ``oracle``'s docstring, each root taken in the form that does not
    cancel, and every evidence state's two cells scale by n'_ab / n_ab.
    The discriminant's terms grow as theta**2 and can cancel to theta, so
    an odds ratio of 10**d needs about d more ``digits``."""
    with localcontext() as ctx:
        ctx.prec = digits
        c = [Decimal(v) for v in cells]
        n = [c[0] + c[1], c[2] + c[3], c[4] + c[5], c[6] + c[7]]
        a, b = Decimal(u1), Decimal(u2)
        theta = n[0] * n[3] / (n[1] * n[2])
        lo, hi = max(Decimal(0), a + b - 1), min(a, b)
        qa, qb, qc = 1 - theta, (1 - a - b) + theta * (a + b), -theta * a * b
        if qa == 0:
            x = -qc / qb
        else:
            root = (qb * qb - 4 * qa * qc).sqrt()
            q = -(qb + root) / 2 if qb >= 0 else (root - qb) / 2
            roots = [q / qa] + ([qc / q] if q else [])
            x = min(max(min(roots, key=lambda r: max(lo - r, r - hi)), lo), hi)
        weights = (1 - a - b + x, b - x, a - x, x)
        return [weights[k // 2] * c[k] / n[k // 2] for k in range(8)]


def normalized(raw) -> JointTable:
    raw = np.asarray(raw, dtype=float)
    return JointTable(tuple((raw / raw.sum()).tolist()))


@st.composite
def wide_tables(draw) -> JointTable:
    """Positive tables whose cells span up to 14 decades."""
    logs = draw(st.lists(st.floats(-14.0, 0.0), min_size=8, max_size=8))
    return normalized(10.0 ** np.array(logs))


#: A table spanning the whole cell range.
WIDE = normalized([1, 1e-14, 0.3, 1e-7, 1e-14, 0.5, 1e-3, 0.2])

#: A table whose FT weight, updated to (1 - 1e-12, 1e-12), is 2.6e-16: as a
#: difference of margins it keeps no correct bit.
CANCELLING = JointTable(
    (
        0.04329004251002088,
        0.004329004251002087,
        0.43290042510020876,
        0.04329004251002088,
        0.43290042510020876,
        0.04329004251002088,
        4.329004251002088e-09,
        1.3689513433717848e-08,
    )
)


#: Pair weights whose FT weight, updated to (1 - 4.5e-14, 2.1e-14), is
#: 4.5e-27: as a difference of margins it came out 2.8e-16, between one and
#: two ulp of 1.
ONE_TO_TWO_ULP = (
    2.874413672901781e-07, 0.9996311986517646, 4.947146857829312e-10, 0.00036851341215337
)

#: Pair weights whose FT weight, updated to the targets below, came out 0 for
#: 3.754791519629917e-215: the product of the cells beside the root underflowed.
TINY_NEIGHBOURS = (
    0.15463502885489266, 0.845364971144931, 1.2817889576254266e-15, 1.7494321320275334e-13
)
TINY_NEIGHBOURS_TARGETS = (3.0030894154415656e-145, 3.754791519629917e-215)

#: Pair weights whose TF weight, updated to the targets below, came out 0 for
#: 5.37437988645617e-237 and TT twice its value: u1 * u2 is subnormal and the
#: discriminant's terms underflowed.
UNDERFLOWING_DISCRIMINANT = (
    1.0, 1.001431099940085e-157, 5.0584699329994955e-110, 1.5026470726090028e-75
)
UNDERFLOWING_DISCRIMINANT_TARGETS = (5.37437988645617e-237, 9.181075428827362e-232)

#: Targets the CLI accepts, from 1e-300 to within 1e-16 of 1.
accepted_targets = (
    st.floats(-300.0, -0.3).map(lambda e: 10.0**e)
    | st.floats(-16.0, -0.3).map(lambda e: 1.0 - 10.0**e)
    | st.floats(1e-300, 1.0 - 1e-16)
)


@st.composite
def spanning_pairs(draw) -> tuple[float, ...]:
    """Positive pair weights over up to 300 decades, summing to about 1."""
    weights = 10.0 ** np.array(draw(st.lists(st.floats(-300.0, 0.0), min_size=4, max_size=4)))
    return tuple((weights / weights.sum()).tolist())


def reference_weights(pairs, u1: float, u2: float) -> list[Decimal]:
    """``decimal_update``'s new pair weights, with a digit more per e-fold
    of theta."""
    cells = [v for n in pairs for v in (n / 2, n / 2)]
    new = decimal_update(cells, u1, u2, digits=80 + round(abs(log_odds_ratio(pairs))))
    return [new[2 * k] + new[2 * k + 1] for k in range(4)]


class TestHighPrecisionReference:
    """The closed form against the quadratic solved in 80-digit decimals."""

    @pytest.mark.parametrize(
        "pairs, u1, u2",
        [
            ((0.5, 1e-20, 1e-20, 0.5), 0.3, 0.6),  # TF cancels
            ((1e-20, 0.5, 0.5, 1e-20), 0.3, 0.6),  # TT cancels, theta < 1
            ((0.5, 1e-20, 1e-20, 0.5), 0.3, 0.3),  # FT and TF both cancel
            ((0.5, 1e-20, 1e-20, 0.5), 0.7, 0.6),  # FT cancels, root at FF
            (tuple(pair_masses(CANCELLING.cells).tolist()), 1 - 1e-12, 1e-12),
            (ONE_TO_TWO_ULP, 0.9999999999999549, 2.1487224381541462e-14),  # FT, 4.5e-27
            ((0.5, 1e-300, 1e-300, 0.5), 1e-160, 1e-160),  # u1 * u2 is subnormal
            (TINY_NEIGHBOURS, *TINY_NEIGHBOURS_TARGETS),  # FT, 3.8e-215
            (UNDERFLOWING_DISCRIMINANT, *UNDERFLOWING_DISCRIMINANT_TARGETS),  # TF, 5.4e-237
            (  # FT, 1.8e-236
                (
                    9.017736012180159e-09,
                    3.1952552161712476e-81,
                    2.815440076467199e-88,
                    0.999999990982264,
                ),
                7.696736778406516e-147,
                1.3778410849913297e-222,
            ),
            (  # FT, 1.4e-305
                (1.288989837553759e-107, 7.368686865380061e-197, 5.733554988722662e-135, 1.0),
                1.6940631598278078e-49,
                7.104558935660473e-131,
            ),
        ],
    )
    def test_weights_below_an_ulp_keep_their_relative_accuracy(self, pairs, u1, u2):
        """Each weight is within a few ulp of the reference's, relatively,
        where a difference of margins would keep no correct bit of it, or
        where the product of the targets is subnormal; a weight below the
        normal range has no relative accuracy, and stays there.  The odds ratio
        t = e^|log theta| carries the rounding of log theta, about
        |log theta| ulp."""
        bound = Decimal((8 + abs(log_odds_ratio(pairs))) * ULP)
        weights = pair_weights(np.array(pairs), u1, u2).tolist()
        for weight, expected in zip(weights, reference_weights(pairs, u1, u2)):
            if expected >= Decimal(sys.float_info.min):  # none to keep below that
                assert abs(Decimal(weight) - expected) <= bound * expected
            else:
                assert weight < sys.float_info.min

    @given(pairs=spanning_pairs(), u1=accepted_targets, u2=accepted_targets)
    @example(pairs=ONE_TO_TWO_ULP, u1=0.9999999999999549, u2=2.1487224381541462e-14)
    @example(pairs=(0.5, 1e-300, 1e-300, 0.5), u1=1e-160, u2=1e-160)
    @example(pairs=TINY_NEIGHBOURS, u1=TINY_NEIGHBOURS_TARGETS[0], u2=TINY_NEIGHBOURS_TARGETS[1])
    @example(
        pairs=UNDERFLOWING_DISCRIMINANT,
        u1=UNDERFLOWING_DISCRIMINANT_TARGETS[0],
        u2=UNDERFLOWING_DISCRIMINANT_TARGETS[1],
    )
    @settings(max_examples=200, deadline=None)
    def test_pair_weights_on_the_whole_accepted_domain(self, pairs, u1, u2):
        """Each weight is within 8 ulp * sum(1 / w) of the reference's,
        relatively, which is the weights' absolute accuracy of a few ulp,
        and so is the odds ratio where every weight is a normal double.  The
        odds ratio also carries the rounding of log theta, a sum of four
        logs each rounded to half an ulp of its size: 2 ulp * sum |log n|.
        Without that term, pairs (0.5, 0.5, 2.8e-159, 5e-159) at targets
        10**-0.375 broke the bound, 3.07e-14 against 3.01e-14.  None of
        4000 sampled rows broke the weights' bound."""
        weights = pair_weights(np.array(pairs), u1, u2).tolist()
        expected = reference_weights(pairs, u1, u2)
        with localcontext() as ctx:
            ctx.prec = 80
            bound = Decimal(8 * ULP) * sum(1 / w for w in expected)
            for weight, w in zip(weights, expected):
                assert abs(Decimal(weight) - w) <= bound * w
            if min(weights) >= sys.float_info.min:
                new, old = [Decimal(w) for w in weights], [Decimal(n) for n in pairs]
                kept = new[0] * new[3] / (new[1] * new[2]) * (old[1] * old[2]) / (old[0] * old[3])
                logs = Decimal(2 * ULP * sum(abs(math.log(n)) for n in pairs))
                assert abs(kept - 1) <= bound + logs

    def test_each_weight_of_a_fixed_sample_keeps_its_relative_accuracy(self):
        """1000 rows from the whole-domain property's distributions at a
        fixed seed; 993 of them are solved again at their small cell.  Each
        weight is within (8 + |log theta|) ulp + 2^-36 of the reference's,
        relatively, which is tighter than the property's bound wherever a
        weight is tiny: a row is solved again where a weight is at most
        2^-16, so a difference of margins keeps 2^-36 of itself.  A weight
        whose reference is below the normal range stays there."""
        rng = np.random.default_rng(3)
        raw = 10.0 ** rng.uniform(-300.0, 0.0, (1000, 4))
        pairs = raw / raw.sum(axis=1, keepdims=True)
        drawn = np.stack(
            (
                10.0 ** rng.uniform(-300.0, -0.3, (1000, 2)),
                1.0 - 10.0 ** rng.uniform(-16.0, -0.3, (1000, 2)),
                rng.uniform(1e-300, 1.0 - 1e-16, (1000, 2)),
            )
        )
        pick = rng.integers(0, 3, (1, 1000, 2))  # each target's distribution
        u1, u2 = np.take_along_axis(drawn, pick, axis=0)[0].T
        weights = pair_weights(pairs, u1, u2).tolist()
        broken = []
        for row, ws, t1, t2 in zip(pairs.tolist(), weights, u1.tolist(), u2.tolist()):
            bound = Decimal((8 + abs(log_odds_ratio(row))) * ULP) + Decimal(2.0**-36)
            for weight, expected in zip(ws, reference_weights(row, t1, t2)):
                if expected >= Decimal(sys.float_info.min):
                    kept = abs(Decimal(weight) - expected) <= bound * expected
                else:
                    kept = weight < sys.float_info.min
                if not kept:
                    broken.append((row, t1, t2, weight, expected))
        assert broken == []

    @given(table=wide_tables(), u1=edge_targets, u2=edge_targets)
    @example(table=WIDE, u1=1 - 1e-12, u2=1e-12)
    @example(table=WIDE, u1=1.0, u2=0.0)
    @settings(max_examples=300, deadline=None)
    def test_posteriors_are_within_a_few_ulp(self, table, u1, u2):
        expected = float(sum(decimal_update(table.cells, u1, u2)[1::2]))
        assert abs(float(posteriors(table.as_array(), u1, u2)) - expected) <= 6 * ULP
        assert abs(correct_posterior(table, EvidenceUpdate(u1, u2)) - expected) <= 6 * ULP

    @given(
        rates=st.lists(
            st.floats(-14.0, 0.0).map(lambda e: 10.0**e) | st.sampled_from([0.5]),
            min_size=2,
            max_size=2,
        ),
        complements=st.lists(st.booleans(), min_size=2, max_size=2),
        profile=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=4, max_size=4),
        u1=edge_targets,
        u2=edge_targets,
    )
    @settings(max_examples=200, deadline=None)
    def test_independent_closed_form_is_within_a_few_ulp(
        self, rates, complements, profile, u1, u2
    ):
        p_e1, p_e2 = (1.0 - p if flip else p for p, flip in zip(rates, complements))
        assume(0.0 < p_e1 < 1.0 and 0.0 < p_e2 < 1.0)
        masses = tuple(product_masses(p_e1, p_e2).tolist())
        table = compose_table(masses, tuple(profile), kind="independent")
        expected = float(sum(decimal_update(table.cells, u1, u2)[1::2]))
        assert abs(independent_closed_form(table, EvidenceUpdate(u1, u2)) - expected) <= 6 * ULP

    @given(table=wide_tables(), u1=edge_targets, u2=edge_targets)
    @example(table=WIDE, u1=1 - 1e-6, u2=1e-12)
    @example(table=CANCELLING, u1=1 - 1e-12, u2=1e-12)
    @settings(max_examples=300, deadline=None)
    def test_mce_update_keeps_the_odds_ratios_and_meets_the_margins(self, table, u1, u2):
        """The cells are within a few ulp of the reference's, both margins
        are met, and each evidence state keeps its conclusion odds.  A
        conditional odds ratio across evidence states also holds within the
        weights' absolute error over each weight, the accuracy a difference
        of margins has; CANCELLING has a weight that no such difference
        gets right."""
        updated = mce_update(table, EvidenceUpdate(u1, u2)).table.cells
        p_e1, p_e2, _ = rates(table.cells)
        if abs(p_e1 - u1) <= MATCH_TOL and abs(p_e2 - u2) <= MATCH_TOL:
            assert updated == table.cells  # the documented no-op
            return
        reference = decimal_update(table.cells, u1, u2)
        assert max(abs(v - float(r)) for v, r in zip(updated, reference)) <= 4 * ULP
        assert abs(sum(updated[4:]) - u1) <= 4 * ULP
        assert abs(sum(updated[2:4] + updated[6:]) - u2) <= 4 * ULP
        with localcontext() as ctx:
            ctx.prec = 80
            old, new = [Decimal(v) for v in table.cells], [Decimal(v) for v in updated]
            for k in range(4):
                # A subnormal cell has no relative accuracy to keep.
                if min(updated[2 * k : 2 * k + 2]) >= sys.float_info.min:
                    kept = new[2 * k + 1] / new[2 * k] * old[2 * k] / old[2 * k + 1]
                    assert abs(kept - 1) <= 2 * ULP
            weights = [reference[2 * k] + reference[2 * k + 1] for k in range(4)]
            for c in (0, 1):
                if all(new[2 * k + c] for k in range(4)):
                    def ratio(t):
                        return t[c] * t[6 + c] / (t[2 + c] * t[4 + c])

                    bound = Decimal(8 * ULP) * sum(1 / w for w in weights)
                    assert abs(ratio(new) / ratio(old) - 1) <= bound
