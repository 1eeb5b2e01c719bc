import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prospector_eval import (
    EmptyEvidenceError,
    JointTable,
    LinkParams,
    NetworkView,
    Rule,
    combine_independent,
    infer,
    network_view,
    propagate,
)
from prospector_eval.errors import DegenerateBaseRateError
from prospector_eval.study import RULE_ORDER, sweep

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior_rates = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


def view_links(view):
    """The (E1, E2) links of a network view, as ``infer`` builds them."""
    return tuple(
        LinkParams(
            p_c=view.p_c,
            p_e=view.p_e[i],
            p_c_given_e=view.p_c_given_e[i],
            p_c_given_not_e=view.p_c_given_not_e[i],
        )
        for i in range(2)
    )


@st.composite
def consistent_links(draw):
    """A link whose prior really is the base-rate mixture of its conditionals."""
    p_e = draw(interior_rates)
    p_c_given_e = draw(probabilities)
    p_c_given_not_e = draw(probabilities)
    p_c = p_c_given_e * p_e + p_c_given_not_e * (1.0 - p_e)
    return LinkParams(
        p_c=p_c, p_e=p_e, p_c_given_e=p_c_given_e, p_c_given_not_e=p_c_given_not_e
    )


class TestPropagate:
    @given(link=consistent_links())
    @settings(max_examples=200, deadline=None)
    def test_anchors(self, link):
        assert propagate(link, 0.0) == link.p_c_given_not_e
        assert propagate(link, link.p_e) == pytest.approx(link.p_c, abs=1e-12)
        assert propagate(link, 1.0) == pytest.approx(link.p_c_given_e, abs=1e-12)

    def test_case_study_1_between_anchors(self, case1):
        link = view_links(network_view(case1))[0]
        # Upper branch: .5 + .2 * (.8 - .5)/(1 - .5) = .62
        assert propagate(link, 0.8) == pytest.approx(0.62, abs=1e-12)
        # Lower branch: .3 + .2 * .25/.5 = .4
        assert propagate(link, 0.25) == pytest.approx(0.40, abs=1e-12)

    @given(link=consistent_links(), a=probabilities, b=probabilities)
    @settings(max_examples=200, deadline=None)
    def test_monotone_when_conditionals_ordered(self, link, a, b):
        lo, hi = min(a, b), max(a, b)
        if link.p_c_given_not_e <= link.p_c_given_e:
            assert propagate(link, lo) <= propagate(link, hi) + 1e-12
        else:
            assert propagate(link, lo) >= propagate(link, hi) - 1e-12

    @given(link=consistent_links())
    @settings(max_examples=200, deadline=None)
    def test_continuous_at_the_knee(self, link):
        eps = 1e-9
        below = propagate(link, max(0.0, link.p_e - eps))
        above = propagate(link, min(1.0, link.p_e + eps))
        assert abs(above - below) < 1e-7

    def test_rejects_out_of_range_update(self, case1):
        link = view_links(network_view(case1))[0]
        with pytest.raises(ValueError):
            propagate(link, 1.5)

    def test_float32_update_gives_a_python_float(self, case1):
        link = view_links(network_view(case1))[0]
        value = propagate(link, np.float32(0.3))
        assert type(value) is float
        assert value == propagate(link, float(np.float32(0.3)))

    def test_rejects_degenerate_base_rate(self):
        link = LinkParams(p_c=0.5, p_e=1.0, p_c_given_e=0.5, p_c_given_not_e=0.5)
        with pytest.raises(DegenerateBaseRateError):
            propagate(link, 0.5)

    def test_float32_link_gives_a_python_float(self):
        link = LinkParams(np.float32(0.4), 0.3, 0.8, 0.2)
        assert [type(v) for v in (link.p_c, link.p_e)] == [float, float]
        value = propagate(link, 0.5)
        assert type(value) is float
        assert value == propagate(LinkParams(float(np.float32(0.4)), 0.3, 0.8, 0.2), 0.5)

    @pytest.mark.parametrize("value", [True, "0.4", None])
    def test_link_refuses_a_bool_or_non_real_field(self, value):
        with pytest.raises(ValueError, match="^p_c_given_e must be a real number, got "):
            LinkParams(0.4, 0.3, value, 0.2)


class TestCombineIndependent:
    def test_two_symmetric_posteriors(self):
        """Two .7 posteriors against a .5 prior: odds 1 * (7/3)^2 = 49/9."""
        value, trace = combine_independent([0.7, 0.7], 0.5)
        assert value == pytest.approx(49.0 / 58.0, abs=1e-12)
        assert trace.combined_odds == pytest.approx(49.0 / 9.0, abs=1e-12)

    @given(p_c=interior_rates, k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_prior_posteriors_are_a_fixpoint(self, p_c, k):
        value, _ = combine_independent([p_c] * k, p_c)
        assert value == pytest.approx(p_c, abs=1e-12)

    @given(posterior=st.floats(min_value=0.001, max_value=0.999), p_c=interior_rates)
    @settings(max_examples=100, deadline=None)
    def test_singleton_returns_the_posterior(self, posterior, p_c):
        value, _ = combine_independent([posterior], p_c)
        assert value == pytest.approx(posterior, abs=1e-12)

    @given(
        posteriors=st.lists(
            st.floats(min_value=0.001, max_value=0.999), min_size=2, max_size=5
        ),
        p_c=interior_rates,
    )
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, posteriors, p_c):
        forward, _ = combine_independent(posteriors, p_c)
        backward, _ = combine_independent(list(reversed(posteriors)), p_c)
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-12)

    def test_certain_posteriors_clamp_and_flag(self):
        value, trace = combine_independent([1.0, 0.5], 0.5)
        assert 0.0 <= value <= 1.0
        assert trace.evidence[0].clamped
        assert not trace.evidence[1].clamped
        assert np.isfinite(trace.combined_odds)

    def test_float32_inputs_give_python_floats(self):
        value, trace = combine_independent([np.float32(0.7), 0.6], np.float32(0.4))
        assert type(value) is float
        assert type(trace.prior) is float
        assert {type(entry.posterior) for entry in trace.evidence} == {float}
        floats = combine_independent([float(np.float32(0.7)), 0.6], float(np.float32(0.4)))
        assert (value, trace) == floats

    def test_prior_must_be_interior(self):
        """A prior outside (0, 1) is refused as ``infer`` refuses such a P(C)."""
        for prior in (0.0, 1.0, np.float64(1.0), 1.5, -0.1, math.nan, 2):
            with pytest.raises(DegenerateBaseRateError) as excinfo:
                combine_independent([0.5], prior)
            text = f"base rate of C is {float(prior)!r}; the rules need 0 < P(C) < 1"
            assert str(excinfo.value) == text

    @pytest.mark.parametrize("prior", ["0.5", True, None])
    def test_a_bool_or_non_real_prior_is_a_value_error(self, prior):
        with pytest.raises(ValueError, match="^prior must be a real number, got "):
            combine_independent([0.5], prior)

    def test_empty_raises(self):
        with pytest.raises(EmptyEvidenceError):
            combine_independent([], 0.5)


def asymmetric_view():
    """A small hand-built network whose two links behave very differently."""
    cells = (0.30, 0.10, 0.05, 0.05, 0.10, 0.10, 0.05, 0.25)
    return network_view(JointTable(cells))


class TestInfer:
    def test_case_study_1_certain_updates(self, case1):
        view = network_view(case1)
        value, _ = infer(view, Rule.INDEPENDENT, (1.0, 1.0))
        assert value == pytest.approx(49.0 / 58.0, abs=1e-12)

    def test_case_study_2_certain_updates(self, case2):
        """Odds algebra: O(C) = 1/19, ratios 28.5 and 133/3, so O' = 66.5."""
        view = network_view(case2)
        value, trace = infer(view, Rule.INDEPENDENT, (1.0, 1.0))
        assert value == pytest.approx(133.0 / 135.0, abs=1e-12)
        assert trace.combined_odds == pytest.approx(66.5, abs=1e-9)

    @pytest.mark.parametrize("rule", list(Rule))
    def test_base_rate_updates_return_the_prior(self, case1, rule):
        view = network_view(case1)
        value, _ = infer(view, rule, view.p_e)
        assert value == pytest.approx(view.p_c, abs=1e-12)

    def test_conjunctive_takes_the_minimum_link(self):
        view = asymmetric_view()
        links = view_links(view)
        value, trace = infer(view, Rule.CONJUNCTIVE, (0.9, 0.2))
        assert value == propagate(links[1], 0.2)
        assert trace.selected == 1
        assert not trace.tie

    def test_disjunctive_takes_the_maximum_link(self):
        view = asymmetric_view()
        links = view_links(view)
        value, trace = infer(view, Rule.DISJUNCTIVE, (0.9, 0.2))
        assert value == propagate(links[0], 0.9)
        assert trace.selected == 0

    def test_ties_go_to_the_first_link_and_are_flagged(self):
        view = asymmetric_view()
        links = view_links(view)
        for rule in (Rule.CONJUNCTIVE, Rule.DISJUNCTIVE):
            value, trace = infer(view, rule, (0.4, 0.4))
            assert trace.selected == 0
            assert trace.tie
            assert value == propagate(links[0], 0.4)

    def test_trace_invariants_over_random_networks(self, rng):
        """Every trace must be internally consistent and reproduce its answer."""
        for _ in range(50):
            raw = rng.uniform(0.01, 1.0, 8)
            view = network_view(JointTable(tuple(raw / raw.sum())))
            updates = tuple(rng.uniform(0.0, 1.0, 2))
            for rule in Rule:
                value, trace = infer(view, rule, updates)
                assert trace.probability == value
                assert trace.prior_odds == trace.used_prior / (1.0 - trace.used_prior)
                recomputed = trace.prior_odds
                for entry in trace.evidence:
                    assert entry.odds == entry.used_posterior / (1.0 - entry.used_posterior)
                    assert entry.likelihood_ratio == entry.odds / trace.prior_odds
                    recomputed *= entry.likelihood_ratio
                assert recomputed == trace.combined_odds
                from_odds = trace.combined_odds / (1.0 + trace.combined_odds)
                assert from_odds == pytest.approx(value, abs=1e-12)

    def test_mismatched_lengths_raise(self, case1):
        view = network_view(case1)
        for update in ((0.5,), (0.5, 0.5, 0.5)):
            with pytest.raises(ValueError, match="one update per evidence variable") as excinfo:
                infer(view, Rule.CONJUNCTIVE, update)
            assert "\n" not in str(excinfo.value)

    def test_empty_update_raises(self, case1):
        with pytest.raises(EmptyEvidenceError):
            infer(network_view(case1), Rule.INDEPENDENT, ())

    def test_a_rule_name_is_not_a_rule(self, case1):
        with pytest.raises(ValueError, match="unknown rule: 'conjunctive'"):
            infer(network_view(case1), "conjunctive", (0.5, 0.5))

    def test_float32_update_is_answered_as_the_sweep_answers_it(self, case2):
        """A float32 update is read as the double it holds, as ``sweep``
        reads its grid, so each rule's answer is a Python float equal to the
        sweep's bit for bit."""
        update = (np.float32(0.3), 0.7)
        answers, _ = sweep([case2.cells], update)
        for k, rule in enumerate(RULE_ORDER):
            value, trace = infer(network_view(case2), rule, update)
            assert type(value) is float
            assert value == answers[0, 0, 1, k]
            assert [type(entry.p_new_e) for entry in trace.evidence] == [float] * len(trace.evidence)

    def test_float32_view_gives_python_floats_and_bools(self, case2):
        """A hand-built view of float32 fields is read as the doubles they
        hold: the answer and every trace field are Python floats and bools."""
        view = network_view(case2)
        narrow = NetworkView(
            np.float32(view.p_c),
            tuple(map(np.float32, view.p_e)),
            tuple(map(np.float32, view.p_c_given_e)),
            tuple(map(np.float32, view.p_c_given_not_e)),
        )
        wide = NetworkView(
            float(np.float32(view.p_c)),
            tuple(float(np.float32(v)) for v in view.p_e),
            tuple(float(np.float32(v)) for v in view.p_c_given_e),
            tuple(float(np.float32(v)) for v in view.p_c_given_not_e),
        )
        assert narrow == wide
        for rule in Rule:
            value, trace = infer(narrow, rule, (0.3, 0.7))
            assert type(value) is float
            assert (value, trace) == infer(wide, rule, (0.3, 0.7))
            assert type(trace.prior) is float and type(trace.prior_clamped) is bool
            assert {type(entry.clamped) for entry in trace.evidence} == {bool}

    def test_view_refuses_a_non_real_field(self, case1):
        view = network_view(case1)
        with pytest.raises(ValueError, match="^p_e must be a real number, got '0.5'"):
            NetworkView(view.p_c, (view.p_e[0], "0.5"), view.p_c_given_e, view.p_c_given_not_e)

    def test_a_link_conditional_rounding_above_one_keeps_the_view(self):
        """P(C | not E1) is 1 here, but the division rounds it above 1: the
        view keeps the value, and the clamped answers equal the sweep's."""
        table = JointTable((0.0, 0.1, 0.0, 0.2, 0.1, 0.3, 0.2, 0.1))
        view = network_view(table)
        assert view.p_c_given_not_e[0] > 1.0
        grid = (0.0, 0.25, 1.0)
        answers, _ = sweep([table.cells], grid)
        for i, u1 in enumerate(grid):
            for j, u2 in enumerate(grid):
                for k, rule in enumerate(RULE_ORDER):
                    assert infer(view, rule, (u1, u2))[0] == answers[0, i, j, k]

    @pytest.mark.parametrize("update", [(True, 0.5), (0.5, "0.5"), (0.5, None)])
    def test_bool_or_non_real_update_raises(self, case1, update):
        with pytest.raises(ValueError, match="^probabilities must be a real number, got "):
            infer(network_view(case1), Rule.INDEPENDENT, update)

    def test_out_of_range_raises(self, case1):
        view = network_view(case1)
        for rule in Rule:
            for update in ((0.5, 1.2), (-0.1, 0.5), (0.5, float("nan"))):
                with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
                    infer(view, rule, update)
