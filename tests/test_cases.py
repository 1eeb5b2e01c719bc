import pytest

from prospector_eval import (
    InfeasibleConstraintsError,
    case_study_table,
    conditional_profile,
    independent_table_from_profile,
    network_view,
    solve_link_constraints,
    validate,
)


class TestCaseStudy1:
    def test_is_a_valid_independent_table(self, case1):
        assert case1.kind == "independent"
        assert validate(case1) == ()

    def test_symmetric_construction(self, case1):
        profile = conditional_profile(case1)
        assert profile == pytest.approx((0.1, 0.5, 0.5, 0.9), abs=1e-12)
        view = network_view(case1)
        assert view.p_e == pytest.approx((0.5, 0.5), abs=1e-12)
        assert view.p_c == pytest.approx(0.5, abs=1e-12)
        assert view.p_c_given_e[0] == pytest.approx(view.p_c_given_e[1], abs=1e-12)


class TestCaseStudy2:
    def test_reproduces_its_defining_constraints(self, case2):
        view = network_view(case2)
        assert view.p_e == pytest.approx((0.01, 0.02), abs=1e-9)
        assert view.p_c == pytest.approx(0.05, abs=1e-9)
        assert view.p_c_given_e == pytest.approx((0.60, 0.70), abs=1e-9)
        assert conditional_profile(case2)[3] == pytest.approx(0.95, abs=1e-9)

    def test_evidence_variables_stay_independent(self, case2):
        assert case2.kind == "independent"
        assert validate(case2) == ()


class TestConstructors:
    def test_independent_table_from_profile_rejects_degenerate_rates(self):
        with pytest.raises(ValueError):
            independent_table_from_profile(0.0, 0.5, (0.1, 0.2, 0.3, 0.4))
        with pytest.raises(ValueError):
            independent_table_from_profile(0.5, 1.0, (0.1, 0.2, 0.3, 0.4))
        with pytest.raises(ValueError):
            independent_table_from_profile(0.5, 0.5, (0.1, 0.2, 0.3, 1.4))

    def test_solver_matches_direct_construction(self):
        # When the profile route and the constraint route describe the same
        # network they must agree cell for cell.
        direct = independent_table_from_profile(0.5, 0.5, (0.1, 0.5, 0.5, 0.9))
        p_c = 0.1 * 0.25 + 0.5 * 0.25 + 0.5 * 0.25 + 0.9 * 0.25
        solved = solve_link_constraints(
            p_e1=0.5,
            p_e2=0.5,
            p_c=p_c,
            p_c_given_e1=0.7,
            p_c_given_e2=0.7,
            p_c_given_both=0.9,
        )
        assert solved.as_array() == pytest.approx(direct.as_array(), abs=1e-12)

    def test_infeasible_constraints_raise(self):
        # P(C) = .05 overall but .9 on each single link forces a negative
        # conditional somewhere.
        with pytest.raises(InfeasibleConstraintsError):
            solve_link_constraints(
                p_e1=0.5,
                p_e2=0.5,
                p_c=0.05,
                p_c_given_e1=0.9,
                p_c_given_e2=0.9,
                p_c_given_both=0.99,
            )

    def test_an_evidence_state_of_zero_probability_is_infeasible(self):
        # Base rates so small that P(E1 and E2) underflows to zero.
        with pytest.raises(InfeasibleConstraintsError, match="state tt has zero probability"):
            solve_link_constraints(1e-200, 1e-200, 0.05, 0.6, 0.7, 0.95)

    def test_unknown_case_id_raises(self):
        with pytest.raises(ValueError):
            case_study_table(3)
