"""Where the rules are exact: the sweep against a virtual-evidence answer
written here, which shares no code with the package.

Virtual evidence (VE; Pearl 1988, Chan & Darwiche 2005) treats each update
u_i as a likelihood ratio on E_i, calibrated alone so that P(E_i) becomes
u_i: lambda_i(T) = u_i / P(E_i) and lambda_i(F) = (1 - u_i) / (1 - P(E_i)),
so that

    P_VE(C) = sum x(e1, e2, C) l1(e1) l2(e2) / sum n(e1, e2) l1(e1) l2(e2).

Like the minimum cross-entropy (MCE) oracle, it keeps P(C | E1, E2) and the
pair odds ratio theta; unlike it, it does not make the two margins equal u1
and u2 jointly.  Three identities tie the engine to the oracle through it:
PROSPECTOR's independent rule is VE where E1 and E2 are independent given C
and given not C; MCE is VE at the four corners, on every table; and MCE is
VE wherever theta = 1.  Off those regimes they differ, by more than 0.1 on
the table below.  Bounds are in ulps of 1, and far below the bench's
ENGINE_TOL (1e-11); the measured maxima are in each docstring.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prospector_eval.engine import Rule
from prospector_eval.study import RULE_ORDER, sweep

ULP = 2.0**-52
#: The updates: both corners and interior points, on each evidence variable.
GRID = tuple(k / 10 for k in range(11))
INDEPENDENT = RULE_ORDER.index(Rule.INDEPENDENT)


def cell(e1: int, e2: int, c: int) -> int:
    """Index of (e1, e2, c) in the package's cell order."""
    return 4 * e1 + 2 * e2 + c


def virtual_evidence(cells, u1: float, u2: float) -> float:
    """P_VE(C) of one table at one update, in plain Python floats."""
    p_e1 = sum(cells[cell(1, b, c)] for b in (0, 1) for c in (0, 1))
    p_e2 = sum(cells[cell(a, 1, c)] for a in (0, 1) for c in (0, 1))
    l1 = ((1 - u1) / (1 - p_e1), u1 / p_e1)
    l2 = ((1 - u2) / (1 - p_e2), u2 / p_e2)
    weight = {(a, b): l1[a] * l2[b] for a in (0, 1) for b in (0, 1)}
    top = sum(cells[cell(a, b, 1)] * w for (a, b), w in weight.items())
    bottom = sum((cells[cell(a, b, 0)] + cells[cell(a, b, 1)]) * w for (a, b), w in weight.items())
    return top / bottom


def reference(cells) -> np.ndarray:
    """``virtual_evidence`` at every update of GRID, (G, G) like the sweep."""
    return np.array([[virtual_evidence(cells, u1, u2) for u2 in GRID] for u1 in GRID])


def swept(cells) -> tuple[np.ndarray, np.ndarray]:
    """The independent rule's answers and the MCE posteriors on GRID."""
    answers, oracle = sweep(np.array([cells]), GRID)
    return answers[0, ..., INDEPENDENT], oracle[0]


rates = st.floats(0.01, 0.99)


def conditionally_independent(c, a1, b1, a2, b2) -> tuple[float, ...]:
    """The table with P(C) = c, P(E_i | C) = a_i and P(E_i | not C) = b_i,
    in which E1 and E2 are independent given C and given not C."""
    cells = [0.0] * 8
    for e1 in (0, 1):
        for e2 in (0, 1):
            cells[cell(e1, e2, 1)] = c * (a1 if e1 else 1 - a1) * (a2 if e2 else 1 - a2)
            cells[cell(e1, e2, 0)] = (1 - c) * (b1 if e1 else 1 - b1) * (b2 if e2 else 1 - b2)
    return tuple(cells)


@st.composite
def positive_tables(draw) -> tuple[float, ...]:
    """Positive tables whose cells span up to six decades."""
    cells = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 0.0), min_size=8, max_size=8)))
    return tuple((cells / cells.sum()).tolist())


@st.composite
def unassociated_tables(draw) -> tuple[float, ...]:
    """Tables whose evidence pair is the product of its margins (theta = 1),
    with any profile P(C | e1, e2) that leaves P(C) inside (0, 1)."""
    p_e1, p_e2 = draw(rates), draw(rates)
    profile = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    cells = [0.0] * 8
    for e1 in (0, 1):
        for e2 in (0, 1):
            n = (p_e1 if e1 else 1 - p_e1) * (p_e2 if e2 else 1 - p_e2)
            q = profile[2 * e1 + e2]
            cells[cell(e1, e2, 1)], cells[cell(e1, e2, 0)] = n * q, n * (1 - q)
    p_c = sum(cells[1::2])
    assume(0.0 < p_c < 1.0)
    return tuple(cells)


def odds_condition(cells) -> np.ndarray:
    """Sum of 1 / (p (1 - p)) over P(C) and the two one-link posteriors at
    every update of GRID: the relative error the odds of p pick up from an
    absolute error of an ulp in p, per ulp."""
    p_c = sum(cells[1::2])
    p_e1, p_e2 = sum(cells[4:]), sum(cells[2:4] + cells[6:])
    terms = [
        [(p_c, virtual_evidence(cells, u1, p_e2), virtual_evidence(cells, p_e1, u2)) for u2 in GRID]
        for u1 in GRID
    ]
    return (1.0 / (np.array(terms) * (1.0 - np.array(terms)))).sum(axis=-1)


#: Conditionally independent, with P(C) = 0.2, P(E_i | C) = 0.9 and
#: P(E_i | not C) = 0.1.
SPLIT = conditionally_independent(0.2, 0.9, 0.1, 0.9, 0.1)


class TestExactRegimes:
    @given(c=rates, a1=rates, b1=rates, a2=rates, b2=rates)
    @settings(max_examples=100, deadline=None)
    def test_independent_rule_is_virtual_evidence_under_its_assumption(self, c, a1, b1, a2, b2):
        """Where E1 and E2 are independent given C and given not C, each
        link is Jeffrey's rule on its own evidence, and the odds product
        multiplies the two likelihood ratios VE does: the independent rule
        equals VE at every update, interior ones too.  The odds carry each
        probability's rounding over p (1 - p), so the bound is 64 ulp times
        ``odds_condition``.  Measured over 2000 uniform draws: 6.7e-15 (30
        ulp); over 20,000 draws with rates at the ends of [0.01, 0.99]:
        5.0e-13 (2237 ulp), and 13.9 ulp times ``odds_condition``."""
        cells = conditionally_independent(c, a1, b1, a2, b2)
        independent, _ = swept(cells)
        error = np.abs(independent - reference(cells))
        assert (error <= 64 * ULP * odds_condition(cells)).all()

    @given(cells=positive_tables())
    @example(cells=SPLIT)
    @settings(max_examples=100, deadline=None)
    def test_oracle_is_virtual_evidence_at_the_corners(self, cells):
        """Certain evidence conditions on it either way, so at the four
        corners MCE equals VE on every table (measured: 2.2e-16, one ulp,
        over 20,000 tables with cells over six decades)."""
        _, oracle = swept(cells)
        corners = np.ix_((0, -1), (0, -1))
        assert np.abs(oracle[corners] - reference(cells)[corners]).max() <= 8 * ULP

    @given(cells=unassociated_tables())
    @settings(max_examples=100, deadline=None)
    def test_oracle_is_virtual_evidence_without_association(self, cells):
        """With theta = 1, the MCE pair weights are u-products, and so are
        VE's n(e1, e2) l1(e1) l2(e2): MCE equals VE at every update
        (measured: 1.6e-15 over 2000 uniform draws, and 2.7e-15, 12 ulp,
        with rates and profiles at their ends)."""
        _, oracle = swept(cells)
        assert np.abs(oracle - reference(cells)).max() <= 64 * ULP

    def test_oracle_is_not_the_independent_rule_off_the_corners(self):
        """On SPLIT the independent rule is VE, and at the corners so is MCE;
        but at the edge point (1, 0.5) MCE moves the pair weights to meet
        both margins jointly, and lands more than 0.1 away (0.576 against
        0.835 for the rule)."""
        independent, oracle = swept(SPLIT)
        assert (np.abs(independent - reference(SPLIT)) <= 64 * ULP * odds_condition(SPLIT)).all()
        corners = np.ix_((0, -1), (0, -1))
        assert np.abs(oracle[corners] - independent[corners]).max() <= 64 * ULP
        edge = GRID.index(1.0), GRID.index(0.5)
        assert abs(oracle[edge] - independent[edge]) > 0.1
