"""Regime classification, bracketing, root finding and the grid oracle."""

import dataclasses
import math
import operator
import sys
import tracemalloc
import warnings
from itertools import accumulate
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as reference_brentq

import _oracle
import privopt.solver
from conftest import (
    FLAT_SURPLUS,
    OVERFLOWING_BENEFIT,
    OVERFLOWING_SURPLUS,
    SUBNORMAL_CAP,
    SUBNORMAL_PARTIAL_PRODUCT,
    SUBNORMAL_PRODUCT,
    TINY_OPTIMUM,
    TINY_RISK,
    UNDERFLOWING_BOUND,
    ZERO_MARGIN_OVERFLOW,
    boundary_scenarios,
    fuzz_scenarios,
    make_random_scenario,
    wide_scenarios,
)
from privopt import (
    DomainError,
    NumericError,
    Regime,
    Scenario,
    SolutionStatus,
    UsageError,
    ValidationError,
    classify_regime,
    default_price_grid,
    feasibility_report,
    net_surplus,
    normalized_gradient,
    oracle_grid_argmax,
    price_sweep,
    saturation_price,
    solve_discrete,
    solve_tradeoff,
    surplus_gradient,
)
from privopt.model import _cap_risk, _decision_equation, _exp, _surplus_bounds
from privopt.solver import MAX_ORACLE_POINTS, ORACLE_BLOCK, RTOL, XTOL, _exponent_gap, _search, _setup, brentq

# nu between 1 and 1+theta: gradient peaks, two stationary points, interior max
SUBCASE_A_INTERIOR = Scenario(
    q_star=1000.0, p_star=10.0, price=2.0, nu=1.1, theta=0.5,
    alpha_n=0.5, l_n=1e5, pi_s=1e-5, pi_c_star=0.05,
)
# nu above 1+theta: surplus dips then grows; endpoints compete
SUBCASE_B_CLAMPED = Scenario(
    q_star=1000.0, p_star=10.0, price=2.0, nu=1.8, theta=0.5,
    alpha_n=0.5, l_n=1e5, pi_s=1e-5, pi_c_star=1e-4,
)
# 1 < nu < 1 + theta with the descending root near 1e274: Brent's
# extrapolation step divides by zero there, and must bisect instead
SUBCASE_A_ZERO_STEP = Scenario(
    q_star=1559.1363837963554, p_star=194.63393199203034, price=117.32744553135596,
    nu=1.108574191501854, theta=0.13978560489920183, alpha_n=0.09441060866673744,
    l_n=0.029088700437139053, pi_s=0.0015675339544854849, pi_c_star=0.0001904877208343742,
)
# nu > 1 + theta whose gain at l_n is exactly 0.0: 0 and l_n tie at the surplus 2.0
TIE = Scenario(q_star=4, p_star=1, price=0, nu=2, theta=0.5, alpha_n=0.5, l_n=1.6, pi_s=0.25, pi_c_star=0.5)
# nu < 1 with the optimum below the smallest subnormal: it rounds to 0
UNDERFLOWING_OPTIMUM = Scenario(
    q_star=0.001, p_star=0.001, price=0.0, nu=0.999, theta=0.01,
    alpha_n=0.001, l_n=1e12, pi_s=0.01, pi_c_star=0.5,
)
#: Fuzzed scenarios the solver once failed on.  SUBCASE_A: the gradient
#: peak lies beyond floating range, so the descending root cannot be
#: bracketed (the maximum lies beyond l_n).  NU_LT_1: the constructed
#: bracket's lower end underflows, or its upper end overflows, so the
#: gradient is not yet positive at the lower end.
STREAM_REGRESSIONS = (
    Scenario(
        q_star=224059491.72641215, p_star=252128.18246227346, price=150057.58274687576,
        nu=1.001161604526682, theta=0.055994716489533664, alpha_n=0.0013265765806560893,
        l_n=0.010727767688528888, pi_s=6.429919589995509e-12, pi_c_star=1.1654212050160441e-06,
    ),
    Scenario(
        q_star=458.1580731151464, p_star=0.002253425616762832, price=0.0021943808265800645,
        nu=0.9672563892831595, theta=0.8163876425022922, alpha_n=0.07616913339200948,
        l_n=313340792.13421035, pi_s=0.004783832716485096, pi_c_star=4.493686353907115e-06,
    ),
    Scenario(
        q_star=3.046343735485067, p_star=0.02240471989131694, price=0.0031755313744135203,
        nu=0.9985919624574916, theta=0.01704008965005914, alpha_n=0.5689615278405733,
        l_n=0.4392983712378937, pi_s=0.05436925608407635, pi_c_star=8.000244430015501e-12,
    ),
)

# 1 < nu < 1 + theta with the gradient peak among the subnormals: Brent's
# tolerance rounds to 0 there, so the ascending root cannot be refined
SUBNORMAL_PEAK = Scenario(
    q_star=10.0**-0.5, p_star=10.0**0.75, price=0.0, nu=1.003093645091285,
    theta=0.024749160730280505, alpha_n=10.0**-0.25, l_n=10.0**6.625, pi_s=1e-08, pi_c_star=0.1,
)

# 1 < nu < 1 + theta with an interior gain of about 7.3e-15 on a surplus of
# 1.5e6: the float surpluses at 0 and at the root are equal, their gains are not
SWAMPED_GAIN = Scenario(
    q_star=39.63525824274204, p_star=145487.1795179883, price=40540.97793718545,
    nu=1.172386138415872, theta=0.44524999388319525, alpha_n=0.07671223144676435,
    l_n=158581265471.55164, pi_s=2.9992278311875015e-10, pi_c_star=0.008841208378965851,
)

# nu == 1 with a breach-proof provider: the optimum 7.3e-51 gains about
# 2.3e-54 on a surplus of 7.0e-3, which 50-digit surpluses cannot resolve
TINY_GAIN = Scenario(
    q_star=0.1, p_star=1.0, price=0.625, nu=1.0, theta=0.01,
    alpha_n=10.0**0.625, l_n=0.930572040929699, pi_s=0.0, pi_c_star=0.1,
)


def assert_oracle_optimal(s, sol, grid_points=257):
    """No loss the oracle can check beats ``sol.l_opt`` by more than 1e-9 relative.

    The checked losses are the critical points inside ``[0, l_n]`` and a
    uniform grid, whose ends are 0 and ``l_n``; every surplus is the
    50-digit mpmath value at the exact float loss.
    """
    assert 0.0 <= sol.l_opt <= s.l_n
    losses = np.linspace(0.0, s.l_n, grid_points).tolist()
    losses += [c for c in sol.critical_points if 0.0 <= c <= s.l_n]
    best = max(_oracle.net_surplus(s, l) for l in losses)
    got = _oracle.net_surplus(s, sol.l_opt)
    assert got >= best - 1e-9 * abs(best), (s, sol, float(got), float(best))


def coefficients(s):
    """The decision coefficients ``(a, b)`` from their logs."""
    return tuple(map(math.exp, _decision_equation(s)[1:3]))


class TestDecisionCoefficients:
    def test_reference_values(self, table2):
        coeff_a, coeff_b = coefficients(table2)
        a, b = _oracle.coefficients(table2)
        assert coeff_a == pytest.approx(float(a), rel=1e-13, abs=0.0)
        assert coeff_b == pytest.approx(float(b), rel=1e-13, abs=0.0)
        assert coeff_a == pytest.approx(0.24165873303, rel=1e-9, abs=0.0)
        assert coeff_b == pytest.approx(3.17510194943e-5, rel=1e-9, abs=0.0)

    def test_free_service_maximises_a(self, table2):
        free_a, free_b = coefficients(dataclasses.replace(table2, price=0.0))
        a, b = coefficients(table2)
        assert free_a == pytest.approx(a / table2.margin() ** 2)
        assert free_b == b

    def test_b_scales_with_provider_survival(self, table2):
        # b is linear in (1 - pi_s) and vanishes in the certain-breach limit
        b_ref = coefficients(table2)[1] / (1.0 - table2.pi_s)
        for pi_s in (0.0, 0.3, 0.9, 1.0 - 1e-12):
            _, b = coefficients(dataclasses.replace(table2, pi_s=pi_s))
            assert b == pytest.approx(b_ref * (1.0 - pi_s), rel=1e-12, abs=0.0)

    def test_degenerate_price_signals(self, table2):
        # at or above the willingness-to-pay the demand, and with it a, is
        # zero: its log is -inf, not a ValueError from log(0)
        lb = _decision_equation(table2)[2]
        for price in (1.0, 1.5):
            _, la, lb2, _, lr = _decision_equation(dataclasses.replace(table2, price=price))
            assert (la, lb2, lr) == (-math.inf, lb, -math.inf)


class TestClassifyRegime:
    def test_reference_is_monotone(self, table2):
        assert classify_regime(table2) is Regime.NU_LT_1

    def test_subcases(self, table2):
        assert classify_regime(dataclasses.replace(table2, nu=1.05, theta=0.2)) is Regime.SUBCASE_A
        assert classify_regime(dataclasses.replace(table2, nu=1.5, theta=0.2)) is Regime.SUBCASE_B

    def test_boundaries_with_tolerance(self, table2):
        assert classify_regime(dataclasses.replace(table2, nu=1.0)) is Regime.NU_EQ_1
        assert classify_regime(dataclasses.replace(table2, nu=1.0 + 1e-13)) is Regime.NU_EQ_1
        assert (
            classify_regime(dataclasses.replace(table2, nu=1.2, theta=0.2))
            is Regime.NU_EQ_1_PLUS_THETA
        )
        assert (
            classify_regime(dataclasses.replace(table2, nu=1.2 + 1e-13, theta=0.2))
            is Regime.NU_EQ_1_PLUS_THETA
        )


def _linear(numerator, denominator):
    """The product of ``numerator`` over that of ``denominator``, each
    product taken left to right, or None where a product on the way or the
    quotient is not a normal float."""
    top, bottom = (list(accumulate(factors, operator.mul)) for factors in (numerator, denominator))
    ratio = top[-1] / bottom[-1]
    return ratio if all(sys.float_info.min <= x < math.inf for x in (*top, *bottom, ratio)) else None


class TestFeasibilityReport:
    def test_monotone_regime_unconditional(self, table2):
        rep = feasibility_report(table2)
        assert rep.regime is Regime.NU_LT_1
        assert rep.guaranteed_unique
        assert rep.conditions == ()

    def test_nu_eq_1_band_edges(self, table2):
        s = dataclasses.replace(table2, nu=1.0)
        rep = feasibility_report(s)
        lower, upper = (c for c in rep.conditions)
        lo_ref, hi_ref = _oracle.nu_eq_1_band(s)
        assert lower.bound == pytest.approx(float(lo_ref), rel=1e-12)
        assert upper.bound == pytest.approx(float(hi_ref), rel=1e-12)
        assert lower.bound == pytest.approx(29225.64021, abs=0.01)
        assert upper.bound == pytest.approx(62500.0, abs=1e-6)
        # l_n = 10000 sits below the lower edge
        assert not lower.satisfied
        assert upper.satisfied
        assert not rep.guaranteed_unique

    def test_nu_eq_1_band_without_upper_edge(self, table2):
        # with pi_s == 0 the band is open above: no infinite bound is reported
        rep = feasibility_report(dataclasses.replace(table2, nu=1.0, l_n=1e5, pi_s=0.0))
        assert [c.name for c in rep.conditions] == ["band_lower_edge"]
        assert rep.guaranteed_unique

    def test_nu_eq_1_inside_band(self, table2):
        s = dataclasses.replace(table2, nu=1.0, l_n=5e4)
        rep = feasibility_report(s)
        assert all(c.satisfied for c in rep.conditions)
        assert rep.guaranteed_unique

    def test_nu_gt_1_sufficient_bound(self):
        rep = feasibility_report(SUBCASE_B_CLAMPED)
        (cond,) = rep.conditions
        assert cond.name == "sufficient_l_n_upper_bound"
        assert cond.satisfied == (SUBCASE_B_CLAMPED.l_n < cond.bound)
        assert rep.guaranteed_unique == cond.satisfied

    def test_overflowing_bound_is_none(self):
        # the band edge, about 4.17e310, lies beyond the float range: no
        # bound, but the comparison with inf stands
        rep = feasibility_report(Scenario(**TINY_RISK))
        (cond,) = rep.conditions
        assert (cond.name, cond.bound, cond.satisfied) == ("band_lower_edge", None, False)
        assert not rep.guaranteed_unique

    # the worst error of the named scenarios' bounds below, against the
    # 50-digit bound at the float margin, is 6.3e-16; the log formula that
    # came before erred by 1.6e-14 to 1.2e-13 on them
    QUOTIENT_TOL = 1e-15

    def test_underflowing_bound_keeps_its_digits(self):
        # the linear formula underflows to 0, which would read l_n = 1e-305
        # as past the bound
        s = Scenario(**UNDERFLOWING_BOUND)
        rep = feasibility_report(s)
        (cond,) = rep.conditions
        expected = float(_oracle.sufficient_bound(s, s.margin()))
        assert cond.bound == pytest.approx(expected, rel=self.QUOTIENT_TOL, abs=0.0)
        assert cond.satisfied and rep.guaranteed_unique

    def test_underflowing_band_keeps_its_digits(self):
        # both band edges underflow to 0 in the linear formula, which would
        # read l_n as above the upper edge; the band holds it
        s = dataclasses.replace(Scenario(**UNDERFLOWING_BOUND), nu=1.0, l_n=1e-299)
        rep = feasibility_report(s)
        lower, upper = rep.conditions
        lo_ref, hi_ref = _oracle.nu_eq_1_band(s)
        assert lower.bound == pytest.approx(float(lo_ref), rel=self.QUOTIENT_TOL, abs=0.0)
        assert upper.bound == pytest.approx(float(hi_ref), rel=self.QUOTIENT_TOL, abs=0.0)
        assert lower.satisfied and upper.satisfied and rep.guaranteed_unique

    @pytest.mark.parametrize("params", [SUBNORMAL_PRODUCT, SUBNORMAL_PARTIAL_PRODUCT], ids=["product", "partial"])
    def test_subnormal_product_keeps_its_digits(self, params):
        # the bound is normal, but the linear formula keeps only ~9 bits of
        # its subnormal alpha_n (q* p* nu / 2), 4.2% off, or passes a
        # subnormal q* p* on the way
        s = Scenario(**params)
        (cond,) = feasibility_report(s).conditions
        expected = float(_oracle.sufficient_bound(s, s.margin()))
        assert cond.bound == pytest.approx(expected, rel=self.QUOTIENT_TOL, abs=0.0)

    def test_subnormal_band_product_keeps_its_digits(self):
        # (q* p* / 2) m**2 alpha_n is subnormal: the linear edges are 4.5% off
        s = dataclasses.replace(Scenario(**SUBNORMAL_PRODUCT), nu=1.0)
        lower, upper = feasibility_report(s).conditions
        lo_ref, hi_ref = _oracle.nu_eq_1_band(s)
        assert lower.bound == pytest.approx(float(lo_ref), rel=self.QUOTIENT_TOL, abs=0.0)
        assert upper.bound == pytest.approx(float(hi_ref), rel=self.QUOTIENT_TOL, abs=0.0)

    def test_zero_margin_overflowing_band_edge_is_zero(self):
        # q* p* overflows on the way to a band edge whose m**2 is 0: the
        # edge is 0.0, as at any other zero margin, not an undefined bound
        s = Scenario(**ZERO_MARGIN_OVERFLOW)
        rep = feasibility_report(s)
        assert [(c.name, c.bound, c.satisfied) for c in rep.conditions] == [("band_lower_edge", 0.0, True)]
        assert rep.guaranteed_unique

    @given(s=fuzz_scenarios() | wide_scenarios() | boundary_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_normal_products_keep_the_linear_formula(self, s):
        # wherever every product on the way and the quotient are normal
        # floats, each bound and the saturation price are their linear
        # formula's float
        m2, risk = s.margin() ** 2, _cap_risk(s)
        regime = classify_regime(s)
        if regime is Regime.NU_LT_1:
            ratio = _linear((risk, 2.0, s.l_n), (s.alpha_n, s.q_star, s.p_star, s.nu))
            if ratio is not None:
                assert saturation_price(s) == min(max(s.p_star * (1.0 - math.sqrt(ratio)), 0.0), s.p_star)
            return
        if regime in (Regime.SUBCASE_A, Regime.SUBCASE_B):
            expected = [_linear((s.q_star, s.p_star, s.nu, 0.5, s.alpha_n, m2), (risk,))]
        else:  # nu == 1, or nu == 1 + theta, which has no condition
            base = (s.q_star, s.p_star, 0.5, m2, s.alpha_n)
            expected = [_linear(base, (risk,)), _linear(base, (s.pi_s,)) if s.pi_s else None]
        for cond, bound in zip(feasibility_report(s).conditions, expected):
            assert bound is None or cond.bound == bound, (cond, bound)

    @pytest.mark.parametrize("pi_s", [1e-4, 0.0])
    def test_finite_bounds_keep_the_linear_formula(self, table2, pi_s):
        s = dataclasses.replace(table2, nu=1.2, pi_s=pi_s)
        (cond,) = feasibility_report(s).conditions
        assert cond.bound == s.alpha_n * (s.q_star * s.p_star * s.nu / 2.0) * s.margin() ** 2 / _cap_risk(s)
        s = dataclasses.replace(table2, nu=1.0, pi_s=pi_s)
        base = (s.q_star * s.p_star / 2.0) * s.margin() ** 2 * s.alpha_n
        bounds = [c.bound for c in feasibility_report(s).conditions]
        assert bounds == [base / _cap_risk(s)] + ([base / pi_s] if pi_s else [])

    def test_boundary_regime_not_guaranteed(self, table2):
        s = dataclasses.replace(table2, nu=1.2, theta=0.2)
        rep = feasibility_report(s)
        assert rep.regime is Regime.NU_EQ_1_PLUS_THETA
        assert not rep.guaranteed_unique


class TestConstructBracket:
    def test_reference_bracket(self, table2):
        l_l, l_u = solve_tradeoff(table2).bracket
        ref_l, ref_u = _oracle.bracket(table2)
        assert l_u == pytest.approx(float(ref_u), rel=1e-12)
        assert l_l == pytest.approx(float(ref_l), rel=1e-12)
        assert l_u == pytest.approx(7611.054287, abs=1e-3)
        assert 0 < l_l < l_u

    def test_gradient_signs_and_containment(self, table2):
        l_l, l_u = solve_tradeoff(table2).bracket
        assert surplus_gradient(table2, l_l) > 0
        assert surplus_gradient(table2, l_u) < 0
        assert l_l < 3797 < l_u

    def test_gradient_signs_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = make_random_scenario(rng, regime="lt1")
            l_l, l_u = solve_tradeoff(s).bracket
            if s.pi_s > 0:
                assert surplus_gradient(s, l_l) > 0
                assert surplus_gradient(s, l_u) < 0

    def test_regime_mismatch(self, table2):
        for nu, theta in ((1.0, 0.2), (1.05, 0.2), (1.2, 0.2), (1.5, 0.2)):
            s = dataclasses.replace(table2, nu=nu, theta=theta)
            assert classify_regime(s) is not Regime.NU_LT_1
            assert solve_tradeoff(s).bracket is None

    def test_solver_reports_the_same_bracket(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = make_random_scenario(rng, regime="lt1")
            sol = solve_tradeoff(s)
            if sol.status is SolutionStatus.INTERIOR:
                l_l, l_u = sol.bracket
                assert l_l <= sol.l_opt <= l_u, s

    def test_secure_bracket_collapses_on_root(self, table2):
        s = dataclasses.replace(table2, pi_s=0.0)
        l_l, l_u = solve_tradeoff(s).bracket
        assert l_l == l_u
        assert abs(normalized_gradient(s, l_u)) < 1e-12


class TestSolveMonotoneRegime:
    def test_reference_optimum(self, table2):
        sol = solve_tradeoff(table2)
        assert sol.status is SolutionStatus.INTERIOR
        assert sol.regime is Regime.NU_LT_1
        assert sol.l_opt == pytest.approx(3797.0, abs=1.0)
        ref = float(_oracle.interior_root(table2, 3797))
        assert sol.l_opt == pytest.approx(ref, rel=1e-11)
        assert sol.surplus == net_surplus(table2, sol.l_opt)
        assert sol.surplus == pytest.approx(36.0030936605, abs=1e-6)
        assert sol.critical_points == (sol.l_opt,)
        assert sol.bracket[0] < sol.l_opt < sol.bracket[1]
        assert abs(normalized_gradient(table2, sol.l_opt)) < 1e-9

    def test_low_price_clamps_at_cap(self, table1):
        sol = solve_tradeoff(table1)  # price 0.2, saturation price ~0.40
        assert sol.status is SolutionStatus.CLAMPED_AT_LN
        assert sol.l_opt == table1.l_n
        assert sol.surplus == net_surplus(table1, table1.l_n)
        # the unconstrained stationary point lies beyond the cap
        assert len(sol.critical_points) == 1
        assert sol.critical_points[0] > table1.l_n

    def test_no_margin_means_no_release(self, table2):
        for price in (table2.p_star, 2.0):
            sol = solve_tradeoff(dataclasses.replace(table2, price=price))
            assert sol.status is SolutionStatus.AT_ZERO
            assert sol.l_opt == 0.0
            assert sol.surplus == 0.0
            assert sol.critical_points == ()

    def test_price_response_non_increasing(self, table2):
        prices = np.linspace(0.0, 0.98, 50)
        losses = [solve_tradeoff(dataclasses.replace(table2, price=float(p))).l_opt for p in prices]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_gradient_monotone_decreasing_sampled(self, table2):
        grid = np.linspace(table2.l_n * 1e-4, table2.l_n, 200)
        values = surplus_gradient(table2, grid)
        assert np.all(np.diff(values) < 0)

    def test_clamp_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            s = make_random_scenario(rng, regime="lt1")
            sol = solve_tradeoff(s)
            clamped = sol.status is SolutionStatus.CLAMPED_AT_LN
            assert clamped == (surplus_gradient(s, s.l_n) >= 0.0)

    def test_underflowing_optimum_is_at_zero(self):
        for s in (UNDERFLOWING_OPTIMUM, dataclasses.replace(UNDERFLOWING_OPTIMUM, pi_s=0.0)):
            sol = solve_tradeoff(s)
            assert sol.l_opt == 0.0
            assert sol.status is SolutionStatus.AT_ZERO


def settled_by_the_cap_test(s) -> bool:
    """Whether the per-price ``_search`` returned ``s``'s optimum without
    the root search a ``nu < 1``, ``pi_s > 0`` scenario with demand would
    run; if so, check that early return."""
    with mock.patch.object(privopt.solver, "brentq", wraps=brentq) as root:
        try:
            l_opt = _search(s, _setup(s), s.price)[0]
        except (DomainError, NumericError):
            return False
    searched = classify_regime(s) is Regime.NU_LT_1 and s.pi_s > 0.0 and s.margin() > 0.0
    if not searched or root.called:
        return False
    assert l_opt == s.l_n
    # the cap test's only license: the surplus still rises at l_n
    assert normalized_gradient(s, s.l_n) >= 0.0
    sol = solve_tradeoff(s)
    assert (sol.l_opt, sol.status) == (l_opt, SolutionStatus.CLAMPED_AT_LN)
    return True


class TestCapTest:
    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_prices_next_to_saturation(self, name, request):
        # h(log l_n) is about -2 (p - p_sat) / (p* - p_sat) just above the
        # saturation price, so these points straddle h = 0 within 1e-3
        s = request.getfixturevalue(name)
        p_sat = saturation_price(s)
        early = [
            settled_by_the_cap_test(dataclasses.replace(s, price=p_sat * (1.0 + k * 1e-5)))
            for k in range(-20, 21)
        ]
        assert early[0] and not early[-1]

    @given(s=fuzz_scenarios() | boundary_scenarios() | wide_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_early_returns_have_a_nonnegative_gradient(self, s):
        settled_by_the_cap_test(s)

    def test_root_at_the_saturation_price_is_reported_within_tolerance(self, table2):
        # h(log l_n) is exactly 0 at table2's own saturation price, so the cap
        # test clamps; the root search then reports the root a rounding below
        # l_n (the 50-digit root is 10000.0000000000022)
        s = dataclasses.replace(table2, price=saturation_price(table2))
        sol = solve_tradeoff(s)
        assert (sol.l_opt, sol.status) == (s.l_n, SolutionStatus.CLAMPED_AT_LN)
        (root,) = sol.critical_points
        assert root == 9999.99999999999 < s.l_n
        assert float(abs(mp.log(root) - _oracle.log_root(s, math.log(s.l_n)))) < 1e-12

    @pytest.mark.parametrize("r", [1e-12, 1e-11, 1e-10, 1e-9])
    def test_prices_just_above_saturation_are_searched(self, table2, r):
        # h(log l_n) lies a hair below 0 here, and the root up to ~6e-9
        # relative below l_n: the cap test must not clamp it to l_n
        s = dataclasses.replace(table2, price=saturation_price(table2) * (1.0 + r))
        sol = solve_tradeoff(s)
        assert sol.status is SolutionStatus.INTERIOR
        assert float(abs(mp.log(sol.l_opt) - _oracle.log_root(s, math.log(sol.l_opt)))) < 1e-12


class TestDeferredSearch:
    def test_subcase_b_sweep_runs_no_root_search(self):
        # nu > 1 + theta: the stationary point is a surplus minimum and only 0
        # and l_n compete, so a sweep point leaves the root search unrun
        s = SUBCASE_B_CLAMPED
        with mock.patch.object(privopt.solver, "brentq", wraps=brentq) as root:
            series = price_sweep(s, default_price_grid(s, points=21))
            assert root.call_count == 0
            sol = solve_tradeoff(s)
            assert root.call_count == 1
        assert series.statuses[0] is sol.status is SolutionStatus.CLAMPED_AT_LN
        # solve_tradeoff still runs it to report the critical point
        (point,) = sol.critical_points
        assert abs(normalized_gradient(s, point)) < 1e-12

    def test_subcase_a_sweep_searches_only_the_maximum(self):
        # 1 < nu < 1 + theta: the left root is a surplus minimum, which the
        # ranking does not read, so a sweep point searches the right root only
        s = SUBCASE_A_INTERIOR
        grid = default_price_grid(s, points=21)
        with mock.patch.object(privopt.solver, "brentq", wraps=brentq) as root:
            series = price_sweep(s, grid)
            sweep_calls = root.call_count
            root.reset_mock()
            sols = [solve_tradeoff(dataclasses.replace(s, price=p)) for p in grid]
            solve_calls = root.call_count
        # a positive peak gives both roots; solve_tradeoff reports them
        peaks = sum(len(sol.critical_points) == 2 for sol in sols)
        assert 0 < peaks < len(grid)
        assert (sweep_calls, solve_calls) == (peaks, 2 * peaks)
        assert series.l_opt == tuple(sol.l_opt for sol in sols)


class TestSolveNuEq1:
    def base(self, table2, l_n):
        return dataclasses.replace(table2, nu=1.0, l_n=l_n)

    def test_interior_closed_form(self, table2):
        s = self.base(table2, 45000.0)
        sol = solve_tradeoff(s)
        a, b = (float(x) for x in _oracle.coefficients(s))
        expected = ((a - s.pi_s) / b) ** (1.0 / s.theta)
        assert sol.status is SolutionStatus.INTERIOR
        assert sol.l_opt == pytest.approx(expected, rel=1e-12)
        assert sol.critical_points == (sol.l_opt,)

    def test_small_cap_clamps(self, table2):
        s = self.base(table2, 20000.0)
        sol = solve_tradeoff(s)
        assert sol.status is SolutionStatus.CLAMPED_AT_LN
        assert sol.l_opt == 20000.0

    def test_weak_demand_term_stays_at_zero(self, table2):
        s = self.base(table2, 70000.0)  # a < pi_s beyond the band's upper edge
        sol = solve_tradeoff(s)
        assert sol.status is SolutionStatus.AT_ZERO
        assert sol.critical_points == ()


class TestSolvePeakRegime:
    def test_interior_maximum(self):
        sol = solve_tradeoff(SUBCASE_A_INTERIOR)
        assert sol.regime is Regime.SUBCASE_A
        assert sol.status is SolutionStatus.INTERIOR
        assert len(sol.critical_points) == 2
        lo, hi = sol.critical_points
        assert 0 < lo < hi == sol.l_opt
        assert abs(normalized_gradient(SUBCASE_A_INTERIOR, hi)) < 1e-9
        grid_best = oracle_grid_argmax(SUBCASE_A_INTERIOR, 400_001)
        step = SUBCASE_A_INTERIOR.l_n / 400_000
        assert abs(sol.l_opt - grid_best) <= 2 * step

    def test_negative_peak_stays_at_zero(self):
        s = dataclasses.replace(SUBCASE_A_INTERIOR, pi_s=0.009)
        sol = solve_tradeoff(s)
        assert sol.status is SolutionStatus.AT_ZERO
        assert sol.critical_points == ()
        assert sol.surplus == net_surplus(s, 0.0)

    def test_far_root_clamps_at_cap(self):
        s = dataclasses.replace(SUBCASE_A_INTERIOR, pi_c_star=1e-4, pi_s=1e-4)
        sol = solve_tradeoff(s)
        assert sol.status is SolutionStatus.CLAMPED_AT_LN
        assert sol.l_opt == s.l_n

    def test_peak_beyond_float_range_reports_no_stationary_point(self):
        # the gradient peak lies beyond floating range, where the gradient
        # is inf - inf = NaN; the surplus rises all the way to the cap
        s = Scenario(
            q_star=1131.2842333058932, p_star=73898.1347666623, price=7071.916330090833,
            nu=1.5923123312867642, theta=0.613642119805105, alpha_n=203.61600917075435,
            l_n=66624608847.47076, pi_s=0.0, pi_c_star=2.5919157689199097e-08,
        )
        assert math.isnan(surplus_gradient(s, math.inf))
        sol = solve_tradeoff(s)
        assert sol.status is SolutionStatus.CLAMPED_AT_LN
        assert sol.critical_points == ()
        assert_oracle_optimal(s, sol)

    def test_surplus_dominates_endpoints(self):
        sol = solve_tradeoff(SUBCASE_A_INTERIOR)
        assert sol.surplus > net_surplus(SUBCASE_A_INTERIOR, 0.0)
        assert sol.surplus > net_surplus(SUBCASE_A_INTERIOR, SUBCASE_A_INTERIOR.l_n)


class TestSolveValleyRegime:
    def test_cap_wins_when_risk_is_small(self):
        sol = solve_tradeoff(SUBCASE_B_CLAMPED)
        assert sol.regime is Regime.SUBCASE_B
        assert sol.status is SolutionStatus.CLAMPED_AT_LN
        assert sol.l_opt == SUBCASE_B_CLAMPED.l_n
        # the located stationary point is the interior surplus minimum
        (valley,) = sol.critical_points
        assert 2.0 < valley < 10.0
        assert abs(normalized_gradient(SUBCASE_B_CLAMPED, valley)) < 1e-9

    def test_zero_wins_when_risk_is_large(self):
        s = dataclasses.replace(SUBCASE_B_CLAMPED, pi_c_star=0.5)
        sol = solve_tradeoff(s)
        assert sol.status is SolutionStatus.AT_ZERO
        assert sol.l_opt == 0.0

    def test_boundary_exponent_handled(self):
        s = dataclasses.replace(SUBCASE_B_CLAMPED, nu=1.5)  # nu == 1 + theta
        sol = solve_tradeoff(s)
        assert sol.regime is Regime.NU_EQ_1_PLUS_THETA
        assert sol.status is SolutionStatus.CLAMPED_AT_LN
        (valley,) = sol.critical_points
        assert abs(normalized_gradient(s, valley)) < 1e-9

    def test_breach_proof_lists_the_crossing(self):
        # with pi_s == 0, h = lr - d t rises (d < 0): its one root is the
        # crossing lr / d, a surplus minimum, and only 0 and l_n compete
        s = dataclasses.replace(SUBCASE_B_CLAMPED, pi_s=0.0)
        sol = solve_tradeoff(s)
        assert sol.regime is Regime.SUBCASE_B
        assert sol.critical_points == (_exp(_decision_equation(s)[4] / _exponent_gap(s)),)
        assert sol.status is SolutionStatus.CLAMPED_AT_LN
        # at nu == 1 + theta, h = la - lb is constant: no stationary point
        sol = solve_tradeoff(dataclasses.replace(s, nu=1.5))
        assert sol.regime is Regime.NU_EQ_1_PLUS_THETA
        assert sol.critical_points == ()

    def test_tie_goes_to_the_smaller_loss(self):
        assert net_surplus(TIE, 0.0) == net_surplus(TIE, TIE.l_n) == 2.0
        sol = solve_tradeoff(TIE)
        assert sol.regime is Regime.SUBCASE_B
        assert (sol.l_opt, sol.status) == (0.0, SolutionStatus.AT_ZERO)

    def test_discrete_tie_goes_to_the_smaller_loss(self):
        # the level l_n ties with the implicit l = 0, which comes first
        assert solve_discrete(TIE, [1.6]) == (None, 0.0, 2.0)

    def test_oracle_agreement(self):
        for s in (SUBCASE_B_CLAMPED, dataclasses.replace(SUBCASE_B_CLAMPED, pi_c_star=0.5)):
            sol = solve_tradeoff(s)
            grid_best = oracle_grid_argmax(s, 400_001)
            assert abs(sol.l_opt - grid_best) <= 2 * s.l_n / 400_000


class TestSolveDiscrete:
    def test_member_containing_optimum(self, table2):
        index, loss, surplus = solve_discrete(table2, [1000.0, 3797.0, 8000.0])
        assert index == 1
        assert loss == 3797.0
        assert surplus == net_surplus(table2, 3797.0)

    def test_decreasing_branch_prefers_smaller(self, table2):
        index, loss, _ = solve_discrete(table2, [9000.0, 9500.0])
        assert index == 0
        assert loss == 9000.0

    def test_implicit_zero_wins_without_margin(self, table2):
        s = dataclasses.replace(table2, price=table2.p_star)
        index, loss, surplus = solve_discrete(s, [1000.0, 5000.0])
        assert index is None
        assert loss == 0.0
        assert surplus == 0.0

    def test_validation(self, table2):
        with pytest.raises(ValidationError):
            solve_discrete(table2, [5000.0, 1000.0])
        with pytest.raises(ValidationError):
            solve_discrete(table2, [0.0, 1000.0])
        with pytest.raises(ValidationError):
            solve_discrete(table2, [1000.0, table2.l_n * 2])


#: Ends a row of the oracle's last pass reads: a 64-point piece and the
#: start of the next
ENDS_PER_ROW = 65


def last_pass_sizes(pieces: int) -> list:
    """Sizes of the oracle's net_surplus calls when its last pass reads
    ``pieces`` 64-point pieces: chunks of as many rows as ORACLE_BLOCK
    ends hold."""
    rows = ORACLE_BLOCK // ENDS_PER_ROW
    full, rest = divmod(pieces, rows)
    return [rows * ENDS_PER_ROW] * full + [rest * ENDS_PER_ROW] * (rest > 0)


class TestOracleGridArgmax:
    def test_reference_grid(self, table2):
        best = oracle_grid_argmax(table2, 1_000_000)
        assert best == pytest.approx(3797.0, abs=1.0)
        assert abs(best - solve_tradeoff(table2).l_opt) <= 2 * table2.l_n / 999_999

    def test_saturated_case_returns_cap(self, table1):
        s = dataclasses.replace(table1, l_n=5000.0)
        assert oracle_grid_argmax(s, 100_001) == 5000.0

    def test_degenerate_price_returns_zero(self, table2):
        s = dataclasses.replace(table2, price=table2.p_star)
        assert oracle_grid_argmax(s, 10_001) == 0.0

    @pytest.mark.parametrize("n", [32768, 32769])
    def test_subnormal_step_stays_inside_the_cap(self, n):
        # l_n / (n - 1) rounds up to the smallest subnormal, so linspace's
        # last points pass l_n; the oracle clips them to l_n
        s = Scenario(**SUBNORMAL_CAP)
        best = oracle_grid_argmax(s, n)
        assert 0.0 <= best <= s.l_n
        assert best == _oracle.grid_argmax(s, n)

    def test_needs_two_points(self, table2):
        with pytest.raises(ValidationError):
            oracle_grid_argmax(table2, 1)

    def test_grid_size_is_capped(self, table2):
        # rejected before the grid is allocated
        with pytest.raises(ValidationError) as exc:
            oracle_grid_argmax(table2, MAX_ORACLE_POINTS + 1)
        assert exc.value.field == "n"

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, "1000"])
    def test_grid_size_must_be_whole(self, table2, n):
        with pytest.raises(ValidationError) as exc:
            oracle_grid_argmax(table2, n)
        assert exc.value.field == "n"

    @pytest.mark.parametrize("n", [1e5, np.int64(10**5)])
    def test_integral_grid_sizes_pass(self, table2, n):
        assert oracle_grid_argmax(table2, n) == oracle_grid_argmax(table2, 10**5)

    def test_quick_random_equivalence(self):
        # shortened version of the acceptance sweep: 30 scenarios, 200k grid
        rng = np.random.default_rng(2024)
        regimes = ["lt1"] * 10 + ["a"] * 5 + ["b"] * 5 + ["eq1"] * 5 + ["eq1pt"] * 5
        for regime in regimes:
            s = make_random_scenario(rng, regime=regime)
            sol = solve_tradeoff(s)
            grid_best = oracle_grid_argmax(s, 200_001)
            step = s.l_n / 200_000
            assert abs(sol.l_opt - grid_best) <= 2 * step, (s, sol)
            assert sol.surplus >= net_surplus(s, grid_best) - 1e-9 * max(1.0, abs(sol.surplus))

    def test_memory_is_one_block(self, table2):
        # the full 1e6-point grid and its temporaries traced about 38 MiB;
        # the bounded walk, the full walk of a subnormal l_n, whose step
        # underflows, and a flat surplus, whose every piece survives every
        # pass, all allocate block by block
        oracle_grid_argmax(table2, 1000)  # numpy's own first-use allocations
        for s in (table2, Scenario(**SUBNORMAL_CAP), Scenario(**FLAT_SURPLUS)):
            tracemalloc.start()
            try:
                oracle_grid_argmax(s, 10**6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, s

    def test_one_working_set_per_call(self, table2, monkeypatch):
        # only the last pass calls net_surplus, once per chunk of at most
        # ORACLE_BLOCK ends; the bounds skip most of the blocks a full walk
        # of this grid takes
        sizes = []

        def recording(s, grid):
            sizes.append(grid.size)
            return net_surplus(s, grid)

        monkeypatch.setattr(privopt.solver, "net_surplus", recording)
        oracle_grid_argmax(table2, 10**6)
        assert 0 < len(sizes) < -(-(10**6) // ORACLE_BLOCK) and max(sizes) <= ORACLE_BLOCK
        # the 64-point pass keeps 226 pieces here, where the 4,096-point
        # pieces alone held 114,688 points; the bound leaves 24 pieces for
        # skip decisions that move with numpy's rounding
        assert sum(sizes) <= (226 + 24) * ENDS_PER_ROW
        # a flat surplus keeps every piece: the last pass reads the whole
        # grid, and at 16,129 points it ends in the one-point piece of l_n
        for n in (10**6, 16_129):
            sizes.clear()
            oracle_grid_argmax(Scenario(**FLAT_SURPLUS), n)
            assert sizes == last_pass_sizes(-(-n // 64)), n

    def test_failed_pass_walks_the_pieces_kept_before(self, table2, monkeypatch):
        # a NaN bound in the second pass's one chunk keeps every piece of
        # that chunk: the last pass reads the 4,096-point pieces the first
        # pass kept, not the whole grid
        kept, sizes = [], []

        def failing(s, ends):
            values, bounds, scale = _surplus_bounds(s, ends)
            if kept:
                bounds[0, 0] = math.nan
            else:
                kept.append(int((bounds + 64 * sys.float_info.epsilon * scale >= values.max()).sum()))
            return values, bounds, scale

        def recording(s, grid):
            sizes.append(grid.size)
            return net_surplus(s, grid)

        monkeypatch.setattr(privopt.solver, "_surplus_bounds", failing)
        monkeypatch.setattr(privopt.solver, "net_surplus", recording)
        best = oracle_grid_argmax(table2, 10**6)
        assert sizes == last_pass_sizes(kept[0] * 64) and kept[0] * 4096 < 10**6
        assert best == _oracle.grid_argmax(table2, 10**6)

    def test_untrusted_chunk_leaves_later_chunks_dropping(self, table2, monkeypatch):
        # a NaN bound in the first pass keeps all 245 of its pieces and
        # raises no threshold; the second pass bounds them in two chunks,
        # which still drop pieces, so the last pass reads about what it
        # reads without the NaN
        shapes, sizes = [], []

        def failing(s, ends):
            values, bounds, scale = _surplus_bounds(s, ends)
            if not shapes:
                bounds[0, 0] = math.nan
            shapes.append(ends.shape)
            return values, bounds, scale

        def recording(s, grid):
            sizes.append(grid.size)
            return net_surplus(s, grid)

        monkeypatch.setattr(privopt.solver, "_surplus_bounds", failing)
        monkeypatch.setattr(privopt.solver, "net_surplus", recording)
        best = oracle_grid_argmax(table2, 10**6)
        assert shapes == [(1, 246), (126, 65), (119, 65)]
        assert sum(sizes) <= (226 + 24) * ENDS_PER_ROW
        assert best == _oracle.grid_argmax(table2, 10**6)

    @pytest.mark.parametrize(
        "params, n",
        [
            # the step underflows to 0: the bounds are not trusted, though
            # with a surplus rising by alpha_n = 1 they would drop pieces
            ({**SUBNORMAL_CAP, "alpha_n": 1.0}, 200_001),
            # C = 0 and (pi_s + k) l_n = 1e-303: the slack is subnormal
            ({**SUBNORMAL_CAP, "price": 1.0, "l_n": 1e-300, "pi_c_star": 1e-3}, 100_001),
            # C (1 + alpha_n) = 1e308 and (pi_s + k) l_n = 1.425e308: the slack is inf
            ({**SUBNORMAL_CAP, "q_star": 1e308, "alpha_n": 1.0, "l_n": 1.5e308, "pi_s": 0.9}, 100_001),
        ],
        ids=["underflowing-step", "subnormal-slack", "infinite-slack"],
    )
    def test_fallback_walks_the_whole_grid(self, params, n, monkeypatch):
        # every chunk keeps all its pieces, so the last pass reads every
        # 64-point piece of the grid
        s = Scenario(**params)
        sizes = []

        def recording(s, grid):
            sizes.append(grid.size)
            return net_surplus(s, grid)

        monkeypatch.setattr(privopt.solver, "net_surplus", recording)
        best = oracle_grid_argmax(s, n)
        assert sizes == last_pass_sizes(-(-n // 64))
        assert best == _oracle.grid_argmax(s, n)

    @given(
        s=fuzz_scenarios() | wide_scenarios() | boundary_scenarios(),
        n=st.sampled_from([2, 3, 32769, 10**6]),
    )
    @example(s=Scenario(**SUBNORMAL_CAP), n=10**6)
    @example(s=Scenario(**SUBNORMAL_CAP), n=32769)
    @example(s=SWAMPED_GAIN, n=10**6)
    @example(s=Scenario(**FLAT_SURPLUS), n=10**6)
    # the last point is a one-point piece of the second pass (65) or of the
    # first (4,097), and it holds the maximum
    @example(s=SUBCASE_B_CLAMPED, n=65)
    @example(s=SUBCASE_B_CLAMPED, n=4097)
    # the last pass spans three chunks, the third the one-point piece of l_n
    @example(s=Scenario(**FLAT_SURPLUS), n=16_129)
    # 16,128 steps of l_n / 16,128 round below l_n, where the maximum lies
    @example(s=dataclasses.replace(SUBCASE_B_CLAMPED, l_n=65120.721830445305), n=16_129)
    @settings(max_examples=100, deadline=None)
    def test_bounded_walk_matches_the_full_grid(self, s, n):
        # the skip rule never moves the argmax or its first-index ties,
        # across the float range and next to the regime boundaries
        try:
            want = _oracle.grid_argmax(s, n)
        except DomainError:  # the surplus scale overflows
            with pytest.raises(DomainError, match="surplus scale"):
                oracle_grid_argmax(s, n)
            return
        assert oracle_grid_argmax(s, n) == want

    @given(
        s=fuzz_scenarios(),
        n=st.sampled_from([2, 3, ORACLE_BLOCK - 1, ORACLE_BLOCK + 1, 2 * ORACLE_BLOCK, 200_001]),
    )
    @example(s=Scenario(**SUBNORMAL_CAP), n=200_001)
    @example(s=SUBCASE_A_INTERIOR, n=65)
    @example(s=SUBCASE_A_INTERIOR, n=4097)
    @example(s=Scenario(**SUBNORMAL_CAP), n=16_129)
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_the_full_grid(self, s, n):
        assert oracle_grid_argmax(s, n) == _oracle.grid_argmax(s, n)

    def test_overflowing_surplus_is_a_domain_error(self):
        # (p*q*/2) margin^2 lies beyond the float range: no surplus to rank
        s = Scenario(**OVERFLOWING_SURPLUS)
        with pytest.raises(DomainError, match="surplus scale"):
            oracle_grid_argmax(s, 2 * ORACLE_BLOCK)
        with pytest.raises(DomainError, match="surplus scale"):
            solve_tradeoff(s)

    def test_overflowing_benefit_is_a_domain_error(self):
        # C is finite, C alpha_n is not: a DomainError before any overflow warning
        s = Scenario(**OVERFLOWING_BENEFIT)
        for call in (
            lambda: net_surplus(s, s.l_n),
            lambda: net_surplus(s, np.linspace(0.0, s.l_n, 5)),
            lambda: solve_tradeoff(s),
            lambda: oracle_grid_argmax(s, 1001),
        ):
            with pytest.raises(DomainError, match="surplus scale"):
                call()


class TestStreamRegressions:
    @pytest.mark.parametrize("s", STREAM_REGRESSIONS, ids=lambda s: classify_regime(s).value)
    def test_solves_to_the_oracle_optimum(self, s):
        assert_oracle_optimal(s, solve_tradeoff(s), grid_points=2001)


class TestOracleProperty:
    @given(s=fuzz_scenarios())
    @example(s=STREAM_REGRESSIONS[0])
    @example(s=STREAM_REGRESSIONS[1])
    @example(s=STREAM_REGRESSIONS[2])
    @example(s=SUBNORMAL_PEAK)
    @settings(max_examples=200, deadline=None)
    def test_no_checked_loss_beats_the_solver(self, s):
        self.assert_solver_optimal(s)

    @given(s=boundary_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_no_checked_loss_beats_the_solver_next_to_a_boundary(self, s):
        self.assert_solver_optimal(s)

    @staticmethod
    def assert_solver_optimal(s):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_tradeoff(s)
        assert_oracle_optimal(s, sol)

    @given(s=fuzz_scenarios())
    @example(s=SWAMPED_GAIN)
    @example(s=TINY_GAIN)
    @settings(max_examples=200, deadline=None)
    def test_pick_is_an_exact_maximiser(self, s):
        # every candidate the solver weighs, ranked by its 50-digit gain over
        # l = 0 with no tolerance: none may beat the pick.  A 50-digit surplus
        # cannot rank them where the gains lie below 1e-50 of it
        sol = solve_tradeoff(s)
        candidates = [0.0, s.l_n, *(min(c, s.l_n) for c in sol.critical_points)]
        best = max(_oracle.gain(s, l) for l in candidates)
        assert _oracle.gain(s, sol.l_opt) >= best, (s, sol)


class TestNormalizedGradient:
    def test_matches_the_linear_form(self, table2):
        # (A - B)/(A + B) with A = a l**(nu-1), B = pi_s + b l**theta
        a, b = (float(c) for c in _oracle.coefficients(table2))
        for l in (1e-3, 1.0, 3797.0, table2.l_n):
            big_a, big_b = a * l ** (table2.nu - 1.0), table2.pi_s + b * l**table2.theta
            assert normalized_gradient(table2, l) == pytest.approx((big_a - big_b) / (big_a + big_b), abs=1e-15)

    @pytest.mark.parametrize("l", [0.0, -1.0])
    def test_nonpositive_loss_is_a_usage_error(self, table2, l):
        # not the ValueError of log(l)
        with pytest.raises(UsageError, match="normalized gradient requires l > 0"):
            normalized_gradient(table2, l)

    @pytest.mark.parametrize("pi_s", [0.0, 1e-4])
    @pytest.mark.parametrize("ratio", [1.0, 1.5])
    def test_no_demand_is_minus_one(self, table2, pi_s, ratio):
        # la is -inf at price >= p_star, not a ValueError from log(0)
        s = dataclasses.replace(table2, price=ratio * table2.p_star, pi_s=pi_s)
        for l in (1e-300, 1.0, s.l_n):
            assert normalized_gradient(s, l) == -1.0


def rounding_floor(s, t, l):
    """Relative error in ``l = e^t`` that double rounding alone can cause at a root ``t``.

    Rounding the terms of ``h`` (module docstring of ``privopt.solver``)
    moves its value by a few eps times their magnitudes, the parameter
    logs, the margin's cancellation and ``(|nu-1| + theta)|t|``; over
    ``|h'(t)|`` that moves the root.  A subnormal ``l`` adds its spacing.
    """
    logs = [s.q_star, s.p_star, s.nu, s.alpha_n, s.pi_c_star] + ([s.pi_s] if s.pi_s > 0 else [])
    scale = (
        1.0 / s.margin()
        + sum(abs(math.log(x)) for x in logs)
        + (s.nu + s.theta + 1.0) * abs(math.log(s.l_n))
        + (abs(s.nu - 1.0) + s.theta) * abs(t)
    )
    return 8 * sys.float_info.epsilon * scale / abs(float(_oracle.log_slope(s, t))) + 2.0**-1074 / l


class TestLogSpaceAccuracy:
    @given(s=fuzz_scenarios())
    @example(s=Scenario(**TINY_OPTIMUM))
    @example(s=SUBNORMAL_PEAK)
    @example(s=STREAM_REGRESSIONS[1])
    @example(s=UNDERFLOWING_OPTIMUM)
    @settings(max_examples=200, deadline=None)
    def test_roots_match_the_mpmath_log_root(self, s):
        self.assert_roots_match(s)

    @given(s=boundary_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_roots_match_the_mpmath_log_root_next_to_a_boundary(self, s):
        # nu within 1e-3 of 1 or 1 + theta, never on it: the general
        # formulas of the regime nu falls in, not a boundary's closed form
        self.assert_roots_match(s)

    @pytest.mark.parametrize("params", [SUBNORMAL_PRODUCT, SUBNORMAL_PARTIAL_PRODUCT], ids=["product", "partial"])
    def test_subnormal_coefficient_product_keeps_its_digits(self, params):
        # log a sums the parameter logs where 0.5 q* p* nu alpha_n, or a
        # product on the way, is subnormal: the log of the rounded product
        # puts the root 6.6e-4 and 9.2e-5 off; it lies beyond l_n, which
        # assert_roots_match skips
        s = Scenario(**params)
        (point,) = solve_tradeoff(s).critical_points
        root = _oracle.log_root(s, math.log(point))
        assert float(abs(mp.mpf(point) / mp.exp(root) - 1)) < 1e-12

    @staticmethod
    def assert_roots_match(s):
        # every INTERIOR l_opt is a located root, and every located root in
        # (0, l_n] lies within 1e-12 relative (plus the rounding floor) of
        # the 50-digit root of h that bisection in t finds next to it
        sol = solve_tradeoff(s)
        if sol.status is SolutionStatus.INTERIOR:
            assert sol.l_opt in sol.critical_points
        for l in sol.critical_points:
            if l > s.l_n:
                continue
            root = _oracle.log_root(s, math.log(l))
            assert root is not None, (s, sol)
            err = float(abs(mp.mpf(l) / mp.exp(root) - 1))
            assert err <= 1e-12 + rounding_floor(s, float(root), l), (s, sol, err)

    def test_tiny_optimum_to_full_precision(self):
        s = Scenario(**TINY_OPTIMUM)
        sol = solve_tradeoff(s)
        assert sol.status is SolutionStatus.INTERIOR
        root = _oracle.log_root(s, math.log(sol.l_opt))
        assert float(abs(mp.mpf(sol.l_opt) / mp.exp(root) - 1)) < 1e-13
        assert sol.l_opt == pytest.approx(1.2530504093e-155, rel=1e-10, abs=0.0)


class TestRootEvaluations:
    """Every bracket has ``|h| >= 1`` at its ends, so no root search spins."""

    @pytest.mark.parametrize(
        "s",
        (SUBNORMAL_PEAK, *STREAM_REGRESSIONS, Scenario(**TINY_OPTIMUM)),
        ids=("subnormal-peak", "stream-A", "stream-LT1-a", "stream-LT1-b", "tiny-optimum"),
    )
    def test_few_evaluations_per_root_search(self, s, monkeypatch):
        counts = []
        original = privopt.solver.brentq

        def counted(f, *args):
            counts.append(0)

            def f_counted(t):
                counts[-1] += 1
                return f(t)

            return original(f_counted, *args)

        monkeypatch.setattr(privopt.solver, "brentq", counted)
        solve_tradeoff(s)
        assert counts and max(counts) <= 20, counts


class TestRootRefinement:
    def test_nonconvergence_raises(self):
        with pytest.raises(NumericError):
            brentq(lambda x: x * x - 2.0, 0.0, 2.0, maxiter=1)

    def test_sign_preconditions(self):
        with pytest.raises(NumericError):
            brentq(lambda x: x + 1.0, 0.5, 2.0)

    def test_endpoint_roots_short_circuit(self):
        assert brentq(lambda x: x - 0.5, 0.5, 2.0) == 0.5
        assert brentq(lambda x: x - 2.0, 0.5, 2.0) == 2.0

    def test_solver_caps_iterations(self, table2):
        # the production path stays far below the 200-iteration budget
        sol = solve_tradeoff(table2)
        assert math.isfinite(sol.l_opt)


def gradient_of(s):
    """The surplus gradient in ``l``."""
    return lambda l: surplus_gradient(s, l)


@st.composite
def root_cases(draw):
    """A random scenario's decision equation and a random bracket, in ``l``
    (the gradient) or in ``t = log l`` (the function the solver searches)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = make_random_scenario(rng, regime=draw(st.sampled_from(["lt1", "a", "b", "eq1", "eq1pt", None])))
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.floats(-800.0, 800.0)) for _ in range(2))
        return _decision_equation(s)[0], lo, hi
    lo, hi = sorted(s.l_n * 10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(2))
    return gradient_of(s), lo, hi


class TestBrentMatchesReference:
    @given(case=root_cases(), maxiter=st.sampled_from([1, 2, 5, 200]))
    @example(case=(gradient_of(SUBCASE_A_ZERO_STEP), 2.8831316817102125e270, 1.891397741285124e274), maxiter=200)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_scipy(self, case, maxiter):
        f, lo, hi = case
        try:
            want = reference_brentq(f, lo, hi, xtol=XTOL, rtol=RTOL, maxiter=maxiter)
        except (RuntimeError, ValueError):
            with pytest.raises(NumericError):
                brentq(f, lo, hi, maxiter)
            return
        got = brentq(f, lo, hi, maxiter)
        assert got == want and repr(got) == repr(want)

    def test_sign_test_reads_sign_bits(self):
        # f(lo) * f(hi) underflows to 0 here; only the sign bits tell
        f = lambda x: 1e-200 * x  # noqa: E731
        with pytest.raises(ValueError):
            reference_brentq(f, 1.0, 2.0)
        with pytest.raises(NumericError):
            brentq(f, 1.0, 2.0)


#: Scenarios whose solve overflows exp() inside a power term (fuzzed, one
#: per regime family); the overflow must come back as inf, never as a warning.
OVERFLOWING = (
    Scenario(q_star=0.18345106982305157, p_star=71358.03610533672, price=55799.926747397345, nu=1.0, theta=0.03221037166681712, alpha_n=0.3761016743133793, l_n=0.002656775889364076, pi_s=2.7800804090098796e-06, pi_c_star=1.1596106213758704e-07),
    Scenario(q_star=0.03203514950709769, p_star=0.008008982865704794, price=0.005489001535192914, nu=1.2642252492018446, theta=0.2624341258049957, alpha_n=271.0441688464265, l_n=143.3346186387724, pi_s=2.2163049133303335e-11, pi_c_star=0.018115969184940007),
    Scenario(q_star=4.360265347310971, p_star=285293.4716513339, price=24633.17857517632, nu=1.009374734840917, theta=0.034816880485012636, alpha_n=0.0046387341137077796, l_n=0.0019301485664158387, pi_s=2.8279609896490517e-12, pi_c_star=3.1360139301175764e-07),
    Scenario(q_star=9271191.090899218, p_star=126.21019229083201, price=97.72538892546063, nu=0.961271092361063, theta=0.028483813637866853, alpha_n=224.63742664722167, l_n=0.011522362239316585, pi_s=1.662705720733861e-12, pi_c_star=7.809507810086862e-11),
)


#: Stationary points beyond the float range: the nu == 1 closed form and
#: the pi_s == 0 crossing of SUBCASE_A (from the solve-mix stream).
BEYOND_FLOAT_RANGE = (
    OVERFLOWING[0],
    Scenario(q_star=23275899.473856628, p_star=8744.683712868187, price=5597.025807116571, nu=1.0067914953752763, theta=0.04385947939323564, alpha_n=2.0599369135064034, l_n=692.4031011007011, pi_s=0.0, pi_c_star=6.572478641064213e-05),
)


class TestFiniteCriticalPoints:
    @pytest.mark.parametrize("s", BEYOND_FLOAT_RANGE, ids=lambda s: classify_regime(s).value)
    def test_overflowing_stationary_point_is_left_out(self, s):
        sol = solve_tradeoff(s)
        assert sol.critical_points == ()
        assert sol.l_opt == s.l_n
        assert sol.status is SolutionStatus.CLAMPED_AT_LN

    @given(s=fuzz_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_critical_points_are_finite(self, s):
        assert all(math.isfinite(p) for p in solve_tradeoff(s).critical_points)


class TestNoStrayWarnings:
    @pytest.mark.parametrize("s", OVERFLOWING, ids=lambda s: classify_regime(s).value)
    def test_power_overflow_is_silent(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_tradeoff(s)
        assert 0.0 <= sol.l_opt <= s.l_n
