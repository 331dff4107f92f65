"""Demand curve, power law, surplus and gradient."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle
from _gradcheck import relative_gradient_error
from conftest import fuzz_scenarios, make_random_scenario
from privopt import (
    DomainError,
    Scenario,
    ValidationError,
    demand_quantity,
    marginal_demand_factor,
    net_surplus,
    pareto_privacy_parameter,
    price_taker_demand,
    provider_revenue,
    solve_tradeoff,
    surplus_gradient,
    valid_demand_region,
)
from privopt.model import _gain, _powl


class TestScenarioValidation:
    def test_table2_accepts(self, table2):
        assert table2.q_star == 250
        assert table2.margin() == 0.5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("q_star", 0.0),
            ("q_star", -3.0),
            ("p_star", 0.0),
            ("price", -0.1),
            ("nu", 0.0),
            ("theta", 0.0),
            ("theta", 1.0),
            ("theta", 1.5),
            ("alpha_n", 0.0),
            ("l_n", 0.0),
            ("pi_s", 1.0),
            ("pi_s", -1e-9),
            ("pi_c_star", 0.0),
            ("pi_c_star", 1.0),
            ("nu", float("nan")),
        ],
    )
    def test_rejects_and_names_field(self, table2, field, value):
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(table2, **{field: value})
        assert exc.value.field == field

    def test_int_fields_stored_as_floats(self, table2):
        s = Scenario(q_star=250, p_star=1, price=0.5, nu=0.138647, theta=0.138647,
                     alpha_n=0.2, l_n=10000, pi_s=1e-4, pi_c_star=1e-4)
        assert all(type(getattr(s, f.name)) is float for f in dataclasses.fields(s))
        assert s == table2
        assert repr(s) == repr(table2)

    def test_price_at_or_above_p_star_is_legal(self, table2):
        s = dataclasses.replace(table2, price=1.0)
        assert s.margin() == 0.0
        s = dataclasses.replace(table2, price=2.5)
        assert s.margin() == 0.0


class TestMarginalDemandFactor:
    def test_full_release_gives_alpha_n(self, table1):
        assert marginal_demand_factor(table1, table1.l_n) == pytest.approx(0.2, abs=1e-15)

    def test_zero_release_gives_zero(self, table2):
        assert marginal_demand_factor(table2, 0.0) == 0.0

    def test_reference_point(self, table2):
        # 0.2 * 0.3797**0.138647, frozen from the 50-digit reference
        assert marginal_demand_factor(table2, 3797.0) == pytest.approx(0.17487216874, abs=1e-9)

    def test_out_of_range_losses(self, table2):
        with pytest.raises(DomainError):
            marginal_demand_factor(table2, -1.0)
        with pytest.raises(DomainError):
            marginal_demand_factor(table2, table2.l_n * 1.0001)

    def test_vectorized_matches_scalar(self, table2):
        # 47 of these 1001 points differ in the last bits between the paths
        grid = np.linspace(0.0, table2.l_n, 1001)
        out = marginal_demand_factor(table2, grid)
        assert out.shape == grid.shape
        for l, v in zip(grid, out):
            assert agree(float(v), marginal_demand_factor(table2, float(l))), l

    @given(frac=st.floats(1e-9, 1.0), bump=st.floats(1e-6, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_loss(self, table2, frac, bump):
        l = frac * table2.l_n
        l_hi = min(table2.l_n, l * (1.0 + bump))
        if l_hi > l * (1.0 + 1e-12):  # ulp-level gaps round to equal factors
            assert marginal_demand_factor(table2, l_hi) > marginal_demand_factor(table2, l)


class TestDemandQuantity:
    def test_free_service_base_curve(self, table2):
        assert demand_quantity(table2, 0.0, 0.0) == pytest.approx(250.0)

    def test_expanded_intercept(self, table2):
        assert demand_quantity(table2, 0.2, 0.0) == pytest.approx(300.0)

    def test_price_above_willingness_clamps_to_zero(self, table2):
        assert demand_quantity(table2, 0.2, 1.5) == 0.0

    def test_negative_inputs_rejected(self, table2):
        with pytest.raises(DomainError):
            demand_quantity(table2, -0.1, 0.5)
        with pytest.raises(DomainError):
            demand_quantity(table2, 0.1, -0.5)

    @given(
        alpha=st.floats(0.0, 3.0),
        p1=st.floats(0.0, 0.999),
        p2=st.floats(0.0, 0.999),
    )
    @settings(max_examples=150, deadline=None)
    def test_strictly_decreasing_below_p_star(self, table2, alpha, p1, p2):
        lo, hi = sorted((p1, p2))
        if hi - lo > 1e-12:  # below float resolution the margins round equal
            assert demand_quantity(table2, alpha, hi) < demand_quantity(table2, alpha, lo)

    @given(alpha=st.floats(0.0, 3.0), p=st.floats(1.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_zero_at_and_above_p_star(self, table2, alpha, p):
        assert demand_quantity(table2, alpha, p) == 0.0


class TestProviderRevenue:
    def test_base_curve_midpoint(self, table2):
        assert provider_revenue(table2, 125.0, 0.0) == pytest.approx(62.5)

    def test_expanded_curve(self, table2):
        assert provider_revenue(table2, 150.0, 0.2) == pytest.approx(75.0)

    def test_zero_price_at_max_quantity(self, table2):
        assert provider_revenue(table2, 300.0, 0.2) == 0.0

    def test_out_of_range_quantity(self, table2):
        with pytest.raises(DomainError):
            provider_revenue(table2, 300.1, 0.2)
        with pytest.raises(DomainError):
            provider_revenue(table2, -1.0, 0.2)


class TestValidDemandRegion:
    def test_reference_bounds(self, table2):
        region = valid_demand_region(table2, 100.0, 0.2)
        cust, plo, pup = _oracle.region_bounds(table2, 100.0, 0.2)
        assert region.customer_ok_lower == pytest.approx(float(cust), rel=1e-12)
        assert region.provider_lower == pytest.approx(float(plo), rel=1e-12)
        assert region.provider_upper == pytest.approx(float(pup), rel=1e-12)
        assert region.lower == pytest.approx(109.5445115, abs=1e-6)
        assert region.upper == pytest.approx(217.0820393, abs=1e-6)
        assert not region.is_empty

    def test_price_taker_point_inside(self, table2):
        region = valid_demand_region(table2, 100.0, 0.2)
        assert region.contains(price_taker_demand(100.0, 0.2))

    def test_symmetric_midpoint_collapses_as_alpha_vanishes(self, table2):
        region = valid_demand_region(table2, 125.0, 1e-9)
        assert not region.is_empty
        assert region.upper - region.lower < 0.02

    def test_q1_out_of_range(self, table2):
        for q1 in (0.0, 250.0, -5.0, 260.0):
            with pytest.raises(DomainError):
                valid_demand_region(table2, q1, 0.2)


class TestPriceTaker:
    def test_direct_product(self):
        assert price_taker_demand(100.0, 0.2) == pytest.approx(120.0)

    def test_no_release_no_shift(self):
        assert price_taker_demand(100.0, 0.0) == 100.0

    def test_beats_customer_bound(self, table2):
        region = valid_demand_region(table2, 100.0, 0.2)
        assert price_taker_demand(100.0, 0.2) > region.customer_ok_lower

    @given(q1=st.floats(1.0, 249.0), alpha=st.floats(1e-4, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_revenue_grows_at_constant_price(self, table2, q1, alpha):
        # the price-taker move keeps the unit price, so revenue scales by 1+alpha
        base = provider_revenue(table2, q1, 0.0)
        moved = provider_revenue(table2, price_taker_demand(q1, alpha), alpha)
        assert moved > base
        assert moved == pytest.approx(base * (1.0 + alpha), rel=1e-9)

    @given(q1=st.floats(1.0, 249.0), alpha=st.floats(1e-4, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_always_above_surplus_bound(self, q1, alpha):
        assert price_taker_demand(q1, alpha) > q1 * math.sqrt(1.0 + alpha)


class TestParetoPrivacyParameter:
    def test_eighty_twenty(self):
        assert pareto_privacy_parameter(0.8, 0.2) == pytest.approx(0.138647, abs=1e-6)

    def test_equal_fractions_force_linearity(self):
        assert pareto_privacy_parameter(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_reciprocal_case(self):
        assert pareto_privacy_parameter(0.2, 0.8) == pytest.approx(7.212567, abs=1e-6)

    @pytest.mark.parametrize("benefit,loss", [(0.0, 0.2), (1.0, 0.2), (0.8, 0.0), (0.8, 1.0)])
    def test_degenerate_fractions_rejected(self, benefit, loss):
        with pytest.raises(DomainError):
            pareto_privacy_parameter(benefit, loss)


class TestNetSurplus:
    def test_zero_loss_closed_form(self, table2):
        assert net_surplus(table2, 0.0) == 0.5 * 250.0 * 1.0 * 0.5**2

    def test_reference_value(self, table2):
        assert net_surplus(table2, 3797.0) == pytest.approx(36.00, abs=0.01)
        assert net_surplus(table2, 3797.0) == pytest.approx(float(_oracle.net_surplus(table2, 3797.0)), rel=1e-12)

    def test_no_margin_leaves_only_expected_loss(self, table2):
        s = dataclasses.replace(table2, price=table2.p_star)
        for l in (0.0, 100.0, table2.l_n):
            expected = -(s.pi_s + s.pi_c_star * (1 - s.pi_s) * (l / s.l_n) ** s.theta) * l
            assert net_surplus(s, l) == pytest.approx(expected, rel=1e-12)
            assert net_surplus(s, l) <= 0.0

    def test_gain_is_the_surplus_over_zero_loss(self, table2):
        assert _gain(table2, 0.0) == 0.0
        assert not _gain(table2, np.zeros(3)).any()
        for l in (0.0, 1.0, 3797.0, table2.l_n):
            assert net_surplus(table2, l) == net_surplus(table2, 0.0) + _gain(table2, l)
        exact = _oracle.net_surplus(table2, 3797.0) - _oracle.net_surplus(table2, 0.0)
        assert _gain(table2, 3797.0) == pytest.approx(float(exact), rel=1e-13)

    def test_large_surplus_stays_finite(self):
        # p*q*/2 overflows on its own; the surplus, about 5e289, does not.  The
        # margin 1 - price/p* cancels to 1e-10, so its float is good to ~1e-6
        s = Scenario(
            q_star=1e10, p_star=1e300, price=1e300 * (1 - 1e-10), nu=0.5, theta=0.3,
            alpha_n=0.5, l_n=1e4, pi_s=1e-4, pi_c_star=1e-3,
        )
        for l in (0.0, s.l_n):
            assert net_surplus(s, l) == pytest.approx(float(_oracle.net_surplus(s, l)), rel=1e-5)
        assert net_surplus(s, 0.0) == pytest.approx(5e289, rel=1e-5)
        assert solve_tradeoff(s).surplus == net_surplus(s, s.l_n)

    def test_domain(self, table2):
        with pytest.raises(DomainError):
            net_surplus(table2, -0.1)
        with pytest.raises(DomainError):
            net_surplus(table2, table2.l_n + 1.0)

    def test_vectorized_matches_scalar(self, table2):
        # 5 of these 1001 points differ in the last bit between the paths
        grid = np.linspace(0.0, table2.l_n, 1001)
        values = net_surplus(table2, grid)
        for l, v in zip(grid, values):
            assert agree(float(v), net_surplus(table2, float(l)), surplus_scale(table2, l)), l


class TestSurplusGradient:
    def test_vanishes_at_reference_optimum(self, table2):
        root = float(_oracle.interior_root(table2, 3797))
        assert abs(surplus_gradient(table2, root)) < 1e-12

    def test_diverges_near_zero(self, table2):
        assert surplus_gradient(table2, 1e-280) > 1e10

    def test_negative_past_optimum(self, table2):
        assert surplus_gradient(table2, 8000.0) < 0.0

    def test_positive_before_optimum(self, table2):
        assert surplus_gradient(table2, 1000.0) > 0.0

    def test_rejects_nonpositive_loss(self, table2):
        for l in (0.0, -1.0):
            with pytest.raises(DomainError):
                surplus_gradient(table2, l)

    def test_matches_finite_differences(self):
        # quick version of the acceptance check: 5 scenarios x 100 points
        rng = np.random.default_rng(421)
        for _ in range(5):
            s = make_random_scenario(rng)
            for l in rng.uniform(1e-3 * s.l_n, 0.999 * s.l_n, size=100):
                assert relative_gradient_error(s, float(l)) < 1e-6

    def test_log_domain_handles_tiny_ratios(self, table2):
        # (l/l_n)**(nu-1) at l = 1e-300 overflows a naive pow chain
        value = surplus_gradient(table2, 1e-300)
        assert math.isfinite(value) or value == math.inf
        assert value > 0


def agree(x, y, scale=None, ulps=4):
    """Equal non-finite values, or finite values within ``ulps`` units in
    the last place of ``scale`` (default: the larger magnitude)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return x == y or (math.isnan(x) and math.isnan(y))
    if scale is None:
        scale = max(abs(x), abs(y))
    return abs(x - y) <= ulps * math.ulp(scale)


def surplus_scale(s, l):
    """Magnitude bound of the net surplus's two terms at loss ``l``: each
    is rounded separately, and their difference can cancel."""
    return 0.5 * s.p_star * s.q_star * (1.0 + s.alpha_n) * s.margin() ** 2 + (s.pi_s + s.pi_c_star) * l


#: Bases at the edges of the float range, and any other nonnegative float.
POWER_BASES = st.sampled_from(
    [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 1.7976931348623157e308, math.inf, math.nan]
) | st.floats(min_value=0.0)
#: Exponents the model raises to: nu, theta, their differences and
#: reciprocals over the fuzz ranges, and exactly 0 (nu == 1 gives nu - 1 == 0).
POWER_EXPONENTS = st.just(0.0) | st.floats(-1e12, 1e12)


class TestScalarAndArrayPaths:
    """The float branch runs in math, the array branch in numpy; their exp
    implementations may differ in the last bit, never by more."""

    @given(x=POWER_BASES, e=POWER_EXPONENTS)
    @example(x=1e300, e=10.0)  # overflows to inf
    @example(x=math.inf, e=0.0)
    @example(x=math.nan, e=0.5)
    @example(x=0.0, e=-0.5)
    @settings(max_examples=500, deadline=None)
    def test_power_branches_agree(self, x, e):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = _powl(x, e)
            array = _powl(np.array([x]), e)
        assert type(scalar) is float
        assert agree(scalar, float(array[0])), (x, e, scalar, array)

    @given(s=fuzz_scenarios(), frac=st.sampled_from([0.0, 5e-324, 1e-300, 1.0]) | st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_net_surplus_branches_agree(self, s, frac):
        l = s.l_n * frac
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = net_surplus(s, l)
            array = net_surplus(s, np.array([l, l]))
        scale = surplus_scale(s, l)
        assert type(scalar) is float
        assert all(agree(scalar, float(v), scale) for v in array), (s, l, scalar, array)
