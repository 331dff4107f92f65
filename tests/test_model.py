"""Demand curve, power law, surplus and gradient."""

import dataclasses
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _oracle
from _gradcheck import relative_gradient_error
from conftest import (
    FLAT_SURPLUS,
    _log_uniform,
    boundary_scenarios,
    fuzz_scenarios,
    make_random_scenario,
    wide_scenarios,
)
from privopt import (
    DomainError,
    Scenario,
    ValidationError,
    customer_breach_probability,
    demand_quantity,
    marginal_demand_factor,
    net_surplus,
    normalized_gradient,
    pareto_privacy_parameter,
    price_taker_demand,
    provider_revenue,
    solve_tradeoff,
    surplus_gradient,
    valid_demand_region,
)
from privopt.model import _gain, _surplus_bounds


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
            pytest.param("q_star", 10**400, id="q_star-int-beyond-float"),
            ("l_n", float("inf")),
            ("price", "1"),
            ("nu", None),
            ("alpha_n", True),
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


#: Loss fractions of ``l_n``: zero, the smallest subnormal, a tiny normal
#: ratio, the cap, and any other.
LOSS_FRACTIONS = st.sampled_from([0.0, 5e-324, 1e-300, 1.0]) | st.floats(0.0, 1.0)


class TestSurplusBounds:
    @given(
        s=fuzz_scenarios() | wide_scenarios() | boundary_scenarios(),
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_sampled_value_lies_above_the_bound(self, s, ends):
        # a quarter of the grid oracle's 64 eps slack covers the rounding
        # of a value and of a bound; a single point's bound is its value
        x0, x1 = (f * s.l_n for f in ends)
        try:
            _, (bound, point), scale = _surplus_bounds(s, np.array([x0, x1, x1]))
        except DomainError:  # the surplus scale overflows
            return
        tol = 16 * sys.float_info.epsilon * scale
        values = net_surplus(s, np.clip(np.linspace(x0, x1, 1001), x0, x1))
        assert values.max() <= bound + tol, (s, x0, x1)
        assert abs(point - net_surplus(s, x1)) <= tol

    @given(
        s=fuzz_scenarios() | wide_scenarios() | boundary_scenarios(),
        fracs=st.lists(LOSS_FRACTIONS, min_size=2, max_size=16).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_values_are_net_surplus_bit_for_bit(self, s, fracs):
        ends = np.array(fracs) * s.l_n
        try:
            want = net_surplus(s, ends)
        except DomainError:  # the surplus scale overflows
            with pytest.raises(DomainError, match="surplus scale"):
                _surplus_bounds(s, ends)
            return
        assert np.array_equal(_surplus_bounds(s, ends)[0], want, equal_nan=True)

    @given(
        s=fuzz_scenarios() | wide_scenarios() | boundary_scenarios(),
        fracs=st.lists(LOSS_FRACTIONS, min_size=8, max_size=8).map(sorted),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_are_bounded_as_alone(self, s, fracs):
        # the grid oracle bounds a chunk of pieces as one 2-D array: each
        # row gets the floats a call on that row alone gives
        ends = np.array(fracs).reshape(2, 4) * s.l_n
        try:
            rows = [_surplus_bounds(s, row) for row in ends]
        except DomainError:  # the surplus scale overflows
            return
        values, bounds, scale = _surplus_bounds(s, ends)
        for i, (row_values, row_bounds, row_scale) in enumerate(rows):
            assert np.array_equal(values[i], row_values, equal_nan=True)
            assert np.array_equal(bounds[i], row_bounds, equal_nan=True)
            assert scale == row_scale


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

    @given(
        s=fuzz_scenarios() | wide_scenarios(),
        x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        alpha=_log_uniform(1e-323, 1e308) | st.just(sys.float_info.max),
    )
    # q1/q* at and next to 1/2, where the rounded 1 - x can round up
    @example(s=Scenario(**FLAT_SURPLUS), x=0.5, alpha=5e-324)
    @example(s=Scenario(**FLAT_SURPLUS), x=0.5 - 2**-54, alpha=5e-324)
    @example(s=Scenario(**FLAT_SURPLUS), x=0.5 - 3 * 2**-54, alpha=5e-324)
    @example(s=Scenario(**FLAT_SURPLUS), x=0.5 + 2**-53, alpha=5e-324)
    # table2's q* and q1 = 100, lower root 60: half (1 - root) gives 0.0 at
    # alpha = 1e17, and NaN at 1e307, where half overflows
    @example(s=dataclasses.replace(Scenario(**FLAT_SURPLUS), q_star=250.0), x=0.4, alpha=1e17)
    @example(s=dataclasses.replace(Scenario(**FLAT_SURPLUS), q_star=250.0), x=0.4, alpha=1e307)
    # 4 x (1 - x) / (1 + alpha) cancels against 1 here: both bounds were 1.05e-8 off
    @example(s=dataclasses.replace(Scenario(**FLAT_SURPLUS), q_star=0.12388706704115218),
             x=0.49999999999999994, alpha=1.1e-269)
    @settings(max_examples=200, deadline=None)
    def test_finite_alpha_gives_no_nan_bound(self, s, x, alpha):
        # the discriminant ((1 - 2x)**2 + alpha) / (1 + alpha) is never
        # negative; the lower root divides by 1 + root and never meets an
        # overflowed (1 + alpha) q*
        q1 = x * s.q_star
        assume(0.0 < q1 < s.q_star)
        region = valid_demand_region(s, q1, alpha)
        assert not any(math.isnan(bound) for bound in dataclasses.astuple(region)), region
        # the worst measured error of either bound is 3.6e-16, over 62,000
        # draws with x within 1e-2 of 1/2 and 80,000 over these ranges
        _, lower, upper = map(float, _oracle.region_bounds(s, q1, alpha))
        assert region.provider_lower == pytest.approx(lower, rel=1e-15, abs=0.0), (region, lower)
        assert region.provider_upper == pytest.approx(upper, rel=1e-15, abs=0.0), (region, upper)

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
            assert net_surplus(s, l) == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert net_surplus(s, l) <= 0.0

    def test_gain_is_the_surplus_over_zero_loss(self, table2):
        assert _gain(table2, 0.0) == 0.0
        assert not _gain(table2, np.zeros(3)).any()
        for l in (0.0, 1.0, 3797.0, table2.l_n):
            assert net_surplus(table2, l) == net_surplus(table2, 0.0) + _gain(table2, l)
        exact = _oracle.net_surplus(table2, 3797.0) - _oracle.net_surplus(table2, 0.0)
        assert _gain(table2, 3797.0) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

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


def two_log_gain(s, l):
    """The surplus gain written with one log per power, ``exp(e log(l/l_n))``
    for each of ``nu`` and ``theta``, and a new array for every step."""
    if isinstance(l, float):
        def power(x, e):
            return 0.0 if x == 0.0 else math.exp(e * math.log(x))
    else:
        def power(x, e):
            with np.errstate(divide="ignore"):
                return np.exp(e * np.log(x))
    ratio = l / s.l_n
    c = (0.5 * s.p_star * s.margin()) * (s.q_star * s.margin())
    benefit = c * (s.alpha_n * power(ratio, s.nu))
    return benefit - (s.pi_s + s.pi_c_star * (1.0 - s.pi_s) * power(ratio, s.theta)) * l


class TestKernelBits:
    """``_gain`` takes one log for both powers and works an array in its
    own arrays, with the floats of the two-log expression."""

    @given(s=fuzz_scenarios(), fracs=st.lists(LOSS_FRACTIONS, min_size=1, max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_same_floats_as_two_logs(self, s, fracs):
        l = np.array(fracs) * s.l_n
        c = (0.5 * s.p_star * s.margin()) * (s.q_star * s.margin())
        assert np.array_equal(_gain(s, l), two_log_gain(s, l), equal_nan=True)
        assert np.array_equal(net_surplus(s, l), c + two_log_gain(s, l), equal_nan=True)
        for x in l.tolist():
            assert _gain(s, x) == two_log_gain(s, x), x
            assert net_surplus(s, x) == c + two_log_gain(s, x), x

    @pytest.mark.parametrize("kernel", [_gain, net_surplus])
    def test_caller_array_is_never_written(self, table2, kernel):
        read_only = np.linspace(0.0, table2.l_n, 7)
        read_only.flags.writeable = False
        for l in (
            read_only,
            np.linspace(0.0, table2.l_n, 7),
            [0.0, 1000.0, table2.l_n],
            np.array([0, 1000, 10000]),
            np.array(3797.0),
        ):
            before = np.array(l, copy=True)
            values = kernel(table2, l)
            assert np.array_equal(np.asarray(l), before) and np.asarray(l).dtype == before.dtype
            assert np.array_equal(values, kernel(table2, before.astype(np.float64)))


def demand_at_price(s, p):
    return demand_quantity(s, 0.2, p)


def demand_at_nan_alpha(s, p):
    return demand_quantity(s, math.nan, np.zeros_like(p))


class TestNaNInput:
    """A NaN loss, price or alpha is a DomainError, never a NaN result."""

    @pytest.mark.parametrize(
        "function",
        [
            net_surplus,
            _gain,
            marginal_demand_factor,
            customer_breach_probability,
            surplus_gradient,
            demand_at_price,
            demand_at_nan_alpha,
        ],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("value", [math.nan, np.array([1.0, math.nan])], ids=["scalar", "array"])
    def test_nan_is_a_domain_error(self, table2, function, value):
        with pytest.raises(DomainError):
            function(table2, value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: price_taker_demand(10.0, math.nan),
            lambda s: price_taker_demand(math.nan, 0.2),
            lambda s: valid_demand_region(s, 10.0, math.nan),
            lambda s: valid_demand_region(s, math.nan, 0.2),
            lambda s: provider_revenue(s, 10.0, math.nan),
            lambda s: provider_revenue(s, math.nan, 0.2),
        ],
        ids=[
            "price_taker_demand-alpha",
            "price_taker_demand-q1",
            "valid_demand_region-alpha",
            "valid_demand_region-q1",
            "provider_revenue-alpha",
            "provider_revenue-q2",
        ],
    )
    def test_nan_quantity_or_alpha_is_a_domain_error(self, table2, call):
        # these take scalars only
        with pytest.raises(DomainError):
            call(table2)


#: a = 1e100 while l_n**-nu = 1e-400 underflows the float range
UNDERFLOWING_L_N_POWER = Scenario(
    q_star=1e150, p_star=1e150, price=0.0, nu=2.0, theta=0.5,
    alpha_n=1.0, l_n=1e200, pi_s=1e-4, pi_c_star=1e-4,
)
#: table2 with nu == 1 exactly, where (nu - 1) log l is 0
NU_AT_1 = Scenario(250.0, 1.0, 0.5, 1.0, 0.138647, 0.2, 1e4, 1e-4, 1e-4)


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

    @pytest.mark.parametrize("frac", [1e-3, 0.5, 1.0])
    def test_sign_where_l_n_power_underflows(self, frac):
        # l_n**-nu = 1e-400 underflows, yet the coefficient a = 1e100 does not
        s = UNDERFLOWING_L_N_POWER
        l = frac * s.l_n
        want = float(_oracle.gradient(s, l))
        assert want > 1e96
        assert surplus_gradient(s, l) == pytest.approx(want, rel=1e-11)
        assert surplus_gradient(s, np.array([l]))[0] == pytest.approx(want, rel=1e-11)

    @given(s=fuzz_scenarios(), frac=_log_uniform(1e-300, 3.0))
    @example(s=NU_AT_1, frac=1e-300)
    @example(s=NU_AT_1, frac=3.0)
    @example(s=dataclasses.replace(NU_AT_1, nu=1.0 + 1e-9), frac=1e-300)
    @example(s=dataclasses.replace(NU_AT_1, nu=1.0 + 1e-9), frac=3.0)
    @example(s=dataclasses.replace(NU_AT_1, nu=1.0 - 1e-9), frac=1e-300)
    @example(s=dataclasses.replace(NU_AT_1, nu=1.0 - 1e-9), frac=3.0)
    @example(s=UNDERFLOWING_L_N_POWER, frac=1.0)
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_normalized_gradient(self, s, frac):
        # normalized_gradient is tanh(h/2), from the decision equation in
        # log l; away from a root, where rounding can flip either, the two
        # agree in sign
        l = frac * s.l_n
        ng = normalized_gradient(s, l)
        if abs(ng) > 1e-9:
            assert (surplus_gradient(s, l) > 0) == (ng > 0), (s, l, ng)

    @pytest.mark.parametrize(
        "nu,want", [(0.5, -math.inf), (1.0, -math.inf), (1.5, math.nan)], ids=["lt1", "eq1", "gt1"]
    )
    def test_value_at_infinity(self, table2, nu, want):
        # (nu - 1) log l is 0 * inf at nu == 1: there the first term is a
        s = dataclasses.replace(table2, nu=nu)
        for value in (surplus_gradient(s, math.inf), surplus_gradient(s, np.array([math.inf]))[0]):
            assert value == want or (math.isnan(value) and math.isnan(want))


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


def gradient_scale(s, l):
    """Magnitude bound of the surplus gradient's three terms at loss ``l``:
    each is rounded separately, and their difference can cancel."""
    a, b = _oracle.coefficients(s)
    l = mp.mpf(l)
    return float(a * l ** (s.nu - 1.0) + s.pi_s + b * l**s.theta)


class TestScalarAndArrayPaths:
    """The float branch runs in math, the array branch in numpy; their exp
    implementations may differ in the last bit, never by more."""

    @given(
        s=fuzz_scenarios(),
        frac=st.sampled_from([0.0, 5e-324, 1e-300, 1.0]),
        function=st.sampled_from([marginal_demand_factor, customer_breach_probability, surplus_gradient]),
    )
    @settings(max_examples=500, deadline=None)
    def test_power_branches_agree(self, s, frac, function):
        l = s.l_n * frac
        if function is surplus_gradient:
            assume(l > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = function(s, l)
            array = function(s, np.array([l]))
        scale = gradient_scale(s, l) if function is surplus_gradient else None
        assert type(scalar) is float
        assert agree(scalar, float(array[0]), scale), (s, l, scalar, array)

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
