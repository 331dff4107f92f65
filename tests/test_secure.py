"""Closed-form secure-provider optimum, OLR, and analytic sensitivities."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings

import _oracle
from conftest import (
    OVERFLOWING_EQ1,
    OVERFLOWING_OLR,
    TINY_RISK,
    boundary_scenarios,
    fuzz_scenarios,
    make_random_scenario,
    wide_scenarios,
)
from privopt import (
    ClosedFormInapplicableError,
    DomainError,
    Regime,
    Scenario,
    classify_regime,
    optimal_loss_ratio,
    secure_elasticities,
    secure_feasible_loss,
    secure_optimal_loss,
    secure_quasi_elasticities,
    solve_tradeoff,
)
from privopt.solver import REGIME_TOL


# nu next to 1 + theta, where theta - nu + 1 rounds inside REGIME_TOL and
# nu - (1 + theta) outside it: the regime and the closed form must read one
SUBCASE_A_AT_THE_TOLERANCE = Scenario(250, 1, 0.2, 1.6071476346819344, 0.6071476346829344, 0.05, 1e4, 0, 1e-3)


def tolerance_band(theta: float) -> list:
    """Scenarios with ``nu = 1 + theta +- (REGIME_TOL + k ulp)``, ``|k| <= 64``."""
    edge = 1.0 + theta
    return [
        dataclasses.replace(SUBCASE_A_AT_THE_TOLERANCE, nu=edge + sign * REGIME_TOL + k * math.ulp(edge), theta=theta)
        for sign in (-1.0, 1.0)
        for k in range(-64, 65)
    ]


def fd_elasticity(s, field: str, rel_step: float = 1e-6) -> float:
    """Central-difference elasticity of the unclamped closed form."""
    x = getattr(s, field)
    h = rel_step * x
    up, _ = secure_optimal_loss(dataclasses.replace(s, **{field: x + h}))
    dn, _ = secure_optimal_loss(dataclasses.replace(s, **{field: x - h}))
    base, _ = secure_optimal_loss(s)
    return (up - dn) / (2.0 * h) * (x / base)


def fd_quasi_elasticity(s, field: str, rel_step: float = 1e-6) -> float:
    x = getattr(s, field)
    h = rel_step * x
    up, _ = secure_optimal_loss(dataclasses.replace(s, **{field: x + h}))
    dn, _ = secure_optimal_loss(dataclasses.replace(s, **{field: x - h}))
    base, _ = secure_optimal_loss(s)
    return (up - dn) / (2.0 * h) / base


class TestSecureOptimalLoss:
    def test_reference_point(self, table2):
        raw, clamped = secure_optimal_loss(table2)
        assert raw == pytest.approx(float(_oracle.secure_raw(table2)), rel=1e-12)
        assert raw == pytest.approx(7610.2931813, abs=0.5)
        assert clamped == raw

    def test_free_service_saturates(self, table2):
        raw, clamped = secure_optimal_loss(dataclasses.replace(table2, price=0.0))
        assert raw == pytest.approx(30441.1727252, abs=0.01)
        assert clamped == table2.l_n

    def test_no_margin_gives_zero(self, table2):
        assert secure_optimal_loss(dataclasses.replace(table2, price=1.0)) == (0.0, 0.0)

    def test_inapplicable_exponents_signal(self, table2):
        for nu in (1.2, 1.5):
            s = dataclasses.replace(table2, nu=nu, theta=0.2)
            with pytest.raises(ClosedFormInapplicableError):
                secure_optimal_loss(s)

    @pytest.mark.parametrize("scenarios", [
        pytest.param([SUBCASE_A_AT_THE_TOLERANCE], id="subcase_a_at_the_tolerance"),
        *(pytest.param(tolerance_band(theta), id=f"band_theta_{theta}") for theta in (0.2, 0.5, 0.6071476346829344, 0.9)),
    ])
    def test_inapplicable_exactly_where_the_regime_says(self, scenarios):
        # the regime and the closed form read one exponent gap, so they agree
        # next to the nu == 1 + theta edge too
        for s in scenarios:
            applies = classify_regime(s) in (Regime.NU_LT_1, Regime.SUBCASE_A)
            try:
                secure_optimal_loss(s)
                raised = False
            except ClosedFormInapplicableError:
                raised = True
            assert raised is not applies, (s, classify_regime(s))

    def test_feasible_loss_falls_back_to_solver(self, table2):
        s = dataclasses.replace(table2, nu=1.5, theta=0.2)
        expected = solve_tradeoff(dataclasses.replace(s, pi_s=0.0)).l_opt
        assert secure_feasible_loss(s) == expected

    def test_underflowing_coefficient_product(self):
        # 0.5 q* p* nu alpha_n underflows to 0, so its log is summed term by term
        s = Scenario(
            q_star=1e-200, p_star=1e-200, price=0.5e-200, nu=0.001, theta=0.99,
            alpha_n=0.5, l_n=1e4, pi_s=0.0, pi_c_star=1e-3,
        )
        raw, clamped = secure_optimal_loss(s)
        assert raw == pytest.approx(float(_oracle.secure_raw(s)), rel=1e-12, abs=0.0)
        assert solve_tradeoff(s).l_opt == clamped == raw

    def test_pi_s_is_ignored(self, table2):
        assert secure_optimal_loss(table2) == secure_optimal_loss(
            dataclasses.replace(table2, pi_s=0.0)
        )


class TestOptimalLossRatio:
    def test_reference_point(self, table2):
        assert optimal_loss_ratio(table2) == pytest.approx(2.00, abs=0.05)
        assert optimal_loss_ratio(table2) == pytest.approx(2.004334194, abs=1e-6)

    def test_low_price_saturates_both_sides(self, table2):
        assert optimal_loss_ratio(dataclasses.replace(table2, price=0.1)) == 1.0

    def test_already_secure(self, table2):
        assert optimal_loss_ratio(dataclasses.replace(table2, pi_s=0.0)) == 1.0

    def test_zero_denominator_rejected(self, table2):
        with pytest.raises(DomainError):
            optimal_loss_ratio(dataclasses.replace(table2, price=table2.p_star))

    def test_overflowing_ratio_rejected(self):
        # the secure optimum is about 1e364 times the vulnerable one
        with pytest.raises(DomainError, match="overflows"):
            optimal_loss_ratio(Scenario(**OVERFLOWING_OLR))

    def test_never_below_one_on_price_grid(self, table2):
        for p in np.linspace(0.0, 0.98, 50):
            assert optimal_loss_ratio(dataclasses.replace(table2, price=float(p))) >= 1.0 - 1e-12


class TestSecureElasticities:
    def test_reference_point(self, table2):
        el = secure_elasticities(table2)  # theta == nu, p/p* == 0.5
        assert el.eps_q_star == pytest.approx(1.0, abs=1e-12)
        assert el.eps_p_star == pytest.approx(3.0, abs=1e-12)
        assert el.eps_l_n == pytest.approx(0.0, abs=1e-12)
        assert el.eps_price == pytest.approx(-2.0, abs=1e-12)

    def test_free_service(self, table2):
        el = secure_elasticities(dataclasses.replace(table2, price=0.0))
        assert el.eps_p_star == pytest.approx(el.eps_q_star)
        assert el.eps_price == 0.0

    def test_wide_exponent_gap_is_anelastic(self, table2):
        # theta - nu close to its supremum 1: responses drop toward 1/2
        s = dataclasses.replace(table2, nu=1e-5, theta=0.99999)
        el = secure_elasticities(s)
        assert el.eps_q_star == pytest.approx(0.5, abs=1e-4)
        assert el.eps_l_n == pytest.approx(0.5, abs=1e-4)

    def test_signs_over_prices(self, table2):
        for p in np.linspace(0.01, 0.98, 25):
            el = secure_elasticities(dataclasses.replace(table2, price=float(p)))
            assert el.eps_p_star > 0
            assert el.eps_price < 0

    def test_depends_on_exponent_difference_only(self, table2):
        el = secure_elasticities(table2)
        for delta in (-0.05, 0.02, 0.21):
            shifted = secure_elasticities(
                dataclasses.replace(table2, nu=table2.nu + delta, theta=table2.theta + delta)
            )
            assert shifted.eps_q_star == pytest.approx(el.eps_q_star, abs=1e-12)
            assert shifted.eps_p_star == pytest.approx(el.eps_p_star, abs=1e-12)
            assert shifted.eps_l_n == pytest.approx(el.eps_l_n, abs=1e-12)
            assert shifted.eps_price == pytest.approx(el.eps_price, abs=1e-12)

    def test_requires_positive_margin(self, table2):
        with pytest.raises(DomainError):
            secure_elasticities(dataclasses.replace(table2, price=1.0))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            s = make_random_scenario(rng, regime="lt1")
            el = secure_elasticities(s)
            assert el.eps_q_star == pytest.approx(fd_elasticity(s, "q_star"), rel=1e-4)
            assert el.eps_p_star == pytest.approx(fd_elasticity(s, "p_star"), rel=1e-4)
            assert el.eps_l_n == pytest.approx(fd_elasticity(s, "l_n"), rel=1e-4, abs=1e-7)
            assert el.eps_price == pytest.approx(fd_elasticity(s, "price"), rel=1e-4, abs=1e-9)


class TestSecureQuasiElasticities:
    def test_reference_breach_probability_response(self, table2):
        qe = secure_quasi_elasticities(table2)
        assert qe.qeps_pi_c_star == pytest.approx(-1e4, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            s = make_random_scenario(rng, regime="lt1")
            qe = secure_quasi_elasticities(s)
            assert qe.qeps_nu == pytest.approx(fd_quasi_elasticity(s, "nu"), rel=1e-4, abs=1e-8)
            assert qe.qeps_theta == pytest.approx(
                fd_quasi_elasticity(s, "theta"), rel=1e-4, abs=1e-8
            )
            assert qe.qeps_pi_c_star == pytest.approx(
                fd_quasi_elasticity(s, "pi_c_star"), rel=1e-4
            )

    def test_sign_thresholds(self, table2):
        # qeps_nu flips where l*/l_n crosses exp(-1/nu); qeps_theta where it
        # crosses exp(-1/(1+theta))
        for p in np.linspace(0.0, 0.995, 60):
            s = dataclasses.replace(table2, price=float(p))
            raw, _ = secure_optimal_loss(s)
            qe = secure_quasi_elasticities(s)
            ratio = raw / s.l_n
            assert (qe.qeps_nu > 0) == (ratio > math.exp(-1.0 / s.nu))
            assert (qe.qeps_theta > 0) == (ratio < math.exp(-1.0 / (1.0 + s.theta)))

    def test_nu_response_positive_for_most_prices(self, table2):
        qe_low = secure_quasi_elasticities(dataclasses.replace(table2, price=0.9))
        qe_high = secure_quasi_elasticities(dataclasses.replace(table2, price=0.995))
        assert qe_low.qeps_nu > 0
        assert qe_high.qeps_nu < 0

    @staticmethod
    def assert_matches_reference(s):
        # against the exact logarithmic derivatives of the 50-digit closed form
        qe = secure_quasi_elasticities(s)
        k = 1 / (mp.mpf(s.theta) - mp.mpf(s.nu) + 1)
        rho = mp.log(_oracle.secure_raw(s) / mp.mpf(s.l_n))
        assert qe.qeps_nu == pytest.approx(float(k * (1 / mp.mpf(s.nu) + rho)), rel=1e-12)
        assert qe.qeps_theta == pytest.approx(float(-k * (rho + 1 / (mp.mpf(s.theta) + 1))), rel=1e-12)
        assert qe.qeps_pi_c_star == pytest.approx(float(-k / mp.mpf(s.pi_c_star)), rel=1e-12)

    def test_underflowing_optimum_has_finite_quasi_elasticities(self):
        # l* lies below the smallest subnormal; rho = ln(l*/l_n) comes from its log
        s = Scenario(
            q_star=0.001, p_star=0.001, price=0.0, nu=0.999, theta=0.01,
            alpha_n=0.001, l_n=1e12, pi_s=0.01, pi_c_star=0.5,
        )
        assert secure_optimal_loss(s) == (0.0, 0.0)
        self.assert_matches_reference(s)

    def test_overflowing_optimum_has_finite_quasi_elasticities(self):
        # the closed form exceeds the float range: inf, clamped to the cap, and no traceback
        s = Scenario(**OVERFLOWING_EQ1)
        assert secure_optimal_loss(s) == (math.inf, s.l_n)
        assert secure_feasible_loss(s) == s.l_n
        self.assert_matches_reference(s)

    def test_overflowing_fuzz_scenario(self):
        # SUBCASE_A draw from the solve-mix fuzz ranges: l* is about e^717 l_n
        s = Scenario(
            q_star=6360.841325698428, p_star=0.015595711155784876, price=0.010667074800466648,
            nu=1.0574078188126832, theta=0.0981203913046242, alpha_n=133.92963887393054,
            l_n=0.0041106990287097965, pi_s=1.5205574099866075e-12, pi_c_star=3.296139511024276e-08,
        )
        assert secure_optimal_loss(s)[0] == math.inf
        self.assert_matches_reference(s)

    @given(s=boundary_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_finite_next_to_a_boundary(self, s):
        # k = 1/(theta - nu + 1) grows as nu -> 1 + theta from below, and
        # every value stays finite; above it the closed form does not apply
        if classify_regime(s) not in (Regime.NU_LT_1, Regime.SUBCASE_A):
            with pytest.raises(ClosedFormInapplicableError):
                secure_quasi_elasticities(s)
            return
        qe = secure_quasi_elasticities(s)
        assert all(map(math.isfinite, (qe.qeps_nu, qe.qeps_theta, qe.qeps_pi_c_star))), (s, qe)

    def test_price_at_p_star_rejected(self, table2):
        # matched by text: without the price check the overflow check raises
        # a DomainError here too
        s = dataclasses.replace(table2, price=table2.p_star)
        with pytest.raises(DomainError, match="quasi-elasticities require price < p_star"):
            secure_quasi_elasticities(s)

    def test_overflowing_quasi_elasticity_rejected(self):
        # -k / pi_c* with a subnormal pi_c* lies beyond the float range
        with pytest.raises(DomainError, match="overflow"):
            secure_quasi_elasticities(Scenario(**TINY_RISK))

    def test_pi_c_star_always_negative(self, table2):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = make_random_scenario(rng, regime="lt1")
            assert secure_quasi_elasticities(s).qeps_pi_c_star < 0


class TestSolverConsistency:
    def test_solver_matches_closed_form_with_secure_provider(self):
        rng = np.random.default_rng(314)
        regimes = ["lt1"] * 20 + ["a"] * 10 + ["eq1"] * 10
        for regime in regimes:
            s = dataclasses.replace(make_random_scenario(rng, regime=regime), pi_s=0.0)
            sol = solve_tradeoff(s)
            _, clamped = secure_optimal_loss(s)
            assert sol.l_opt == pytest.approx(clamped, rel=1e-9)

    def test_reference_scenario_agreement(self, table2):
        s = dataclasses.replace(table2, pi_s=0.0)
        sol = solve_tradeoff(s)
        raw, clamped = secure_optimal_loss(s)
        assert sol.l_opt == pytest.approx(clamped, rel=1e-12)
        assert raw == pytest.approx(7610.2931813, abs=1e-3)

    @given(s=fuzz_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_is_the_solver_crossing_bit_for_bit(self, s):
        # one log-coefficient helper gives both: with pi_s = 0 the solver's
        # stationary point is the raw closed form, in the same bits
        secure = dataclasses.replace(s, pi_s=0.0)
        if classify_regime(secure) not in (Regime.NU_LT_1, Regime.SUBCASE_A):
            return
        raw, clamped = secure_optimal_loss(secure)
        sol = solve_tradeoff(secure)
        assert sol.critical_points == ((raw,) if 0.0 < raw < math.inf else ())
        assert sol.l_opt == clamped

    @given(s=fuzz_scenarios() | wide_scenarios() | boundary_scenarios())
    @example(s=Scenario(
        129.9379968330778, 1.0, 0.753722173886814, 1.0, 0.2704509121788065,
        0.17029928831400892, 19934.67253265694, 0.0, 0.0004755608724472235,
    ))  # nu == 1, where the solver once took (la - lb)/theta
    @settings(max_examples=300, deadline=None)
    def test_solver_optimum_is_the_clamped_closed_form(self, s):
        # the OLR sweep's secure column is the solver's step at pi_s = 0, so
        # it must give secure_feasible_loss's floats wherever the closed form applies
        secure = dataclasses.replace(s, pi_s=0.0)
        if classify_regime(secure) not in (Regime.NU_LT_1, Regime.NU_EQ_1, Regime.SUBCASE_A):
            return
        try:
            l_opt = solve_tradeoff(secure).l_opt
        except DomainError:  # an overflowing surplus scale
            return
        assert l_opt == secure_optimal_loss(secure)[1]

    def test_nu_eq_1_without_a_closed_form(self):
        # theta below REGIME_TOL puts nu = 1 + theta in the nu == 1 regime with
        # theta - nu + 1 == 0: no closed form, and the solver keeps the nu == 1 root
        s = Scenario(250, 1, 0.5, 1.0 + 2.0**-44, 2.0**-44, 0.2, 1e4, 0.0, 1e-4)
        assert classify_regime(s) is Regime.NU_EQ_1
        with pytest.raises(ClosedFormInapplicableError):
            secure_optimal_loss(s)
        assert solve_tradeoff(s).l_opt == secure_feasible_loss(s) == s.l_n
