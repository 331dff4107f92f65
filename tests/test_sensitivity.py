"""Discrete elasticities, tornado ranking, and price sweeps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import privopt.sensitivity
from conftest import (
    OVERFLOWING_OLR,
    SUBNORMAL_OPTIMUM,
    UNDERFLOWING_SATURATION,
    boundary_scenarios,
    fuzz_scenarios,
    wide_scenarios,
)
from privopt import (
    DomainError,
    Scenario,
    SensitivityKind,
    SolutionStatus,
    SweepSeries,
    UsageError,
    ValidationError,
    default_price_grid,
    discrete_elasticity,
    discrete_quasi_elasticity,
    olr_sweep,
    optimal_loss_ratio,
    price_sweep,
    revenue_sweep,
    saturation_price,
    secure_feasible_loss,
    solve_tradeoff,
    tornado,
)
from privopt.sensitivity import MAX_SWEEP_POINTS

DIMENSIONAL_PLAN = (
    ("q_star", -0.10, 0.10),
    ("p_star", -0.10, 0.10),
    ("price", -0.10, 0.10),
    ("l_n", -0.10, 0.10),
)
EXPONENT_PLAN = (("nu", 0.1, 0.2), ("theta", 0.1, 0.2))
PROBABILITY_PLAN = (("pi_s", 5e-5, 2e-4), ("pi_c_star", 5e-5, 2e-4))


class TestDiscreteElasticity:
    def test_quantity_roughly_unit(self, table2):
        entry = discrete_elasticity(table2, "q_star", 0.10)
        assert entry.kind is SensitivityKind.ELASTICITY
        assert entry.value == pytest.approx(1.0, abs=0.3)
        assert not entry.mixed_status

    def test_willingness_to_pay_roughly_trebled(self, table2):
        entry = discrete_elasticity(table2, "p_star", 0.10)
        assert entry.value == pytest.approx(3.0, abs=0.6)

    def test_price_roughly_doubled_and_negative(self, table2):
        for delta in (-0.10, 0.10):
            entry = discrete_elasticity(table2, "price", delta)
            assert entry.value < 0
            assert abs(entry.value) == pytest.approx(2.0, abs=0.4)

    def test_cap_negligible_off_saturation(self, table2):
        for delta in (-0.10, 0.10):
            entry = discrete_elasticity(table2, "l_n", delta)
            assert abs(entry.value) < 0.1
            assert entry.value <= 0

    def test_cap_unit_elasticity_on_the_flat_portion(self, table1):
        # price 0.2 sits below the saturation price, so l* rides the cap
        assert solve_tradeoff(table1).status is SolutionStatus.CLAMPED_AT_LN
        for delta in (-0.10, 0.10):
            entry = discrete_elasticity(table1, "l_n", delta)
            assert entry.value == pytest.approx(1.0, abs=1e-9)
            assert not entry.mixed_status

    def test_mixed_status_flagged(self, table1):
        s = dataclasses.replace(table1, price=0.41)  # just above saturation (~0.402)
        assert solve_tradeoff(s).status is SolutionStatus.INTERIOR
        entry = discrete_elasticity(s, "l_n", -0.10)  # smaller cap saturates again
        assert entry.mixed_status

    def test_rejects_dimensionless_factor(self, table2):
        with pytest.raises(DomainError):
            discrete_elasticity(table2, "nu", 0.1)

    def test_rejects_zero_delta(self, table2):
        with pytest.raises(DomainError):
            discrete_elasticity(table2, "price", 0.0)

    def test_rejects_degenerate_perturbation(self, table2):
        s = dataclasses.replace(table2, price=0.95)
        with pytest.raises(DomainError):
            discrete_elasticity(s, "price", 0.10)  # 1.045 >= p_star

    def test_rejects_zero_base_optimum(self, table2):
        s = dataclasses.replace(table2, price=table2.p_star)
        with pytest.raises(UsageError):
            discrete_elasticity(s, "q_star", 0.10)


class TestDiscreteQuasiElasticity:
    def test_privacy_exponent_positive(self, table2):
        for new in (0.1, 0.2):
            entry = discrete_quasi_elasticity(table2, "nu", new)
            assert entry.kind is SensitivityKind.QUASI_ELASTICITY
            assert entry.value > 0
            assert entry.delta == pytest.approx(new - table2.nu)

    def test_security_exponent_sign_follows_threshold(self, table2):
        # the response changes sign where l*/l_n crosses exp(-1/(1+theta)):
        # below it (reference case, ratio ~0.38 < ~0.42) the measured value
        # is positive; with a smaller cap the ratio rises and the sign flips
        for new in (0.1, 0.2):
            entry = discrete_quasi_elasticity(table2, "theta", new)
            assert entry.value > 0
            assert abs(entry.value) < 0.1
        small_cap = dataclasses.replace(table2, l_n=5000.0)
        ratio = solve_tradeoff(small_cap).l_opt / small_cap.l_n
        assert ratio > math.exp(-1.0 / (1.0 + small_cap.theta))
        for new in (0.1, 0.2):
            assert discrete_quasi_elasticity(small_cap, "theta", new).value < 0

    def test_breach_probabilities_negative_and_large(self, table2):
        for factor in ("pi_s", "pi_c_star"):
            entry = discrete_quasi_elasticity(table2, factor, 2e-4)
            assert entry.value < 0
            assert 1e3 < abs(entry.value) < 1e4

    def test_rejects_dimensional_factor(self, table2):
        with pytest.raises(DomainError):
            discrete_quasi_elasticity(table2, "price", 0.4)

    def test_rejects_illegal_value(self, table2):
        with pytest.raises(DomainError):
            discrete_quasi_elasticity(table2, "theta", 1.5)

    def test_rejects_no_change(self, table2):
        with pytest.raises(DomainError):
            discrete_quasi_elasticity(table2, "nu", table2.nu)


class TestTornado:
    def test_dimensional_ordering(self, table2):
        pairs = tornado(table2, DIMENSIONAL_PLAN)
        assert [minus.factor for minus, _ in pairs] == ["p_star", "price", "q_star", "l_n"]

    def test_exponents_privacy_dominates(self, table2):
        pairs = tornado(table2, EXPONENT_PLAN)
        assert pairs[0][0].factor == "nu"
        assert pairs[0][0].value > 0 and pairs[0][1].value > 0

    def test_probabilities_customer_side_first_both_negative(self, table2):
        pairs = tornado(table2, PROBABILITY_PLAN)
        assert pairs[0][0].factor == "pi_c_star"
        for minus, plus in pairs:
            assert minus.value < 0 and plus.value < 0

    def test_sorted_by_descending_magnitude(self, table2):
        pairs = tornado(table2, DIMENSIONAL_PLAN + EXPONENT_PLAN)
        sizes = [max(abs(m.value), abs(p.value)) for m, p in pairs]
        assert sizes == sorted(sizes, reverse=True)

    def test_overflowing_entry_is_a_domain_error(self):
        # the base optimum is the subnormal 1.38e-321, so relative changes
        # against it overflow to +-inf: typed error, not a non-finite entry
        s = Scenario(**SUBNORMAL_OPTIMUM)
        assert 0.0 < solve_tradeoff(s).l_opt < 1e-320
        with pytest.raises(DomainError, match="overflows"):
            tornado(s, EXPONENT_PLAN)
        with pytest.raises(DomainError, match="nu sensitivity overflows"):
            discrete_quasi_elasticity(s, "nu", 0.1)
        assert math.isfinite(discrete_elasticity(s, "q_star", 0.10).value)


class TestPriceSweep:
    def test_flat_then_strictly_decreasing(self, table1):
        series = price_sweep(table1, default_price_grid(table1))
        p_sat = series.saturation_price
        assert p_sat == pytest.approx(0.4022129, abs=1e-6)
        step = series.grid[1] - series.grid[0]
        for p, l, status in zip(series.grid, series.l_opt, series.statuses):
            if p < p_sat - step:
                assert l == table1.l_n
                assert status is SolutionStatus.CLAMPED_AT_LN
            elif p > p_sat + step:
                assert status is SolutionStatus.INTERIOR
        falling = [l for p, l in zip(series.grid, series.l_opt) if p > p_sat + step]
        assert all(b < a for a, b in zip(falling, falling[1:]))

    def test_cap_does_not_move_the_interior_branch(self, table1):
        # frozen 50-digit references for the optimum at price 0.6
        low_cap = solve_tradeoff(dataclasses.replace(table1, l_n=5000.0, price=0.6))
        high_cap = solve_tradeoff(dataclasses.replace(table1, price=0.6))
        assert low_cap.l_opt == pytest.approx(4471.778211, rel=1e-9)
        assert high_cap.l_opt == pytest.approx(4434.683694, rel=1e-9)
        # identical at plot scale: the cap only shifts the tiny pi_s term
        assert low_cap.l_opt == pytest.approx(high_cap.l_opt, rel=0.02)

    def test_vanishing_margin_kills_the_release(self, table2):
        series = price_sweep(table2, (table2.p_star - 1e-6,))
        assert series.l_opt[0] < 1e-6 * table2.l_n

    def test_revenue_column_matches_definition(self, table2):
        series = price_sweep(table2, (0.3, 0.5))
        for p, l, r in zip(series.grid, series.l_opt, series.revenue):
            s2 = dataclasses.replace(table2, price=p)
            alpha = s2.alpha_n * (l / s2.l_n) ** s2.nu
            q = s2.q_star * (1 + alpha) * (1 - p / s2.p_star)
            assert r == pytest.approx(p * q, rel=1e-12)

    def test_grid_validation(self, table2):
        with pytest.raises(ValidationError):
            price_sweep(table2, (0.5, 0.4))
        with pytest.raises(ValidationError):
            price_sweep(table2, (0.5, 1.0))

    @pytest.mark.parametrize("sweep", [price_sweep, olr_sweep])
    @pytest.mark.parametrize(
        "grid",
        [
            (math.nan, 0.2, 0.3),
            (0.1, math.nan, 0.3),
            (0.1, 0.2, math.nan),
            (0.1, math.inf),
            (-1.0, 0.1),
        ],
    )
    def test_bad_price_is_a_grid_error(self, table2, sweep, grid):
        with pytest.raises(ValidationError) as exc:
            sweep(table2, grid)
        assert exc.value.field == "grid"

    @pytest.mark.parametrize("sweep", [price_sweep, revenue_sweep, olr_sweep])
    def test_order_is_checked_before_any_solve(self, table2, sweep, monkeypatch):
        calls = {"setup": 0, "step": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        # the sweeps set up once, then solve each price through _search; the
        # OLR sweep's secure column is a second setup and a second step per price
        monkeypatch.setattr(privopt.sensitivity, "_setup", counted("setup", privopt.sensitivity._setup))
        monkeypatch.setattr(privopt.sensitivity, "_search", counted("step", privopt.sensitivity._search))
        sweep(table2, [0.3, 0.4, 0.5])
        columns = 2 if sweep is olr_sweep else 1
        assert calls == {"setup": columns, "step": 3 * columns}  # the counters see the sweep's solves

        calls.update(dict.fromkeys(calls, 0))
        with pytest.raises(ValidationError) as exc:
            sweep(table2, [0.5, 0.4, 0.3])
        assert calls == {"setup": 0, "step": 0}
        assert (exc.value.field, str(exc.value)) == ("grid", "grid: must be strictly increasing")

    @pytest.mark.parametrize("sweep", [price_sweep, olr_sweep])
    def test_negative_zero_price_is_kept(self, table2, sweep):
        series = sweep(table2, (-0.0, 0.5))
        assert math.copysign(1.0, series.grid[0]) == -1.0
        assert series.l_opt[0] == solve_tradeoff(dataclasses.replace(table2, price=0.0)).l_opt

    @pytest.mark.parametrize("sweep", [price_sweep, olr_sweep])
    def test_empty_grid_gives_empty_series(self, table2, sweep):
        series = sweep(table2, ())
        assert series.grid == series.l_opt == series.revenue == series.statuses == ()

    def test_series_shape_validation(self):
        with pytest.raises(ValidationError):
            SweepSeries(
                factor="price",
                grid=(0.1, 0.2),
                l_opt=(1.0,),
                revenue=(1.0, 2.0),
                statuses=(SolutionStatus.INTERIOR, SolutionStatus.INTERIOR),
            )


class TestRevenueSweep:
    def test_empty_grid_is_a_grid_error(self, table2):
        with pytest.raises(ValidationError, match="needs at least one price") as exc:
            revenue_sweep(table2, ())
        assert exc.value.field == "grid"

    def test_reference_argmax(self, table1):
        series, best_price = revenue_sweep(table1, default_price_grid(table1))
        assert 0.42 <= best_price <= 0.52
        assert best_price > series.saturation_price

    def test_without_demand_expansion_peak_is_half_willingness(self, table1):
        s = dataclasses.replace(table1, alpha_n=1e-12)
        series, best_price = revenue_sweep(s, default_price_grid(s))
        step = series.grid[1] - series.grid[0]
        assert best_price == pytest.approx(s.p_star / 2.0, abs=step)


class TestOlrSweep:
    def test_reference_curve(self, table2):
        series = olr_sweep(table2, default_price_grid(table2))
        assert all(v >= 1.0 - 1e-12 for v in series.olr)
        assert series.saturation_price == pytest.approx(0.4268487, abs=1e-6)
        # ratio is exactly 1 while both sides ride the cap
        unsec_sat = saturation_price(table2)
        for p, v in zip(series.grid, series.olr):
            if p < unsec_sat - 0.01:
                assert v == pytest.approx(1.0, abs=1e-12)
        # growing trend past the kink
        past = [v for p, v in zip(series.grid, series.olr) if p > series.saturation_price]
        assert past[-1] > past[0] > 1.0

    def test_reference_value_at_half_price(self, table2):
        assert optimal_loss_ratio(table2) == pytest.approx(2.00, abs=0.05)

    def test_requires_vulnerable_provider(self, table2):
        with pytest.raises(UsageError):
            olr_sweep(dataclasses.replace(table2, pi_s=0.0), (0.1, 0.5))

    def test_overflowing_ratio_is_nan(self):
        # positive vulnerable optima near 1e-240, secure ones near 1e76
        s = Scenario(**OVERFLOWING_OLR)
        series = olr_sweep(s, default_price_grid(s, points=21))
        assert all(l > 0.0 for l in series.l_opt)
        assert all(math.isnan(x) for x in series.olr)


def reference_price_sweep(s, grid):
    """The sweep loop written out: one ``replace`` and one solve per point."""
    grid = tuple(float(p) for p in grid)
    if grid and (min(grid) < 0 or max(grid) >= s.p_star):
        raise ValidationError("grid", f"prices must lie in [0, {s.p_star})")
    l_opt, revenue, statuses = [], [], []
    for p in grid:
        s2 = dataclasses.replace(s, price=p)
        sol = solve_tradeoff(s2)
        l_opt.append(sol.l_opt)
        statuses.append(sol.status)
        alpha = privopt.marginal_demand_factor(s2, sol.l_opt)
        revenue.append(p * privopt.demand_quantity(s2, alpha, p))
    sat = saturation_price(s) if privopt.classify_regime(s) is privopt.Regime.NU_LT_1 else None
    return SweepSeries("price", grid, tuple(l_opt), tuple(revenue), tuple(statuses), saturation_price=sat)


def reference_olr_sweep(s, grid):
    if s.pi_s <= 0.0:
        raise UsageError("OLR sweep needs pi_s > 0; the ratio is identically 1 otherwise")
    series = reference_price_sweep(s, grid)
    olr = tuple(
        secure_feasible_loss(dataclasses.replace(s, price=p)) / l if l > 0 else math.nan
        for p, l in zip(series.grid, series.l_opt)
    )
    kink = None
    if privopt.classify_regime(s) is privopt.Regime.NU_LT_1:
        kink = saturation_price(dataclasses.replace(s, pi_s=0.0))
    return dataclasses.replace(series, olr=olr, saturation_price=kink)


def outcome(f, *args):
    """``repr`` of the result, or the exception's type and text."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def paper_scenarios(draw):
    """Scenarios near the bundled table1/table2 cases, each factor scaled
    log-uniformly by up to 2x (10x for the two probabilities)."""
    def scale(k):
        return 10.0 ** draw(st.floats(-math.log10(k), math.log10(k)))

    p_star = scale(2.0)
    return Scenario(
        q_star=250.0 * scale(2.0),
        p_star=p_star,
        price=p_star * draw(st.floats(0.05, 0.8)),
        nu=0.138647 * scale(2.0),
        theta=0.138647 * scale(2.0),
        alpha_n=0.2 * scale(2.0),
        l_n=1e4 * scale(2.0),
        pi_s=1e-4 * scale(10.0),
        pi_c_star=1e-4 * scale(10.0),
    )


class TestSweepMatchesReferenceLoop:
    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_bundled_scenarios(self, name, request):
        s = request.getfixturevalue(name)
        grid = default_price_grid(s)
        assert repr(price_sweep(s, grid)) == repr(reference_price_sweep(s, grid))
        assert repr(olr_sweep(s, grid)) == repr(reference_olr_sweep(s, grid))

    @given(
        s=paper_scenarios() | fuzz_scenarios() | wide_scenarios() | boundary_scenarios(),
        points=st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_scenarios(self, s, points):
        grid = default_price_grid(s, points=points)
        assert outcome(price_sweep, s, grid) == outcome(reference_price_sweep, s, grid)
        assert outcome(olr_sweep, s, grid) == outcome(reference_olr_sweep, s, grid)

    def test_one_solve_and_no_validation_per_point(self, table2, monkeypatch):
        calls = {"solve": 0, "secure_solve": 0, "secure": 0, "post_init": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        def step(s, setup, price):
            calls["secure_solve" if s.pi_s == 0.0 else "solve"] += 1
            return search(s, setup, price)

        # the sweeps solve each price through the per-price step _search
        search = privopt.sensitivity._search
        monkeypatch.setattr(privopt.sensitivity, "_search", step)
        monkeypatch.setattr(
            privopt.sensitivity, "secure_feasible_loss", counted("secure", secure_feasible_loss)
        )
        monkeypatch.setattr(Scenario, "__post_init__", counted("post_init", Scenario.__post_init__))
        grid = default_price_grid(table2, points=21)

        series = price_sweep(table2, grid)
        assert calls == {"solve": 21, "secure_solve": 0, "secure": 0, "post_init": 0}
        assert all(l > 0 for l in series.l_opt)

        calls.update(dict.fromkeys(calls, 0))
        olr_sweep(table2, grid)
        # the secure column is one step per point on a single pi_s = 0 copy,
        # which is validated once per sweep, not per point
        assert calls == {"solve": 21, "secure_solve": 21, "secure": 0, "post_init": 1}

    def test_only_the_secure_column_copies_the_scenario(self, table2, monkeypatch):
        copies = []

        def counted(obj, **changes):
            if isinstance(obj, Scenario):
                copies.append(changes)
            return dataclasses.replace(obj, **changes)

        monkeypatch.setattr(privopt.sensitivity, "replace", counted)
        grid = default_price_grid(table2, points=21)
        price_sweep(table2, grid)
        assert copies == []
        olr_sweep(table2, grid)
        # the secure column's and the kink's one pi_s = 0 copy per sweep
        assert copies == [{"pi_s": 0.0}]

    def test_subcase_b_secure_fallback(self, monkeypatch):
        # nu >= 1 + theta: the closed form does not apply, and each point's
        # secure-side optimum is the solver's step on the pi_s = 0 copy
        s = Scenario(250, 1, 0.5, 1.5, 0.2, 0.2, 1e4, 1e-4, 1e-4)
        grid = default_price_grid(s)
        want = reference_olr_sweep(s, grid)
        calls = 0

        def counted(self):
            nonlocal calls
            calls += 1

        monkeypatch.setattr(Scenario, "__post_init__", counted)
        got = olr_sweep(s, grid)
        assert repr(got) == repr(want)
        assert calls == 1  # the pi_s = 0 copy, made once per sweep
        assert sum(l > 0 for l in got.l_opt) > 100


class TestSaturationPrice:
    def test_case_study_value(self, table1):
        assert saturation_price(table1) == pytest.approx(0.402213, abs=0.0001)

    def test_reference_value(self, table2):
        assert saturation_price(table2) == pytest.approx(0.2145243, abs=1e-6)

    def test_vanishing_cap_saturates_everything(self, table2):
        s = dataclasses.replace(table2, l_n=1e-6)
        assert saturation_price(s) == pytest.approx(table2.p_star, rel=1e-4)

    def test_clamped_to_zero_for_huge_caps(self, table2):
        s = dataclasses.replace(table2, l_n=1e5, pi_c_star=0.5)
        assert saturation_price(s) == 0.0

    def test_regime_mismatch(self, table2):
        with pytest.raises(UsageError):
            saturation_price(dataclasses.replace(table2, nu=1.5, theta=0.2))

    def test_underflowing_benefit_product_clamps_to_zero(self):
        # alpha_n q* p* nu underflows to 0; the true ratio is about 2e51
        s = Scenario(**UNDERFLOWING_SATURATION)
        assert saturation_price(s) == 0.0
        assert price_sweep(s, default_price_grid(s, points=5)).saturation_price == 0.0

    def test_predicts_solver_status(self, table1):
        p_sat = saturation_price(table1)
        for offset in (-0.02, -0.005, 0.005, 0.02):
            sol = solve_tradeoff(dataclasses.replace(table1, price=p_sat + offset))
            expected = SolutionStatus.CLAMPED_AT_LN if offset < 0 else SolutionStatus.INTERIOR
            assert sol.status is expected


class TestDefaultGrid:
    def test_default_span(self, table2):
        grid = default_price_grid(table2)
        assert len(grid) == 201
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.99 * table2.p_star)

    @given(
        p_star=st.floats(1e-3, 1e6),
        ends=st.lists(st.floats(0.0, 0.99), min_size=2, max_size=2, unique=True).map(sorted),
        points=st.integers(2, 3000),
    )
    @example(p_star=1.0, ends=[0.0, 0.99], points=201)
    @example(p_star=1.0, ends=[0.3, 0.6], points=7)
    @example(p_star=1.0, ends=[0.0, 5e-324], points=4)  # the step underflows to 0
    @settings(max_examples=500, deadline=None)
    def test_equals_numpy_linspace_bit_for_bit(self, table2, p_star, ends, points):
        s = dataclasses.replace(table2, p_star=p_star)
        pmin, pmax = (p_star * x for x in ends)
        assume(pmin < pmax)
        grid = default_price_grid(s, pmin=pmin, pmax=pmax, points=points)
        want = np.linspace(pmin, pmax, points)
        assert [x.hex() for x in grid] == [float(x).hex() for x in want]
        assert all(type(x) is float for x in grid)

    def test_validation(self, table2):
        with pytest.raises(ValidationError):
            default_price_grid(table2, points=1)
        with pytest.raises(ValidationError) as exc:
            default_price_grid(table2, points=MAX_SWEEP_POINTS + 1)
        assert exc.value.field == "points"
        with pytest.raises(ValidationError):
            default_price_grid(table2, pmin=0.5, pmax=0.4)
        with pytest.raises(ValidationError):
            default_price_grid(table2, pmax=1.0)

    @pytest.mark.parametrize("points", [2.5, math.nan, math.inf, "201"])
    def test_points_must_be_whole(self, table2, points):
        with pytest.raises(ValidationError) as exc:
            default_price_grid(table2, points=points)
        assert exc.value.field == "points"

    @pytest.mark.parametrize("points", [201.0, np.int64(201)])
    def test_integral_points_pass(self, table2, points):
        assert default_price_grid(table2, points=points) == default_price_grid(table2)
