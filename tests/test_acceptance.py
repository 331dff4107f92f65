"""Acceptance gate: one test per acceptance criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Criterion 10 is split into its three factor groups.

The theta quasi-elasticity (10b) has no fixed sign.  At fixed l, the
theta-derivative of the marginal breach cost pi_c* (1-pi_s) (1+theta) x^theta
(x = l/l_n) is pi_c* (1-pi_s) x^theta [1 + (1+theta) ln x], so the optimum
rises with theta when l*/l_n < exp(-1/(1+theta)) and falls above it; pi_s
only shifts the decision equation, so the threshold is the same for the
vulnerable and the secure provider.  At the bundled reference scenario
(vulnerable provider) l*/l_n = 0.3797 < 0.4155, and the 50-digit mpmath
oracle gives l* = 3790.90135 at theta = 0.1 and 3810.58739 at theta = 0.2,
i.e. quasi-elasticities of +0.04100 and +0.05868.  With pi_s = 0 (secure
provider) l*/l_n = 0.761 lies above the threshold and the response is
negative (-0.6535 / -0.5395, closed form -0.6052).  10b checks the sign
rule at both bases.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

import _oracle
from _gradcheck import relative_gradient_error
from conftest import SCENARIO_DIR, make_random_scenario
from privopt import (
    SolutionStatus,
    default_price_grid,
    feasibility_report,
    net_surplus,
    normalized_gradient,
    olr_sweep,
    optimal_loss_ratio,
    oracle_grid_argmax,
    pareto_privacy_parameter,
    price_sweep,
    revenue_sweep,
    saturation_price,
    secure_optimal_loss,
    secure_quasi_elasticities,
    solve_tradeoff,
    tornado,
)
from privopt.cli import load_scenario
from test_secure import fd_elasticity, fd_quasi_elasticity
from privopt import secure_elasticities


def check(num: str, label: str, ok: bool) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {label}")
    return ok


def test_criterion_01_golden_optimum(table2):
    sf = load_scenario(str(SCENARIO_DIR / "table2.json"))
    sol = solve_tradeoff(sf.scenario)
    residual = abs(normalized_gradient(sf.scenario, sol.l_opt))
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        solve_tradeoff(sf.scenario)
        samples.append(time.perf_counter() - t0)
    elapsed = min(samples)
    ok = (
        check("01", f"l* = {sol.l_opt:.3f} within 3797 +- 1", abs(sol.l_opt - 3797.0) <= 1.0)
        & check("01", f"normalized residual {residual:.2e} < 1e-6", residual < 1e-6)
        & check("01", f"runtime {elapsed * 1e3:.2f} ms < 10 ms", elapsed < 0.010)
    )
    assert ok


def test_criterion_02_pareto_parameter():
    nu = pareto_privacy_parameter(0.8, 0.2)
    assert check("02", f"pareto nu = {nu:.7f} within 0.138647 +- 1e-6", abs(nu - 0.138647) <= 1e-6)


def test_criterion_03_saturation_threshold(table1):
    p_sat = saturation_price(table1)
    series = price_sweep(table1, default_price_grid(table1))
    step = series.grid[1] - series.grid[0]
    flat = [
        l == table1.l_n
        for p, l in zip(series.grid, series.l_opt)
        if p < p_sat - step
    ]
    falling = [l for p, l in zip(series.grid, series.l_opt) if p > p_sat + step]
    strictly_down = all(b < a for a, b in zip(falling, falling[1:]))
    ok = (
        check("03", f"saturation price {p_sat:.4f} within 0.402 +- 0.005", abs(p_sat - 0.402) <= 0.005)
        & check("03", f"flat at the cap below it ({sum(flat)} points)", bool(flat) and all(flat))
        & check("03", "strictly decreasing above it", bool(falling) and strictly_down)
    )
    assert ok


def test_criterion_04_revenue_optimum(table1):
    series, best_price = revenue_sweep(table1, default_price_grid(table1))
    ok = (
        check("04", f"revenue argmax price {best_price:.4f} in [0.42, 0.52]", 0.42 <= best_price <= 0.52)
        & check(
            "04",
            f"argmax {best_price:.4f} > saturation price {series.saturation_price:.4f}",
            best_price > series.saturation_price,
        )
    )
    assert ok


def test_criterion_05_optimal_loss_ratio(table2):
    olr_at_half = optimal_loss_ratio(table2)
    series = olr_sweep(table2, default_price_grid(table2))
    kink = series.saturation_price
    ok = (
        check("05", f"OLR at p=0.5 is {olr_at_half:.4f} within 2.00 +- 0.05", abs(olr_at_half - 2.00) <= 0.05)
        & check("05", f"kink price {kink:.4f} within 0.427 +- 0.01", abs(kink - 0.427) <= 0.01)
        & check("05", "OLR >= 1 on the whole grid", all(v >= 1.0 - 1e-12 for v in series.olr))
    )
    assert ok


def test_criterion_06_quasi_elasticity_sign_thresholds(table2):
    # qeps_nu changes sign where l*/l_n = exp(-1/nu) and qeps_theta where
    # l*/l_n = exp(-1/(1+theta)); the secure optimum scales with the price
    # as (1 - p/p*)**(2/d), d = theta - nu + 1, which inverts in closed form
    free = secure_optimal_loss(dataclasses.replace(table2, price=0.0))[0]
    d = table2.theta - table2.nu + 1.0

    def price_at(ratio):
        return table2.p_star * (1.0 - (ratio * table2.l_n / free) ** (d / 2.0))

    def qeps(p):
        return secure_quasi_elasticities(dataclasses.replace(table2, price=p))

    p_nu = price_at(math.exp(-1.0 / table2.nu))
    p_theta = price_at(math.exp(-1.0 / (1.0 + table2.theta)))
    assert abs(qeps(p_nu).qeps_nu) < 1e-9 and abs(qeps(p_theta).qeps_theta) < 1e-9
    ok = (
        check("06", f"nu-response sign change at p = {p_nu:.4f} within 0.984 +- 0.002", abs(p_nu - 0.984) <= 0.002)
        & check(
            "06",
            f"theta-response sign change at p = {p_theta:.4f} within 0.6305 +- 0.002",
            abs(p_theta - 0.6305) <= 0.002,
        )
    )
    assert ok


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    plan = [("lt1", 80), ("a", 40), ("b", 40), ("eq1", 20), ("eq1pt", 20)]
    n = 1_000_000
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for regime, reps in plan:
        for _ in range(reps):
            s = make_random_scenario(rng, regime=regime)
            sol = solve_tradeoff(s)
            grid_best = oracle_grid_argmax(s, n)
            tol = 2.0 * s.l_n / 1e6
            diff = abs(sol.l_opt - grid_best)
            worst = max(worst, diff / s.l_n)
            assert diff <= tol, (s, sol.l_opt, grid_best)
            assert sol.surplus >= net_surplus(s, grid_best) - 1e-9 * max(1.0, abs(sol.surplus))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = (
        check("07", f"{count} scenarios within 2e-6 * l_n of the 1e6-grid argmax (worst {worst:.2e})", True)
        & check("07", f"total runtime {elapsed:.1f} s < 120 s", elapsed < 120.0)
    )
    assert ok


def test_criterion_08_gradient_check():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        s = make_random_scenario(rng)
        for l in rng.uniform(1e-3 * s.l_n, 0.999 * s.l_n, size=100):
            worst = max(worst, relative_gradient_error(s, float(l)))
    assert check(
        "08",
        f"analytic vs central-difference gradient, worst relative error {worst:.2e} < 1e-6 "
        "(relative to the gradient term scale)",
        worst < 1e-6,
    )


def test_criterion_09_secure_path_consistency():
    rng = np.random.default_rng(7701)
    worst = 0.0
    for regime in ["lt1"] * 30 + ["a"] * 15 + ["eq1"] * 15:
        s = dataclasses.replace(make_random_scenario(rng, regime=regime), pi_s=0.0)
        sol = solve_tradeoff(s)
        _, clamped = secure_optimal_loss(s)
        worst = max(worst, abs(sol.l_opt - clamped) / max(clamped, 1e-300))
    ok = check("09", f"solver(pi_s=0) vs closed form, worst relative error {worst:.2e} < 1e-9", worst < 1e-9)

    worst_fd = 0.0
    for _ in range(25):
        s = make_random_scenario(rng, regime="lt1")
        el = secure_elasticities(s)
        qe = secure_quasi_elasticities(s)
        pairs = [
            (el.eps_q_star, fd_elasticity(s, "q_star")),
            (el.eps_p_star, fd_elasticity(s, "p_star")),
            (el.eps_l_n, fd_elasticity(s, "l_n")),
            (el.eps_price, fd_elasticity(s, "price")),
            (qe.qeps_nu, fd_quasi_elasticity(s, "nu")),
            (qe.qeps_theta, fd_quasi_elasticity(s, "theta")),
            (qe.qeps_pi_c_star, fd_quasi_elasticity(s, "pi_c_star")),
        ]
        for closed, fd in pairs:
            scale = max(abs(closed), abs(fd), 1e-6)
            worst_fd = max(worst_fd, abs(closed - fd) / scale)
    ok &= check(
        "09", f"closed-form (quasi-)elasticities vs finite differences, worst {worst_fd:.2e} < 1e-4",
        worst_fd < 1e-4,
    )
    assert ok


def test_criterion_10a_tornado_dimensional(table2):
    pairs = tornado(table2, (("q_star", -0.10, 0.10), ("p_star", -0.10, 0.10),
                             ("price", -0.10, 0.10), ("l_n", -0.10, 0.10)))
    order = [minus.factor for minus, _ in pairs]
    by_factor = {minus.factor: (minus.value, plus.value) for minus, plus in pairs}
    q_vals = by_factor["q_star"]
    p_vals = by_factor["p_star"]
    ok = (
        check("10", f"dimensional ordering {order}", order == ["p_star", "price", "q_star", "l_n"])
        & check("10", f"eps_q* {q_vals} in [0.7, 1.3]", all(0.7 <= v <= 1.3 for v in q_vals))
        & check("10", f"eps_p* {p_vals} in [2.4, 3.6]", all(2.4 <= v <= 3.6 for v in p_vals))
        & check("10", "signs: eps_p*, eps_q* > 0", all(v > 0 for v in q_vals + p_vals))
        & check(
            "10",
            "signs: eps_p, eps_l_n <= 0",
            all(v <= 0 for v in by_factor["price"] + by_factor["l_n"]),
        )
    )
    assert ok


def test_criterion_10b_tornado_exponents(table2):
    plan = (("nu", 0.1, 0.2), ("theta", 0.1, 0.2))
    pairs = tornado(table2, plan)
    order = [minus.factor for minus, _ in pairs]
    by_factor = {minus.factor: (minus.value, plus.value) for minus, plus in pairs}
    nu_vals = by_factor["nu"]
    theta_vals = by_factor["theta"]
    ok = check("10", f"nu ranked above theta {order}", order == ["nu", "theta"])
    ok &= check("10", f"qeps_nu {tuple(round(v, 4) for v in nu_vals)} > 0", all(v > 0 for v in nu_vals))

    # Vulnerable base: the theta response takes the sign the threshold rule
    # predicts from l*/l_n, and table2 sits on the positive side of it.
    base = solve_tradeoff(table2)
    ratio = base.l_opt / table2.l_n
    threshold = math.exp(-1.0 / (1.0 + table2.theta))  # pi_s does not move it
    predicted = 1.0 if ratio < threshold else -1.0
    ok &= check(
        "10",
        f"table2 l*/l_n = {ratio:.4f} < exp(-1/(1+theta)) = {threshold:.4f}",
        ratio < threshold,
    )
    ok &= check(
        "10",
        f"qeps_theta {tuple(round(v, 4) for v in theta_vals)} has the predicted sign {predicted:+.0f}",
        all(v * predicted > 0 for v in theta_vals),
    )
    # The same quasi-elasticities from the mpmath oracle's roots.
    root = _oracle.interior_root(table2, base.l_opt)
    oracle_vals = []
    for new in (0.1, 0.2):
        s2 = dataclasses.replace(table2, theta=new)
        root2 = _oracle.interior_root(s2, solve_tradeoff(s2).l_opt)
        oracle_vals.append(float((root2 - root) / root / (new - table2.theta)))
    ok &= check(
        "10",
        f"oracle qeps_theta {tuple(round(v, 5) for v in oracle_vals)} has the predicted sign "
        "and matches the tornado",
        all(v * predicted > 0 for v in oracle_vals)
        and list(theta_vals) == pytest.approx(oracle_vals, rel=1e-8),
    )

    # Secure base (pi_s = 0): l*/l_n lies above the threshold, so the theta
    # response is negative, bracketing the closed-form quasi-elasticity.
    secure = dataclasses.replace(table2, pi_s=0.0)
    secure_ratio = solve_tradeoff(secure).l_opt / secure.l_n
    theta_pair = next(pair for pair in tornado(secure, plan) if pair[0].factor == "theta")
    secure_vals = tuple(entry.value for entry in theta_pair)
    closed = secure_quasi_elasticities(secure).qeps_theta
    ok &= check(
        "10",
        f"secure l*/l_n = {secure_ratio:.4f} > exp(-1/(1+theta)) = {threshold:.4f}",
        secure_ratio > threshold,
    )
    ok &= check(
        "10",
        f"secure qeps_theta {tuple(round(v, 4) for v in secure_vals)} < 0, same status",
        all(v < 0 for v in secure_vals) and not any(entry.mixed_status for entry in theta_pair),
    )
    ok &= check(
        "10",
        f"secure qeps_theta brackets the closed form {closed:.4f}",
        min(secure_vals) <= closed <= max(secure_vals),
    )
    assert ok


def test_criterion_10c_tornado_probabilities(table2):
    pairs = tornado(table2, (("pi_s", 5e-5, 2e-4), ("pi_c_star", 5e-5, 2e-4)))
    order = [minus.factor for minus, _ in pairs]
    values = [v for minus, plus in pairs for v in (minus.value, plus.value)]
    ok = (
        check("10", f"pi_c* ranked at or above pi_s {order}", order[0] == "pi_c_star")
        & check("10", "both breach-probability responses negative", all(v < 0 for v in values))
    )
    assert ok


def test_criterion_11_nu_eq_1_band(table2):
    base = dataclasses.replace(table2, nu=1.0)
    rep = feasibility_report(base)
    lower = rep.conditions[0].bound
    upper = rep.conditions[1].bound

    results = {}
    for label, l_n in (
        ("inside_low", lower * 1.02),
        ("inside_high", upper * 0.98),
        ("outside_low", lower * 0.98),
        ("outside_high", upper * 1.02),
    ):
        s = dataclasses.replace(base, l_n=l_n)
        sol = solve_tradeoff(s)
        results[label] = (s, sol)

    ok = True
    for label in ("inside_low", "inside_high"):
        s, sol = results[label]
        a = 0.5 * s.q_star * s.p_star * s.nu * s.alpha_n * s.l_n ** (-s.nu) * 0.25
        b = (1 - s.pi_s) * s.pi_c_star * (1 + s.theta) * s.l_n ** (-s.theta)
        closed = ((a - s.pi_s) / b) ** (1.0 / s.theta)
        ok &= check(
            "11",
            f"{label}: INTERIOR and matches closed form ({sol.l_opt:.6g} vs {closed:.6g})",
            sol.status is SolutionStatus.INTERIOR
            and sol.l_opt == pytest.approx(closed, rel=1e-9)
            and feasibility_report(s).guaranteed_unique,
        )
    ok &= check(
        "11",
        "outside_low: boundary outcome CLAMPED_AT_LN",
        results["outside_low"][1].status is SolutionStatus.CLAMPED_AT_LN,
    )
    ok &= check(
        "11",
        "outside_high: boundary outcome AT_ZERO",
        results["outside_high"][1].status is SolutionStatus.AT_ZERO,
    )
    for label in ("outside_low", "outside_high"):
        ok &= check(
            "11",
            f"{label}: uniqueness not guaranteed by the band",
            not feasibility_report(results[label][0]).guaranteed_unique,
        )
    assert ok
