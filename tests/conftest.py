import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from privopt import Regime, Scenario
from privopt.cli import load_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

#: nu == 1 scenario whose closed-form stationary point and secure optimum
#: overflow the float range
OVERFLOWING_EQ1 = {
    "q_star": 0.18345106982305157, "p_star": 71358.03610533672, "price": 55799.926747397345,
    "nu": 1.0, "theta": 0.03221037166681712, "alpha_n": 0.3761016743133793,
    "l_n": 0.002656775889364076, "pi_s": 2.7800804090098796e-06, "pi_c_star": 1.1596106213758704e-07,
}

#: nu < 1 scenario whose interior optimum, about 1.25e-155, lies far
#: below 1e-15 * l_n
TINY_OPTIMUM = {
    "q_star": 1.8914349830004606, "p_star": 0.001537553605814018, "price": 0.0013650972978315207,
    "nu": 0.9969949829655298, "theta": 0.08982373193749633, "alpha_n": 20.415041999061355,
    "l_n": 211.37902726043495, "pi_s": 5.2280625323723845e-06, "pi_c_star": 1.5490428352287146e-09,
}

#: nu < 1 scenario whose sign-change bracket, taken in l, overflows at
#: both ends
OVERFLOWING_BRACKET = {
    "q_star": 2201058.291213537, "p_star": 29.39653141696172, "price": 11.034473662568898,
    "nu": 0.9950797703463562, "theta": 0.0298835291210637, "alpha_n": 14.115660097012189,
    "l_n": 0.003373750913214507, "pi_s": 9.184858018898177e-11, "pi_c_star": 0.1920224942206975,
}

#: nu < 1 scenario whose consumption surplus overflows to inf at every
#: loss, so the net surplus is inf everywhere on [0, l_n]
OVERFLOWING_SURPLUS = {
    "q_star": 1e200, "p_star": 1e200, "price": 5e199,
    "nu": 0.5, "theta": 0.3, "alpha_n": 0.5,
    "l_n": 1e4, "pi_s": 1e-4, "pi_c_star": 1e-3,
}

#: nu == 1 scenario with a breach-proof provider whose optimum is the
#: subnormal 1.38e-321: relative sensitivities against it overflow
SUBNORMAL_OPTIMUM = {
    "q_star": 1.0, "p_star": 1.0, "price": 0.375,
    "nu": 1.0, "theta": 0.01, "alpha_n": 0.001,
    "l_n": 10**0.5, "pi_s": 0.0, "pi_c_star": 0.1,
}

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def table1_file():
    return load_scenario(str(SCENARIO_DIR / "table1.json"))


@pytest.fixture(scope="session")
def table2_file():
    return load_scenario(str(SCENARIO_DIR / "table2.json"))


@pytest.fixture(scope="session")
def table1(table1_file):
    """Case-study parameters; price 0.2, cap 10000, near-secure provider."""
    return table1_file.scenario


@pytest.fixture(scope="session")
def table2(table2_file):
    """Sensitivity reference parameters; price 0.5, equal breach probabilities."""
    return table2_file.scenario


def make_random_scenario(rng: np.random.Generator, regime: str | None = None) -> Scenario:
    """Valid random scenario, optionally pinned to one gradient regime."""
    theta = float(rng.uniform(0.05, 0.95))
    if regime == "lt1":
        nu = float(rng.uniform(0.05, 0.95))
    elif regime == "a":
        nu = 1.0 + theta * float(rng.uniform(0.05, 0.95))
    elif regime == "b":
        nu = 1.0 + theta + float(rng.uniform(0.02, 1.5 - theta))
    elif regime == "eq1":
        nu = 1.0
    elif regime == "eq1pt":
        nu = 1.0 + theta
    else:
        nu = float(rng.uniform(0.05, 2.5))
    p_star = float(rng.uniform(0.1, 10.0))
    return Scenario(
        q_star=float(rng.uniform(10.0, 1000.0)),
        p_star=p_star,
        price=p_star * float(rng.uniform(0.0, 0.95)),
        nu=nu,
        theta=theta,
        alpha_n=float(rng.uniform(0.01, 1.0)),
        l_n=float(rng.uniform(100.0, 1e5)),
        pi_s=float(10.0 ** rng.uniform(-6, -2)),
        pi_c_star=float(10.0 ** rng.uniform(-6, -2)),
    )


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def fuzz_scenarios(draw):
    """Scenarios over the solve-mix fuzz ranges, in all five regimes."""
    regime = draw(st.sampled_from(list(Regime)))
    theta = draw(st.floats(0.01, 0.99))
    if regime is Regime.NU_LT_1:
        nu = draw(_log_uniform(1e-3, 0.999))
    elif regime is Regime.SUBCASE_A:
        nu = 1.0 + theta * draw(st.floats(0.01, 0.99))
    elif regime is Regime.SUBCASE_B:
        nu = 1.0 + theta + draw(_log_uniform(1e-3, 9.0 - theta))
    elif regime is Regime.NU_EQ_1:
        nu = 1.0
    else:
        nu = 1.0 + theta
    p_star = draw(_log_uniform(1e-3, 1e6))
    return Scenario(
        q_star=draw(_log_uniform(1e-3, 1e9)),
        p_star=p_star,
        price=p_star * draw(st.floats(0.0, 0.999)),
        nu=nu,
        theta=theta,
        alpha_n=draw(_log_uniform(1e-3, 1e3)),
        l_n=draw(_log_uniform(1e-3, 1e12)),
        pi_s=draw(st.just(0.0) | _log_uniform(1e-12, 0.5)),
        pi_c_star=draw(_log_uniform(1e-12, 0.5)),
    )
