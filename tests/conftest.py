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

#: nu == 1 scenario with a subnormal l_n: on a 200_001-point grid the step
#: l_n / (n - 1) underflows to 0, and numpy.linspace divides before it
#: scales.  The surplus first reaches its maximum, 1 + 2**-52, just past
#: l_n / 2, while the solver's optimum is l_n: a tie in floats.
SUBNORMAL_CAP = {
    "q_star": 2.0, "p_star": 1.0, "price": 0.0, "nu": 1.0, "theta": 0.5,
    "alpha_n": 2.0**-52, "l_n": 1e-319, "pi_s": 0.0, "pi_c_star": 0.5,
}

#: nu == 1 scenario whose surplus is flat within the grid oracle's slack:
#: the gain and the expected loss stay below 1e-15 against a surplus scale
#: of 1, so no bound can drop a grid point and every pass keeps every piece
FLAT_SURPLUS = {
    "q_star": 2.0, "p_star": 1.0, "price": 0.0, "nu": 1.0, "theta": 0.5,
    "alpha_n": 1e-15, "l_n": 1e-15, "pi_s": 0.0, "pi_c_star": 0.5,
}

#: nu == 1 scenario with a breach-proof provider whose optimum is the
#: subnormal 1.38e-321: relative sensitivities against it overflow
SUBNORMAL_OPTIMUM = {
    "q_star": 1.0, "p_star": 1.0, "price": 0.375,
    "nu": 1.0, "theta": 0.01, "alpha_n": 0.001,
    "l_n": 10**0.5, "pi_s": 0.0, "pi_c_star": 0.1,
}

#: nu == 1 scenario whose surplus scale C (about 3.7e233) is finite but
#: whose benefit term C alpha_n overflows the float range
OVERFLOWING_BENEFIT = {
    "q_star": 3.520288460493152e+132, "p_star": 2.1021333158656007e+101, "price": 0.0,
    "nu": 1.0, "theta": 0.30831640229020063, "alpha_n": 1.4615537556507276e+95,
    "l_n": 6.726902073525777e-84, "pi_s": 4.955447594909692e-149, "pi_c_star": 1.8083401027650518e-258,
}

#: nu < 1 scenario whose product alpha_n q* p* nu underflows to 0 in
#: floats; the saturation price's ratio is about 2e51, which clamps it to 0
UNDERFLOWING_SATURATION = {
    "q_star": 2.744169072361026e-146, "p_star": 4.476281409031374e-90, "price": 2.743382468368329e-90,
    "nu": 0.021027153853027503, "theta": 0.5318858993951017, "alpha_n": 5.1831301897536705e-90,
    "l_n": 5.234262783296872e-77, "pi_s": 7.924797068931474e-240, "pi_c_star": 1.4674189065060792e-200,
}

#: nu < 1 scenario whose product alpha_n q* is subnormal, about 1e-323,
#: on the way to a normal alpha_n q* p* nu in the saturation price, which
#: the linear formula puts 5.8e-3 below its 50-digit 5.101e99
SUBNORMAL_SATURATION = {
    "q_star": 1e-120, "p_star": 1e100, "price": 0.0,
    "nu": 0.5, "theta": 0.5, "alpha_n": 1e-203,
    "l_n": 4e5, "pi_s": 0.0, "pi_c_star": 1e-230,
}

#: nu < 1 scenario whose vulnerable optimum, about 1.5e-288, lies so far
#: below the secure one, about 1.26e76, that their ratio overflows
OVERFLOWING_OLR = {
    "q_star": 6.717827127761007e-45, "p_star": 9.226257398274762e-149, "price": 9.226257388822654e-149,
    "nu": 0.6260089656287953, "theta": 0.7410190866446298, "alpha_n": 1.5442023069123053e+49,
    "l_n": 1.259420070468783e+76, "pi_s": 3.1538709600953613e-102, "pi_c_star": 2.503037548200338e-251,
}

#: 1 < nu < 1 + theta scenario whose uniqueness bound, about 5.2e302, is
#: finite, but whose linear formula overflows on the way
OVERFLOWING_BOUND = {
    "q_star": 1e160, "p_star": 1e160, "price": 9.9999999990000005e+159,
    "nu": 1.3, "theta": 0.5, "alpha_n": 0.2,
    "l_n": 1e4, "pi_s": 1e-4, "pi_c_star": 1e-4,
}

#: 1 < nu < 1 + theta scenario whose uniqueness bound, about 8.0e-301,
#: is positive, but whose linear formula underflows to 0 on the way; with
#: nu = 1 and l_n = 1e-299 its band edges, about 6.7e-301 and 5e-298, do too
UNDERFLOWING_BOUND = {
    "q_star": 1e-200, "p_star": 1e-200, "price": 0.0,
    "nu": 1.2, "theta": 0.5, "alpha_n": 1e100,
    "l_n": 1e-305, "pi_s": 1e-3, "pi_c_star": 0.5,
}

#: nu > 1 + theta scenario whose uniqueness bound, about 3.15e-302, is
#: normal, but whose linear formula passes a subnormal product, alpha_n (q*
#: p* nu / 2) at about 2.1e-321, on the way; with nu = 1 its band edges,
#: about 1.45e-302 and 1.89e-23, do too
SUBNORMAL_PRODUCT = {
    "q_star": 1.3219990547604668e-150, "p_star": 1.3219990547604668e-150, "price": 1.1372048752160218e-150,
    "nu": 2.180604381614009, "theta": 0.18060438161400907, "alpha_n": 1.1078742559286177e-21,
    "l_n": 1.3219990547604668e-150, "pi_s": 1e-300, "pi_c_star": 1.1078742559286177e-21,
}

#: SUBNORMAL_PRODUCT with q* p* at 1e-320, subnormal, and alpha_n = 1e100,
#: which brings 0.5 q* p* nu alpha_n and the bound, about 1.6e-201, back
#: into the normal range
SUBNORMAL_PARTIAL_PRODUCT = dict(
    SUBNORMAL_PRODUCT, q_star=1e-160, p_star=1e-160, price=0.86e-160, alpha_n=1e100,
)

#: nu == 1 scenario at a zero margin whose q* p* overflows: the lower band
#: edge's linear formula multiplies inf by m**2 = 0
ZERO_MARGIN_OVERFLOW = {
    "q_star": 1e200, "p_star": 1e200, "price": 1e200, "nu": 1.0, "theta": 0.5,
    "alpha_n": 0.2, "l_n": 1e4, "pi_s": 0.0, "pi_c_star": 1e-4,
}

#: nu == 1 scenario with a subnormal pi_c*: the lower band edge lies
#: beyond the float range, and so does the secure quasi-elasticity in pi_c*
TINY_RISK = {
    "q_star": 250.0, "p_star": 1.0, "price": 0.5, "nu": 1.0, "theta": 0.5,
    "alpha_n": 0.2, "l_n": 1e4, "pi_s": 0.0, "pi_c_star": 1e-310,
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


def _exponents(draw) -> tuple:
    """``(nu, theta)`` drawn in one of the five regimes."""
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
    return nu, theta


@st.composite
def fuzz_scenarios(draw):
    """Scenarios over the solve-mix fuzz ranges, in all five regimes."""
    return _fuzz_scenario(draw, *_exponents(draw))


@st.composite
def boundary_scenarios(draw):
    """Scenarios over the solve-mix fuzz ranges with ``nu`` within ``eps``
    of a regime boundary, ``1`` or ``1 + theta``, on either side; ``eps``
    is log-uniform in [2e-12, 1e-3], so it always exceeds ``REGIME_TOL``."""
    theta = draw(st.floats(0.01, 0.99))
    edge = draw(st.sampled_from([1.0, 1.0 + theta]))
    eps = draw(_log_uniform(2e-12, 1e-3))
    return _fuzz_scenario(draw, edge + draw(st.sampled_from([-eps, eps])), theta)


def _fuzz_scenario(draw, nu: float, theta: float) -> Scenario:
    """A scenario with these exponents and the other fields drawn over
    the solve-mix fuzz ranges."""
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


@st.composite
def wide_scenarios(draw):
    """Scenarios in all five regimes whose scales span most of the float
    range: ``q*``, ``p*`` and ``l_n`` in [1e-150, 1e150], ``alpha_n`` in
    [1e-100, 1e100], ``pi_s`` and ``pi_c*`` down to 1e-300."""
    nu, theta = _exponents(draw)
    p_star = draw(_log_uniform(1e-150, 1e150))
    return Scenario(
        q_star=draw(_log_uniform(1e-150, 1e150)),
        p_star=p_star,
        price=p_star * draw(st.floats(0.0, 0.999)),
        nu=nu,
        theta=theta,
        alpha_n=draw(_log_uniform(1e-100, 1e100)),
        l_n=draw(_log_uniform(1e-150, 1e150)),
        pi_s=draw(st.just(0.0) | _log_uniform(1e-300, 0.5)),
        pi_c_star=draw(_log_uniform(1e-300, 0.5)),
    )
