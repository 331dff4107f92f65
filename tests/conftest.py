import json
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
CORPUS_DIR = REPO_ROOT / "tests" / "corpus"


def corpus_params(name: str) -> dict:
    """The scenario held in ``tests/corpus/<name>.json``, as a dict."""
    return json.loads((CORPUS_DIR / f"{name}.json").read_text())


#: nu == 1 scenario whose closed-form stationary point and secure optimum
#: overflow the float range
OVERFLOWING_EQ1 = corpus_params("overflowing_eq1")

#: nu < 1 scenario whose interior optimum, about 1.25e-155, lies far
#: below 1e-15 * l_n
TINY_OPTIMUM = corpus_params("tiny_optimum")

#: nu < 1 scenario whose sign-change bracket, taken in l, overflows at
#: both ends
OVERFLOWING_BRACKET = corpus_params("overflowing_bracket")

#: nu < 1 scenario whose consumption surplus overflows to inf at every
#: loss, so the net surplus is inf everywhere on [0, l_n]
OVERFLOWING_SURPLUS = corpus_params("overflowing_surplus")

#: nu == 1 scenario with a subnormal l_n: on a 200_001-point grid the step
#: l_n / (n - 1) underflows to 0, and numpy.linspace divides before it
#: scales.  The surplus first reaches its maximum, 1 + 2**-52, just past
#: l_n / 2, while the solver's optimum is l_n: a tie in floats.
SUBNORMAL_CAP = corpus_params("subnormal_cap")

#: nu == 1 scenario whose surplus is flat within the grid oracle's slack:
#: the gain and the expected loss stay below 1e-15 against a surplus scale
#: of 1, so no bound can drop a grid point and every pass keeps every piece
FLAT_SURPLUS = corpus_params("flat_surplus")

#: nu == 1 scenario with a breach-proof provider whose optimum is the
#: subnormal 1.38e-321: relative sensitivities against it overflow
SUBNORMAL_OPTIMUM = corpus_params("subnormal_optimum")

#: nu == 1 scenario whose surplus scale C (about 3.7e233) is finite but
#: whose benefit term C alpha_n overflows the float range
OVERFLOWING_BENEFIT = corpus_params("overflowing_benefit")

#: nu < 1 scenario whose product alpha_n q* p* nu underflows to 0 in
#: floats; the saturation price's ratio is about 2e51, which clamps it to 0
UNDERFLOWING_SATURATION = corpus_params("underflowing_saturation")

#: nu < 1 scenario whose product alpha_n q* is subnormal, about 1e-323,
#: on the way to a normal alpha_n q* p* nu in the saturation price, which
#: the linear formula puts 5.8e-3 below its 50-digit 5.101e99
SUBNORMAL_SATURATION = corpus_params("subnormal_saturation")

#: nu < 1 scenario whose vulnerable optimum, about 1.5e-288, lies so far
#: below the secure one, about 1.26e76, that their ratio overflows
OVERFLOWING_OLR = corpus_params("overflowing_olr")

#: 1 < nu < 1 + theta scenario whose uniqueness bound, about 5.2e302, is
#: finite, but whose linear formula overflows on the way
OVERFLOWING_BOUND = corpus_params("overflowing_bound")

#: 1 < nu < 1 + theta scenario whose uniqueness bound, about 8.0e-301,
#: is positive, but whose linear formula underflows to 0 on the way; with
#: nu = 1 and l_n = 1e-299 its band edges, about 6.7e-301 and 5e-298, do too
UNDERFLOWING_BOUND = corpus_params("underflowing_bound")

#: nu > 1 + theta scenario whose uniqueness bound, about 3.15e-302, is
#: normal, but whose linear formula passes a subnormal product, alpha_n (q*
#: p* nu / 2) at about 2.1e-321, on the way; with nu = 1 its band edges,
#: about 1.45e-302 and 1.89e-23, do too
SUBNORMAL_PRODUCT = corpus_params("subnormal_product")

#: SUBNORMAL_PRODUCT with q* p* at 1e-320, subnormal, and alpha_n = 1e100,
#: which brings 0.5 q* p* nu alpha_n and the bound, about 1.6e-201, back
#: into the normal range
SUBNORMAL_PARTIAL_PRODUCT = corpus_params("subnormal_partial_product")

#: nu == 1 scenario at a zero margin whose q* p* overflows: the lower band
#: edge's linear formula multiplies inf by m**2 = 0
ZERO_MARGIN_OVERFLOW = corpus_params("zero_margin_overflow")

#: nu == 1 scenario with a subnormal pi_c*: the lower band edge lies
#: beyond the float range, and so does the secure quasi-elasticity in pi_c*
TINY_RISK = corpus_params("tiny_risk")

#: nu == 1 scenario with pi_c* (1 + theta) about 1.47 > 1: a vulnerable
#: provider scales the customer-side risk by 1 - pi_s, so the vulnerable
#: optimum, l_n, lies above the secure one, about 9.18, and the OLR is 0.55
OLR_BELOW_ONE = corpus_params("olr_below_one")

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
