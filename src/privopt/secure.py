"""Perfectly secure provider: closed-form optimum and its sensitivities.

When breaches can only happen on the customer's side (``pi_s = 0``) the
decision equation collapses to a single power balance and the optimal
potential loss has the closed form::

    l* = [ (q* p* nu / 2) * alpha_n / (pi_c* (theta+1))
           * l_n**(theta-nu) * (1 - p/p*)**2 ] ** (1 / (theta - nu + 1))

valid whenever ``theta - nu + 1 > 0``, i.e. ``nu < 1 + theta``.  All the
elasticities below are exact logarithmic derivatives of that expression;
each depends on the two exponents only through their difference
``theta - nu``.  The Optimal Loss Ratio (OLR) measures how much extra
exposure a customer accepts when the provider becomes breach-proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ClosedFormInapplicableError, DomainError
from .model import _decision_equation, _exp
from .solver import REGIME_TOL, _exponent_gap, solve_tradeoff

__all__ = [
    "SecureElasticities",
    "SecureQuasiElasticities",
    "secure_optimal_loss",
    "secure_feasible_loss",
    "optimal_loss_ratio",
    "secure_elasticities",
    "secure_quasi_elasticities",
]


@dataclass(frozen=True)
class SecureElasticities:
    """Elasticities of the secure optimum for the dimensional factors."""

    eps_q_star: float
    eps_p_star: float
    eps_l_n: float
    eps_price: float


@dataclass(frozen=True)
class SecureQuasiElasticities:
    """Quasi-elasticities of the secure optimum for the dimensionless factors.

    ``qeps_nu`` changes sign where ``l*/l_n`` crosses ``exp(-1/nu)``;
    ``qeps_theta`` where it crosses ``exp(-1/(1+theta))``;
    ``qeps_pi_c_star`` is negative everywhere.
    """

    qeps_nu: float
    qeps_theta: float
    qeps_pi_c_star: float


def _exponent_denominator(s) -> float:
    """``solver._exponent_gap``; ClosedFormInapplicableError unless it exceeds REGIME_TOL."""
    d = _exponent_gap(s)
    if d <= REGIME_TOL:
        raise ClosedFormInapplicableError(
            f"closed form needs nu < 1 + theta (nu={s.nu}, theta={s.theta}); "
            "fall back to the general solver with pi_s = 0"
        )
    return d


def secure_optimal_loss(s) -> tuple:
    """Closed-form optimum under a breach-proof provider.

    ``pi_s`` in the scenario is ignored (treated as 0).  Returns the raw
    closed-form value (``inf`` when it overflows) and its clamp to
    ``[0, l_n]``, both 0 at a zero margin.  Raises
    ClosedFormInapplicableError when ``nu >= 1 + theta``.
    """
    d = _exponent_denominator(s)
    raw = _exp(_decision_equation(s)[4] / d)
    return raw, min(raw, s.l_n)


def secure_feasible_loss(s) -> float:
    """Clamped secure optimum; uses the general solver where the closed
    form does not apply (``nu >= 1 + theta``)."""
    try:
        return secure_optimal_loss(s)[1]
    except ClosedFormInapplicableError:
        return solve_tradeoff(replace(s, pi_s=0.0)).l_opt


def optimal_loss_ratio(s) -> float:
    """Ratio of the feasible optimum with ``pi_s = 0`` to the one with the
    scenario's own ``pi_s``.

    At least 1: removing provider-side risk never reduces the optimal
    exposure.  Exactly 1 when ``pi_s`` is already 0 or when both optima
    sit at the cap.  DomainError where it is undefined: a vulnerable
    optimum of 0, or a ratio beyond the float range.
    """
    if s.pi_s == 0.0:
        return 1.0
    vulnerable = solve_tradeoff(s).l_opt
    if vulnerable <= 0.0:
        raise DomainError("optimal loss ratio undefined: vulnerable-provider optimum is 0")
    ratio = secure_feasible_loss(s) / vulnerable
    if ratio == math.inf:
        raise DomainError(f"optimal loss ratio undefined: overflows over a vulnerable-provider optimum of {vulnerable!r}")
    return ratio


def secure_elasticities(s) -> SecureElasticities:
    """Closed-form elasticities of the (unclamped) secure optimum.

    With ``k = 1/(theta - nu + 1)`` and ``r = p/p*``::

        eps_q*  = k
        eps_p*  = k (1 + r) / (1 - r)
        eps_l_n = (theta - nu) k
        eps_p   = -2 k r / (1 - r)

    The price enters the optimum through ``(1 - r)**2``, hence the factor
    2 in ``eps_p``.
    """
    if s.price >= s.p_star:
        raise DomainError("elasticities require price < p_star")
    k = 1.0 / _exponent_denominator(s)
    r = s.price / s.p_star
    return SecureElasticities(
        eps_q_star=k,
        eps_p_star=k * (1.0 + r) / (1.0 - r),
        eps_l_n=(s.theta - s.nu) * k,
        eps_price=-2.0 * k * r / (1.0 - r),
    )


def secure_quasi_elasticities(s) -> SecureQuasiElasticities:
    """Closed-form quasi-elasticities of the (unclamped) secure optimum.

    With ``k = 1/(theta - nu + 1)`` and ``rho = ln(l*/l_n)``::

        qeps_nu    =  k (1/nu + rho)
        qeps_theta = -k (rho + 1/(theta + 1))
        qeps_pi_c* = -k / pi_c*

    ``rho`` is finite even where ``l*/l_n`` under- or overflows the float
    range; there it comes from the log of the closed form.  Raises
    DomainError when ``price >= p_star`` or when a quasi-elasticity
    overflows the float range (``qeps_pi_c*`` does for a tiny ``pi_c*``).
    """
    if s.price >= s.p_star:
        raise DomainError("quasi-elasticities require price < p_star")
    d = _exponent_denominator(s)
    ratio = secure_optimal_loss(s)[0] / s.l_n
    if 0.0 < ratio < math.inf:
        rho = math.log(ratio)
    else:
        rho = _decision_equation(s)[4] / d - math.log(s.l_n)
    k = 1.0 / d
    values = (k * (1.0 / s.nu + rho), -k * (rho + 1.0 / (s.theta + 1.0)), -k / s.pi_c_star)
    if not all(map(math.isfinite, values)):
        raise DomainError(f"secure quasi-elasticities {values} overflow the float range")
    return SecureQuasiElasticities(*values)
