"""Demand curve, disclosure power law, net surplus and its gradient.

The customer faces a linear demand curve ``q/q* + p/p* = 1``.  Releasing
personal data expands the curve by a factor ``(1 + alpha)``, where the
marginal demand factor earned by accepting a potential loss ``l`` follows
the power law ``alpha(l) = alpha_n * (l / l_n)**nu``.  The net surplus is
the consumption surplus on the expanded curve minus the expected breach
loss; its maximiser over ``[0, l_n]`` is the customer's optimal exposure.
Losses are compared by their gain over ``l = 0`` (``_gain``), and the
decision equation in ``t = log l`` is built here (``_decision_equation``).

A breach happens when either side of the customer/provider pair fails,
so the provider-side and customer-side probabilities compose like a
two-component series system.  The customer-side probability grows with
the potential loss through a second power law, ``pi_c* (l / l_n)**theta``.

All operations are pure functions of immutable values and accept scalars
or numpy arrays where a loss or price argument is marked array-compatible.
Scalars are evaluated with ``math``; numpy is imported only when an array
arrives.  Power-law terms are evaluated in log domain, with the zero base
handled separately, so extreme exponents neither underflow nor overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError

__all__ = [
    "Scenario",
    "ConsumptionRegion",
    "marginal_demand_factor",
    "demand_quantity",
    "provider_revenue",
    "valid_demand_region",
    "price_taker_demand",
    "pareto_privacy_parameter",
    "net_surplus",
    "surplus_gradient",
    "customer_breach_probability",
    "combined_breach_probability",
]

#: Tolerance used before taking the square root of the region discriminant.
DISCRIMINANT_TOL = 1e-12


def _powl(x, e: float):
    """Power ``x**e`` in log domain for a nonnegative float or array ``x``.

    ``x == 0`` maps to the continuity limits: 0 for ``e > 0``, ``inf`` for
    ``e < 0`` and 1 for ``e == 0``, and ``e == 0`` gives 1 for every
    ``x``.  Both branches evaluate ``exp(e * log(x))``, a float through
    ``math`` and an array through numpy; the two ``exp`` implementations
    may differ in the last bit.  An overflowing ``exp`` returns ``inf``
    and a NaN base NaN, without an exception or a warning.
    """
    if isinstance(x, float):
        if x == 0.0 or e == 0.0:
            return 0.0 if e > 0 else math.inf if e < 0 else 1.0
        try:
            return math.exp(e * math.log(x))
        except OverflowError:
            return math.inf
        except ValueError:  # negative base
            return math.nan
    import numpy as np

    if e == 0.0:
        return np.ones_like(x, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(e * np.log(x))


def _float_or_array(x):
    """A number or 0-d array as a float, anything else as a float64 array.

    Only the array branch imports numpy.
    """
    if isinstance(x, (int, float)):
        return float(x)
    import numpy as np

    arr = np.asarray(x, dtype=np.float64)
    return arr if arr.ndim else float(arr)


def _any(flags) -> bool:
    """A comparison of a float, or any element of a comparison of an array."""
    return flags if isinstance(flags, bool) else bool(flags.any())


def _in_loss_range(s: Scenario, l):
    """``l`` through ``_float_or_array``, checked against ``[0, l_n]``."""
    l = _float_or_array(l)
    if _any(l < 0) or _any(l > s.l_n):
        raise DomainError(f"loss must lie in [0, {s.l_n}]")
    return l


@dataclass(frozen=True)
class Scenario:
    """All nine model parameters for one customer/provider pair.

    Attributes:
        q_star: maximum base quantity of service (service units, > 0).
        p_star: willingness-to-pay per service unit (money, > 0).
        price: posted unit price (money, >= 0).  A price at or above
            ``p_star`` is legal input; demand is then zero.
        nu: privacy parameter, exponent of the benefit/loss power law (> 0).
        theta: security parameter, exponent of the customer-side breach
            power law, strictly inside (0, 1).
        alpha_n: maximum marginal demand factor (> 0).
        l_n: maximum potential loss (money, > 0).
        pi_s: provider-side breach probability, in [0, 1).
        pi_c_star: customer-side breach probability at maximum release,
            in (0, 1).
    """

    q_star: float
    p_star: float
    price: float
    nu: float
    theta: float
    alpha_n: float
    l_n: float
    pi_s: float
    pi_c_star: float

    def __post_init__(self):
        checks = [
            ("q_star", self.q_star > 0, "must be > 0"),
            ("p_star", self.p_star > 0, "must be > 0"),
            ("price", self.price >= 0, "must be >= 0"),
            ("nu", self.nu > 0, "must be > 0"),
            ("theta", 0 < self.theta < 1, "must lie strictly inside (0, 1)"),
            ("alpha_n", self.alpha_n > 0, "must be > 0"),
            ("l_n", self.l_n > 0, "must be > 0"),
            ("pi_s", 0 <= self.pi_s < 1, "must lie in [0, 1)"),
            ("pi_c_star", 0 < self.pi_c_star < 1, "must lie strictly inside (0, 1)"),
        ]
        for field, ok, msg in checks:
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ValidationError(field, "must be finite")
            if not ok:
                raise ValidationError(field, f"{msg} (got {value!r})")
            if type(value) is not float:
                # an int would send every power down _powl's array branch
                object.__setattr__(self, field, float(value))

    def margin(self) -> float:
        """Relative price margin ``1 - price/p_star`` clamped at 0."""
        return max(0.0, 1.0 - self.price / self.p_star)


@dataclass(frozen=True)
class ConsumptionRegion:
    """Quantity band where a data release benefits both parties.

    ``lower`` is the larger of the customer's surplus bound and the
    provider's lower revenue bound; ``upper`` is the provider's upper
    revenue bound.  An empty region is representable (``lower > upper``,
    or NaN bounds when the discriminant is negative).
    """

    lower: float
    upper: float
    customer_ok_lower: float
    provider_lower: float
    provider_upper: float

    @property
    def is_empty(self) -> bool:
        return not (self.lower <= self.upper)

    def contains(self, q2: float) -> bool:
        return (not self.is_empty) and self.lower < q2 < self.upper


def marginal_demand_factor(s: Scenario, l):
    """Marginal demand factor ``alpha_n * (l / l_n)**nu`` earned at loss ``l``.

    Defined as 0 at ``l == 0`` by continuity.  Array-compatible in ``l``.
    """
    return s.alpha_n * _powl(_in_loss_range(s, l) / s.l_n, s.nu)


def demand_quantity(s: Scenario, alpha: float, p):
    """Quantity demanded at price ``p`` on the curve expanded by ``alpha``.

    ``q = q_star * (1 + alpha) * (1 - p/p_star)``, clamped at 0 for
    ``p >= p_star``.  Array-compatible in ``p``.
    """
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    p = _float_or_array(p)
    if _any(p < 0):
        raise DomainError("price must be >= 0")
    margin = 1.0 - p / s.p_star
    margin = max(margin, 0.0) if isinstance(margin, float) else margin.clip(0.0)
    return s.q_star * (1.0 + alpha) * margin


def provider_revenue(s: Scenario, q2: float, alpha: float) -> float:
    """Provider revenue ``p * q2`` on the expanded curve at quantity ``q2``.

    The unit price implied by the curve is ``p_star * (1 - q2/((1+alpha)q_star))``.
    With ``alpha == 0`` this is the revenue on the base curve.
    """
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    q_max = s.q_star * (1.0 + alpha)
    if not 0 <= q2 <= q_max:
        raise DomainError(f"q2 must lie in [0, {q_max}]")
    return float(s.p_star * (1.0 - q2 / q_max) * q2)


def valid_demand_region(s: Scenario, q1: float, alpha: float) -> ConsumptionRegion:
    """Band of post-release quantities that benefit customer and provider.

    The customer's surplus grows iff ``q2 > q1*sqrt(1+alpha)``; the
    provider's revenue grows iff ``q2`` lies between the two roots of
    ``q2**2 - (1+alpha)*q_star*q2 + (1+alpha)*(q_star-q1)*q1 < 0``.
    The returned region intersects the two constraints.
    """
    if not 0 < q1 < s.q_star:
        raise DomainError(f"q1 must lie strictly inside (0, {s.q_star})")
    if alpha <= 0:
        raise DomainError("alpha must be > 0")
    customer = q1 * math.sqrt(1.0 + alpha)
    x = q1 / s.q_star
    disc = 1.0 - 4.0 * x * (1.0 - x) / (1.0 + alpha)
    if disc < -DISCRIMINANT_TOL:
        nan = float("nan")
        return ConsumptionRegion(nan, nan, float(customer), nan, nan)
    root = math.sqrt(max(0.0, disc))
    half = (1.0 + alpha) * s.q_star / 2.0
    provider_lower = half * (1.0 - root)
    provider_upper = half * (1.0 + root)
    lower = max(customer, provider_lower)
    return ConsumptionRegion(
        float(lower),
        float(provider_upper),
        float(customer),
        float(provider_lower),
        float(provider_upper),
    )


def price_taker_demand(q1: float, alpha: float) -> float:
    """Demand ``q1 * (1 + alpha)`` of a customer keeping the posted price."""
    if q1 < 0:
        raise DomainError("q1 must be >= 0")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    return float(q1 * (1.0 + alpha))


def pareto_privacy_parameter(benefit_fraction: float, loss_fraction: float) -> float:
    """Exponent ``nu`` linking a benefit fraction to a loss fraction.

    Solves ``benefit_fraction = loss_fraction**nu`` for ``nu``, i.e.
    ``ln(benefit) / ln(loss)``.  An 80/20 split gives nu of about 0.1386.
    """
    for name, value in (("benefit_fraction", benefit_fraction), ("loss_fraction", loss_fraction)):
        if not 0.0 < value < 1.0:
            raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return math.log(benefit_fraction) / math.log(loss_fraction)


def _surplus_scale(s: Scenario) -> float:
    """Net surplus at ``l = 0``, ``C = (p*q*/2) margin**2``, evaluated as
    ``(0.5 p* margin)(q* margin)``; DomainError where ``C`` overflows."""
    m = s.margin()
    c = (0.5 * s.p_star * m) * (s.q_star * m)
    if c == math.inf:
        raise DomainError("surplus scale (p*q*/2) margin^2 overflows the float range")
    return c


def _gain(s: Scenario, l):
    """Net surplus at ``l`` minus its value at ``l = 0``::

        C alpha_n (l/l_n)^nu - [pi_s + pi_c* (1 - pi_s) (l/l_n)^theta] l

    Exactly 0 at ``l == 0``.  Losses are ranked by their gain, because
    two surpluses can round to the same float, ``C`` swamping the
    difference.  Array-compatible in ``l``.
    """
    l = _in_loss_range(s, l)
    ratio = l / s.l_n
    benefit = _surplus_scale(s) * (s.alpha_n * _powl(ratio, s.nu))
    return benefit - (s.pi_s + s.pi_c_star * (1.0 - s.pi_s) * _powl(ratio, s.theta)) * l


def net_surplus(s: Scenario, l):
    """Net surplus at potential loss ``l``.

    Consumption surplus on the expanded demand curve minus the expected
    breach loss::

        (p*q*/2) [1 + alpha_n (l/l_n)^nu] margin^2
            - [pi_s + pi_c* (1 - pi_s) (l/l_n)^theta] l

    where ``margin = max(0, 1 - price/p_star)``, evaluated as
    ``_surplus_scale + _gain``; DomainError where ``(p*q*/2) margin^2``
    overflows.  Array-compatible in ``l``.
    """
    return _surplus_scale(s) + _gain(s, l)


def _coefficients(s: Scenario) -> tuple:
    """Raw ``(a, b)`` of the decision gradient; a is 0 when the price kills the demand."""
    a = 0.5 * s.q_star * s.p_star * s.nu * s.alpha_n * _powl(s.l_n, -s.nu) * s.margin() ** 2
    b = (1.0 - s.pi_s) * s.pi_c_star * (s.theta + 1.0) * _powl(s.l_n, -s.theta)
    return a, b


def _log_product(*factors) -> float:
    """``log`` of a product of positive floats, summed term by term only
    when the product itself under- or overflows."""
    p = math.prod(factors)
    return math.log(p) if 0.0 < p < math.inf else math.fsum(map(math.log, factors))


def _log_coefficients(s: Scenario) -> tuple:
    """Logs ``(la, lb, lr)`` of the decision coefficients ``a`` and ``b``
    and of ``a/b`` for a breach-proof provider (``pi_s = 0``).

    They come from the logs of the parameters, so they stay finite where
    ``a`` or ``b`` itself would under- or overflow.  ``lr / (theta - nu +
    1)`` is the log of the crossing of the two power terms, which is the
    secure closed-form optimum.  ``la`` and ``lr`` are ``-inf`` when the
    price kills the demand (``price >= p_star``).
    """
    log_k = _log_product(0.5, s.q_star, s.p_star, s.nu, s.alpha_n)
    log_c = math.log(s.pi_c_star * (s.theta + 1.0))
    m = s.margin()
    log_m2 = 2.0 * math.log(m) if m > 0.0 else -math.inf
    log_ln = math.log(s.l_n)
    la = log_k + log_m2 - s.nu * log_ln
    lb = log_c - s.theta * log_ln + math.log1p(-s.pi_s)
    return la, lb, log_k - log_c + (s.theta - s.nu) * log_ln + log_m2


def _logaddexp(x: float, y: float) -> float:
    """``log(exp(x) + exp(y))`` without overflow; ``-inf`` is a zero term."""
    hi, lo = (x, y) if x > y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def _decision_equation(s: Scenario) -> tuple:
    """The decision equation in ``t = log l`` and the logs it is built from.

    Returns ``(h, la, lb, lp, lr)``, with ``la``, ``lb`` and ``lr`` from
    ``_log_coefficients``, ``lp = log pi_s`` (``-inf`` when ``pi_s == 0``)
    and::

        h(t) = la + (nu-1) t - logaddexp(lp, lb + theta t)

    the log of the ratio of the two sides of ``a l**(nu-1) = pi_s + b
    l**theta``: it has the sign of the surplus gradient at ``l = e^t``.
    """
    la, lb, lr = _log_coefficients(s)
    lp = math.log(s.pi_s) if s.pi_s > 0.0 else -math.inf
    nu1, theta = s.nu - 1.0, s.theta
    return (lambda t: la + nu1 * t - _logaddexp(lp, lb + theta * t)), la, lb, lp, lr


def _gradient(s: Scenario, a: float, b: float, l):
    """Decision gradient ``a*l**(nu-1) - pi_s - b*l**theta``; array-compatible in ``l``."""
    return a * _powl(l, s.nu - 1.0) - s.pi_s - b * _powl(l, s.theta)


def surplus_gradient(s: Scenario, l):
    """Analytic derivative of the net surplus with respect to the loss.

    ::

        (q* p* nu / 2)(alpha_n / l_n) margin^2 (l/l_n)^(nu-1)
            - pi_s - pi_c* (1 - pi_s)(theta + 1)(l/l_n)^theta

    evaluated as the decision gradient ``a*l**(nu-1) - pi_s - b*l**theta``.
    Diverges to +inf as ``l -> 0+`` when ``nu < 1``, hence the strictly
    positive domain.  Values above ``l_n`` are allowed; they describe the
    unconstrained surplus used when bracketing roots.  Array-compatible.
    """
    l = _float_or_array(l)
    if _any(l <= 0):
        raise DomainError("loss must be > 0 (gradient may diverge at 0)")
    return _gradient(s, *_coefficients(s), l)


def _cap_risk(s: Scenario) -> float:
    """Marginal expected loss at full release, ``pi_s + (1-pi_s) pi_c* (1+theta)``.

    The gradient of the expected breach loss at ``l = l_n``; the benefit
    side must outweigh it for the optimum to sit at the cap.
    """
    return s.pi_s + (1.0 - s.pi_s) * s.pi_c_star * (1.0 + s.theta)


def customer_breach_probability(s: Scenario, l):
    """Customer-side breach probability ``pi_c* * (l / l_n)**theta``.

    Nondecreasing in ``l``; equals ``pi_c*`` at maximum release and 0 when
    nothing is disclosed.  Array-compatible in ``l``.
    """
    return s.pi_c_star * _powl(_in_loss_range(s, l) / s.l_n, s.theta)


def combined_breach_probability(pi_s: float, pi_c: float) -> float:
    """Series-system breach probability of two independent failure modes.

    Evaluated as ``1 - (1 - pi_s)(1 - pi_c)``, identical to
    ``pi_s + pi_c - pi_s*pi_c`` but immune to cancellation near 1.
    """
    for name, value in (("pi_s", pi_s), ("pi_c", pi_c)):
        if not 0 <= value <= 1:
            raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return float(1.0 - (1.0 - pi_s) * (1.0 - pi_c))
