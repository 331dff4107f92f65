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
arrives.  Each power is one ``exp`` of a sum of logs, so extreme
exponents and parameters neither underflow nor overflow before the power
itself does; the decision coefficients ``a`` and ``b`` exist only as
logs (``_decision_equation``).  The surplus kernel ``_gain`` takes one log
of ``l/l_n`` for both of its powers; its array terms come from
``_terms``, which ``_surplus_bounds`` shares.
"""

from __future__ import annotations

import math
import sys
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

#: Largest ``t`` whose ``exp`` is finite.
_T_MAX = math.log(sys.float_info.max)


def _exp(t: float) -> float:
    """``exp(t)``, ``inf`` past the float range instead of OverflowError."""
    return math.exp(t) if t <= _T_MAX else math.inf


def _float_or_array(x):
    """A number or 0-d array as a float, anything else as a float64 array.

    Only the array branch imports numpy.
    """
    if isinstance(x, (int, float)):
        return float(x)
    import numpy as np

    arr = np.asarray(x, dtype=np.float64)
    return arr if arr.ndim else float(arr)


def _bounds(x) -> tuple:
    """``(min, max)`` of a float or an array; NaN when ``x`` holds a NaN.

    An empty array gives ``(inf, -inf)``, so it passes every range check.
    """
    if isinstance(x, float):
        return x, x
    return x.min(initial=math.inf), x.max(initial=-math.inf)


def _in_loss_range(s: Scenario, l):
    """``l`` through ``_float_or_array``, checked against ``[0, l_n]``;
    a NaN fails the check."""
    l = _float_or_array(l)
    lo, hi = _bounds(l)
    if not (0.0 <= lo and hi <= s.l_n):
        raise DomainError(f"loss must lie in [0, {s.l_n}]")
    return l


def _ratio_power(s: Scenario, l, e: float):
    """``(l/l_n)**e`` for ``e > 0`` as ``exp(e log(l/l_n))``, the float
    ``_gain`` gives, 0 at ``l == 0``; ``l`` is range-checked and may be an
    array."""
    ratio = _in_loss_range(s, l) / s.l_n
    if isinstance(ratio, float):
        return math.exp(e * math.log(ratio)) if ratio else 0.0
    import numpy as np

    with np.errstate(divide="ignore"):
        return np.exp(e * np.log(ratio))


def _number(name: str, value, whole: bool = False) -> float:
    """A finite int or float (not a bool), optionally integral, as a
    float; ValidationError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(name, f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(name, "must be finite")
    if whole and number != int(number):
        raise ValidationError(name, f"must be a whole number, got {value!r}")
    return number


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
        # by name, not through vars(self): reading __dict__ would build a
        # dict the instance otherwise never needs, and slow every later read
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if type(value) is not float or not math.isfinite(value):
                # an int is stored as its float, so it prints like one in reprs and reports
                object.__setattr__(self, name, _number(name, value))
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
            if not ok:
                raise ValidationError(field, f"{msg} (got {getattr(self, field)!r})")

    def margin(self) -> float:
        """Relative price margin ``1 - price/p_star`` clamped at 0."""
        return _margin(self, self.price)


def _margin(s: Scenario, price: float) -> float:
    """``s.margin()`` at ``price``: a sweep needs no re-priced copy."""
    return max(0.0, 1.0 - price / s.p_star)


@dataclass(frozen=True)
class ConsumptionRegion:
    """Quantity band where a data release benefits both parties.

    ``lower`` is the larger of the customer's surplus bound and the
    provider's lower revenue bound; ``upper`` is the provider's upper
    revenue bound.  An empty region is representable (``lower > upper``).
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
    return s.alpha_n * _ratio_power(s, l, s.nu)


def demand_quantity(s: Scenario, alpha: float, p):
    """Quantity demanded at price ``p`` on the curve expanded by ``alpha``.

    ``q = q_star * (1 + alpha) * (1 - p/p_star)``, clamped at 0 for
    ``p >= p_star``.  Array-compatible in ``p``.
    """
    if not alpha >= 0:
        raise DomainError("alpha must be >= 0")
    p = _float_or_array(p)
    if not _bounds(p)[0] >= 0:
        raise DomainError("price must be >= 0")
    margin = _margin(s, p) if isinstance(p, float) else (1.0 - p / s.p_star).clip(0.0)
    return s.q_star * (1.0 + alpha) * margin


def provider_revenue(s: Scenario, q2: float, alpha: float) -> float:
    """Provider revenue ``p * q2`` on the expanded curve at quantity ``q2``.

    The unit price implied by the curve is ``p_star * (1 - q2/((1+alpha)q_star))``.
    With ``alpha == 0`` this is the revenue on the base curve.
    """
    if not alpha >= 0:
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
    if not alpha > 0:
        raise DomainError("alpha must be > 0")
    customer = q1 * math.sqrt(1.0 + alpha)
    # the discriminant 1 - 4 x (1 - x) / (1 + alpha), x = q1/q*, as ((1 -
    # 2x)**2 + alpha) / (1 + alpha): it cancels next to x = 1/2 otherwise
    y = (s.q_star - q1 - q1) / s.q_star
    root = math.sqrt((y * y + alpha) / (1.0 + alpha))
    provider_upper = (1.0 + alpha) * s.q_star / 2.0 * (1.0 + root)
    # the product of the roots, (1+alpha) (q*-q1) q1, over the upper one:
    # half (1 - root) cancels as alpha grows (Goldberg 1991)
    provider_lower = 2.0 * q1 * ((s.q_star - q1) / s.q_star) / (1.0 + root)
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
    if not q1 >= 0:
        raise DomainError("q1 must be >= 0")
    if not alpha >= 0:
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


def _surplus_scale(s: Scenario, m: float) -> float:
    """Net surplus at ``l = 0``, ``C = (p*q*/2) margin**2``, evaluated as
    ``(0.5 p* margin)(q* margin)`` at the margin ``m``.

    DomainError where ``C (1 + alpha_n)`` overflows: the surplus on
    ``[0, l_n]`` lies below it and the benefit term ``C alpha_n
    (l/l_n)^nu`` below ``C alpha_n``, so no value of ``_gain`` or
    ``net_surplus`` overflows once it passes.
    """
    c = (0.5 * s.p_star * m) * (s.q_star * m)
    if c * (1.0 + s.alpha_n) == math.inf:
        raise DomainError("surplus scale (p*q*/2) margin^2 (1 + alpha_n) overflows the float range")
    return c


def _gain(s: Scenario, l, c: float | None = None):
    """Net surplus at ``l`` minus its value at ``l = 0``::

        C alpha_n (l/l_n)^nu - [pi_s + pi_c* (1 - pi_s) (l/l_n)^theta] l

    Exactly 0 at ``l == 0``.  Losses are ranked by their gain, because
    two surpluses can round to the same float, ``C`` swamping the
    difference.  Array-compatible in ``l``; an array's gain is
    ``benefit - loss`` from ``_terms``.  ``c`` is the surplus scale, by
    default ``s``'s own: no other term reads the price.

    One log, ``lr = log(l/l_n)``, serves both powers: they are
    ``exp(nu lr)`` and ``exp(theta lr)``, the floats ``_ratio_power``
    gives, and a zero ratio is ``lr = -inf``.
    """
    l = _in_loss_range(s, l)
    if c is None:
        c = _surplus_scale(s, s.margin())
    if isinstance(l, float):
        ratio = l / s.l_n
        lr = math.log(ratio) if ratio else -math.inf
        benefit = c * (s.alpha_n * math.exp(s.nu * lr))
        return benefit - (s.pi_s + s.pi_c_star * (1.0 - s.pi_s) * math.exp(s.theta * lr)) * l
    benefit, loss = _terms(s, l, c)
    benefit -= loss
    return benefit


def _terms(s: Scenario, l, c: float) -> tuple:
    """The two terms of ``_gain`` at a float64 array ``l`` in ``[0, l_n]``:
    the benefit ``c alpha_n (l/l_n)^nu`` and the expected loss ``[pi_s +
    pi_c* (1 - pi_s) (l/l_n)^theta] l``, as two new arrays.

    Both powers come from one log of the ratio, worked in place in the
    ratio's array and one more, never in ``l``; each step rounds as in
    the expressions above, so ``_gain`` and ``_surplus_bounds`` see the
    same floats.
    """
    import numpy as np

    lr = l / s.l_n
    with np.errstate(divide="ignore"):
        np.log(lr, out=lr)
    loss = np.multiply(lr, s.theta)
    np.exp(loss, out=loss)
    loss *= s.pi_c_star * (1.0 - s.pi_s)
    loss += s.pi_s
    loss *= l
    lr *= s.nu
    benefit = np.exp(lr, out=lr)
    benefit *= s.alpha_n
    benefit *= c
    return benefit, loss


def net_surplus(s: Scenario, l):
    """Net surplus at potential loss ``l``.

    Consumption surplus on the expanded demand curve minus the expected
    breach loss::

        (p*q*/2) [1 + alpha_n (l/l_n)^nu] margin^2
            - [pi_s + pi_c* (1 - pi_s) (l/l_n)^theta] l

    where ``margin = max(0, 1 - price/p_star)``, evaluated as
    ``_surplus_scale + _gain``; DomainError where ``(p*q*/2) margin^2``
    overflows.  Array-compatible in ``l``; an array's ``C`` is added in
    the gain's own array.
    """
    c = _surplus_scale(s, s.margin())
    gain = _gain(s, l, c)
    gain += c
    return gain


def _surplus_bounds(s: Scenario, ends) -> tuple:
    """The net surplus at ``ends``, an ascending float64 array in ``[0,
    l_n]`` or a 2-D array of ascending rows, upper bounds on it between
    consecutive points of a row, and the scale of the surplus terms, from
    one ``_terms`` pass.

    Both terms of ``_gain`` rise with ``l`` (``nu, theta > 0``), so on
    ``[x0, x1]`` the net surplus is at most its benefit at ``x1`` less its
    expected loss at ``x0``::

        C + C alpha_n (x1/l_n)^nu - [pi_s + pi_c* (1 - pi_s) (x0/l_n)^theta] x0

    Returns ``(values, bounds, scale)``: the floats ``net_surplus(s,
    ends)`` gives, the array of bounds, one per interval, and ``C + C
    alpha_n + (pi_s + pi_c* (1 - pi_s)) l_n``, which no term of a surplus
    value or of a bound exceeds in magnitude.
    """
    c = _surplus_scale(s, s.margin())
    benefit, loss = _terms(s, ends, c)
    bounds = benefit[..., 1:] + c
    bounds -= loss[..., :-1]
    benefit -= loss
    benefit += c
    return benefit, bounds, c + c * s.alpha_n + (s.pi_s + s.pi_c_star * (1.0 - s.pi_s)) * s.l_n


def _log_product(*factors) -> float:
    """``log`` of a product of positive floats, summed term by term only
    where the product, or a product on the way, is not a normal float: it
    overflowed, or lost digits to underflow."""
    p = 1.0
    for x in factors:
        p *= x
        if not sys.float_info.min <= p < math.inf:
            return math.fsum(map(math.log, factors))
    return math.log(p)


def _quotient(numerator: tuple, denominator: tuple) -> float:
    """The product of ``numerator`` over that of ``denominator``, each taken
    left to right on the factors' binary mantissas, their exponents summed
    apart; ``inf`` past the float range.  Scaling by a power of two is exact
    (Goldberg 1991): this is the linear formula's float wherever its
    products and quotient are normal, and loses no digits on the way elsewhere."""
    p, q, e = 1.0, 1.0, 0
    for x in numerator:
        x, k = math.frexp(x)
        p, e = p * x, e + k
    for x in denominator:
        x, k = math.frexp(x)
        q, e = q * x, e - k
    try:
        return math.ldexp(p / q, e)
    except OverflowError:
        return math.inf


def _log_parts(s: Scenario) -> tuple:
    """The price-free logs ``(log_k, log l_n, lb, lr - log m^2, lp)`` that
    ``_decision_equation`` completes at a margin ``m``, with ``k = (q* p* nu
    / 2) alpha_n`` and ``lp = log pi_s``; they raise nothing."""
    log_k = _log_product(0.5, s.q_star, s.p_star, s.nu, s.alpha_n)
    log_c = math.log(s.pi_c_star * (s.theta + 1.0))
    log_ln = math.log(s.l_n)
    lb = log_c - s.theta * log_ln + math.log1p(-s.pi_s)
    lp = math.log(s.pi_s) if s.pi_s > 0.0 else -math.inf
    return log_k, log_ln, lb, log_k - log_c + (s.theta - s.nu) * log_ln, lp


def _logaddexp(x: float, y: float) -> float:
    """``log(exp(x) + exp(y))`` without overflow; ``-inf`` is a zero term."""
    hi, lo = (x, y) if x > y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def _decision_equation(s: Scenario, parts: tuple | None = None, m: float | None = None) -> tuple:
    """The decision equation in ``t = log l`` and the logs it is built from,
    at the margin ``m`` from ``parts = _log_parts(s)``; by default at
    ``s``'s own.

    Returns ``(h, la, lb, lp, lr)``: the logs of the decision coefficients
    ``a`` and ``b``, of ``pi_s`` (``-inf`` when ``pi_s == 0``) and of
    ``a/b`` for a breach-proof provider (``pi_s = 0``), and::

        h(t) = la + (nu-1) t - logaddexp(lp, lb + theta t)

    the log of the ratio of the two sides of ``a l**(nu-1) = pi_s + b
    l**theta``: it has the sign of the surplus gradient at ``l = e^t``.
    The logs come from the logs of the parameters, so they stay finite
    where ``a`` or ``b`` itself would under- or overflow.  ``lr / d``, with
    the exponent gap ``d = theta - nu + 1``, is the log of the crossing of
    the two power terms, which is the secure closed-form optimum.  ``la``
    and ``lr`` are ``-inf`` when the price kills the demand (``price >=
    p_star``).
    """
    log_k, log_ln, lb, lr, lp = parts or _log_parts(s)
    m = s.margin() if m is None else m
    log_m2 = 2.0 * math.log(m) if m > 0.0 else -math.inf
    la, lr = log_k + log_m2 - s.nu * log_ln, lr + log_m2
    nu1, theta = s.nu - 1.0, s.theta
    exp, log1p = math.exp, math.log1p

    def h(t):  # _logaddexp(lp, lb + theta t) inline: a root search calls h ~7 times
        x = lb + theta * t
        hi, lo = (lp, x) if lp > x else (x, lp)
        return la + nu1 * t - (hi + log1p(exp(lo - hi)))
    return h, la, lb, lp, lr


def surplus_gradient(s: Scenario, l):
    """Analytic derivative of the net surplus with respect to the loss.

    ::

        (q* p* nu / 2)(alpha_n / l_n) margin^2 (l/l_n)^(nu-1)
            - pi_s - pi_c* (1 - pi_s)(theta + 1)(l/l_n)^theta

    evaluated as the decision gradient ``a*l**(nu-1) - pi_s - b*l**theta``
    with its terms ``exp(la + (nu-1) log l)`` and ``exp(lb + theta log l)``
    built from the logs of ``_decision_equation``: finite wherever their
    values are, even where ``l_n**-nu`` under- or overflows, and ``inf``
    past the float range.  At ``nu == 1`` the first term is ``a``, also at
    ``l = inf``.  Diverges to +inf as ``l -> 0+`` when ``nu < 1``, hence
    the strictly positive domain.  Values above ``l_n`` are allowed; they
    describe the unconstrained surplus used when bracketing roots.
    Array-compatible.
    """
    l = _float_or_array(l)
    if not _bounds(l)[0] > 0:
        raise DomainError("loss must be > 0 (gradient may diverge at 0)")
    _, la, lb, _, _ = _decision_equation(s)
    nu1, theta = s.nu - 1.0, s.theta
    if isinstance(l, float):
        t = math.log(l)
        benefit = _exp(la + nu1 * t) if nu1 else _exp(la)
        return benefit - s.pi_s - _exp(lb + theta * t)
    import numpy as np

    t = np.log(l)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, as in floats
        benefit = np.exp(la + nu1 * t) if nu1 else _exp(la)
        return benefit - s.pi_s - np.exp(lb + theta * t)


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
    return s.pi_c_star * _ratio_power(s, l, s.theta)


def combined_breach_probability(pi_s: float, pi_c: float) -> float:
    """Series-system breach probability of two independent failure modes.

    ``1 - (1 - pi_s)(1 - pi_c)``, evaluated as ``-expm1(log1p(-pi_s) +
    log1p(-pi_c))``: that keeps full relative accuracy near 0, where the
    product form cancels (it gives 0 for two probabilities of 1e-17), and
    stays exactly symmetric and monotone in each argument.
    """
    for name, value in (("pi_s", pi_s), ("pi_c", pi_c)):
        if not 0 <= value <= 1:
            raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    if pi_s == 1 or pi_c == 1:
        return 1.0
    return 0.0 - math.expm1(math.log1p(-pi_s) + math.log1p(-pi_c))  # 0.0, not -0.0, at (0, 0)
