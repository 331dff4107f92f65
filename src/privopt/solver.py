"""Trade-off solver for the optimal potential loss.

The first-order condition for an interior optimum is the decision
equation ``A * l**(nu-1) - pi_s - B * l**theta = 0``.  The shape of its
left side depends on where ``nu`` sits relative to 1 and ``1 + theta``,
so the solver first classifies the regime, then applies the matching
strategy: monotone bracketing and root refinement for ``nu < 1``, a
closed form for ``nu == 1``, and peak or valley analysis plus endpoint
comparison for ``nu > 1``.  In every regime the returned loss is the
argmax of the net surplus over ``[0, l_n]``, ties broken toward the
smaller loss.

A brute-force grid oracle is included for validation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DegenerateScenarioError,
    NumericError,
    UsageError,
    ValidationError,
)
from .model import Scenario, _cap_risk, _coefficients, _gradient, _powl, net_surplus

__all__ = [
    "Regime",
    "SolutionStatus",
    "TradeoffSolution",
    "FeasibilityCondition",
    "FeasibilityReport",
    "decision_coefficients",
    "classify_regime",
    "feasibility_report",
    "construct_bracket",
    "solve_tradeoff",
    "solve_discrete",
    "oracle_grid_argmax",
    "normalized_gradient",
]

#: Tolerance for the regime boundary comparisons nu == 1 and nu == 1 + theta.
REGIME_TOL = 1e-12

#: Iteration cap for root refinement; exceeding it raises NumericError.
MAX_ITER = 200

#: Largest grid the oracle evaluates; net_surplus allocates several float
#: arrays of that length.
MAX_ORACLE_POINTS = 10**7


class Regime(str, Enum):
    """Shape class of the surplus gradient."""

    NU_LT_1 = "NU_LT_1"
    SUBCASE_A = "SUBCASE_A"  # 1 < nu < 1 + theta
    SUBCASE_B = "SUBCASE_B"  # nu > 1 + theta
    NU_EQ_1 = "NU_EQ_1"
    NU_EQ_1_PLUS_THETA = "NU_EQ_1_PLUS_THETA"


class SolutionStatus(str, Enum):
    INTERIOR = "INTERIOR"
    CLAMPED_AT_LN = "CLAMPED_AT_LN"
    AT_ZERO = "AT_ZERO"
    #: Present for schema completeness; a maximiser always exists on the
    #: compact interval [0, l_n], so the solver never returns this.
    NO_SOLUTION = "NO_SOLUTION"


@dataclass(frozen=True)
class TradeoffSolution:
    """Feasible optimum of the disclosure trade-off.

    ``critical_points`` lists the stationary points of the unconstrained
    surplus that the solver located (maxima or minima, possibly beyond
    ``l_n``, never beyond the float range); ``bracket`` is the
    sign-change interval used in the monotone regime.
    """

    l_opt: float
    status: SolutionStatus
    surplus: float
    critical_points: tuple[float, ...]
    regime: Regime
    bracket: tuple[float, float] | None = None


@dataclass(frozen=True)
class FeasibilityCondition:
    name: str
    bound: float
    satisfied: bool


@dataclass(frozen=True)
class FeasibilityReport:
    """Existence and uniqueness conditions evaluated for one scenario."""

    regime: Regime
    conditions: tuple[FeasibilityCondition, ...]
    guaranteed_unique: bool


def decision_coefficients(s: Scenario) -> tuple:
    """Coefficients ``(a, b)`` of the decision equation
    ``a*l**(nu-1) - pi_s - b*l**theta = 0``, both strictly positive.

    Raises DegenerateScenarioError when ``price >= p_star``: demand is
    zero and the optimum is trivially ``l = 0``.
    """
    if s.price >= s.p_star:
        raise DegenerateScenarioError(
            f"price {s.price} >= willingness-to-pay {s.p_star}: demand is zero"
        )
    return _coefficients(s)


def normalized_gradient(s: Scenario, l: float) -> float:
    """Surplus gradient divided by the sum of its term magnitudes.

    The normalisation ``a*l**(nu-1) + pi_s + b*l**theta`` makes interior
    optimality checks scale-free across scenarios.
    """
    if l <= 0:
        raise UsageError("normalized gradient requires l > 0")
    a, b = _coefficients(s)
    scale = a * _powl(l, s.nu - 1.0) + s.pi_s + b * _powl(l, s.theta)
    if scale == 0.0:
        return 0.0
    return _gradient(s, a, b, l) / scale


def classify_regime(s: Scenario) -> Regime:
    """Unique regime tag; boundary equality uses REGIME_TOL."""
    if abs(s.nu - 1.0) <= REGIME_TOL:
        return Regime.NU_EQ_1
    if abs(s.nu - (1.0 + s.theta)) <= REGIME_TOL:
        return Regime.NU_EQ_1_PLUS_THETA
    if s.nu < 1.0:
        return Regime.NU_LT_1
    if s.nu < 1.0 + s.theta:
        return Regime.SUBCASE_A
    return Regime.SUBCASE_B


def feasibility_report(s: Scenario) -> FeasibilityReport:
    """Evaluate the regime's existence/uniqueness conditions numerically.

    For ``nu < 1`` a unique feasible solution always exists.  For
    ``nu > 1`` the reported bound is sufficient, not necessary: a unique
    solution requires the gradient to still be positive at ``l_n``, which
    caps ``l_n``.  For ``nu == 1`` existence and uniqueness of an interior
    solution is equivalent to ``l_n`` lying inside an open band, which
    has no upper edge when ``pi_s == 0``.
    """
    regime = classify_regime(s)
    margin2 = s.margin() ** 2
    risk = _cap_risk(s)
    if regime is Regime.NU_LT_1:
        return FeasibilityReport(regime=regime, conditions=(), guaranteed_unique=True)
    if regime in (Regime.SUBCASE_A, Regime.SUBCASE_B):
        bound = s.alpha_n * (s.q_star * s.p_star * s.nu / 2.0) * margin2 / risk
        cond = FeasibilityCondition("sufficient_l_n_upper_bound", bound, s.l_n < bound)
        return FeasibilityReport(regime=regime, conditions=(cond,), guaranteed_unique=cond.satisfied)
    if regime is Regime.NU_EQ_1:
        base = (s.q_star * s.p_star / 2.0) * margin2 * s.alpha_n
        lower = base / risk
        conditions = (FeasibilityCondition("band_lower_edge", lower, s.l_n > lower),)
        if s.pi_s > 0:  # with pi_s == 0 the band has no upper edge
            upper = base / s.pi_s
            conditions += (FeasibilityCondition("band_upper_edge", upper, s.l_n < upper),)
        unique = all(c.satisfied for c in conditions)
        return FeasibilityReport(regime=regime, conditions=conditions, guaranteed_unique=unique)
    # nu == 1 + theta: no sufficient uniqueness condition is evaluated here
    return FeasibilityReport(regime=regime, conditions=(), guaranteed_unique=False)


def construct_bracket(s: Scenario) -> tuple:
    """Sign-change interval for the monotone (nu < 1) decision equation.

    The upper end solves ``a*l**(nu-1) = b*l**theta``; the lower end
    solves ``a*l**(nu-1) = a*l_u**(nu-1) + pi_s``, which forces the
    gradient positive there.  With ``pi_s == 0`` the interval collapses
    onto the root itself.
    """
    if classify_regime(s) is not Regime.NU_LT_1:
        raise UsageError("bracket construction applies to the nu < 1 regime only")
    if s.price >= s.p_star:
        raise DegenerateScenarioError("price >= p_star: gradient has no positive part")
    return _bracket(s, *_coefficients(s))


def _bracket(s: Scenario, a: float, b: float) -> tuple:
    """``construct_bracket`` for a checked ``nu < 1`` scenario with ``a > 0``."""
    l_u = _powl(a / b, 1.0 / (s.theta + 1.0 - s.nu))
    if s.pi_s == 0.0:
        return (l_u, l_u)
    l_l = _powl(_powl(l_u, s.nu - 1.0) + s.pi_s / a, 1.0 / (s.nu - 1.0))
    return (l_l, l_u)


# perfbench/tracing.py counts root calls by wrapping this module-global name.
def brentq(f, lo: float, hi: float, maxiter: int = MAX_ITER) -> float:
    """Root of ``f`` inside the sign-change bracket ``[lo, hi]`` (Brent's method).

    A port of the classic C routine ``brentq.c`` (Brent 1973, ch. 4) with
    ``xtol = max(1e-15*hi, 5e-324)`` and ``rtol = 1e-12``; it returns the
    same bits as that routine, which the tests check.  A zero at an end
    returns that end.  Raises NumericError when the ends share a sign
    bit, when ``f`` returns NaN, or when ``maxiter`` iterations do not
    converge.
    """
    xtol = max(1e-15 * hi, 5e-324)
    rtol = 1e-12
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise NumericError(f"root bracket [{lo}, {hi}] has a NaN end value")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericError(f"root bracket [{lo}, {hi}] does not change sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # fails the step test below, so bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # IEEE division would give inf or NaN: bisect as well
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NumericError(f"root refinement met a NaN value at {xcur}")
    raise NumericError(f"root refinement failed to converge in {maxiter} iterations")


def _status_for(l_opt: float, l_n: float) -> SolutionStatus:
    if l_opt == 0.0:
        return SolutionStatus.AT_ZERO
    if l_opt == l_n:
        return SolutionStatus.CLAMPED_AT_LN
    return SolutionStatus.INTERIOR


def solve_tradeoff(s: Scenario) -> TradeoffSolution:
    """Feasible optimum of the disclosure trade-off for one scenario.

    Dispatches on the gradient regime to locate the stationary points and
    the candidate losses:

    * ``nu < 1``: the gradient decreases monotonically, so the single
      root is refined inside the constructed bracket; a root at or past
      ``l_n`` clamps the solution there.
    * ``nu == 1``: closed form ``((a - pi_s)/b)**(1/theta)`` when
      ``a > pi_s``, else the surplus only decreases and 0 is optimal.
    * ``1 < nu < 1 + theta``: the gradient rises to a peak then falls;
      zero, one or two stationary points may exist and the surplus is
      compared at every candidate including the endpoints.
    * ``nu > 1 + theta`` (and the measure-zero boundary ``nu == 1 +
      theta``): the surplus has at most an interior minimum, so only the
      endpoints compete.

    The optimum is the candidate with the largest net surplus, ties
    going to the smaller loss, and its status follows from where it sits.
    """
    regime = classify_regime(s)
    a, b = _coefficients(s)
    grad = lambda l: _gradient(s, a, b, l)  # noqa: E731
    bracket = None

    if a == 0.0:
        # price at or above willingness-to-pay: only the loss term remains
        points, candidates = (), (0.0,)
    elif regime is Regime.NU_LT_1:
        bracket = _bracket(s, a, b)
        l_l, l_u = bracket
        if grad(s.l_n) >= 0.0:
            # surplus still rising at the cap; the legal root lies beyond it
            candidates = (s.l_n,)
            try:
                points = (l_u if s.pi_s == 0.0 else brentq(grad, s.l_n, max(l_u, s.l_n)),)
            except NumericError:
                points = ()  # legal root beyond floating range; cap still optimal
        else:
            if s.pi_s == 0.0:
                root = l_u
            else:
                # l_l can underflow (or l_u overflow) so that the gradient
                # is not yet positive there; it tends to +inf at 0+
                lo = _expand_until(grad, l_l, 0.5, lambda g: g > 0.0, "bracket the root from below")
                hi = min(l_u, s.l_n)
                root = hi if lo >= hi else brentq(grad, lo, hi)
            points, candidates = (root,), (root,)
    elif regime is Regime.NU_EQ_1:
        if a <= s.pi_s:
            points, candidates = (), (0.0,)
        else:
            root = _powl((a - s.pi_s) / b, 1.0 / s.theta)
            points, candidates = (root,), (min(root, s.l_n),)
    elif regime is Regime.SUBCASE_A:
        points, candidates = _solve_subcase_a(s, a, b, grad)
    else:
        # SUBCASE_B and the nu == 1 + theta boundary: endpoint comparison
        points, candidates = _solve_valley(s, a, b, grad, regime)

    l_opt = surplus = None
    for l in sorted(set(candidates)):
        v = net_surplus(s, l)
        if l_opt is None or v > surplus:
            l_opt, surplus = l, v
    return TradeoffSolution(
        l_opt=l_opt,
        status=_status_for(l_opt, s.l_n),
        surplus=surplus,
        critical_points=tuple(p for p in points if math.isfinite(p)),
        regime=regime,
        bracket=bracket,
    )


def _expand_until(f, start: float, factor: float, predicate, what: str) -> float:
    """Scale ``start`` by ``factor`` until ``predicate(f(x))`` holds."""
    x = start
    for _ in range(MAX_ITER):
        if predicate(f(x)):
            return x
        x *= factor
        if not math.isfinite(x) or x == 0.0:
            break
    raise NumericError(f"could not {what} within {MAX_ITER} expansions")


def _solve_subcase_a(s, a, b, grad) -> tuple:
    """1 < nu < 1 + theta: gradient rises to a peak, then falls forever.

    Returns ``(critical points, candidate losses)``.
    """
    l_peak = _powl(a * (s.nu - 1.0) / (b * s.theta), 1.0 / (1.0 + s.theta - s.nu))
    # not ``<= 0``: the gradient at a peak beyond floating range can be NaN
    if not grad(l_peak) > 0.0:
        return (), (0.0, s.l_n)
    # two stationary points: a minimum left of the peak (present only when
    # pi_s > 0 pulls the gradient negative near 0) and a maximum to its right
    crossing = _powl(a / b, 1.0 / (s.theta + 1.0 - s.nu))
    if s.pi_s == 0.0:
        # without a provider-side term the gradient is positive all the way
        # to the crossing of its two power terms, then negative: the surplus
        # rises from 0, so the crossing (or the cap) is the maximum outright,
        # even when the float surplus ties with S(0)
        return (crossing,), (min(crossing, s.l_n),)
    points = ()
    lo_guess = 0.5 * min(_powl(s.pi_s / a, 1.0 / (s.nu - 1.0)), l_peak)
    try:
        lo = _expand_until(grad, lo_guess, 0.5, lambda g: g < 0.0, "bracket the ascending root")
        points = (brentq(grad, lo, l_peak),)
    except NumericError:
        pass  # a surplus minimum among subnormals, too close to 0 to refine
    try:
        hi = _expand_until(grad, 2.0 * max(crossing, l_peak), 2.0, lambda g: g < 0.0, "bracket the descending root")
        root_max = brentq(grad, l_peak, hi)
    except NumericError:
        return points, (0.0, s.l_n)  # maximum beyond floating range, so beyond l_n
    return points + (root_max,), (0.0, s.l_n, min(root_max, s.l_n))


def _solve_valley(s, a, b, grad, regime) -> tuple:
    """nu >= 1 + theta: the surplus dips to a single interior minimum.

    Returns ``(critical points, candidate losses)``: the optimum is one of
    the endpoints, and the stationary point is located only to report it.
    """
    points = ()
    if regime is Regime.NU_EQ_1_PLUS_THETA:
        # gradient is (a - b) * l**theta - pi_s
        if a > b and s.pi_s > 0.0:
            points = (_powl(s.pi_s / (a - b), 1.0 / s.theta),)
    else:
        l_valley = _powl(b * s.theta / (a * (s.nu - 1.0)), 1.0 / (s.nu - 1.0 - s.theta))
        try:
            start = 2.0 * max(
                l_valley,
                _powl(2.0 * b / a, 1.0 / (s.nu - 1.0 - s.theta)),
                _powl(2.0 * s.pi_s / a, 1.0 / (s.nu - 1.0)) if s.pi_s > 0 else l_valley,
            )
            hi = _expand_until(grad, start, 2.0, lambda g: g > 0.0, "bracket the rising root")
            points = (brentq(grad, l_valley, hi),)
        except NumericError:
            pass  # stationary point beyond floating range
    return points, (0.0, s.l_n)


def solve_discrete(s: Scenario, losses) -> tuple:
    """Best element of an increasing list of loss levels.

    ``l = 0`` always competes implicitly; if it wins the returned index
    is None.  Ties go to the smaller loss.
    """
    seq = [float(l) for l in losses]
    for i, l in enumerate(seq):
        if not 0 < l <= s.l_n:
            raise ValidationError("losses", f"entry {i} ({l}) outside (0, {s.l_n}]")
        if i and l <= seq[i - 1]:
            raise ValidationError("losses", f"entries must be strictly increasing at index {i}")
    best = (None, 0.0, net_surplus(s, 0.0))
    for i, l in enumerate(seq):
        v = net_surplus(s, l)
        if v > best[2]:
            best = (i, l, v)
    return best


def oracle_grid_argmax(s: Scenario, n: int) -> float:
    """Brute-force argmax of the net surplus on a uniform n-point grid.

    Validation oracle for solve_tradeoff; ties resolve to the first
    (smallest) grid point, matching the solver's tie rule.
    """
    if n < 2:
        raise ValidationError("n", "grid needs at least 2 points")
    if n > MAX_ORACLE_POINTS:
        raise ValidationError("n", f"grid is capped at {MAX_ORACLE_POINTS} points")
    import numpy as np

    grid = np.linspace(0.0, s.l_n, int(n))
    values = net_surplus(s, grid)
    return float(grid[int(np.argmax(values))])
