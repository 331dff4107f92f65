"""Trade-off solver for the optimal potential loss.

The first-order condition for an interior optimum is the decision
equation ``a * l**(nu-1) = pi_s + b * l**theta``.  The solver works on
its log-ratio form in ``t = log l``, which ``model`` builds::

    h(t) = la + (nu-1) t - logaddexp(log pi_s, lb + theta t)

where ``la = log a`` and ``lb = log b`` come straight from the scenario
parameters, so every quantity stays finite however far the optimum sits
from 1.  ``h`` has the sign of the surplus gradient, is concave, and its
slope lies between ``nu-1-theta`` and ``nu-1``.  So each regime brackets
its roots in closed form, with ``|h| >= 1`` at every bracket end, and
refines each root by one Brent search in ``t``; or, for ``nu == 1``,
``nu == 1 + theta`` and every ``pi_s == 0`` case, solves ``h = 0`` in
closed form.  An absolute error in ``t`` is a relative error in ``l``:
roots come out within about 1e-12 relative of the exact root, plus the
rounding floor of ``h`` where a root is ill-conditioned.  In every regime
the returned loss is the argmax of the net surplus over ``[0, l_n]``,
ties broken toward the smaller loss.  Candidate losses are compared by
their gain over ``l = 0`` (``model._gain``), not by the surplus, whose
constant part can swamp the difference between them.

A brute-force grid oracle is included for validation only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import NumericError, UsageError, ValidationError
from .model import (
    Scenario,
    _cap_risk,
    _decision_equation,
    _exp,
    _gain,
    _log_parts,
    _logaddexp,
    _margin,
    _surplus_bounds,
    _surplus_scale,
    net_surplus,
)

__all__ = [
    "Regime",
    "SolutionStatus",
    "TradeoffSolution",
    "FeasibilityCondition",
    "FeasibilityReport",
    "classify_regime",
    "feasibility_report",
    "solve_tradeoff",
    "solve_discrete",
    "oracle_grid_argmax",
    "normalized_gradient",
]

#: Tolerance for the regime boundary comparisons nu == 1 and nu == 1 + theta.
REGIME_TOL = 1e-12

#: Iteration cap for root refinement; exceeding it raises NumericError.
MAX_ITER = 200

#: Absolute and relative tolerances of the root search in ``t = log l``.
XTOL = 1e-13
RTOL = 4 * sys.float_info.epsilon

#: Largest grid the oracle evaluates; it bounds the oracle's run time,
#: not its memory.
MAX_ORACLE_POINTS = 10**7

#: Most grid points the oracle evaluates per net_surplus call.  Each block
#: allocates three float64 arrays of 64 KiB, its grid and the kernel's
#: two, and drops them before the next.  Larger blocks walk faster in a
#: fresh process (2**14 by ~15%), but where the heap keeps growing, as in
#: the analysis benchmark, glibc gives their freed arrays back to the
#: system and each call faults them in again: a 1e6-point call took 5, 63
#: and 169 minor page faults on average at 2**13, 2**14 and 2**15.
ORACLE_BLOCK = 1 << 13

#: Grid points per sub-block of the oracle's bounded walk: the oracle
#: skips a whole sub-block when a bound proves it holds no maximum.
_SUB_BLOCK = 1 << 12


class Regime(str, Enum):
    """Shape class of the surplus gradient."""

    NU_LT_1 = "NU_LT_1"
    SUBCASE_A = "SUBCASE_A"  # 1 < nu < 1 + theta
    SUBCASE_B = "SUBCASE_B"  # nu > 1 + theta
    NU_EQ_1 = "NU_EQ_1"
    NU_EQ_1_PLUS_THETA = "NU_EQ_1_PLUS_THETA"


# reading a member off the class takes ~0.2 us on CPython 3.10-3.11
_NU_LT_1, _SUBCASE_A, _SUBCASE_B, _NU_EQ_1, _NU_EQ_1_PLUS_THETA = Regime


class SolutionStatus(str, Enum):
    INTERIOR = "INTERIOR"
    CLAMPED_AT_LN = "CLAMPED_AT_LN"
    AT_ZERO = "AT_ZERO"
    #: Present for schema completeness; a maximiser always exists on the
    #: compact interval [0, l_n], so the solver never returns this.
    NO_SOLUTION = "NO_SOLUTION"


_INTERIOR, _CLAMPED_AT_LN, _AT_ZERO, *_ = SolutionStatus  # aliases, as for Regime


@dataclass(frozen=True)
class TradeoffSolution:
    """Feasible optimum of the disclosure trade-off.

    ``critical_points`` lists the stationary points of the unconstrained
    surplus that the solver located (maxima or minima, possibly beyond
    ``l_n``); ``bracket`` is the sign-change interval of the monotone
    ``nu < 1`` regime, collapsed onto the root when ``pi_s == 0``.  Both
    hold positive finite floats only: a point that under- or overflows
    the float range is left out, and so is a bracket with such an end.
    A critical point is accurate to the root tolerance only, about 1e-12
    relative, while the status comes from the sign of the decision
    equation at ``l_n``: so a ``CLAMPED_AT_LN`` solution can list a root
    a rounding below ``l_n`` (table2 at its own saturation price).
    """

    l_opt: float
    status: SolutionStatus
    surplus: float
    critical_points: tuple[float, ...]
    regime: Regime
    bracket: tuple[float, float] | None = None


@dataclass(frozen=True)
class FeasibilityCondition:
    """One condition on ``l_n``: ``bound`` is the edge ``l_n`` is compared
    against, None where its formula leaves the float range (it overflows,
    or an overflow meets a zero margin); ``satisfied`` is the comparison
    with the value the formula gave."""

    name: str
    bound: float | None
    satisfied: bool

    def __post_init__(self):
        if self.bound is not None and not math.isfinite(self.bound):
            object.__setattr__(self, "bound", None)


@dataclass(frozen=True)
class FeasibilityReport:
    """Existence and uniqueness conditions evaluated for one scenario."""

    regime: Regime
    conditions: tuple[FeasibilityCondition, ...]
    guaranteed_unique: bool


def normalized_gradient(s: Scenario, l: float) -> float:
    """Surplus gradient divided by the sum of its term magnitudes.

    The normalisation ``a*l**(nu-1) + pi_s + b*l**theta`` makes interior
    optimality checks scale-free across scenarios.  With ``A = a*l**(nu-1)``
    and ``B = pi_s + b*l**theta``, ``(A - B)/(A + B) = tanh(h/2)`` for
    ``h = log(A/B)``, the decision equation at ``t = log l``; it lies in
    ``[-1, 1]`` and is -1 when the price kills the demand.
    """
    if l <= 0:
        raise UsageError("normalized gradient requires l > 0")
    return math.tanh(_decision_equation(s)[0](math.log(l)) / 2.0)


def classify_regime(s: Scenario) -> Regime:
    """Unique regime tag; boundary equality uses REGIME_TOL."""
    if abs(s.nu - 1.0) <= REGIME_TOL:
        return _NU_EQ_1
    if abs(s.nu - (1.0 + s.theta)) <= REGIME_TOL:
        return _NU_EQ_1_PLUS_THETA
    if s.nu < 1.0:
        return _NU_LT_1
    if s.nu < 1.0 + s.theta:
        return _SUBCASE_A
    return _SUBCASE_B


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
    if regime is _NU_LT_1:
        return FeasibilityReport(regime=regime, conditions=(), guaranteed_unique=True)
    if regime in (_SUBCASE_A, _SUBCASE_B):
        bound = s.alpha_n * (s.q_star * s.p_star * s.nu / 2.0) * margin2 / risk
        cond = FeasibilityCondition("sufficient_l_n_upper_bound", bound, s.l_n < bound)
        return FeasibilityReport(regime=regime, conditions=(cond,), guaranteed_unique=cond.satisfied)
    if regime is _NU_EQ_1:
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


# perfbench/tracing.py counts root calls by wrapping this module-global name.
def brentq(f, lo: float, hi: float, maxiter: int = MAX_ITER) -> float:
    """Root of ``f`` inside the sign-change bracket ``[lo, hi]`` (Brent's method).

    A port of the classic C routine ``brentq.c`` (Brent 1973, ch. 4) with
    ``xtol = XTOL`` and ``rtol = RTOL``; it returns the same bits as that
    routine, which the tests check.  A zero at an end returns that end.
    Raises NumericError when the ends share a sign bit, when ``f``
    returns NaN, or when ``maxiter`` iterations do not converge.
    """
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre != fpre or fcur != fcur:  # NaN
        raise NumericError(f"root bracket [{lo}, {hi}] has a NaN end value")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericError(f"root bracket [{lo}, {hi}] does not change sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # fpre is never 0 here; a zero fcur returns xcur below either way
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (XTOL + RTOL * abs(xcur)) / 2
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
        bound = 3 * abs(sbis) - delta  # min(abs(spre), bound), as min picks it
        if 2 * abs(stry) < (bound if bound < abs(spre) else abs(spre)):
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
        if fcur != fcur:
            raise NumericError(f"root refinement met a NaN value at {xcur}")
    raise NumericError(f"root refinement failed to converge in {maxiter} iterations")


def _representable(l: float) -> bool:
    """Whether a positive loss survived ``exp``: neither 0 nor ``inf``."""
    return 0.0 < l < math.inf


def _status_for(l_opt: float, l_n: float) -> SolutionStatus:
    if l_opt == 0.0:
        return _AT_ZERO
    if l_opt == l_n:
        return _CLAMPED_AT_LN
    return _INTERIOR


def _setup(s: Scenario) -> tuple:
    """The price-free half of a solve: ``(regime, model._log_parts(s))``."""
    return classify_regime(s), _log_parts(s)


def _search(s: Scenario, setup: tuple, price: float) -> tuple:
    """``(l_opt, roots, bracket)`` of ``s`` at ``price`` from ``_setup(s)``,
    roots and bracket in ``t``, with ``solve_tradeoff``'s errors; ``s.price``
    is not read.  Where the ranking needs no root (the cap test, ``nu > 1 +
    theta``), ``roots`` is the search not yet run, for ``solve_tradeoff``."""
    regime, parts = setup
    m = _margin(s, price)
    roots, bracket = (), None
    if m == 0.0:
        # price at or above willingness-to-pay: only the loss term remains
        candidates = (0.0,)
    else:
        h, la, lb, lp, lr = _decision_equation(s, parts, m)
        nu1, theta, d = s.nu - 1.0, s.theta, s.theta - s.nu + 1.0
        # at pi_s == 0, nu == 1 takes the crossing below, as the secure
        # closed form does wherever it applies (d > REGIME_TOL)
        if regime is _NU_EQ_1 and (s.pi_s > 0.0 or d <= REGIME_TOL):
            if la > lp:
                roots = ((la + math.log(-math.expm1(lp - la)) - lb) / theta,)
        elif regime is _NU_EQ_1_PLUS_THETA:
            # h = la - lb - log1p(pi_s / (b l**theta)) rises to la - lb
            if la > lb and s.pi_s > 0.0:
                roots = ((lp - la - math.log(-math.expm1(lb - la))) / theta,)
        else:
            # crossing of the two power terms, the only root when pi_s == 0;
            # lr there makes it the secure closed form, bit for bit
            t_u = t_l = (lr if s.pi_s == 0.0 else la - lb) / d
            if s.pi_s == 0.0:
                roots = (t_u,)  # h = lr - d*t
            elif regime is _SUBCASE_A:
                t_peak = (lp + math.log(nu1 / d) - lb) / theta
                if h(t_peak) > 0.0:
                    # h <= la + (nu-1) t - log pi_s and h <= la - lb - d t
                    roots = (
                        brentq(h, (lp - la - 1.0) / nu1, t_peak),
                        brentq(h, t_peak, t_u + 1.0 / d),
                    )
            elif regime is _SUBCASE_B:
                # h rises; by the same bounds (d < 0) h <= -1 below lo, and
                # h >= la + (nu-1) t - max(log pi_s, lb + theta t) - log 2
                # is at least 2 - log 2 above hi
                lo = max((lp - la - 1.0) / nu1, t_u + 1.0 / d)
                hi = max((lp - la + 2.0) / nu1, t_u - 2.0 / d)
                roots = lambda: (brentq(h, lo, hi),)  # noqa: E731
            else:
                # h >= 1 left of t_l - 1/(1-nu) and h <= -1 right of t_u + 1/d
                t_l = _logaddexp(nu1 * t_u, lp - la) / nu1
                roots = lambda: (brentq(h, t_l + 1.0 / nu1, t_u + 1.0 / d),)  # noqa: E731
                if h(parts[1]) < 0.0:  # h(log l_n); else the surplus still rises at l_n
                    roots = roots()
            if regime is _NU_LT_1:
                bracket = (t_l, t_u)
        if regime in (_SUBCASE_B, _NU_EQ_1_PLUS_THETA):
            candidates = (0.0, s.l_n)  # the stationary point is a minimum
        elif callable(roots):
            candidates = (s.l_n,)  # the cap test's
        else:
            # the last root is the maximum; without one the surplus falls
            candidates = (min(_exp(roots[-1]), s.l_n),) if roots else (0.0,)
            if regime is _SUBCASE_A and s.pi_s > 0.0:
                candidates += (0.0, s.l_n)

    c = _surplus_scale(s, m)  # DomainError where the surplus overflows
    l_opt = candidates[0]
    if len(candidates) > 1:
        # max keeps the first of equal gains, so ties go to the smaller
        # loss; the gain at 0 is 0 exactly and needs no evaluation
        l_opt = max(sorted(set(candidates)), key=lambda l: _gain(s, l, c) if l else 0.0)
    return l_opt, roots, bracket


def solve_tradeoff(s: Scenario) -> TradeoffSolution:
    """Feasible optimum of the disclosure trade-off for one scenario.

    Finds the roots of ``h`` (module docstring) in ``t = log l``:

    * ``nu < 1``: ``h`` falls monotonically; its root lies between the
      crossing ``t_u`` of the two power terms and the point ``t_l`` where
      ``a*l**(nu-1) = a*l_u**(nu-1) + pi_s``.  A root at or past ``l_n``
      clamps the solution there, which ``h(log l_n) >= 0`` settles first.
    * ``nu == 1``: closed form ``((a - pi_s)/b)**(1/theta)`` when
      ``a > pi_s``, else the surplus only decreases and 0 is optimal.
    * ``1 < nu < 1 + theta``: ``h`` rises to a peak, then falls; when the
      peak is positive, a surplus minimum lies left of it and a maximum
      right of it, and the surplus is compared at every candidate
      including the endpoints.
    * ``nu > 1 + theta`` (and the boundary ``nu == 1 + theta``): ``h``
      rises, so the surplus has at most an interior minimum and only the
      endpoints compete.

    With ``pi_s == 0`` the only root in every regime but ``nu == 1 +
    theta`` is the crossing ``t_u``, which is the secure closed form, bit
    for bit.  The optimum is the candidate with the largest gain over
    ``l = 0`` (``model._gain``), ties going to the smaller loss; its
    status follows from where it sits, and its ``surplus`` is
    ``net_surplus`` there.  A sweep runs the same ``_setup`` once and
    ``_search`` once per price, so its points agree with this; where the
    ranking needs no root (the cap test, ``nu > 1 + theta``) only this
    function runs the root search.
    """
    setup = _setup(s)
    l_opt, roots, bracket = _search(s, setup, s.price)
    roots = roots() if callable(roots) else roots  # reported even where the ranking needed none
    bracket = tuple(map(_exp, bracket or ()))
    return TradeoffSolution(
        l_opt=l_opt,
        status=_status_for(l_opt, s.l_n),
        surplus=net_surplus(s, l_opt),
        critical_points=tuple(filter(_representable, map(_exp, roots))),
        regime=setup[0],
        bracket=bracket if bracket and all(map(_representable, bracket)) else None,
    )


def solve_discrete(s: Scenario, losses) -> tuple:
    """Best element of an increasing list of loss levels.

    Returns ``(index, loss, net surplus)``.  ``l = 0`` always competes
    implicitly; if it wins the returned index is None.  Levels are
    compared by their gain over ``l = 0`` (``model._gain``), ties going
    to the smaller loss.
    """
    seq = [float(l) for l in losses]
    for i, l in enumerate(seq):
        if not 0 < l <= s.l_n:
            raise ValidationError("losses", f"entry {i} ({l}) outside (0, {s.l_n}]")
        if i and l <= seq[i - 1]:
            raise ValidationError("losses", f"entries must be strictly increasing at index {i}")
    index, loss, best = None, 0.0, 0.0  # the gain at l = 0
    for i, l in enumerate(seq):
        gain = _gain(s, l)
        if gain > best:
            index, loss, best = i, l, gain
    return index, loss, net_surplus(s, loss)


def _grid_points(name: str, n, cap: int) -> int:
    """Grid size ``n`` as an int; ValidationError naming ``name`` unless
    it is a whole number in ``[2, cap]``.  Integral floats such as ``1e6``
    and numpy integers pass."""
    try:
        whole = n == int(n)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, inf
        whole = False
    if not whole:
        raise ValidationError(name, f"must be a whole number, got {n!r}")
    if n < 2:
        raise ValidationError(name, "grid needs at least 2 points")
    if n > cap:
        raise ValidationError(name, f"grid is capped at {cap} points")
    return int(n)


def _grid_losses(index, s: Scenario, step: float, div: int):
    """The oracle's grid points at the float ``index`` array, in place.

    The same floats as ``numpy.linspace(0, l_n, div + 1)`` there, clipped
    to ``l_n``; the caller sets the point of index ``div`` to ``l_n``.
    """
    import numpy as np

    # numpy.linspace's two branches; the second keeps a subnormal l_n
    if step:
        index *= step
    else:
        index /= div
        index *= s.l_n
    # a subnormal step can round up, which takes linspace's last points past l_n
    return np.minimum(index, s.l_n, out=index)


def oracle_grid_argmax(s: Scenario, n: int) -> float:
    """Brute-force argmax of the net surplus on a uniform n-point grid.

    Validation oracle for solve_tradeoff; ties resolve to the first
    (smallest) grid point, matching the solver's tie rule, and a NaN
    value wins as it does in ``numpy.argmax``.  The grid holds the same
    floats as ``numpy.linspace(0, l_n, n)`` clipped to ``l_n``, and the
    result is the same float as that whole grid's argmax.  It uses no
    root or bracket of the solver, only the model's surplus and bounds.

    The grid is cut into sub-blocks of ``_SUB_BLOCK`` points.  One
    ``model._surplus_bounds`` call evaluates the surplus at their end
    points, grid points all, so the largest of those values, the
    threshold, is one the grid attains; from the same terms it bounds the
    surplus over each sub-block, and a sub-block is skipped when its bound
    plus a slack lies strictly below the threshold.  The kept ones are
    walked in blocks of at most ``ORACLE_BLOCK`` points, one
    ``net_surplus`` call each on the block's grid, keeping each block's
    first maximum and then the first block holding the overall one.  So
    memory is O(block), not O(n).

    The slack is ``64 eps S``, with ``S = C + C alpha_n + (pi_s + k) l_n``
    from ``_surplus_bounds``, the largest magnitude any term of a value
    or a bound can have.  Values and bounds take their powers ``r^e =
    exp(e log r)`` from the same rounded ratio ``r = x/l_n``.  numpy's
    float64 ``log`` and ``exp`` err by under 4 ulp (libm's by under 1),
    and ``exp`` turns the relative error of ``e log r`` into an absolute
    one of at most ``|e log r| r^e <= 1/e`` times it, so a power is off
    by under 6 eps; the products and sums after it add a few half-ulps
    of ``S``.  A computed value or bound thus lies within ``8 eps S`` of
    its exact counterpart, and two evaluations of one point differ by at
    most twice that.  A point of a skipped sub-block then evaluates below
    its exact bound plus ``8 eps S``, below the computed bound plus
    ``16 eps S``, below the threshold less ``48 eps S``, and below the
    walk's own value at the threshold's point less ``32 eps S``: strictly
    below a value the walk sees, with a factor two to spare.  So skipping
    moves neither the argmax nor its first-index ties.  The oracle walks
    the whole grid instead when the step underflows to 0 (a subnormal
    ``l_n``), when the threshold, a bound or the slack is not finite, or
    when the slack is below the smallest normal float, where rounding
    errs in absolute terms.
    """
    n = _grid_points("n", n, MAX_ORACLE_POINTS)
    import numpy as np

    div = n - 1
    step = s.l_n / div
    spans = [(start, min(start + ORACLE_BLOCK, n)) for start in range(0, n, ORACLE_BLOCK)]
    if step:
        subs = -(-n // _SUB_BLOCK)
        ends = np.arange(subs + 1, dtype=np.float64) * _SUB_BLOCK
        ends[-1] = div  # the last grid point, not an index past it
        _grid_losses(ends, s, step, div)[-1] = s.l_n
        at_ends, bounds, scale = _surplus_bounds(s, ends)
        threshold = at_ends.max()
        slack = 64 * sys.float_info.epsilon * scale
        if math.isfinite(threshold) and sys.float_info.min <= slack < math.inf and np.isfinite(bounds).all():
            spans = []
            for j in np.flatnonzero(bounds + slack >= threshold).tolist():
                start = j * _SUB_BLOCK
                stop = min(start + _SUB_BLOCK, n)
                if spans and spans[-1][1] == start and stop - spans[-1][0] <= ORACLE_BLOCK:
                    start = spans.pop()[0]  # join the block that ends here
                spans.append((start, stop))
    points, values = [], []
    for start, stop in spans:
        grid = _grid_losses(np.arange(start, stop, dtype=np.float64), s, step, div)
        if stop == n:
            grid[-1] = s.l_n
        block = net_surplus(s, grid)
        i = int(np.argmax(block))
        points.append(grid[i])
        values.append(block[i])
    # each block's first maximum, then the first block holding the overall one
    return float(points[int(np.argmax(values))])
