"""Trade-off solver for the optimal potential loss.

The first-order condition for an interior optimum is the decision
equation ``a * l**(nu-1) = pi_s + b * l**theta``.  The solver works on
its log-ratio form in ``t = log l``, which ``model`` builds::

    h(t) = la + (nu-1) t - logaddexp(log pi_s, lb + theta t)

where ``la = log a`` and ``lb = log b`` come straight from the scenario
parameters, so every quantity stays finite however far the optimum sits
from 1.  ``h`` has the sign of the surplus gradient, is concave, and its
slope lies between ``nu-1-theta`` and ``nu-1``.  A breach-proof
provider (``pi_s == 0``) is settled first: ``h`` is then linear, and
unless its slope is within ``REGIME_TOL`` of 0 its one root is the
secure closed form.  Otherwise each regime brackets its roots in closed
form, with ``|h| >= 1`` at every bracket end, and refines each root by
one Brent search in ``t``; or, for ``nu == 1`` and ``nu == 1 + theta``,
solves ``h = 0`` in closed form.  An absolute error in ``t`` is a relative error in ``l``:
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
    _quotient,
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

#: Most end points the oracle evaluates per net_surplus or _surplus_bounds
#: call: each pass reads its pieces' ends in chunks of as many whole rows
#: as fit, 126 rows of 65 ends in the last two passes.  Each chunk
#: allocates arrays of up to 64 KiB, its index and ends and the kernel's
#: two, and drops them before the next.  Larger chunks walk faster in a
#: fresh process (2**14 by ~15%), but where the heap keeps growing, as in
#: the analysis benchmark, glibc gives their freed arrays back to the
#: system and each call faults them in again: a 1e6-point call took 5, 63
#: and 169 minor page faults on average at 2**13, 2**14 and 2**15.
ORACLE_BLOCK = 1 << 13

#: Piece widths, in grid points, of the oracle's passes: the first cuts
#: the grid, each later one the pieces the pass before kept, and each
#: width divides the one before.  A piece is dropped when a bound proves
#: it holds no maximum; the last pass, one point wide, is the walk and
#: needs no bound.
_SUB_BLOCK = (1 << 12, 1 << 6, 1)


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
    against, None only where it lies beyond the float range.
    ``satisfied`` is the comparison with the value the formula gave."""

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


def _exponent_gap(s: Scenario) -> float:
    """``theta - nu + 1``: ``classify_regime`` places ``nu`` against ``1 +
    theta`` by it, and the crossing and the secure closed form divide by it."""
    return s.theta - s.nu + 1.0


def classify_regime(s: Scenario) -> Regime:
    """Unique regime tag; boundary equality uses REGIME_TOL, on ``|nu - 1|``
    and on ``|_exponent_gap(s)|``."""
    d = _exponent_gap(s)
    if abs(s.nu - 1.0) <= REGIME_TOL:
        return _NU_EQ_1
    if abs(d) <= REGIME_TOL:
        return _NU_EQ_1_PLUS_THETA
    if s.nu < 1.0:
        return _NU_LT_1
    if d > 0.0:
        return _SUBCASE_A
    return _SUBCASE_B


def feasibility_report(s: Scenario) -> FeasibilityReport:
    """Evaluate the regime's existence/uniqueness conditions numerically.

    For ``nu < 1`` a unique feasible solution always exists.  For
    ``nu > 1`` the reported bound is sufficient, not necessary: a unique
    solution requires the gradient to still be positive at ``l_n``, which
    caps ``l_n``.  For ``nu == 1`` existence and uniqueness of an interior
    solution is equivalent to ``l_n`` lying inside an open band, which
    has no upper edge when ``pi_s == 0``.  Each bound is one
    ``model._quotient`` of parameter products, exact to a few ulp.
    """
    regime = classify_regime(s)
    m = s.margin()
    risk = _cap_risk(s)
    if regime is _NU_LT_1:
        return FeasibilityReport(regime=regime, conditions=(), guaranteed_unique=True)
    if regime in (_SUBCASE_A, _SUBCASE_B):
        # alpha_n (q* p* nu / 2) m**2 / risk
        bound = _quotient((s.q_star, s.p_star, s.nu, 0.5, s.alpha_n, m**2), (risk,))
        cond = FeasibilityCondition("sufficient_l_n_upper_bound", bound, s.l_n < bound)
        return FeasibilityReport(regime=regime, conditions=(cond,), guaranteed_unique=cond.satisfied)
    if regime is _NU_EQ_1:
        base = (s.q_star, s.p_star, 0.5, m**2, s.alpha_n)  # (q* p* / 2) m**2 alpha_n
        lower = _quotient(base, (risk,))
        conditions = (FeasibilityCondition("band_lower_edge", lower, s.l_n > lower),)
        if s.pi_s > 0:  # with pi_s == 0 the band has no upper edge
            upper = _quotient(base, (s.pi_s,))
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
    """The price-free half of a solve: ``(regime, log parts, exponent gap)``."""
    return classify_regime(s), _log_parts(s), _exponent_gap(s)


def _best(s: Scenario, losses, c: float) -> float:
    """The first of the ascending ``losses`` with the largest gain over ``l
    = 0`` at the surplus scale ``c``: ties go to the smaller loss, as
    ``max`` keeps the first of equal keys, and the gain at 0 is 0 exactly
    and is not evaluated."""
    return max(losses, key=lambda l: _gain(s, l, c) if l else 0.0)


def _search(s: Scenario, setup: tuple, price: float) -> tuple:
    """``(l_opt, roots, bracket)`` of ``s`` at ``price`` from ``_setup(s)``,
    roots and bracket in ``t``, with ``solve_tradeoff``'s errors; ``s.price``
    is not read.  Each arm names what its ranking compares: the ends where a
    stationary point may be a minimum, and the maximum ``t_max``.  A root
    search the ranking does not read is left in ``roots`` unrun, for
    ``solve_tradeoff``: the cap test's, ``SUBCASE_A``'s minimum and
    ``nu > 1 + theta``'s."""
    regime, parts, d = setup
    m = _margin(s, price)
    if m == 0.0:
        # price at or above willingness-to-pay: only the loss term remains
        return 0.0, (), None
    h, la, lb, lp, lr = _decision_equation(s, parts, m)
    nu1, theta = s.nu - 1.0, s.theta
    roots, t_max, bracket, ends = (), None, None, ()
    if s.pi_s == 0.0 and abs(d) > REGIME_TOL:
        # breach-proof: h = lr - d*t, whose one root, the crossing of the two
        # power terms, is the secure closed form, bit for bit, and a maximum
        # where h falls (d > 0)
        t_u = lr / d
        roots = (t_u,)
        t_max, ends = (t_u, ()) if d > 0.0 else (None, (0.0, s.l_n))
        bracket = (t_u, t_u) if regime is _NU_LT_1 else None
    elif regime is _NU_EQ_1:
        if la > lp:
            t_max = (la + math.log(-math.expm1(lp - la)) - lb) / theta
            roots = (t_max,)
    elif regime is _NU_EQ_1_PLUS_THETA:
        # h = la - lb - log1p(pi_s / (b l**theta)) rises: its root is a minimum
        ends = (0.0, s.l_n)
        if la > lb and s.pi_s > 0.0:
            roots = ((lp - la - math.log(-math.expm1(lb - la))) / theta,)
    else:
        t_u = (la - lb) / d  # crossing of the two power terms
        if regime is _SUBCASE_A:
            ends = (0.0, s.l_n)  # the ends compete with the maximum
            t_peak = (lp + math.log(nu1 / d) - lb) / theta
            if h(t_peak) > 0.0:
                # h <= la + (nu-1) t - log pi_s and h <= la - lb - d t
                t_max = brentq(h, t_peak, t_u + 1.0 / d)
                roots = lambda: (brentq(h, (lp - la - 1.0) / nu1, t_peak), t_max)  # noqa: E731
        elif regime is _SUBCASE_B:
            # h rises: its root is a minimum; by the same bounds (d < 0) h <= -1
            # below lo, and h >= la + (nu-1) t - max(log pi_s, lb + theta t) - log 2
            # is at least 2 - log 2 above hi
            ends = (0.0, s.l_n)
            lo = max((lp - la - 1.0) / nu1, t_u + 1.0 / d)
            hi = max((lp - la + 2.0) / nu1, t_u - 2.0 / d)
            roots = lambda: (brentq(h, lo, hi),)  # noqa: E731
        else:
            # h >= 1 left of t_l - 1/(1-nu) and h <= -1 right of t_u + 1/d
            t_l = _logaddexp(nu1 * t_u, lp - la) / nu1
            bracket = (t_l, t_u)
            roots = lambda: (brentq(h, t_l + 1.0 / nu1, t_u + 1.0 / d),)  # noqa: E731
            t_max = math.inf  # the cap test: h(log l_n) >= 0, the surplus still rises at l_n
            if h(parts[1]) < 0.0:
                (t_max,) = roots = roots()
    # the maximum, capped at l_n; without one the surplus falls from l = 0
    candidates = ends + ((min(_exp(t_max), s.l_n),) if t_max is not None else (0.0,))
    c = _surplus_scale(s, m)  # DomainError where the surplus overflows
    l_opt = _best(s, sorted(set(candidates)), c) if len(candidates) > 1 else candidates[0]
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

    A breach-proof provider (``pi_s == 0``) comes first, in every regime:
    ``h = lr - d t`` is then linear, with ``d = theta - nu + 1``, and
    unless ``|d| <= REGIME_TOL`` its one root is the crossing ``lr / d``,
    the secure closed form, bit for bit.  So the searched regimes above
    see ``pi_s > 0`` only; ``nu == 1 + theta``, and ``nu == 1`` with so
    small a ``theta``, keep their own closed forms at ``pi_s == 0``.

    The optimum is the candidate with the largest gain over ``l = 0``
    (``model._gain``), ties going to the smaller loss; its status follows
    from where it sits, and its ``surplus`` is ``net_surplus`` there.  A
    sweep runs the same ``_setup`` once and ``_search`` once per price, so
    its points agree with this; where the ranking reads no root (the cap
    test, ``1 < nu < 1 + theta``'s minimum, ``nu > 1 + theta``) only this
    function runs the root search.
    """
    setup = _setup(s)
    l_opt, roots, bracket = _search(s, setup, s.price)
    roots = roots() if callable(roots) else roots  # reported even where the ranking read none
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
    loss = _best(s, [0.0] + seq, _surplus_scale(s, s.margin()))
    return (seq.index(loss) if loss else None), loss, net_surplus(s, loss)


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


def oracle_grid_argmax(s: Scenario, n: int) -> float:
    """Brute-force argmax of the net surplus on a uniform n-point grid.

    Validation oracle for solve_tradeoff; ties resolve to the first
    (smallest) grid point, matching the solver's tie rule, and a NaN
    value wins as it does in ``numpy.argmax``.  The grid holds the same
    floats as ``numpy.linspace(0, l_n, n)`` clipped to ``l_n``, and the
    result is the same float as that whole grid's argmax.  It uses no
    root or bracket of the solver, only the model's surplus and bounds.

    The search makes one pass per width of ``_SUB_BLOCK``: the first cuts
    the grid into pieces of 4,096 points, the second cuts each piece the
    first kept into pieces of 64, and the last cuts those into single
    points.  A pass evaluates its pieces' end points, grid points all, in
    chunks of about ``ORACLE_BLOCK`` ends, so memory is O(block) plus 8
    bytes per kept piece, not O(n).  The last pass is the walk: one
    ``net_surplus`` call per chunk, keeping each chunk's first maximum and
    then the first chunk holding the overall one.  The passes before it
    call ``model._surplus_bounds``, which evaluates the surplus at the
    ends and from the same terms bounds it over each piece.  The
    threshold is the largest value at any end of a trusted chunk so far,
    so it only rises and the grid attains it; a trusted chunk drops a
    piece when its bound plus a slack lies strictly below it.  A chunk
    whose bounds cannot be trusted keeps all its pieces: where the step
    underflows to 0 (a subnormal ``l_n``), where the chunk's top value or
    a bound is not finite, or where the slack is not finite or lies below
    the smallest normal float, so that rounding errs in absolute terms.

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
    most twice that.  The final threshold's point is evaluated by the
    last pass: it is an end of the piece whose points hold it (its first
    point, or the last point of the grid), and, as each width divides the
    one before, of that piece's piece at every later pass; there either
    the chunk keeps all its pieces, or the piece's bound covers the
    point's value within ``16 eps S``, so it is kept at any threshold up
    to the final one.  A point of a dropped piece evaluates below its
    exact bound plus ``8 eps S``, below the computed bound plus ``16 eps
    S``, below the threshold of its pass, so the final one, less ``48 eps
    S``, and below the last pass's own value at the final threshold's
    point less ``32 eps S``: strictly below a value the walk sees, with a
    factor two to spare.  So dropping moves neither the argmax nor its
    first-index ties.
    """
    n = _grid_points("n", n, MAX_ORACLE_POINTS)
    import numpy as np

    div = n - 1
    step = s.l_n / div
    kept, threshold = [np.zeros(1, dtype=np.int64)], -math.inf  # the whole grid, one piece
    points, values = [], []
    for width, w in zip((n,) + _SUB_BLOCK, _SUB_BLOCK):
        starts, kept = np.concatenate(kept), []
        cuts = np.arange(0, width + w, w)  # a kept piece's new ends, from its start
        rows = ORACLE_BLOCK // cuts.size
        for i in range(0, starts.size, rows):
            index = starts[i : i + rows, None] + cuts
            ends = np.minimum(index, div).astype(np.float64)
            # numpy.linspace's two branches; the second keeps a subnormal l_n
            if step:
                ends *= step
            else:
                ends /= div
                ends *= s.l_n
            # a subnormal step can round up, which takes linspace's last points past l_n
            np.minimum(ends, s.l_n, out=ends)
            ends[index >= div] = s.l_n
            if w == 1:  # one-point pieces need no bounds
                at_ends = net_surplus(s, ends).ravel()
                j = int(np.argmax(at_ends))
                points.append(ends.flat[j])
                values.append(at_ends[j])
                continue
            at_ends, bounds, scale = _surplus_bounds(s, ends)
            top = at_ends.max()
            slack = 64 * sys.float_info.epsilon * scale
            lows = index[:, :-1]
            # pieces past the grid go; a chunk whose bounds cannot be trusted keeps the rest
            keep = lows < n
            if step and math.isfinite(top) and sys.float_info.min <= slack < math.inf and np.isfinite(bounds).all():
                threshold = max(threshold, top)
                keep &= bounds + slack >= threshold
            kept.append(lows[keep])
    # each chunk's first maximum, then the first chunk holding the overall one
    return float(points[int(np.argmax(values))])
