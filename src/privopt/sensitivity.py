"""Discrete sensitivity measurements and parameter sweeps.

Driving factors split into two groups.  Factors carrying a unit of
measure (q_star, p_star, price, l_n) get a discrete elasticity,

    eps_x = (dl*/l*) / (dx/x),

measured by re-solving the trade-off with the factor changed by a
relative step.  Dimensionless factors (nu, theta, pi_s, pi_c_star) live
on fixed scales, so they get a quasi-elasticity instead,

    qeps_x = (dl*/l*) / dx,

measured at an absolute new value.  A tornado table ranks factors by the
larger magnitude of their two one-sided measurements.  Sweeps re-solve
the scenario on a price grid; each grid point is an independent pure
solve, so evaluation order never changes the output.  A sweep checks its
whole grid once and sets up the price-free half of the solve once
(``solver._setup``); each price then costs only the per-price step
(``solver._search``), which takes the price as an argument, so no point
copies or re-validates the scenario.  ``price_sweep`` is that loop; the
revenue and OLR sweeps read its series, and the OLR sweep's
secure-provider column is the same step on one ``pi_s = 0`` copy of the
scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import DomainError, UsageError, ValidationError
from .model import Scenario, _cap_risk, _quotient, demand_quantity, marginal_demand_factor
# unused here, but perfbench/tracing.py resolves this name and exits if it is gone
from .secure import secure_feasible_loss  # noqa: F401
from .solver import Regime, SolutionStatus, _grid_points, _search, _setup, _status_for, classify_regime, solve_tradeoff

__all__ = [
    "SensitivityKind",
    "SensitivityEntry",
    "SweepSeries",
    "DIMENSIONAL_FACTORS",
    "DIMENSIONLESS_FACTORS",
    "DEFAULT_TORNADO_PLAN",
    "discrete_elasticity",
    "discrete_quasi_elasticity",
    "tornado",
    "price_sweep",
    "revenue_sweep",
    "olr_sweep",
    "saturation_price",
    "default_price_grid",
]

DIMENSIONAL_FACTORS = ("q_star", "p_star", "price", "l_n")
DIMENSIONLESS_FACTORS = ("nu", "theta", "pi_s", "pi_c_star")

#: Largest price grid a sweep accepts; every point costs one ``solver._search`` step.
MAX_SWEEP_POINTS = 10**5

#: Factor, low perturbation, high perturbation.  Dimensional rows carry
#: relative steps; dimensionless rows carry absolute replacement values.
DEFAULT_TORNADO_PLAN = (
    ("q_star", -0.10, 0.10),
    ("p_star", -0.10, 0.10),
    ("price", -0.10, 0.10),
    ("l_n", -0.10, 0.10),
    ("nu", 0.1, 0.2),
    ("theta", 0.1, 0.2),
    ("pi_s", 5e-5, 2e-4),
    ("pi_c_star", 5e-5, 2e-4),
)


class SensitivityKind(str, Enum):
    ELASTICITY = "ELASTICITY"
    QUASI_ELASTICITY = "QUASI_ELASTICITY"


@dataclass(frozen=True)
class SensitivityEntry:
    """One one-sided sensitivity measurement.

    ``delta`` is the relative step for dimensional factors and the signed
    absolute change for dimensionless ones.  ``mixed_status`` flags that
    the perturbed solve landed in a different status than the base solve
    (for instance interior versus clamped), in which case the ratio mixes
    regimes and should be read with care.
    """

    factor: str
    delta: float
    value: float
    kind: SensitivityKind
    mixed_status: bool = False


@dataclass(frozen=True)
class SweepSeries:
    """Gridded solver output along one driving factor.

    ``saturation_price`` is the analytic threshold relevant to the sweep:
    the price below which the vulnerable-provider optimum sits at the cap
    for a price sweep, and the secure-side kink price for an OLR sweep.
    """

    factor: str
    grid: tuple[float, ...]
    l_opt: tuple[float, ...]
    revenue: tuple[float, ...]
    statuses: tuple[SolutionStatus, ...]
    olr: tuple[float, ...] | None = None
    saturation_price: float | None = None

    def __post_init__(self):
        _check_increasing(self.grid)
        n = len(self.grid)
        for name in ("l_opt", "revenue", "statuses", "olr"):
            series = getattr(self, name)
            if series is not None and len(series) != n:
                raise ValidationError(name, f"length {len(series)} != grid length {n}")


def _check_increasing(grid: tuple) -> None:
    """ValidationError on ``grid`` unless it increases strictly."""
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValidationError("grid", "must be strictly increasing")


def _solve_base(s: Scenario):
    base = solve_tradeoff(s)
    if base.status is SolutionStatus.AT_ZERO:
        raise UsageError("sensitivity needs a base solution with a positive optimum")
    return base


def _perturbed(s: Scenario, factor: str, new_value: float) -> Scenario:
    try:
        s2 = replace(s, **{factor: new_value})
    except ValidationError as exc:
        raise DomainError(f"perturbation makes the scenario invalid: {exc}") from exc
    if s2.price >= s2.p_star:
        raise DomainError(
            f"perturbation pushes price ({s2.price}) to or above p_star ({s2.p_star})"
        )
    return s2


def _measure(s: Scenario, base, factor: str, step: float, kind: SensitivityKind) -> SensitivityEntry:
    """One one-sided measurement against the base solution.

    ``step`` is the relative change for an elasticity and the new
    absolute value for a quasi-elasticity.  ``base`` is solved here when
    None, after the arguments are checked.
    """
    if kind is SensitivityKind.ELASTICITY:
        if factor not in DIMENSIONAL_FACTORS:
            raise DomainError(f"{factor!r} is not a dimensional factor {DIMENSIONAL_FACTORS}")
        if step == 0.0:
            raise DomainError("rel_delta must be nonzero")
        new_value, delta = getattr(s, factor) * (1.0 + step), step
    else:
        if factor not in DIMENSIONLESS_FACTORS:
            raise DomainError(f"{factor!r} is not a dimensionless factor {DIMENSIONLESS_FACTORS}")
        new_value, delta = step, step - getattr(s, factor)
        if delta == 0.0:
            raise DomainError("new_value must differ from the current value")
    if base is None:
        base = _solve_base(s)
    s2 = _perturbed(s, factor, new_value)
    sol2 = solve_tradeoff(s2)
    value = ((sol2.l_opt - base.l_opt) / base.l_opt) / delta
    if not math.isfinite(value):
        raise DomainError(f"{factor} sensitivity overflows at the base optimum {base.l_opt!r}")
    return SensitivityEntry(
        factor=factor,
        delta=delta,
        value=value,
        kind=kind,
        mixed_status=sol2.status is not base.status,
    )


def discrete_elasticity(s: Scenario, factor: str, rel_delta: float) -> SensitivityEntry:
    """Relative response of the optimum to a relative change of a factor."""
    return _measure(s, None, factor, rel_delta, SensitivityKind.ELASTICITY)


def discrete_quasi_elasticity(s: Scenario, factor: str, new_value: float) -> SensitivityEntry:
    """Relative response of the optimum per absolute change of a factor."""
    return _measure(s, None, factor, new_value, SensitivityKind.QUASI_ELASTICITY)


def tornado(s: Scenario, plan) -> list:
    """Two-sided sensitivity table sorted by descending bar size.

    Each plan row is ``(factor, low, high)``; dimensional factors take
    relative steps, dimensionless ones absolute values.  The base
    scenario is solved once for the whole table.  Returns a list of
    ``(minus_entry, plus_entry)`` pairs, largest ``max(|minus|, |plus|)``
    first, so the biggest bar sits on top.
    """
    base = _solve_base(s)
    pairs = []
    for factor, low, high in plan:
        kind = (
            SensitivityKind.ELASTICITY if factor in DIMENSIONAL_FACTORS
            else SensitivityKind.QUASI_ELASTICITY
        )
        pairs.append((_measure(s, base, factor, low, kind), _measure(s, base, factor, high, kind)))
    pairs.sort(key=lambda pair: max(abs(pair[0].value), abs(pair[1].value)), reverse=True)
    return pairs


def default_price_grid(s: Scenario, pmin: float = 0.0, pmax: float | None = None, points: int = 201) -> tuple:
    """Uniform price grid, by default 201 points on [0, 0.99 p_star].

    Point ``i`` is ``pmin + i*step`` and the last point is ``pmax``, the
    same floats ``numpy.linspace`` gives; like it, a step that underflows
    to 0 makes point ``i`` ``pmin + i/(points-1) * (pmax-pmin)``.
    """
    if pmax is None:
        pmax = 0.99 * s.p_star
    points = _grid_points("points", points, MAX_SWEEP_POINTS)
    if not 0 <= pmin < pmax:
        raise ValidationError("pmin", f"need 0 <= pmin < pmax, got [{pmin}, {pmax}]")
    if pmax >= s.p_star:
        raise ValidationError("pmax", f"must stay below p_star ({s.p_star})")
    pmin, pmax = float(pmin), float(pmax)
    div, delta = points - 1, pmax - pmin
    step = delta / div
    return tuple(pmin + (i * step if step else i / div * delta) for i in range(div)) + (pmax,)


def price_sweep(s: Scenario, grid) -> SweepSeries:
    """Optimal loss and provider revenue across a price grid.

    The grid is checked once, as a whole, before any solve: every price
    becomes a float with ``0 <= p < p_star``, a comparison that NaN fails
    too, and the prices must increase strictly.  The price-free half of
    the solve, ``solver._setup``, runs once; each price then costs one
    ``_search`` step.  Neither that step nor the revenue ``p q(p)`` reads
    ``s.price``, so no point copies ``s``.  For ``nu < 1`` the loss series
    is non-increasing in the price: a flat stretch at the cap below the
    saturation price, strictly falling above it.
    """
    grid = tuple(float(p) for p in grid)
    p_star = s.p_star
    if not all(0.0 <= p < p_star for p in grid):
        raise ValidationError("grid", f"prices must lie in [0, {p_star})")
    _check_increasing(grid)
    setup = _setup(s)
    l_opt, revenue, statuses = [], [], []
    for p in grid:
        l = _search(s, setup, p)[0]
        l_opt.append(l)
        statuses.append(_status_for(l, s.l_n))
        revenue.append(p * demand_quantity(s, marginal_demand_factor(s, l), p))
    return SweepSeries(
        factor="price",
        grid=grid,
        l_opt=tuple(l_opt),
        revenue=tuple(revenue),
        statuses=tuple(statuses),
        saturation_price=saturation_price(s) if setup[0] is Regime.NU_LT_1 else None,
    )


def revenue_sweep(s: Scenario, grid) -> tuple:
    """Price sweep plus the grid price maximising provider revenue."""
    series = price_sweep(s, grid)
    if not series.grid:
        raise ValidationError("grid", "needs at least one price")
    argmax_price = series.grid[series.revenue.index(max(series.revenue))]
    return series, argmax_price


def olr_sweep(s: Scenario, grid) -> SweepSeries:
    """Optimal Loss Ratio across a price grid.

    Requires a vulnerable provider (``pi_s > 0``), otherwise the ratio is
    identically 1.  The vulnerable column is ``price_sweep``'s, and the
    secure-side optimum of each point is the same per-price step on one
    copy of ``s`` with ``pi_s = 0``, which equals ``secure_feasible_loss``
    there.  The reported saturation price is the kink where the
    secure-side optimum leaves the cap; below both saturation points the
    ratio is exactly 1.  Grid points where the ratio is undefined, as in
    ``optimal_loss_ratio`` (a vulnerable optimum of 0, or a ratio beyond
    the float range), yield NaN.
    """
    if s.pi_s <= 0.0:
        raise UsageError("OLR sweep needs pi_s > 0; the ratio is identically 1 otherwise")
    series = price_sweep(s, grid)
    secure = replace(s, pi_s=0.0)
    setup = _setup(secure)
    ratios = (
        _search(secure, setup, p)[0] / l if l > 0 else math.nan
        for p, l in zip(series.grid, series.l_opt)
    )
    olr = tuple(r if r < math.inf else math.nan for r in ratios)
    kink = saturation_price(secure) if setup[0] is Regime.NU_LT_1 else None
    return replace(series, olr=olr, saturation_price=kink)


def saturation_price(s: Scenario) -> float:
    """Largest price at which the optimum still sits at the cap ``l_n``.

    Derived from the gradient at ``l_n`` being nonnegative::

        p_sat = p* (1 - sqrt([pi_s + (1-pi_s) pi_c* (1+theta)] * 2 l_n
                             / (alpha_n q* p* nu)))

    clamped to ``[0, p*]``.  Only meaningful in the monotone ``nu < 1``
    regime.  The ratio under the root comes from ``model._quotient``, so
    no product on the way loses digits to under- or overflow.
    """
    if classify_regime(s) is not Regime.NU_LT_1:
        raise UsageError("saturation price applies to the nu < 1 regime only")
    ratio = _quotient((_cap_risk(s), 2.0, s.l_n), (s.alpha_n, s.q_star, s.p_star, s.nu))
    p_sat = s.p_star * (1.0 - math.sqrt(ratio))
    return float(min(max(p_sat, 0.0), s.p_star))
