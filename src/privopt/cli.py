"""Command-line interface: scenario files in, reports and plot data out.

Commands::

    solve           optimal loss, status, surplus, feasibility
    feasibility     existence/uniqueness report only
    sweep-price     l* and revenue across a price grid
    sweep-revenue   price sweep plus the revenue-maximising price
    sweep-olr       Optimal Loss Ratio across a price grid
    tornado         two-sided sensitivity table, largest bar first
    secure          breach-proof-provider optimum, OLR and elasticities
    pareto-nu       privacy exponent from a benefit/loss fraction pair
    solve-discrete  best level from the scenario's discrete loss list
    oracle-check    compare the solver against the brute-force grid oracle

Scenario files are JSON objects holding the nine model parameters plus
optional ``sweep`` (grid spec), ``tornado`` (plan rows) and ``losses``
(discrete levels) blocks.  Machine-readable output is written only when
``--out`` is given: JSON mirrors the report bundle, CSV is plot-ready.

Exit codes: 0 success, 1 usage error, 2 scenario parse error,
3 validation error, 4 numeric failure, 5 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone
from enum import Enum

from . import __version__
from .errors import (
    ClosedFormInapplicableError,
    DomainError,
    NumericError,
    PrivoptError,
    UsageError,
    ValidationError,
)
from .model import Scenario, _gain, pareto_privacy_parameter
from .secure import (
    optimal_loss_ratio,
    secure_elasticities,
    secure_feasible_loss,
    secure_optimal_loss,
    secure_quasi_elasticities,
)
from .sensitivity import (
    DEFAULT_TORNADO_PLAN,
    DIMENSIONAL_FACTORS,
    DIMENSIONLESS_FACTORS,
    SensitivityEntry,
    SweepSeries,
    default_price_grid,
    olr_sweep,
    price_sweep,
    revenue_sweep,
    tornado,
)
from .solver import (
    FeasibilityReport,
    TradeoffSolution,
    feasibility_report,
    normalized_gradient,
    oracle_grid_argmax,
    solve_discrete,
    solve_tradeoff,
)

__all__ = ["ScenarioFile", "ReportBundle", "load_scenario", "run_command", "write_report", "main"]

SCENARIO_KEYS = tuple(f.name for f in fields(Scenario))
OPTIONAL_BLOCKS = ("sweep", "tornado", "losses")
SWEEP_KEYS = ("pmin", "pmax", "points")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario file: one Scenario plus optional analysis blocks."""

    scenario: Scenario
    sweep: dict | None = None
    tornado_plan: tuple | None = None
    losses: tuple | None = None
    digest: str | None = None


@dataclass
class ReportBundle:
    """Everything one command produced, in machine-readable form."""

    command: str
    scenario: Scenario | None = None
    solution: TradeoffSolution | None = None
    feasibility: FeasibilityReport | None = None
    sweep: SweepSeries | None = None
    tornado_pairs: tuple[tuple[SensitivityEntry, SensitivityEntry], ...] | None = None
    summary: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        pairs = self.tornado_pairs
        out = {name: _encode(getattr(self, name)) for name in _BUNDLE_PARTS}
        out.update(
            command=self.command,
            tornado=None if pairs is None else [
                {"minus": _encode(m), "plus": _encode(p)} for m, p in pairs
            ],
            summary=dict(self.summary),
            metadata=dict(self.metadata),
        )
        return out


#: Bundle fields that are dataclasses, serialised under their own names.
_BUNDLE_PARTS = ("scenario", "solution", "feasibility", "sweep")


def _encode(value):
    """Dataclasses become dicts of their fields, enums their values, tuples lists."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# scenario loading


def _number(name: str, value, whole: bool = False) -> float:
    """A finite JSON number (not a bool), optionally integral, as a float."""
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


def load_scenario(path: str) -> ScenarioFile:
    """Parse and validate a scenario file.

    Raises json.JSONDecodeError or OSError for unreadable/unparsable
    files (exit 2 at the CLI) and ValidationError naming the offending
    field otherwise (exit 3).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    data = json.loads(raw.decode("utf-8"))
    if not isinstance(data, dict):
        raise ValidationError("document", "scenario file must hold a single JSON object")

    unknown = sorted(set(data) - set(SCENARIO_KEYS) - set(OPTIONAL_BLOCKS))
    if unknown:
        raise ValidationError(unknown[0], "unknown key")
    missing = sorted(set(SCENARIO_KEYS) - set(data))
    if missing:
        raise ValidationError(", ".join(missing), "missing required key(s)")

    scenario = Scenario(**{key: _number(key, data[key]) for key in SCENARIO_KEYS})

    sweep = None
    if "sweep" in data:
        block = data["sweep"]
        if not isinstance(block, dict):
            raise ValidationError("sweep", "must be an object")
        bad = sorted(set(block) - set(SWEEP_KEYS))
        if bad:
            raise ValidationError(f"sweep.{bad[0]}", "unknown key")
        for key, value in block.items():
            _number(f"sweep.{key}", value, whole=key == "points")
        sweep = {k: block[k] for k in SWEEP_KEYS if k in block}

    plan = None
    if "tornado" in data:
        rows = data["tornado"]
        if not isinstance(rows, list):
            raise ValidationError("tornado", "must be a list of [factor, low, high] rows")
        if not rows:
            raise ValidationError("tornado", "must hold at least one row")
        parsed = []
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 3):
                raise ValidationError(f"tornado[{i}]", "must be a [factor, low, high] triple")
            factor, low, high = row
            if factor not in DIMENSIONAL_FACTORS + DIMENSIONLESS_FACTORS:
                raise ValidationError(f"tornado[{i}]", f"unknown factor {factor!r}")
            parsed.append((factor, _number(f"tornado[{i}]", low), _number(f"tornado[{i}]", high)))
        plan = tuple(parsed)

    losses = None
    if "losses" in data:
        seq = data["losses"]
        if not isinstance(seq, list):
            raise ValidationError("losses", "must be a list of numbers")
        losses = tuple(_number(f"losses[{i}]", x) for i, x in enumerate(seq))

    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    return ScenarioFile(
        scenario=scenario, sweep=sweep, tornado_plan=plan, losses=losses, digest=digest
    )


# ---------------------------------------------------------------------------
# command handlers


def _metadata(sf: ScenarioFile | None, args) -> dict:
    return {
        "tool": "privopt",
        "version": __version__,
        "timestamp": None
        if getattr(args, "no_timestamp", False)
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "input_digest": sf.digest if sf is not None else None,
    }


def _grid_from(sf: ScenarioFile, args) -> tuple:
    spec = dict(sf.sweep or {})
    for key in SWEEP_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            spec[key] = override
    return default_price_grid(
        sf.scenario,
        pmin=spec.get("pmin", 0.0),
        pmax=spec.get("pmax"),
        points=int(spec.get("points", 201)),
    )


def _clean(value):
    """NaN is not representable in interchange JSON; map it to None."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _cmd_solve(sf, args, out):
    s = sf.scenario
    sol = solve_tradeoff(s)
    rep = feasibility_report(s)
    residual = normalized_gradient(s, sol.l_opt) if sol.l_opt > 0 else 0.0
    out.write(f"regime            {sol.regime.value}\n")
    out.write(f"l_opt             {sol.l_opt:.6g}\n")
    out.write(f"status            {sol.status.value}\n")
    out.write(f"surplus           {sol.surplus:.6g}\n")
    out.write(f"gradient residual {residual:.3e} (normalized)\n")
    out.write(f"unique guaranteed {rep.guaranteed_unique}\n")
    return ReportBundle(
        command="solve",
        scenario=s,
        solution=sol,
        feasibility=rep,
        summary={"normalized_gradient": residual},
    )


def _cmd_feasibility(sf, args, out):
    s = sf.scenario
    rep = feasibility_report(s)
    out.write(f"regime            {rep.regime.value}\n")
    for cond in rep.conditions:
        state = "satisfied" if cond.satisfied else "violated"
        out.write(f"condition         {cond.name}: bound {cond.bound:.6g} ({state})\n")
    out.write(f"unique guaranteed {rep.guaranteed_unique}\n")
    return ReportBundle(command="feasibility", scenario=s, feasibility=rep)


def _cmd_sweep_price(sf, args, out):
    series = price_sweep(sf.scenario, _grid_from(sf, args))
    out.write(f"points            {len(series.grid)}\n")
    if series.saturation_price is not None:
        out.write(f"saturation price  {series.saturation_price:.6g}\n")
    out.write(f"l_opt range       [{min(series.l_opt):.6g}, {max(series.l_opt):.6g}]\n")
    summary = {"saturation_price": series.saturation_price}
    return ReportBundle(command="sweep-price", scenario=sf.scenario, sweep=series, summary=summary)


def _cmd_sweep_revenue(sf, args, out):
    series, best_price = revenue_sweep(sf.scenario, _grid_from(sf, args))
    out.write(f"points            {len(series.grid)}\n")
    out.write(f"revenue argmax p  {best_price:.6g}\n")
    if series.saturation_price is not None:
        out.write(f"saturation price  {series.saturation_price:.6g}\n")
    summary = {
        "revenue_argmax_price": best_price,
        "saturation_price": series.saturation_price,
    }
    return ReportBundle(command="sweep-revenue", scenario=sf.scenario, sweep=series, summary=summary)


def _cmd_sweep_olr(sf, args, out):
    series = olr_sweep(sf.scenario, _grid_from(sf, args))
    olr = [x for x in series.olr if not math.isnan(x)]
    out.write(f"points            {len(series.grid)}\n")
    if olr:
        out.write(f"olr range         [{min(olr):.6g}, {max(olr):.6g}]\n")
    else:
        out.write("olr range         undefined (vulnerable optimum 0 everywhere)\n")
    if series.saturation_price is not None:
        out.write(f"secure-side kink  {series.saturation_price:.6g}\n")
    series = replace(series, olr=tuple(_clean(x) for x in series.olr))
    summary = {"kink_price": series.saturation_price}
    return ReportBundle(command="sweep-olr", scenario=sf.scenario, sweep=series, summary=summary)


def _cmd_tornado(sf, args, out):
    plan = DEFAULT_TORNADO_PLAN if sf.tornado_plan is None else sf.tornado_plan
    pairs = tuple(tornado(sf.scenario, plan))
    width = max(len(m.factor) for m, _ in pairs)
    for minus, plus in pairs:
        flag = " *" if (minus.mixed_status or plus.mixed_status) else ""
        out.write(
            f"{minus.factor:<{width}}  -:{minus.value:>12.4g}  +:{plus.value:>12.4g}{flag}\n"
        )
    if any(m.mixed_status or p.mixed_status for m, p in pairs):
        out.write("(* perturbation changed the solution status)\n")
    return ReportBundle(command="tornado", scenario=sf.scenario, tornado_pairs=pairs)


def _cmd_secure(sf, args, out):
    s = sf.scenario
    summary = {}
    try:
        raw, clamped = secure_optimal_loss(s)
        summary["secure_l_raw"] = raw if raw < math.inf else None  # overflowed
        summary["secure_l_clamped"] = clamped
        if s.price < s.p_star:
            summary.update(asdict(secure_elasticities(s)), **asdict(secure_quasi_elasticities(s)))
    except ClosedFormInapplicableError:
        summary["secure_l_clamped"] = secure_feasible_loss(s)
        summary["closed_form"] = "inapplicable (nu >= 1 + theta); solver fallback used"
    try:
        summary["olr"] = optimal_loss_ratio(s)
    except DomainError:
        summary["olr"] = None
    for key, value in summary.items():
        if isinstance(value, float):
            out.write(f"{key:<18}{value:.6g}\n")
        else:
            out.write(f"{key:<18}{value}\n")
    return ReportBundle(command="secure", scenario=s, summary=summary)


def _cmd_pareto_nu(sf, args, out):
    nu = pareto_privacy_parameter(args.benefit, args.loss)
    out.write(f"nu                {nu:.6f}\n")
    return ReportBundle(
        command="pareto-nu",
        summary={"benefit_fraction": args.benefit, "loss_fraction": args.loss, "nu": nu},
    )


def _cmd_solve_discrete(sf, args, out):
    if not sf.losses:
        raise ValidationError("losses", "scenario file must provide a losses block")
    index, loss, surplus = solve_discrete(sf.scenario, sf.losses)
    shown = "none (l = 0 wins)" if index is None else str(index)
    out.write(f"chosen index      {shown}\n")
    out.write(f"loss              {loss:.6g}\n")
    out.write(f"surplus           {surplus:.6g}\n")
    return ReportBundle(
        command="solve-discrete",
        scenario=sf.scenario,
        summary={"index": index, "loss": loss, "surplus": surplus, "candidates": len(sf.losses)},
    )


def _cmd_oracle_check(sf, args, out):
    s = sf.scenario
    n = 1_000_000 if args.grid is None else args.grid
    sol = solve_tradeoff(s)
    grid_best = oracle_grid_argmax(s, n)
    tolerance = 2.0 * s.l_n / (n - 1)
    diff = abs(sol.l_opt - grid_best)
    # a far-off grid point whose gain is no larger is a tie, not a miss
    agrees = diff <= tolerance or _gain(s, sol.l_opt) >= _gain(s, grid_best)
    out.write(f"solver l_opt      {sol.l_opt:.10g}\n")
    out.write(f"oracle argmax     {grid_best:.10g}\n")
    out.write(f"|difference|      {diff:.3e} (tolerance {tolerance:.3e})\n")
    out.write(f"agreement         {'yes' if agrees else 'NO'}\n")
    if not agrees:
        raise NumericError(
            f"solver and {n}-point grid oracle disagree: |{sol.l_opt} - {grid_best}| > {tolerance}"
        )
    return ReportBundle(
        command="oracle-check",
        scenario=s,
        solution=sol,
        summary={
            "grid_points": n,
            "oracle_argmax": grid_best,
            "abs_difference": diff,
            "tolerance": tolerance,
        },
    )


_HANDLERS = {
    "solve": _cmd_solve,
    "feasibility": _cmd_feasibility,
    "sweep-price": _cmd_sweep_price,
    "sweep-revenue": _cmd_sweep_revenue,
    "sweep-olr": _cmd_sweep_olr,
    "tornado": _cmd_tornado,
    "secure": _cmd_secure,
    "pareto-nu": _cmd_pareto_nu,
    "solve-discrete": _cmd_solve_discrete,
    "oracle-check": _cmd_oracle_check,
}
COMMANDS = tuple(_HANDLERS)


def run_command(command: str, scenario_file: ScenarioFile | None, args, out=None) -> ReportBundle:
    """Execute one command and return its report bundle.

    ``args`` is any namespace carrying the flags the command reads:
    ``grid`` for oracle-check, ``pmin``/``pmax``/``points`` for the
    sweeps, ``benefit``/``loss`` for pareto-nu, and ``no_timestamp``.  Errors surface as
    package exceptions; the CLI entry point maps them to exit codes.
    """
    if command not in _HANDLERS:
        raise UsageError(f"unknown command {command!r}")
    out = out or sys.stdout
    bundle = _HANDLERS[command](scenario_file, args, out)
    bundle.metadata = _metadata(scenario_file, args)
    return bundle


# ---------------------------------------------------------------------------
# report writing


def _format_csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sweep_rows(sw: SweepSeries):
    yield ["factor", "value", "l_opt", "revenue", "olr", "status"]
    for i, value in enumerate(sw.grid):
        olr = sw.olr[i] if sw.olr is not None else None
        yield [
            sw.factor,
            _format_csv_value(value),
            _format_csv_value(sw.l_opt[i]),
            _format_csv_value(sw.revenue[i]),
            _format_csv_value(olr),
            sw.statuses[i].value,
        ]


def _tornado_rows(pairs):
    yield ["factor", "kind", "delta", "value", "mixed_status"]
    for minus, plus in pairs:
        for entry in (minus, plus):
            yield [
                entry.factor,
                entry.kind.value,
                _format_csv_value(entry.delta),
                _format_csv_value(entry.value),
                str(entry.mixed_status).lower(),
            ]


def _scalar_rows(bundle: ReportBundle):
    yield ["key", "value"]
    if bundle.solution is not None:
        sol = bundle.solution
        yield ["l_opt", _format_csv_value(sol.l_opt)]
        yield ["status", sol.status.value]
        yield ["surplus", _format_csv_value(sol.surplus)]
        yield ["regime", sol.regime.value]
    for key, value in bundle.summary.items():
        yield [key, _format_csv_value(value)]


def render_report(bundle: ReportBundle, fmt: str) -> str:
    """Serialize a bundle; JSON mirrors the bundle, CSV is tabular.

    JSON is strict: a non-finite value raises NumericError (exit 4)
    rather than being written as ``Infinity`` or ``NaN``.
    """
    if fmt == "json":
        try:
            return json.dumps(bundle.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise NumericError(f"report holds a non-finite value ({exc})") from exc
    if fmt != "csv":
        raise UsageError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if bundle.sweep is not None:
        writer.writerows(_sweep_rows(bundle.sweep))
    elif bundle.tornado_pairs is not None:
        writer.writerows(_tornado_rows(bundle.tornado_pairs))
    else:
        writer.writerows(_scalar_rows(bundle))
    return buf.getvalue()


def write_report(bundle: ReportBundle, fmt: str, path: str) -> None:
    """Write the machine-readable artifact; OSError maps to exit 5 and a
    non-finite JSON value to exit 4, before the file is opened."""
    text = render_report(bundle, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# entry point


#: Package errors raised while running a command or writing its report, in
#: the order they are matched: (error classes, stderr label, exit code).
_FAILURES = (
    (NumericError, "numeric failure", EXIT_NUMERIC),
    ((ValidationError, DomainError), "validation error", EXIT_VALIDATION),
    ((UsageError, ClosedFormInapplicableError), "usage error", EXIT_USAGE),
    (PrivoptError, "error", EXIT_VALIDATION),
)


class _UsageExit(Exception):
    """A command-line usage error raised in place of argparse's exit(2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for parse errors only
        raise _UsageExit(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="privopt", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name, add_help=True)
        if name == "pareto-nu":
            p.add_argument("--benefit", type=float, required=True,
                           help="benefit fraction in (0, 1)")
            p.add_argument("--loss", type=float, required=True,
                           help="loss fraction in (0, 1)")
        else:
            p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", help="write a machine-readable report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "oracle-check":
            p.add_argument("--grid", type=int, help="grid points for oracle-check")
        if name.startswith("sweep-"):
            p.add_argument("--pmin", type=float, help="sweep grid lower price")
            p.add_argument("--pmax", type=float, help="sweep grid upper price (< p_star)")
            p.add_argument("--points", type=int, help="sweep grid size")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-identical reruns")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    scenario_file = None
    try:
        if args.command != "pareto-nu":
            scenario_file = load_scenario(args.scenario)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"scenario parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"scenario validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        bundle = run_command(args.command, scenario_file, args)
        if args.out:
            try:
                write_report(bundle, args.format, args.out)
            except OSError as exc:
                print(f"cannot write report: {exc}", file=sys.stderr)
                return EXIT_IO
    except PrivoptError as exc:
        label, code = next((label, code) for classes, label, code in _FAILURES if isinstance(exc, classes))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
