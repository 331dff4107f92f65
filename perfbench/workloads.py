"""The three workloads: set-up, one op, output checks and per-layer metrics.

Each workload object is built from the seed (its set-up), hands out its
inputs in blocks (``inputs`` then ``more()``; a block is a whole number
of timing windows of ``window`` ops), runs one op on one input,
keeps what its checks need (``keep``), and checks the kept outputs after
the timed loop (``check``).  ``fixed()`` is the seed's fixed input set
used by the traced passes, so their counts repeat exactly.

The package is always called through module attributes
(``privopt.solver.solve_tradeoff`` rather than an imported name), so the
tracer's wrappers see the calls the benchmark makes.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

import privopt.cli
import privopt.secure
import privopt.sensitivity
import privopt.solver
from privopt import Scenario, net_surplus
from privopt.sensitivity import DEFAULT_TORNADO_PLAN, DIMENSIONAL_FACTORS

import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: Grid size of the output check, and the surplus shortfall it tolerates
#: as a share of the surplus scale.
CHECK_GRID = 2001
CHECK_TOL = 1e-12
#: Relative step of the local optimality probe around each answer.
LOCAL_STEP = 1e-4
ORACLE_POINTS = 1_000_000
#: Seconds a CLI process may take before it is killed and counted as failed.
CHILD_TIMEOUT = 120


def surplus_scale(s: Scenario) -> float:
    """Largest magnitude either surplus term can reach on [0, l_n]."""
    return 0.5 * s.p_star * s.q_star * (1.0 + s.alpha_n) * s.margin() ** 2 + (s.pi_s + s.pi_c_star) * s.l_n


def answer_ok(s: Scenario, l_opt: float) -> bool:
    """Whether ``l_opt`` is an argmax of the net surplus over [0, l_n].

    It must lie in [0, l_n] and its surplus must not fall short, by more
    than CHECK_TOL of the surplus scale, of the best point on a
    CHECK_GRID grid or of its neighbours a relative LOCAL_STEP away.
    """
    if not 0.0 <= l_opt <= s.l_n:
        return False
    probes = np.append(np.linspace(0.0, s.l_n, CHECK_GRID),
                       [l_opt * (1.0 - LOCAL_STEP), min(l_opt * (1.0 + LOCAL_STEP), s.l_n)])
    with np.errstate(all="ignore"):
        best = float(np.max(net_surplus(s, probes)))
        return net_surplus(s, l_opt) >= best - CHECK_TOL * surplus_scale(s)


class Result:
    """Outcome counts of one workload's checked ops.

    An op that misses its documented outcome is either ``failed`` or,
    when the miss is one of the seed commit's known defects (README,
    "Known defects"), ``known``.  Both count against ``ok_frac``; only
    ``failed`` is reported as failed ops, so a new failure stands out
    from the known ones.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.wrong = 0
        self.warned = 0
        self.reasons = Counter()
        self.known_reasons = Counter()

    def fail(self, reason: str, wrong: bool = False):
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] += 1

    def known_defect(self, reason: str):
        self.known += 1
        self.known_reasons[reason] += 1


def _error_reason(exc: BaseException) -> str:
    """Exception type and message with bracketed numbers elided, for grouping."""
    message = re.sub(r"\[[^]]*\]", "[...]", str(exc))
    return f"{type(exc).__name__}: {message[:80]}"


# ---------------------------------------------------------------------------
# solve-mix


class SolveMix:
    """``solve_tradeoff`` on distinct fuzzed scenarios in all five regimes."""

    block_size = 10_000
    window = 2000
    fixed_size = 3000
    #: Every SAMPLE-th answer gets the grid check; all get the range check.
    sample = 64

    def __init__(self, seed: int):
        self.stream = inputs.ScenarioStream(seed, self.block_size)
        self.inputs = self.stream.block()
        self.reset()

    def reset(self):
        self.result = Result()
        self.l_opt = array("d")
        self.l_n = array("d")
        self.sampled = []

    def more(self) -> list:
        return self.stream.block()

    def warm_inputs(self, seed: int) -> list:
        return inputs.ScenarioStream(seed + 7919, 2000).block()

    def fixed(self) -> list:
        return self.inputs[: self.fixed_size]

    def op(self, s):
        return privopt.solver.solve_tradeoff(s)

    def keep(self, i, s, out, warned):
        r = self.result
        r.attempted += 1
        r.warned += warned
        if isinstance(out, privopt.NumericError):
            r.known_defect(_error_reason(out))
            return
        if isinstance(out, Exception):
            r.fail(_error_reason(out))
            return
        self.l_opt.append(out.l_opt)
        self.l_n.append(s.l_n)
        if i % self.sample == 0:
            self.sampled.append((s, out.l_opt))

    def check(self) -> Result:
        r = self.result
        for l_opt, l_n in zip(self.l_opt, self.l_n):
            if not 0.0 <= l_opt <= l_n:
                r.fail("l_opt outside [0, l_n]", wrong=True)
        for s, l_opt in self.sampled:
            if 0.0 <= l_opt <= s.l_n and not answer_ok(s, l_opt):
                r.fail("l_opt not the argmax", wrong=True)
        return r

    def trace_metrics(self, fixed, tracer, warned, errors) -> dict:
        spans = tracer.spans
        own = tracing.self_times(spans)
        regime = [privopt.solver.classify_regime(s).value for s in fixed]
        solve_us = {name: [] for name in inputs.REGIMES}
        solve_self, surplus_us = [], []
        for sid, (name, start, end, parent, op) in enumerate(spans):
            if name == "solver.solve_tradeoff":
                solve_us[regime[op]].append((end - start) / 1e3)
                solve_self.append(own[sid] / 1e3)
            elif name == "model.net_surplus":
                surplus_us.append((end - start) / 1e3)
        n = len(fixed)
        out = {f"solver.solve_us.{k}": tracing.median_or_zero(v) for k, v in solve_us.items()}
        out.update({
            "solver.self_us_per_solve": tracing.median_or_zero(solve_self),
            "solver.root_calls_per_solve": tracer.counts["root_calls"] / n,
            "solver.root_fevals_per_solve": tracer.counts["root_fevals"] / n,
            "solver.errors": errors,
            "solver.warnings": warned,
            "model.net_surplus_calls_per_solve": len(surplus_us) / n,
            "model.net_surplus_us_per_call": tracing.median_or_zero(surplus_us),
        })
        return out


# ---------------------------------------------------------------------------
# analysis


class Analysis:
    """One scenario's analysis bundle per op, on paper-neighbourhood cases."""

    block_size = 100
    window = 4
    fixed_size = 4
    #: Sweep points per op that get the full answer check.
    sweep_sample = range(0, 201, 40)

    def __init__(self, seed: int):
        self.stream = inputs.ScenarioStream(seed, self.block_size, inputs.paper_params)
        self.inputs = self.stream.block()
        self.reset()

    def reset(self):
        self.result = Result()
        self.kept = []

    def more(self) -> list:
        return self.stream.block()

    def warm_inputs(self, seed: int) -> list:
        return inputs.ScenarioStream(seed + 7919, 3, inputs.paper_params).block()

    def fixed(self) -> list:
        return self.inputs[: self.fixed_size]

    def op(self, s):
        sens, sec = privopt.sensitivity, privopt.secure
        grid = sens.default_price_grid(s)
        sweep, _ = sens.revenue_sweep(s, grid)
        return (
            sweep,
            sens.olr_sweep(s, grid),
            sens.tornado(s, DEFAULT_TORNADO_PLAN),
            sec.optimal_loss_ratio(s),
            sec.secure_quasi_elasticities(s),
            privopt.solver.oracle_grid_argmax(s, ORACLE_POINTS),
        )

    def keep(self, i, s, out, warned):
        self.result.attempted += 1
        self.result.warned += warned
        self.kept.append((s, out))

    def check(self) -> Result:
        r = self.result
        for s, out in self.kept:
            if isinstance(out, Exception):
                r.fail(_error_reason(out))
                continue
            reason = check_bundle(s, out)
            if reason:
                r.fail(reason, wrong=True)
        return r

    def trace_metrics(self, fixed, tracer, warned, errors) -> dict:
        spans = tracer.spans
        own = tracing.self_times(spans)
        n = len(fixed)
        sens_self, sec_self, oracle_ms, per_point = [0.0] * n, [0.0] * n, [], []
        solves = tornado_solves = secure_calls = 0
        for sid, (name, start, end, parent, op) in enumerate(spans):
            kind = tracing.layer(name)
            if kind == "sensitivity":
                sens_self[op] += own[sid] / 1e6
            elif kind == "secure":
                sec_self[op] += own[sid] / 1e6
                secure_calls += 1
            elif name == "solver.solve_tradeoff":
                above = [a[0] for a in tracing.ancestors(spans, sid)]
                solves += any(tracing.layer(a) == "sensitivity" for a in above)
                tornado_solves += "sensitivity.tornado" in above
            elif name == "solver.oracle_grid_argmax":
                oracle_ms.append((end - start) / 1e6)
            elif name == "model.net_surplus" and parent >= 0 and spans[parent][0] == "solver.oracle_grid_argmax":
                per_point.append((end - start) / ORACLE_POINTS)
        return {
            "sensitivity.self_ms_per_op": tracing.median_or_zero(sens_self),
            "sensitivity.solves_per_op": solves / n,
            "sensitivity.tornado_solves": tornado_solves / n,
            "secure.calls_per_op": secure_calls / n,
            "secure.self_ms_per_op": tracing.median_or_zero(sec_self),
            "solver.oracle_ms_per_op": tracing.median_or_zero(oracle_ms),
            "model.net_surplus_ns_per_point": tracing.median_or_zero(per_point),
        }


def check_bundle(s: Scenario, out) -> str | None:
    """First problem found in one analysis bundle, or None."""
    sweep, olr, pairs, ratio, _, oracle = out
    for series in (sweep, olr):
        for j in Analysis.sweep_sample:
            if not answer_ok(replace(s, price=series.grid[j]), series.l_opt[j]):
                return "sweep l_opt not the argmax"
    if not ratio >= 1.0 - CHECK_TOL or any(x < 1.0 - CHECK_TOL for x in olr.olr if not math.isnan(x)):
        return "OLR below 1"
    base = privopt.solver.solve_tradeoff(s).l_opt
    if abs(oracle - base) > 2.0 * s.l_n / (ORACLE_POINTS - 1):
        return "oracle disagrees with the solver"
    expected = {}
    for factor, low, high in DEFAULT_TORNADO_PLAN:
        for side, step in (("minus", low), ("plus", high)):
            if factor in DIMENSIONAL_FACTORS:
                moved, delta = replace(s, **{factor: getattr(s, factor) * (1.0 + step)}), step
            else:
                moved, delta = replace(s, **{factor: step}), step - getattr(s, factor)
            l2 = privopt.solver.solve_tradeoff(moved).l_opt
            expected[factor, side] = ((l2 - base) / base) / delta
    got = {(e.factor, side): e.value for m, p in pairs for side, e in (("minus", m), ("plus", p))}
    if got.keys() != expected.keys() or any(
        abs(got[k] - v) > 1e-9 * max(1.0, abs(v)) for k, v in expected.items()
    ):
        return "tornado entry differs from two scalar solves"
    return None


# ---------------------------------------------------------------------------
# cli-mix


class CliMix:
    """Sequential ``python -m privopt.cli`` processes over all ten commands."""

    block_size = 100
    window = 1
    fixed_size = 10

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.paths, self.kinds = [], []
        for name, text, kind in inputs.cli_files(seed):
            if text is None:
                path = ROOT / name
            else:
                path = workdir / name
                path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))
            self.kinds.append(kind)
        self._seed, self._issued = seed, self.block_size
        self.inputs = inputs.cli_ops(seed, self.paths, self.block_size)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.out_path = workdir / "report.json"
        self.err_path = workdir / "stderr.txt"
        self.references = {}
        self.reset()

    def reset(self):
        self.result = Result()
        self.kept = []

    def remove(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def more(self) -> list:
        self._issued += self.block_size
        return inputs.cli_ops(self._seed, self.paths, self._issued)[-self.block_size:]

    def warm_inputs(self, seed: int) -> list:
        return []

    def fixed(self) -> list:
        return self.inputs[: self.fixed_size]

    def argv(self, item) -> list:
        command, index, extra = item
        scenario = [] if index is None else [self.paths[index]]
        return [command, *scenario, *extra, "--no-timestamp", "--out", str(self.out_path)]

    def spawn(self, prefix, argv) -> tuple:
        """Run one child; return (exit code or "timeout", stderr text, report bytes, wall s)."""
        if self.out_path.exists():
            self.out_path.unlink()
        with open(self.err_path, "wb") as err:
            start = time.perf_counter()
            try:
                code = subprocess.run([sys.executable, *prefix, *argv], env=self.env, cwd=ROOT,
                                      stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=CHILD_TIMEOUT).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            wall = time.perf_counter() - start
        report = self.out_path.read_bytes() if self.out_path.exists() else None
        return code, self.err_path.read_text(errors="replace"), report, wall

    def op(self, item):
        return self.spawn(["-m", "privopt.cli"], self.argv(item))

    def keep(self, i, item, out, warned):
        self.result.attempted += 1
        if isinstance(out, Exception):
            raise out  # the harness itself failed to run a child
        self.kept.append((item, out[:3]))

    def expected(self, item) -> int:
        command, index, _ = item
        return inputs.expected_exit(command, "valid" if index is None else self.kinds[index])

    def reference(self, item) -> bytes:
        """The report ``run_command`` renders in this process for one op."""
        if item[:2] not in self.references or item[0] == "pareto-nu":
            command, index, extra = item
            args = argparse.Namespace(grid=None, pmin=None, pmax=None, points=None, seed=None,
                                      no_timestamp=True, benefit=None, loss=None)
            if extra:
                args.benefit, args.loss = float(extra[1]), float(extra[3])
            sf = None if index is None else privopt.cli.load_scenario(self.paths[index])
            bundle = privopt.cli.run_command(command, sf, args, out=io.StringIO())
            self.references[item[:2]] = privopt.cli.render_report(bundle, "json").encode("utf-8")
        return self.references[item[:2]]

    def check(self) -> Result:
        r = self.result
        for item, (code, stderr, report) in self.kept:
            want = self.expected(item)
            kind = "pareto" if item[1] is None else self.kinds[item[1]]
            if code != want and kind in inputs.HOLE_SLOTS and code in (0, 1):
                r.known_defect(f"exit {code} where {want} is documented ({kind})")
            elif code != want:
                r.fail(f"exit {code} where {want} is documented ({kind})")
            elif code == 0:
                r.warned += bool(stderr)
                if report != self.reference(item):
                    r.fail("report differs from run_command", wrong=True)
        return r

    def trace_pass(self, fixed, spans_dir: Path) -> tuple:
        """Traced children: ``-X importtime`` plus the span-recording CLI wrapper."""
        records = []
        for i, item in enumerate(fixed):
            spans_path = spans_dir / f"cli-op{i}.json"
            prefix = ["-X", "importtime", str(BENCH_DIR / "cli_child.py"), str(spans_path)]
            out = self.spawn(prefix, self.argv(item))
            stderr = "".join(x for x in out[1].splitlines(True) if not x.startswith("import time:"))
            self.keep(i, item, (out[0], stderr, *out[2:]), False)
            spans = []
            if spans_path.exists():
                spans = json.loads(spans_path.read_text())
                spans_path.unlink()
            records.append((out, spans))
        return records

    @staticmethod
    def trace_metrics(records) -> dict:
        imports, spans_ms, rest = [], {"load_scenario": [], "run_command": [], "write_report": []}, []
        for (code, stderr, report, wall), spans in records:
            stage = tracing.parse_importtime(stderr)
            imports.append(stage)
            covered = 0.0
            for name, start, end, parent, op in spans:
                if parent < 0:
                    covered += (end - start) / 1e6
                spans_ms[name.split(".", 1)[1]].append((end - start) / 1e6)
            rest.append(wall * 1e3 - stage["import.privopt_ms"] - covered)
        out = {key: tracing.median_or_zero(d[key] for d in imports) for key in imports[0]}
        out.update({f"cli.{k}_ms": tracing.median_or_zero(v) for k, v in spans_ms.items()})
        out["cli.process_rest_ms"] = tracing.median_or_zero(rest)
        return out
