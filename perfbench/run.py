#!/usr/bin/env python3
"""privopt benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics.  The line before it is a
JSON detail record (tail percentile, sample counts, failure reasons).
Trace spans and the run's scratch files go to ``.bench_out/``.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("cli-mix", "solve-mix", "analysis")
#: Set-up is repeated in this many child processes; setup_s is the median.
SETUP_SAMPLES = 5
#: Latency tail: the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Fewest ops the timing metrics are taken from.
MIN_POOL = 3 * TAIL_BEYOND


class WarningCounter:
    """Counts every Python warning raised in this process (none are shown)."""

    def __init__(self):
        self.count = 0

    def install(self):
        warnings.simplefilter("always")
        warnings.showwarning = self._seen

    def _seen(self, *args, **kwargs):
        self.count += 1


def make(workload: str, seed: int, tag: str):
    import workloads

    if workload == "solve-mix":
        return workloads.SolveMix(seed)
    if workload == "analysis":
        return workloads.Analysis(seed)
    return workloads.CliMix(seed, OUT_DIR / f"{tag}-{os.getpid()}")


def run_pass(wl, items, warn, tracer=None) -> tuple:
    """Run ``items`` once, untimed per op; return (ops, errors, warned, seconds)."""
    errors = warned = 0
    start = time.perf_counter()
    for i, x in enumerate(items):
        if tracer is not None:
            tracer.op = i
        w = warn.count
        try:
            out = wl.op(x)
        except Exception as exc:  # an op failure is a measurement, not a harness error
            out = exc
            errors += 1
        warned += warn.count != w
        wl.keep(i, x, out, warn.count != w)
    return len(items), errors, warned, time.perf_counter() - start


def timed_loop(wl, seconds: float, warn) -> tuple:
    """Closed loop, one client: next op starts when the last one returns.

    Returns (latency per op in ms, NaN where the op raised; seconds per
    window of ``wl.window`` ops).  Building the next block of inputs
    pauses the loop clock.
    """
    lat, windows = array("d"), []
    now, now_ns = time.perf_counter, time.perf_counter_ns
    min_ops = max(MIN_POOL, 4 * wl.window)
    batch, k, i, paused = wl.inputs, 0, 0, 0.0
    start = opened = now()
    while i < min_ops or now() - start - paused < seconds:
        if k == len(batch):
            t = now()
            batch, k = wl.more(), 0
            t = now() - t
            paused += t
            opened += t
        x = batch[k]
        k += 1
        w = warn.count
        t0 = now_ns()
        try:
            out = wl.op(x)
            elapsed = (now_ns() - t0) / 1e6
        except Exception as exc:  # an op failure is a measurement, not a harness error
            out, elapsed = exc, math.nan
        lat.append(elapsed)
        wl.keep(i, x, out, warn.count != w)
        i += 1
        if i % wl.window == 0:
            closed = now()
            windows.append(closed - opened)
            opened = closed
    return lat, windows


def tail(lat) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(lat)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def timing(lat, windows, size: int) -> dict:
    """Throughput, median and tail latency over the slowest quarter of the windows.

    On a shared host the speed comes in bursts above a steady level; the
    slowest quarter measures the steady level, which is what repeats
    from run to run.  Windows are ranked by their median op latency, so
    a window counts as slow because the host was, not because it drew a
    slow input.  The quarter is widened to at least MIN_POOL ops; only
    whole windows count.  Ops that raised (NaN) count for throughput
    only.  When a window holds enough ops for a tail of its own
    (solve-mix), the tail is the median of the per-window tails: over a
    whole run, the top ten of several hundred thousand solves are host
    stalls, not the program.
    """
    timed = [[x for x in lat[w * size:(w + 1) * size] if not math.isnan(x)] for w in range(len(windows))]
    order = sorted(range(len(windows)), reverse=True,
                   key=lambda w: statistics.median(timed[w]) if timed[w] else math.inf)
    pool, seconds = [], 0.0
    for n, w in enumerate(order):
        if n >= len(windows) / 4 and len(pool) * size >= MIN_POOL:
            break
        pool.append(timed[w])
        seconds += windows[w]
    flat = [x for w in pool for x in w]
    if size > 2 * TAIL_BEYOND:
        tails = [tail(w) for w in pool]
        tail_ms, pct = statistics.median(t[0] for t in tails), statistics.median(t[1] for t in tails)
    else:
        tail_ms, pct = tail(flat)
    return {"ops_per_s": len(pool) * size / seconds, "latency_p50_ms": statistics.median(flat),
            "latency_tail_ms": tail_ms, "tail_percentile": pct, "pooled_ops": len(pool) * size}


def setup_samples(workload: str, seed: int) -> tuple:
    """Set-up seconds and peak RSS (KB) of SETUP_SAMPLES fresh processes.

    Each child starts the interpreter, imports privopt, builds the
    workload's inputs and reports ready; set-up time runs from spawn to
    that line.  It then runs the workload's fixed input set once and
    reports its peak RSS.
    """
    times, rss = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-child", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        with child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - start)
            rest = child.stdout.read()
            code = child.wait(timeout=120)
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        rss.append(json.loads(rest)["rss_kb"])
    return times, rss


def setup_child(workload: str, seed: int) -> int:
    wl = make(workload, seed, "setup")
    print("ready", flush=True)
    warn = WarningCounter()
    warn.install()
    if workload != "cli-mix":
        run_pass(wl, wl.fixed(), warn)
    else:
        wl.remove()
    print(json.dumps({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}), flush=True)
    return 0


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """End-to-end run; returns (metrics, detail, result)."""
    setup_s, setup_rss = setup_samples(workload, seed)
    warn = WarningCounter()
    warn.install()
    wl = make(workload, seed, "run")
    warm = wl.warm_inputs(seed)
    if warm:
        run_pass(wl, warm, warn)
        wl.reset()
    lat, windows = timed_loop(wl, seconds, warn)
    result = wl.check()
    if workload == "cli-mix":
        wl.remove()
        # the largest child: set-up children run no command, so it is a CLI run
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = statistics.median(setup_rss)
    timed = timing(lat, windows, wl.window)
    n = result.attempted
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": timed["ops_per_s"],
        "latency_p50_ms": timed["latency_p50_ms"],
        "latency_tail_ms": timed["latency_tail_ms"],
        "ok_frac": 1.0 - (result.failed + result.known) / n,
        "clean_frac": 1.0 - result.warned / n,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {
        "ops": n,
        "windows": len(windows),
        "pooled_ops": timed["pooled_ops"],
        "tail_percentile": round(timed["tail_percentile"], 4),
        "loop_s": sum(windows),
        "all_ops_per_s": len(windows) * wl.window / sum(windows),
        "fail_frac": (result.failed + result.known) / n,
        "known_defect_frac": result.known / n,
        "warned_frac": result.warned / n,
        "wrong_answers": result.wrong,
        "failures": dict(result.reasons.most_common()),
        "known_defects": dict(result.known_reasons.most_common()),
        "setup_samples_s": setup_s,
    }
    return metrics, detail, result


def trace_run(workload: str, seed: int, seconds: float) -> tuple:
    """Traced run; returns (per-layer metrics, detail, result).

    The workload's fixed input set is run in alternating untraced and
    traced passes until ``seconds`` have passed (at least one of each);
    times are medians over the traced passes and counts must repeat
    exactly across them.  The other workloads' per-layer metrics come
    from one traced pass of their own fixed sets.
    """
    import tracing
    import workloads

    warn = WarningCounter()
    warn.install()
    units = metric_units("per_layer")
    metrics, detail, result = {}, {}, None
    for name in [workload] + [w for w in WORKLOADS if w != workload]:
        wl = make(name, seed, "trace")
        fixed = wl.fixed()
        passes = []
        plain = [0, 0.0]
        start = time.perf_counter()
        while not passes or (name == workload and time.perf_counter() - start < seconds):
            if name == workload:
                ops, _, _, elapsed = run_pass(wl, fixed, warn)
                plain[0] += ops
                plain[1] += elapsed
            t = time.perf_counter()
            if name == "cli-mix":
                records = wl.trace_pass(fixed, OUT_DIR)
                values, spans = workloads.CliMix.trace_metrics(records), []
                for i, (_, child_spans) in enumerate(records):
                    spans += [(s[0], s[1], s[2], s[3], i) for s in child_spans]
            else:
                with tracing.Tracer() as tracer:
                    _, errors, warned, _ = run_pass(wl, fixed, warn, tracer)
                values, spans = wl.trace_metrics(fixed, tracer, warned, errors), tracer.spans
            passes.append((len(fixed), time.perf_counter() - t, values))
            if len(passes) == 1:
                tracing.write_spans(OUT_DIR / f"trace-{name}-seed{seed}.jsonl", spans)
        counts = {k for k in passes[0][2] if units[k] == "count"}
        repeat = all(p[2][k] == passes[0][2][k] for p in passes for k in counts)
        for key in passes[0][2]:
            values = [p[2][key] for p in passes]
            metrics[key] = values[0] if key in counts else statistics.median(values)
        if name == workload:
            traced_rate = sum(p[0] for p in passes) / sum(p[1] for p in passes)
            metrics["trace.overhead_frac"] = 1.0 - traced_rate / (plain[0] / plain[1])
            result = wl.check()
            detail = {"traced_passes": len(passes), "counts_repeat": repeat,
                      "failures": dict(result.reasons.most_common()),
                      "known_defects": dict(result.known_reasons.most_common())}
            if not repeat:
                result.fail("per-layer counts differ between traced passes", wrong=True)
        if name == "cli-mix":
            wl.remove()
    return metrics, detail, result


def metric_units(kind: str) -> dict:
    """Metric name -> unit, from the ``end_to_end`` or ``per_layer`` list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "privopt" / "__init__.py").is_file():
        print(f"privopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args.workload, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, detail, result = trace_run(args.workload, args.seed, args.seconds)
    else:
        metrics, detail, result = measure(args.workload, args.seed, args.seconds)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
