"""In-memory span recorder for the traced runs.

Spans are recorded by wrapping public privopt functions at the
module-global names through which one module calls another (and through
which the benchmark itself calls the package).  Nothing inside ``src/``
is changed.  A span is ``(name, start_ns, end_ns, parent, op)``; the
layer is the part of the name before the first dot.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import privopt.secure
import privopt.sensitivity
import privopt.solver

#: (module, global name, span name).  Names a module calls its own
#: public functions through are listed too, so nested calls nest spans.
PATCH_POINTS = (
    (privopt.sensitivity, "solve_tradeoff", "solver.solve_tradeoff"),
    (privopt.sensitivity, "secure_feasible_loss", "secure.secure_feasible_loss"),
    (privopt.sensitivity, "marginal_demand_factor", "model.marginal_demand_factor"),
    (privopt.sensitivity, "demand_quantity", "model.demand_quantity"),
    (privopt.sensitivity, "revenue_sweep", "sensitivity.revenue_sweep"),
    (privopt.sensitivity, "price_sweep", "sensitivity.price_sweep"),
    (privopt.sensitivity, "olr_sweep", "sensitivity.olr_sweep"),
    (privopt.sensitivity, "tornado", "sensitivity.tornado"),
    (privopt.sensitivity, "discrete_elasticity", "sensitivity.discrete_elasticity"),
    (privopt.sensitivity, "discrete_quasi_elasticity", "sensitivity.discrete_quasi_elasticity"),
    (privopt.sensitivity, "saturation_price", "sensitivity.saturation_price"),
    (privopt.sensitivity, "default_price_grid", "sensitivity.default_price_grid"),
    (privopt.secure, "solve_tradeoff", "solver.solve_tradeoff"),
    (privopt.secure, "secure_optimal_loss", "secure.secure_optimal_loss"),
    (privopt.secure, "secure_feasible_loss", "secure.secure_feasible_loss"),
    (privopt.secure, "optimal_loss_ratio", "secure.optimal_loss_ratio"),
    (privopt.secure, "secure_quasi_elasticities", "secure.secure_quasi_elasticities"),
    (privopt.solver, "solve_tradeoff", "solver.solve_tradeoff"),
    (privopt.solver, "oracle_grid_argmax", "solver.oracle_grid_argmax"),
    (privopt.solver, "net_surplus", "model.net_surplus"),
)


class Tracer:
    """Records spans and counts while installed; restores the names on exit.

    ``points`` lists the ``(module, name, span name)`` globals to wrap.
    With ``root=True`` the ``brentq`` imported into ``privopt.solver`` is
    wrapped too, counting its calls and the evaluations of the function
    passed to it; once that name is gone the counts stay absent.
    """

    def __init__(self, points=PATCH_POINTS, root=True):
        self.points = points
        self.root = root
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)

        return traced

    def _wrap_brentq(self, brentq):
        counts = self.counts
        traced = self._wrap(brentq, "scipy.brentq")

        def counted(f, *args, **kwargs):
            counts["root_calls"] += 1

            def feval(x):
                counts["root_fevals"] += 1
                return f(x)

            return traced(feval, *args, **kwargs)

        return counted

    def patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def __enter__(self):
        wrapped = {}
        for module, name, span in self.points:
            fn = getattr(module, name)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, span)
            self.patch(module, name, wrapped[id(fn)])
        if self.root and hasattr(privopt.solver, "brentq"):
            self.patch(privopt.solver, "brentq", self._wrap_brentq(privopt.solver.brentq))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's.

    Spans come from one thread and nest properly, so the children of a
    span cover disjoint parts of it.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def ancestors(spans, sid):
    parent = spans[sid][3]
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent][3]


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def write_spans(path, spans) -> None:
    """One JSON object per line: id, name, start_ns, end_ns, parent, op."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent, op) in enumerate(spans):
            fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "op": op}) + "\n")


def parse_importtime(stderr: str) -> dict:
    """Import-stage milliseconds from ``python -X importtime`` output.

    ``privopt_ms`` is the cumulative time of the ``privopt`` package;
    the other three sum the self times of every module in the package,
    so they do not overlap.
    """
    self_us = defaultdict(int)
    privopt_cumulative = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        self_us[name.split(".", 1)[0]] += own
        if name == "privopt":
            privopt_cumulative = cumulative
    return {
        "import.privopt_ms": privopt_cumulative / 1e3,
        "import.numpy_ms": self_us["numpy"] / 1e3,
        "import.scipy_ms": self_us["scipy"] / 1e3,
        "import.privopt_self_ms": self_us["privopt"] / 1e3,
    }


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0
