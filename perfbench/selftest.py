"""Self-tests of the benchmark: determinism, coverage and its checkers.

    python3 -m pytest -q perfbench/selftest.py

They check the benchmark, not the package: the same seed gives the same
inputs and counts, solve-mix covers every regime and returned status,
and each output checker flags a deliberately wrong answer.
"""

import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import privopt  # noqa: E402
import privopt.solver  # noqa: E402
from privopt import Scenario, SolutionStatus, classify_regime, solve_tradeoff  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TABLE2 = Scenario(q_star=250, p_star=1.0, price=0.5, nu=0.138647, theta=0.138647,
                  alpha_n=0.2, l_n=10000, pi_s=1e-4, pi_c_star=1e-4)


def test_same_seed_same_inputs():
    for make in (None, inputs.paper_params):
        first = inputs.ScenarioStream(5, 300, make).block()
        assert first == inputs.ScenarioStream(5, 300, make).block()
        assert first != inputs.ScenarioStream(6, 300, make).block()
        assert len(set(first)) == len(first)
    files = inputs.cli_files(5)
    assert files == inputs.cli_files(5)
    assert inputs.cli_ops(5, files, 40) == inputs.cli_ops(5, files, 40)


def test_same_seed_same_counts():
    def counts(seed):
        wl = workloads.SolveMix(seed)
        fixed = wl.fixed()[:600]
        warn = run.WarningCounter()
        with tracing.Tracer() as tracer:
            _, errors, warned, _ = run.run_pass(wl, fixed, warn, tracer)
        values = wl.trace_metrics(fixed, tracer, warned, errors)
        return {k: v for k, v in values.items() if "_us" not in k}

    assert counts(3) == counts(3)


def test_tracer_restores_names_and_nests_spans():
    original = privopt.solver.solve_tradeoff
    with tracing.Tracer() as tracer:
        tracer.op = 0
        privopt.solver.solve_tradeoff(TABLE2)
    assert privopt.solver.solve_tradeoff is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "solver.solve_tradeoff" and "model.net_surplus" in names
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "model.net_surplus")
    own = tracing.self_times(tracer.spans)
    children = sum(e - b for _, b, e, parent, _ in tracer.spans if parent == 0)
    assert own[0] == tracer.spans[0][2] - tracer.spans[0][1] - children
    assert tracer.counts["root_calls"] == 1 and tracer.counts["root_fevals"] > 2


def test_solve_mix_covers_every_regime_and_status():
    scenarios = workloads.SolveMix(1).fixed()
    regimes = {classify_regime(s).value for s in scenarios}
    statuses = set()
    for s in scenarios:
        try:
            statuses.add(solve_tradeoff(s).status)
        except privopt.NumericError:
            pass  # a known defect, kept in the mix
    assert regimes == set(inputs.REGIMES)
    # NO_SOLUTION is never returned by the solver
    assert statuses == set(SolutionStatus) - {SolutionStatus.NO_SOLUTION}
    assert any(s.pi_s == 0.0 for s in scenarios)


def test_answer_check_flags_a_perturbed_optimum():
    sol = solve_tradeoff(TABLE2)
    assert sol.status is SolutionStatus.INTERIOR
    assert workloads.answer_ok(TABLE2, sol.l_opt)
    assert not workloads.answer_ok(TABLE2, sol.l_opt * (1 + 1e-3))
    assert not workloads.answer_ok(TABLE2, TABLE2.l_n * 1.5)

    wl = workloads.SolveMix(1)
    wl.keep(0, TABLE2, sol, False)
    assert wl.check().failed == 0
    wl.reset()
    wl.keep(0, TABLE2, replace(sol, l_opt=sol.l_opt * (1 + 1e-3)), False)
    assert wl.check().wrong == 1


def test_known_defects_are_counted_apart_from_failures():
    wl = workloads.SolveMix(1)
    wl.keep(0, TABLE2, privopt.NumericError("could not bracket the descending root"), False)
    wl.keep(1, TABLE2, ValueError("not a known defect"), False)
    result = wl.check()
    assert (result.attempted, result.known, result.failed) == (2, 1, 1)

    wl = workloads.CliMix(1, run.OUT_DIR / "selftest")
    try:
        item = next(op for op in wl.inputs if op[1] is not None and wl.kinds[op[1]] == "nan_points")
        wl.kept = [(item, (1, "Traceback", None)), (item, (2, "", None)), (item, (3, "", None))]
        result = wl.check()
        assert (result.known, result.failed) == (1, 1)
    finally:
        wl.remove()


def test_analysis_check_flags_each_wrong_part():
    wl = workloads.Analysis(1)
    s = wl.fixed()[0]
    bundle = wl.op(s)
    assert workloads.check_bundle(s, bundle) is None
    sweep, olr, pairs, ratio, qe, oracle = bundle
    bad_sweep = replace(sweep, l_opt=tuple(x * (1 + 1e-3) for x in sweep.l_opt))
    minus, plus = pairs[0]
    bad_pairs = [(replace(minus, value=minus.value * 1.001), plus)] + list(pairs[1:])
    wrong = {
        "sweep l_opt not the argmax": (bad_sweep, olr, pairs, ratio, qe, oracle),
        "OLR below 1": (sweep, olr, pairs, 0.999, qe, oracle),
        "oracle disagrees with the solver": (sweep, olr, pairs, ratio, qe, oracle + 0.01 * s.l_n),
        "tornado entry differs from two scalar solves": (sweep, olr, bad_pairs, ratio, qe, oracle),
    }
    for reason, tampered in wrong.items():
        assert workloads.check_bundle(s, tampered) == reason


def test_cli_check_flags_exit_code_and_report_byte():
    wl = workloads.CliMix(1, run.OUT_DIR / "selftest")
    try:
        item = next(op for op in wl.inputs if op[0] == "solve" and wl.kinds[op[1]] == "valid")
        code, stderr, report, _ = wl.op(item)
        assert (code, stderr) == (0, "")
        assert report == wl.reference(item)
        flipped = bytes([report[0] ^ 1]) + report[1:]
        wl.kept = [(item, (0, "", report)), (item, (3, "", None)), (item, (0, "", flipped))]
        result = wl.check()
        assert (result.failed, result.wrong) == (2, 1)
    finally:
        wl.remove()


def test_cli_child_matches_the_cli():
    wl = workloads.CliMix(2, run.OUT_DIR / "selftest")
    try:
        for item in wl.fixed()[:5]:
            plain = wl.op(item)
            spans_path = wl.workdir / "spans.json"
            traced = wl.spawn([str(BENCH_DIR / "cli_child.py"), str(spans_path)], wl.argv(item))
            assert (traced[0], traced[2]) == (plain[0], plain[2])
            assert spans_path.exists()
    finally:
        wl.remove()


def test_tail_has_ten_samples_beyond():
    value, percentile = run.tail([float(x) for x in range(100)])
    assert (value, percentile) == (89.0, 90.0)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     numpy",
        "import time:       200 |        200 |       numpy.core",
        "import time:        50 |        900 | privopt",
        "import time:        40 |        500 |   privopt.solver",
        "import time:       400 |        400 |     scipy.optimize",
    ])
    assert tracing.parse_importtime(text) == {
        "import.privopt_ms": 0.9, "import.numpy_ms": 0.3,
        "import.scipy_ms": 0.4, "import.privopt_self_ms": 0.09,
    }
