"""The scenario corpus and its committed output manifest.

Every scenario file under ``tests/corpus/``, and the two bundled tables,
runs through each scenario command in both report formats, and
``pareto-nu`` runs once per format.  Each run's exit code and the sha256 of
its ``--no-timestamp`` report, stdout and stderr make one entry of
``tests/corpus.json``.  The working directory is the corpus directory, so
no entry holds a path.  The manifest's library section holds sha256
digests of the ``repr`` of the solver's public results, one per named
scenario and one per chunk of seeded draws in each regime.

Usage, from the repository root with the package importable::

    python tests/corpus.py              # rebuild in process, list changed entries
    python tests/corpus.py --write      # regenerate tests/corpus.json
    python tests/corpus.py --installed  # the CLI through the installed privopt script

``--installed`` runs each entry in its own ``python -X importtime privopt
...`` process, fails a command other than ``oracle-check`` that loads
numpy, and runs the 1e7-point grid oracle on ``RSS_FILES`` with its peak
RSS held under ``RSS_LIMIT_MB``.  Every mode also requires each JSON
report to be strict JSON and the ``FINITE_BOUNDS`` feasibility bounds to
be finite.  The exit status is 1 when an entry differs from the manifest
or a check fails.

This module imports only the standard library and privopt.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from privopt import (
    PrivoptError,
    Regime,
    Scenario,
    default_price_grid,
    feasibility_report,
    olr_sweep,
    price_sweep,
    saturation_price,
    secure_feasible_loss,
    solve_discrete,
    solve_tradeoff,
)
from privopt import cli

TESTS_DIR = Path(__file__).resolve().parent
CORPUS_DIR = TESTS_DIR / "corpus"
MANIFEST = TESTS_DIR / "corpus.json"
#: The bundled tables stay under scenarios/; their paths from the corpus.
TABLES = {"table1.json": "../../scenarios/table1.json", "table2.json": "../../scenarios/table2.json"}
PARETO_ARGS = ("pareto-nu", "--benefit", "0.8", "--loss", "0.2")
#: oracle-check's grid in the manifest: small enough that the walks over
#: every grid point (subnormal_cap, flat_surplus) stay short
ORACLE_GRID = "100001"
#: feasibility bounds whose linear formula over- or underflows on the way
#: to a finite bound; each report's one condition must hold that bound
FINITE_BOUNDS = ("overflowing_bound.json", "subnormal_product.json")
#: The grid oracle reads its grid in fixed chunks, so at the 1e7-point cap a
#: process stays far below the hundreds of MB a whole grid would take.  The
#: pieces it drops depend on the scenario: both tables, a subnormal l_n
#: whose step underflows so that every chunk keeps all its pieces, and a
#: surplus flat within the bounds' slack, whose every piece survives every
#: pass.
RSS_FILES = ("table1.json", "table2.json", "subnormal_cap.json", "flat_surplus.json")
RSS_GRID = "10000000"
RSS_LIMIT_MB = 100.0

#: 21-point sweeps, the loss levels of solve_discrete as fractions of l_n
SWEEP_POINTS = 21
LOSS_FRACTIONS = (0.25, 0.5, 1.0)
LIBRARY = {
    "solve_tradeoff": solve_tradeoff,
    "feasibility_report": feasibility_report,
    "saturation_price": saturation_price,
    "solve_discrete": lambda s: solve_discrete(s, [s.l_n * x for x in LOSS_FRACTIONS]),
    "secure_feasible_loss": secure_feasible_loss,
    "price_sweep": lambda s: price_sweep(s, default_price_grid(s, points=SWEEP_POINTS)),
    "olr_sweep": lambda s: olr_sweep(s, default_price_grid(s, points=SWEEP_POINTS)),
}
#: Seeded draws: DRAWS scenarios per (range class, regime) chunk.  "fuzz"
#: spans the benchmark's solve-mix ranges; "wide" puts q*, p* and l_n in
#: [1e-150, 1e150], alpha_n in [1e-100, 1e100] and the breach
#: probabilities down to 1e-300.  A fifth of the draws have pi_s = 0.
SEED = 31
DRAWS = 100
RANGES = {  # q*, p*, l_n, alpha_n, and the smallest pi_s and pi_c*
    "fuzz": ((1e-3, 1e9), (1e-3, 1e6), (1e-3, 1e12), (1e-3, 1e3), 1e-12),
    "wide": ((1e-150, 1e150), (1e-150, 1e150), (1e-150, 1e150), (1e-100, 1e100), 1e-300),
}


def scenario_files() -> dict:
    """Each scenario file's name and its path from the corpus directory."""
    files = dict(TABLES)
    files.update((p.name, p.name) for p in sorted(CORPUS_DIR.glob("*.json")))
    return files


def cli_runs() -> list:
    """``(key, argv)`` of every CLI entry; ``argv`` holds paths relative to
    the corpus directory, the key the file names."""
    runs = []
    for name, path in scenario_files().items():
        for command in cli.COMMANDS:
            if command == "pareto-nu":
                continue
            extra = ["--grid", ORACLE_GRID] if command == "oracle-check" else []
            for fmt in ("json", "csv"):
                key = " ".join([command, name, *extra, "--format", fmt])
                runs.append((key, [command, path, *extra, "--format", fmt]))
    for fmt in ("json", "csv"):
        argv = [*PARETO_ARGS, "--format", fmt]
        runs.append((" ".join(argv), argv))
    return runs


def _sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()


def _in_process(argv: list, report: str) -> tuple:
    """``(exit code, stdout, stderr)`` of ``cli.main`` in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--no-timestamp", "--out", report])
    return code, stdout.getvalue(), stderr.getvalue()


class _Installed:
    """Runs an entry through the installed privopt script in a new
    process, and notes each command other than oracle-check that loads numpy."""

    def __init__(self, problems: list):
        self.script = shutil.which("privopt")
        if self.script is None:
            raise SystemExit("--installed needs the privopt script on PATH")
        self.problems = problems

    def __call__(self, argv: list, report: str) -> tuple:
        done = subprocess.run(
            [sys.executable, "-X", "importtime", self.script, *argv, "--no-timestamp", "--out", report],
            cwd=CORPUS_DIR, capture_output=True, text=True,
        )
        lines = done.stderr.splitlines(keepends=True)
        timings = [line for line in lines if line.startswith("import time:")]
        if argv[0] != "oracle-check" and any(re.search(r"\| +numpy$", line.rstrip()) for line in timings):
            self.problems.append(f"privopt {' '.join(argv)} loaded numpy")
        stderr = "".join(line for line in lines if not line.startswith("import time:"))
        return done.returncode, done.stdout, stderr

    def peak_rss(self, name: str) -> None:
        """Run the 1e7-point grid oracle on one file; note a peak RSS over the limit."""
        argv = [sys.executable, self.script, "oracle-check", scenario_files()[name],
                "--grid", RSS_GRID, "--no-timestamp"]
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=CORPUS_DIR, stdout=subprocess.DEVNULL) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall_s = time.perf_counter() - start
        peak_mb = usage.ru_maxrss / 1024
        print(f"oracle-check {name} --grid {RSS_GRID}: exit {proc.returncode}, "
              f"peak RSS {peak_mb:.1f} MB, wall {wall_s:.2f} s")
        if proc.returncode != 0 or peak_mb > RSS_LIMIT_MB:
            self.problems.append(f"oracle-check {name} --grid {RSS_GRID}: exit {proc.returncode}, "
                                 f"peak RSS {peak_mb:.1f} MB (limit {RSS_LIMIT_MB:.0f})")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_report(key: str, report: str, problems: list) -> None:
    """A JSON report must be strict JSON; a FINITE_BOUNDS feasibility
    report must hold its one condition's bound."""
    if not key.endswith("--format json"):
        return
    try:
        data = json.loads(report, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(f"{key}: report is not strict JSON ({exc})")
        return
    command, name = key.split()[:2]
    if command == "feasibility" and name in FINITE_BOUNDS:
        conditions = data["feasibility"]["conditions"]
        if len(conditions) != 1 or conditions[0]["bound"] is None:
            problems.append(f"{key}: expected one condition with a finite bound, got {conditions}")


def build_cli(run, problems: list) -> dict:
    """The manifest's CLI section, one entry per run."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "report"
        for key, argv in cli_runs():
            code, stdout, stderr = run(argv, str(report_path))
            report = None
            if report_path.exists():
                report = report_path.read_text(encoding="utf-8")
                report_path.unlink()
                _check_report(key, report, problems)
            entries[key] = {"exit": code, "report": _sha(report), "stdout": _sha(stdout), "stderr": _sha(stderr)}
    return entries


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng: random.Random, ranges: tuple, regime: Regime) -> Scenario:
    """One scenario in ``regime`` over one range class."""
    q_range, p_range, l_range, a_range, smallest = ranges
    theta = rng.uniform(0.01, 0.99)
    if regime is Regime.NU_LT_1:
        nu = _logu(rng, 1e-3, 0.999)
    elif regime is Regime.SUBCASE_A:
        nu = 1.0 + theta * rng.uniform(0.01, 0.99)
    elif regime is Regime.SUBCASE_B:
        nu = 1.0 + theta + _logu(rng, 1e-3, 9.0 - theta)
    elif regime is Regime.NU_EQ_1:
        nu = 1.0
    else:
        nu = 1.0 + theta
    p_star = _logu(rng, *p_range)
    return Scenario(
        q_star=_logu(rng, *q_range),
        p_star=p_star,
        price=p_star * rng.uniform(0.0, 0.999),
        nu=nu,
        theta=theta,
        alpha_n=_logu(rng, *a_range),
        l_n=_logu(rng, *l_range),
        pi_s=0.0 if rng.random() < 0.2 else _logu(rng, smallest, 0.5),
        pi_c_star=_logu(rng, smallest, 0.5),
    )


def _outcome(function, s: Scenario) -> str:
    """The result's ``repr``, or the package error's type and message."""
    try:
        return repr(function(s))
    except PrivoptError as exc:
        return f"{type(exc).__name__}: {exc}"


def build_library() -> dict:
    """The manifest's library section: one digest per (function, named
    scenario) and per (function, range class, regime) chunk of draws."""
    with _in_corpus():
        named = {
            name: cli.load_scenario(path).scenario
            for name, path in scenario_files().items()
            if not name.startswith("malformed_")
        }
    rng = random.Random(SEED)
    chunks = {
        f"{cls} {regime.name}": [_draw(rng, ranges, regime) for _ in range(DRAWS)]
        for cls, ranges in RANGES.items()
        for regime in Regime
    }
    entries = {}
    for fname, function in LIBRARY.items():
        for name, s in named.items():
            entries[f"{fname} {name}"] = _sha(_outcome(function, s))
        for chunk, scenarios in chunks.items():
            entries[f"{fname} {chunk}"] = _sha("\n".join(_outcome(function, s) for s in scenarios))
    return entries


@contextlib.contextmanager
def _in_corpus():
    cwd = os.getcwd()
    os.chdir(CORPUS_DIR)
    try:
        yield
    finally:
        os.chdir(cwd)


def build(installed: bool = False) -> tuple:
    """``(manifest, problems)``: the manifest rebuilt from this tree, and
    each failed check."""
    problems = []
    if installed:
        run = _Installed(problems)
        for name in RSS_FILES:
            run.peak_rss(name)
        entries = build_cli(run, problems)
    else:
        with _in_corpus():
            entries = build_cli(_in_process, problems)
    return {"cli": entries, "library": build_library()}, problems


def changes(committed: dict, rebuilt: dict) -> list:
    """One line per entry added, removed or changed, section by section."""
    lines = []
    for section in sorted(set(committed) | set(rebuilt)):
        old, new = committed.get(section, {}), rebuilt.get(section, {})
        for key in sorted(set(old) | set(new)):
            if key not in new:
                lines.append(f"removed  {section}: {key}")
            elif key not in old:
                lines.append(f"added    {section}: {key}")
            elif old[key] != new[key]:
                moved = ""
                if isinstance(new[key], dict):  # a CLI entry: name the parts that moved
                    moved = " (" + ", ".join(
                        f"exit {old[key][part]} -> {new[key][part]}" if part == "exit" else part
                        for part in new[key] if old[key].get(part) != new[key][part]
                    ) + ")"
                lines.append(f"changed  {section}: {key}{moved}")
    return lines


def _dumps(manifest: dict) -> str:
    """The manifest as JSON with one entry a line, so a moved entry is one changed line."""
    sections = []
    for section, entries in sorted(manifest.items()):
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                          for key, value in sorted(entries.items()))
        sections.append(f" {json.dumps(section)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check the outputs against tests/corpus.json.")
    parser.add_argument("--write", action="store_true", help="regenerate tests/corpus.json from this tree")
    parser.add_argument("--installed", action="store_true",
                        help="run the CLI through the installed privopt script, one process per entry")
    args = parser.parse_args(argv)
    rebuilt, problems = build(installed=args.installed)
    committed = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    moved = changes(committed, rebuilt)
    for line in moved + problems:
        print(line)
    if args.write:
        MANIFEST.write_text(_dumps(rebuilt))
        print(f"wrote {MANIFEST.name}: {len(moved)} entries changed")
        return 1 if problems else 0
    cli_codes = [entry["exit"] for entry in rebuilt["cli"].values()]
    print(f"{len(rebuilt['cli'])} CLI entries (exit codes: "
          + ", ".join(f"{code}: {cli_codes.count(code)}" for code in sorted(set(cli_codes)))
          + f"), {len(rebuilt['library'])} library entries, {len(moved)} changed, {len(problems)} checks failed")
    return 1 if moved or problems else 0


if __name__ == "__main__":
    sys.exit(main())
