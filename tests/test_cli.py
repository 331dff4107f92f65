"""Scenario files, command dispatch, report formats and exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings

from privopt import (
    ClosedFormInapplicableError,
    DomainError,
    NumericError,
    PrivoptError,
    Scenario,
    UsageError,
    ValidationError,
)
from privopt import cli
from privopt.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ReportBundle,
    load_scenario,
    COMMANDS,
    main,
    render_report,
    run_command,
)
from privopt.sensitivity import MAX_SWEEP_POINTS
from privopt.solver import MAX_ORACLE_POINTS
import _oracle
from conftest import (
    OVERFLOWING_BENEFIT,
    OVERFLOWING_BOUND,
    OVERFLOWING_BRACKET,
    OVERFLOWING_EQ1,
    OVERFLOWING_OLR,
    OVERFLOWING_SURPLUS,
    REPO_ROOT,
    SCENARIO_DIR,
    SUBNORMAL_CAP,
    SUBNORMAL_OPTIMUM,
    TINY_OPTIMUM,
    TINY_RISK,
    UNDERFLOWING_SATURATION,
    fuzz_scenarios,
    wide_scenarios,
)

TABLE1 = str(SCENARIO_DIR / "table1.json")
TABLE2 = str(SCENARIO_DIR / "table2.json")


def make_args(**overrides):
    defaults = dict(
        out=None, format="json", grid=None, pmin=None, pmax=None,
        points=None, no_timestamp=True, benefit=None, loss=None,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


#: nu < 1 scenario whose vulnerable and secure optima underflow to 0
UNDERFLOWING = {
    "q_star": 0.001, "p_star": 0.001, "price": 0.0, "nu": 0.999, "theta": 0.01,
    "alpha_n": 0.001, "l_n": 1e12, "pi_s": 0.01, "pi_c_star": 0.5,
}


def strict_json(text):
    """json.loads that rejects the non-standard Infinity, -Infinity and NaN."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def write_scenario(tmp_path, name="scenario.json", **overrides):
    data = json.loads((SCENARIO_DIR / "table2.json").read_text())
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def write_params(tmp_path, params):
    """A scenario file holding ``params`` alone, without table2's blocks."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    return str(path)


def run_scenario_commands(s, grid, points=None):
    """Exit code of every scenario command on ``s`` with ``--out``, with
    ``--grid grid`` for oracle-check and ``--points points`` for the sweeps.

    No command may write a warning, and every exit-0 report must be strict
    JSON naming its command.  The losses block is ``[l_n/4, l_n/2]``.
    """
    doc = dict(dataclasses.asdict(s), losses=[s.l_n / 4, s.l_n / 2])
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in COMMANDS:
            if command == "pareto-nu":
                continue
            out = os.path.join(tmp, f"{command}.json")
            argv = [command, path, "--no-timestamp", "--out", out]
            if command == "oracle-check":
                argv += ["--grid", str(grid)]
            if points is not None and command.startswith("sweep-"):
                argv += ["--points", str(points)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes[command] = main(argv)
            assert "Warning" not in err.getvalue(), (command, err.getvalue(), s)
            if codes[command] == EXIT_OK:
                with open(out) as fh:
                    assert strict_json(fh.read())["command"] == command
    return codes


class TestLoadScenario:
    def test_bundled_table1(self, table1_file):
        s = table1_file.scenario
        assert (s.q_star, s.p_star, s.l_n) == (250.0, 1.0, 10000.0)
        assert s.pi_s == 1e-5
        assert table1_file.digest.startswith("sha256:")

    def test_bundled_table2(self, table2_file):
        s = table2_file.scenario
        assert s.price == 0.5
        assert s.pi_s == 1e-4
        assert table2_file.losses == (1000.0, 3797.0, 8000.0)

    def test_range_violation_names_field(self, tmp_path):
        path = write_scenario(tmp_path, theta=1.5)
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert exc.value.field == "theta"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, bogus=1.0)
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert "bogus" in str(exc.value)

    def test_missing_keys_reported_by_name(self, tmp_path):
        data = json.loads((SCENARIO_DIR / "table2.json").read_text())
        del data["nu"], data["theta"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as exc:
            load_scenario(str(path))
        assert "nu" in str(exc.value) and "theta" in str(exc.value)

    def test_scientific_notation_accepted(self, tmp_path):
        path = write_scenario(tmp_path, pi_s=2.5e-4)
        assert load_scenario(path).scenario.pi_s == 2.5e-4

    def test_tornado_plan_parsing(self, tmp_path):
        path = write_scenario(tmp_path, tornado=[["p_star", -0.1, 0.1], ["nu", 0.1, 0.2]])
        sf = load_scenario(path)
        assert sf.tornado_plan == (("p_star", -0.1, 0.1), ("nu", 0.1, 0.2))

    def test_bad_tornado_factor(self, tmp_path):
        path = write_scenario(tmp_path, tornado=[["frobnicate", -0.1, 0.1]])
        with pytest.raises(ValidationError):
            load_scenario(path)

    def test_non_numeric_blocks_rejected(self, tmp_path):
        path = write_scenario(tmp_path, sweep={"points": "many"})
        with pytest.raises(ValidationError):
            load_scenario(path)
        path = write_scenario(tmp_path, tornado=[["nu", "a", 0.2]])
        with pytest.raises(ValidationError):
            load_scenario(path)
        for block, field in (
            ({"sweep": {"points": float("nan")}}, "sweep.points"),
            ({"sweep": {"points": float("inf")}}, "sweep.points"),
            ({"sweep": {"points": 2.7}}, "sweep.points"),
            ({"losses": [True, 2]}, "losses[0]"),
            ({"tornado": []}, "tornado"),  # not the default plan in disguise
            ({"q_star": 10**400}, "q_star"),  # an integer beyond the float range
            ({"sweep": [0.0, 0.5]}, "sweep"),
            ({"sweep": {"pmid": 0.5}}, "sweep.pmid"),
            ({"tornado": {"nu": [0.1, 0.2]}}, "tornado"),
            ({"tornado": [["nu", 0.1]]}, "tornado[0]"),
            ({"losses": 1000.0}, "losses"),
        ):
            path = write_scenario(tmp_path, **block)
            with pytest.raises(ValidationError) as exc:
                load_scenario(path)
            assert exc.value.field == field
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ValidationError) as exc:
            load_scenario(str(path))
        assert exc.value.field == "document"
        assert main(["sweep-price", write_scenario(tmp_path, sweep={"points": float("nan")})]) == EXIT_VALIDATION
        assert main(["tornado", write_scenario(tmp_path, tornado=[])]) == EXIT_VALIDATION

    def test_whole_float_points_accepted(self, tmp_path, capsys):
        assert load_scenario(write_scenario(tmp_path, sweep={"points": 7.0})).sweep == {"points": 7.0}
        assert main(["sweep-price", write_scenario(tmp_path, sweep={"points": 7.0})]) == EXIT_OK
        assert "points            7" in capsys.readouterr().out


class TestExitCodes:
    def test_solve_ok(self, capsys):
        assert main(["solve", TABLE2]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3796.92" in out
        assert "INTERIOR" in out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate", TABLE2]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_parse_error_on_garbage(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == EXIT_PARSE

    def test_parse_error_on_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == EXIT_PARSE

    def test_validation_error_names_field(self, tmp_path, capsys):
        path = write_scenario(tmp_path, theta=1.5)
        assert main(["solve", path]) == EXIT_VALIDATION
        assert "theta" in capsys.readouterr().err

    def test_numeric_failure_exit(self, monkeypatch, capsys):
        import privopt.cli as cli_mod

        # a solver that stops at l = 0 loses to the grid oracle's point
        solve = cli_mod.solve_tradeoff
        monkeypatch.setattr(cli_mod, "solve_tradeoff", lambda s: dataclasses.replace(solve(s), l_opt=0.0))
        assert main(["oracle-check", TABLE2, "--grid", "10000"]) == EXIT_NUMERIC

    @pytest.mark.parametrize(
        "error, code, label",
        [
            (NumericError("no convergence"), EXIT_NUMERIC, "numeric failure"),
            (ValidationError("theta", "out of range"), EXIT_VALIDATION, "validation error"),
            (DomainError("outside the domain"), EXIT_VALIDATION, "validation error"),
            (UsageError("unsupported regime"), EXIT_USAGE, "usage error"),
            (ClosedFormInapplicableError("nu >= 1 + theta"), EXIT_USAGE, "usage error"),
            (PrivoptError("unclassified"), EXIT_VALIDATION, "error"),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
    )
    def test_package_error_maps_to_exit_code(self, monkeypatch, capsys, error, code, label):
        def fail(sf, args, out):
            raise error

        monkeypatch.setitem(cli._HANDLERS, "solve", fail)
        assert main(["solve", TABLE2]) == code
        assert capsys.readouterr().err == f"{label}: {error}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-check", TABLE2, "--grid", "0"],
            ["oracle-check", TABLE2, "--grid", "1"],
            ["oracle-check", TABLE2, "--grid", "-5"],
            ["oracle-check", TABLE2, "--grid", str(MAX_ORACLE_POINTS + 1)],
            ["sweep-price", TABLE2, "--points", str(MAX_SWEEP_POINTS + 1)],
        ],
    )
    def test_grid_size_out_of_range_is_validation_error(self, argv, capsys):
        # the sizes above the caps are rejected before anything is allocated
        assert main(argv) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_sweep_points_block_is_capped(self, tmp_path, capsys):
        path = write_scenario(tmp_path, sweep={"points": MAX_SWEEP_POINTS + 1})
        assert main(["sweep-olr", path]) == EXIT_VALIDATION
        assert "points" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(["solve", TABLE2, "--out", str(target)]) == EXIT_IO

    def test_olr_sweep_on_secure_scenario_is_usage_error(self, tmp_path):
        path = write_scenario(tmp_path, pi_s=0.0)
        assert main(["sweep-olr", path]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, code, message",
        [
            ("tornado", EXIT_USAGE, "positive optimum"),
        ],
    )
    def test_underflowing_optimum_exits_cleanly(self, tmp_path, command, code, message, capsys):
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(UNDERFLOWING))
        assert main([command, str(path)]) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", TABLE2, "--seed", "7"],
            ["solve", TABLE2, "--grid", "100"],
            ["tornado", TABLE2, "--points", "5"],
            ["oracle-check", TABLE2, "--pmin", "0.1"],
            ["sweep-price", TABLE2, "--grid", "100"],
            ["pareto-nu", "--benefit", "0.8", "--loss", "0.2", "--points", "5"],
        ],
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_only_read_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert "--seed" not in text
        assert ("--grid" in text) == (command == "oracle-check")
        for flag in ("--pmin", "--pmax", "--points"):
            assert (flag in text) == command.startswith("sweep-")
        assert ("--benefit" in text) == (command == "pareto-nu")


def run_python(code, *argv):
    """stdout of ``python -c code argv...`` with the package on the path."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        # scipy is a test-only reference; the package must run without it
        code = "import privopt.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert run_python(code) == "[]"

    def test_commands_load_no_numpy(self, tmp_path):
        # numpy is imported only for arrays; oracle-check is the one command that builds them
        argvs = [["pareto-nu", "--benefit", "0.8", "--loss", "0.2", "--out", str(tmp_path / "pareto-nu.json")]]
        argvs += [
            [command, TABLE2, "--no-timestamp", "--out", str(tmp_path / f"{command}.json")]
            for command in COMMANDS if command not in ("pareto-nu", "oracle-check")
        ]
        code = (
            "import json, sys\n"
            "import privopt.cli\n"
            "seen = [('import', 0, 'numpy' in sys.modules)]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    seen.append((argv[0], privopt.cli.main(argv), 'numpy' in sys.modules))\n"
            "print(json.dumps(seen))\n"
        )
        seen = json.loads(run_python(code, json.dumps(argvs)).splitlines()[-1])
        assert [name for name, _, _ in seen] == ["import"] + [argv[0] for argv in argvs]
        assert all(code == EXIT_OK and not numpy for _, code, numpy in seen), seen

    def test_int_scenario_is_float_and_solves_without_numpy(self):
        code = (
            "import sys, dataclasses, privopt\n"
            "s = privopt.Scenario(q_star=250, p_star=1, price=0.5, nu=0.138647, theta=0.138647,\n"
            "                     alpha_n=0.2, l_n=10000, pi_s=1e-4, pi_c_star=1e-4)\n"
            "sol = privopt.solve_tradeoff(s)\n"
            "print(sorted({type(getattr(s, f.name)).__name__ for f in dataclasses.fields(s)}),\n"
            "      sol.status.value, round(sol.l_opt, 1), 'numpy' in sys.modules)\n"
        )
        assert run_python(code) == "['float'] INTERIOR 3796.9 False"

    def test_scalar_model_calls_load_no_numpy(self):
        code = (
            "import sys, privopt\n"
            "s = privopt.Scenario(250.0, 1.0, 0.5, 0.138647, 0.138647, 0.2, 1e4, 1e-4, 1e-4)\n"
            "values = [privopt.demand_quantity(s, 0.2, 0.5), privopt.surplus_gradient(s, 3797.0)]\n"
            "for l in (0.0, 3797.0):\n"
            "    values += [f(s, l) for f in (privopt.net_surplus, privopt.marginal_demand_factor,\n"
            "                                 privopt.customer_breach_probability)]\n"
            "print(sorted({type(v).__name__ for v in values}), 'numpy' in sys.modules)\n"
        )
        assert run_python(code) == "['float'] False"

    def test_export_lists_agree(self):
        # the package exports its version, its errors and each module's
        # public names, all of which resolve, none twice
        import privopt
        from privopt import errors, model, secure, sensitivity, solver

        modules = (errors, model, solver, secure, sensitivity)
        module_names = [name for m in modules for name in m.__all__]
        assert set(errors.__all__) == {name for name in vars(errors) if name.endswith("Error")}
        assert set(privopt.__all__) == {"__version__"} | set(module_names)
        for package, names in ((privopt, privopt.__all__), (cli, cli.__all__)):
            assert len(set(names)) == len(names), package.__name__
            assert all(hasattr(package, name) for name in names), package.__name__
        assert len(set(module_names)) == len(module_names)
        # a star import binds exactly the listed names, each the owning module's object
        namespace = {}
        exec("from privopt import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(privopt.__all__)
        for module in modules:
            for name in module.__all__:
                assert getattr(privopt, name) is getattr(module, name), name


class TestCommands:
    def test_pareto_nu(self, capsys):
        assert main(["pareto-nu", "--benefit", "0.8", "--loss", "0.2"]) == EXIT_OK
        assert "0.138647" in capsys.readouterr().out

    def test_pareto_nu_requires_flags(self, capsys):
        assert main(["pareto-nu"]) == EXIT_USAGE

    def test_feasibility(self, capsys):
        assert main(["feasibility", TABLE2]) == EXIT_OK
        assert "NU_LT_1" in capsys.readouterr().out

    def test_solve_discrete_uses_losses_block(self, capsys):
        assert main(["solve-discrete", TABLE2]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chosen index      1" in out

    def test_solve_discrete_without_losses(self, tmp_path, capsys):
        data = json.loads((SCENARIO_DIR / "table2.json").read_text())
        del data["losses"]
        path = tmp_path / "nolosses.json"
        path.write_text(json.dumps(data))
        assert main(["solve-discrete", str(path)]) == EXIT_VALIDATION

    def test_oracle_check_agrees(self, capsys):
        assert main(["oracle-check", TABLE2, "--grid", "200000"]) == EXIT_OK
        assert "agreement         yes" in capsys.readouterr().out

    def test_oracle_check_accepts_a_tie(self, tmp_path, capsys):
        # the grid's first maximum lies half the cap away from the solver's
        # l_n, but its gain is no larger: a tie in floats, not a miss
        path = tmp_path / "subnormal_cap.json"
        path.write_text(json.dumps(SUBNORMAL_CAP))
        assert main(["oracle-check", str(path), "--grid", "32769"]) == EXIT_OK
        assert "agreement         yes" in capsys.readouterr().out

    def test_overflowing_surplus_exits_validation(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(OVERFLOWING_SURPLUS))
        assert main(["solve", str(path), "--out", str(tmp_path / "solve.json")]) == EXIT_VALIDATION
        assert "surplus scale" in capsys.readouterr().err

    def test_overflowing_benefit_exits_validation(self, tmp_path, capsys):
        # C is finite but C alpha_n is not: every command that evaluates the
        # surplus names the surplus scale, with no overflow warning first
        path = write_params(tmp_path, dict(OVERFLOWING_BENEFIT, losses=[1e-84, 3e-84]))
        for command in COMMANDS:
            if command == "pareto-nu":
                continue
            argv = [command, path, "--no-timestamp", "--out", str(tmp_path / f"{command}.json")]
            if command == "oracle-check":
                argv += ["--grid", "1001"]
            code = main(argv)
            err = capsys.readouterr().err
            assert "Warning" not in err, command
            if command in ("feasibility", "secure"):
                assert code == EXIT_OK, command
            else:
                assert code == EXIT_VALIDATION, command
                assert "surplus scale" in err, command

    def test_underflowing_saturation_product_clamps_to_zero(self, tmp_path):
        # alpha_n q* p* nu underflows to 0 in floats; its ratio, about 2e51, clamps the price to 0
        path = write_params(tmp_path, UNDERFLOWING_SATURATION)
        for command, key in (("sweep-price", "saturation_price"), ("sweep-revenue", "saturation_price"),
                             ("sweep-olr", "kink_price")):
            out = tmp_path / f"{command}.json"
            assert main([command, path, "--points", "21", "--no-timestamp", "--out", str(out)]) == EXIT_OK
            assert strict_json(out.read_text())["summary"][key] == 0.0, command

    def test_overflowing_olr_is_null(self, tmp_path, capsys):
        # the secure optimum is about 1e364 times the vulnerable one: no ratio
        path = write_params(tmp_path, OVERFLOWING_OLR)
        secure, olr = tmp_path / "secure.json", tmp_path / "olr.json"
        assert main(["secure", path, "--no-timestamp", "--out", str(secure)]) == EXIT_OK
        assert strict_json(secure.read_text())["summary"]["olr"] is None
        argv = ["sweep-olr", path, "--points", "21", "--no-timestamp", "--out", str(olr)]
        assert main(argv) == EXIT_OK
        assert strict_json(olr.read_text())["sweep"]["olr"] == [None] * 21
        assert "olr range         undefined at every grid price" in capsys.readouterr().out

    @pytest.mark.parametrize("params", [TINY_RISK], ids=["tiny_risk"])
    def test_overflowing_feasibility_bound_is_null(self, tmp_path, capsys, params):
        # the lower band edge, about 4.17e310, lies beyond the float range
        path = write_params(tmp_path, params)
        for command in ("solve", "feasibility"):
            out = tmp_path / f"{command}.json"
            assert main([command, path, "--no-timestamp", "--out", str(out)]) == EXIT_OK, command
            (condition,) = strict_json(out.read_text())["feasibility"]["conditions"]
            assert condition["bound"] is None
            assert condition["satisfied"] is False
        assert "bound undefined (violated)" in capsys.readouterr().out

    def test_overflowing_feasibility_formula_keeps_its_bound(self, tmp_path, capsys):
        # the linear formula overflows on the way to a bound of about 5.2e302;
        # the scaled quotient keeps it within 7.7e-17 of the 50-digit bound
        # at the same float margin
        path = write_params(tmp_path, OVERFLOWING_BOUND)
        s = Scenario(**OVERFLOWING_BOUND)
        expected = _oracle.sufficient_bound(s, s.margin())
        for command in ("solve", "feasibility"):
            out = tmp_path / f"{command}.json"
            assert main([command, path, "--no-timestamp", "--out", str(out)]) == EXIT_OK, command
            (condition,) = strict_json(out.read_text())["feasibility"]["conditions"]
            assert condition["bound"] == pytest.approx(float(expected), rel=1e-15, abs=0.0)
            assert condition["satisfied"] is True
        assert "bound undefined" not in capsys.readouterr().out

    def test_secure_reports_olr(self, capsys):
        assert main(["secure", TABLE2]) == EXIT_OK
        out = capsys.readouterr().out
        assert "olr" in out
        assert "2.00433" in out

    def test_tornado_prints_largest_first(self, capsys):
        assert main(["tornado", TABLE2]) == EXIT_OK
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln and not ln.startswith("(")]
        assert lines[0].split()[0] in ("pi_s", "pi_c_star")

    def test_sweep_olr_with_zero_vulnerable_optimum_everywhere(self, tmp_path, capsys):
        # nu == 1 with a large pi_s: l* = 0 at every grid price, so every OLR is undefined
        path = write_scenario(tmp_path, nu=1.0, pi_s=0.5)
        out = tmp_path / "olr.json"
        assert main(["sweep-olr", path, "--points", "11", "--no-timestamp", "--out", str(out)]) == EXIT_OK
        assert "olr range         undefined" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["sweep"]["olr"] == [None] * 11
        assert doc["sweep"]["l_opt"] == [0.0] * 11

    def test_sweep_flags_override_grid(self, capsys):
        assert main(["sweep-price", TABLE2, "--pmin", "0.3", "--pmax", "0.6", "--points", "7"]) == EXIT_OK
        assert "points            7" in capsys.readouterr().out


class TestReports:
    def test_json_round_trip(self, table1_file, table2_file):
        # every command, so each report shape (solution, feasibility, sweep,
        # tornado, summary only) is parsed back and written again
        for command in COMMANDS:
            args = make_args(benefit=0.8, loss=0.2, grid=20001, points=31)
            sf = None if command == "pareto-nu" else table1_file if command == "sweep-olr" else table2_file
            bundle = run_command(command, sf, args, out=io.StringIO())
            rendered = render_report(bundle, "json")
            payload = json.loads(rendered)
            assert payload == bundle.to_dict(), command
            assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == rendered, command

    def test_sweep_round_trip(self, table1_file):
        # floats are written as their shortest round-trip decimal, so every
        # column parses back to the very floats of the sweep
        bundle = run_command("sweep-olr", table1_file, make_args(points=31), out=io.StringIO())
        rendered = render_report(bundle, "json")
        payload = json.loads(rendered)
        assert payload == bundle.to_dict()
        for name in ("grid", "l_opt", "revenue", "olr"):
            assert tuple(payload["sweep"][name]) == getattr(bundle.sweep, name), name
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == rendered

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sweep-price", TABLE1, "--points", "21", "--no-timestamp", "--out", str(out1)]) == EXIT_OK
        assert main(["sweep-price", TABLE1, "--points", "21", "--no-timestamp", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_present_unless_suppressed(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["solve", TABLE2, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["metadata"]["timestamp"] is not None
        assert main(["solve", TABLE2, "--no-timestamp", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["metadata"]["timestamp"] is None

    def test_sweep_csv_schema_and_monotone_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep-price", TABLE1, "--format", "csv", "--no-timestamp", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "factor,value,l_opt,revenue,olr,status"
        l_opt = [float(row.split(",")[2]) for row in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(l_opt, l_opt[1:]))
        statuses = {row.split(",")[5] for row in lines[1:]}
        assert statuses == {"CLAMPED_AT_LN", "INTERIOR"}

    def test_tornado_csv_sorted_by_magnitude(self, tmp_path):
        out = tmp_path / "tornado.csv"
        assert main(["tornado", TABLE2, "--format", "csv", "--no-timestamp", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "factor,kind,delta,value,mixed_status"
        values = [abs(float(r.split(",")[3])) for r in rows[1:]]
        pair_peaks = [max(values[i], values[i + 1]) for i in range(0, len(values), 2)]
        assert pair_peaks == sorted(pair_peaks, reverse=True)

    def test_solve_csv_is_key_value(self, table2_file):
        bundle = run_command("solve", table2_file, make_args(format="csv"), out=io.StringIO())
        text = render_report(bundle, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {ln.split(",")[0] for ln in lines[1:]}
        assert {"l_opt", "status", "surplus", "regime"} <= keys

    def test_integer_summaries_in_csv(self, table2_file):
        # solve-discrete and oracle-check summaries hold ints, written as such
        for command, want in (
            ("solve-discrete", {"index": "1", "candidates": "3"}),
            ("oracle-check", {"grid_points": "1001"}),
        ):
            bundle = run_command(command, table2_file, make_args(format="csv", grid=1001), out=io.StringIO())
            rows = dict(line.split(",", 1) for line in render_report(bundle, "csv").splitlines()[1:])
            assert {key: rows[key] for key in want} == want, command

    def test_reports_are_strict_json_on_overflowing_scenario(self, tmp_path):
        # the closed-form stationary point and the raw secure optimum overflow to inf;
        # neither may reach a report as Infinity, and no command may end in a traceback
        path = write_scenario(tmp_path, losses=[0.001, 0.002], **OVERFLOWING_EQ1)
        expected = {command: EXIT_OK for command in COMMANDS if command != "pareto-nu"}
        for command, code in expected.items():
            out = tmp_path / f"{command}.json"
            argv = [command, path, "--no-timestamp", "--out", str(out)]
            if command == "oracle-check":
                argv += ["--grid", "2001"]
            assert main(argv) == code, command
            if code == EXIT_OK:
                doc = strict_json(out.read_text())
                assert doc["command"] == command
        solution = strict_json((tmp_path / "solve.json").read_text())["solution"]
        assert solution["critical_points"] == []
        assert solution["status"] == "CLAMPED_AT_LN"
        secure = strict_json((tmp_path / "secure.json").read_text())["summary"]
        assert secure["secure_l_raw"] is None
        assert secure["secure_l_clamped"] == OVERFLOWING_EQ1["l_n"]
        assert all(math.isfinite(secure[key]) for key in ("qeps_nu", "qeps_theta", "qeps_pi_c_star"))

    def test_secure_reports_underflowing_optimum(self, tmp_path):
        # the secure closed form underflows to 0; its quasi-elasticities stay
        # finite, and the OLR is undefined against a vulnerable optimum of 0
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(UNDERFLOWING))
        out = tmp_path / "secure.json"
        assert main(["secure", str(path), "--no-timestamp", "--out", str(out)]) == EXIT_OK
        summary = strict_json(out.read_text())["summary"]
        assert summary["secure_l_raw"] == summary["secure_l_clamped"] == 0.0
        assert summary["olr"] is None
        assert math.isfinite(summary["qeps_nu"])

    def test_non_finite_report_value_exits_numeric(self, tmp_path, monkeypatch, capsys):
        def handler(sf, args, out):
            return {"summary": {"nu": math.inf}}

        monkeypatch.setitem(cli._HANDLERS, "pareto-nu", handler)
        out = tmp_path / "r.json"
        argv = ["pareto-nu", "--benefit", "0.8", "--loss", "0.2", "--out", str(out)]
        assert main(argv) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(NumericError):
            render_report(ReportBundle(command="pareto-nu", **handler(None, None, None)), "json")

    @given(s=fuzz_scenarios())
    @example(s=Scenario(**OVERFLOWING_BRACKET))
    @example(s=Scenario(**OVERFLOWING_EQ1))
    @example(s=Scenario(**SUBNORMAL_OPTIMUM))
    @settings(max_examples=40, deadline=None)
    def test_every_report_is_strict_json(self, s):
        # every scenario command either exits cleanly with a report that
        # strict JSON accepts or names the scenario invalid for it (exit 1
        # or 3); solve always succeeds
        for command, code in run_scenario_commands(s, grid=2001).items():
            allowed = (EXIT_OK,) if command == "solve" else (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION)
            assert code in allowed, (command, code, s)

    @given(s=wide_scenarios())
    @example(s=Scenario(**OVERFLOWING_BENEFIT))
    @example(s=Scenario(**UNDERFLOWING_SATURATION))
    @example(s=Scenario(**OVERFLOWING_OLR))
    @example(s=Scenario(**OVERFLOWING_BOUND))
    @example(s=Scenario(**TINY_RISK))
    @settings(max_examples=30, deadline=None)
    def test_wide_magnitudes_exit_cleanly(self, s):
        # scales across most of the float range: no traceback, no warning and
        # no non-finite report (exit 4); a scenario a command cannot serve is
        # a usage or validation error
        for command, code in run_scenario_commands(s, grid=1001, points=21).items():
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION), (command, code, s)

    def test_tiny_optimum_solves_to_the_root(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_OPTIMUM))
        out = tmp_path / "solve.json"
        assert main(["solve", str(path), "--no-timestamp", "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "l_opt             1.25305e-155" in text
        assert "INTERIOR" in text
        solution = strict_json(out.read_text())["solution"]
        assert solution["l_opt"] == pytest.approx(1.2530504093e-155, rel=1e-10, abs=0.0)
        assert abs(strict_json(out.read_text())["summary"]["normalized_gradient"]) < 1e-12

    def test_json_mirrors_solution_fields(self, tmp_path):
        out = tmp_path / "solve.json"
        assert main(["solve", TABLE2, "--no-timestamp", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["solution"]["status"] == "INTERIOR"
        assert doc["solution"]["l_opt"] == pytest.approx(3796.918, abs=0.01)
        assert doc["metadata"]["input_digest"].startswith("sha256:")
        assert doc["command"] == "solve"
