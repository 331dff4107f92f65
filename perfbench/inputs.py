"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed, so the same seed gives
the same scenarios, files and op sequence.  Inputs are never filtered by
how the program handles them: the known defects stay in the mix.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from privopt import Scenario
from privopt.cli import COMMANDS, SCENARIO_KEYS

REGIMES = ("NU_LT_1", "SUBCASE_A", "SUBCASE_B", "NU_EQ_1", "NU_EQ_1_PLUS_THETA")
#: Share of solve-mix scenarios per regime; NU_LT_1 is the paper's regime.
REGIME_WEIGHTS = (0.6, 0.1, 0.1, 0.1, 0.1)
PI_S_ZERO_SHARE = 0.1

TABLE_FILES = ("scenarios/table1.json", "scenarios/table2.json")
PAPER_FILES = 13
#: Malformed classes, one file each, with the exit code the README
#: documents for them.
MALFORMED_EXIT = {"bad_json": 2, "unknown_key": 3, "missing_key": 3, "bool": 3,
                  "out_of_range": 3, "nan_points": 3, "frac_points": 3}
#: Slots of the malformed files in the 22-file cycle: a third of the
#: files, evenly spaced.  The two sweep.points holes sit in fixed slots
#: so every run meets them equally often.
MALFORMED_SLOTS = (1, 4, 7, 11, 14, 17, 20)
HOLE_SLOTS = {"nan_points": 4, "frac_points": 11}


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def fuzz_block(rng: np.random.Generator, size: int) -> list:
    """``size`` solve-mix scenarios: log-uniform magnitudes, all five regimes."""

    def logu(lo, hi):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    regime = rng.choice(len(REGIMES), size=size, p=REGIME_WEIGHTS)
    theta = rng.uniform(0.01, 0.99, size)
    nu = np.select(
        [regime == 0, regime == 1, regime == 2, regime == 3],
        [logu(1e-3, 0.999), 1.0 + theta * rng.uniform(0.01, 0.99, size),
         1.0 + theta + logu(1e-3, 9.0 - theta), np.ones(size)],
        1.0 + theta,
    )
    p_star = logu(1e-3, 1e6)
    columns = (
        logu(1e-3, 1e9),
        p_star,
        p_star * rng.uniform(0.0, 0.999, size),
        nu,
        theta,
        logu(1e-3, 1e3),
        logu(1e-3, 1e12),
        np.where(rng.random(size) < PI_S_ZERO_SHARE, 0.0, logu(1e-12, 0.5)),
        logu(1e-12, 0.5),
    )
    return [Scenario(*row) for row in zip(*(c.tolist() for c in columns))]


def paper_params(rng: random.Random) -> dict:
    """NU_LT_1 scenario with pi_s > 0 near the bundled table1/table2 cases.

    Every analysis call is defined here: the price stays low enough that
    the tornado's 10% price and p_star steps keep it below p_star, and
    the perturbation targets of the default plan differ from the base
    values.
    """
    p_star = _logu(rng, 0.5, 2.0)
    return {
        "q_star": 250.0 * _logu(rng, 0.5, 2.0),
        "p_star": p_star,
        "price": p_star * rng.uniform(0.05, 0.8),
        "nu": 0.138647 * _logu(rng, 0.5, 2.0),
        "theta": 0.138647 * _logu(rng, 0.5, 2.0),
        "alpha_n": 0.2 * _logu(rng, 0.5, 2.0),
        "l_n": 1e4 * _logu(rng, 0.5, 2.0),
        "pi_s": 1e-4 * _logu(rng, 0.1, 10.0),
        "pi_c_star": 1e-4 * _logu(rng, 0.1, 10.0),
    }


class ScenarioStream:
    """Distinct seeded scenarios, built in blocks through ``Scenario(...)``.

    ``block()`` returns the next ``size`` scenarios of the stream.
    """

    def __init__(self, seed: int, size: int, make=None):
        self.size = size
        self._make = make
        self._rng = random.Random(seed) if make else np.random.default_rng(seed)

    def block(self) -> list:
        if self._make is None:
            return fuzz_block(self._rng, self.size)
        return [Scenario(**self._make(self._rng)) for _ in range(self.size)]


def _malformed_text(kind: str, params: dict, rng: random.Random) -> str:
    doc = dict(params)
    if kind == "bad_json":
        text = json.dumps(doc)
        return text[: rng.randrange(1, len(text) - 1)]
    if kind == "unknown_key":
        doc["gamma"] = 1.0
    elif kind == "missing_key":
        del doc[rng.choice(SCENARIO_KEYS)]
    elif kind == "bool":
        doc[rng.choice(SCENARIO_KEYS)] = True
    elif kind == "out_of_range":
        field, value = rng.choice([("theta", 1.5), ("pi_s", -0.1), ("l_n", 0.0), ("nu", -1.0)])
        doc[field] = value
    elif kind == "nan_points":
        doc["sweep"] = {"points": math.nan}
    elif kind == "frac_points":
        doc["sweep"] = {"points": 2.7}
    return json.dumps(doc)


def cli_files(seed: int) -> list:
    """Scenario files for cli-mix as ``(name, text or None, kind)``, in cycle order.

    ``text`` is None for the bundled files, which are read in place.
    ``kind`` is ``"valid"``, ``"no_losses"`` (valid but without a
    ``losses`` block) or a malformed class.
    """
    rng = random.Random(seed)
    valid = [(path, None, "no_losses" if path.endswith("table1.json") else "valid")
             for path in TABLE_FILES]
    for i in range(PAPER_FILES):
        doc = paper_params(rng)
        doc["losses"] = sorted(doc["l_n"] * x for x in rng.sample([0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0], 3))
        if rng.random() < 0.5:
            doc["sweep"] = {"pmin": 0.0, "pmax": 0.95 * doc["p_star"], "points": rng.choice([101, 201])}
        valid.append((f"paper{i:02d}.json", json.dumps(doc), "valid"))
    rng.shuffle(valid)
    others = [kind for kind in MALFORMED_EXIT if kind not in HOLE_SLOTS]
    rng.shuffle(others)
    slots = {slot: kind for slot, kind in zip([s for s in MALFORMED_SLOTS if s not in HOLE_SLOTS.values()], others)}
    slots.update({slot: kind for kind, slot in HOLE_SLOTS.items()})
    files = []
    for slot in range(len(valid) + len(MALFORMED_EXIT)):
        if slot in slots:
            kind = slots[slot]
            files.append((f"{kind}.json", _malformed_text(kind, paper_params(rng), rng), kind))
        else:
            files.append(valid.pop())
    return files


def expected_exit(command: str, kind: str) -> int:
    """Exit code the README documents for one command on one file class."""
    if kind in MALFORMED_EXIT:
        return MALFORMED_EXIT[kind]
    if kind == "no_losses" and command == "solve-discrete":
        return 3
    return 0


def cli_ops(seed: int, files: list, count: int) -> list:
    """The first ``count`` cli-mix ops as ``(command, file index or None, extra argv)``.

    Commands cycle through all ten; the scenario files cycle in their
    seeded order, so the i-th file op uses file ``i mod 22`` (nine file ops
    per command round, coprime with 22); pareto-nu gets seeded
    benefit/loss fractions instead.
    """
    rng = random.Random(seed + 1)
    ops, j = [], 0
    for i in range(count):
        command = COMMANDS[i % len(COMMANDS)]
        if command == "pareto-nu":
            extra = ["--benefit", repr(rng.uniform(0.55, 0.95)), "--loss", repr(rng.uniform(0.05, 0.45))]
            ops.append((command, None, extra))
        else:
            ops.append((command, j % len(files), []))
            j += 1
    return ops
