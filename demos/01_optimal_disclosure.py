"""How much personal data should a customer hand over?

Walks through the core trade-off on the bundled reference scenario:
demand expansion earned by disclosure, expected breach loss, the net
surplus between them, and the solver that finds the sweet spot.
"""

from pathlib import Path

import numpy as np

from privopt import (
    Scenario,
    feasibility_report,
    marginal_demand_factor,
    net_surplus,
    normalized_gradient,
    oracle_grid_argmax,
    solve_discrete,
    solve_tradeoff,
)
from privopt.cli import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

s: Scenario = load_scenario(str(SCENARIOS / "table2.json")).scenario
print("scenario:", s, "\n")

# The customer's exposure is proxied by the potential monetary loss l.
# Releasing more data expands the demand curve...
for l in (0.0, 1000.0, 3797.0, 10000.0):
    alpha = marginal_demand_factor(s, l)
    print(f"  l = {l:7.0f}  ->  demand expansion alpha = {alpha:.4f}")

# ...but also raises the expected breach loss.  The net surplus peaks in
# between:
print("\nnet surplus along the exposure axis:")
for l in np.linspace(0.0, s.l_n, 11):
    bar = "#" * int(round((net_surplus(s, l) - 30.0) * 8))
    print(f"  l = {l:7.0f}  S = {net_surplus(s, l):7.3f}  {bar}")

# The solver classifies the gradient shape, brackets the root of the
# first-order condition and refines it.
sol = solve_tradeoff(s)
lo, hi = sol.bracket
print(f"\nregime           {sol.regime.value}")
print(f"search bracket   [{lo:.1f}, {hi:.1f}]")
print(f"optimal loss     {sol.l_opt:.2f}  ({sol.status.value})")
print(f"surplus there    {sol.surplus:.4f}  vs  {net_surplus(s, 0.0):.4f} with no disclosure")
print(f"gradient residual {normalized_gradient(s, sol.l_opt):.2e}")

rep = feasibility_report(s)
print(f"uniqueness       guaranteed = {rep.guaranteed_unique} ({rep.regime.value})")

# Sanity check against a brute-force grid:
grid_best = oracle_grid_argmax(s, 1_000_000)
print(f"\nbrute-force argmax over 1e6 grid points: {grid_best:.2f} "
      f"(|diff| = {abs(grid_best - sol.l_opt):.4f})")

# Real menus are discrete.  Pick the best of a handful of release levels
# (l = 0, releasing nothing, always competes):
levels = [500.0, 2000.0, 3797.0, 6000.0, 9500.0]
index, best_l, best_s = solve_discrete(s, levels)
print(f"\ndiscrete menu {levels}")
print(f"best choice: index {index}, loss {best_l:.0f}, surplus {best_s:.4f}")
