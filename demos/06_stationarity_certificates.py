#!/usr/bin/env python3
"""Certifying solver output: the Nash gap and fixed-point residuals.

The Nash gap is what the firms could gain by deviating one at a time,
the minimum of the equilibrium bifunction over the box with the sign
flipped. It splits into one 1-D problem per firm, so ``nash_gap``
returns a certified bracket [lo, hi] on it, over the whole box or
within an infinity-norm radius (the local equilibrium test). Zero means
an equilibrium; a stationary point can have a positive gap.
"""

import numpy as np

from cournotprox import SolverConfig, Splitting, nash_gap, prox_step, solve
from cournotprox.experiments import exp_cost_market, log_cost_market

inst = log_cost_market(10, seed_or_rng=0)
res, _ = solve(inst, SolverConfig(eps=1e-3))
print(f"log-cost market, n=10: {res.status.value} after {res.iterations} iterations")
lo, hi = nash_gap(inst, res.x)
print(f"  Nash gap over the whole box:    [{lo:.2e}, {hi:.2e}]")
lo, hi = nash_gap(inst, res.x, radius=0.5)
print(f"  Nash gap within radius 0.5:     [{lo:.2e}, {hi:.2e}]")

far = inst.project(np.full(10, 1.0))
lo, hi = nash_gap(inst, far)
print(f"\nnon-stationary probe x = 1: gap in [{lo:.3f}, {hi:.3f}], far from an equilibrium")
lo, hi = nash_gap(inst, far, radius=0.5)
print(f"  even within radius 0.5 it is [{lo:.3f}, {hi:.3f}]: not a local equilibrium either")

print("\nfixed-point residuals ||x - s_c(x)|| at the converged point:")
L = inst.L_h + (inst.n - 1) * inst.beta  # L_gamma
for frac in (0.1, 1.0, 10.0):
    residual = np.linalg.norm(res.x - prox_step(inst, res.x, frac / L, splitting=Splitting.PAPER))
    print(f"  c = {frac:4.1f}/L: {residual:.2e}")

big = exp_cost_market(1000, seed_or_rng=0)
print("\nexp-cost market, n=1000, both splittings stopped at step norm <= 1e-3:")
for splitting in Splitting:
    res, _ = solve(big, SolverConfig(eps=1e-3, splitting=splitting))
    lo, hi = nash_gap(big, res.x)
    print(f"  {splitting.value:>5}: {res.status.value} after {res.iterations:4d} iterations, "
          f"certificate {res.certificate:.1e}, Nash gap in [{lo:.4f}, {hi:.4f}]")
print("the paper's damping 1/L_gamma shrinks with n, so its step-norm stop leaves a gain "
      "on the table")
