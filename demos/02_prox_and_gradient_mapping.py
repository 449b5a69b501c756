#!/usr/bin/env python3
"""The proximal step and its gradient mapping G_c(x) = (x - s_c(x))/c.

Checks the closed-form box prox point against its variational optimality
condition, shows the fixed-point property at stationary points, how the
mapping norm shrinks while the raw displacement grows as the damping
parameter increases, and the stationarity certificate built on it.
This is the paper's step, ``Splitting.PAPER`` in ``solve``.
"""

import numpy as np

from cournotprox import (
    Splitting,
    classical_equilibrium,
    eps_certificate,
    prox_step,
)
from cournotprox.experiments import affine_market, log_cost_market

inst = log_cost_market(6, seed_or_rng=3)
L = inst.L_h + (inst.n - 1) * inst.beta  # L_gamma, the bound of the paper's step
x = inst.center()
c = 1.0 / L

# s minimizes beta*||y||^2 + g'(y - x) + ||y - x||^2/(2c) over the box exactly
# when (y - s)'v >= 0 for every box point y, with v the model gradient at s and
# g = beta*(sigma - x) - alpha_tilde - h'(x) the linearized slope, sigma the total output;
# the left side is linear in y, so its minimum sits at a box vertex, coordinate by coordinate
print("closed-form prox point against its variational optimality condition:")
print(f"{'point':>8} {'c*L_gamma':>10} {'at a bound':>11} {'min over the box of (y - s)v':>29}")
x_random = np.random.default_rng(0).uniform(inst.lower, inst.upper)
for name, xx in (("center", x), ("random", x_random)):
    for frac in (1.0, 4.0):
        cc = frac / L
        s = prox_step(inst, xx, cc)
        h_slope = np.empty(inst.n)
        inst.cost.value_components(xx, h_slope)  # the cost's one kernel writes h'(x) here
        g = inst.beta * (np.sum(xx) - xx) - inst.alpha_tilde - h_slope
        v = 2.0 * inst.beta * s + g + (s - xx) / cc
        worst = np.sum(np.minimum((inst.lower - s) * v, (inst.upper - s) * v))
        active = np.count_nonzero((s == inst.lower) | (s == inst.upper))
        print(f"{name:>8} {frac:10.1f} {active:11d} {worst:29.2e}")
print("nonnegative up to rounding: every prox point is the exact minimizer")

print("\ngradient mapping at the box center, c = 1/L_gamma:")
G = (x - prox_step(inst, x, c)) / c
print("  G_c(x) =", np.round(G, 4))
print(f"  certificate (1 + c*L_gamma)*||G_c|| = {eps_certificate(inst, x, c, Splitting.PAPER):.4f}")

# at a stationary point the prox step goes nowhere, for any damping
conv = affine_market(4, mu=2.0)
star = classical_equilibrium(conv)
print("\naffine equilibrium, residual ||x - s_c(x)|| across damping levels:")
for cc in (0.1, 1.0, 10.0):
    print(f"  c = {cc:5.1f}: {np.linalg.norm(star - prox_step(conv, star, cc)):.2e}")

print("\ndamping sweep at a non-stationary point (log-cost market):")
print(f"{'c*L_gamma':>10} {'||G_c||':>12} {'||x - s_c||':>12}")
for frac in 2.0 ** np.arange(-4, 5):
    cc = frac / L
    r = np.linalg.norm(x - prox_step(inst, x, cc))
    e = r / cc
    print(f"{frac:10.4f} {e:12.6f} {r:12.6f}")
print("the mapping norm only falls, the displacement only grows")
