#!/usr/bin/env python3
"""A nonconvex run in detail: descent, damping policies, splittings, certificates.

Solves a log-cost market under the fixed damping rule and under the
shrinking line search, prints the head of the iteration trace, and
checks the per-iteration potential drop and the terminal stationarity
certificate. The default splitting keeps the coupling exact, so its
damping is 1/L_h; the paper's splitting linearizes it and damps by
1/L_gamma. Exits 1 when the descent or the budget check it prints fails.
"""

import sys

import numpy as np

from cournotprox import SolverConfig, Splitting, StepPolicy, solve
from cournotprox.experiments import log_cost_market

inst = log_cost_market(20, seed_or_rng=1)
L = inst.L_h
print(f"log-cost market, n=20, L_h = {L:.4f}, fixed damping c = 1/L_h = {1 / L:.4f}")

res, trace = solve(inst, SolverConfig(eps=1e-6))
print(f"\nfixed policy: {res.status.value} after {res.iterations} iterations")
print(f"{'k':>4} {'gamma':>14} {'step':>12} {'||G_c||':>12} {'delta_k':>12} {'budget':>12}")
show = list(range(3)) + list(range(len(trace) - 2, len(trace)))
for k in show:
    print(
        f"{k:4d} {trace.gamma[k]:14.6f} {trace.step_norm[k]:12.3e} "
        f"{trace.residual[k]:12.3e} {trace.delta[k]:12.3e} {trace.bound_rhs[k]:12.3e}"
    )

drops = trace.gamma[:-1] - trace.gamma[1:]
needed = 0.5 * trace.c[:-1] * trace.residual[:-1] ** 2
descent = bool(np.all(drops >= needed - 1e-9))
within_budget = bool(np.all(trace.delta <= trace.bound_rhs + 1e-12))
print(f"\nper-step potential drop is at least (c/2)*||G_c||^2: {descent}")
print(f"best scaled squared step delta_k stays under its budget: {within_budget}")
print(f"delta at the last recorded iteration: {trace.delta[-1]:.3e}")
print(f"terminal certificate (worst unit-direction slope >= -kappa): kappa = {res.certificate:.3e}")

cfg = SolverConfig(step_policy=StepPolicy.LINE_SEARCH, eps=1e-6)
res_ls, tr_ls = solve(inst, cfg)
print(f"\nline-search policy: {res_ls.status.value} after {res_ls.iterations} iterations "
      f"and {res_ls.trials} trials")
print(f"accepted damping ranged over [{tr_ls.c.min():.4f}, {tr_ls.c.max():.4f}] "
      f"(fixed policy used {1 / L:.4f})")
print(f"both policies agree on the answer to {np.max(np.abs(res.x - res_ls.x)):.1e}")

paper, _ = solve(inst, SolverConfig(eps=1e-6, splitting=Splitting.PAPER))
L_gamma = inst.L_h + (inst.n - 1) * inst.beta
print(f"\nthe paper's splitting, fixed damping 1/L_gamma = {1 / L_gamma:.4f}: "
      f"{paper.status.value} after {paper.iterations} iterations "
      f"(exact coupling: {res.iterations})")
print(f"both splittings agree on the answer to {np.max(np.abs(res.x - paper.x)):.1e}")
if not (descent and within_budget):
    sys.exit(1)
