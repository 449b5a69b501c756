#!/usr/bin/env python3
"""Convex sanity check: the splitting iteration against the affine oracle.

With affine costs the market is the classical convex one and has a
unique equilibrium. There the exact-coupling model at c = inf is the
potential itself, a strongly convex QP, so one ``prox_step`` at c = inf
from any point lands on the equilibrium. The splitting solver must land
on it too; for the symmetric case the closed-form answer
(alpha0 - mu) / ((n+1) beta) is also available. Exits 1 if the solver's
answer is more than 1e-6 from either.
"""

import math
import sys

import numpy as np

from cournotprox import SolverConfig, prox_step, solve
from cournotprox.experiments import affine_market

TOL = 1e-6
worst = 0.0


def oracle(inst):
    return prox_step(inst, inst.center(), math.inf)


print("symmetric market: n=5, beta=0.1, alpha0=10, mu=2, box [0, 50]")
inst = affine_market(5, mu=2.0)
star = oracle(inst)
res, trace = solve(inst, SolverConfig(eps=1e-8))
closed = (10.0 - 2.0) / (6 * 0.1)
worst = max(worst, np.max(np.abs(res.x - star)), np.max(np.abs(res.x - closed)))
print(f"  closed form     : {closed:.10f}")
print(f"  oracle (c = inf): {star[0]:.10f}")
print(f"  splitting solver: {res.x[0]:.10f}  ({res.iterations} iterations)")

print("\nasymmetric markets, solver vs oracle in the sup norm:")
for n in (1, 2, 20, 100):
    rng = np.random.default_rng(100 + n)
    inst = affine_market(n, mu=rng.uniform(0.0, 5.0, n))
    star = oracle(inst)
    res, _ = solve(inst, SolverConfig(eps=1e-8))
    err = np.max(np.abs(res.x - star))
    worst = max(worst, err)
    at_bounds = int(np.sum((star <= 1e-9) | (star >= 50.0 - 1e-9)))
    print(f"  n={n:4d}: err={err:.2e} iters={res.iterations:5d} active bounds={at_bounds}")

print("\nbinding production caps: tight upper bound forces a boundary equilibrium")
inst = affine_market(1, mu=0.0, upper=10.0)
print(f"  n=1, mu=0, box [0,10]: equilibrium at {oracle(inst)[0]:.6f}")
inst = affine_market(1, mu=9.0, upper=10.0)
print(f"  n=1, mu=9, box [0,10]: equilibrium at {oracle(inst)[0]:.6f} (interior)")

print(f"\nlargest distance from the oracle or the closed form: {worst:.2e} (tolerance {TOL:g})")
if worst > TOL:
    sys.exit(1)
