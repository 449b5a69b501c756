#!/usr/bin/env python3
"""Tour of the market datum: the potential, its curvature bound and the Nash gap.

Builds a small oligopoly with a logarithmic cost, evaluates the merit
potential in O(n) without any matrices, reads off the curvature bound
L_gamma that sizes the proximal steps, and brackets the Nash gap (what
a firm gains by deviating on its own) at a stationary candidate and at
a point where one firm has moved away from it. Exits 1 when the
candidate's certificate is above 1e-6 or the deviating firm's gap is not
positive.
"""

import sys

import numpy as np

from cournotprox import (
    LogCost,
    MarketInstance,
    SolverConfig,
    nash_gap,
    potential_gamma,
    solve,
)

n = 4
inst = MarketInstance(
    beta=0.1,
    alpha0=10.0,
    mu=0.0,
    lower=0.0,
    upper=10.0,
    cost=LogCost(c0=2.0, c=1.5, r=[1.2, 1.4, 1.6, 1.8]),
)

print(f"{n} firms, price 10 - 0.1*total output, box [0, 10]^{n}")
print(f"cost curvature bound L_h           = {inst.L_h:.4f}")
L_gamma = inst.L_h + (inst.n - 1) * inst.beta
print(f"potential curvature bound L_gamma  = {L_gamma:.4f}  (L_h + (n-1)*beta)")

x = np.array([2.0, 4.0, 6.0, 8.0])
cost_slope = np.empty(n)
print("\nat x =", x)
print(f"  potential gamma(x) = {potential_gamma(inst, x, cost_slope):.6f}")
print("  cost term's slope -h'(x) =", np.round(cost_slope, 4), "(left by the same cost call)")

# the gap is what the firms gain by unilateral deviation: zero exactly at an
# equilibrium; the bracket's width is the certified error of the per-firm minimizer
res, _ = solve(inst, SolverConfig(eps=1e-8))
print(f"\nstationary candidate after {res.iterations} steps:", np.round(res.x, 4))
print(f"  potential {res.gamma_final:.6f}, stationarity certificate {res.certificate:.1e}")
lo, hi = nash_gap(inst, res.x)
print(f"  Nash gap in [{lo:.2e}, {hi:.2e}]")

y = res.x.copy()
y[0] = 0.5 * y[0]
print("\nfirm 1 halves its output:", np.round(y, 4))
print(f"  potential {potential_gamma(inst, y):.6f}")
gap, hi = nash_gap(inst, y)
print(f"  Nash gap in [{gap:.2e}, {hi:.2e}]: firm 1 gains by moving back")
lo, hi = nash_gap(inst, y, radius=0.5)
print(f"  moves of at most 0.5 gain [{lo:.2e}, {hi:.2e}]")
if not (res.certificate <= 1e-6 and gap > 0.0):
    sys.exit(1)
