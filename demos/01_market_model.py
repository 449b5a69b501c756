#!/usr/bin/env python3
"""Tour of the market datum: operators, potential, and the bifunction.

Builds a small oligopoly with a logarithmic cost, shows that the
quadratic operators act in O(n) without any matrices, and inspects the
potential and the equilibrium bifunction around a candidate point.
"""

import numpy as np

from cournotprox import (
    LogCost,
    MarketInstance,
    apply_Btilde,
    apply_Q,
    grad_gamma,
    phi_bifunction,
    potential_gamma,
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
print(f"coupling norm (n-1)*beta = {inst.btilde_norm}")
print(f"cost curvature bound     = {inst.cost.lipschitz_L():.4f}")

x = np.array([2.0, 4.0, 6.0, 8.0])
print("\nat x =", x)
print("  coupling operator    beta*(sig - x):", apply_Btilde(inst, x))
print("  full curvature       beta*(sig + x):", apply_Q(inst, x))
print("  own-output part      2*beta*x      :", apply_Q(inst, x) - apply_Btilde(inst, x))
print("  potential gamma(x)                 :", potential_gamma(inst, x))
print("  gradient of gamma                  :", np.round(grad_gamma(inst, x), 4))

# the bifunction vanishes on the diagonal; a negative value is a profitable deviation
y = np.array([3.0, 3.0, 7.0, 9.0])
print("\nbifunction values against y =", y)
print("  phi(x, x) =", phi_bifunction(inst, x, x))
print("  phi(x, y) =", phi_bifunction(inst, x, y))

# directional slopes d . grad gamma(x) certify first-order behavior along feasible moves
d_in = np.array([1.0, 0.0, 0.0, 0.0])
g = grad_gamma(inst, x)
print("\ndirectional slopes at x:")
print("  toward higher output of firm 1:", d_in @ g)
print("  toward lower output of firm 1 :", -d_in @ g)
print("a stationary point needs nonnegative slope along every feasible direction")
