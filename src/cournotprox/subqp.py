"""Separable box-constrained quadratic subproblems, solved in closed form.

The proximal subproblem of the splitting iteration is diagonal once the
coupling term is linearized, so it has a closed-form solution. The
classical affine-cost equilibrium is the unique minimizer of the
combined-curvature QP, whose Hessian beta*(I + 11') is diagonal plus rank
one; a breakpoint search over total output solves it exactly, and it
serves as the validation oracle for solver runs on convex instances.
"""

from __future__ import annotations

import math

import numpy as np

from .costs import AffineCost
from .model import _coupling_slope

__all__ = [
    "prox_step",
    "classical_equilibrium",
]


def _model_gradient_at(inst, x, cost_grad=None, out=None):
    # linearized part of the local model, no own-output term: the coupling
    # slope minus h'(x)
    if cost_grad is None:
        cost_grad = inst.cost.gradient(x)
    g = _coupling_slope(inst, x, out)
    return np.subtract(g, cost_grad, out=g)


def prox_step(inst, x, c, g=None, out=None):
    """Minimizer of the convexified local model with proximal damping 1/(2c).

    Keeps the own-output quadratic exact, linearizes the smooth cost at
    ``x``, and damps the move; separability gives the closed form
    clamp((x - c*g)/(1 + 2*beta*c)) per coordinate. Stationary points
    are exactly its fixed points, for every c > 0.

    ``g`` is the linearized slope at ``x``,
    ``beta*(sigma - x) - alpha_tilde - cost.gradient(x)`` with sigma the
    total output. It does not
    depend on c, so a caller trying several c from one ``x`` can compute
    it once and pass it in; by default it is computed here. The step is
    written into ``out`` when given (an array shaped like ``x`` that
    aliases neither ``x`` nor ``g``) and returned.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be positive and finite, got {c!r}")
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise ValueError(f"x must have shape ({inst.n},), got {x.shape}")
    if g is None:
        g = _model_gradient_at(inst, x)
    out = np.multiply(c, g, out=out)
    np.subtract(x, out, out=out)
    np.divide(out, 1.0 + 2.0 * inst.beta * c, out=out)
    # clamp with two ufuncs; np.clip takes about three times as long
    np.maximum(out, inst.lower, out=out)
    return np.minimum(out, inst.upper, out=out)


def classical_equilibrium(inst):
    """Unique equilibrium of the affine-cost market, solved exactly.

    Requires an affine cost model. Minimizes (1/2) x'Qx + b'x over the
    box, with Q = beta*(I + 11') and b = mu + mu_h - alpha0 collecting the
    instance-level and cost-level linear coefficients. The optimality
    conditions give x_i = clip(a_i - sigma, lower_i, upper_i) with
    a = -b/beta, where the total output sigma is the one root of the
    strictly decreasing F(sigma) = sum_i clip(a_i - sigma, ...) - sigma.
    A bisection over the sorted finite breakpoints a - upper and
    a - lower finds the piece of F that holds the root, and F is affine
    there, so sigma follows from one division: O(n log n), no tolerance
    and no iteration budget. Infinite bounds are allowed.
    """
    if not isinstance(inst.cost, AffineCost):
        raise TypeError("classical equilibrium requires an affine cost model")
    lo, up = inst.lower, inst.upper
    a = -(inst.mu + inst.cost.mu_h - inst.alpha0) / inst.beta
    a_up, a_lo = a - up, a - lo
    knots = np.unique(np.concatenate([a_up, a_lo]))
    knots = knots[np.isfinite(knots)]
    # first knot k with F(knots[k]) <= 0; the root lies in [knots[k-1], knots[k]]
    k, hi = 0, knots.size
    while k < hi:
        mid = (k + hi) // 2
        if np.sum(np.clip(a - knots[mid], lo, up)) - knots[mid] > 0:
            k = mid + 1
        else:
            hi = mid
    left = knots[k - 1] if k > 0 else -np.inf
    right = knots[k] if k < knots.size else np.inf
    # on that piece each firm sits at its upper bound, its lower bound, or a - sigma
    at_up, at_lo = a_up >= right, a_lo <= left
    free = ~(at_up | at_lo)
    fixed = np.sum(up[at_up]) + np.sum(lo[at_lo])
    sigma = (fixed + np.sum(a[free])) / (1.0 + np.count_nonzero(free))
    return np.clip(a - sigma, lo, up)
