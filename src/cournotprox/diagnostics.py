"""Verification instruments for solver output.

The Nash gap brackets how much the firms could gain by unilateral
deviation (globally, or within an infinity-norm radius) and so tells a
stationary point from an equilibrium, and the potential lower bound
feeds the per-iteration bound checks; stationarity itself is certified
by ``solver.eps_certificate``. The gap and the bound share one certified
scan of n independent 1-D profiles along the box diagonal.
"""

from __future__ import annotations

import numpy as np

from .model import apply_Btilde

__all__ = [
    "nash_gap",
    "gamma_lower_bound",
]

_GAP_GRID = 2048


def _scan_min(profile, lower, upper, grid):
    """Per-firm minimum of ``profile`` over ``grid`` nodes of each interval, and the node spacing.

    Walks t = lower + u*(upper - lower) for u in linspace(0, 1, grid),
    one n-vector per node (never a (grid, n) batch). A profile with
    |f''| <= M dips at most M*spacing**2/8 below its smaller neighbouring
    node value, which is the slack each caller adds to certify its result.
    """
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("bounded box required for the grid search")
    width = upper - lower
    best = np.full(width.shape, np.inf)
    for u in np.linspace(0.0, 1.0, grid):
        np.minimum(best, profile(lower + u * width), out=best)
    return best, width / (grid - 1)


def nash_gap(inst, x, radius=np.inf):
    """Certified bracket (lo, hi) on the Nash gap at ``x``: what unilateral deviation gains.

    The gap is -min_y phi_bifunction(x, y) over the box, restricted to
    |y - x|_inf <= radius; it is zero iff x is an equilibrium (a local
    one at a finite radius). The bifunction splits into firm terms,
    phi(x, y) = sum_i q_i(y_i) - q_i(x_i) with
    q_i(t) = beta*t**2 + (beta*sigma_{-i} - alpha_tilde[i])*t - h_i(t),
    so each q_i is minimized on its own interval by a ``_GAP_GRID``-node
    scan with the anchor x_i as one extra candidate, which makes
    lo >= 0. |q_i''| <= 2*beta + L_h bounds how far q_i can dip between
    nodes d_i apart, so hi = lo + sum_i (2*beta + L_h)*d_i**2/8.
    """
    x = np.asarray(x, dtype=float)
    if not radius > 0:
        raise ValueError("radius must be positive")
    if x.shape != (inst.n,) or not inst.contains(x, tol=1e-9):
        raise ValueError("anchor x must lie in the box")
    slope = apply_Btilde(inst, x) - inst.alpha_tilde

    def profile(t):
        return (inst.beta * t + slope) * t - inst.cost.value_components(t)

    qx = profile(x)
    best, spacing = _scan_min(
        profile, np.maximum(inst.lower, x - radius), np.minimum(inst.upper, x + radius), _GAP_GRID
    )
    lo = float(np.sum(qx - np.minimum(best, qx)))
    curvature = 2.0 * inst.beta + inst.cost.lipschitz_L()
    return lo, lo + curvature * float(np.sum(spacing**2)) / 8.0


def gamma_lower_bound(inst, grid_resolution=1024):
    """Separable lower bound on the potential over the box.

    Drops the nonnegative quadratic part and minimizes each coordinate's
    remaining 1-D profile -alpha_tilde[i]*t - h_i(t) by a scan of
    ``grid_resolution`` points along the box diagonal. Between two nodes
    d_i apart a profile with |h_i''| <= L_h dips at most L_h*d_i**2/8
    below the smaller node value, so subtracting that term makes the sum
    a proven lower bound on the potential everywhere on the box, in
    particular on its infimum over any level set.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    best, spacing = _scan_min(
        lambda t: -inst.alpha_tilde * t - inst.cost.value_components(t),
        inst.lower, inst.upper, grid_resolution,
    )
    return float(np.sum(best) - inst.cost.lipschitz_L() * np.sum(spacing**2) / 8.0)
