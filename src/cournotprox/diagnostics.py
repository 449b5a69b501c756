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

from .model import _coupling_slope

__all__ = [
    "nash_gap",
    "gamma_lower_bound",
]

_GAP_GRID = 2048


def _scan_min(profile, lower, upper, grid, curvature):
    """Per-firm minimum of ``profile`` over ``grid`` nodes of each interval, and the node spacing.

    The nodes are t = lower + u*(upper - lower) for u in linspace(0, 1,
    grid). The result is bit for bit the minimum over all of them, but a
    node is evaluated only where the bound |profile''| <= ``curvature``
    does not rule it out (the second-derivative branch and bound of
    Breiman & Cutler, 1993). ``profile`` must act on each firm's entry
    alone: every evaluation is one n-vector whose entries may sit at
    different nodes.

    A coarse walk visits every s-th node, s ~ sqrt(grid - 1), and each
    firm walks the two coarse intervals beside its best coarse node. A
    verification walk then recomputes the coarse nodes. On a coarse
    interval at most D wide the profile stays above
    min(ends) - curvature*D**2/8, so every interval whose floor is not
    strictly above the firm's best value is walked too (the span from
    the window out to the farthest such interval). ``best`` only falls,
    so one verification walk suffices. A unimodal profile costs about
    3*sqrt(grid) evaluations; the worst case, many dips as deep as the
    bound allows, costs the full walk plus two coarse walks. Extra
    memory is a few n-vectors.

    The same bound certifies the caller's result: between nodes
    ``spacing`` apart the profile dips at most curvature*spacing**2/8
    below the smaller node value.
    """
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("bounded box required for the grid search")
    width = upper - lower
    u = np.linspace(0.0, 1.0, grid)
    coarse = np.arange(0, grid, round((grid - 1) ** 0.5))
    if coarse[-1] != grid - 1:
        coarse = np.append(coarse, grid - 1)
    # the widest coarse interval sets D (the last one may be shorter)
    slack = curvature * (float(np.max(np.diff(u[coarse]))) * width) ** 2 / 8.0
    best = np.full(width.shape, np.inf)

    def at(node):
        return profile(lower + u[node] * width)

    def walk(first, last):
        # nodes first..last of each firm; a firm with a shorter range repeats its last node
        for j in range(int(np.max(last - first)) + 1):
            np.minimum(best, at(np.minimum(first + j, last)), out=best)

    arg = np.zeros(width.shape, dtype=np.intp)
    for j, node in enumerate(coarse):
        value = at(node)
        np.copyto(arg, j, where=value < best)
        np.minimum(best, value, out=best)
    first = coarse[np.maximum(arg - 1, 0)]
    last = coarse[np.minimum(arg + 1, coarse.size - 1)]
    walk(first, last)

    span_first, span_last = first.copy(), last.copy()
    prev = at(coarse[0])
    for j in range(1, coarse.size):
        value = at(coarse[j])
        live = ~(np.minimum(prev, value) - slack > best)
        np.minimum(span_first, np.where(live, coarse[j - 1], grid), out=span_first)
        np.maximum(span_last, np.where(live, coarse[j], 0), out=span_last)
        prev = value
    if np.any(span_first < first):
        walk(span_first, first)
    if np.any(span_last > last):
        walk(last, span_last)
    return best, width / (grid - 1)


def nash_gap(inst, x, radius=np.inf):
    """Certified bracket (lo, hi) on the Nash gap at ``x``: what unilateral deviation gains.

    The gap is -min_y phi(x, y) over the box, restricted to
    |y - x|_inf <= radius, for the paper's equilibrium bifunction phi;
    it is zero iff x is an equilibrium (a local one at a finite radius).
    The bifunction splits into firm terms,
    phi(x, y) = sum_i q_i(y_i) - q_i(x_i) with
    q_i(t) = beta*t**2 + (beta*sigma_{-i} - alpha_tilde[i])*t - h_i(t),
    where sigma_{-i} is the others' total output at x,
    so each q_i is minimized on its own interval by a ``_GAP_GRID``-node
    scan with the anchor x_i as one extra candidate, which makes
    lo >= 0. |q_i''| <= 2*beta + L_h bounds how far q_i can dip between
    nodes d_i apart, so hi = lo + sum_i (2*beta + L_h)*d_i**2/8. The
    same bound prunes the scan: it evaluates about 140 of the 2048 nodes
    when every q_i has one well, up to the full walk when they have many,
    and returns the full walk's bits either way.
    """
    x = np.asarray(x, dtype=float)
    if not radius > 0:
        raise ValueError("radius must be positive")
    if x.shape != (inst.n,) or not inst.contains(x, tol=1e-9):
        raise ValueError("anchor x must lie in the box")
    slope = _coupling_slope(inst, x)

    def profile(t):
        return (inst.beta * t + slope) * t - inst.cost.value_components(t)

    qx = profile(x)
    curvature = 2.0 * inst.beta + inst.cost.lipschitz_on(inst.lower)
    best, spacing = _scan_min(
        profile, np.maximum(inst.lower, x - radius), np.minimum(inst.upper, x + radius), _GAP_GRID,
        curvature,
    )
    lo = float(np.sum(qx - np.minimum(best, qx)))
    return lo, lo + curvature * float(np.sum(spacing**2)) / 8.0


def gamma_lower_bound(inst, grid_resolution=1024):
    """Separable lower bound on the potential over the box.

    Drops the nonnegative quadratic part and minimizes each coordinate's
    remaining 1-D profile -alpha_tilde[i]*t - h_i(t) by a scan of
    ``grid_resolution`` points along the box diagonal. Between two nodes
    d_i apart a profile with |h_i''| <= L_h dips at most L_h*d_i**2/8
    below the smaller node value, so subtracting that term makes the sum
    a proven lower bound on the potential everywhere on the box, in
    particular on its infimum over any level set. The same L_h bound
    prunes the scan, which returns the full walk's bits: at 1024 points
    a one-well profile costs about 100 evaluations.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    L_h = inst.cost.lipschitz_on(inst.lower)
    best, spacing = _scan_min(
        lambda t: -inst.alpha_tilde * t - inst.cost.value_components(t),
        inst.lower, inst.upper, grid_resolution, L_h,
    )
    return float(np.sum(best) - L_h * np.sum(spacing**2) / 8.0)
