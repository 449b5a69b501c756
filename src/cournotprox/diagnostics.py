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

from . import model

__all__ = [
    "nash_gap",
    "gamma_lower_bound",
]

_GAP_GRID = 2048
_ROUNDING = 2.0**-50  # 4 ulp of 1
_KEPT_NODES = 5  # node vectors a level keeps between its two walks


def _scan_min(profile, lower, upper, grid, curvature):
    """Per-firm minimum of ``profile`` over ``grid`` nodes of each interval, and the node spacing.

    The nodes are t = lower + u*(upper - lower) for u in linspace(0, 1,
    grid). The result is bit for bit the minimum over all of them, but a
    node is evaluated only where the bound |profile''| <= ``curvature``
    does not rule it out (Breiman & Cutler, 1993). ``profile`` must act
    on each firm's entry alone: every evaluation is one n-vector whose
    entries may sit at different nodes.

    Each level walks every firm's live hull of nodes at a stride of
    4**k, ..., 4, 1, then walks it again to rule intervals out. A level
    of at most ``_KEPT_NODES`` nodes keeps their profile values from the
    first walk for the second; a wider level evaluates its nodes again.
    Between node values fa and fb at most D apart the profile stays
    above fa + (fb - fa)*tau - (curvature*D**2/2)*tau*(1 - tau); an
    interval is dead when that floor over its interior nodes' span,
    1/stride <= tau <= 1 - 1/stride, tops the best value by over 4 ulp
    of |best| + curvature*D**2/2. The next level walks the live
    intervals' hull. At 1024 nodes a profile least at a steep box end
    costs 5 evaluations, one well 10 to 25 (92 to 120 under a tenfold
    loose bound), many dips as deep as the bound allows up to 5/3 of the
    full walk. Memory peaks at about 16 n-vectors on a log-cost bound,
    the kept node values included. Between nodes ``spacing`` apart the
    profile dips at most curvature*spacing**2/8 below the smaller, which
    certifies the result.
    """
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("bounded box required for the grid search")
    width = upper - lower
    u = np.linspace(0.0, 1.0, grid)
    best = np.full(width.shape, np.inf)
    first, last = np.zeros(width.shape, np.int32), np.full(width.shape, grid - 1, np.int32)
    e, d, w = (np.empty(width.shape) for _ in range(3))
    stride = 1
    while 4 * stride < grid - 1:
        stride *= 4

    def intervals(kept):
        # e, d = min(fa, fb), |fb - fa| per hull interval; a firm past its hull repeats its end.
        # The best-value walk of a level with a pruning walk and at most _KEPT_NODES nodes
        # keeps their profile values in ``kept``, and the pruning walk reads them back.
        steps = (int(np.max(last - first)) + stride - 1) // stride
        read = bool(kept)
        keep = not read and stride > 1 and steps < _KEPT_NODES

        def node(j, b):
            if read:
                return kept[j]
            f = profile(lower + u[b] * width)
            if keep:
                kept.append(f)
            return f

        b = first
        fb = node(0, b)
        for j in range(1, steps + 1):
            a, fa, b = b, fb, np.minimum(b + stride, last)
            fb = node(j, b)
            np.minimum(fa, fb, out=e)
            np.abs(np.subtract(fb, fa, out=d), out=d)
            yield a, b

    while True:
        kept = []
        for a, b in intervals(kept):  # named as below, so the pruning walk frees them
            np.minimum(best, e, out=best)
        if stride == 1:
            return best, width / (grid - 1)
        du = float(np.max(np.diff(u[np.r_[0:grid:stride, grid - 1]])))
        bend = (0.5 * curvature * du * du) * (width * width)
        gate = best + _ROUNDING * (np.abs(best) + bend)
        hull_first, hull_last = np.full_like(first, grid - 1), np.zeros_like(last)
        for a, b in intervals(kept):
            # with tau counted from the lower end, floor - gate = e + d*tau - bend*tau*(1 - tau),
            # above 0 at tau = 1/stride, and at the vertex (bend - d)/(2*bend) if that lies past it
            e -= gate
            np.multiply(e, stride, out=w)
            above = np.multiply(np.add(w, d, out=w), stride / (stride - 1.0), out=w) > bend
            dip = np.multiply(d, stride / (stride - 2.0), out=w) < bend
            np.multiply(np.multiply(e, bend, out=e), 4.0, out=e)
            dip &= e <= np.square(np.subtract(bend, d, out=w), out=w)
            live = (b > a) & (dip | ~above)
            np.minimum(hull_first, a, out=hull_first, where=live)
            np.maximum(hull_last, b, out=hull_last, where=live)
        if np.all(hull_last < hull_first):
            return best, width / (grid - 1)
        first, last, stride = hull_first, hull_last, stride // 4


def nash_gap(inst, x, radius=np.inf):
    """Certified bracket (lo, hi) on the Nash gap at ``x``: what unilateral deviation gains.

    The gap is -min_y phi(x, y) over the box, restricted to
    |y - x|_inf <= radius, for the paper's equilibrium bifunction phi;
    it is zero iff x is an equilibrium (a local one at a finite radius).
    The bifunction splits into firm terms,
    phi(x, y) = sum_i q_i(y_i) - q_i(x_i) with
    q_i(t) = beta*t**2 + (beta*sigma_{-i} - alpha_tilde[i])*t + k_i(t),
    where sigma_{-i} is the others' total output at x and k_i is the
    cost's term of the potential (``model._cost_term``),
    so each q_i is minimized on its own interval by a ``_GAP_GRID``-node
    scan with the anchor x_i as one extra candidate, which makes
    lo >= 0. |q_i''| <= 2*beta + L_h bounds how far q_i can dip between
    nodes d_i apart, so hi = lo + sum_i (2*beta + L_h)*d_i**2/8. The
    same bound prunes the scan, which returns the full walk's bits: at
    the solver's limit on the log and exp families (n from 100 to 10^4,
    seeds 0, 7 and 90) it evaluates 28 to 132 of the 2048 nodes, and up
    to 5/3 of the full walk when every q_i has many wells.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(radius, (bool, np.bool_)) or not radius > 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if x.shape != (inst.n,) or not inst.contains(x, tol=1e-9):
        raise ValueError("anchor x must lie in the box")
    slope = model._coupling_slope(inst, x, np.add.reduce(x))

    def profile(t):
        return (inst.beta * t + slope) * t + model._cost_term(inst, t)

    qx = profile(x)
    curvature = 2.0 * inst.beta + inst.L_h
    best, spacing = _scan_min(
        profile, np.maximum(inst.lower, x - radius), np.minimum(inst.upper, x + radius), _GAP_GRID,
        curvature,
    )
    lo = float(np.sum(qx - np.minimum(best, qx)))
    return lo, lo + curvature * float(np.sum(spacing**2)) / 8.0


def gamma_lower_bound(inst, grid_resolution=1024):
    """Separable lower bound on the potential over the box.

    Drops the nonnegative quadratic part and minimizes each coordinate's
    remaining 1-D profile -alpha_tilde[i]*t + k_i(t), with k_i the cost's
    term of the potential (``model._cost_term``), by a scan of
    ``grid_resolution`` points along the box diagonal. Between two nodes
    d_i apart a profile with |h_i''| <= L_h dips at most L_h*d_i**2/8
    below the smaller node value, so subtracting that term makes the sum
    a proven lower bound on the potential everywhere on the box, in
    particular on its infimum over any level set. The same L_h bound
    prunes the scan, which returns the full walk's bits: at 1024 points
    a profile least at a box end, as on the log and exp families, costs
    5 evaluations, and a one-well profile about 10 to 120, as the bound
    is tight or loose. L_h is the instance's stored bound.
    """
    if not (isinstance(grid_resolution, (int, np.integer)) and grid_resolution >= 2):
        raise ValueError("grid_resolution must be an integer ≥ 2")
    best, spacing = _scan_min(
        lambda t: -inst.alpha_tilde * t + model._cost_term(inst, t),
        inst.lower, inst.upper, grid_resolution, inst.L_h,
    )
    return float(np.sum(best) - inst.L_h * np.sum(spacing**2) / 8.0)
