"""Verification instruments for solver output.

The Nash gap brackets how much the firms could gain by unilateral
deviation (globally, or within an infinity-norm radius) and so tells a
stationary point from an equilibrium, and the potential lower bound
feeds the per-iteration bound checks; stationarity itself is certified
by ``solver.eps_certificate``. The gap and the bound share one exact
minimizer of n independent 1-D profiles, each a quadratic plus the
cost's term of the potential. Both are certified for the cost class that
``CostModel`` states: each h_i'' monotone on the box.
"""

from __future__ import annotations

import numpy as np

from . import model
from .costs import _real

__all__ = [
    "nash_gap",
    "gamma_lower_bound",
]


def _profile_min(inst, a, b, lower, upper):
    """Per-firm minimum of p_i(t) = (a/2)*t**2 + b[i]*t + k_i(t) on [lower[i], upper[i]].

    Returns (best, floor): ``best`` is p_i at a point of the interval and
    ``floor`` a proven lower bound on its minimum, for a cost in
    ``CostModel``'s class (each h_i'' monotone on the box); k_i is the
    cost's term of the potential (``model._cost_term``). Then p_i'' is
    monotone too, so the set where p_i'' > 0 is one interval, which holds
    the end where p_i'' is larger, and the one interior local minimum is
    where p_i' crosses from - to + inside it. Newton on p_i' started at
    that end moves monotonically onto the crossing: p_i' is concave from
    the lower end and convex from the upper. A firm takes no step where
    p_i'' <= 0 at the start, where p_i' points out of the box there, or
    where p_i'' >= 0 at both ends and p_i' has one sign at both, and it
    leaves the loop when its Newton point leaves the interval or has
    p_i'' <= 0: its minimum is then at an end. Otherwise it stops at the
    crossing t when a step is within 4 ulp or rounding turns it back. The
    tangent at t lies below p_i on the convex piece, and the concave piece
    is least at its ends, so floor = min(p(l), p(u), p(t) - |p'(t)|*(u - l))
    and best = min(p(l), p(u), p(t)). Each pass is one cost call over all
    n firms: two for the ends, then one per Newton step while a firm takes
    one. Memory peaks below 10 n-vectors (9.4 at n = 1e5).
    """
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("bounded box required")
    half = 0.5 * a
    ends, g, h, p_t, g_t, s, w = np.empty((7,) + np.shape(b))

    def at(t, p, g, h):  # p, p' and p'' at t into p, g and h, from one cost call
        model._cost_term(inst, t, g, p, h)
        p += np.multiply(np.add(np.multiply(half, t, out=w), b, out=w), t, out=w)
        g += np.add(np.multiply(a, t, out=w), b, out=w)
        h += a

    at(lower, ends, g, h)
    at(upper, p_t, g_t, s)
    np.minimum(ends, p_t, out=ends)
    top = s > h  # p'' is larger at the upper end: start there
    at_an_end = (h >= 0) & (s >= 0) & (np.sign(g) == np.sign(g_t))
    np.copyto(g, g_t, where=top)
    np.copyto(h, s, where=top)
    t = np.where(top, upper, lower)
    active = (h > 0) & np.where(top, g > 0, g < 0) & ~at_an_end
    p_t.fill(np.inf)  # p and p' at the crossing
    g_t.fill(0.0)
    while active.any():
        np.divide(g, h, out=s, where=active)
        np.subtract(t, s, out=w)  # the Newton point
        inside = active & (w >= lower) & (w <= upper)
        np.copyto(t, w, where=inside)
        np.negative(s, out=s, where=~top)  # the step's length toward the crossing
        far = s > np.multiply(4.0, np.abs(np.spacing(t, out=w), out=w), out=w)
        at(t, s, g, h)
        crossing = inside & (h > 0)
        np.copyto(p_t, s, where=crossing)
        np.copyto(g_t, g, where=crossing)
        lost = active & ~crossing
        p_t[lost], g_t[lost] = np.inf, 0.0
        active = crossing & far
    np.multiply(np.abs(g_t, out=g_t), np.subtract(upper, lower, out=w), out=g_t)
    floor = np.subtract(p_t, g_t, out=g_t)
    return np.minimum(ends, p_t, out=p_t), np.minimum(ends, floor, out=floor)


def nash_gap(inst, x, radius=np.inf):
    """Certified bracket (lo, hi) on the Nash gap at ``x``: what unilateral deviation gains.

    The gap is -min_y phi(x, y) over the box, restricted to
    |y - x|_inf <= radius, for the paper's equilibrium bifunction phi;
    it is zero iff x is an equilibrium (a local one at a finite radius).
    The bifunction splits into firm terms,
    phi(x, y) = sum_i q_i(y_i) - q_i(x_i) with
    q_i(t) = beta*t**2 + (beta*sigma_{-i} - alpha_tilde[i])*t + k_i(t),
    where sigma_{-i} is the others' total output at x and k_i is the
    cost's term of the potential (``model._cost_term``), so each q_i is
    minimized on its own interval by ``_profile_min``, exactly for a cost
    in ``CostModel``'s class. lo sums what the best point found gains over
    x_i, so lo >= 0, and hi what the proven floor gains: at the solver's
    limit on the log and exp families (n from 100 to 10^4, seeds 0, 7 and
    90, radius inf or 0.5) hi - lo is at most 3e-12, for 8 to 11 cost calls.
    """
    x = np.asarray(x, dtype=float)
    radius = _real(radius, "radius", finite=False)
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if x.shape != (inst.n,) or not inst.contains(x, tol=1e-9):
        raise ValueError("anchor x must lie in the box")
    slope = model._coupling_slope(inst, x, np.add.reduce(x))
    qx = (inst.beta * x + slope) * x + model._cost_term(inst, x)
    lower, upper = np.maximum(inst.lower, x - radius), np.minimum(inst.upper, x + radius)
    best, floor = _profile_min(inst, 2.0 * inst.beta, slope, lower, upper)
    return float(np.sum(qx - np.minimum(best, qx))), float(np.sum(qx - np.minimum(floor, qx)))


def gamma_lower_bound(inst):
    """Separable lower bound on the potential over the box.

    Drops the nonnegative quadratic part and sums each coordinate's
    minimum of its remaining 1-D profile -alpha_tilde[i]*t + k_i(t), with
    k_i the cost's term of the potential (``model._cost_term``): the
    ``_profile_min`` floor, a proven lower bound on the potential
    everywhere on the box, in particular on its infimum over any level
    set, for a cost in ``CostModel``'s class. On the log and exp families
    every profile is convex and falls across the box, which the two cost
    calls at its ends show.
    """
    _, floor = _profile_min(inst, 0.0, -inst.alpha_tilde, inst.lower, inst.upper)
    return float(np.sum(floor))
