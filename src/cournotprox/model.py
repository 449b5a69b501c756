"""Nash-Cournot market datum and its merit potential.

With affine inverse demand the firms couple only through total output,
so no quadratic form is ever materialized: firm i sees the others'
output through the linear slope beta*(sigma - x_i) - alpha_tilde[i],
where sigma is total output, and the solver step and the Nash gap both
take that slope from one helper here. The cost's sign is written once,
in ``_cost_term``: every caller takes the cost's term of the potential
and its slope from there. Everything runs in O(n) and accepts arrays of
shape (..., n), firm axis last.

A market instance is immutable after construction and safe to share
across concurrent solver runs. It stores the cost's curvature bound
``L_h`` on the box; the potential's bound, L_h plus the coupling's
(n-1)*beta, is written once, where the solver's paper splitting takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel, _param

__all__ = [
    "MarketInstance",
    "potential_gamma",
]


@dataclass(frozen=True, eq=False)
class MarketInstance:
    """Immutable n-firm market description.

    ``beta`` and ``alpha0`` are the finite inverse-demand slope and intercept,
    ``mu`` holds per-firm linear cost coefficients that are folded into
    the effective intercept ``alpha_tilde = alpha0 - mu`` (leave it at
    zero when the whole cost lives in ``cost``), and [lower, upper] is
    the box of admissible production levels. Fixed cost offsets belong
    to the cost model (e.g. ``AffineCost.xi``) and shift reported cost
    and potential values only. ``L_h`` is the cost's curvature bound
    ``cost.lipschitz_on(lower)`` over the box, computed once here; a box
    on which it is infinite is rejected, and that one test also rejects
    a box that leaves the cost's domain. Instances compare by identity.

    ``mu``, ``lower`` and ``upper`` are read-only float vectors of shape
    (n,); one given as a scalar is stored once, as a stride-0 broadcast
    view, so the solver's clip and aggregate root read one number instead
    of streaming a constant n-vector. ``alpha_tilde`` stays dense: the
    potential reads it through ``x @ alpha_tilde``, a dot product that
    over a stride-0 operand runs about 5x slower and rounds differently.
    """

    beta: float
    alpha0: float
    mu: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    cost: CostModel
    alpha_tilde: np.ndarray = field(init=False, repr=False)
    L_h: float = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.cost, CostModel):
            raise TypeError("cost must be a CostModel")
        n = self.cost.n
        if isinstance(self.beta, (bool, np.bool_)) or isinstance(self.alpha0, (bool, np.bool_)):
            raise ValueError("beta and alpha0 must be finite numbers, not booleans")
        beta = float(self.beta)
        alpha0 = float(self.alpha0)
        if not (math.isfinite(beta) and math.isfinite(alpha0)):
            raise ValueError("beta and alpha0 must be finite")
        if not beta > 0:
            raise ValueError("beta must be positive")
        if alpha0 < 0:
            raise ValueError("alpha0 must be nonnegative")
        mu = _param(self.mu, n, "mu")
        if np.any(mu < 0):
            raise ValueError("mu must be nonnegative")
        lower = _param(self.lower, n, "lower", finite=False)
        upper = _param(self.upper, n, "upper", finite=False)
        if np.any(lower > upper):
            raise ValueError("empty box: lower > upper somewhere")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("lower must be below +inf and upper above -inf")
        L_h = float(self.cost.lipschitz_on(lower))
        if not math.isfinite(L_h):
            raise ValueError(
                "the cost's curvature is unbounded on the box, or the box leaves the cost domain"
            )
        alpha_tilde = alpha0 - mu  # a ufunc's result: dense even when mu is a stride-0 view
        alpha_tilde.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "alpha_tilde", alpha_tilde)
        object.__setattr__(self, "L_h", L_h)

    @property
    def n(self):
        return self.cost.n

    def center(self):
        """Box midpoint (coordinates with an infinite side fall back to the finite one, else 0)."""
        lo, up = self.lower, self.upper
        if np.isfinite(lo).all() and np.isfinite(up).all():
            lo_f, up_f = lo, up
        else:
            # fall back before adding, so no infinite side enters the sum
            lo_f = np.where(np.isfinite(lo), lo, np.where(np.isfinite(up), up, 0.0))
            up_f = np.where(np.isfinite(up), up, lo_f)
        with np.errstate(over="ignore"):
            mid = np.add(lo_f, up_f)
        # np.clip's bits from in-place ufuncs, at a fraction of its cost
        np.multiply(mid, 0.5, out=mid)
        huge = np.isinf(mid)
        if huge.any():  # lo + up overflowed: halve each side first, exact above the subnormals
            mid[huge] = 0.5 * lo_f[huge] + 0.5 * up_f[huge]
        np.maximum(mid, lo, out=mid)
        return np.minimum(mid, up, out=mid)

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


def _coupling_slope(inst, x, out=None):
    # beta*(sigma - x) - alpha_tilde per firm, in this operation order: the
    # solver step and nash_gap rely on the bits; written into out when given
    out = np.subtract(np.sum(x, axis=-1, keepdims=True), x, out=out)
    np.multiply(inst.beta, out, out=out)
    return np.subtract(out, inst.alpha_tilde, out=out)


def _cost_term(inst, t, slope=None, out=None):
    # the one place the cost's sign is written: the per-firm term of the potential,
    # -h_i(t), into out when given, and its slope -h_i'(t) into slope when given
    v = inst.cost.value_components(t, slope, out)
    if slope is not None:
        np.negative(slope, out=slope)
    return np.negative(v, out=out)


def potential_gamma(inst, x, cost_slope=None, work=None):
    """Merit potential: both quadratic terms minus the effective revenue line plus the cost term.

    Decreased monotonically by well-damped proximal steps; its gradient
    vanishing (against the box normal cone) characterizes stationarity.

    The cost term comes from one ``cost.value_components`` call, which
    also leaves the term's slope, -h'(x) under the shipped sign, in
    ``cost_slope`` (an array shaped like ``x``, allocated here when
    omitted) and writes the per-firm terms into ``work`` (same shape,
    optional). Neither buffer may alias ``x``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != inst.n:
        raise ValueError(f"x must have trailing axis of length {inst.n}, got shape {x.shape}")
    if cost_slope is None:
        cost_slope = np.empty_like(x)
    # np.add.reduce is np.sum without its Python-level wrapper: the same bits
    sq = np.add.reduce(np.multiply(x, x, out=cost_slope), axis=-1)
    cost = np.add.reduce(_cost_term(inst, x, cost_slope, work), axis=-1)
    sigma = np.add.reduce(x, axis=-1)
    return 0.5 * inst.beta * (sq + sigma**2) - x @ inst.alpha_tilde + cost
