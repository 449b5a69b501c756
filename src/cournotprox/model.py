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
``L_h``, read at the box's two ends; the potential's bound, L_h plus the
coupling's (n-1)*beta, is written once, with the paper splitting in ``subqp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel, _param, _real

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
    max_i |h_i''| over the box, read once here at the box's two ends (see
    ``CostModel``); a box on which it is not finite is rejected, and that
    one test also rejects a box with an end outside the cost's domain.
    Instances compare by identity.
    The private ``_signed`` says whether some lower side is negative, so
    that a clipped output can be: the aggregate root's rounding estimate
    then needs sum(|clip|); the private ``_bounded``, whether no side is infinite.

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
    _signed: bool = field(init=False, repr=False)
    _bounded: bool = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.cost, CostModel):
            raise TypeError("cost must be a CostModel")
        n = self.cost.n
        beta = _real(self.beta, "beta")
        alpha0 = _real(self.alpha0, "alpha0")
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
        # CostModel's class puts max |h_i''| at l or u: one cost pass per end into one
        # block; an infinite side may read inf (exp at -inf) or NaN in the discarded value
        ends, at_end = np.empty((3, n)), np.empty(2)
        with np.errstate(all="ignore"):
            for k, side in enumerate((lower, upper)):
                _cost_term(self, side, ends[1], ends[0], ends[2])
                at_end[k] = np.maximum.reduce(np.abs(ends[2], out=ends[2]))
        L_h = float(np.max(at_end))  # a NaN at either end survives np.max; max() would drop it
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
        # decided once here, not per root pass: a reduction over a stride-0
        # side runs several times slower than over a dense one
        object.__setattr__(self, "_signed", bool(np.min(lower) < 0.0))
        object.__setattr__(self, "_bounded", bool(np.isfinite(lower).all() & np.isfinite(upper).all()))

    @property
    def n(self):
        return self.cost.n

    def center(self):
        """Box midpoint (coordinates with an infinite side fall back to the finite one, else 0)."""
        lo, up = self.lower, self.upper
        if self._bounded:
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


def _coupling_slope(inst, x, sigma, out=None):
    # beta*(sigma - x) - alpha_tilde per firm, sigma = np.add.reduce(x), in this operation
    # order: the solver step and nash_gap rely on the bits; written into out when given
    out = np.subtract(sigma, x, out=out)
    np.multiply(inst.beta, out, out=out)
    return np.subtract(out, inst.alpha_tilde, out=out)


def _cost_term(inst, t, slope=None, out=None, curv=None):
    # the one place the cost's sign is written: the per-firm term of the potential,
    # -h_i(t), into out when given, its slope -h_i'(t) into slope when given, and
    # its curvature -h_i''(t) into curv when given with slope
    v = inst.cost.value_components(t, slope, out, curv)
    if slope is not None:
        np.negative(slope, out=slope)
    if curv is not None:
        np.negative(curv, out=curv)
    return np.negative(v, out=out)


def potential_gamma(inst, x, cost_slope=None, work=None, *, _sigma=None, _curv=None, _sq=None):
    """Merit potential: both quadratic terms minus the effective revenue line plus the cost term.

    Decreased monotonically by well-damped proximal steps; its gradient
    vanishing (against the box normal cone) characterizes stationarity.

    The cost term comes from one ``cost.value_components`` call, which
    also leaves the term's slope, -h'(x) under the shipped sign, in
    ``cost_slope`` (an array shaped like ``x``, allocated here when
    omitted) and writes the per-firm terms into ``work`` (same shape,
    optional). Neither buffer may alias ``x``.

    ``_sigma``, ``_curv`` and ``_sq`` are private to the solver. ``_sigma``,
    the total output of a trial point that it already holds, must be bitwise
    ``np.add.reduce(x, axis=-1)`` and spares that sum; ``_curv`` receives the
    same cost call's curvature, and the array ``_sq`` the point's |x|^2.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != inst.n:
        raise ValueError(f"x must have trailing axis of length {inst.n}, got shape {x.shape}")
    if cost_slope is None:
        cost_slope = np.empty_like(x)
    # one point: one dot, which the kept quadratics read through _sq; a batch sums
    # each row's squares (np.add.reduce is np.sum without its Python-level wrapper)
    sq = x @ x if x.ndim == 1 else np.add.reduce(np.multiply(x, x, out=cost_slope), axis=-1)
    cost = np.add.reduce(_cost_term(inst, x, cost_slope, work, _curv), axis=-1)
    sigma = np.add.reduce(x, axis=-1) if _sigma is None else _sigma
    if _sq is not None:
        _sq[...] = sq
    return 0.5 * inst.beta * (sq + sigma**2) - x @ inst.alpha_tilde + cost
