"""Box-constrained quadratic subproblems of the market model, solved in closed form.

``prox_step`` solves the proximal subproblem of either splitting.
``Splitting`` describes both, and this is the one module that tells them
apart. The paper's subproblem is diagonal; the exact-coupling one adds
the rank-one term beta*11' to its Hessian. It and the solver's Newton trial
reduce to one equation in total output, solved by ``_aggregate_root``. At
c = inf and zero cost curvature its model is the potential, the QP with
Hessian beta*(I + 11'), and its step the equilibrium: the affine oracle.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import model
from .costs import _real

__all__ = [
    "Splitting",
    "prox_step",
]


class Splitting(Enum):
    """What the local model keeps exact; it fixes the linear term g and the curvature bound L.

    With sigma the total output and dh the slope at x of the cost's term
    of the potential (``model._cost_term``):

    - EXACT_COUPLING keeps the demand quadratic (beta/2)*(|y|^2 + sum(y)^2)
      and linearizes only the cost: g = dh - alpha_tilde and L = L_h, the
      cost's curvature bound over the box (``inst.L_h``).
    - PAPER, the cited paper's splitting, keeps the own-output quadratic
      beta*|y|^2 and linearizes the coupling too:
      g = beta*(sigma - x) - alpha_tilde + dh and
      L = L_gamma = L_h + (n-1)*beta.

    When L = 0 the model is the potential itself, the damping is c = inf
    and one step lands on the equilibrium: under EXACT_COUPLING for an
    affine cost, under PAPER only for one firm with an affine cost. Only
    EXACT_COUPLING takes ``solve``'s Newton trial, whose model keeps the
    cost's curvature too; PAPER is the paper's iteration alone.
    """

    EXACT_COUPLING = "exact"
    PAPER = "paper"


def _linear_term(inst, x, dh, sigma, splitting, out=None):
    # the splitting's linear term g at x, from the cost term's slope dh and the
    # total output sigma there (out may not alias dh under PAPER)
    if splitting is Splitting.PAPER:
        out = model._coupling_slope(inst, x, sigma, out)
        return np.add(out, dh, out=out)
    return np.subtract(dh, inst.alpha_tilde, out=out)


def _local_model(inst, splitting):
    # the splitting's curvature bound L, its kept quadratic, which takes a point's
    # |y|^2 = y @ y and total output sigma = sum(y), and its Newton trial (None: none)
    beta = inst.beta
    if splitting is Splitting.PAPER:
        return inst.L_h + (inst.n - 1) * beta, lambda sq, sigma: beta * float(sq), None
    return inst.L_h, lambda sq, sigma: 0.5 * beta * (float(sq) + float(sigma) ** 2), _newton_point


def _newton_point(inst, x, g, curv, out, scratch):
    # The box minimizer of the potential's second-order model at x: the exact-coupling
    # step from its linear term g with 1/c replaced by the cost term's curvature curv
    # (overwritten), so D = beta + curv, a = (curv*x - g)/D and k = beta/D per firm.
    # Like prox_step it writes out and sum(out); None, writing nothing, if some D <= 0:
    # min(curv) + beta is min(D) bit for bit, as rounding is monotone, so that test
    # costs one reduction before any pass
    if not np.minimum.reduce(curv) + inst.beta > 0.0:
        return None
    a, masks, sums = scratch
    np.multiply(curv, x, out=a)
    np.subtract(a, g, out=a)
    d = np.add(curv, inst.beta, out=curv)
    np.divide(a, d, out=a)
    k = np.divide(inst.beta, d, out=d)
    _, sums[1] = _aggregate_root(a, k, inst.lower, inst.upper, sums[0], out, masks, inst._signed)
    return out


def prox_step(inst, x, c, g=None, out=None, splitting=Splitting.EXACT_COUPLING, scratch=None):
    """Minimizer over the box of the splitting's local model at ``x`` with damping 1/(2c).

    The model keeps the splitting's quadratic exact, linearizes the rest
    of the potential at ``x`` through its linear term ``g`` and adds
    |y - x|^2/(2c); ``Splitting`` gives both. Under either splitting the
    step is clip(a - k*sigma) with a = (x*(1/c) - g)*(1/d): PAPER has
    d = 2*beta + 1/c and k = 0, EXACT_COUPLING d = beta + 1/c, k = beta/d
    and sigma the aggregate root (``_aggregate_root``), warm-started at
    sum(x), which is the previous step's root up to rounding; so the step
    depends on x and c alone. Both clip through one clamp, a single
    ``clip`` on stride-0 box sides. Stationary points are exactly the
    step's fixed points, for every c > 0, c = inf included.

    ``g`` does not depend on c, so a caller trying several c from one
    ``x`` can compute it once and pass it in; by default it is computed
    here. The step is written into ``out`` when given (an array shaped
    like ``x`` that aliases neither ``x`` nor ``g``) and returned.
    ``scratch`` is the triple ``(work, masks, sums)``: an n-vector that
    aliases none of ``x``, ``g`` and ``out``, a boolean (2, n) array,
    and a float array of shape (2,) holding sum(x), bitwise
    ``np.add.reduce(x)``, in ``sums[0]``. The step works in the first
    two and the root warm-starts at ``sums[0]``, the linear term reads
    it, and either step leaves sum(out) in ``sums[1]``, bitwise
    ``np.add.reduce(out)`` (the root's last pass sums it already). It
    is allocated here, summing x, when omitted.
    """
    c = _real(c, "c", finite=False)
    if not c > 0:
        raise ValueError(f"c must be positive, got {c!r}")
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise ValueError(f"x must have shape ({inst.n},), got {x.shape}")
    if scratch is None:
        scratch = (
            np.empty_like(x), np.empty((2, inst.n), dtype=bool),
            np.array([np.add.reduce(x), math.nan]),
        )
    a, masks, sums = scratch
    if g is None:
        dh = np.empty_like(x)
        model._cost_term(inst, x, dh)
        g = _linear_term(inst, x, dh, sums[0], splitting)
    if out is None:
        out = np.empty_like(x)
    exact = splitting is Splitting.EXACT_COUPLING
    # multiplies by the reciprocals: at n = 1e5 a divide costs about 1.4 multiplies
    d = (1.0 if exact else 2.0) * inst.beta + 1.0 / c
    np.multiply(x, 1.0 / c, out=a)
    np.subtract(a, g, out=a)
    np.multiply(a, 1.0 / d, out=a)
    if exact:
        _, sums[1] = _aggregate_root(
            a, inst.beta / d, inst.lower, inst.upper, sums[0], out, masks, inst._signed
        )
        return out
    sums[1] = np.add.reduce(_clamp(a, inst.lower, inst.upper, out))
    return out


def _clamp(t, lower, upper, out):
    # np.minimum(np.maximum(t, lower), upper) into out, but for a zero's sign (a clip keeps
    # t's zero on a zero side): one clip, np.clip without its wrapper, where both sides have
    # stride 0, about 2x faster there from n = 1e4; a clip is 1.6x slower on a dense side
    if lower.strides == upper.strides == (0,):
        return t.clip(lower, upper, out=out)
    np.maximum(t, lower, out=out)
    return np.minimum(out, upper, out=out)


def _aggregate_root(a, k, lower, upper, sigma0, buf, masks=None, signed=True):
    """Root of F(sigma) = sum(clip(a - k*sigma, lower, upper)) - sigma; the clip is left in ``buf``.

    F is continuous, piecewise linear and strictly decreasing, with slope
    -(1 + the sum of k over the free firms, those strictly inside their
    bounds), so it has one root for every k >= 0, one number or one per
    firm, infinite bounds included. Safeguarded Newton from ``sigma0`` (Cominetti, Mascarenhas & Silva, 2014): each
    O(n) pass lands on the root of the current linear piece, and a move
    that leaves the bracket kept by the signs of F is replaced by
    bisection, which keeps the passes few where the slopes alternate.

    A pass with no free firm has slope -1, so from a far start Newton
    creeps through the breakpoints. From n = 32768, where the sample solve
    costs 0.6 of a full pass (4 to 6 at n = 1e4; README), such a pass with
    one side of the bracket open jumps to the root on every (n // 256)-th
    firm, k and the sum scaled by n over the sample size, if that lies
    strictly inside the bracket, whose midpoint is infinite.

    It stops at a Newton move, or bracket, of at most 4 ulp of the terms'
    magnitude sum(|clip|) + |sigma|, by which rounding moves F; a finer
    stop, such as a few ulp of sigma, lets Newton creep or bisection
    halve for hundreds of passes when the root is near 0 among large
    cancelling terms. The bracket stop ends the search where the rounding
    exceeds that estimate, and a pass whose |F| is already within it
    stops before counting the free firms: F over F's slope is no larger.

    ``lower``, ``upper``, ``buf`` and a per-firm ``k`` are shaped like
    ``a``, and ``buf`` may not alias ``a`` or ``k``; it is left holding clip(a - k*sigma, lower, upper)
    at the last evaluated sigma, which is returned with the sum there,
    bitwise ``np.add.reduce(buf)``. ``masks`` is a boolean (2, n) scratch
    array, allocated here when omitted. ``signed`` may be False only when
    no lower side is negative, so that sum(|clip|) is the sum. A NaN in
    ``a`` stops at once, with NaN in ``buf``.
    """
    if masks is None:
        masks = np.empty((2,) + np.shape(a), dtype=bool)
    inside, below = masks
    lo, hi = -math.inf, math.inf
    sigma = float(sigma0)
    uniform = np.ndim(k) == 0
    while True:
        # a per-firm k times sigma goes into buf first: no temporary n-vector
        t = np.subtract(a, k * sigma if uniform else np.multiply(k, sigma, out=buf), out=buf)
        _clamp(t, lower, upper, t)
        total = float(np.add.reduce(t))
        f = total - sigma
        if f > 0.0:
            lo = sigma
        elif f < 0.0:
            hi = sigma
        else:  # the exact root, or NaN
            return sigma, total
        noise = 4.0 * math.ulp(abs(total) + abs(sigma))
        if abs(f) <= noise:
            return sigma, total
        # on the clipped t, strictly inside the bounds reads as it does before the clip
        np.less(lower, t, out=inside)
        np.less(t, upper, out=below)
        np.logical_and(inside, below, out=inside)
        # the sum of k over the free firms: k @ inside is 15x faster than a masked add.reduce
        free = k * np.count_nonzero(inside) if uniform else k @ inside
        move = f / (1.0 + free)
        if signed and abs(move) > noise:
            noise = 4.0 * math.ulp(float(np.add.reduce(np.abs(t))) + abs(sigma))
        if abs(move) <= noise:
            return sigma, total
        if hi - lo <= noise:  # F's sign is rounding noise inside the bracket
            return sigma, total
        if not free and a.size >= 32768 and math.inf in (-lo, hi):
            step = a.size // 256
            part = a[::step]
            scale = a.size / part.size
            jump = scale * _aggregate_root(part, (k if uniform else k[::step]) * scale,
                                           lower[::step], upper[::step],
                                           sigma / scale, np.empty_like(part), signed=signed)[0]
            if lo < jump < hi:
                sigma = jump
                continue
        sigma += move
        if not lo < sigma < hi:
            sigma = 0.5 * (lo + hi)
