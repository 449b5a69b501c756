"""Verification instruments for solver output.

Gap sampling certifies that a point is not a local equilibrium (or is
consistent with being one), the global check covers concave costs where
stationarity already implies global equilibrium, fixed-point residuals
measure stationarity directly, the potential lower bound feeds the
per-iteration bound checks, and a brute-force grid scan provides a
desk-scale oracle for n <= 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import grad_gamma, lipschitz_gamma, phi_bifunction
from .subqp import prox_step

__all__ = [
    "GapEstimate",
    "gap_sample",
    "global_equilibrium_check",
    "fixed_point_residual",
    "gamma_lower_bound",
    "brute_force_stationary_points",
]


@dataclass(frozen=True)
class GapEstimate:
    """Sampled upper estimate of the ball-restricted equilibrium gap at x.

    ``min_phi_found`` upper-bounds the true gap minimum (it comes from
    sampling) and is never positive, because the anchor itself is always
    among the samples. A clearly negative value certifies that x is NOT
    a local equilibrium at this radius; a value at zero is consistent
    with (but not proof of) one.
    """

    x: np.ndarray
    radius: float
    sample_count: int
    min_phi_found: float
    argmin_y: np.ndarray


def _phi_default(inst):
    return lambda x, Y: phi_bifunction(inst, x, Y)


def gap_sample(inst, x, r, sampler, count, grid_resolution=0, phi=None):
    """Minimize the equilibrium bifunction over sampled points of box ∩ ball(x, r).

    Samples ``count`` points uniformly from the ball (direction times
    radius scaled by u**(1/n)) and projects them onto the box, which is
    nonexpansive and therefore keeps them inside the ball as well. The
    anchor x is always included. For n <= 2 a regular grid with
    ``grid_resolution`` points per axis is scanned in addition (0
    disables it). ``phi`` may override the bifunction; it must accept a
    batch of candidates, phi(x, Y) with Y of shape (m, n).
    """
    x = np.asarray(x, dtype=float)
    if r <= 0:
        raise ValueError("radius must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not inst.contains(x, tol=1e-9):
        raise ValueError("anchor x must lie in the box")
    n = inst.n
    candidates = [x[None, :]]
    if count > 0:
        z = sampler.standard_normal((count, n))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radii = r * sampler.random((count, 1)) ** (1.0 / n)
        candidates.append(np.clip(x + radii * z / norms, inst.lower, inst.upper))
    if n <= 2 and grid_resolution >= 2:
        axes = [np.linspace(inst.lower[i], inst.upper[i], grid_resolution) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts = pts[np.linalg.norm(pts - x, axis=1) <= r]
        if pts.size:
            candidates.append(pts)
    Y = np.concatenate(candidates, axis=0)
    vals = (phi or _phi_default(inst))(x, Y)
    j = int(np.argmin(vals))
    return GapEstimate(
        x=x,
        radius=float(r),
        sample_count=Y.shape[0],
        min_phi_found=float(vals[j]),
        argmin_y=Y[j].copy(),
    )


def global_equilibrium_check(inst, x, count, sampler=None, c=None):
    """Worst bifunction value over box samples, box vertices (n <= 12) and the prox point.

    For a concave cost the bifunction is convex in its second argument,
    so a stationary anchor is a global equilibrium and this check must
    come back nonnegative up to tolerance. A large gradient mapping at x
    shows up as a clearly negative value at the prox point, which is
    always among the candidates.
    """
    if not inst.cost.is_concave:
        raise ValueError("global certification requires a concave cost model")
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(inst.lower)) and np.all(np.isfinite(inst.upper))):
        raise ValueError("bounded box required")
    if sampler is None:
        sampler = np.random.default_rng(0)
    n = inst.n
    candidates = [x[None, :]]
    if count > 0:
        candidates.append(sampler.uniform(inst.lower, inst.upper, size=(int(count), n)))
    if n <= 12:
        corners = np.array(list(itertools.product(*zip(inst.lower, inst.upper))))
        candidates.append(corners)
    if c is None:
        L = lipschitz_gamma(inst)
        c = 1.0 / L if L > 0 else 1.0
    candidates.append(prox_step(inst, x, c)[None, :])
    Y = np.concatenate(candidates, axis=0)
    return float(np.min(phi_bifunction(inst, x, Y)))


def fixed_point_residual(inst, x, c):
    """Distance from x to its prox point; zero exactly at stationary points, any c > 0.

    Identically equal to c times the gradient-mapping norm at x.
    """
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - prox_step(inst, x, c)))


def gamma_lower_bound(inst, grid_resolution=1024):
    """Separable lower bound on the potential over the box.

    Drops the nonnegative quadratic part and minimizes each coordinate's
    remaining 1-D profile -alpha_tilde[i]*t - h_i(t) by a scan of
    ``grid_resolution`` points along the box diagonal, one n-vector per
    point. Between two nodes d_i apart a profile with |h_i''| <= L_h dips
    at most L_h*d_i**2/8 below the smaller node value, so subtracting that
    term makes the sum a proven lower bound on the potential everywhere
    on the box, in particular on its infimum over any level set.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    if not (np.all(np.isfinite(inst.lower)) and np.all(np.isfinite(inst.upper))):
        raise ValueError("bounded box required for the grid search")
    width = inst.upper - inst.lower
    best = np.full(inst.n, np.inf)
    for u in np.linspace(0.0, 1.0, grid_resolution):
        t = inst.lower + u * width
        np.minimum(best, -inst.alpha_tilde * t - inst.cost.value_components(t), out=best)
    spacing = width / (grid_resolution - 1)
    return float(np.sum(best) - inst.cost.lipschitz_L() * np.sum(spacing**2) / 8.0)


def brute_force_stationary_points(inst, grid_resolution=101):
    """Grid points whose potential-gradient sign pattern is stationarity-consistent.

    Desk-scale oracle, n <= 3 only: interior nodes need a gradient within
    the grid tolerance, nodes on a bound need the correctly signed
    component. The tolerance scales with the grid spacing times the
    curvature bound, so every true stationary point has a qualifying node
    within one cell. Never empty on a compact box.
    """
    n = inst.n
    if n > 3:
        raise ValueError("brute force scan is limited to n <= 3")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    if not (np.all(np.isfinite(inst.lower)) and np.all(np.isfinite(inst.upper))):
        raise ValueError("bounded box required")
    axes = [np.linspace(inst.lower[i], inst.upper[i], grid_resolution) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    G = grad_gamma(inst, pts)
    spacing = float(np.max((inst.upper - inst.lower) / (grid_resolution - 1)))
    curvature = inst.beta * (n + 1) + inst.cost.lipschitz_L()
    tol = max(curvature * spacing, 1e-12)
    at_lo = pts == inst.lower
    at_up = pts == inst.upper
    interior = ~at_lo & ~at_up
    ok = (at_lo & (G >= -tol)) | (at_up & (G <= tol)) | (interior & (np.abs(G) <= tol))
    # degenerate (pinned) coordinates duplicate grid nodes; report each once
    return np.unique(pts[np.all(ok, axis=1)], axis=0)
