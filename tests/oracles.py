"""Desk-scale oracles shared by the test modules; independent of the solver."""

import numpy as np

from cournotprox import grad_gamma


def brute_force_stationary_points(inst, grid_resolution=101):
    """Grid points whose potential-gradient sign pattern is stationarity-consistent.

    n <= 3 only: interior nodes need a gradient within the grid
    tolerance, nodes on a bound need the correctly signed component. The
    tolerance scales with the grid spacing times the curvature bound, so
    every true stationary point has a qualifying node within one cell.
    Never empty on a compact box.
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
