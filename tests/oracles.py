"""Desk-scale oracles and reference formulas shared by the test modules; independent of the solver.

Built from public names and numpy only, so no oracle shares code with
the private helpers it checks. The library's affine oracle is the
default exact-coupling step at c = inf (``prox_step(inst, x, math.inf)``),
which for a cost with zero curvature is the market's one equilibrium;
``affine_equilibrium`` here, by sorted breakpoints, is the only
reference for that equilibrium that is independent of the library, and
every test of the step, of ``solve`` or of the diagnostics on such a
market compares with it.

The cost's sign in the potential lives here once, in ``SIGN``, as it
lives in the library once, in ``model._cost_term``: the potential
carries SIGN*h(x). Every oracle, and every closed form in the test
modules, takes the cost through the signed helpers ``cost_term``,
``cost_term_slope`` and ``cost_term_curvature`` or reads
``oracles.SIGN`` when it runs, never a copy, so one
``monkeypatch.setattr(oracles, "SIGN", 1.0)`` moves the whole test side
to the paper's sign. The unsigned ``cost_value``, ``cost_gradient`` and
``cost_curvature`` serve these helpers and the raw-cost tests of
``test_costs.py``.
"""

import numpy as np

from cournotprox import MarketInstance, Splitting, prox_step

SIGN = -1.0  # the cost's sign in the potential: -h, the shipped model; the paper's is +h


def _points(inst, x, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != inst.n:
        raise ValueError(f"{name} must have trailing axis of length {inst.n}, got shape {x.shape}")
    return x


def cost_value(cost, x):
    """Total cost h(x), the sum of ``value_components`` over the trailing firm axis."""
    return np.sum(cost.value_components(x), axis=-1)


def cost_gradient(cost, x):
    """Elementwise gradient (h_1'(x_1), ..., h_n'(x_n)), from one ``value_components`` call."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    cost.value_components(x, grad)
    return grad


def cost_curvature(cost, x):
    """Elementwise second derivative (h_1''(x_1), ..., h_n''(x_n)), from one ``value_components`` call."""
    x = np.asarray(x, dtype=float)
    curv = np.empty_like(x)
    cost.value_components(x, np.empty_like(x), None, curv)
    return curv


def cost_term(cost, x):
    """The cost's per-firm term of the potential, SIGN*h_i(x_i), shaped like ``x``."""
    return SIGN * cost.value_components(x)


def cost_term_slope(cost, x):
    """Elementwise slope of the cost's term, SIGN*h_i'(x_i)."""
    return SIGN * cost_gradient(cost, x)


def cost_term_curvature(cost, x):
    """Elementwise curvature of the cost's term, SIGN*h_i''(x_i)."""
    return SIGN * cost_curvature(cost, x)


def cost_term_total(cost, x):
    """The cost's term of the potential, SIGN*h(x), summed over the trailing firm axis."""
    return np.sum(cost_term(cost, x), axis=-1)


def library_cost_term(sign):
    """A stand-in for the library's private ``_cost_term`` that writes sign*h, to monkeypatch in.

    Same signature and buffers: the per-firm term, its slope into
    ``slope`` and its curvature into ``curv`` when given.
    """
    def term(inst, t, slope=None, out=None, curv=None):
        v = inst.cost.value_components(t, slope, out, curv)
        for buf in (slope, curv):
            if buf is not None:
                np.multiply(sign, buf, out=buf)
        return np.multiply(sign, v, out=out)

    return term


def box_bound(cost, lower=0.0, upper=np.inf):
    """The curvature bound ``L_h`` of a market with ``cost`` on the box [lower, upper]."""
    return MarketInstance(beta=1.0, alpha0=0.0, mu=0.0, lower=lower, upper=upper, cost=cost).L_h


def lipschitz_gamma(inst):
    """Curvature bound of the potential's gradient: L_h plus the coupling's (n-1)*beta."""
    return inst.L_h + (inst.n - 1) * inst.beta


def apply_Btilde(inst, x):
    """Cross-firm coupling: firm i receives beta times the others' total output."""
    x = _points(inst, x)
    sigma = np.sum(x, axis=-1, keepdims=True)
    return inst.beta * (sigma - x)


def apply_Q(inst, x):
    """Combined curvature operator: own-output 2*beta*x plus the coupling, beta*(x + sigma)."""
    x = _points(inst, x)
    sigma = np.sum(x, axis=-1, keepdims=True)
    return inst.beta * (x + sigma)


def potential_reference(inst, x):
    """The potential 0.5*beta*(|x|^2 + sigma^2) - x.alpha_tilde + SIGN*h(x)."""
    x = _points(inst, x)
    sq = np.sum(x * x, axis=-1)
    sigma = np.sum(x, axis=-1)
    return 0.5 * inst.beta * (sq + sigma**2) - x @ inst.alpha_tilde + cost_term_total(inst.cost, x)


def grad_gamma(inst, x):
    """Gradient of the potential: Q x - alpha_tilde + SIGN*grad h(x)."""
    return apply_Q(inst, x) - inst.alpha_tilde + cost_term_slope(inst.cost, x)


def phi_bifunction(inst, x, y):
    """Equilibrium bifunction; nonnegative over all y in the box iff x is a global equilibrium.

    ``x`` is a single anchor point; ``y`` may carry leading batch axes.
    Vanishes identically at y = x. Evaluation outside the box is allowed
    so diagnostics can probe boundary behavior.
    """
    x = _points(inst, x, "x")
    y = _points(inst, y, "y")
    fx = apply_Btilde(inst, x) - inst.alpha_tilde
    quad = inst.beta * (np.sum(y * y, axis=-1) - np.sum(x * x, axis=-1))
    return (y - x) @ fx + quad + (cost_term_total(inst.cost, y) - cost_term_total(inst.cost, x))


def gradient_mapping(inst, x, c):
    """The paper's gradient mapping G_c(x) = (x - s_c(x))/c; zero exactly at stationary points.

    Its norm is nonincreasing in c at fixed x, while the raw displacement
    norm is nondecreasing.
    """
    return (np.asarray(x, dtype=float) - prox_step(inst, x, c, splitting=Splitting.PAPER)) / c


def prox_model_value(inst, x, y, c):
    """Value at y of the convexified local model anchored at x, with damping 1/(2c)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = apply_Btilde(inst, x) - inst.alpha_tilde + cost_term_slope(inst.cost, x)
    dy = y - x
    return (
        inst.beta * float(y @ y)
        + float(g @ dy)
        + float(cost_term_total(inst.cost, x))
        + float(dy @ dy) / (2.0 * c)
    )


def decrease_rhs(inst, x, s, c):
    """Right side of the sufficient-decrease test: the local model at s plus the anchor's constant part."""
    return (
        prox_model_value(inst, x, s, c)
        + 0.5 * float(x @ apply_Btilde(inst, x))
        - float(x @ inst.alpha_tilde)
    )


def dphi_directional(inst, x, d):
    """Directional slope d . grad_gamma(x) of the potential at the single point x."""
    return np.asarray(d, dtype=float) @ grad_gamma(inst, np.asarray(x, dtype=float))


def fd_gradient_check(model, x, step):
    """Max per-component relative error of a central difference vs the analytic gradient.

    ``x`` must be a single point lying inside the model domain by a
    margin larger than ``step``; perturbed evaluations outside the
    domain raise the model's domain error.
    """
    x = np.asarray(x, dtype=float)
    if step <= 0:
        raise ValueError("step must be positive")
    shifts = step * np.eye(x.size)
    fd = (cost_value(model, x + shifts) - cost_value(model, x - shifts)) / (2.0 * step)
    g = cost_gradient(model, x)
    return float(np.max(np.abs(fd - g) / np.maximum(np.abs(g), 1e-12)))


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
    curvature = inst.beta * (n + 1) + inst.L_h
    tol = max(curvature * spacing, 1e-12)
    at_lo = pts == inst.lower
    at_up = pts == inst.upper
    interior = ~at_lo & ~at_up
    ok = (at_lo & (G >= -tol)) | (at_up & (G <= tol)) | (interior & (np.abs(G) <= tol))
    # degenerate (pinned) coordinates duplicate grid nodes; report each once
    return np.unique(pts[np.all(ok, axis=1)], axis=0)


def full_scan_min(profile, lower, upper, grid):
    """Per-firm minimum of ``profile`` over all ``grid`` diagonal nodes, and the node spacing.

    Every node t = lower + u*(upper - lower), u in linspace(0, 1, grid),
    is evaluated, one n-vector per node: the dense reference for the exact
    per-firm minimizer behind ``nash_gap`` and ``gamma_lower_bound``.
    """
    width = upper - lower
    best = np.full(width.shape, np.inf)
    for u in np.linspace(0.0, 1.0, grid):
        np.minimum(best, profile(lower + u * width), out=best)
    return best, width / (grid - 1)


def breakpoint_root(a, k, lower, upper):
    """Root of F(sigma) = sum(clip(a - k*sigma, lower, upper)) - sigma by sorted breakpoints.

    F is strictly decreasing and affine between the finite breakpoints
    (a - upper)/k and (a - lower)/k. A bisection over the sorted
    breakpoints finds the piece that holds the root, and one division
    gives it: O(n log n), no tolerance and no iteration budget. Infinite
    bounds are allowed; k must be positive, one number or one per firm.
    """
    a = np.asarray(a, dtype=float)
    lower, upper, k = (np.broadcast_to(np.asarray(v, dtype=float), a.shape) for v in (lower, upper, k))
    bp_up, bp_lo = (a - upper) / k, (a - lower) / k
    knots = np.unique(np.concatenate([bp_up, bp_lo]))
    knots = knots[np.isfinite(knots)]
    # first knot j with F(knots[j]) <= 0; the root lies in [knots[j-1], knots[j]]
    j, hi = 0, knots.size
    while j < hi:
        mid = (j + hi) // 2
        if np.sum(np.clip(a - k * knots[mid], lower, upper)) - knots[mid] > 0:
            j = mid + 1
        else:
            hi = mid
    left = knots[j - 1] if j > 0 else -np.inf
    right = knots[j] if j < knots.size else np.inf
    # on that piece each firm sits at its upper bound, its lower bound, or a - k*sigma
    at_up, at_lo = bp_up >= right, bp_lo <= left
    free = ~(at_up | at_lo)
    fixed = np.sum(upper[at_up]) + np.sum(lower[at_lo])
    return float((fixed + np.sum(a[free])) / (1.0 + np.sum(k[free])))


def exact_coupling_step(inst, x, c):
    """Minimizer over the box of the exact-coupling model at x with damping 1/(2c), c <= inf.

    With dh = SIGN*h'(x), the model (beta/2)*(|y|^2 + sum(y)^2)
    - (alpha_tilde - dh).y + |y - x|^2/(2c) has the solution
    y = clip(a - k*sigma) with a = (alpha_tilde - dh + x/c)/(beta + 1/c),
    k = beta/(beta + 1/c), and sigma from ``breakpoint_root``.
    """
    x = np.asarray(x, dtype=float)
    d = inst.beta + 1.0 / c
    a = (inst.alpha_tilde - cost_term_slope(inst.cost, x) + x / c) / d
    k = inst.beta / d
    return np.clip(a - k * breakpoint_root(a, k, inst.lower, inst.upper), inst.lower, inst.upper)


def newton_point(inst, x):
    """Minimizer over the box of the potential's second-order model at x.

    With dh = SIGN*h'(x) and curv = SIGN*h''(x), the model
    (beta/2)*(|y|^2 + sum(y)^2) - (alpha_tilde - dh).y + curv.(y - x)^2/2
    has, where every D = beta + curv is positive, the solution
    y = clip(a - k*sigma) with a = (alpha_tilde - dh + curv*x)/D,
    k = beta/D per firm, and sigma from ``breakpoint_root``.
    """
    x = np.asarray(x, dtype=float)
    curv = cost_term_curvature(inst.cost, x)
    d = inst.beta + curv
    a = (inst.alpha_tilde - cost_term_slope(inst.cost, x) + curv * x) / d
    k = inst.beta / d
    return np.clip(a - k * breakpoint_root(a, k, inst.lower, inst.upper), inst.lower, inst.upper)


def exact_decrease_rhs(inst, x, s, c):
    """Right side of the exact-coupling sufficient-decrease test: the local model at s.

    The model keeps (beta/2)*(|s|^2 + sum(s)^2) - alpha_tilde.s exact and
    linearizes the cost at x.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    d = s - x
    kept = 0.5 * inst.beta * (float(s @ s) + float(np.sum(s)) ** 2)
    return (
        kept
        - float(inst.alpha_tilde @ s)
        + float(cost_term_total(inst.cost, x))
        + float(cost_term_slope(inst.cost, x) @ d)
        + float(d @ d) / (2.0 * c)
    )


def oracle_linear(inst):
    """The linear term b = SIGN*h' - alpha_tilde of the oracle QP of a cost with zero curvature.

    Up to a constant, such a market's potential is the QP
    (1/2) x'Qx + b'x with Q = beta*(I + 11'). The cost term's slope,
    constant for such a cost, is read at 0.
    """
    return cost_term_slope(inst.cost, np.zeros(inst.n)) - inst.alpha_tilde


def oracle_residual(inst, x):
    """Unit-step projected-gradient residual of the oracle QP, beta*(x + sigma) + b."""
    g = inst.beta * (x + np.sum(x)) + oracle_linear(inst)
    return np.max(np.abs(x - np.clip(x - g, inst.lower, inst.upper)))


def pg_reference(hess, linear, lower, upper, step, x, tol=1e-12, max_iter=100_000):
    """Projected gradient on min (1/2) x'Hx + linear'x over the box, step <= 1/lam_max(H).

    Independent of the library's closed forms; stops on the unit-step
    projected-gradient residual.
    """
    for _ in range(max_iter):
        g = hess(x) + linear
        if np.max(np.abs(x - np.clip(x - g, lower, upper))) <= tol:
            return x
        x = np.clip(x - step * g, lower, upper)
    raise AssertionError("reference projected gradient did not converge")


def oracle_reference(inst):
    """The oracle QP's minimizer by ``pg_reference``, from the box center."""
    return pg_reference(
        lambda v: inst.beta * (v + np.sum(v)),
        oracle_linear(inst),
        inst.lower,
        inst.upper,
        1.0 / (inst.beta * (inst.n + 1)),
        inst.center(),
    )


def affine_equilibrium(inst):
    """Equilibrium of a market whose cost has zero curvature by ``breakpoint_root``.

    Shares no code with the library: the independent reference for its
    affine oracle, the default step at c = inf. The optimality conditions
    of the oracle QP give x = clip(a - sigma) with a = -b/beta, b from
    ``oracle_linear``, and the total output sigma the root of
    sum(clip(a - sigma)) = sigma, i.e. k = 1.
    """
    a = -oracle_linear(inst) / inst.beta
    sigma = breakpoint_root(a, 1.0, inst.lower, inst.upper)
    return np.clip(a - sigma, inst.lower, inst.upper)


def unilateral_terms(inst, x, t):
    """q_i(t) = beta*t**2 + (beta*sigma_{-i} - alpha_tilde[i])*t + SIGN*h_i(t), firm axis last."""
    slope = apply_Btilde(inst, x) - inst.alpha_tilde
    return inst.beta * t * t + slope * t + cost_term(inst.cost, t)
