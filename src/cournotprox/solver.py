"""Splitting proximal iteration for the nonconvex market model.

Each step minimizes a local model of the merit potential over the box:
a quadratic part kept exact, the rest linearized around the current
iterate, plus proximal damping |y - x|^2/(2c). Two splittings decide
what is kept and so the curvature bound L (``Splitting``, the default
EXACT_COUPLING or the paper's PAPER); ``subqp.prox_step`` takes either
step.

Neither step can fail. With c at or below 1/L the potential drops by at
least (c/2)*||G_c||^2 per step, which yields an O(1/(k+1)) bound on the
best scaled squared step and the stationarity certificate
(1/c + L)*||x - s|| at termination. The trace records both sides of
that bound per iteration (its ``delta`` and ``bound_rhs`` columns). A
Newton trial between steps (``solve``) only ever lowers the potential,
so the bound holds with it.

A solver run is single-threaded and deterministic given (instance,
config, x0); concurrent runs may share immutable instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import diagnostics
from .costs import _integer, _real
from .model import potential_gamma
from .subqp import Splitting, _linear_term, _local_model, prox_step

__all__ = [
    "Splitting",
    "StepPolicy",
    "SolveStatus",
    "SolverConfig",
    "IterationTrace",
    "SolveResult",
    "solve",
    "eps_certificate",
]


class StepPolicy(Enum):
    FIXED = "fixed"
    LINE_SEARCH = "linesearch"


class SolveStatus(Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    NON_FINITE = "NonFinite"


@dataclass(frozen=True)
class SolverConfig:
    """Step policy, tolerances and recording switches, checked at construction.

    A bad setting raises a ``ValueError`` that names it. The damping
    comes from the instance and the splitting, not from here.
    ``splitting`` picks the curvature bound L (``Splitting``).
    FIXED takes every step at c = 1/L, which guarantees per-step
    descent.
    LINE_SEARCH lowers the damping by halvings from a start value until
    the sufficient-decrease test holds, within the bracket [0.1/L, 10/L];
    the floor 0.1/L <= 1/L makes the search terminate. A failed trial's
    own numbers give the damping at which its step would just pass, and
    the next trial is the first halving at or below it, floored at
    0.1/L (one halving when the test's excess is not finite), so every
    trial is one that plain halving makes too. The first search
    starts at 2/L. Each later one starts one doubling above the last
    accepted value, clipped to the bracket, when the accepted step also
    passes the test at that doubled value, and at the accepted value
    otherwise, so a doubling is tried only where the last step showed
    room for it. When L is zero the model is exact and either policy
    steps at c = inf.

    Termination compares the Euclidean norm of the step against ``eps``.
    ``record_iterates`` keeps every visited point in the trace.
    ``gamma_lb`` is the potential lower bound behind the trace's bound
    column. When it is None and ``record_bound`` is on, ``solve``
    computes it with ``gamma_lower_bound`` on a bounded box; with
    ``record_bound`` off it skips that, and the bound column is NaN. A
    given ``gamma_lb`` is used whatever ``record_bound`` says.
    """

    step_policy: StepPolicy = StepPolicy.FIXED
    eps: float = 1e-3
    max_iter: int = 100_000
    record_iterates: bool = False
    record_bound: bool = True
    gamma_lb: Optional[float] = None
    splitting: Splitting = Splitting.EXACT_COUPLING

    def __post_init__(self):
        object.__setattr__(self, "eps", _real(self.eps, "eps"))
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter"))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.gamma_lb is not None:
            object.__setattr__(self, "gamma_lb", _real(self.gamma_lb, "gamma_lb"))
        if not isinstance(self.splitting, Splitting):
            raise ValueError(f"splitting must be a Splitting, got {self.splitting!r}")
        if not isinstance(self.step_policy, StepPolicy):
            raise ValueError(f"step_policy must be a StepPolicy, got {self.step_policy!r}")
        for name in ("record_iterates", "record_bound"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")


@dataclass
class IterationTrace:
    """Per-iteration history; row k describes the step taken from iterate k.

    Stored columns: potential at the iterate, step norm and damping c.
    ``iterates`` holds each row's iterate, which is a kept Newton point
    where one replaced the last step's point, and the final point, when
    snapshot recording is on; ``gamma_lb`` is the potential lower bound
    behind ``bound_rhs``. The other columns are derived from these.
    """

    gamma: np.ndarray
    step_norm: np.ndarray
    c: np.ndarray
    iterates: Optional[list] = None
    gamma_lb: Optional[float] = None

    def __len__(self):
        return int(self.gamma.size)

    @property
    def residual(self):
        """Gradient-mapping norm ||G_c|| = step/c per row."""
        return self.step_norm / self.c

    @property
    def delta(self):
        """Running best scaled squared step min_j step_j^2/(2 c_j)."""
        return np.minimum.accumulate(self.step_norm**2 / (2.0 * self.c))

    @property
    def bound_rhs(self):
        """Potential-drop budget (gamma(x0) - gamma_lb)/(k+1); NaN without a bound."""
        if self.gamma_lb is None or not len(self):
            return np.full(len(self), math.nan)
        return (self.gamma[0] - self.gamma_lb) / np.arange(1, len(self) + 1)


@dataclass
class SolveResult:
    """Final iterate plus termination and certificate data.

    ``status`` is Converged exactly when the step norm fell to eps.
    ``certificate`` bounds from below, by its negation, the potential
    slope along every unit feasible direction at ``x``; it equals
    ``eps_certificate`` at the last iterate before ``x`` with damping
    ``c_final`` and the run's splitting, bit for bit, but is NaN under
    NonFinite: no point whose potential is not finite is certified.
    ``trials`` counts the points tried: the prox steps behind the
    ``iterations`` recorded steps (one each under FIXED, the line-search
    trials under LINE_SEARCH) plus the Newton trials.
    """

    x: np.ndarray
    status: SolveStatus
    iterations: int
    trials: int
    final_step_norm: float
    certificate: float
    gamma_final: float
    c_final: float
    x0_projected: bool

    @property
    def final_residual(self):
        """Gradient-mapping norm ||G_c|| of the last step; NaN after 0 iterations."""
        return self.final_step_norm / self.c_final


def solve(inst, config=None, x0=None):
    """Run the splitting proximal iteration from x0.

    Parameters
    ----------
    inst : MarketInstance
        The market to solve.
    config : SolverConfig, optional
        Splitting, step policy and tolerances; defaults throughout. The
        damping bracket is derived here from the splitting's curvature
        bound.
    x0 : array_like, optional
        Starting point; the box midpoint when omitted. Points outside
        the box, infinite entries included, are projected onto it and
        flagged in the result; a NaN entry raises ``ValueError``.

    Returns
    -------
    (SolveResult, IterationTrace)
        The result carries the last prox point, which inherits the
        stationarity certificate (1/c + L)*||x - s|| from the final
        step. Status is Converged when the step norm reached ``eps``,
        MaxIter when the budget ran out, and NonFinite as soon as the
        potential at an iterate (the start point included) or a step
        norm is not finite. A non-finite step is not taken: ``x`` stays
        at the last iterate and the result's step norm, residual and
        certificate are NaN.

    Notes
    -----
    Both step policies and both splittings run one trial loop; FIXED is
    a single trial at 1/L, accepted unconditionally. Under
    EXACT_COUPLING an accepted, unconverged step on a slow tail, where
    step*(step/previous step)^2 > eps predicts more than two more
    steps, is followed by a Newton trial (projected Newton in
    proximal-Newton form; Bertsekas 1982, Lee, Sun & Saunders 2014):
    the box minimizer of the potential's second-order model, skipped
    where it has none. It counts in ``trials`` and becomes the next
    iterate, without a trace row, only if it lowers the potential;
    termination and the certificate stay on the prox steps. A run
    allocates its n-vectors once and every trial writes into them: one
    step and one ``potential_gamma`` whose fused cost call also leaves
    the slope at the trial point, and the curvature when a Newton trial
    will follow. The iterate and the trial point own their memory, so
    ``result.x`` holds just n floats; the cost term's slope at both, the
    linear term and scratch are one (4, n) block, whose release lifts glibc's
    trim threshold (mallopt(3)): the scratch stays mapped between runs,
    not faulted back in on each. Each trial point is summed once, by its
    step (on the root's last pass), and dotted with itself once.
    ``result.x`` and the recorded iterates are never written after it returns.
    """
    cfg = config if config is not None else SolverConfig()
    if x0 is None:
        x, x0_projected = inst.center(), False  # the midpoint lies in the box
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (inst.n,):
            raise ValueError(f"x0 must have shape ({inst.n},), got {x0.shape}")
        if np.isnan(x0).any():
            raise ValueError("x0 has a NaN entry")
        x = inst.project(x0)
        x0_projected = bool(np.any(x != x0))

    gamma_lb = cfg.gamma_lb
    if gamma_lb is None and cfg.record_bound and inst._bounded:
        gamma_lb = diagnostics.gamma_lower_bound(inst)

    L, kept, newton = _local_model(inst, cfg.splitting)

    # The damping bracket [c_lo, c_hi] around 1/L. FIXED is the search on
    # the one-point bracket at 1/L: its single trial sits at the floor and
    # is accepted unconditionally.
    if L > 0.0:
        c_fixed, c_lo, c_hi = 1.0 / L, 0.1 / L, 10.0 / L
    else:  # the model is the potential
        c_fixed = c_lo = c_hi = math.inf
    if cfg.step_policy is StepPolicy.FIXED:
        c_lo = c_hi = c_fixed
    search = c_lo < c_hi

    # The n-vectors of the run, allocated once: the iterate and the trial
    # point, the cost term's slope at each, the model's linear term at the
    # iterate, and scratch, with the exact-coupling step's boolean masks.
    # Every trial writes into them; the accepted trial swaps in as the
    # next iterate together with the slope there, so the cost is never
    # evaluated twice at one point. x and s own their memory, as one of
    # them is result.x; the other four are one block (see Notes).
    s = np.empty_like(x)
    dh_x, dh_s, g, work = np.empty((4, inst.n))
    masks = np.empty((2, inst.n), dtype=bool)
    # the total output at the iterate and at the trial point: x0 is summed
    # here, and every trial point once, by its step
    sums = np.array([np.add.reduce(x), math.nan])
    sq = np.empty(1)  # |y|^2 of the last point y that potential_gamma evaluated
    gamma_x = float(potential_gamma(inst, x, dh_x, work, _sigma=sums[0], _sq=sq))
    # the kept quadratic at the iterate, carried over from the accepted trial
    kept_x = kept(sq[0], sums[0]) if search else math.nan
    col_gamma, col_step, col_c = [], [], []
    iterates = [] if cfg.record_iterates else None
    c_next = min(c_hi, max(c_lo, 2.0 * c_fixed))
    c_k = math.nan
    step = math.nan
    curv = None  # the curvature at the iterate, when a Newton trial is due there
    trials = 0
    status = SolveStatus.MAX_ITER if math.isfinite(gamma_x) else SolveStatus.NON_FINITE

    for _ in range(cfg.max_iter if status is SolveStatus.MAX_ITER else 0):
        _linear_term(inst, x, dh_x, sums[0], cfg.splitting, g)
        # The Newton trial, kept only if it lowers the potential; its point
        # becomes the iterate without a row of its own.
        if curv is not None and newton(inst, x, g, curv, s, (work, masks, sums)) is not None:
            trials += 1
            gamma_s = float(potential_gamma(inst, s, dh_s, work, _sigma=sums[1], _sq=sq))
            if gamma_s < gamma_x:
                x, s, dh_x, dh_s = s, x, dh_s, dh_x
                sums[0] = sums[1]
                gamma_x = gamma_s
                kept_x = kept(sq[0], sums[0]) if search else math.nan
                _linear_term(inst, x, dh_x, sums[0], cfg.splitting, g)
        # Sufficient decrease: gamma(s) may not exceed the local model at x,
        #   gamma(s) <= gamma(x) + kept(s) - kept(x) + g.(s - x) + |s - x|^2/(2c),
        # written around the known gamma(x), so it needs no h(x). A one-point
        # bracket never reads it.
        base = gamma_x - kept_x
        c = c_next
        n_trials = 0
        while True:
            prox_step(inst, x, c, g, s, cfg.splitting, (work, masks, sums))
            n_trials += 1
            dx = np.subtract(s, x, out=work)
            dx2 = float(dx @ dx)
            g_dx = float(g @ dx) if search else math.nan
            # A slow tail, where the last two steps predict more than two more,
            # takes a Newton trial from s: its curvature comes from the same
            # cost call, into the slope at x, which is spent.
            trial = math.sqrt(dx2)  # np.linalg.norm's arithmetic, without its wrapper
            rate = trial / step  # NaN on the first step
            curv = dh_x if newton and trial > cfg.eps and trial * rate * rate > cfg.eps else None
            gamma_s = float(potential_gamma(inst, s, dh_s, work, _sigma=sums[1],
                                            _curv=curv, _sq=sq))
            if not search:
                break
            kept_s = kept(sq[0], sums[1])
            model = base + kept_s + g_dx
            # at c <= c_lo the step is in the guaranteed-descent region
            # (c*L <= 1); accept unconditionally
            if c <= c_lo or gamma_s <= model + dx2 / (2.0 * c):
                break
            # this same step would just pass at c_need = dx2/(2*excess) < c,
            # so the next trial is the first halving of c at or below c_need,
            # floored at c_lo: a trial the halving search makes too. A
            # non-finite excess halves once.
            excess = gamma_s - model
            c_need = dx2 / (2.0 * excess) if math.isfinite(excess) else c
            c *= 0.5
            while c > c_need and c > c_lo:
                c *= 0.5
            c = max(c, c_lo)
        if search:
            # the next search starts one doubling up only if this step
            # passes the test there too
            c_up = min(c_hi, 2.0 * c)
            c_next = c_up if gamma_s <= model + dx2 / (2.0 * c_up) else c
            kept_x = kept_s  # s becomes the iterate
        c_k = c
        step = trial
        if not math.isfinite(step):
            status = SolveStatus.NON_FINITE
            break
        trials += n_trials
        col_gamma.append(gamma_x)
        col_step.append(step)
        col_c.append(c_k)
        if iterates is not None:
            iterates.append(x.copy())
        x, s, dh_x, dh_s = s, x, dh_s, dh_x
        sums[0] = sums[1]
        gamma_x = gamma_s
        if not math.isfinite(gamma_x):
            status = SolveStatus.NON_FINITE
            break
        if step <= cfg.eps:
            status = SolveStatus.CONVERGED
            break

    if iterates is not None:
        iterates.append(x.copy())
    iterations = len(col_gamma)
    certificate = (1.0 / c_k + L) * step if iterations and status is not SolveStatus.NON_FINITE else math.nan
    trace = IterationTrace(
        gamma=np.asarray(col_gamma),
        step_norm=np.asarray(col_step),
        c=np.asarray(col_c),
        iterates=iterates,
        gamma_lb=gamma_lb,
    )
    result = SolveResult(
        x=x,
        status=status,
        iterations=iterations,
        trials=trials,
        final_step_norm=step,
        certificate=certificate,
        gamma_final=gamma_x,
        c_final=c_k,
        x0_projected=x0_projected,
    )
    return result, trace


def eps_certificate(inst, x, c, splitting=Splitting.EXACT_COUPLING):
    """Stationarity certificate kappa = (1/c + L)*||x - s_c(x)|| of the splitting's step s_c(x).

    L is the splitting's curvature bound (``Splitting``). Along every
    unit feasible direction at s_c(x), the potential slope is at least
    -kappa, so s_c(x) is kappa-stationary. It is zero exactly when x is
    already stationary, for every c > 0 and at c = inf with L > 0; at
    c = inf with L = 0 the step lands on the equilibrium and kappa is
    zero anywhere. The arithmetic is that of ``solve``, so at the last
    iterate before ``result.x``, damping ``result.c_final`` and the
    run's splitting this is ``result.certificate`` bit for bit. A NaN
    entry in ``x`` raises ``ValueError``.
    """
    x, c = np.asarray(x, dtype=float), _real(c, "c", finite=False)  # a float32 c rounds as float
    if np.isnan(x).any():
        raise ValueError("x has a NaN entry")
    s = prox_step(inst, x, c, splitting=splitting)
    step = float(np.linalg.norm(s - x))
    return float((1.0 / c + _local_model(inst, splitting)[0]) * step)
