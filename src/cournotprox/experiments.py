"""Experiment harness: seeded instance families, batch sweeps, CSV traces.

Instance parameters are drawn from numpy's default PCG64 generator, so a
(seed, n) pair pins an instance bit-for-bit; random starting points use
the separate stream seeded by [seed, 1]. Trace CSVs are written with 17
significant digits and are byte-identical across repeated runs of the
same configuration; wall-clock times live only in the summary file.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .costs import AffineCost, ExpCost, LogCost, _integer
from .model import MarketInstance
from .solver import IterationTrace, SolverConfig, SolveStatus, Splitting, StepPolicy, solve
from .solver import _local_model
from .subqp import classical_equilibrium

__all__ = [
    "ExampleFamily",
    "X0Policy",
    "ExperimentConfig",
    "log_cost_market",
    "exp_cost_market",
    "affine_market",
    "generate_instance",
    "initial_point",
    "TRACE_FIELDS",
    "SUMMARY_FIELDS",
    "write_trace_csv",
    "read_trace_csv",
    "run_experiment",
    "VerifyReport",
    "verify_run",
]

TRACE_FIELDS = ["k", "gamma", "step_norm", "c_k", "residual_G", "delta_k", "bound_rhs"]
SUMMARY_FIELDS = [
    "n",
    "seed",
    "status",
    "iterations",
    "time_ms",
    "final_residual",
    "gamma_final",
    "oracle_err",
    "bound_ok",
    "certificate",
    "trials",
    "L_gamma",
    "c_final",
    "gamma_lb",
    "splitting",
    "L",
]

OUT_DIR_ENV = "COURNOTPROX_OUTDIR"


class ExampleFamily(Enum):
    LOG = "log"
    EXP = "exp"
    AFFINE = "affine"
    CUSTOM = "custom"


class X0Policy(Enum):
    ZERO = "zero"
    CENTER = "center"
    RANDOM = "random"


def log_cost_market(n, seed_or_rng=0, beta=0.1, alpha0=10.0, lower=0.0, upper=10.0,
                    ceiling=2.0, scale=1.5):
    """Log-cost market: r_i = 1 + U(0,1) per firm, box [lower, upper]^n."""
    rng = np.random.default_rng(seed_or_rng)
    r = 1.0 + rng.random(n)
    cost = LogCost(c0=ceiling, c=scale, r=r, n=n)
    return MarketInstance(beta=beta, alpha0=alpha0, mu=0.0, lower=lower, upper=upper, cost=cost)


def exp_cost_market(n, seed_or_rng=0, beta=0.1, alpha0=10.0, lower=0.0, upper=10.0,
                    ceiling=4.0, scale=2.0):
    """Exponential-cost market: r_i = 0.1 + 0.1*U(0,1) per firm, box [lower, upper]^n."""
    rng = np.random.default_rng(seed_or_rng)
    r = 0.1 + 0.1 * rng.random(n)
    cost = ExpCost(c0=ceiling, c=scale, r=r, n=n)
    return MarketInstance(beta=beta, alpha0=alpha0, mu=0.0, lower=lower, upper=upper, cost=cost)


def affine_market(n, mu=2.0, beta=0.1, alpha0=10.0, lower=0.0, upper=50.0):
    """Affine-cost market (convex); its unique equilibrium has a QP oracle."""
    cost = AffineCost(mu_h=0.0, xi=0.0, n=n)
    return MarketInstance(beta=beta, alpha0=alpha0, mu=mu, lower=lower, upper=upper, cost=cost)


@dataclass
class ExperimentConfig:
    """One experiment batch: family, sizes, seed, solver knobs, output layout."""

    example: ExampleFamily = ExampleFamily.LOG
    n: Optional[int] = None
    sweep: Optional[tuple] = None
    seed: int = 0
    eps: float = 1e-3
    step_policy: StepPolicy = StepPolicy.FIXED
    splitting: Splitting = Splitting.EXACT_COUPLING
    max_iter: int = 100_000
    out_dir: Path = None
    x0: X0Policy = X0Policy.CENTER
    trace: bool = True
    custom: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.out_dir is None:
            self.out_dir = Path(os.environ.get(OUT_DIR_ENV, "results"))
        self.out_dir = Path(self.out_dir)
        if self.sweep is not None:
            self.sweep = tuple(_size(v, "each sweep size") for v in self.sweep)
            if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
                raise ValueError("sweep sizes must be strictly increasing")
            if any(v < 1 for v in self.sweep):
                raise ValueError("sweep sizes must be positive")
        if self.n is not None:
            self.n = _size(self.n, "n")
            if self.n < 1:
                raise ValueError("n must be positive")
        self.seed = _size(self.seed, "seed")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.custom and self.example is not ExampleFamily.CUSTOM:
            raise ValueError(f"market keys {sorted(self.custom)} need example = custom")
        self.solver_config()  # SolverConfig checks eps and max_iter

    @property
    def sizes(self):
        if self.sweep is not None:
            return self.sweep
        if self.n is not None:
            return (self.n,)
        raise ValueError("set n or sweep")

    def solver_config(self):
        return SolverConfig(
            step_policy=self.step_policy, eps=self.eps, max_iter=self.max_iter,
            splitting=self.splitting,
        )


def _size(value, name):
    try:
        return _integer(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _custom_instance(cfg, n):
    spec = dict(cfg.custom)
    kind = str(spec.pop("cost", "log")).lower()
    beta = float(spec.pop("beta", 0.1))
    alpha0 = float(spec.pop("alpha0", 10.0))
    mu = spec.pop("mu", 0.0)
    lower = spec.pop("lower", 0.0)
    upper = spec.pop("upper", 10.0)
    rng = np.random.default_rng(cfg.seed)
    if kind == "affine":
        cost = AffineCost(mu_h=spec.pop("mu_h", 0.0), xi=spec.pop("xi", 0.0), n=n)
    elif kind in ("log", "exp"):
        r = spec.pop("r", "random")
        if isinstance(r, str) and r == "random":
            r = 1.0 + rng.random(n) if kind == "log" else 0.1 + 0.1 * rng.random(n)
        else:
            r = float(r)
        if kind == "log":
            cost = LogCost(c0=spec.pop("c0", 2.0), c=spec.pop("c", 1.5), r=r, n=n)
        else:
            cost = ExpCost(c0=spec.pop("c0", 4.0), c=spec.pop("c", 2.0), r=r, n=n)
    else:
        raise ValueError(f"unknown cost family {kind!r}")
    if spec:
        raise ValueError(f"unknown custom keys: {sorted(spec)}")
    return MarketInstance(beta=beta, alpha0=alpha0, mu=mu, lower=lower, upper=upper, cost=cost)


def generate_instance(cfg, n=None):
    """Build the market instance for one run; deterministic per (family, n, seed)."""
    n = _size(n if n is not None else (cfg.n if cfg.n is not None else cfg.sizes[0]), "n")
    if cfg.example is ExampleFamily.LOG:
        return log_cost_market(n, cfg.seed)
    if cfg.example is ExampleFamily.EXP:
        return exp_cost_market(n, cfg.seed)
    if cfg.example is ExampleFamily.AFFINE:
        return affine_market(n)
    return _custom_instance(cfg, n)


def initial_point(cfg, inst):
    """Starting point per policy; RANDOM uses the substream seeded by [seed, 1]."""
    if cfg.x0 is X0Policy.ZERO:
        return inst.project(np.zeros(inst.n))
    if cfg.x0 is X0Policy.CENTER:
        return inst.center()
    if not (np.all(np.isfinite(inst.lower)) and np.all(np.isfinite(inst.upper))):
        raise ValueError("x0 = random needs a bounded box")
    rng = np.random.default_rng([cfg.seed, 1])
    return rng.uniform(inst.lower, inst.upper)


def _fmt(value):
    return f"{value:.17g}"


def write_trace_csv(path, trace):
    """Serialize a trace; floats carry 17 significant digits (round-trip exact)."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_FIELDS)
        # the derived columns are properties: read each once, not per row
        columns = (trace.gamma, trace.step_norm, trace.c, trace.residual, trace.delta,
                   trace.bound_rhs)
        for k, row in enumerate(zip(*(col.tolist() for col in columns))):
            writer.writerow([k, *map(_fmt, row)])


def read_trace_csv(path):
    """Parse a trace CSV into column arrays; malformed rows report their line number."""
    path = Path(path)
    columns = {name: [] for name in TRACE_FIELDS}
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_FIELDS:
            raise ValueError(f"{path}:1: expected header {','.join(TRACE_FIELDS)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(TRACE_FIELDS):
                raise ValueError(f"{path}:{lineno}: expected {len(TRACE_FIELDS)} fields, got {len(row)}")
            try:
                for name, cell in zip(TRACE_FIELDS, row):
                    columns[name].append(float(cell))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return {name: np.asarray(vals) for name, vals in columns.items()}


def _trace_name(cfg, n):
    return f"trace_{cfg.example.value}_n{n}_seed{cfg.seed}.csv"


def run_experiment(cfg):
    """Run one sweep; write per-run trace CSVs and a summary CSV.

    Returns 0 when every run converged and every per-run bound check (and
    the oracle check, in affine mode) passed, 1 otherwise. Summary rows
    appear in sweep order; an empty sweep yields header-only output and
    exit status 0.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    solver_cfg = cfg.solver_config()
    rows = []
    all_ok = True
    for n in cfg.sizes:
        inst = generate_instance(cfg, n)
        # solve's default start is the box midpoint, so CENTER passes none
        # and the start is not projected a second time
        x0 = None if cfg.x0 is X0Policy.CENTER else initial_point(cfg, inst)
        t0 = time.perf_counter()
        result, trace = solve(inst, solver_cfg, x0)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        bound_ok = _bound_violation(trace.delta, trace.bound_rhs) is None
        oracle_err = ""
        if cfg.example is ExampleFamily.AFFINE:
            star = classical_equilibrium(inst)
            err = float(np.max(np.abs(result.x - star)))
            oracle_err = _fmt(err)
            all_ok &= err <= 1e-6
        all_ok &= result.status is SolveStatus.CONVERGED and bound_ok
        L_gamma = _local_model(inst, Splitting.PAPER)[0]
        L = _local_model(inst, cfg.splitting)[0]  # the bound that sized the damping
        if cfg.trace:
            write_trace_csv(cfg.out_dir / _trace_name(cfg, n), trace)
        rows.append(
            [
                n,
                cfg.seed,
                result.status.value,
                result.iterations,
                f"{elapsed_ms:.3f}",
                _fmt(result.final_residual),
                _fmt(result.gamma_final),
                oracle_err,
                int(bound_ok),
                _fmt(result.certificate),
                result.trials,
                _fmt(L_gamma),
                _fmt(result.c_final),
                "" if trace.gamma_lb is None else _fmt(trace.gamma_lb),
                cfg.splitting.value,
                _fmt(L),
            ]
        )
    with open(cfg.out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_FIELDS)
        writer.writerows(rows)
    return 0 if all_ok else 1


@dataclass
class VerifyReport:
    """Offline re-check of a stored trace; one flag per invariant."""

    path: str
    rows: int
    delta_consistent: bool
    delta_row: Optional[int]
    residual_consistent: bool
    residual_row: Optional[int]
    bound_ok: Optional[bool]  # None when the trace carries no bound column
    bound_row: Optional[int]
    gamma_monotone: bool
    gamma_row: Optional[int]

    @property
    def passed(self):
        checks = [self.delta_consistent, self.residual_consistent, self.gamma_monotone]
        if self.bound_ok is not None:
            checks.append(self.bound_ok)
        return all(checks)

    def __str__(self):
        def line(name, ok, row):
            if ok is None:
                return f"{name}: SKIPPED"
            if ok:
                return f"{name}: PASS"
            return f"{name}: FAIL (row {row})"

        return "\n".join(
            [
                f"trace: {self.path} ({self.rows} rows)",
                line("delta recompute", self.delta_consistent, self.delta_row),
                line("residual recompute", self.residual_consistent, self.residual_row),
                line("per-iteration bound", self.bound_ok, self.bound_row),
                line("potential monotone", self.gamma_monotone, self.gamma_row),
            ]
        )


def _first_bad(mask):
    idx = np.nonzero(mask)[0]
    return int(idx[0]) if idx.size else None


def _first_mismatch(recomputed, stored):
    # a NaN on either side is a mismatch; equal values, infinities too, match
    close = np.abs(recomputed - stored) <= 1e-12 * np.maximum(1.0, np.abs(recomputed))
    return _first_bad(~(close | (recomputed == stored)))


def _bound_violation(delta, rhs):
    # first row whose running best step tops the drop budget beyond rounding;
    # a NaN budget (no lower bound) is never topped
    return _first_bad(delta > rhs + 1e-12 * np.maximum(1.0, np.abs(rhs)))


def verify_run(path):
    """Re-derive the per-iteration checks from a stored trace CSV.

    Recomputes the running best scaled squared step and the gradient-
    mapping norm step_norm/c_k from the step-norm and damping columns,
    compares each with its stored column, re-checks the former against
    the stored drop budget, and checks that the potential column never
    increases. A NaN cell in those columns fails its check. A single-row
    trace passes trivially.
    """
    cols = read_trace_csv(path)
    m = cols["k"].size
    if m == 0:
        return VerifyReport(str(path), 0, True, None, True, None, None, None, True, None)
    bound = cols["bound_rhs"]
    gamma_lb = None if np.all(np.isnan(bound)) else cols["gamma"][0] - bound[0]
    trace = IterationTrace(cols["gamma"], cols["step_norm"], cols["c_k"], gamma_lb=gamma_lb)
    delta_re = trace.delta
    delta_row = _first_mismatch(delta_re, cols["delta_k"])
    residual_row = _first_mismatch(trace.residual, cols["residual_G"])

    if gamma_lb is None:
        bound_ok, bound_row = None, None
    else:
        bound_row = _bound_violation(delta_re, trace.bound_rhs)
        bound_ok = bound_row is None

    g = cols["gamma"]
    slack = 1e-9 + 1e-12 * np.abs(g[:-1])
    bad_gamma = ~(g[1:] <= g[:-1] + slack)  # a NaN potential is not monotone
    gamma_row = _first_bad(bad_gamma)
    gamma_row = gamma_row + 1 if gamma_row is not None else None

    return VerifyReport(
        path=str(path),
        rows=m,
        delta_consistent=delta_row is None,
        delta_row=delta_row,
        residual_consistent=residual_row is None,
        residual_row=residual_row,
        bound_ok=bound_ok,
        bound_row=bound_row,
        gamma_monotone=gamma_row is None,
        gamma_row=gamma_row,
    )
