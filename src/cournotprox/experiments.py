"""Experiment harness: seeded instance families, batch sweeps, CSV traces.

Instance parameters are drawn from numpy's default PCG64 generator, so a
(seed, n) pair pins an instance bit-for-bit; random starting points use
the separate stream seeded by [seed, 1]. Trace CSVs are written with 17
significant digits and are byte-identical across repeated runs of the
same configuration; wall-clock times live only in the summary file.
"""

from __future__ import annotations

import csv
import inspect
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .costs import AffineCost, ExpCost, LogCost, _infer_n, _integer
from .model import MarketInstance
from .solver import IterationTrace, SolverConfig, SolveStatus, Splitting, StepPolicy, solve
from .subqp import _local_model, prox_step

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


class X0Policy(Enum):
    ZERO = "zero"
    CENTER = "center"
    RANDOM = "random"


def log_cost_market(n, seed_or_rng=0, beta=0.1, alpha0=10.0, lower=0.0, upper=10.0,
                    c0=2.0, c=1.5, mu=0.0, r=None):
    """Log-cost market on the box [lower, upper]^n; r_i = 1 + U(0,1) per firm unless r is given."""
    if r is None:
        r = 1.0 + np.random.default_rng(seed_or_rng).random(n)
    cost = LogCost(c0=c0, c=c, r=r, n=n)
    return MarketInstance(beta=beta, alpha0=alpha0, mu=mu, lower=lower, upper=upper, cost=cost)


def exp_cost_market(n, seed_or_rng=0, beta=0.1, alpha0=10.0, lower=0.0, upper=10.0,
                    c0=4.0, c=2.0, mu=0.0, r=None):
    """Exponential-cost market on [lower, upper]^n; r_i = 0.1 + 0.1*U(0,1) unless r is given."""
    if r is None:
        r = 0.1 + 0.1 * np.random.default_rng(seed_or_rng).random(n)
    cost = ExpCost(c0=c0, c=c, r=r, n=n)
    return MarketInstance(beta=beta, alpha0=alpha0, mu=mu, lower=lower, upper=upper, cost=cost)


def affine_market(n, mu=2.0, beta=0.1, alpha0=10.0, lower=0.0, upper=50.0, mu_h=0.0, xi=0.0):
    """Affine-cost market (convex); its unique equilibrium has a QP oracle."""
    cost = AffineCost(mu_h=mu_h, xi=xi, n=n)
    return MarketInstance(beta=beta, alpha0=alpha0, mu=mu, lower=lower, upper=upper, cost=cost)


_MARKETS = {ExampleFamily.LOG: log_cost_market, ExampleFamily.EXP: exp_cost_market,
            ExampleFamily.AFFINE: affine_market}


@dataclass
class ExperimentConfig:
    """One experiment batch: family, sizes, seed, solver knobs, output layout.

    ``sweep`` holds the sizes, strictly increasing; one run is ``sweep=(n,)``.
    ``custom`` holds market keys: keyword arguments of the family's function
    (``log_cost_market``, ``exp_cost_market`` or ``affine_market``) other than
    its size and seed. A key left out keeps that function's default.
    """

    example: ExampleFamily = ExampleFamily.LOG
    sweep: Optional[tuple] = None
    seed: int = 0
    eps: float = SolverConfig.eps
    step_policy: StepPolicy = SolverConfig.step_policy
    splitting: Splitting = SolverConfig.splitting
    max_iter: int = SolverConfig.max_iter
    out_dir: Path = None
    x0: X0Policy = X0Policy.CENTER
    trace: bool = True
    custom: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.out_dir is None:
            self.out_dir = Path(os.environ.get(OUT_DIR_ENV, "results"))
        self.out_dir = Path(self.out_dir)
        for name, kind, what in (("example", ExampleFamily, "an ExampleFamily"),
                                 ("x0", X0Policy, "an X0Policy"),
                                 ("trace", (bool, np.bool_), "a bool")):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")
        if self.sweep is not None:
            self.sweep = tuple(_infer_n(v) for v in self.sweep)  # each size is an n
            if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
                raise ValueError("sweep sizes must be strictly increasing")
        self.seed = _integer(self.seed, "seed")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.custom:  # no keys, no signature lookup
            takes = inspect.signature(_MARKETS[self.example]).parameters
            for key in self.custom:  # the size and the seed come from the run
                if key not in takes or key in ("n", "seed_or_rng"):
                    raise ValueError(f"unknown market key {key!r} for example = {self.example.value}")
        self.solver_config()  # SolverConfig checks eps and max_iter

    def solver_config(self):
        return SolverConfig(
            step_policy=self.step_policy, eps=self.eps, max_iter=self.max_iter,
            splitting=self.splitting,
        )


def generate_instance(cfg, n):
    """The family's market of size ``n`` with the config's keys; deterministic per (cfg, n)."""
    seed = () if cfg.example is ExampleFamily.AFFINE else (cfg.seed,)  # only a family that draws
    return _MARKETS[cfg.example](_integer(n, "n"), *seed, **cfg.custom)


def initial_point(cfg, inst):
    """Starting point per policy; RANDOM uses the substream seeded by [seed, 1]."""
    if cfg.x0 is X0Policy.ZERO:
        return inst.project(np.zeros(inst.n))
    if cfg.x0 is X0Policy.CENTER:
        return inst.center()
    if not inst._bounded:
        raise ValueError("x0 = random needs a bounded box")
    rng = np.random.default_rng([cfg.seed, 1])
    return rng.uniform(inst.lower, inst.upper)


def _fmt(value):
    return f"{value:.17g}"


def write_trace_csv(path, trace):
    """Serialize a trace; floats carry 17 significant digits (round-trip exact)."""
    # the derived columns are properties: read each once, not per row
    columns = (trace.gamma, trace.step_norm, trace.c, trace.residual, trace.delta,
               trace.bound_rhs)
    # every cell is a number, which csv would never quote: one format per row, one write
    row = "%d" + ",%.17g" * len(columns) + "\n"
    rows = (row % (k, *cells) for k, cells in enumerate(zip(*(col.tolist() for col in columns))))
    Path(path).write_text(",".join(TRACE_FIELDS) + "\n" + "".join(rows), newline="")


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


def run_experiment(cfg):
    """Run one sweep; write per-run trace CSVs and a summary CSV.

    Returns 0 when every run converged and every per-run bound check (and,
    on every affine market, keys set or not, the oracle check: ``oracle_err``,
    the answer's sup-norm distance from the c = inf exact-coupling step at
    the box center, the unique equilibrium of the strongly convex potential,
    at most 1e-6) passed, 1 otherwise. Summary rows
    appear in sweep order; an empty sweep yields header-only output and
    exit status 0.
    """
    if cfg.sweep is None:
        raise ValueError("set sweep")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    solver_cfg = cfg.solver_config()
    rows = []
    all_ok = True
    for n in cfg.sweep:
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
            star = prox_step(inst, inst.center(), np.inf)
            err = float(np.max(np.abs(result.x - star)))
            oracle_err = _fmt(err)
            all_ok &= err <= 1e-6
        all_ok &= result.status is SolveStatus.CONVERGED and bound_ok
        L_gamma = _local_model(inst, Splitting.PAPER)[0]
        L = _local_model(inst, cfg.splitting)[0]  # the bound that sized the damping
        if cfg.trace:
            name = f"trace_{cfg.example.value}_n{n}_seed{cfg.seed}.csv"
            write_trace_csv(cfg.out_dir / name, trace)
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


_VERIFY_CHECKS = (
    "row index", "delta recompute", "residual recompute", "per-iteration bound",
    "potential monotone",
)


@dataclass
class VerifyReport:
    """Offline re-check of a stored trace.

    ``failures`` maps each check that ran, by its printed name, to its first failing
    row, or None when it passed; the bound check is absent when the trace has no bound.
    """

    path: str
    rows: int
    failures: dict

    @property
    def passed(self):
        return all(row is None for row in self.failures.values())

    def __str__(self):
        def line(name):
            if name not in self.failures:
                return f"{name}: SKIPPED"
            row = self.failures[name]
            return f"{name}: PASS" if row is None else f"{name}: FAIL (row {row})"

        return "\n".join([f"trace: {self.path} ({self.rows} rows)", *map(line, _VERIFY_CHECKS)])


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

    Checks that the ``k`` column reads 0, 1, ..., recomputes the running
    best scaled squared step and the gradient-mapping norm step_norm/c_k
    from the step-norm and damping columns and compares each with its
    stored column, recomputes the drop budget (gamma_0 - gamma_lb)/(k+1)
    on every row from its row-0 value, compares it with the stored
    ``bound_rhs`` and re-checks the running best step against it, and
    checks that the potential column never increases. A trace without a
    lower bound must hold NaN in every ``bound_rhs`` cell; its bound
    check is then skipped. A NaN cell in the other checked columns
    fails its check. A single-row trace passes trivially.
    """
    cols = read_trace_csv(path)
    m = cols["k"].size
    trace = IterationTrace(cols["gamma"], cols["step_norm"], cols["c_k"])
    delta_re = trace.delta
    failures = {
        "row index": _first_bad(cols["k"] != np.arange(m)),
        "delta recompute": _first_mismatch(delta_re, cols["delta_k"]),
        "residual recompute": _first_mismatch(trace.residual, cols["residual_G"]),
    }

    bound = cols["bound_rhs"]
    if not m or np.isnan(bound[0]):  # no lower bound: every cell must say so
        bound_row = _first_bad(~np.isnan(bound))
        if bound_row is not None:
            failures["per-iteration bound"] = bound_row
    else:
        # row 0 stores gamma_0 - gamma_lb itself, and row k that over k+1
        budget = bound[0] / np.arange(1, m + 1)
        rows = (_first_mismatch(budget, bound), _bound_violation(delta_re, budget))
        failures["per-iteration bound"] = min((r for r in rows if r is not None), default=None)

    g = cols["gamma"]
    slack = 1e-9 + 1e-12 * np.abs(g[:-1])
    gamma_row = _first_bad(~(g[1:] <= g[:-1] + slack))  # a NaN potential is not monotone
    failures["potential monotone"] = None if gamma_row is None else gamma_row + 1
    return VerifyReport(path=str(path), rows=m, failures=failures)
