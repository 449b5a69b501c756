"""The benchmark's workloads and the checks on every solve they make.

Each workload is built once per process by ``setup`` from the seed
alone; the library sees only the generated instances and starting
points. ``setup`` returns a callable that performs one unit of work
(identical on every call), times it, checks every solve it made and
returns an ``Outcome``. Checks run after the timer stops.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import cournotprox as cp
from cournotprox import cli, experiments

import tracer

SWEEP_FAMILIES = ("log", "exp")
SWEEP_SIZES = (100, 1000, 10000)
MULTISTART_N = 1000
MULTISTART_STARTS = 8
LINESEARCH_N = 100_000

# verify_run's slack for a potential that must not increase
GAMMA_ABS_SLACK = 1e-9
GAMMA_REL_SLACK = 1e-12


@dataclass
class Outcome:
    """One unit of work: its wall time and what the checks found."""

    wall_s: float
    start: float = 0.0  # perf_counter() when the unit's timer started
    attempted: int = 0
    failed: int = 0
    iterations: list = field(default_factory=list)  # per returned solve, in call order
    certificates: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def check_solve(result, trace):
    """Problems with one solve's output; an empty list means it passed."""
    problems = []
    status = getattr(result.status, "value", result.status)
    if status != "Converged":
        problems.append(f"status {status}")
    if not np.all(np.isfinite(result.x)):
        problems.append("x not finite")
    if not np.isfinite(result.certificate):
        problems.append("certificate not finite")
    g = np.asarray(trace.gamma, dtype=float)
    rises = np.nonzero(g[1:] > g[:-1] + GAMMA_ABS_SLACK + GAMMA_REL_SLACK * np.abs(g[:-1]))[0]
    if rises.size:
        problems.append(f"gamma increases at row {rises[0] + 1}")
    rhs = getattr(trace, "bound_rhs", None)
    if rhs is not None:
        rhs = np.asarray(rhs, dtype=float)
        delta = np.asarray(trace.delta, dtype=float)
        seen = np.isfinite(rhs)
        over = np.nonzero(seen & (delta > rhs + 1e-12 * np.maximum(1.0, np.abs(rhs))))[0]
        if over.size:
            problems.append(f"delta exceeds bound_rhs at row {over[0]}")
    return problems


def _fold(outcome, result, problems):
    outcome.attempted += 1
    outcome.iterations.append(int(result.iterations))
    outcome.certificates.append(float(result.certificate))
    if problems:
        outcome.failed += 1
        outcome.problems.extend(problems)


def _record(outcome, solves):
    for result, trace in solves:
        _fold(outcome, result, check_solve(result, trace))


def _read_summary(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep_dir(out, seed, solves, code):
    """Problems per solve of one ``cli.main`` sweep, from its output directory.

    ``solves`` are the captured (result, trace) pairs in sweep order. The
    exit code must be 0, every trace CSV must pass ``verify_run`` and have
    one row per iteration, and the summary's iteration column must match
    the iteration counts of the traces.
    """
    per_solve = [check_solve(result, trace) for result, trace in solves]
    if not (out / "summary.csv").is_file():
        return [p + ["no summary.csv written"] for p in per_solve]
    rows = _read_summary(out / "summary.csv")
    if len(rows) != len(solves):
        return [p + [f"summary has {len(rows)} rows for {len(solves)} solves"] for p in per_solve]
    for problems, row, (result, trace) in zip(per_solve, rows, solves):
        if int(row["iterations"]) != len(trace):
            problems.append(f"summary iterations {row['iterations']} != traced {len(trace)}")
        paths = sorted(out.glob(f"trace_*_n{row['n']}_seed{seed}.csv"))
        if len(paths) != 1:
            problems.append(f"expected one trace file for n={row['n']}, found {len(paths)}")
            continue
        report = experiments.verify_run(paths[0])
        if not report.passed:
            problems.append(f"verify_run failed:\n{report}")
        if report.rows != len(trace):
            problems.append(f"{paths[0].name} has {report.rows} rows for {len(trace)} iterations")
    if code != 0:
        for problems in per_solve:
            problems.append(f"cli.main returned {code}")
    return per_solve


def _sweep_cold(seed, scratch):
    sizes = ",".join(map(str, SWEEP_SIZES))

    def unit():
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
        captured, ends, codes = [], [], []
        try:
            with tracer.captured("cournotprox.experiments", "solve", captured):
                t0 = perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    for family in SWEEP_FAMILIES:
                        codes.append(cli.main([
                            "--example", family, "--sweep", sizes, "--seed", str(seed),
                            "--step", "fixed", "--trace", "on", "--out", str(out / family),
                        ]))
                        ends.append(len(captured))
                wall = perf_counter() - t0
            outcome = Outcome(wall, t0)
            for family, code, start, end in zip(SWEEP_FAMILIES, codes, [0] + ends, ends):
                solves = captured[start:end]
                missing = len(SWEEP_SIZES) - len(solves)
                if missing > 0:
                    outcome.attempted += missing
                    outcome.failed += missing
                    outcome.problems.append(f"{family}: {missing} sweep sizes were never solved")
                for problems, (result, _) in zip(check_sweep_dir(out / family, seed, solves, code), solves):
                    _fold(outcome, result, problems)
            return outcome
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return unit


def _multistart_exp1e3(seed, scratch):
    inst = cp.exp_cost_market(MULTISTART_N, seed)
    config = cp.SolverConfig(step_policy=cp.StepPolicy.FIXED, gamma_lb=cp.gamma_lower_bound(inst))
    starts = [
        np.random.default_rng([seed, k]).uniform(inst.lower, inst.upper)
        for k in range(1, MULTISTART_STARTS + 1)
    ]

    def unit():
        t0 = perf_counter()
        solves = [cp.solve(inst, config, x0) for x0 in starts]
        outcome = Outcome(perf_counter() - t0, t0)
        _record(outcome, solves)
        return outcome

    return unit


def _linesearch_log1e5(seed, scratch):
    inst = cp.log_cost_market(LINESEARCH_N, seed)
    config = cp.SolverConfig(step_policy=cp.StepPolicy.LINE_SEARCH, record_bound=False)

    def unit():
        t0 = perf_counter()
        solves = [cp.solve(inst, config)]
        outcome = Outcome(perf_counter() - t0, t0)
        _record(outcome, solves)
        return outcome

    return unit


_SETUP = {
    "sweep-cold": _sweep_cold,
    "multistart-exp1e3": _multistart_exp1e3,
    "linesearch-log1e5": _linesearch_log1e5,
}


def setup(name, seed, scratch):
    """Build workload ``name`` for ``seed``; returns its unit-of-work callable."""
    return _SETUP[name](seed, scratch)
