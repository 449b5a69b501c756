#!/usr/bin/env python3
"""cournotprox benchmark runner.

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root. One process, one BLAS/OpenMP thread. The
runner builds the workload from ``--seed``, repeats its unit of work for
``--seconds`` seconds (at least ``MIN_UNITS`` times) and checks every
solve. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates plain and traced units and reports the
per-layer metrics from the traced ones. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep-cold", "multistart-exp1e3", "linesearch-log1e5")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_UNITS = 3  # plain units per run; traced runs need 2 of each kind
SETUP_PROBES = 9  # fresh processes timed from spawn to the end of set-up

# Host calibration. The shared host runs the same code up to ~1.7x slower in
# phases that change within seconds. While the plain units run, a timer
# interrupts the runner every TICK_S seconds and times a small fixed
# calibration sample; its time over its nominal time is the host slowness at
# that moment (1.0 on the reference host, a 2-vCPU Xeon VM in its fast
# phase). A unit's time, less the ticks inside it, divided by the mean
# slowness of those ticks, is the time the unit would take on the reference
# host. The sample is made of parts whose slowdown tracks the workload's:
#   loop        a pure-Python integer loop
#   walk        a pure-Python sum over floats scattered in memory
#   scalar_min  scipy's bounded scalar minimizer on a fixed 1-D function
# None of them calls the library, so a change to it cannot move the scale.
TICK_S = 0.1
PROBE_TICK_S = 0.02  # while set-up probes run, the runner itself is idle
CAL_LOOP = 10_000
CAL_WALK_POOL = 200_000
CAL_WALK = 8_000
CAL_NOMINAL_S = {"loop": 0.0006, "walk": 0.0005, "scalar_min": 0.00025}
CAL_PARTS = {
    "sweep-cold": ("walk", "scalar_min"),
    "multistart-exp1e3": ("loop", "walk", "scalar_min"),
    "linesearch-log1e5": ("loop", "scalar_min"),
}
PROBE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 600

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "certificate_max": "1",
    "peak_rss_mb": "MB",
}

_CALLS = ("diagnostics.gamma_lower_bound", "solver.solve", "solver.prox_model_value",
          "model.potential_gamma", "subqp.prox_step", "costs.value", "costs.gradient",
          "costs.value_and_gradient")
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"{name}.self_s": "s" for name in _CALLS},
    "solver.iter_us": "us",
    "solver.iterations": "count",
    "solver.ls_trials": "count",
    "solver.ls_accept_ratio": "ratio",
    "costs.self_s": "s",
    "costs.elems": "count",
    "costs.bytes_computed": "B",
    "experiments.write_trace_csv.self_s": "s",
    "experiments.write_trace_csv.rows": "count",
    "experiments.trace_bytes": "B",
    "experiments.run_experiment.self_s": "s",
    "experiments.generate_instance.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.counts_match": "bool",
}
# Layer metrics that are counts: they must repeat exactly across traced units.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "B"))


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one cournotprox benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"threads={os.environ['OMP_NUM_THREADS']}")


class HostClock:
    """Samples the host's slowness on a wall-clock timer while entered."""

    def __init__(self, parts=("loop", "walk", "scalar_min")):
        from scipy.optimize import minimize_scalar

        self._minimize_scalar = minimize_scalar
        self._parts = [getattr(self, f"_{part}") for part in parts]
        self._nominal_s = sum(CAL_NOMINAL_S[part] for part in parts)
        rng = random.Random(0)
        self._pool = [rng.random() for _ in range(CAL_WALK_POOL)]
        rng.shuffle(self._pool)
        self._next = 0
        self.ticks = []  # (start, seconds spent, slowness)

    def _loop(self):
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i

    def _walk(self):
        acc = 0.0
        for x in self._pool[self._next:self._next + CAL_WALK]:
            acc += x
        self._next = (self._next + CAL_WALK) % (CAL_WALK_POOL - CAL_WALK)

    def _scalar_min(self):
        self._minimize_scalar(lambda t: math.log1p(t) - 0.3 * t, bounds=(0.0, 5.0), method="bounded")

    def _tick(self, signum, frame):
        t0 = perf_counter()
        for part in self._parts:
            part()
        spent = perf_counter() - t0
        self.ticks.append((t0, spent, spent / self._nominal_s))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.every(TICK_S)
        return self

    def every(self, seconds):
        """Tick every ``seconds`` from now on."""
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start, seconds):
        """Time spent in ticks and mean slowness over [start, start + seconds].

        A window that holds no tick takes the slowness of the nearest one.
        """
        inside = [t for t in self.ticks if start <= t[0] < start + seconds]
        if not inside:
            nearest = min(self.ticks, key=lambda t: abs(t[0] - start))
            return 0.0, nearest[2]
        return sum(t[1] for t in inside), statistics.fmean(t[2] for t in inside)


def run_units(unit, seconds, traced_unit=None):
    """Repeat ``unit`` (alternating with ``traced_unit`` when given) for ``seconds``.

    One warm-up unit comes first; it is checked but not timed. Returns the
    warm-up outcome and the plain and traced outcomes.
    """
    deadline = perf_counter() + seconds
    warm = unit()
    plain, traced = [], []
    while len(plain) < (2 if traced_unit else MIN_UNITS) or perf_counter() < deadline:
        plain.append(unit())
        if traced_unit:
            traced.append(traced_unit())
    return warm, plain, traced


def setup_seconds(args, clock):
    """Median time from spawning a fresh runner process to the end of its set-up.

    Each probe is divided by the host slowness ``clock`` sampled while it
    ran, ticking faster meanwhile. Returns the median and the raw and
    scaled times.
    """
    raw, scaled = [], []
    clock.every(PROBE_TICK_S)
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        spawned = time.time()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        raw.append(float(done.stdout.split()[-1]) - spawned)
        _, slow = clock.window(started, perf_counter() - started)
        scaled.append(raw[-1] / slow)
    clock.every(TICK_S)
    return statistics.median(scaled), raw, scaled


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(spans, tracer):
    """Per-layer metrics of one traced unit."""
    table = tracer.summarize(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    out = {}
    for name in _CALLS:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    iterations = get("solver.solve", "iterations")
    trials = sum(1 for i, s in enumerate(spans)
                 if s[0] == "subqp.prox_step" and tracer.has_ancestor(spans, i, "solver.solve"))
    bound_in_solve = sum(s[2] - s[1] for i, s in enumerate(spans)
                         if s[0] == "diagnostics.gamma_lower_bound"
                         and tracer.has_ancestor(spans, i, "solver.solve"))
    loop_s = get("solver.solve", "total_s") - bound_in_solve
    elems = sum(row.get("elems", 0) for name, row in table.items() if name.startswith("costs."))
    out.update({
        "solver.iter_us": 1e6 * loop_s / iterations if iterations else 0.0,
        "solver.iterations": iterations,
        "solver.ls_trials": trials,
        "solver.ls_accept_ratio": iterations / trials if trials else 0.0,
        "costs.self_s": sum(row["self_s"] for name, row in table.items() if name.startswith("costs.")),
        "costs.elems": elems,
        # computed, not measured: 8 bytes per element for the input and for the output array
        "costs.bytes_computed": 16 * elems,
        "experiments.write_trace_csv.self_s": get("experiments.write_trace_csv", "self_s"),
        "experiments.write_trace_csv.rows": get("experiments.write_trace_csv", "rows"),
        "experiments.trace_bytes": get("experiments.write_trace_csv", "bytes"),
        "experiments.run_experiment.self_s": get("experiments.run_experiment", "self_s"),
        "experiments.generate_instance.self_s": get("experiments.generate_instance", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
    })
    return out


def write_spans(path, spans):
    with open(path, "w") as fh:
        for name, start, end, parent, counters in spans:
            fh.write(json.dumps({"run": 0, "name": name, "start": start, "end": end,
                                 "parent": parent, "counters": counters}) + "\n")


def report(lines, metrics, units, attempted, failed, correct):
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def totals(outcomes):
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = sorted({p for o in outcomes for p in o.problems})
    return attempted, failed, [f"# check failed: {p}" for p in problems]


def plain_run(args, unit):
    with HostClock(CAL_PARTS[args.workload]) as clock:
        warm, outcomes, _ = run_units(unit, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s, setup_raw, setup_scaled = setup_seconds(args, clock)
    raw = [o.wall_s for o in outcomes]
    walls, slows = [], []
    for o in outcomes:
        spent, slow = clock.window(o.start, o.wall_s)
        walls.append((o.wall_s - spent) / slow)
        slows.append(slow)
    q1, q3 = quartiles(walls)
    outcomes.append(warm)
    attempted, failed, problems = totals(outcomes)
    lines = problems + [
        f"# wall_s: median of {len(walls)} units scaled to the reference host, "
        f"quartiles {q1:.4f} .. {q3:.4f} s; unscaled median {statistics.median(raw):.4f} s",
        "# unit walls: " + " ".join(f"{w:.4f}" for w in raw),
        f"# host slowness ({len(clock.ticks)} ticks): " + " ".join(f"{s:.3f}" for s in slows),
        f"# setup_s: median of {len(setup_scaled)} fresh processes, scaled: "
        + " ".join(f"{s:.3f}" for s in setup_scaled)
        + "; unscaled: " + " ".join(f"{s:.3f}" for s in setup_raw),
        f"# failed_frac {failed / attempted:.6g} ({failed}/{attempted} solves)",
    ]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "certificate_max": max(c for o in outcomes for c in o.certificates),
        "peak_rss_mb": peak_rss_mb,
    }
    report(lines, metrics, END_TO_END, attempted, failed, failed == 0)


def traced_run(args, unit, tracer):
    recorders = []

    def traced_unit():
        recorder = tracer.Recorder()
        with tracer.traced(recorder) as skipped:
            outcome = unit()
        recorders.append((recorder, skipped))
        return outcome

    warm, plain, traced = run_units(unit, args.seconds, traced_unit)
    tables = [layer_metrics(rec.spans, tracer) for rec, _ in recorders]
    skipped = recorders[0][1]
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    write_spans(spans_path, recorders[0][0].spans)
    del recorders

    same_iterations = all(o.iterations == warm.iterations for o in plain + traced)
    same_counts = all(t[name] == tables[0][name] for t in tables for name in COUNTS)
    plain_wall = statistics.median(o.wall_s for o in plain)
    traced_wall = statistics.median(o.wall_s for o in traced)
    metrics = {name: statistics.median(t[name] for t in tables) for name in tables[0]}
    metrics.update({name: tables[0][name] for name in COUNTS})
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.counts_match": int(same_iterations and same_counts),
    })
    attempted, failed, problems = totals([warm] + plain + traced)
    lines = problems + [
        f"# {len(traced)} traced and {len(plain)} plain units; spans of the first traced unit "
        f"in {spans_path.relative_to(ROOT)}",
        f"# skipped (not in this library version): {', '.join(skipped) or 'none'}",
        "# traced iteration and call counts "
        + ("repeat the plain run's exactly" if same_iterations and same_counts
           else "DIFFER from the plain run's"),
        f"# failed_frac {failed / attempted:.6g} ({failed}/{attempted} solves)",
    ]
    report(lines, metrics, PER_LAYER, attempted, failed,
           failed == 0 and same_iterations and same_counts)


def run_all(args):
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"## {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cournotprox" / "__init__.py").is_file():
        print(f"error: no cournotprox sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    OUT.mkdir(exist_ok=True)
    unit = workloads.setup(args.workload, args.seed, OUT)
    if args.setup_probe:
        print(repr(time.time()))
        return 0
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {environment()}")
    if args.trace:
        traced_run(args, unit, tracer)
    else:
        plain_run(args, unit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
