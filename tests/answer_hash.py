"""Print a fingerprint of the solver's answers over a fixed grid of solves.

    PYTHONPATH=src python tests/answer_hash.py

Grid: the log, exp and affine families at n = 100, 1000 and 10000, seeds
0 and 7, both splittings and both step policies, one default-settings
solve of ``affine_market(n)`` (every parameter a scalar) per size, plus
the log n = 100000 line search (76 solves, default settings otherwise).
Each solve prints one line: family, n, seed, splitting, policy,
iterations, trials, the certificate in ``float.hex``, the SHA-256 of
``x`` and of the trace columns (potential, step norm, damping and the
lower bound), the instance's ``gamma_lower_bound`` in ``float.hex``, and
for n <= 1000 the ``nash_gap`` bracket at the final ``x`` (``-`` above
that size).

Then one ``run_experiment`` sweep per family (log, exp, affine) over the
same sizes, seed 0, under each splitting, into a temporary directory,
prints a line of the same layout: ``sweep-<family>``, the sizes, the
seed, splitting, policy, the iterations and trials columns, the SHA-256
of ``summary.csv`` without its ``time_ms`` and ``trials`` columns (so
the ``L_gamma`` and ``L`` columns are in it) and the SHA-256 of the
trace CSV bytes in sweep order.

The last two lines are SHA-256 totals: one over the whole lines, and one
over the lines with the trial count left out, which stays put when only
the number of line-search trials changes. Run it at two commits and
compare the output to show that a change keeps the answers.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import csv
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from cournotprox import (
    ExampleFamily, ExperimentConfig, SolverConfig, Splitting, StepPolicy, affine_market,
    exp_cost_market, gamma_lower_bound, log_cost_market, nash_gap, run_experiment, solve,
)

FAMILIES = {
    "log": log_cost_market,
    "exp": exp_cost_market,
    "affine": lambda n, seed: affine_market(n, mu=np.random.default_rng(seed).uniform(0.0, 5.0, n)),
    "affine-scalar": lambda n, seed: affine_market(n),
}
SIZES = (100, 1000, 10_000)
SEEDS = (0, 7)


def grid():
    for family in ("log", "exp", "affine"):
        for n in SIZES:
            for seed in SEEDS:
                for splitting in Splitting:
                    for policy in StepPolicy:
                        yield family, n, seed, splitting, policy
    for n in SIZES:
        yield "affine-scalar", n, 0, Splitting.EXACT_COUPLING, StepPolicy.FIXED
    yield "log", 100_000, 0, Splitting.EXACT_COUPLING, StepPolicy.LINE_SEARCH


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def answer_line(family, n, seed, splitting, policy):
    """The fields of one solve's line; the trial count is field 6."""
    inst = FAMILIES[family](n, seed)
    res, trace = solve(inst, SolverConfig(step_policy=policy, splitting=splitting))
    lb = np.nan if trace.gamma_lb is None else trace.gamma_lb
    gap = ",".join(v.hex() for v in nash_gap(inst, res.x)) if n <= 1000 else "-"
    return [
        family, str(n), str(seed), splitting.value, policy.value,
        str(res.iterations), str(res.trials), float(res.certificate).hex(),
        sha(res.x), sha(trace.gamma, trace.step_norm, trace.c, [lb]),
        gamma_lower_bound(inst).hex(), gap,
    ]


def sweep_line(family, splitting):
    """The fields of one ``run_experiment`` sweep's line; the trials column is field 6."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig(
            example=ExampleFamily(family), sweep=SIZES, splitting=splitting, out_dir=tmp
        )
        run_experiment(cfg)
        with open(Path(tmp) / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        kept = [[v for k, v in row.items() if k not in ("time_ms", "trials")] for row in rows]
        traces = hashlib.sha256()
        for n in SIZES:
            traces.update((Path(tmp) / f"trace_{family}_n{n}_seed{cfg.seed}.csv").read_bytes())
    return [
        f"sweep-{family}", ",".join(map(str, SIZES)), str(cfg.seed), splitting.value,
        cfg.step_policy.value, ",".join(row["iterations"] for row in rows),
        ",".join(row["trials"] for row in rows),
        hashlib.sha256(repr(kept).encode()).hexdigest(), traces.hexdigest(),
    ]


def main():
    whole, no_trials = hashlib.sha256(), hashlib.sha256()
    cases = [(answer_line, case) for case in grid()]
    cases += [(sweep_line, (family, s)) for family in ("log", "exp", "affine") for s in Splitting]
    for line_of, case in cases:
        fields = line_of(*case)
        line = " ".join(fields)
        print(line, flush=True)
        whole.update(line.encode() + b"\n")
        no_trials.update(" ".join(fields[:6] + fields[7:]).encode() + b"\n")
    print("total", whole.hexdigest())
    print("total-without-trials", no_trials.hexdigest())


if __name__ == "__main__":
    main()
