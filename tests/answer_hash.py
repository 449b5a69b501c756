"""Print a fingerprint of the solver's answers over a fixed grid of solves.

    PYTHONPATH=src python tests/answer_hash.py

Grid: the log, exp and affine families at n = 100, 1000 and 10000, seeds
0 and 7, both splittings and both step policies, one default-settings
solve of ``affine_market(n)`` (every parameter a scalar) per size, plus
the log n = 100000 line search and the exp n = 100000 fixed-step solve,
whose first step starts the aggregate root far from its root (77 solves,
default settings otherwise).
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

The last four lines are SHA-256 totals: one over the whole lines, one
over the lines with the trial count left out, which stays put when only
the number of line-search trials changes, and ``total-exact`` and
``total-paper`` over the whole lines of one splitting each, so a change
that moves only the paper splitting's bits can show the exact-coupling
lines unchanged. Run it at two commits and compare the output to show
that a change keeps the answers.

    PYTHONPATH=src python tests/answer_hash.py --against before.txt

compares with a saved output instead: it prints only the lines that
differ from ``before.txt``, each after its saved line, matched by the
fields that name the solve or sweep (the first five; one for a total).
A line whose iterations or trials changed is marked ``!``, and the run
then exits with status 1. The last line gives the largest relative change
of a certificate over the solves found in both outputs, and names that
solve, so "moved in the last bits only" reads off one number.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
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
    yield "exp", 100_000, 0, Splitting.EXACT_COUPLING, StepPolicy.FIXED


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


def lines():
    """Every output line, the solves' and sweeps' first, then the four totals."""
    whole, no_trials = hashlib.sha256(), hashlib.sha256()
    per_splitting = {s.value: hashlib.sha256() for s in Splitting}
    cases = [(answer_line, case) for case in grid()]
    cases += [(sweep_line, (family, s)) for family in ("log", "exp", "affine") for s in Splitting]
    for line_of, case in cases:
        fields = line_of(*case)
        line = " ".join(fields)
        yield line
        whole.update(line.encode() + b"\n")
        per_splitting[fields[3]].update(line.encode() + b"\n")
        no_trials.update(" ".join(fields[:6] + fields[7:]).encode() + b"\n")
    yield f"total {whole.hexdigest()}"
    yield f"total-without-trials {no_trials.hexdigest()}"
    for splitting, total in per_splitting.items():
        yield f"total-{splitting} {total.hexdigest()}"


def key(fields):
    # what a line is about: the solve or sweep it names, or the total
    return tuple(fields[:1] if fields[0].startswith("total") else fields[:5])


def certificate_change(old, new):
    """Relative change of the certificate (field 7) between two lines of one solve."""
    a, b = (float.fromhex(line.split()[7]) for line in (old, new))
    return 0.0 if a == b else abs(b - a) / abs(a)


def against(path, new_lines):
    """Print each line that differs from the saved output at ``path`` after its saved
    line, marked ``!`` where the iterations or trials (fields 5 and 6) changed, then
    the largest relative certificate change over the solves in both; return how many
    lines were marked."""
    saved = {key(line.split()): line for line in Path(path).read_text().splitlines() if line}
    pairs = [(saved.pop(key(line.split()), "(none)"), line) for line in new_lines]
    pairs += [(old, "(none)") for old in saved.values()]
    differ = moved = 0
    changes = []
    for old, line in pairs:
        fields = line.split()
        if "(none)" not in (old, line) and not fields[0].startswith(("sweep-", "total")):
            changes.append((certificate_change(old, line), " ".join(fields[:5])))
        if old == line:
            continue
        mark = "!" if old.split()[5:7] != fields[5:7] else " "
        differ, moved = differ + 1, moved + (mark == "!")
        print(f"{mark} - {old}\n{mark} + {line}", flush=True)
    worst, where = max(changes, default=(0.0, "no solve in both"))
    print(f"{differ} lines differ; {moved} changed iterations or trials")
    print(f"largest relative certificate change: {worst:.2g} ({where})")
    return moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE", help="a saved output to compare with")
    args = parser.parse_args(argv)
    if args.against is not None:
        return 1 if against(args.against, lines()) else 0
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
