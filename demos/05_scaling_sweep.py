#!/usr/bin/env python3
"""Batch sweeps over the problem size, with CSV traces and offline checks.

Runs both nonconvex families for sizes 10..1000 at the reference
tolerance 1e-3, prints the summary table, and re-verifies one stored
trace from its CSV alone. Exits 1 when a sweep's exit status is not 0
or the re-verified trace fails a check. The same sweep is available from
the shell:

    cournotprox --example log --sweep 10,50,100,500,1000 --out results/
    cournotprox --verify results/trace_log_n100_seed0.csv
"""

import csv
import sys
import tempfile
from pathlib import Path

from cournotprox.experiments import (
    ExampleFamily,
    ExperimentConfig,
    run_experiment,
    verify_run,
)

out_root = Path(tempfile.mkdtemp(prefix="cournotprox_demo_"))
sizes = (10, 50, 100, 500, 1000)
codes = []

for family in (ExampleFamily.LOG, ExampleFamily.EXP):
    out = out_root / family.value
    cfg = ExperimentConfig(example=family, sweep=sizes, eps=1e-3, seed=0, out_dir=out)
    code = run_experiment(cfg)
    codes.append(code)
    print(f"\n{family.value} family sweep (exit status {code}), summary at {out / 'summary.csv'}")
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    print(f"{'n':>6} {'status':>10} {'iters':>7} {'time_ms':>9} {'final ||G||':>12} {'bound':>6}")
    for r in rows:
        print(
            f"{r['n']:>6} {r['status']:>10} {r['iterations']:>7} {r['time_ms']:>9} "
            f"{float(r['final_residual']):12.3e} {'ok' if r['bound_ok'] == '1' else 'FAIL':>6}"
        )

print("\niteration counts grow with n; regenerate growth plots from the CSVs with any tool")

trace_path = out_root / "log" / "trace_log_n100_seed0.csv"
print(f"\noffline re-check of {trace_path.name}:")
report = verify_run(trace_path)
print(report)
if any(codes) or not report.passed:
    sys.exit(1)
