"""Command-line experiment runner.

Flags override values from an optional flat key=value config file (see
README for the grammar); the default output directory comes from the
COURNOTPROX_OUTDIR environment variable, falling back to ./results.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (
    OUT_DIR_ENV,
    ExampleFamily,
    ExperimentConfig,
    X0Policy,
    generate_instance,
    initial_point,
    run_experiment,
    verify_run,
)
from .solver import StepPolicy

_FLAG_KEYS = ("example", "n", "sweep", "seed", "eps", "step", "max_iter", "out", "x0", "trace")
_CUSTOM_KEYS = ("beta", "alpha0", "mu", "lower", "upper", "cost", "c0", "c", "r", "mu_h", "xi")


def build_parser():
    p = argparse.ArgumentParser(
        prog="cournotprox",
        description="Run seeded market-equilibrium experiments and emit CSV traces.",
    )
    p.add_argument("--config", type=Path, help="flat key=value config file; flags override it")
    p.add_argument("--verify", type=Path, metavar="TRACE_CSV",
                   help="re-check a stored trace instead of running experiments")
    p.add_argument("--example", choices=[f.value for f in ExampleFamily])
    p.add_argument("--n", type=int)
    p.add_argument("--sweep", help="comma-separated sizes, e.g. 10,50,100")
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--step", choices=[s.value for s in StepPolicy])
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--out", type=Path)
    p.add_argument("--x0", choices=[x.value for x in X0Policy])
    p.add_argument("--trace", choices=["on", "off"])
    return p


def parse_config_file(path):
    """Flat ``key = value`` lines; blank lines and # comments ignored."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _merged(args):
    file_values = parse_config_file(args.config) if args.config else {}
    unknown = [k for k in file_values if k not in _FLAG_KEYS and k not in _CUSTOM_KEYS]
    if unknown:
        raise ValueError(f"{args.config}: unknown key {unknown[0]!r}")

    def pick(flag, default, key=None):
        v = getattr(args, flag)
        if v is None:
            v = file_values.get(key or flag)
        return default if v is None else v

    sweep = pick("sweep", None)
    if isinstance(sweep, str):
        sweep = tuple(int(s) for s in sweep.split(",") if s.strip()) if sweep.strip() else ()
    n = pick("n", None)
    out = pick("out", os.environ.get(OUT_DIR_ENV, "results"))
    custom = {k: file_values[k] for k in _CUSTOM_KEYS if k in file_values}
    for k in ("beta", "alpha0", "mu", "lower", "upper", "c0", "c", "mu_h", "xi"):
        if k in custom:
            custom[k] = float(custom[k])
    if "r" in custom and custom["r"] != "random":
        custom["r"] = float(custom["r"])
    trace = pick("trace", "on")
    if trace not in ("on", "off"):
        raise ValueError(f"trace must be on or off, got {trace!r}")
    return ExperimentConfig(
        example=ExampleFamily(pick("example", "log")),
        n=int(n) if n is not None else None,
        sweep=sweep,
        seed=int(pick("seed", 0)),
        eps=float(pick("eps", 1e-3)),
        step_policy=StepPolicy(pick("step", "fixed")),
        max_iter=int(pick("max_iter", 100_000)),
        out_dir=Path(out),
        x0=X0Policy(pick("x0", "center")),
        trace=trace == "on",
        custom=custom,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.verify is not None:
        report = verify_run(args.verify)
        print(report)
        return 0 if report.passed else 1
    try:
        cfg = _merged(args)
        if cfg.sweep is None and cfg.n is None:
            raise ValueError("set --n or --sweep")
        # a custom market comes from file values: build one and its start point
        # up front so that a bad parameter is rejected like any other bad setting
        if cfg.example is ExampleFamily.CUSTOM and cfg.sizes:
            initial_point(cfg, generate_instance(cfg, cfg.sizes[0]))
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = run_experiment(cfg)
    print(f"summary: {cfg.out_dir / 'summary.csv'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
