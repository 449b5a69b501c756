"""Command-line experiment runner.

Flags override values from an optional flat key=value config file (see
README for the grammar); the default output directory comes from the
COURNOTPROX_OUTDIR environment variable, falling back to ./results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    ExampleFamily,
    ExperimentConfig,
    X0Policy,
    generate_instance,
    initial_point,
    run_experiment,
    verify_run,
)
from .solver import Splitting, StepPolicy

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
    p.add_argument("--splitting", choices=[s.value for s in Splitting],
                   help="what the local model keeps exact (default: exact)")
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


def _sizes(value):
    return tuple(int(s) for s in value.split(",") if s.strip())


def _on_off(value):
    if value not in ("on", "off"):
        raise ValueError(f"trace must be on or off, got {value!r}")
    return value == "on"


# flag dest (also its config-file key) -> ExperimentConfig field and the
# conversion of a flag or file string
_FLAG_FIELDS = {
    "example": ("example", ExampleFamily),
    "n": ("n", int),
    "sweep": ("sweep", _sizes),
    "seed": ("seed", int),
    "eps": ("eps", float),
    "step": ("step_policy", StepPolicy),
    "splitting": ("splitting", Splitting),
    "max_iter": ("max_iter", int),
    "out": ("out_dir", Path),
    "x0": ("x0", X0Policy),
    "trace": ("trace", _on_off),
}


def _merged(args):
    """ExperimentConfig from the flags and the config file; unset values keep its defaults."""
    file_values = parse_config_file(args.config) if args.config else {}
    unknown = [k for k in file_values if k not in _FLAG_FIELDS and k not in _CUSTOM_KEYS]
    if unknown:
        raise ValueError(f"{args.config}: unknown key {unknown[0]!r}")
    settings = {}
    for flag, (name, convert) in _FLAG_FIELDS.items():
        v = getattr(args, flag)
        if v is None:
            v = file_values.get(flag)
        if v is not None:
            settings[name] = convert(v)
    custom = {k: file_values[k] for k in _CUSTOM_KEYS if k in file_values}
    for k in ("beta", "alpha0", "mu", "lower", "upper", "c0", "c", "mu_h", "xi"):
        if k in custom:
            custom[k] = float(custom[k])
    if "r" in custom and custom["r"] != "random":
        custom["r"] = float(custom["r"])
    return ExperimentConfig(**settings, custom=custom)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.verify is not None:
        try:
            report = verify_run(args.verify)
        except (OSError, ValueError) as exc:  # an unreadable or malformed trace file
            print(f"error: {exc}", file=sys.stderr)
            return 2
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
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, KeyError) as exc:  # OSError: an unreadable file or unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = run_experiment(cfg)
    print(f"summary: {cfg.out_dir / 'summary.csv'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
