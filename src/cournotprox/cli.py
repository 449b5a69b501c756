"""Command-line experiment runner.

Flags override values from an optional flat key=value config file (see
README for the grammar); the default output directory comes from the
COURNOTPROX_OUTDIR environment variable, falling back to ./results.
"""

from __future__ import annotations

import argparse
import functools
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
        raise ValueError(f"must be on or off, got {value!r}")
    return value == "on"


# flag dest (also its config-file key) -> ExperimentConfig field, the conversion
# of a flag or file string, the flag's choices and its help; --n N is the
# one-size sweep N
_FLAG_FIELDS = {
    "example": ("example", ExampleFamily, [f.value for f in ExampleFamily], None),
    "n": ("sweep", lambda v: (int(v),), None, "one size: the same as --sweep N"),
    "sweep": ("sweep", _sizes, None, "comma-separated sizes, e.g. 10,50,100"),
    "seed": ("seed", int, None, None),
    "eps": ("eps", float, None, None),
    "step": ("step_policy", StepPolicy, [s.value for s in StepPolicy], None),
    "splitting": ("splitting", Splitting, [s.value for s in Splitting],
                  "what the local model keeps exact (default: exact)"),
    "max_iter": ("max_iter", int, None, None),
    "out": ("out_dir", Path, None, None),
    "x0": ("x0", X0Policy, [x.value for x in X0Policy], None),
    "trace": ("trace", _on_off, ["on", "off"], None),
}


@functools.cache
def build_parser():
    """The CLI's parser, built once per process and shared; parsing leaves no state in it."""
    p = argparse.ArgumentParser(
        prog="cournotprox",
        description="Run seeded market-equilibrium experiments and emit CSV traces.",
    )
    p.add_argument("--config", type=Path, help="flat key=value config file; flags override it")
    p.add_argument("--verify", type=Path, metavar="TRACE_CSV",
                   help="re-check a stored trace instead of running experiments")
    # the strings are converted once, by _merged, whether they come from a flag or the file
    for flag, (_, _, choices, text) in _FLAG_FIELDS.items():
        p.add_argument("--" + flag.replace("_", "-"), dest=flag, choices=choices, help=text)
    return p


def _converted(key, convert, value):
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _by_field(values, where):
    # field -> (key, conversion, string) for the keys set in one place, the flags or the file
    fields = {}
    for key, value in values.items():
        name, convert = _FLAG_FIELDS[key][:2]
        if name in fields:  # only n and sweep share a field
            raise ValueError(f"{where} sets both n and sweep; give one")
        fields[name] = (key, convert, value)
    return fields


def _merged(args):
    """ExperimentConfig from the flags and the config file; unset values keep its defaults."""
    file_values = parse_config_file(args.config) if args.config else {}
    fields = _by_field({k: v for k, v in file_values.items() if k in _FLAG_FIELDS}, args.config)
    given = {f: getattr(args, f) for f in _FLAG_FIELDS if getattr(args, f) is not None}
    fields.update(_by_field(given, "the command line"))  # a flag overrides the file
    settings = {name: _converted(*spec) for name, spec in fields.items()}
    # every other file key is a market key of the example's family: the config refuses
    # any other key by name, before its value is read as a number
    custom = {k: v for k, v in file_values.items() if k not in _FLAG_FIELDS}
    cfg = ExperimentConfig(**settings, custom=custom)
    cfg.custom = {k: _converted(k, float, v) for k, v in custom.items()}
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.verify is not None:  # an unreadable or malformed trace exits 2 below
            report = verify_run(args.verify)
            print(report)
            return 0 if report.passed else 1
        cfg = _merged(args)
        if cfg.sweep is None:
            raise ValueError("set --n or --sweep")
        # market keys come from the file: build one market and its start point up
        # front so that a bad value is rejected like any other bad setting
        if cfg.custom and cfg.sweep:
            initial_point(cfg, generate_instance(cfg, cfg.sweep[0]))
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, KeyError) as exc:  # OSError: an unreadable file or unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = run_experiment(cfg)
    print(f"summary: {cfg.out_dir / 'summary.csv'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
