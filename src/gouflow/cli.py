"""Command-line entry point.

Subcommands:
  run              execute one suite (or all) from a YAML config
  validate-config  parse and validate a config without running anything
  list-presets     print the bundled model presets

``run`` alone writes a run's files into the output directory: one CSV
per suite, ``<suite>_sample.csv/.json`` for a suite that returns a
sample, and ``summary.json``.  It exits 0 only if every executed suite
passed; a failing suite's worst verdict row goes to stderr.  Results
are fully determined by the config and seed; ``--workers`` changes wall
time only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .config import ConfigError, config_hash, load_config
from .levy import ConditionError
from .presets import PRESETS, preset_names
from .stats import RULES
from .suites import run_selected, write_csv

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gouflow",
        description=(
            "Simulation and verification engine for generalized "
            "Ornstein-Uhlenbeck processes: duality, inverse flows, "
            "first-passage identities and stationary laws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one suite or all suites from a config")
    run.add_argument("--config", required=True, help="path to a YAML config file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument(
        "--paths", type=int, default=None, help="override the Monte Carlo path count"
    )
    run.add_argument(
        "--grid-dt",
        type=float,
        default=None,
        help="override the grid lane's step (models with a Gaussian part; the Euler "
        "inverse-flow check keeps its own 4e-3/2e-3/1e-3 grids, pure-jump models ignore it)",
    )
    run.add_argument("--out", default=None, help="override the output directory")
    run.add_argument(
        "--workers", type=int, default=None, help="worker threads (results unchanged)"
    )
    run.add_argument(
        "--suite",
        default=None,
        help="override the suite: duality, inverse-flow, ruin, stationary, "
        "monotonicity or all",
    )

    val = sub.add_parser("validate-config", help="check a config file and exit")
    val.add_argument("--config", required=True, help="path to a YAML config file")

    sub.add_parser("list-presets", help="list bundled model presets")
    return parser


def _overrides(args) -> dict:
    return {
        "seed": args.seed,
        "n_paths": args.paths,
        "grid_dt": args.grid_dt,
        "out_dir": args.out,
        "workers": args.workers,
        "suite": args.suite,
    }


def _load(args, overrides=None):
    """The config at ``args.config``, or None once the reason it cannot be
    read or parsed is on stderr (the caller exits 2)."""
    try:
        return load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    cfg = _load(args, _overrides(args))
    if cfg is None:
        return 2

    out_dir = cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out_dir!r}: {exc}", file=sys.stderr)
        return 2

    try:
        results = run_selected(cfg)
    except ConditionError as exc:
        print(
            "refusing to run: a required hypothesis fails for this model.\n"
            f"  {exc}",
            file=sys.stderr,
        )
        return 3

    summary = {
        "schema_version": 1,
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "suites": {},
        "pass": True,
    }
    for name, res in results.items():
        write_csv(os.path.join(out_dir, f"{name}.csv"), res)
        if res.sample is not None:
            stem = os.path.join(out_dir, f"{name}_sample")
            res.sample.export(f"{stem}.csv", f"{stem}.json")
        summary["suites"][name] = {"pass": res.passed, "metrics": res.metrics}
        summary["pass"] = summary["pass"] and res.passed
        print(f"suite {name}: {'PASS' if res.passed else 'FAIL'}")
        if not res.passed and res.worst is not None:
            w, stat = res.worst, RULES[res.worst["rule"]].statistic
            line = f"{name} FAIL: worst row {w['probe']}: {stat} {w['value']:.3e}, "
            print(f"{line}level {w['level']:g}, margin {w['margin']:.3e}", file=sys.stderr)

    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"summary written to {os.path.join(out_dir, 'summary.json')}")
    return 0 if summary["pass"] else 1


def _cmd_validate(args) -> int:
    cfg = _load(args)
    if cfg is None:
        return 2
    model = cfg.resolved_model()
    print(f"config ok: suite={cfg.suite} seed={cfg.seed} hash={config_hash(cfg)}")
    print(
        f"model: drift={model.drift} gaussian={model.has_gaussian} "
        f"jumps={model.has_jumps} condition_b={model.condition_b}"
    )
    return 0


def _cmd_list_presets() -> int:
    width = max(len(name) for name in PRESETS)
    for name in preset_names():
        preset = PRESETS[name]
        print(f"{name:<{width}}  {preset.description}")
    return 0


_parser = functools.cache(build_parser)  # main's parser, built once per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate-config":
        return _cmd_validate(args)
    return _cmd_list_presets()


if __name__ == "__main__":
    sys.exit(main())
