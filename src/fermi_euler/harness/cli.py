"""Command-line entry point.

    fermi-euler <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Subcommands: hydro-compare, entropy-track, checks, eos-table, euler-run,
micro-run, rate-scan.  The config is a JSON file with ExperimentConfig
fields; all tolerances are overridable under its `tolerances` section.
Without --config, built-in defaults run (useful for `checks`).  A config
without a `table` section sizes its pressure table from its initial cells.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import ExperimentConfig, load_config

_RUNNERS = {
    "hydro-compare": experiments.run_hydro_compare,
    "entropy-track": experiments.run_entropy_track,
    "euler-run": experiments.run_euler,
    "micro-run": experiments.run_micro,
    "eos-table": experiments.run_eos_table,
    "rate-scan": experiments.run_rate_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermi-euler",
        description="Free-fermion hydrodynamics laboratory experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_RUNNERS) + ["checks"]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file", default=None)
        p.add_argument("--out", help="output directory (overrides config)", default=None)
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = {
        "kind": args.command,
        "seed": args.seed,
        "out_dir": args.out,
    }
    if args.config is not None:
        return load_config(args.config, overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    if args.command == "checks":
        from . import checks

        report = checks.run_checks(config, out_dir=args.out)
        n_fail = sum(not r.passed for r in report.results)
        print(f"{len(report.results) - n_fail}/{len(report.results)} checks passed")
        return 0 if report.all_passed else 1
    runner = _RUNNERS[args.command]
    runner(config, out_dir=args.out)
    print(f"{args.command}: outputs in {args.out or config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
