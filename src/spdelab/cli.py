"""Command-line entry point: run and validate experiment configs.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
failure (diagnostics on standard error).
"""

from __future__ import annotations

import argparse
import sys
from importlib.metadata import PackageNotFoundError, version as pkg_version

from .experiments import EXPERIMENT_KINDS, ConfigError, parse_config, run_experiment
from .potentials import ProxDidNotConverge


def _version() -> str:
    try:
        return pkg_version("spdelab")
    except PackageNotFoundError:
        return "0.1.0"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spdelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to the INI config file")
    val_p = sub.add_parser("validate", help="validate a config without running")
    val_p.add_argument("config", help="path to the INI config file")
    sub.add_parser("list-experiments", help="list available experiment kinds")
    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "version":
        print(_version())
        return 0
    if args.command == "list-experiments":
        for kind in EXPERIMENT_KINDS:
            print(kind)
        return 0
    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print(f"ok: {cfg.kind} (hash {cfg.config_hash})")
        return 0
    try:
        outdir = run_experiment(cfg)
    except (ProxDidNotConverge, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {outdir}/table.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
