"""Command line surface: run, sweep, account.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import config as config_mod
from . import experiment
from .errors import ConfigurationError


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than an account query."""
    parser = argparse.ArgumentParser(
        prog="dpsgd",
        description="Differentially private SGD training and batch-size study harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train once per the config file")
    run_p.add_argument("config", help="path to a key = value config file")

    sweep_p = sub.add_parser("sweep", help="run the configured sweep grid")
    sweep_p.add_argument("config", help="path to a key = value config file")

    acc_p = sub.add_parser("account", help="print q,T,epsilon,best_order for one setting")
    acc_p.add_argument("--n", type=int, required=True, help="dataset size")
    acc_p.add_argument("--batch", type=int, required=True, help="effective batch size")
    acc_p.add_argument("--sigma", type=float, required=True, help="noise multiplier")
    acc_p.add_argument("--epochs", type=int, required=True)
    acc_p.add_argument("--delta", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = config_mod.parse_config(args.config)
            result = experiment.run_experiment(cfg)
            print(experiment.summary_line(result))
        elif args.command == "sweep":
            cfg = config_mod.parse_config(args.config)
            frontier_path, results = experiment.run_sweep(cfg)
            for result in results:
                print(experiment.summary_line(result))
            print(f"frontier={frontier_path}")
        else:
            print(experiment.account_row(args.n, args.batch, args.sigma, args.epochs, args.delta))
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
