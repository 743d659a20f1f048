"""Command-line entry point.

Usage:
    mtlab <experiment> [--config FILE] [--set section.key=value]...
          [--seed S] [--out PATH] [--format csv|json] [--workers W]

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

State descriptors (the [state] config section and dataset headers) use one
key=value vocabulary: `family=gaussian` with entries gxx/gxp/gpp or the
spectral form mu/lam/phi plus optional x0/p0; `family=fock n=...`;
`family=even_coherent|odd_coherent alpha0=...`; `family=displaced_fock`
and `family=photon_added` with alpha0 and m.  Complex amplitudes parse
with Python syntax (e.g. alpha0=0.5+0.5j).
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .crb import NumericalFailure
from .estimators import EstimatorError
from .oracle import OracleFailure
from .sampling import SamplingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlab",
        description="Moment-tomography experiments: CRB tables, ratio sweeps, "
                    "crossover searches and Monte-Carlo verification.",
    )
    parser.add_argument("experiment", choices=experiments.EXPERIMENTS,
                        help="experiment kind to run")
    parser.add_argument("--config", help="key=value config file with [section] headers")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides", help="override a config entry "
                        "(section.key=value; bare keys go to [experiment])")
    parser.add_argument("--seed", type=int, help="override the experiment seed")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--workers", type=int,
                        help="worker threads for mc-verify trials, crb sweeps and the "
                             "per-(family, m) searches of fig6 and gamma2-min; the "
                             "fig2-fig5 grids are one array pass")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = experiments.load_config(path=args.config, overrides=args.overrides,
                                      kind=args.experiment)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.format is not None:
            cfg.format = args.format
        if args.workers is not None:
            cfg.workers = args.workers
    except experiments.ConfigError as exc:
        print(f"mtlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = experiments.run(cfg)
    except experiments.ConfigError as exc:
        print(f"mtlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, OracleFailure, EstimatorError, SamplingError,
            ArithmeticError) as exc:
        print(f"mtlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    text = experiments.emit_report(report, cfg.format, cfg.out)
    if not cfg.out:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
