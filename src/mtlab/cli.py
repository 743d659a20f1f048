"""Command-line entry point.

Usage:
    mtlab <experiment> [--config FILE] [--set section.key=value]...
          [--seed S] [--out PATH] [--format csv|json] [--workers W]

Experiments: crb (one state, or a [sweep] of one of its parameters, one row
per value), crossover, gamma2-min, mc-verify and the datasets fig2 ... fig6.

Each flag is the --set override it stands for (--seed experiment.seed,
--out output.path, --format output.format, --workers experiment.workers),
applied after every --set, so a flag wins over a --set or config entry.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Each of
these bad inputs exits 2 before anything is evaluated or drawn: an
[experiment] kind other than the positional experiment, a section the
experiment does not read, a key in [state], [search], [mc], [sweep],
[experiment] or [output] that it does not read, a value that does not
parse or makes no state, a search family without its m or with one it
does not take, a [search] bracket_hi that is not finite and positive
(the searches run over alpha0 in [0, bracket_hi], by default [0, 20] for
crossover and [0, max(5, 3 sqrt(m))] for the minima), --workers or
[experiment] workers below 1, or [mc] trials < 2, n_theta < 3, or N below
n_theta (homodyne) or 1 (heterodyne).  Exit 3 is a crb.NumericalFailure,
an estimator or sampling error, or another ArithmeticError; the CLI never
calls the oracle, so no oracle.OracleFailure reaches it.

State descriptors (the [state] config section and the state column of
mc-verify reports) use one key=value vocabulary: `family=gaussian` with
entries gxx/gxp/gpp or the spectral form mu/lam/phi plus optional x0/p0;
`family=fock n=...`; `family=coherent|even_coherent|odd_coherent
alpha0=...`; `family=displaced_fock` and `family=photon_added` with alpha0
and m.  The search families are the same amplitude families.
Complex amplitudes parse with Python syntax (e.g. alpha0=0.5+0.5j).
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .estimators import EstimatorError
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
    parser.add_argument("--seed", type=int, help="--set experiment.seed=S")
    parser.add_argument("--out", help="--set output.path=PATH")
    parser.add_argument("--format", choices=("csv", "json"), help="--set output.format=F")
    parser.add_argument("--workers", type=int,
                        help="--set experiment.workers=W: worker threads for mc-verify "
                             "trials; every other experiment is one array pass (the fig6 "
                             "and gamma2-min searches run in lockstep)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each flag is the --set override it stands for, after the user's own so that it wins
        flags = {"experiment.seed": args.seed, "output.path": args.out,
                 "output.format": args.format, "experiment.workers": args.workers}
        overrides = args.overrides + [f"{k}={v}" for k, v in flags.items() if v is not None]
        cfg = experiments.load_config(path=args.config, overrides=overrides,
                                      kind=args.experiment)
        report = experiments.run(cfg)
    except experiments.ConfigError as exc:
        print(f"mtlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EstimatorError, SamplingError, ArithmeticError) as exc:
        # ArithmeticError covers crb.NumericalFailure; the CLI never calls the oracle
        print(f"mtlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    text = experiments.emit_report(report, cfg.format, cfg.out)
    if not cfg.out:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
