#!/usr/bin/env python3
"""mtlab benchmark: figure datasets and N = 10^6 Monte-Carlo trials.

Usage (from the repository root):

    python3 bench/run.py --workload figures|mc-homodyne|mc-heterodyne \
        --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's in-process CLI calls until S seconds
have passed, checks the reports, and prints one JSON object as the last
line of standard output: end-to-end metrics with ``--trace 0``, per-layer
metrics (from spans around mtlab's public functions) with ``--trace 1``.
The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import os

# one process, one BLAS thread: pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import mtlab, build the round's calls and run one untimed warm-up."""
    from mtlab import cli

    out_dir = OUT / f"{workload}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build_ops(workload, seed, out_dir)
    if cli.main(workloads.warmup_argv(workload, out_dir)) != 0:
        raise RuntimeError("warm-up call failed")
    return cli, ops, out_dir


def measure_setup(workload: str, seed: int) -> list:
    """Process start to the first timed call, in fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


class Call(NamedTuple):
    """One timed call of a run."""

    round: int
    op: workloads.Op
    seconds: float
    failed: int     # operations of the call that failed
    rows: int       # rows of its report


def run_rounds(cli, ops, out_dir: Path, seconds: float, tracer=None):
    """Whole rounds of the workload's calls until `seconds` have passed.

    Returns the calls, the number of rounds and, per report, the set of
    digests it had over the rounds.
    """
    import checks

    calls, digests = [], {}
    rounds = 0
    t_start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.current_op = len(calls)
            t = time.perf_counter()
            try:
                rc = cli.main(list(op.argv))
            except Exception as exc:  # a crash is a failed operation, not a dead run
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = 1
            dt = time.perf_counter() - t
            path = out_dir / op.report
            if rc == 0:
                rows = checks.read_rows(path)
                failed = sum(int(r["failures"]) for r in rows) if op.trials else 0
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                rows, failed, digest = [], op.attempts, None
            digests.setdefault(op.name, set()).add(digest)
            calls.append(Call(rounds, op, dt, failed, len(rows)))
        rounds += 1
        if time.perf_counter() - t_start >= seconds:
            return calls, rounds, digests


def round_median(calls, rounds: int, work, select=lambda c: True) -> float:
    """Median over rounds of the selected calls' work over their wall time."""
    rates = []
    for k in range(rounds):
        sel = [c for c in calls if c.round == k and select(c)]
        rates.append(sum(work(c) for c in sel) / sum(c.seconds for c in sel))
    return statistics.median(rates)


def run_checks(workload: str, seed: int, ops, out_dir: Path) -> list:
    import checks
    from mtlab import states as st

    reports = {op.name: checks.read_rows(out_dir / op.report) for op in ops}
    if workload == "figures":
        return checks.check_figures(reports)
    scheme = "hom" if workload == "mc-homodyne" else "het"
    states = {label: st.state_from_kv(dict(kv)) for label, kv in workloads.MC_STATES}
    rows = {label: reports[f"mc-{scheme}-{label}"] for label in states}
    bad = checks.check_mc_rows(rows, states)
    draw_seed = workloads.sample_check_seed(workload, seed)
    for k, (label, state) in enumerate(states.items()):
        bad += checks.check_draw(label, state, scheme, checks.draw(state, scheme, draw_seed + k))
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mtlab" / "__init__.py").is_file():
        print(f"bench: no mtlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import mtlab

    if not Path(mtlab.__file__).resolve().is_relative_to(SRC):
        print(f"bench: mtlab imported from {mtlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.monotonic(), flush=True)
        return 0

    cli, ops, out_dir = setup(args.workload, args.seed)
    setup_times = measure_setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        calls, rounds, digests = run_rounds(cli, ops, out_dir, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(c.op.attempts for c in calls)
    failed = sum(c.failed for c in calls)

    bad = [f"{name}: reports differ between rounds" for name, d in digests.items()
           if len(d) != 1]
    bad += run_checks(args.workload, args.seed, ops, out_dir)
    with open(out_dir / "reports.sha256", "w") as fh:
        for op in ops:
            fh.write(f"{hashlib.sha256((out_dir / op.report).read_bytes()).hexdigest()}"
                     f"  {op.report}\n")
    for line in bad:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    for op in ops:
        times = [c.seconds for c in calls if c.op is op]
        print(f"# {op.name}: median {statistics.median(times):.4f} s over {len(times)} call(s)")
    print(f"# rounds {rounds}, setup probes " + " ".join(f"{t:.3f}" for t in setup_times))

    ops_per_s = round_median(calls, rounds, lambda c: c.op.attempts - c.failed)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    # the same timings by the names of the workload's own unit of work
    if args.workload == "figures":
        grid = lambda c: c.op.name in workloads.GRID_CALLS  # noqa: E731
        search = [sum(c.seconds for c in calls if c.round == k and not grid(c))
                  for k in range(rounds)]
        figures = {
            "grid_states_per_s": (round_median(calls, rounds, lambda c: c.rows, grid),
                                  "states/s"),
            "search_s": (statistics.median(search), "s"),
        }
    else:
        figures = {"trials_per_s": (ops_per_s, "trials/s")}
    for name, (value, unit) in {**end_to_end, **figures}.items():
        print(f"{name} {value:.6g} {unit}")

    if tracer is not None:
        tracer.write(out_dir / "trace.csv.gz")
        import tracing
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]}
                   for k, v in tracer.layer_metrics(rounds).items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
