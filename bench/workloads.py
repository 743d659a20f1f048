"""The three benchmark workloads as lists of in-process CLI calls.

Every operation is one ``mtlab.cli.main(argv)`` call that writes its report
as a CSV file.  A round is the workload's fixed list of calls; a run repeats
whole rounds.  The workload seed reaches the program only as the ``--seed``
argument of each call (figures echo it in their metadata; the Monte-Carlo
calls derive every trial stream from it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("figures", "mc-homodyne", "mc-heterodyne")

MC_N = 1_000_000
MC_TRIALS = 2          # per (scheme, order) cell; the smallest count mtlab accepts
MC_N_THETA = 24

# one state per family, as mtlab state descriptors ([state] config entries)
MC_STATES = (
    ("gaussian", {"family": "gaussian", "mu": "2", "lam": "1.5", "phi": "0.4",
                  "x0": "0.7", "p0": "-0.3"}),
    ("fock", {"family": "fock", "n": "3"}),
    ("even_coherent", {"family": "even_coherent", "alpha0": "1.0"}),
    ("displaced_fock", {"family": "displaced_fock", "alpha0": "1.0+0.5j", "m": "2"}),
    ("photon_added", {"family": "photon_added", "alpha0": "0.8", "m": "2"}),
)

GRID_CALLS = ("fig2", "fig3", "fig4", "fig5")


@dataclass(frozen=True)
class Op:
    """One experiment call: a report name, its CLI argv and its trial count."""

    name: str
    argv: tuple
    trials: int = 0

    @property
    def report(self) -> str:
        return f"{self.name}.csv"

    @property
    def attempts(self) -> int:
        """Operations this call counts for: its trials, or the call itself."""
        return self.trials or 1


def _sets(section: str, kv: dict) -> list:
    out = []
    for k, v in kv.items():
        out += ["--set", f"{section}.{k}={v}"]
    return out


def mc_seeds(workload: str, seed: int) -> list:
    """Per-state program seeds derived from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.getrandbits(31) for _ in MC_STATES]


def sample_check_seed(workload: str, seed: int) -> int:
    """Seed of the fresh sampler draws used by the correctness checks."""
    return random.Random(f"{workload}/{seed}/draws").getrandbits(31)


def build_ops(workload: str, seed: int, out_dir: Path) -> list:
    """The fixed list of calls that makes one round of the workload."""
    common = ["--workers", "1", "--format", "csv"]
    ops = []
    if workload == "figures":
        for fig in ("fig2", "fig3", "fig4", "fig5", "fig6"):
            ops.append(Op(fig, (fig,)))
        for family in ("coherent", "even_coherent", "odd_coherent"):
            ops.append(Op(f"crossover-{family}",
                          ("crossover", "--set", f"search.family={family}")))
        ops.append(Op("gamma2-min-even_coherent",
                      ("gamma2-min", "--set", "search.family=even_coherent")))
        seeds = [seed] * len(ops)
    elif workload in ("mc-homodyne", "mc-heterodyne"):
        scheme = "hom" if workload == "mc-homodyne" else "het"
        mc = {"scheme": scheme, "order": "both", "N": MC_N,
              "trials": MC_TRIALS, "n_theta": MC_N_THETA}
        for label, state in MC_STATES:
            ops.append(Op(f"mc-{scheme}-{label}",
                          ("mc-verify", *_sets("state", state), *_sets("mc", mc)),
                          trials=2 * MC_TRIALS))
        seeds = mc_seeds(workload, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [Op(op.name, (*op.argv, *common, "--seed", str(s),
                         "--out", str(out_dir / op.report)), op.trials)
            for op, s in zip(ops, seeds)]


def warmup_argv(workload: str, out_dir: Path) -> list:
    """A small untimed call through the same code paths as the workload."""
    out = ["--workers", "1", "--out", str(out_dir / "warmup.csv")]
    if workload == "figures":
        return ["crb", "--set", "state.family=photon_added", "--set", "state.alpha0=0.5",
                "--set", "state.m=1", *out]
    scheme = "hom" if workload == "mc-homodyne" else "het"
    return ["mc-verify", "--set", "state.family=even_coherent", "--set", "state.alpha0=1.0",
            "--set", f"mc.scheme={scheme}", "--set", "mc.N=2000", "--set", "mc.trials=2",
            "--seed", "1", *out]
