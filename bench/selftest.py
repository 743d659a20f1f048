#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Usage (from the repository root):  python3 bench/selftest.py

Each check first sees a genuine input, which it must accept, and then the
same input deliberately corrupted, which it must reject:

* a fig4 Fock row with h2_hom off by 1%,
* an mc-verify row with failures = 1,
* a sampler draw shifted by 0.1 standard deviations (one per scheme).

Exits 0 when every check accepts the genuine input and rejects the
corrupted one, 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from mtlab import cli  # noqa: E402
from mtlab import states as st  # noqa: E402

OUT = ROOT / ".bench_out" / "selftest"


def cases():
    """(name, genuine failures, corrupted failures) for each corruption."""
    OUT.mkdir(parents=True, exist_ok=True)

    if cli.main(["fig4", "--out", str(OUT / "fig4.csv")]) != 0:
        raise RuntimeError("fig4 call failed")
    rows = checks.read_rows(OUT / "fig4.csv")
    bad_rows = [dict(r) for r in rows]
    bad_rows[3]["h2_hom"] = repr(float(bad_rows[3]["h2_hom"]) * 1.01)
    yield "fig4 Fock row off by 1%", checks.check_fig4(rows), checks.check_fig4(bad_rows)

    states, mc_rows = {}, {}
    for label, kv in workloads.MC_STATES[:2]:
        path = OUT / f"mc-{label}.csv"
        argv = ["mc-verify", *sum((["--set", f"state.{k}={v}"] for k, v in kv.items()), []),
                "--set", "mc.scheme=both", "--set", "mc.N=100000", "--set", "mc.trials=2",
                "--seed", "7", "--out", str(path)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"mc-verify call failed for {label}")
        states[label] = st.state_from_kv(dict(kv))
        mc_rows[label] = checks.read_rows(path)
    corrupted = {k: [dict(r) for r in v] for k, v in mc_rows.items()}
    corrupted["fock"][1]["failures"] = "1"
    yield ("mc-verify row with failures = 1", checks.check_mc_rows(mc_rows, states),
           checks.check_mc_rows(corrupted, states))

    for scheme, (label, kv) in (("hom", workloads.MC_STATES[0]),
                                ("het", workloads.MC_STATES[2])):
        state = st.state_from_kv(dict(kv))
        sample = checks.draw(state, scheme, 11)
        if scheme == "hom":
            theta, xs = sample[0]
            shifted = [(theta, xs + 0.1 * np.std(xs))] + sample[1:]
        else:
            shifted = sample + 0.1 * np.std(sample, axis=0)
        yield (f"{scheme} draw shifted by 0.1 sigma", checks.check_draw(label, state, scheme, sample),
               checks.check_draw(label, state, scheme, shifted))


def main() -> int:
    ok = True
    for name, genuine, corrupted in cases():
        accepted = not genuine
        rejected = bool(corrupted)
        ok &= accepted and rejected
        print(f"{'PASS' if accepted and rejected else 'FAIL'}: {name}: genuine input "
              f"{'accepted' if accepted else 'rejected'}, corrupted input "
              f"{'rejected' if rejected else 'accepted'}")
        for line in genuine + corrupted[:3]:
            print(f"    {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
