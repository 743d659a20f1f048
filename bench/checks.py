"""Correctness checks run after the timed part of each workload.

Every check compares a report against a computation made apart from
mtlab's closed forms (the Simpson-rule Fisher integral and the density
integrals or characteristic-function derivatives of ``mtlab.oracle``), or
against a property the method must have.  None compares against a stored
copy of earlier output.  Each check function returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from mtlab import oracle, sampling
from mtlab import states as st
from mtlab.phasespace import FirstMoments, GaussianShape, gaussian_cov_from_shape

# Two-sided false-failure rate of each statistical check in one run.
FALSE_FAILURE_RATE = 1e-6
# |z| bound for the sampler-moment checks: 6 sigma is a two-sided normal tail
# of 2e-9 per moment, below FALSE_FAILURE_RATE over the <= 480 moments tested
# in one run.
Z_MAX = 6.0
REPORT_RTOL = 1e-10      # reports carry 12 significant digits
ORACLE_RTOL = 1e-8       # oracle route against the reported bounds and ratios
SEARCH_TOL = 1e-6        # alpha0 tolerance of mtlab's bisection and golden section
SIDE_STEP = 1e-2         # distance from a reported minimum at which it is re-checked

HOM_DRAW_N = 240_000     # fresh sampler draw per family: 10,000 per phase at 24 phases
HET_DRAW_N = 200_000
HOM_DRAW_THETAS = 24
HET_INDICES = [(k, n - k) for n in range(1, 5) for k in range(n + 1)]
# 257 x 257 Husimi nodes (doubled once for the oracle's own convergence test)
# reproduce the bounds to ~1e-13 at a quarter of the default cost
ORACLE = oracle.OracleConfig(nodes_2d=257)

# fixed row subsets recomputed by the oracle route
FIG2_ROWS = tuple(range(0, 2883, 412))
FIG3_ROWS = tuple(range(5, 2500, 357))
FIG5_ROWS = (0, 11, 23, 35, 47, 59)


def read_rows(path: Path) -> list:
    """Rows (as dicts of strings) of a CSV report written by mtlab."""
    rows, header = [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# oracle route: Simpson Fisher integral and Husimi density integration
# ---------------------------------------------------------------------------


def _husimi(state, indices) -> dict:
    return oracle.numeric_husimi_moment_set(state, indices, ORACLE)


def oracle_h_hom(state, order: str) -> float:
    return float(np.trace(np.linalg.inv(oracle.numeric_fisher(state, order, ORACLE))))


def oracle_h1_het(state) -> float:
    m = _husimi(state, [(1, 0), (0, 1), (2, 0), (0, 2)])
    return (m[2, 0] - m[1, 0] ** 2) + (m[0, 2] - m[0, 1] ** 2)


def oracle_h2_het(state) -> float:
    m = _husimi(state, [(2, 0), (1, 1), (0, 2), (4, 0), (2, 2), (0, 4)])
    return (m[4, 0] - m[2, 0] ** 2) + (m[0, 4] - m[0, 2] ** 2) + 2.0 * (m[2, 2] - m[1, 1] ** 2)


def oracle_gamma2(state) -> float:
    return oracle_h2_het(state) / oracle_h_hom(state, "second")


def _x_displaced_gaussian(mu, lam, x0, p0):
    g = gaussian_cov_from_shape(GaussianShape(mu=mu, lam=lam, phi=0.0))
    return st.Gaussian(FirstMoments(x0, p0), g)


_SEARCH_STATES = {
    "coherent": lambda a, m: st.DisplacedFock(a, 0),
    "even_coherent": lambda a, m: st.EvenOddCoherent(a, "even"),
    "odd_coherent": lambda a, m: st.EvenOddCoherent(a, "odd"),
    "displaced_fock": lambda a, m: st.DisplacedFock(a, m),
    "photon_added": lambda a, m: st.PhotonAddedCoherent(a, m),
}


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def check_fig4(rows: list) -> list:
    """Fock-state bounds against their exact values."""
    bad = []
    for r in rows:
        n = int(r["n"])
        exact = {"h2_hom": 5 * (n * n + n + 1), "h2_het": 2 * (n + 1) * (n + 3),
                 "h1_hom": 2 * (2 * n + 1), "h1_het": 2 * (n + 1)}
        for col, want in exact.items():
            if not _close(float(r[col]), want, REPORT_RTOL):
                bad.append(f"fig4 n={n}: {col}={r[col]} but the Fock value is {want}")
    if not rows:
        bad.append("fig4: no rows")
    return bad


def check_vacuum_rows(fig2: list, fig3: list) -> list:
    """gamma2 = 6/5 on the vacuum rows of fig2 and fig3."""
    bad = []
    for name, rows, keys in (("fig2", fig2, {"alpha0": 0.0, "mu": 1.0, "lam": 1.0}),
                             ("fig3", fig3, {"mu": 1.0, "x0": 0.0, "p0": 0.0})):
        vac = [r for r in rows if all(float(r[k]) == v for k, v in keys.items())]
        if len(vac) != 1:
            bad.append(f"{name}: expected one vacuum row, found {len(vac)}")
        for r in vac:
            if not _close(float(r["gamma2"]), 1.2, REPORT_RTOL):
                bad.append(f"{name}: vacuum gamma2={r['gamma2']}, expected 6/5")
    return bad


def check_grid_subsets(fig2: list, fig3: list, fig5: list) -> list:
    """A fixed subset of grid rows recomputed by the oracle route."""
    bad = []

    def cmp(label, reported, state):
        want = oracle_gamma2(state)
        if not _close(float(reported), want, ORACLE_RTOL):
            bad.append(f"{label}: gamma2={reported}, oracle route gives {want:.12g}")

    for i in FIG2_ROWS:
        if i >= len(fig2):
            bad.append(f"fig2: row {i} missing")
            continue
        r = fig2[i]
        a = float(r["alpha0"])
        cmp(f"fig2 row {i}", r["gamma2"],
            _x_displaced_gaussian(float(r["mu"]), float(r["lam"]), math.sqrt(2.0) * a, 0.0))
    for i in FIG3_ROWS:
        if i >= len(fig3):
            bad.append(f"fig3: row {i} missing")
            continue
        r = fig3[i]
        cmp(f"fig3 row {i}", r["gamma2"],
            _x_displaced_gaussian(float(r["mu"]), float(r["lam"]), float(r["x0"]),
                                  float(r["p0"])))
    for i in FIG5_ROWS:
        if i >= len(fig5):
            bad.append(f"fig5: row {i} missing")
            continue
        r = fig5[i]
        a = float(r["alpha0"])
        cmp(f"fig5 row {i} even", r["gamma2_even"], st.EvenOddCoherent(a, "even"))
        cmp(f"fig5 row {i} odd", r["gamma2_odd"], st.EvenOddCoherent(a, "odd"))
    return bad


def check_minima(rows: list) -> list:
    """Each reported minimum re-evaluated by the oracle route, and no lower
    than the oracle route one step to either side."""
    bad = []
    for r in rows:
        family = r["family"]
        m = int(r["m"]) if r["m"] else None
        a = float(r["alpha0_min"])
        g = float(r["gamma2_min"])
        build = _SEARCH_STATES[family]
        label = f"minimum {family} m={r['m']}"
        at = oracle_gamma2(build(a, m))
        if not _close(g, at, ORACLE_RTOL):
            bad.append(f"{label}: gamma2_min={g:.12g}, oracle route gives {at:.12g}")
        for side in (a - SIDE_STEP, a + SIDE_STEP):
            if side < 0.0:
                continue
            there = oracle_gamma2(build(side, m))
            if g > there * (1.0 + REPORT_RTOL):
                bad.append(f"{label}: gamma2_min={g:.12g} exceeds the oracle-route "
                           f"value {there:.12g} at alpha0={side:.6g}")
    if not rows:
        bad.append("minima: no rows")
    return bad


def check_crossovers(rows: dict) -> list:
    """Coherent crossover at sqrt(5/32) with H2 = 63/8; even/odd crossovers
    where the oracle-route gamma2 equals 1."""
    bad = []
    for family, (r,) in rows.items():
        if r["always_below_unity"] != "false":
            bad.append(f"crossover {family}: no crossover reported")
            continue
        a = float(r["alpha0_star"])
        if family == "coherent":
            if abs(a - math.sqrt(5.0 / 32.0)) > SEARCH_TOL:
                bad.append(f"crossover coherent: alpha0*={a}, expected sqrt(5/32)")
            if not _close(float(r["h2_at_crossover"]), 63.0 / 8.0, 10.0 * SEARCH_TOL):
                bad.append(f"crossover coherent: H2={r['h2_at_crossover']}, expected 63/8")
        else:
            g = oracle_gamma2(_SEARCH_STATES[family](a, None))
            if abs(g - 1.0) > 10.0 * SEARCH_TOL:
                bad.append(f"crossover {family}: oracle-route gamma2={g:.12g} at "
                           f"alpha0*={a}, expected 1")
    return bad


def check_figures(rows: dict) -> list:
    """All figure checks; rows maps each call's name to its report rows."""
    bad = check_fig4(rows["fig4"])
    bad += check_vacuum_rows(rows["fig2"], rows["fig3"])
    bad += check_crossovers({f: rows[f"crossover-{f}"]
                             for f in ("coherent", "even_coherent", "odd_coherent")})
    bad += check_grid_subsets(rows["fig2"], rows["fig3"], rows["fig5"])
    bad += check_minima(rows["fig6"] + rows["gamma2-min-even_coherent"])
    return bad


# ---------------------------------------------------------------------------
# Monte-Carlo rows
# ---------------------------------------------------------------------------


def _chi2_tails(x: float, df: int) -> tuple[float, float]:
    """(P(X <= x), P(X > x)) for X ~ chi-square(df), df even, x > 0.

    Both tails are Poisson sums, each summed on its own, so a small tail
    probability keeps its relative accuracy.
    """
    if df % 2:
        raise ValueError("even degrees of freedom only")
    h, k = 0.5 * x, df // 2

    def term(j):
        return math.exp(j * math.log(h) - math.lgamma(j + 1) - h)

    sf = math.fsum(term(j) for j in range(k))
    cdf, j = 0.0, k
    while True:
        t = term(j)
        cdf += t
        j += 1
        if t < 1e-18 * cdf:
            return cdf, sf


def chi2_band(df: int, alpha: float) -> tuple[float, float]:
    """Central (1 - alpha) interval of chi-square(df)/df."""
    def solve(tail):
        lo, hi = 0.0, 10.0 * df + 200.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            cdf, sf = _chi2_tails(mid, df)
            below = cdf < alpha / 2 if tail == "lower" else sf > alpha / 2
            lo, hi = (mid, hi) if below else (lo, mid)
        return 0.5 * (lo + hi) / df
    return solve("lower"), solve("upper")


def mc_bound(state, scheme: str, order: str) -> float:
    if scheme == "hom":
        return oracle_h_hom(state, order)
    return oracle_h1_het(state) if order == "first" else oracle_h2_het(state)


def check_mc_rows(rows_by_state: dict, states: dict) -> list:
    """Failures, bounds and MSE ratios of mc-verify rows.

    Each trial's scaled squared error is asymptotically a weighted sum of
    squared standard normals whose mean is the bound; its tails are widest
    when one weight carries everything.  A mean over T trials therefore has
    ratio = scaled_mse/scrb inside the chi-square(T)/T band except with
    probability alpha, for every state.
    """
    bad = []
    all_rows = [r for rows in rows_by_state.values() for r in rows]
    if not all_rows:
        return ["mc: no rows"]
    alpha_row = FALSE_FAILURE_RATE / len(all_rows)
    for label, rows in rows_by_state.items():
        state = states[label]
        for r in rows:
            cell = f"mc {label} {r['scheme']}/{r['order']}"
            if int(r["failures"]) != 0:
                bad.append(f"{cell}: {r['failures']} failed trials")
            want = mc_bound(state, r["scheme"], r["order"])
            if not _close(float(r["scrb"]), want, ORACLE_RTOL):
                bad.append(f"{cell}: scrb={r['scrb']}, oracle route gives {want:.12g}")
            lo, hi = chi2_band(int(r["trials"]), alpha_row)
            ratio = float(r["ratio"])
            if not lo <= ratio <= hi:
                bad.append(f"{cell}: ratio={ratio:.6g} outside [{lo:.3g}, {hi:.3g}]")
    # every row has the same trial count, so the mean ratio is a mean over all trials
    trials = sum(int(r["trials"]) for r in all_rows)
    pooled = float(np.mean([float(r["ratio"]) for r in all_rows]))
    lo, hi = chi2_band(trials, FALSE_FAILURE_RATE)
    if not lo <= pooled <= hi:
        bad.append(f"mc: mean ratio {pooled:.6g} over {trials} trials outside "
                   f"[{lo:.3g}, {hi:.3g}]")
    return bad


# ---------------------------------------------------------------------------
# sampler draws against characteristic-function moments
# ---------------------------------------------------------------------------


def draw(state, scheme: str, seed: int):
    """One fresh draw: per-phase samples (homodyne) or points (heterodyne)."""
    if scheme == "hom":
        ds = sampling.sample_homodyne(state, HOM_DRAW_THETAS, HOM_DRAW_N, seed)
        return list(zip(ds.phases, ds.samples))
    return sampling.sample_heterodyne(state, HET_DRAW_N, seed).points


def _z(values: np.ndarray, want: float) -> float:
    sd = float(np.std(values, ddof=1))
    return (float(np.mean(values)) - want) / (sd / math.sqrt(len(values)))


def check_draw(label: str, state, scheme: str, sample) -> list:
    """Empirical moments of a draw against the oracle's characteristic-function
    moments, with z-scores whose scale comes from the sample itself."""
    bad = []
    if scheme == "hom":
        for theta, xs in sample:
            for m in range(1, 5):
                want = oracle.cf_quadrature_moment(state, float(theta), m)
                z = _z(xs ** m, want)
                if abs(z) > Z_MAX:
                    bad.append(f"draw {label} hom theta={theta:.4f} m={m}: z={z:.2f}")
    else:
        x, p = sample[:, 0], sample[:, 1]
        for k, l in HET_INDICES:
            want = oracle.cf_husimi_moment(state, k, l)
            z = _z(x ** k * p ** l, want)
            if abs(z) > Z_MAX:
                bad.append(f"draw {label} het x^{k} p^{l}: z={z:.2f}")
    return bad
