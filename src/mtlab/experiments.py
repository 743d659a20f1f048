"""Experiment runner behind the command line: CRB tables, ratio sweeps,
crossover and minimum searches, and Monte-Carlo bound verification.

Configs are flat key=value text with [section] headers; every value can be
overridden from the command line.  Reports carry a metadata block (schema
version, seed, config echo) and emit to CSV (with '#'-prefixed metadata
lines and a single header row) or JSON ({meta, rows}).  All floating-point
output uses 12 significant digits, and a fixed seed makes every experiment
byte-reproducible.
"""

from __future__ import annotations

import configparser
import functools
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import crb, estimators
from .phasespace import FirstMoments, GaussianShape, gaussian_cov_from_shape
from .states import (
    EvenOddCoherent,
    Fock,
    Gaussian,
    StateModel,
    state_from_kv,
    state_to_kv,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "load_config",
    "run",
    "emit_report",
    "EXPERIMENTS",
]

SCHEMA_VERSION = 2
TOOL_VERSION = "0.1.0"

EXPERIMENTS = (
    "crb", "gamma-sweep", "crossover", "gamma2-min", "mc-verify",
    "fig2", "fig3", "fig4", "fig5", "fig6",
)


class ConfigError(ValueError):
    """Unusable experiment configuration."""


@dataclass
class ExperimentConfig:
    """Parsed experiment description: sections of string key=value pairs."""

    kind: str
    sections: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    workers: int = 1

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def section(self, name: str) -> dict:
        return dict(self.sections.get(name, {}))


@dataclass(frozen=True)
class ExperimentReport:
    """Rows plus the metadata block they were produced under."""

    meta: dict
    rows: list


def load_config(path: str | None = None, text: str | None = None,
                overrides: list[str] | None = None,
                kind: str | None = None) -> ExperimentConfig:
    """Read a config file and apply --set section.key=value overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
    if text is not None:
        parser.read_string(text)
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        if "." in key:
            sec, key = key.split(".", 1)
        else:
            sec = "experiment"
        sections.setdefault(sec, {})[key.strip()] = value.strip()
    exp = sections.get("experiment", {})
    resolved_kind = kind or exp.get("kind")
    if resolved_kind is None:
        raise ConfigError("no experiment kind given (positional or [experiment] kind=...)")
    if resolved_kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {resolved_kind!r}; choose from {EXPERIMENTS}")
    out = sections.get("output", {})
    try:
        cfg = ExperimentConfig(
            kind=resolved_kind,
            sections=sections,
            seed=int(exp.get("seed", 0)),
            out=out.get("path"),
            format=out.get("format", "csv"),
            workers=int(exp.get("workers", 1)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.format!r}")
    return cfg


# ---------------------------------------------------------------------------
# sweep handling
# ---------------------------------------------------------------------------

_INT_KEYS = {"n", "m"}


def _parse_sweep(spec: str, key: str) -> list:
    """'start:stop:steps' inclusive linspace; integer keys get integer grids."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep {key}={spec!r} must be start:stop:steps")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad sweep {key}={spec!r}: {exc}") from None
    if steps < 1:
        raise ConfigError(f"sweep {key}={spec!r} is empty")
    grid = np.linspace(start, stop, steps)
    if key in _INT_KEYS:
        vals = [int(round(v)) for v in grid]
        return sorted(set(vals))
    return [float(v) for v in grid]


def _parse_state(kv: dict) -> StateModel:
    try:
        return state_from_kv(kv)
    except ValueError as exc:
        raise ConfigError(f"bad [state]: {exc}") from None


def _state_with(base_kv: dict, **updates) -> StateModel:
    kv = dict(base_kv)
    for k, v in updates.items():
        kv[k] = repr(v) if isinstance(v, float) else str(v)
    return _parse_state(kv)


def _choice(section: dict, name: str, key: str, choices: dict):
    """choices[section[key]] (default 'both'), or a ConfigError naming the options."""
    value = section.get(key, "both")
    if value not in choices:
        raise ConfigError(f"bad [{name}] {key}={value!r}; choose from {sorted(choices)}")
    return choices[value]


def _pool_map(fn, items, workers):
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


@contextmanager
def _sweep_states():
    """Scope that builds the states of a figure grid, before any bound is
    evaluated: a sweep value that makes no state is a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad [sweep]: {exc}") from None


def _crb_rows(states: list, extras: list) -> list:
    """One row per state: its extra columns, then every bound and ratio."""
    rep = vars(crb.crb_grid(states))
    return [{**extra, **dict(zip(rep, vals))}
            for extra, vals in zip(extras, zip(*(v.tolist() for v in rep.values())))]


def _run_crb(cfg: ExperimentConfig) -> list:
    state_kv = cfg.section("state")
    if not state_kv:
        raise ConfigError("crb experiment needs a [state] section")
    sweeps = cfg.section("sweep")
    if cfg.kind == "gamma-sweep" and not sweeps:
        raise ConfigError("gamma-sweep requires a [sweep] section")
    if not sweeps:
        return _crb_rows([_parse_state(state_kv)], [{}])
    if len(sweeps) != 1:
        raise ConfigError("crb sweeps cover exactly one parameter")
    (key, spec), = sweeps.items()
    values = _parse_sweep(spec, key)
    if not values:
        raise ConfigError("empty sweep grid")

    def one(v):
        return _crb_rows([_state_with(state_kv, **{key: v})], [{key: v}])[0]

    return _pool_map(one, values, cfg.workers)


def _parse_search(cfg: ExperimentConfig, m_sweep: bool):
    """(family, m values, bracket_hi) of a [search] section; m may be swept."""
    search = cfg.section("search")
    family = search.get("family")
    if family is None:
        raise ConfigError(f"{cfg.kind} needs [search] family=...")
    spec = search.get("m")
    try:
        hi = float(search["bracket_hi"]) if "bracket_hi" in search else None
        if spec is not None and m_sweep and ":" in spec:
            ms = _parse_sweep(spec, "m")
        else:
            ms = [None if spec is None else int(spec)]
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad [search] value: {exc}") from None
    _check_search([(family, m) for m in ms], "[search]")
    return family, ms, hi


def _check_search(jobs: list, where: str) -> None:
    """ConfigError unless every (family, m) job names a search family."""
    try:
        for family, m in jobs:
            crb._family_builder(family, m)  # checks the family and m, builds nothing
    except ValueError as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


def _run_crossover(cfg: ExperimentConfig) -> list:
    family, (m,), hi = _parse_search(cfg, m_sweep=False)
    res = crb.find_crossover(family, m=m, bracket=(0.0, 20.0 if hi is None else hi))
    return [{
        "family": family,
        "m": "" if m is None else m,
        "alpha0_star": "" if res.alpha0 is None else res.alpha0,
        "h2_at_crossover": "" if res.h2 is None else res.h2,
        "always_below_unity": res.always_below_unity,
    }]


def _run_gamma2_min(cfg: ExperimentConfig) -> list:
    family, ms, hi = _parse_search(cfg, m_sweep=True)

    def one(m):
        a0, g2 = crb.minimize_gamma2(family, m=m, bracket_hi=hi)
        return {"family": family, "m": "" if m is None else m,
                "alpha0_min": a0, "gamma2_min": g2}

    return _pool_map(one, ms, cfg.workers)


def _run_mc_verify(cfg: ExperimentConfig) -> list:
    state_kv = cfg.section("state")
    if not state_kv:
        raise ConfigError("mc-verify needs a [state] section")
    state = _parse_state(state_kv)
    mc = cfg.section("mc")
    try:
        n_samples = int(mc.get("N", 100000))
        trials = int(mc.get("trials", 100))
        n_theta = int(mc.get("n_theta", 24))
    except ValueError as exc:
        raise ConfigError(f"bad [mc] value: {exc}") from None
    schemes = _choice(mc, "mc", "scheme",
                      {"both": ("hom", "het"), "hom": ("hom",), "het": ("het",)})
    orders = _choice(mc, "mc", "order", {"both": ("first", "second"),
                                         "first": ("first",), "second": ("second",)})
    rows = []
    for scheme in schemes:
        for order in orders:
            res = estimators.monte_carlo_mse(
                state, scheme, order, n_samples, trials,
                n_theta=n_theta if scheme == "hom" else None,
                seed=_mc_cell_seed(cfg.seed, scheme, order),
                workers=cfg.workers,
            )
            if order == "first":
                bound = (crb.scrb_hom_first(state) if scheme == "hom"
                         else crb.scrb_het_first(state))
            else:
                bound = (crb.scrb_hom_second(state) if scheme == "hom"
                         else crb.scrb_het_second(state))
            rows.append({
                "state": state_to_kv(state), "scheme": scheme, "order": order,
                "N": n_samples, "trials": trials,
                "n_theta": n_theta if scheme == "hom" else "",
                "scaled_mse": res.scaled_mse, "stderr": res.stderr,
                "scrb": bound, "ratio": res.scaled_mse / bound,
                "failures": res.failures,
            })
    return rows


def _mc_cell_seed(seed: int, scheme: str, order: str) -> int:
    """Distinct reproducible seed per (scheme, order) cell of an MC table."""
    from .sampling import derive_key

    tag = {"hom": 1, "het": 2}[scheme] * 10 + {"first": 1, "second": 2}[order]
    return derive_key(seed, tag)


def _gaussians(pairs) -> list:
    """One Gaussian state per ((x0, p0), (mu, lam)) pair, with the covariance
    of shape (mu, lam, phi = 0); equal means and equal shapes share one object."""
    mean = functools.cache(FirstMoments)
    cov = functools.cache(lambda mu, lam: gaussian_cov_from_shape(GaussianShape(mu, lam, 0.0)))
    return [Gaussian(mean(*r0), cov(*shape)) for r0, shape in pairs]


def _run_fig2(cfg: ExperimentConfig) -> list:
    sweep = cfg.section("sweep")
    alphas = _parse_sweep(sweep.get("alpha0", "0:0.79:3"), "alpha0")
    mus = _parse_sweep(sweep.get("mu", "1:4:31"), "mu")
    lams = _parse_sweep(sweep.get("lam", "1:4:31"), "lam")
    jobs = [(a, mu, lam) for a in alphas for mu in mus for lam in lams]
    with _sweep_states():
        states = _gaussians(((math.sqrt(2.0) * a, 0.0), (mu, lam)) for a, mu, lam in jobs)
    g2 = crb.crb_grid(states).gamma2.tolist()
    del states  # the rows below reuse its memory
    return [{"alpha0": a, "mu": mu, "lam": lam, "gamma2": g}
            for (a, mu, lam), g in zip(jobs, g2)]


def _run_fig3(cfg: ExperimentConfig) -> list:
    sweep = cfg.section("sweep")
    mus = _parse_sweep(sweep.get("mu", "1:8:4"), "mu")
    x0s = _parse_sweep(sweep.get("x0", "-3:3:25"), "x0")
    p0s = _parse_sweep(sweep.get("p0", "-3:3:25"), "p0")
    jobs = [(mu, x0, p0) for mu in mus for x0 in x0s for p0 in p0s]
    with _sweep_states():
        states = _gaussians(((x0, p0), (mu, mu)) for mu, x0, p0 in jobs)
    g2 = crb.crb_grid(states).gamma2.tolist()
    del states  # the rows below reuse its memory
    return [{"mu": mu, "lam": mu, "x0": x0, "p0": p0, "gamma2": g}
            for (mu, x0, p0), g in zip(jobs, g2)]


def _run_fig4(cfg: ExperimentConfig) -> list:
    sweep = cfg.section("sweep")
    ns = _parse_sweep(sweep.get("n", "0:30:31"), "n")
    with _sweep_states():
        states = [Fock(n) for n in ns]
    return _crb_rows(states, [{"n": n} for n in ns])


def _run_fig5(cfg: ExperimentConfig) -> list:
    sweep = cfg.section("sweep")
    alphas = _parse_sweep(sweep.get("alpha0", "0.05:3:60"), "alpha0")
    with _sweep_states():
        states = [EvenOddCoherent(a, p) for a in alphas for p in ("even", "odd")]
    g2 = crb.crb_grid(states).gamma2.tolist()
    return [{"alpha0": a, "gamma2_even": even, "gamma2_odd": odd}
            for a, even, odd in zip(alphas, g2[::2], g2[1::2])]


def _run_fig6(cfg: ExperimentConfig) -> list:
    sweep = cfg.section("sweep")
    ms = _parse_sweep(sweep.get("m", "0:12:13"), "m")
    families = cfg.get("experiment", "families", "displaced_fock,photon_added").split(",")
    jobs = [(f.strip(), m) for f in families for m in ms]
    _check_search(jobs, "fig6 family or m")

    def one(args):
        family, m = args
        a0, g2 = crb.minimize_gamma2(family, m=m)
        return {"family": family, "m": m, "alpha0_min": a0, "gamma2_min": g2}

    return _pool_map(one, jobs, cfg.workers)


_BODIES = {
    "crb": _run_crb,
    "gamma-sweep": _run_crb,
    "crossover": _run_crossover,
    "gamma2-min": _run_gamma2_min,
    "mc-verify": _run_mc_verify,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the configured experiment and assemble its report."""
    rows = _BODIES[cfg.kind](cfg)
    if not rows:
        raise ConfigError("experiment produced an empty row set")
    echo = []
    for sec in sorted(cfg.sections):
        for key in sorted(cfg.sections[sec]):
            echo.append(f"{sec}.{key}={cfg.sections[sec][key]}")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "tool": f"mtlab {TOOL_VERSION}",
        "experiment": cfg.kind,
        "seed": cfg.seed,
        "config": ";".join(echo),
    }
    return ExperimentReport(meta=meta, rows=rows)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    for k, v in report.meta.items():
        buf.write(f"# {k}={v}\n")
    columns = list(report.rows[0].keys())
    buf.write(",".join(columns) + "\n")
    for row in report.rows:
        buf.write(",".join(_fmt(row.get(c, "")) for c in columns) + "\n")
    return buf.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    def clean(v):
        if isinstance(v, float):
            return float(f"{v:.12g}")
        if isinstance(v, (np.integer,)):
            return int(v)
        return v

    rows = [{k: clean(v) for k, v in row.items()} for row in report.rows]
    return json.dumps({"meta": report.meta, "rows": rows}, indent=1, sort_keys=False)


def emit_report(report: ExperimentReport, fmt: str, path: str | None):
    """Serialize the report; writes the file when a path is configured."""
    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
