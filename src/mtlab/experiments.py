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
import io
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__, crb, estimators
from .phasespace import GaussianShape
from .sampling import derive_key
from .states import EvenOddCoherent, Fock, _GaussianStack, state_from_kv, state_to_kv

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

EXPERIMENTS = (
    "crb", "crossover", "gamma2-min", "mc-verify",
    "fig2", "fig3", "fig4", "fig5", "fig6",
)


class ConfigError(ValueError):
    """Unusable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description: sections of string key=value pairs,
    and the settings that ``load_config`` read from them, checked here."""

    kind: str
    sections: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    workers: int = 1

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.workers < 1:
            raise ConfigError(f"bad workers={self.workers}: at least 1 is required")

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
    """Read a config file and apply --set section.key=value overrides in
    order (a later one wins): the one place where a setting is read."""
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
    if kind and exp.get("kind", kind) != kind:
        raise ConfigError(f"[experiment] kind={exp['kind']!r} contradicts the experiment {kind!r}")
    resolved_kind = kind or exp.get("kind")
    if resolved_kind is None:
        raise ConfigError("no experiment kind given (positional or [experiment] kind=...)")
    if resolved_kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {resolved_kind!r}; choose from {EXPERIMENTS}")
    out = sections.get("output", {})
    try:
        return ExperimentConfig(
            kind=resolved_kind,
            sections=sections,
            seed=int(exp.get("seed", 0)),
            out=out.get("path"),
            format=out.get("format", "csv"),
            workers=int(exp.get("workers", 1)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep {key}={spec!r} bounds must be finite")
    grid = np.linspace(start, stop, steps)
    if key in _INT_KEYS:
        vals = [int(round(v)) for v in grid]
        return sorted(set(vals))
    return [float(v) for v in grid]


@contextmanager
def _bad(where: str):
    """Scope in which a ValueError is a ConfigError about `where`; a
    ConfigError passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


def _section(cfg: ExperimentConfig, name: str, keys: tuple) -> dict:
    """The [name] section of cfg, or a ConfigError naming any key not in keys."""
    section = cfg.section(name)
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown [{name}] keys {unknown}; choose from {list(keys)}")
    return section


def _choice(section: dict, name: str, key: str, choices: dict):
    """choices[section[key]] (default 'both'), or a ConfigError naming the options."""
    value = section.get(key, "both")
    if value not in choices:
        raise ConfigError(f"bad [{name}] {key}={value!r}; choose from {sorted(choices)}")
    return choices[value]


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


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
    if len(sweeps) > 1:
        raise ConfigError("crb sweeps cover exactly one parameter")
    # one row per sweep value, or one row without a sweep column
    extras = [{key: v} for key, spec in sweeps.items() for v in _parse_sweep(spec, key)] or [{}]
    with _bad("[state]"):
        states = [state_from_kv({**state_kv, **extra}) for extra in extras]
    return _crb_rows(states, extras)


def _parse_search(cfg: ExperimentConfig, m_sweep: bool):
    """(family, m values, bracket_hi) of a [search] section; m may be swept."""
    search = _section(cfg, "search", ("family", "m", "bracket_hi"))
    family = search.get("family")
    if family is None:
        raise ConfigError(f"{cfg.kind} needs [search] family=...")
    spec = search.get("m")
    with _bad("[search]"):
        hi = float(search["bracket_hi"]) if "bracket_hi" in search else None
        if spec is not None and m_sweep and ":" in spec:
            ms = _parse_sweep(spec, "m")
        else:
            ms = [None if spec is None else int(spec)]
    return family, ms, hi


def _run_crossover(cfg: ExperimentConfig) -> list:
    family, (m,), hi = _parse_search(cfg, m_sweep=False)
    with _bad("[search]"):  # every search input is checked before any evaluation
        res = crb.find_crossover(family, m=m, bracket_hi=hi)
    alpha0, h2 = ("", "") if res is None else res
    return [{
        "family": family,
        "m": "" if m is None else m,
        "alpha0_star": alpha0,
        "h2_at_crossover": h2,
        "always_below_unity": res is None,
    }]


def _minima_rows(jobs: list, bracket_hi: float | None, where: str) -> list:
    """One row per (family, m) job: its gamma2 minimum, the searches run in
    lockstep."""
    with _bad(where):  # every search input is checked before any evaluation
        minima = crb.minimize_gamma2_grid(jobs, bracket_hi=bracket_hi)
    return [{"family": family, "m": "" if m is None else m, "alpha0_min": a0, "gamma2_min": g2}
            for (family, m), (a0, g2) in zip(jobs, minima)]


def _run_gamma2_min(cfg: ExperimentConfig) -> list:
    family, ms, hi = _parse_search(cfg, m_sweep=True)
    return _minima_rows([(family, m) for m in ms], hi, "[search]")


def _run_mc_verify(cfg: ExperimentConfig) -> list:
    state_kv = cfg.section("state")
    if not state_kv:
        raise ConfigError("mc-verify needs a [state] section")
    with _bad("[state]"):
        state = state_from_kv(state_kv)
    mc = _section(cfg, "mc", ("N", "trials", "n_theta", "scheme", "order"))
    with _bad("[mc]"):
        n_samples = int(mc.get("N", 100000))
        trials = int(mc.get("trials", 100))
        n_theta = int(mc.get("n_theta", estimators.N_THETA))
    schemes = _choice(mc, "mc", "scheme",
                      {"both": ("hom", "het"), "hom": ("hom",), "het": ("het",)})
    orders = _choice(mc, "mc", "order", {"both": ("first", "second"),
                                         "first": ("first",), "second": ("second",)})
    if trials < 2:
        raise ConfigError(f"bad [mc] trials={trials}: at least 2 are required")
    if n_theta < 3:
        raise ConfigError(f"bad [mc] n_theta={n_theta}: at least 3 LO phases are required")
    if n_samples < (n_theta if "hom" in schemes else 1):
        raise ConfigError(f"bad [mc] N={n_samples}: a homodyne run needs one sample "
                          f"per LO phase (N >= n_theta), a heterodyne run N >= 1")
    rep = crb.crb_report(state)
    bounds = {("hom", "first"): rep.h1_hom, ("het", "first"): rep.h1_het,
              ("hom", "second"): rep.h2_hom, ("het", "second"): rep.h2_het}
    rows = []
    for scheme in schemes:
        # one draw per trial feeds every order, on one seed per scheme whatever the orders
        results = estimators.monte_carlo_mse(
            state, scheme, orders, n_samples, trials, n_theta=n_theta,
            seed=derive_key(cfg.seed, {"hom": 11, "het": 21}[scheme]),
            workers=cfg.workers,
        )
        for order, res in zip(orders, results):
            bound = bounds[scheme, order]
            rows.append({
                "state": state_to_kv(state), "scheme": scheme, "order": order,
                "N": n_samples, "trials": trials,
                "n_theta": n_theta if scheme == "hom" else "",
                "scaled_mse": res.scaled_mse, "stderr": res.stderr,
                "scrb": bound, "ratio": res.scaled_mse / bound,
                "failures": res.failures,
            })
    return rows


def _gaussian_rows(columns: tuple, points, x0, p0, mu, lam) -> list:
    """One row per grid point: its columns, then gamma2 of the Gaussian state
    with mean (x0, p0) and shape (mu, lam) at phi = 0, where R(phi) is the
    identity and G = diag(mu/(2 lam), mu lam/2).  The grid goes to
    ``crb_grid`` as arrays over the points, with no object per point: the
    shapes are checked at the extremes of mu and lam (every value is finite
    and at least 1 if the least one is at least 1 and the largest one is
    finite; a NaN is both), and every point's state by one vectorized check."""
    with _bad("[sweep]"):
        for extreme in (np.min, np.max):
            GaussianShape(float(extreme(mu)), float(extreme(lam)))
        states = _GaussianStack(x0, p0, mu / (2.0 * lam), 0.0, mu * lam / 2.0)
    g2 = crb.crb_grid(states).gamma2.tolist()
    names = (*columns, "gamma2")
    return [dict(zip(names, (*point, g))) for point, g in zip(points, g2)]


def _grid(*axes: list) -> list:
    """The points of the product of the sweep axes, in the order of
    ``itertools.product``, as one array per axis."""
    return [g.ravel() for g in np.meshgrid(*map(np.asarray, axes), indexing="ij")]


def _run_fig2(cfg: ExperimentConfig) -> list:
    sweep = _section(cfg, "sweep", ("alpha0", "mu", "lam"))
    axes = (_parse_sweep(sweep.get("alpha0", "0:0.79:3"), "alpha0"),
            _parse_sweep(sweep.get("mu", "1:4:31"), "mu"),
            _parse_sweep(sweep.get("lam", "1:4:31"), "lam"))
    a, mu, lam = _grid(*axes)
    return _gaussian_rows(("alpha0", "mu", "lam"), itertools.product(*axes),
                          math.sqrt(2.0) * a, 0.0, mu, lam)


def _run_fig3(cfg: ExperimentConfig) -> list:
    sweep = _section(cfg, "sweep", ("mu", "x0", "p0"))
    axes = (_parse_sweep(sweep.get("mu", "1:8:4"), "mu"),
            _parse_sweep(sweep.get("x0", "-3:3:25"), "x0"),
            _parse_sweep(sweep.get("p0", "-3:3:25"), "p0"))
    mu, x0, p0 = _grid(*axes)
    return _gaussian_rows(("mu", "lam", "x0", "p0"),
                          ((m, m, x, p) for m, x, p in itertools.product(*axes)),
                          x0, p0, mu, mu)


def _run_fig4(cfg: ExperimentConfig) -> list:
    sweep = _section(cfg, "sweep", ("n",))
    ns = _parse_sweep(sweep.get("n", "0:30:31"), "n")
    with _bad("[sweep]"):
        states = [Fock(n) for n in ns]
    return _crb_rows(states, [{"n": n} for n in ns])


def _run_fig5(cfg: ExperimentConfig) -> list:
    sweep = _section(cfg, "sweep", ("alpha0",))
    alphas = _parse_sweep(sweep.get("alpha0", "0.05:3:60"), "alpha0")
    with _bad("[sweep]"):
        states = [EvenOddCoherent(a, p) for a in alphas for p in ("even", "odd")]
    g2 = crb.crb_grid(states).gamma2.tolist()
    return [{"alpha0": a, "gamma2_even": even, "gamma2_odd": odd}
            for a, even, odd in zip(alphas, g2[::2], g2[1::2])]


def _run_fig6(cfg: ExperimentConfig) -> list:
    sweep = _section(cfg, "sweep", ("m",))
    ms = _parse_sweep(sweep.get("m", "0:12:13"), "m")
    families = cfg.section("experiment").get("families", "displaced_fock,photon_added")
    return _minima_rows([(f.strip(), m) for f in families.split(",") for m in ms], None,
                        "fig6 family or m")


#: each experiment's body and the sections it reads besides [experiment] and [output]
_BODIES = {
    "crb": (_run_crb, ("state", "sweep")),
    "crossover": (_run_crossover, ("search",)),
    "gamma2-min": (_run_gamma2_min, ("search",)),
    "mc-verify": (_run_mc_verify, ("state", "mc")),
    "fig2": (_run_fig2, ("sweep",)),
    "fig3": (_run_fig3, ("sweep",)),
    "fig4": (_run_fig4, ("sweep",)),
    "fig5": (_run_fig5, ("sweep",)),
    "fig6": (_run_fig6, ("sweep",)),
}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the configured experiment and assemble its report.  A section
    the experiment does not read, or an unknown [experiment] or [output] key,
    is a ConfigError before anything is evaluated.  The config echo holds
    only the entries that decide the numbers: no [output] entry, and no
    experiment kind, seed or workers (kind and seed have their own lines)."""
    body, reads = _BODIES[cfg.kind]
    unread = sorted(set(cfg.sections) - {"experiment", "output", *reads})
    if unread:
        name = unread[0]
        raise ConfigError(f"unknown [{name}] keys {sorted(cfg.sections[name])}: "
                          f"{cfg.kind} reads no [{name}] section")
    _section(cfg, "output", ("path", "format"))
    _section(cfg, "experiment", ("kind", "seed", "workers", "families")
             if cfg.kind == "fig6" else ("kind", "seed", "workers"))
    rows = body(cfg)
    if not rows:
        raise ConfigError("experiment produced an empty row set")
    # kind and seed have their own lines; workers and [output] change no number
    echo = [f"{sec}.{key}={value}" for sec in sorted(cfg.sections) if sec != "output"
            for key, value in sorted(cfg.sections[sec].items())
            if sec != "experiment" or key not in ("kind", "seed", "workers")]
    meta = {
        "schema_version": SCHEMA_VERSION,
        "tool": f"mtlab {__version__}",
        "experiment": cfg.kind,
        "seed": cfg.seed,
        "config": ";".join(echo),
    }
    return ExperimentReport(meta=meta, rows=rows)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    """One CSV cell: floats to 12 significant digits, bools in lower case."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


#: what ``_fmt`` does to every cell of a column whose cells all have one of these types
_COLUMN_FORMATS = {float: "{:.12g}".format, int: str, str: str}


def report_to_csv(report: ExperimentReport) -> str:
    """The report as CSV: the metadata as '#' lines, a header row, then one
    line per row, each cell as ``_fmt`` writes it.  A column whose cells share
    one plain type is formatted in one pass, with no per-cell type tests."""
    buf = io.StringIO()
    for k, v in report.meta.items():
        buf.write(f"# {k}={v}\n")
    columns = list(report.rows[0].keys())
    buf.write(",".join(columns) + "\n")
    cells = []
    for c in columns:
        column = [row.get(c, "") for row in report.rows]
        kinds = set(map(type, column))
        fmt = _COLUMN_FORMATS.get(kinds.pop()) if len(kinds) == 1 else None
        cells.append(map(fmt or _fmt, column))
    buf.writelines(",".join(line) + "\n" for line in zip(*cells))
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
