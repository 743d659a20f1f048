"""Seedable synthetic data generation for both measurement schemes.

Randomness comes from numpy's Philox counter-based generator.  Substreams
are derived by hashing the user seed together with an integer path
(splitmix64 finalizer), so per-phase and per-trial streams are independent,
reproducible across platforms and safe to generate in parallel: the output
never depends on scheduling, only on (state, sizes, seed).

Non-Gaussian quadrature samples are drawn by rejection against a Gaussian
envelope whose variance is three times the state's <X_theta^2>, with the
envelope constant found by a grid scan; a tabulated inverse-CDF on 4096
nodes takes over if the predicted acceptance drops below 10 percent.
Both rejection samplers test a batch in cache-sized chunks and stop once
the output is full, so the batch surplus is drawn but never evaluated.
The photon-added quadrature density is a sum of m+1 displaced
oscillator eigenfunctions, so its rejection loop costs a few recurrence
steps per point.  Husimi samples are exact for Gaussian states (covariance
transform of G + I/2), Fock and displaced Fock states (Gamma-distributed
radius) and photon-added coherent states (a Poisson-like mixture of Gamma
radii with a von Mises phase); even/odd coherent states use
mixture-envelope rejection.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass

import numpy as np

from . import states as st
from .phasespace import het_shift
from .special import hyp1f1_log, log_factorial
from .states import StateModel, state_to_kv

__all__ = [
    "HomodyneDataset",
    "HeterodyneDataset",
    "SamplingError",
    "derive_key",
    "substream",
    "sample_homodyne",
    "sample_heterodyne",
]

_MASK64 = (1 << 64) - 1
# stream-kind tags keep phase, trial and scheme substreams disjoint
TAG_PHASE = 0x9E3779B9
TAG_HET = 0x85EBCA6B
TAG_TRIAL = 0xC2B2AE35


class SamplingError(RuntimeError):
    """Envelope construction or size validation failed."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, *path: int) -> int:
    """64-bit substream key: seed xor-hashed with each path element in turn."""
    h = int(seed) & _MASK64
    for p in path:
        h = _splitmix64(h ^ _splitmix64(int(p) & _MASK64))
    return h


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox generator for the given seed and stream path."""
    k = derive_key(seed, *path)
    key = k | (_splitmix64(k) << 64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomodyneDataset:
    """Per-LO-phase quadrature samples; phases equally spaced in [0, pi)."""

    phases: np.ndarray
    samples: list
    seed: int
    state_kv: str = ""

    @property
    def counts(self) -> np.ndarray:
        return np.array([len(s) for s in self.samples])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("# schema=mtlab.homodyne.v1\n")
        buf.write(f"# state={self.state_kv}\n")
        buf.write(f"# n_theta={len(self.phases)}\n")
        buf.write(f"# N={self.total}\n")
        buf.write(f"# seed={self.seed}\n")
        buf.write("theta,x\n")
        for th, xs in zip(self.phases, self.samples):
            tr = repr(float(th))
            for x in xs:
                buf.write(f"{tr},{float(x)!r}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class HeterodyneDataset:
    """Phase-space scatter (x_j, p_j) distributed by the Husimi function."""

    points: np.ndarray
    seed: int
    state_kv: str = ""

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("# schema=mtlab.heterodyne.v1\n")
        buf.write(f"# state={self.state_kv}\n")
        buf.write(f"# N={len(self.points)}\n")
        buf.write(f"# seed={self.seed}\n")
        buf.write("x,p\n")
        for x, p in self.points:
            buf.write(f"{float(x)!r},{float(p)!r}\n")
        return buf.getvalue()


def dataset_from_csv(text: str):
    """Parse either dataset CSV schema back into its dataset object."""
    meta = {}
    rows = []
    header = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            k, _, v = line[1:].strip().partition("=")
            meta[k.strip()] = v.strip()
        elif header is None:
            header = line.strip()
        else:
            rows.append(tuple(float(t) for t in line.split(",")))
    data = np.array(rows) if rows else np.empty((0, 2))
    seed = int(meta.get("seed", 0))
    if meta.get("schema") == "mtlab.homodyne.v1":
        phases = np.unique(data[:, 0])
        samples = [data[data[:, 0] == th, 1] for th in phases]
        return HomodyneDataset(phases, samples, seed, meta.get("state", ""))
    if meta.get("schema") == "mtlab.heterodyne.v1":
        return HeterodyneDataset(data, seed, meta.get("state", ""))
    raise ValueError("unrecognized dataset schema")


# ---------------------------------------------------------------------------
# 1-D quadrature sampling
# ---------------------------------------------------------------------------

_ENVELOPE_INFLATION = 3.0
_SCAN_NODES = 2049
_SAFETY = 1.10
_ICDF_NODES = 4096
_MIN_ACCEPTANCE = 0.10
_MAX_BATCH = 4_000_000
_TEST_CHUNK = 1 << 16


def _accept_into(out, filled, props, u, accept):
    """Copy the proposals that pass accept(chunk, u) into out[filled:], in order.

    A batch is tested in cache-sized chunks and testing stops once out is
    full: the surplus proposals are still drawn, so the random stream is
    the same, but their density is never evaluated.
    """
    n = len(out)
    for lo in range(0, len(props), _TEST_CHUNK):
        if filled == n:
            break
        chunk = props[lo:lo + _TEST_CHUNK]
        take = chunk[accept(chunk, u[lo:lo + _TEST_CHUNK])][: n - filled]
        out[filled:filled + len(take)] = take
        filled += len(take)
    return filled


def _envelope_constant(pdf, center, var_env, half_width):
    xs = np.linspace(center - half_width, center + half_width, _SCAN_NODES)
    env = np.exp(-0.5 * (xs - center) ** 2 / var_env) / math.sqrt(2 * math.pi * var_env)
    ratio = pdf(xs) / env
    c = float(np.max(ratio)) * _SAFETY
    if not math.isfinite(c) or c <= 0:
        raise SamplingError(
            f"rejection envelope scan failed (center={center}, var={var_env})"
        )
    return c


def _rejection_1d(pdf, center, var_env, half_width, n, gen):
    c = _envelope_constant(pdf, center, var_env, half_width)
    if 1.0 / c < _MIN_ACCEPTANCE:
        return _inverse_cdf_1d(pdf, center, half_width, n, gen)
    sd = math.sqrt(var_env)

    def accept(xs, u):
        env = np.exp(-0.5 * (xs - center) ** 2 / var_env) / math.sqrt(2 * math.pi * var_env)
        return u * c * env < pdf(xs)

    out = np.empty(n)
    filled = 0
    while filled < n:
        k = min(_MAX_BATCH, max(1024, int((n - filled) * c * 1.2)))
        xs = gen.normal(center, sd, size=k)
        filled = _accept_into(out, filled, xs, gen.uniform(0.0, 1.0, size=k), accept)
    return out


def _inverse_cdf_1d(pdf, center, half_width, n, gen):
    xs = np.linspace(center - half_width, center + half_width, _ICDF_NODES)
    dens = pdf(xs)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
    if cdf[-1] <= 0:
        raise SamplingError("inverse-CDF table is degenerate")
    cdf /= cdf[-1]
    u = gen.uniform(0.0, 1.0, size=n)
    return np.interp(u, cdf, xs)


def _sample_quadrature(state: StateModel, theta: float, n: int,
                       gen: np.random.Generator) -> np.ndarray:
    t = st.quadrature_moments(state, theta)
    if isinstance(state, st.Gaussian):
        return gen.normal(t.m1, math.sqrt(t.m2 - t.m1 * t.m1), size=n)
    if isinstance(state, st.DisplacedFock):
        # exact: the displaced density is the Fock density shifted by <X_theta>
        inner = st.Fock(state.m)
        ti = st.quadrature_moments(inner, 0.0)
        x = _rejection_1d(lambda v: st.quadrature_pdf(inner, 0.0, v),
                          0.0, _ENVELOPE_INFLATION * ti.m2,
                          6.0 * math.sqrt(ti.m2), n, gen)
        return x + t.m1
    pdf = lambda v: st.quadrature_pdf(state, theta, v)
    half_width = 6.0 * math.sqrt(t.m2) + abs(t.m1)
    return _rejection_1d(pdf, t.m1, _ENVELOPE_INFLATION * t.m2, half_width, n, gen)


def sample_homodyne(state: StateModel, n_theta: int, n_samples: int,
                    seed: int) -> HomodyneDataset:
    """Homodyne records at n_theta equally spaced LO phases in [0, pi).

    The n_samples events are split as evenly as possible over the phases,
    with the remainder assigned to the lowest phase indices; per-phase
    samples are i.i.d. draws from the quadrature density.
    """
    if n_theta < 3:
        raise SamplingError("n_theta >= 3 is required for moment identifiability")
    if n_samples < n_theta:
        raise SamplingError("need at least one sample per phase")
    phases = np.arange(n_theta) * (math.pi / n_theta)
    base, rem = divmod(int(n_samples), n_theta)
    samples = []
    for k, th in enumerate(phases):
        nk = base + (1 if k < rem else 0)
        gen = substream(seed, TAG_PHASE, k)
        samples.append(_sample_quadrature(state, float(th), nk, gen))
    return HomodyneDataset(phases, samples, int(seed), state_to_kv(state))


# ---------------------------------------------------------------------------
# 2-D Husimi sampling
# ---------------------------------------------------------------------------

_SCAN_NODES_2D = 257
_MIXTURE_DEFECT = 1e-12


def _sample_fock_husimi(n_photon: int, n: int, gen: np.random.Generator) -> np.ndarray:
    s = gen.gamma(shape=n_photon + 1.0, scale=1.0, size=n)
    r = np.sqrt(2.0 * s)
    ang = gen.uniform(0.0, 2.0 * math.pi, size=n)
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _sample_photon_added_husimi(alpha0: complex, m: int, n: int,
                                gen: np.random.Generator,
                                cutoff: int | None = None) -> np.ndarray:
    """Exact draw from Q ~ |alpha|^{2m} exp(-|alpha - alpha0|^2).

    In polar form s = |alpha|^2 is a mixture over k of Gamma(m + k + 1)
    with weights z0^k (m+k)! / (k!)^2, z0 = |alpha0|^2, which sum to
    m! 1F1(m+1; 1; z0); given s, arg(alpha) is von Mises about arg(alpha0)
    with concentration 2 sqrt(s z0).  The k-mixture is truncated at the
    Fock-space cutoff and the lost weight is checked against the 1F1 sum.
    """
    z0 = abs(alpha0) ** 2
    if z0 == 0.0:
        return _sample_fock_husimi(m, n, gen)
    if cutoff is None:
        cutoff = st.default_cutoff(st.PhotonAddedCoherent(alpha0, m))
    k = np.arange(cutoff + 1)
    logw = k * math.log(z0) + log_factorial(k + m) - 2.0 * log_factorial(k)
    top = float(np.max(logw))
    cdf = np.cumsum(np.exp(logw - top))
    log_ref = log_factorial(m) + hyp1f1_log(m + 1, 1, z0)
    defect = -math.expm1(top + math.log(cdf[-1]) - log_ref)
    if defect > _MIXTURE_DEFECT:
        raise SamplingError(
            f"photon-added Husimi mixture cutoff {cutoff} leaves weight "
            f"{defect:.3e} > {_MIXTURE_DEFECT:.1e}"
        )
    ks = np.searchsorted(cdf / cdf[-1], gen.random(n), side="right")
    s = gen.gamma(shape=m + 1.0 + ks, scale=1.0)
    ang = gen.vonmises(cmath.phase(alpha0), 2.0 * np.sqrt(s * z0))
    r = np.sqrt(2.0 * s)
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _rejection_2d(qpdf, centers, var_env, n, gen, scan_center, scan_half):
    """Rejection against an equal-weight isotropic Gaussian mixture."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    m = len(centers)

    def env(x, p):
        acc = np.zeros(len(x))
        for cx, cp in centers:
            d2 = (x - cx) ** 2 + (p - cp) ** 2
            acc += np.exp(-0.5 * d2 / var_env)
        return acc / (m * 2 * math.pi * var_env)

    xs = np.linspace(scan_center[0] - scan_half, scan_center[0] + scan_half, _SCAN_NODES_2D)
    ps = np.linspace(scan_center[1] - scan_half, scan_center[1] + scan_half, _SCAN_NODES_2D)
    gx, gp = (g.ravel() for g in np.meshgrid(xs, ps, indexing="ij"))
    c = float(np.max(qpdf(gx, gp) / env(gx, gp))) * _SAFETY
    if not math.isfinite(c) or c <= 0:
        raise SamplingError("Husimi rejection envelope scan failed")

    def accept(pts, u):
        x, p = pts[:, 0], pts[:, 1]
        return u * c * env(x, p) < qpdf(x, p)

    sd = math.sqrt(var_env)
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        k = min(_MAX_BATCH, max(1024, int((n - filled) * c * 1.2)))
        idx = gen.integers(0, m, size=k)
        pts = centers[idx] + gen.normal(0.0, sd, size=(k, 2))
        filled = _accept_into(out, filled, pts, gen.uniform(0.0, 1.0, size=k), accept)
    return out


def sample_heterodyne(state: StateModel, n_samples: int, seed: int) -> HeterodyneDataset:
    """Phase-space points i.i.d. from the Husimi function of the state."""
    if n_samples < 1:
        raise SamplingError("n_samples >= 1 required")
    gen = substream(seed, TAG_HET)
    n = int(n_samples)
    if isinstance(state, st.Gaussian):
        ghet = het_shift(state.g).as_array()
        chol = np.linalg.cholesky(ghet)
        pts = state.r0.as_array() + gen.normal(size=(n, 2)) @ chol.T
    elif isinstance(state, st.Fock):
        pts = _sample_fock_husimi(state.n, n, gen)
    elif isinstance(state, st.DisplacedFock):
        a0 = complex(state.alpha0)
        shift = np.array([math.sqrt(2.0) * a0.real, math.sqrt(2.0) * a0.imag])
        pts = _sample_fock_husimi(state.m, n, gen) + shift
    elif isinstance(state, st.PhotonAddedCoherent):
        pts = _sample_photon_added_husimi(complex(state.alpha0), state.m, n, gen)
    else:  # even/odd coherent
        h = st.husimi_moments(state)
        ghet = het_shift(st.covariance(state)).as_array()
        var_env = 2.0 * float(np.max(np.linalg.eigvalsh(ghet)))
        a0 = complex(state.alpha0)
        r0 = np.array([math.sqrt(2.0) * a0.real, math.sqrt(2.0) * a0.imag])
        centers = [r0, -r0]
        scan_half = 6.0 * math.sqrt(var_env) + float(np.hypot(h.mx, h.mp)) + float(np.hypot(*r0))
        pts = _rejection_2d(lambda x, p: st.husimi_pdf(state, x, p), centers,
                            var_env, n, gen, (0.0, 0.0), scan_half)
    return HeterodyneDataset(pts, int(seed), state_to_kv(state))
