"""Seedable synthetic data generation for both measurement schemes.

Randomness comes from numpy's Philox counter-based generator.  Substreams
are derived by hashing the user seed together with an integer path
(splitmix64 finalizer), so per-phase and per-trial streams are independent,
reproducible across platforms and safe to generate in parallel: the output
never depends on scheduling, only on (state, sizes, seed).

Both samplers draw the core state of :mod:`mtlab.states` and add the
phase-space shift once, except the photon-added heterodyne draw, which is of
the whole state.  Gaussian quadrature samples are normal draws.  The
other families' quadrature samples are drawn from the core density by
rejection against a Gaussian envelope about the core's own <Y_theta>, with
variance three times the core's <Y_theta^2>, so a large displacement does
not widen the envelope.  Husimi samples are exact for Gaussian states
(covariance transform of G + I/2), Fock and displaced Fock states
(Gamma-distributed radius) and photon-added coherent states (a Poisson-like
mixture of Gamma radii with a von Mises phase, drawn for the whole state);
even/odd coherent states use rejection against a two-Gaussian mixture.
Both rejection draws share one routine, which checks every tested point
against its envelope: each draw is exact or raises SamplingError, and
there is no approximate fallback.

A heterodyne draw of n points holds its (n, 2) output plus the random
inputs it must keep at once: the Gamma variates (made radii in place) and
the angles of the Fock and photon-added draws, whose Gamma shapes and von
Mises concentrations share one buffer; the normals of the Gaussian draw;
for the cat, one batch of proposal normals and a byte per proposal for its
mixture component.  A rejection batch's uniforms are drawn one test chunk
at a time.  The generator calls, their order and their sizes are those of
whole-array draws, so the random stream and every drawn value are
unchanged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import states as st
from .phasespace import het_shift
from .special import log_factorial
from .states import StateModel

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

    @property
    def counts(self) -> np.ndarray:
        return np.array([len(s) for s in self.samples])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class HeterodyneDataset:
    """Phase-space scatter (x_j, p_j) distributed by the Husimi function."""

    points: np.ndarray


# ---------------------------------------------------------------------------
# rejection sampling
# ---------------------------------------------------------------------------

_SAFETY = 1.10
_MAX_BATCH = 4_000_000
# 64 KiB per float64 temporary: below glibc's default 128 KiB mmap threshold,
# so the density's temporaries reuse heap memory instead of faulting in
# fresh pages on every chunk
_TEST_CHUNK = 1 << 13


def _accept_into(out, filled, props, gen, accept):
    """Copy the proposals that pass accept(chunk, u) into out[filled:], in order.

    A batch is tested in cache-sized chunks, each with its uniforms u drawn
    from gen just before it is tested, and testing stops once out is full.
    The uniforms are a batch's last draws and nothing is drawn after the
    batch that fills out, so the stream is that of drawing all of a batch's
    uniforms at once; the surplus proposals are still drawn, but neither
    their uniforms nor their density are.
    """
    n = len(out)
    for lo in range(0, len(props), _TEST_CHUNK):
        if filled == n:
            break
        chunk = props[lo:lo + _TEST_CHUNK]
        take = chunk[accept(chunk, gen.uniform(0.0, 1.0, size=len(chunk)))][: n - filled]
        out[filled:filled + len(take)] = take
        filled += len(take)
    return filled


def _rejection(pdf, env, propose, grid, n, gen):
    """n exact draws from pdf by rejection under the majorant c * env.

    propose(gen, k) draws k points from the normalized density env; points
    are scalars or rows, like those of grid.  The constant c is the largest
    pdf/env over the grid points times _SAFETY.  Every tested point is
    checked against the majorant, and one with pdf > c * env (a peak the
    grid missed) raises SamplingError instead of returning inexact draws.
    """
    c = float(np.max(pdf(grid) / env(grid))) * _SAFETY
    if not math.isfinite(c) or c <= 0:
        raise SamplingError("rejection envelope scan failed")

    def accept(pts, u):
        e, f = env(pts), pdf(pts)
        if np.any(f > c * e):
            raise SamplingError(f"density exceeds the rejection envelope (c = {c:.6g})")
        return u * c * e < f

    out = np.empty((n,) + grid.shape[1:])
    filled = 0
    while filled < n:
        k = min(_MAX_BATCH, max(1024, int((n - filled) * c * 1.2)))
        # no name holds a batch, so it is freed before the next one is drawn
        filled = _accept_into(out, filled, propose(gen, k), gen, accept)
    return out


# ---------------------------------------------------------------------------
# 1-D quadrature sampling
# ---------------------------------------------------------------------------

_ENVELOPE_INFLATION = 3.0
_SCAN_NODES = 2049


def _sample_quadrature(state: StateModel, theta: float, n: int,
                       gen: np.random.Generator) -> np.ndarray:
    _, u1, u2, _, _, shift = st._core_quadrature(state, theta).tolist()
    if isinstance(state, st.Gaussian):
        core = gen.normal(u1, math.sqrt(u2 - u1 * u1), size=n)
    else:
        var_env = _ENVELOPE_INFLATION * u2
        sd, half = math.sqrt(var_env), 6.0 * math.sqrt(u2) + abs(u1)
        core = _rejection(
            lambda y: state._core_quadrature_pdf(theta, y),
            lambda y: np.exp(-0.5 * (y - u1) ** 2 / var_env) / math.sqrt(2 * math.pi * var_env),
            lambda g, k: g.normal(u1, sd, size=k),
            np.linspace(u1 - half, u1 + half, _SCAN_NODES), n, gen)
    return core + shift


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
    return HomodyneDataset(phases, samples)


# ---------------------------------------------------------------------------
# 2-D Husimi sampling
# ---------------------------------------------------------------------------

_SCAN_NODES_2D = 257
_MIXTURE_DEFECT = 1e-12


def _polar_rows(s: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Rows (r cos(ang), r sin(ang)) with r = sqrt(2 s), computed in place of s."""
    np.multiply(s, 2.0, out=s)
    np.sqrt(s, out=s)
    out = np.empty((len(s), 2))
    np.cos(ang, out=out[:, 0])
    np.sin(ang, out=out[:, 1])
    out *= s[:, None]
    return out


def _sample_fock_husimi(n_photon: int, n: int, gen: np.random.Generator) -> np.ndarray:
    s = gen.gamma(shape=n_photon + 1.0, scale=1.0, size=n)
    return _polar_rows(s, gen.uniform(0.0, 2.0 * math.pi, size=n))


def _sample_photon_added_husimi(state: st.PhotonAddedCoherent, n: int,
                                gen: np.random.Generator,
                                cutoff: int | None = None) -> np.ndarray:
    """Exact draw from Q ~ |alpha|^{2m} exp(-|alpha - alpha0|^2).

    In polar form s = |alpha|^2 is a mixture over k of Gamma(m + k + 1)
    with weights z0^k (m+k)! / (k!)^2, z0 = |alpha0|^2, which sum to
    m! 1F1(m+1; 1; z0); given s, arg(alpha) is von Mises about arg(alpha0)
    with concentration 2 sqrt(s z0).  The k-mixture is truncated at the
    Fock-space cutoff (default_cutoff of the state unless given) and the
    lost weight is checked against the full sum, e^z0 times the state's
    finite normalization mass (``states._photon_added_log_mass``).
    """
    alpha0, m = complex(state.alpha0), state.m
    z0 = abs(alpha0) ** 2
    if z0 == 0.0:
        return _sample_fock_husimi(m, n, gen)
    if cutoff is None:
        cutoff = st.default_cutoff(state)
    k = np.arange(cutoff + 1)
    logw = k * math.log(z0) + log_factorial(k + m) - 2.0 * log_factorial(k)
    top = float(np.max(logw))
    cdf = np.cumsum(np.exp(logw - top))
    log_ref = z0 + st._photon_added_log_mass(z0, m)
    defect = -math.expm1(top + math.log(cdf[-1]) - log_ref)
    if defect > _MIXTURE_DEFECT:
        raise SamplingError(
            f"photon-added Husimi mixture cutoff {cutoff} leaves weight "
            f"{defect:.3e} > {_MIXTURE_DEFECT:.1e}"
        )
    # one buffer holds the uniforms, then the Gamma shapes m + k + 1, then the
    # von Mises concentrations 2 sqrt(s z0), each written over the last
    buf = gen.random(n)
    np.add(np.searchsorted(cdf / cdf[-1], buf, side="right"), m + 1.0, out=buf)
    s = gen.gamma(shape=buf, scale=1.0)
    np.sqrt(np.multiply(s, z0, out=buf), out=buf)
    buf *= 2.0
    ang = gen.vonmises(cmath.phase(alpha0), buf)
    del buf  # freed before the (n, 2) output is made
    return _polar_rows(s, ang)


def sample_heterodyne(state: StateModel, n_samples: int, seed: int) -> HeterodyneDataset:
    """Phase-space points i.i.d. from the Husimi function of the state."""
    if n_samples < 1:
        raise SamplingError("n_samples >= 1 required")
    gen = substream(seed, TAG_HET)
    n = int(n_samples)
    if isinstance(state, st.PhotonAddedCoherent):  # exact for the whole state, shift included
        return HeterodyneDataset(_sample_photon_added_husimi(state, n, gen))
    if isinstance(state, st.Gaussian):
        chol = np.linalg.cholesky(het_shift(state.g).as_array())
        core = gen.normal(size=(n, 2)) @ chol.T
    elif isinstance(state, (st.Fock, st.DisplacedFock)):
        core = _sample_fock_husimi(state._vector.size - 1, n, gen)  # core |n>
    else:  # even/odd coherent
        ghet = het_shift(st.covariance(state)).as_array()
        var_env = 2.0 * float(np.max(np.linalg.eigvalsh(ghet)))
        a0 = complex(state.alpha0)
        r0 = np.array([math.sqrt(2.0) * a0.real, math.sqrt(2.0) * a0.imag])
        centers = np.array([r0, -r0])

        def env(pts):  # equal-weight mixture of isotropic Gaussians about +-r0
            acc = np.zeros(len(pts))
            for cx, cp in centers:
                acc += np.exp(-0.5 * ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cp) ** 2) / var_env)
            return acc / (4 * math.pi * var_env)

        sd = math.sqrt(var_env)

        def propose(g, k):  # the centre of each normal pair is added in place
            # another dtype would change the stream, so the int64 draw is
            # narrowed to a byte per proposal afterwards
            side = g.integers(0, 2, size=k).astype(np.uint8)
            pts = g.normal(0.0, sd, size=(k, 2))
            for lo in range(0, k, _TEST_CHUNK):
                pts[lo:lo + _TEST_CHUNK] += centers[side[lo:lo + _TEST_CHUNK]]
            return pts

        half = 6.0 * sd + float(np.hypot(*r0))
        xs = np.linspace(-half, half, _SCAN_NODES_2D)
        core = _rejection(
            lambda pts: state._core_husimi_pdf(pts[:, 0], pts[:, 1]), env, propose,
            np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2), n, gen)
    core += state._moments.shift[0]
    return HeterodyneDataset(core)
