"""Seedable synthetic data generation for both measurement schemes.

Randomness comes from numpy's Philox counter-based generator.  Substreams
are derived by hashing the user seed together with an integer path
(splitmix64 finalizer), so per-phase and per-trial streams are independent,
reproducible across platforms and safe to generate in parallel: the output
never depends on scheduling, only on (state, sizes, seed).

Each state family states its own draws next to its densities in
:mod:`mtlab.states`; the samplers here check the sizes and hand each phase
or scheme its substream.  The draws share the routines below: rejection,
``_rejection``, checks every tested point against its envelope, so each
draw is exact or raises SamplingError, and there is no approximate
fallback.  It tests a point through a bracket of the density, which
decides most tests of the cat densities without their interference
cosine (``_cos_bracket``) and takes the same decisions as the density
itself.  ``_polar_rows`` turns a radial draw into rows.

A heterodyne draw of n points holds its (n, 2) output plus the random
inputs it must keep at once: the radial variates (made radii in place)
and the angles of the Fock and photon-added draws, the photon-added degrees
of freedom and von Mises concentrations sharing one buffer; the normals of
the Gaussian draw;
for the cat, a byte per proposal of a batch for its mixture component and
one test chunk of proposal normals.  A rejection batch's uniforms and the
cat's component indices are drawn one test chunk at a time, so no
batch-long temporary is made and freed: freeing one raises glibc's dynamic
mmap threshold, and later draws then come from a heap that is kept, not
returned.  The cat's generator skips a batch's normals into one reused
test-chunk buffer, and a copy of it taken before them draws them again,
one test chunk at a time, for the chunks that are tested.  A chunked call
reads the random words of the whole-array call in the same order, so the
random stream and every drawn value are those of whole-array draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # states imports the draw routines from here
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
# the draw routines of the state families, and the samplers of both schemes
# ---------------------------------------------------------------------------

_SAFETY = 1.10
_MAX_BATCH = 4_000_000
# 64 KiB per float64 temporary: below glibc's default 128 KiB mmap threshold,
# so the density's temporaries reuse heap memory instead of faulting in
# fresh pages on every chunk
_TEST_CHUNK = 1 << 13


def _accept_into(out, filled, props, gen, accept):
    """Copy the proposals that pass accept(chunk, u) into out[filled:], in order.

    props is a batch: an array, tested in cache-sized chunks, or an iterator
    of such chunks.  Each chunk's uniforms u are drawn from gen just before
    it is tested, and testing stops once out is full.  The uniforms are a
    batch's last draws and nothing is drawn after the batch that fills out,
    so the stream is that of drawing all of a batch's uniforms at once; the
    surplus proposals are still drawn, but neither their uniforms nor their
    density are, and an iterator is not asked for them.
    """
    n = len(out)
    chunks = props
    if isinstance(props, np.ndarray):
        chunks = (props[lo:lo + _TEST_CHUNK] for lo in range(0, len(props), _TEST_CHUNK))
    for chunk in chunks:
        # random() reads the words and takes the values of uniform(0.0, 1.0)
        take = np.compress(accept(chunk, gen.random(len(chunk))), chunk, axis=0)[: n - filled]
        out[filled:filled + len(take)] = take
        filled += len(take)
        if filled == n:
            break
    return filled


def _exact_bracket(f):
    """The bracket (lo, hi, rest) of a density f with no bounded term: f itself."""
    return f, f, f.__getitem__


def _cos_bracket(s, t, w, d):
    """The bracket (lo, hi, rest) of the density f = (s + t cos w)/d, d > 0.

    rest(i) computes f at the points i in that order, fl(fl(s + fl(t cos w))/d).
    Under round-to-nearest, rounding is monotone, and |np.cos| <= 1 gives
    |fl(t cos w)| <= |t|; so lo = fl(fl(s - |t|)/d) <= f <= fl(fl(s + |t|)/d)
    = hi, with no cosine taken.  The density must be computed by rest, or in
    the same order, for the bracket to hold.
    """
    a = np.abs(t)
    return (s - a) / d, (s + a) / d, lambda i: (s[i] + t[i] * np.cos(w[i])) / d


def _density(bracket):
    """The density of a bracket at all of its points."""
    return bracket[2](())


def _accepted(bracket, u, c, e):
    """The rejection test u c e < f at points with envelope e, as a mask; f
    is the density that bracket = (lo, hi, rest) bounds.

    The bracket decides the test without f for points below lo (accept) and
    at or above hi (reject), a squeeze (Devroye, Non-Uniform Random Variate
    Generation, 1986, ch. II).  f is computed for the points left over and
    for every point with hi > c e, so the mask is that of testing u c e < f
    everywhere, and every point with f > c e (a peak the envelope scan
    missed) raises SamplingError instead of returning inexact draws.
    """
    lo, hi, rest = bracket
    x, ce = u * c * e, c * e
    keep = x < lo
    todo = (x >= lo) & (x < hi)
    todo |= hi > ce
    if todo.any():
        i = np.flatnonzero(todo)
        f = rest(i)
        if np.any(f > ce[i]):
            raise SamplingError(f"density exceeds the rejection envelope (c = {c:.6g})")
        keep[i] = x[i] < f
    return keep


def _rejection(bracket, env, propose, grid, n, gen):
    """n exact draws by rejection under the majorant c * env.

    bracket(pts) gives (lo, hi, rest): bounds lo <= f <= hi on the computed
    density f at the points, and rest(i), f at the points i; a density with
    no cheaper bounds is its own bracket (``_exact_bracket``).
    propose(gen, k) draws a batch of k points from the normalized density
    env (see ``_accept_into``); points are scalars or rows, like those of
    grid.  The constant c is the largest f/env over the grid points times
    _SAFETY, and each point is tested by ``_accepted``.
    """
    c = float(np.max(_density(bracket(grid)) / env(grid))) * _SAFETY
    if not math.isfinite(c) or c <= 0:
        raise SamplingError("rejection envelope scan failed")

    def accept(pts, u):
        return _accepted(bracket(pts), u, c, env(pts))

    out = np.empty((n,) + grid.shape[1:])
    filled = 0
    while filled < n:
        k = min(_MAX_BATCH, max(1024, int((n - filled) * c * 1.2)))
        # no name holds a batch, so it is freed before the next one is drawn
        filled = _accept_into(out, filled, propose(gen, k), gen, accept)
    return out


def _polar_rows(s: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Rows (r cos(ang), r sin(ang)) with r = sqrt(2 s), computed in place of s."""
    np.multiply(s, 2.0, out=s)
    np.sqrt(s, out=s)
    out = np.empty((len(s), 2))
    np.cos(ang, out=out[:, 0])
    np.sin(ang, out=out[:, 1])
    out *= s[:, None]
    return out


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
        samples.append(state._quadrature_draw(float(th), nk, gen))
    return HomodyneDataset(phases, samples)


def sample_heterodyne(state: StateModel, n_samples: int, seed: int) -> HeterodyneDataset:
    """Phase-space points i.i.d. from the Husimi function of the state."""
    if n_samples < 1:
        raise SamplingError("n_samples >= 1 required")
    return HeterodyneDataset(state._husimi_draw(int(n_samples), substream(seed, TAG_HET)))
