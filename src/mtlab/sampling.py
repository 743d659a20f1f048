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
fallback.  It tests a point through a bracket of the density: the density
itself (``_exact_bracket``), or for the cat's Husimi density bounds that
decide most tests without its interference cosine (``_cos_bracket``),
with the same decisions as the density itself.  ``_polar_rows`` turns a
radial draw into rows.

A homodyne rejection draw first puts each proposal in a cell of a table
(``_cells``), built once per (state, phase) over the envelope centre +- 5
standard deviations.  Each cell has proven bounds f_lo <= fl(f) <= f_hi on
the computed density and e_lo <= fl(env) <= e_hi on the envelope, from
Taylor's theorem with a bound M2 >= sup |f''| and a stated rounding
margin.  Divided by c e_hi and c e_lo they are thresholds on the uniform u
(``_thresholds``): u below the lower one accepts, u at or above the upper
one rejects, and the point takes neither the density nor the envelope (a
squeeze: Devroye, Non-Uniform Random Variate Generation, 1986, ch. II).
Each decision is that of u c e < f, so the draws and the stream are those of
testing every point.  The points left undecided, those outside the table,
and every point of a cell whose f_hi may exceed c e_lo (where the density
could pass its envelope and must raise) are tested by ``_accepted``, on
the density itself.

A homodyne draw of n points holds its output and one batch of proposals
with a byte each for its decisions.  A heterodyne draw yields its points in
blocks of one test chunk of rows (``_husimi_blocks``), in the order of the
stream, and holds one block and one test chunk of random inputs: every
family draws each of its variates (normals, Gamma or noncentral chi-square
radii, angles, mixture components) one test chunk at a time, pass after
pass.  A pass over all n points before any row is finished (the Fock and
displaced-Fock radii; the photon-added degrees of freedom, overwritten in
place by the radii) writes one n-long array; the cat holds a byte per
proposal of a batch for its mixture component and one test chunk of
proposal normals, and scans its envelope one test chunk of nodes at a time.
``sample_homodyne`` keeps each phase's draw, and ``sample_heterodyne``
writes the blocks into its (n, 2) output, whose column 0 holds the radii;
a Monte-Carlo trial (:mod:`mtlab.estimators`) folds each phase or block into
its power sums as it is drawn and drops it.  A rejection batch's uniforms
and the cat's component indices are drawn one test chunk at a time, so no
batch-long temporary is made and freed: freeing one raises glibc's dynamic
mmap threshold, and later draws then come from a heap that is kept, not
returned.  The cat's generator skips a batch's normals into one reused
test-chunk buffer, and a copy of it taken before them draws them again, one
test chunk at a time, for the chunks that are tested.  A chunked call reads
the random words of the whole-array call in the same order, so the random
stream and every drawn value are those of whole-array draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

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
# relative slack of the cell thresholds and of a cell's radius: far above the
# relative rounding of the envelope within the table (below 1e-13) and of the
# products u c e, and above the rounding of a point's cell index
_CELL_SLACK = 1e-9


def _chunks(n: int):
    """The slices of range(n), one test chunk each, in order."""
    return (slice(lo, min(lo + _TEST_CHUNK, n)) for lo in range(0, n, _TEST_CHUNK))


def _accept_chunks(need, chunks, gen, accept):
    """The proposals that pass accept(chunk, u), chunk by chunk, in order, up
    to need of them in all.

    chunks is a batch, as an iterator of cache-sized chunks of proposals.
    Each chunk's uniforms u are drawn from gen just before it is tested, and
    testing stops once need proposals have passed.  The uniforms are a
    batch's last draws and nothing is drawn after the batch that fills the
    draw, so the stream is that of drawing all of a batch's uniforms at once;
    the surplus proposals are still drawn, but neither their uniforms nor
    their density are, and the iterator is not asked for them.
    """
    for chunk in chunks:
        # random() reads the words and takes the values of uniform(0.0, 1.0)
        take = np.compress(accept(chunk, gen.random(len(chunk))), chunk, axis=0)[:need]
        yield take
        need -= len(take)
        if need == 0:
            return


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


class _Cells(NamedTuple):
    """Bounds f_lo <= fl(f) <= f_hi and e_lo <= fl(env) <= e_hi over cells.

    Cell k = 1..K holds the points y with trunc(fl(fl(y - origin) * fl(1 /
    width))) = k; its arrays are at index k - 1.
    """

    origin: float
    width: float
    f_lo: np.ndarray
    f_hi: np.ndarray
    e_lo: np.ndarray
    e_hi: np.ndarray


def _cells(taylor, env, centre, half, width):
    """Proven bounds of a 1-D density f and of an envelope env unimodal about
    centre, over cells of the given width that span centre +- half.

    taylor(y) gives (f(y), f'(y), M2, margin) at the cell midpoints y, with
    M2 >= sup |f''| and margin (a scalar or one per cell) at least the
    rounding |fl(f(x)) - f(x)| at any point x of the cell plus that of f(y)
    and r |fl(f'(y)) - f'(y)|.  Over |x - y| <= r, Taylor's theorem with the
    Lagrange remainder gives |f(x) - f(y)| <= |f'(y)| r + M2 r^2 / 2, so

        f_lo = f(y) - |f'(y)| r - M2 r^2 / 2 - margin <= fl(f(x)) <= f_hi,

    with f_hi the same sum with + signs.  The radius r exceeds the half width
    by width * _CELL_SLACK + 8 eps (|origin| + (K + 2) width): more than the
    rounding of a point's cell index (3 eps relative) and of the midpoint,
    so every point the index puts in a cell is within r of its midpoint.
    env is evaluated at y +- r: its largest value over the cell is the
    larger end, or env(centre) when centre is within r of y, and its
    smallest the smaller end, each within the relative rounding that
    ``_thresholds`` allow for.
    """
    k = math.ceil(2.0 * half / width)
    origin = centre - half - width
    mid = origin + (np.arange(1, k + 1) + 0.5) * width
    eps = float(np.finfo(float).eps)
    r = 0.5 * width + width * _CELL_SLACK + 8.0 * eps * (abs(origin) + (k + 2) * width)
    f, fp, m2, margin = taylor(mid)
    spread = np.abs(fp) * r + 0.5 * m2 * r * r + margin
    ea, eb = env(mid - r), env(mid + r)
    e_hi = np.where(np.abs(mid - centre) <= r, env(np.asarray(centre, dtype=float)),
                    np.maximum(ea, eb))
    return _Cells(origin, width, f - spread, f + spread, np.minimum(ea, eb), e_hi)


def _thresholds(cells, c):
    """The thresholds (t_lo, t_hi) on u of the ``_Cells`` for the majorant
    c env, at the cell indices 0..K + 1.

    t_lo = f_lo / (c e_hi) (1 - s) and t_hi = f_hi / (c e_lo) (1 + s),
    s = _CELL_SLACK.  The rejection test computes x = fl(fl(u c) e), within
    3 ulp of u c e, and the computed e is within a relative s/4 of
    [e_lo, e_hi]; so u < t_lo gives x < f_lo <= fl(f), an accept (t_lo <= 0
    accepts nothing, as u >= 0), and u >= t_hi gives x > f_hi >= fl(f), or
    x >= 0 >= f_hi, a reject: the decisions of ``_accepted``.  A point with fl(f) > fl(c e)
    must raise SamplingError, so a cell with f_hi >= c e_lo (1 - s), where
    one might lie, decides none of its points (t_lo = -inf, t_hi = inf); nor
    do the guard cells 0 and K + 1, which take every point outside the
    table.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # an envelope bound may be 0
        tlo = cells.f_lo / (c * cells.e_hi) * (1.0 - _CELL_SLACK)
        thi = cells.f_hi / (c * cells.e_lo) * (1.0 + _CELL_SLACK)
    undecided = ~(cells.f_hi < c * cells.e_lo * (1.0 - _CELL_SLACK))
    tlo[undecided], thi[undecided] = -np.inf, np.inf
    return (np.concatenate([[-np.inf], tlo, [-np.inf]]),
            np.concatenate([[np.inf], thi, [np.inf]]))


def _accept_by_cells(need, props, gen, accept, cells, c):
    """``_accept_chunks`` for a batch array of scalar points, which cells
    (``_Cells``) decide first, by their ``_thresholds`` for the majorant c env.

    A chunk's cells decide most of its points at once, with neither the
    density nor the envelope computed.  The points they leave are tested
    together by accept (``_accepted``), and the proposals passed on, only
    when the draw might be full: when the points accepted and left undecided
    since the last such step reach need.  So testing stops after the chunk
    that fills the draw, as in ``_accept_chunks``, and the stream and the
    draws are the same.
    """
    tlo, thi = _thresholds(cells, c)
    origin, inv = cells.origin, 1.0 / cells.width
    m = len(props)
    keep = np.empty(m, dtype=bool)
    # done: props[:done] are passed on; bound: the points accepted or left
    # undecided since; left: (index, u) of each chunk's undecided points
    done, bound, left = 0, 0, []
    for sl in _chunks(m):
        pts, u = props[sl], gen.random(sl.stop - sl.start)
        k = ((pts - origin) * inv).astype(np.intp)  # clipped, past the table is a guard cell
        sure = np.less(u, tlo.take(k, mode="clip"), out=keep[sl])
        maybe = u < thi.take(k, mode="clip")
        bound += np.count_nonzero(maybe)
        maybe ^= sure  # u < t_lo implies u < t_hi: t_lo <= t_hi wherever t_lo > 0
        i = np.flatnonzero(maybe)
        left.append((i + sl.start, u[i]))
        if bound < need and sl.stop < m:
            continue
        idx = np.concatenate([i for i, _ in left])
        if len(idx):
            keep[idx] = accept(props[idx], np.concatenate([v for _, v in left]))
        take = np.compress(keep[done:sl.stop], props[done:sl.stop])[:need]
        yield take
        need -= len(take)
        if need == 0:
            return
        done, bound, left = sl.stop, 0, []


def _rejection(bracket, env, propose, grid, n, gen, cells=None):
    """n exact draws by rejection under the majorant c * env, in blocks of
    _TEST_CHUNK points (``_blocks``).

    bracket(pts) gives (lo, hi, rest): bounds lo <= f <= hi on the computed
    density f at the points, and rest(i), f at the points i; a density with
    no cheaper bounds is its own bracket (``_exact_bracket``).
    propose(gen, k) draws a batch of k points from the normalized density
    env, as an iterator of chunks (``_accept_chunks``), or as an array of
    scalar points when cells are given.  grid is an iterable of arrays of
    scan nodes, scalars or rows like the points.  The constant c is the
    largest f/env over the nodes times _SAFETY, taken one array at a time,
    and each point is tested by ``_accepted``, unless cells
    (``_Cells`` of scalar points) are given and decide it first
    (``_accept_by_cells``): the decisions and the stream are the same.
    """
    c = float(np.max([np.max(_density(bracket(g)) / env(g)) for g in grid])) * _SAFETY
    if not math.isfinite(c) or c <= 0:
        raise SamplingError("rejection envelope scan failed")

    def accept(pts, u):
        return _accepted(bracket(pts), u, c, env(pts))

    def takes():
        left = n
        while left:
            k = min(_MAX_BATCH, max(1024, int(left * c * 1.2)))
            # no name holds a batch, so it is freed before the next one is drawn
            for take in (_accept_chunks(left, propose(gen, k), gen, accept) if cells is None
                         else _accept_by_cells(left, propose(gen, k), gen, accept, cells, c)):
                left -= len(take)
                yield take

    return _blocks(takes())


def _blocks(takes):
    """The points of takes, arrays of any length, in blocks of _TEST_CHUNK
    points, the last one short."""
    block, filled = None, 0
    for take in takes:
        while len(take):
            if block is None:
                block, filled = np.empty((_TEST_CHUNK,) + take.shape[1:]), 0
            m = min(len(take), _TEST_CHUNK - filled)
            block[filled:filled + m] = take[:m]
            take, filled = take[m:], filled + m
            if filled == _TEST_CHUNK:
                yield block
                block = None
    if block is not None:
        yield block[:filled]


def _write_blocks(blocks, out):
    """Write blocks of _TEST_CHUNK points, the last one short, into out in
    order; return out."""
    for sl, block in zip(_chunks(len(out)), blocks):
        out[sl] = block
    return out


def _polar_rows(s: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """The rows (r cos(ang), r sin(ang)), r = sqrt(2 s)."""
    r = np.sqrt(s * 2.0)
    rows = np.empty((len(ang), 2))
    np.cos(ang, out=rows[:, 0])
    np.sin(ang, out=rows[:, 1])
    rows *= r[:, None]
    return rows


def _phase_draws(state: StateModel, n_theta: int, n_samples: int, seed: int):
    """The n_theta LO phases, equally spaced in [0, pi), and an iterator of
    the draw at each phase in turn, on that phase's substream.

    The n_samples events are split as evenly as possible over the phases,
    with the remainder assigned to the lowest phase indices.
    """
    if n_theta < 3:
        raise SamplingError("n_theta >= 3 is required for moment identifiability")
    if n_samples < n_theta:
        raise SamplingError("need at least one sample per phase")
    phases = np.arange(n_theta) * (math.pi / n_theta)
    base, rem = divmod(int(n_samples), n_theta)
    return phases, (state._quadrature_draw(float(th), base + (1 if k < rem else 0),
                                           substream(seed, TAG_PHASE, k))
                    for k, th in enumerate(phases))


def sample_homodyne(state: StateModel, n_theta: int, n_samples: int,
                    seed: int) -> HomodyneDataset:
    """Homodyne records at n_theta equally spaced LO phases in [0, pi).

    The n_samples events are split as evenly as possible over the phases,
    with the remainder assigned to the lowest phase indices; per-phase
    samples are i.i.d. draws from the quadrature density.
    """
    phases, draws = _phase_draws(state, n_theta, n_samples, seed)
    return HomodyneDataset(phases, list(draws))


def _heterodyne_count(n_samples) -> int:
    if n_samples < 1:
        raise SamplingError("n_samples >= 1 required")
    return int(n_samples)


def _husimi_blocks(state: StateModel, n_samples: int, seed: int, radii=None):
    """The points of a heterodyne draw in blocks of _TEST_CHUNK rows, the last
    one short, on the scheme's substream.

    radii, if given, is an n_samples-long float64 array (a strided view will
    do) for a pass over all the points before any row is finished; a draw
    that makes such a pass allocates one otherwise.
    """
    return state._husimi_blocks(_heterodyne_count(n_samples), substream(seed, TAG_HET), radii)


def sample_heterodyne(state: StateModel, n_samples: int, seed: int) -> HeterodyneDataset:
    """Phase-space points i.i.d. from the Husimi function of the state."""
    out = np.empty((_heterodyne_count(n_samples), 2))
    # column 0 holds the radii of a draw that makes a pass over them, and
    # each block is written over its own radii once they are used
    return HeterodyneDataset(_write_blocks(_husimi_blocks(state, n_samples, seed, out[:, 0]),
                                           out))
