"""Fisher matrices, scaled Cramer-Rao bounds and performance-ratio searches.

Scaled bounds are the N-independent coefficients H such that the optimal
mean squared error behaves like H/N: H1 for the two first-moment parameters
and H2 for the three second-moment parameters (vectorized as a1 = <X^2>,
a2 = <{dX,dP}>/2 with a sqrt(2) weight, a3 = <P^2>).

The homodyne Fisher matrices are phase averages of M_theta / Var.  For the
first moments Var = u^T G u, the average is (G + sqrt(det G) I)^-1 and the
bound, the trace of its inverse, is Tr G + 2 sqrt(det G).  For the second
moments Var(X_theta^2) is, for every state, a trigonometric polynomial with
the harmonics {0, 2 theta, 4 theta}: eight phase samples fix it, and the
trapezoid rule on the rebuilt variance gives the average.

The second-moment bounds have one route, ``crb_grid``, an array computation
over a sequence of states taken in blocks of ``_BLOCK`` = 256: each block's
core rows are built as stacks, one array pass per family (a grid of
Gaussian states may come as arrays, with no object per point), and go
through the moment map at once; one DFT over the eight phases gives every
variance, and the trapezoid rule runs at a node count the block's
unconverged states share.  ``crb_report`` is that route on a grid of one;
the two are the only ways to get a bound.  Every step treats each state on
its own, so a state's bounds do not depend on the grid it is in.

The searches over the displacement amplitude are coroutines that yield the
alpha0 values they need, and one driver, ``_lockstep``, runs any number of
them together with one ``crb_grid`` call per step.  ``minimize_gamma2_grid``
runs many golden-section searches on it (``minimize_gamma2`` is one job),
and ``find_crossover`` one bisection (five levels of midpoints per step: a
default search takes 7 calls, not 28).  Both search alpha0 in [0, bracket_hi]
and check every input of every job in ``_family_builder`` before their
first evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    _AMPLITUDE_FAMILIES,
    HusimiMomentSet,
    StateModel,
    _moment_data,
    _x2_variance,
    state_to_kv,
)

__all__ = [
    "CrbReport",
    "NumericalFailure",
    "crb_report",
    "crb_grid",
    "find_crossover",
    "minimize_gamma2",
    "minimize_gamma2_grid",
]

_SQ2 = math.sqrt(2.0)


class NumericalFailure(ArithmeticError):
    """A phase average failed: the variance vanished, had harmonics beyond
    4 theta, the quadrature did not converge, or the Fisher matrix it gave is
    not symmetric positive definite."""


def _check_fisher(states, m: np.ndarray) -> None:
    """Raise NumericalFailure naming the first of the states whose Fisher
    matrix in the stack m (S, k, k) is not symmetric and positive definite."""
    mt = np.swapaxes(m, -1, -2)
    asym = ~np.all(np.abs(m - mt) <= 1e-12 + 1e-10 * np.abs(mt), axis=(1, 2))
    if asym.any():
        raise NumericalFailure("Fisher matrix is not symmetric: "
                               + state_to_kv(states[np.argmax(asym)]))
    indef = np.any(np.linalg.eigvalsh(m) <= 0, axis=1)
    if indef.any():
        raise NumericalFailure("Fisher matrix is not positive definite: "
                               + state_to_kv(states[np.argmax(indef)]))


def _trace_inv(m: np.ndarray) -> np.ndarray:
    """Trace of the inverse of each matrix of the stack m (..., k, k)."""
    return np.trace(np.linalg.inv(m), axis1=-2, axis2=-1)


# ---------------------------------------------------------------------------
# one array route over a sequence of states
# ---------------------------------------------------------------------------

_HARMONIC_TOL = 1e-10
_TRAPEZOID_TOL = 1e-13
_MAX_NODES = 2 ** 20
_BLOCK = 256       # states per array pass
_CHUNK = 1 << 12   # floats per (states x nodes) temporary of the trapezoid rule


def _variance_harmonics(states, harmonics: np.ndarray) -> np.ndarray:
    """DFT bins c0, c1, c2 (S, 3) of Var(X_theta^2) over theta = k pi/8, from
    the stacked moment harmonics.

    For every state Var(X_theta^2) = c0 + 2 Re(c1 e^{2i theta} + c2 e^{4i theta}),
    so the eight phases fix it exactly; the three unused bins check that claim.
    """
    c = np.fft.fft(_x2_variance(harmonics, np.arange(8) * (math.pi / 8)), axis=1) / 8
    bad = abs(c[:, 3:6]).max(axis=1) > _HARMONIC_TOL * abs(c[:, 0])
    if bad.any():
        raise NumericalFailure("Var(X_theta^2) has harmonics beyond 4 theta: "
                               + state_to_kv(states[np.argmax(bad)]))
    return c[:, :3]


def _phase_sum(states, c: np.ndarray, todo: np.ndarray, n: int) -> np.ndarray:
    """The n-node trapezoid sums (len(todo), 3, 3) of ``_trapezoid`` for the
    states todo, at the phases theta = k pi/n.  The states go through in
    groups small enough that a (states x nodes) temporary stays within
    _CHUNK floats, or one at a time."""
    th = np.arange(n) * (math.pi / n)
    z = np.exp(2j * th)
    cs, sn = np.cos(th), np.sin(th)
    v = np.array([cs * cs, _SQ2 * sn * cs, sn * sn])
    c0, c1, c2 = c[todo].T[..., None]  # each (states, 1)
    out = np.empty((todo.size, 3, 3))
    step = max(1, _CHUNK // n)
    for lo in range(0, todo.size, step):
        g = slice(lo, lo + step)
        var = c0[g].real + 2.0 * np.real(c1[g] * z + c2[g] * z * z)
        bad = ~(var > 0).all(axis=1)
        if bad.any():
            raise NumericalFailure("vanishing moment variance in the Fisher integrand: "
                                   + state_to_kv(states[todo[lo + np.argmax(bad)]]))
        out[g] = (v / var[:, None]) @ v.T / n
    return out


def _trapezoid(states, c: np.ndarray) -> np.ndarray:
    """Phase averages (S, 3, 3) of v v^T / Var(X_theta^2), v = (c^2, sqrt2 s c, s^2),
    for the variance harmonics c (S, 3) of the states.

    The integrand is pi-periodic and analytic, so the trapezoid rule converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  The states share
    the node count n = 32, 64, ...; a state stops doubling once two successive
    levels agree.
    """
    out = np.empty((len(c), 3, 3))
    todo = np.arange(len(c))
    prev = None
    n = 32
    while n <= _MAX_NODES:
        curr = _phase_sum(states, c, todo, n)
        if prev is not None:
            done = (abs(curr - prev).max(axis=(1, 2))
                    <= _TRAPEZOID_TOL * abs(curr).max(axis=(1, 2)))
            out[todo[done]] = curr[done]
            todo, curr = todo[~done], curr[~done]
            if not todo.size:
                return out
        prev = curr
        n *= 2
    raise NumericalFailure("phase quadrature did not converge: " + state_to_kv(states[todo[0]]))


def _first_bounds(gxx, gxp, gpp) -> tuple:
    """First-moment homodyne bound Tr G + 2 sqrt(det G) and heterodyne bound
    (the total Husimi variance) Tr G + 1, elementwise."""
    tr = gxx + gpp
    return tr + 2.0 * np.sqrt(gxx * gpp - gxp * gxp), tr + 1.0


def _h2_het(h: HusimiMomentSet):
    """Second-moment heterodyne bound var_Q(x^2) + var_Q(p^2) + 2 var_Q(xp),
    elementwise."""
    return (h.mx4 - h.mxx ** 2) + (h.mp4 - h.mpp ** 2) + 2.0 * (h.mx2p2 - h.mxp ** 2)


def _block(states) -> tuple[np.ndarray, np.ndarray]:
    """Second-moment Fisher matrices (S, 3, 3) and the bounds h1_hom, h1_het,
    h2_hom and h2_het (4, S) of at most _BLOCK states."""
    md = _moment_data(states)
    fisher = _trapezoid(states, _variance_harmonics(states, md.harmonics))
    _check_fisher(states, fisher)
    return fisher, np.stack([*_first_bounds(*md.covariance.T), _trace_inv(fisher),
                             _h2_het(md.husimi)])


def _grid(states) -> tuple[np.ndarray, CrbReport]:
    """Second-moment Fisher matrices (S, 3, 3) and the report, with array
    fields, of a sequence of states, block by block."""
    blocks = [_block(states[lo:lo + _BLOCK]) for lo in range(0, len(states), _BLOCK)]
    h1hom, h1het, h2hom, h2het = np.concatenate([b for _, b in blocks], axis=1)
    return (np.concatenate([f for f, _ in blocks]),
            CrbReport(h1hom, h1het, h2hom, h2het, h1het / h1hom, h2het / h2hom))


@dataclass(frozen=True)
class CrbReport:
    """All four scaled bounds and both performance ratios: floats for one
    state, arrays over the states from ``crb_grid``."""

    h1_hom: float
    h1_het: float
    h2_hom: float
    h2_het: float
    gamma1: float
    gamma2: float


def crb_grid(states) -> CrbReport:
    """Bounds and ratios of a sequence of states, each field an array over them.

    A state that fails a check of the second-moment route (harmonics beyond
    4 theta, a variance that is not positive, no convergence) raises
    NumericalFailure naming it.
    """
    return _grid(states)[1]


def crb_report(state: StateModel) -> CrbReport:
    """The bounds and ratios of one state: ``crb_grid`` on a grid of one."""
    return CrbReport(**{k: float(v[0]) for k, v in vars(crb_grid([state])).items()})


# ---------------------------------------------------------------------------
# crossover and minimum searches over the displacement amplitude
# ---------------------------------------------------------------------------

def _family_builder(family: str, m: int | None, bracket_hi: float | None, tol: float):
    """alpha0 -> state of the search family; checks every input of one search
    job: the family, m, the bracket end bracket_hi (None takes the search's
    default) and tol."""
    try:
        build, takes_m = _AMPLITUDE_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from "
                         f"{sorted(_AMPLITUDE_FAMILIES)}") from None
    if takes_m and m is None:
        raise ValueError(f"family {family!r} requires the integer parameter m")
    if not takes_m and m is not None:
        raise ValueError(f"family {family!r} takes no parameter m, got m={m}")
    if m is not None and m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    for name, value in (("bracket_hi", bracket_hi), ("tol", tol)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    return lambda a0: build(float(a0), m)


def _lockstep(builders, searches) -> list:
    """Run the search coroutines together and return what each returns.

    Each search yields the alpha0 values it needs and is sent gamma2 of the
    states its builder makes there; every round is one ``crb_grid`` call over
    the points of the searches still open.
    """
    wanted = [next(s) for s in searches]
    results = [None] * len(searches)
    live = range(len(searches))
    while live:
        g2 = iter(crb_grid([builders[i](a) for i in live for a in wanted[i]]).gamma2.tolist())
        still = []
        for i in live:
            try:
                wanted[i] = searches[i].send([next(g2) for _ in wanted[i]])
                still.append(i)
            except StopIteration as done:
                results[i] = done.value
        live = still
    return results


_LEVELS = 5        # bisection levels evaluated ahead in one crb_grid call


def _midpoints(lo: float, hi: float, levels: int) -> list:
    """The 2^levels - 1 midpoints that the next levels of a bisection of
    [lo, hi] can visit, in order: each is the 0.5*(lo + hi) of its bracket."""
    if not levels:
        return []
    mid = 0.5 * (lo + hi)
    return [*_midpoints(lo, mid, levels - 1), mid, *_midpoints(mid, hi, levels - 1)]


def _bisection(hi: float, tol: float, family: str):
    """One crossover search over [0, hi] as a coroutine: it yields the alpha0
    values it needs and is sent gamma2 at them, and returns the root of
    gamma2 = 1, or None if gamma2 <= 1 already at 0 (hi is then never
    evaluated).

    It asks for the midpoints of the next _LEVELS levels at once, hi with the
    first of them, and then steps through them as a one-point bisection
    would: the same floats, so the same root.
    """
    lo = 0.0
    g_lo, = yield (lo,)
    if g_lo - 1.0 <= 0.0:
        return None
    ahead = [hi, *_midpoints(lo, hi, _LEVELS)]
    g = dict(zip(ahead, (yield ahead)))
    if g[hi] - 1.0 > 0.0:
        raise NumericalFailure(f"no gamma2 = 1 sign change for {family} in [0, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # the bracket is down to adjacent floats
            break
        if mid not in g:
            ahead = _midpoints(lo, hi, _LEVELS)
            g = dict(zip(ahead, (yield ahead)))
        if g[mid] - 1.0 > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_crossover(family: str, m: int | None = None, bracket_hi: float | None = None,
                   tol: float = 1e-6) -> tuple[float, float] | None:
    """Bisection root of gamma2(alpha0) = 1 over alpha0 in [0, bracket_hi]
    (default 20), run by ``_lockstep`` as one search: (alpha0, h2_het) at the
    root.  Every input is checked before any evaluation.

    If gamma2 <= 1 already at alpha0 = 0 the family stays below unity for
    every displacement, and None is returned instead of a root.
    """
    state_at = _family_builder(family, m, bracket_hi, tol)
    hi = 20.0 if bracket_hi is None else bracket_hi
    root, = _lockstep([state_at], [_bisection(hi, tol, family)])
    if root is None:
        return None
    return root, crb_report(state_at(root)).h2_het


def _golden_section(grid: np.ndarray, tol: float):
    """One minimum search as a coroutine: it yields the alpha0 values it needs
    and is sent gamma2 at them, and returns (alpha0_min, gamma2_min).

    The grid scan brackets the global minimum first, so that mild
    non-unimodality near the endpoints cannot trap the golden section.
    """
    k = int(np.argmin((yield grid)))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = yield x1, x2
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            if x1 in (lo, hi):  # the bracket is down to adjacent floats
                break
            f1, = yield (x1,)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            if x2 in (lo, hi):
                break
            f2, = yield (x2,)
    xmin = 0.5 * (lo + hi)
    g2, = yield (xmin,)
    return float(xmin), g2


def minimize_gamma2_grid(jobs, bracket_hi: float | None = None,
                         tol: float = 1e-6) -> list[tuple[float, float]]:
    """Golden-section minima of gamma2 over alpha0 in [0, bracket_hi], one
    (alpha0_min, gamma2_min) per (family, m) job, the searches run in lockstep.

    Every input of every job is checked before any evaluation.  Each round
    is one ``crb_grid`` call over the points the open searches need: first
    every job's 65-point scan, then the two inner points, then one point per
    golden step; a search leaves once its bracket is within tol and its
    minimum is evaluated.  The default bracket_hi is max(5, 3 sqrt(m)).
    """
    builders, searches = [], []
    for family, m in jobs:
        builders.append(_family_builder(family, m, bracket_hi, tol))
        hi = bracket_hi
        if hi is None:
            hi = max(5.0, 3.0 * math.sqrt(m)) if m else 5.0
        searches.append(_golden_section(np.linspace(0.0, hi, 65), tol))
    return _lockstep(builders, searches)


def minimize_gamma2(family: str, m: int | None = None,
                    bracket_hi: float | None = None,
                    tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section minimum of gamma2 over alpha0 in [0, bracket_hi]:
    ``minimize_gamma2_grid`` on one job.  Returns (alpha0_min, gamma2_min)."""
    return minimize_gamma2_grid([(family, m)], bracket_hi, tol)[0]
