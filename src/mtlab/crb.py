"""Fisher matrices, scaled Cramer-Rao bounds and performance-ratio searches.

Scaled bounds are the N-independent coefficients H such that the optimal
mean squared error behaves like H/N: H1 for the two first-moment parameters
and H2 for the three second-moment parameters (vectorized as a1 = <X^2>,
a2 = <{dX,dP}>/2 with a sqrt(2) weight, a3 = <P^2>).

The homodyne Fisher matrices are phase averages of M_theta / Var.  For the
first moments Var = u^T G u, the average is (G + sqrt(det G) I)^-1 and the
bound, the trace of its inverse, is Tr G + 2 sqrt(det G).  For the second
moments Var(X_theta^2) is, for every state, a trigonometric polynomial with
the harmonics {0, 2 theta, 4 theta}: eight phase samples fix it.  With
v = (1 + C, sqrt2 S, 1 - C)/2 (C = cos 2 theta, S = sin 2 theta), every
entry of v v^T / Var is a fixed combination of B/Var, B = (1, C, S,
cos 4 theta, sin 4 theta), so the average is five harmonic sums of B/Var
over the trapezoid nodes, and its six distinct entries carry it to the
bound: Tr F^-1 comes from the pivots of F = L D L^T, whose signs are
Sylvester's test that F is positive definite.

The second-moment bounds have one route, ``crb_grid``, an array computation
over a sequence of states taken in blocks of ``_BLOCK`` = 256: each block's
core rows are built as stacks, one array pass per family (a grid of
Gaussian states may come as arrays, with no object per point), and go
through the moment map at once; one DFT over the eight phases gives every
variance as five coefficients of B, and the trapezoid rule runs on nested
levels of 32, 64, ... nodes: each unconverged state keeps its five running
sums, and a level adds only the odd nodes the one before lacks.  The
doubling stops for a state once the Fisher entries of two successive
levels agree.  ``crb_report`` is that route on a grid of one; the two are
the only ways to get a bound.  Every step treats each state on its own
(products go through BLAS one state at a time), so a state's bounds do not
depend on the grid it is in.

The searches over the displacement amplitude are coroutines that yield the
alpha0 values they need, and one driver, ``_lockstep``, runs any number of
them together with one ``crb_grid`` call per step.  Both take one step,
``_narrow``: 15 evenly spaced interior points of the bracket per call.
``minimize_gamma2_grid`` runs many minimum searches on it
(``minimize_gamma2`` is one job), each a 65-point scan and then steps that
keep the neighbours of the lowest point (a default search takes 8 calls);
``find_crossover`` runs one root search, alpha0 = 0 and bracket_hi each
alone and then steps that keep the first interval over which gamma2 - 1
falls to <= 0 (a default search takes 9 calls, and the report at the root
one more).  Both search alpha0 in [0, bracket_hi] and check every input of
every job in ``_family_builder`` before their first evaluation.
"""

from __future__ import annotations

import functools
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
    not positive definite."""


# ---------------------------------------------------------------------------
# one array route over a sequence of states
# ---------------------------------------------------------------------------

_HARMONIC_TOL = 1e-10
_TRAPEZOID_TOL = 1e-13
_FIRST_NODES = 32
_MAX_NODES = 2 ** 20
_BLOCK = 256       # states per array pass
_CHUNK = 1 << 12   # floats per (states x nodes) temporary of the trapezoid rule

# The six distinct entries (F00, F01, F02, F11, F12, F22) of v v^T as
# combinations of B = (1, C, S, cos 4 theta, sin 4 theta), C = cos 2 theta,
# S = sin 2 theta: v = (1 + C, sqrt2 S, 1 - C)/2, C^2 = (1 + cos 4 theta)/2,
# S^2 = (1 - cos 4 theta)/2 and S C = sin 4 theta/2.  Shape (5, 6).
_ENTRIES = np.array([
    [1.5, 2.0, 0.0, 0.5, 0.0],
    [0.0, 0.0, _SQ2, 0.0, 0.5 * _SQ2],
    [0.5, 0.0, 0.0, -0.5, 0.0],
    [1.0, 0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, _SQ2, 0.0, -0.5 * _SQ2],
    [1.5, -2.0, 0.0, 0.5, 0.0],
]).T / 4.0


def _rowwise(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x (S, k) @ m (k, j) as one BLAS call per row, so that a row's result
    does not depend on the other rows (a whole-matrix product's can: the
    BLAS kernel, and its order of summation, depends on the shape)."""
    return np.matmul(x[:, None, :], m)[:, 0]


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


@functools.cache
def _level_basis(n: int) -> np.ndarray:
    """B = (1, cos 2 theta, sin 2 theta, cos 4 theta, sin 4 theta) (5, k) at
    the nodes that level n of the trapezoid rule adds: every k pi/n at the
    first level, the odd nodes (2k+1) pi/n after it.  Built once per level
    (n is a power of 2 up to _MAX_NODES) and shared, so read-only."""
    theta = (np.arange(n) if n == _FIRST_NODES else np.arange(1, n, 2)) * (math.pi / n)
    basis = np.stack([np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta),
                      np.cos(4.0 * theta), np.sin(4.0 * theta)])
    basis.flags.writeable = False
    return basis


def _coefficients(c: np.ndarray) -> np.ndarray:
    """The coefficients a = (c0, 2 Re c1, -2 Im c1, 2 Re c2, -2 Im c2) (S, 5)
    of Var(X_theta^2) = a . B, from its DFT bins c (S, 3)."""
    c1, c2 = c[:, 1], c[:, 2]
    return np.stack([c[:, 0].real, 2.0 * c1.real, -2.0 * c1.imag, 2.0 * c2.real, -2.0 * c2.imag],
                    axis=1)


def _harmonic_sums(states, a: np.ndarray, todo: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sums (len(todo), 5) of B/Var(X_theta^2) over the nodes of basis (5, n)
    for the states todo, Var = a . B with the coefficients a (S, 5).

    Var must be positive at every node.  The states go through in groups
    small enough that a (states x nodes) temporary stays within _CHUNK
    floats, or one at a time.
    """
    out = np.empty((todo.size, 5))
    step = max(1, _CHUNK // basis.shape[1])
    for lo in range(0, todo.size, step):
        var = _rowwise(a[todo[lo:lo + step]], basis)
        bad = ~(var > 0).all(axis=1)
        if bad.any():
            raise NumericalFailure("vanishing moment variance in the Fisher integrand: "
                                   + state_to_kv(states[todo[lo + np.argmax(bad)]]))
        out[lo:lo + step] = _rowwise(1.0 / var, basis.T)
    return out


def _entries(sums: np.ndarray, n: int) -> np.ndarray:
    """The six distinct Fisher entries (S, 6) from the harmonic sums (S, 5) over n nodes."""
    return _rowwise(sums / n, _ENTRIES)


def _trapezoid(states, c: np.ndarray) -> np.ndarray:
    """The six distinct entries (S, 6) of the phase averages of
    v v^T / Var(X_theta^2), v = (c^2, sqrt2 s c, s^2), for the variance
    harmonics c (S, 3) of the states.

    The integrand is pi-periodic and analytic, so the trapezoid rule converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  The levels are
    nested, n = 32, 64, ...: each state keeps its five harmonic sums, and a
    level adds only the nodes the level before lacks.  A state stops doubling
    once the Fisher entries of two successive levels agree.
    """
    a = _coefficients(c)
    out = np.empty((len(c), 6))
    todo = np.arange(len(c))
    n = _FIRST_NODES
    sums = _harmonic_sums(states, a, todo, _level_basis(n))
    prev = _entries(sums, n)
    while n < _MAX_NODES:
        n *= 2
        sums += _harmonic_sums(states, a, todo, _level_basis(n))
        curr = _entries(sums, n)
        done = abs(curr - prev).max(axis=1) <= _TRAPEZOID_TOL * abs(curr).max(axis=1)
        out[todo[done]] = curr[done]
        todo, sums, prev = todo[~done], sums[~done], curr[~done]
        if not todo.size:
            return out
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


def _h2_hom(states, f: np.ndarray) -> np.ndarray:
    """h2_hom = Tr F^-1 (S,) of the Fisher matrices given by their six
    distinct entries f (S, 6), elementwise, from F = L D L^T with L unit
    lower triangular: Tr F^-1 = sum_k |row k of L^-1|^2 / d_k, a sum of
    positive terms.

    The pivots d_k are the ratios of successive leading minors F00,
    F00 F11 - F01^2 and det F, so a pivot that is not positive is Sylvester's
    test failing: NumericalFailure names the first state whose F is not
    positive definite.
    """
    f00, f01, f02, f11, f12, f22 = f.T
    l10, l20 = f01 / f00, f02 / f00
    d1 = f11 - l10 * f01
    e = f12 - l20 * f01
    l21 = e / d1
    d2 = f22 - l20 * f02 - l21 * e
    bad = ~((f00 > 0) & (d1 > 0) & (d2 > 0))
    if bad.any():
        raise NumericalFailure("Fisher matrix is not positive definite: "
                               + state_to_kv(states[np.argmax(bad)]))
    m = l10 * l21 - l20
    return 1.0 / f00 + (1.0 + l10 * l10) / d1 + (1.0 + l21 * l21 + m * m) / d2


def _block(states) -> np.ndarray:
    """The bounds h1_hom, h1_het, h2_hom and h2_het (4, S) of at most _BLOCK states."""
    md = _moment_data(states)
    fisher = _trapezoid(states, _variance_harmonics(states, md.harmonics))
    return np.stack([*_first_bounds(*md.covariance.T), _h2_hom(states, fisher),
                     _h2_het(md.husimi)])


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
    NumericalFailure naming it, as does a Fisher matrix that is not positive
    definite.
    """
    h1hom, h1het, h2hom, h2het = np.concatenate(
        [_block(states[lo:lo + _BLOCK]) for lo in range(0, len(states), _BLOCK)], axis=1)
    return CrbReport(h1hom, h1het, h2hom, h2het, h1het / h1hom, h2het / h2hom)


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


_POINTS = 15       # interior points per step of either search


def _narrow(lo, hi, tol: float, keep):
    """The step of both searches, to ``yield from``: while the bracket [lo, hi]
    is wider than tol, it yields _POINTS evenly spaced interior points and
    takes keep(x, gamma2 at x[1:-1]) as the next bracket, x being the points
    with the two ends; it returns the last bracket."""
    while hi - lo > tol:
        x = np.linspace(lo, hi, _POINTS + 2)
        if x[1] == lo or x[-2] == hi:  # the bracket is down to adjacent floats
            break
        lo, hi = keep(x, (yield x[1:-1]))
    return lo, hi


def _first_fall(x, g2):
    """The first interval of x over which gamma2 - 1 falls to <= 0: the last
    one if no interior point has fallen, since the bracket's top has."""
    k = next((i for i, g in enumerate(g2, 1) if g - 1.0 <= 0.0), len(x) - 1)
    return x[k - 1], x[k]


def _root_search(hi: float, tol: float, family: str):
    """One crossover search over [0, hi] as a coroutine: it yields the alpha0
    values it needs and is sent gamma2 at them, and returns the root of
    gamma2 = 1, or None if gamma2 <= 1 already at 0 (hi is then never
    evaluated).  Each step keeps the first of 16 intervals over which
    gamma2 - 1 falls to <= 0: a 16x shrink."""
    lo = 0.0
    g_lo, = yield (lo,)
    if g_lo - 1.0 <= 0.0:
        return None
    g_hi, = yield (hi,)
    if g_hi - 1.0 > 0.0:
        raise NumericalFailure(f"no gamma2 = 1 sign change for {family} in [0, {hi}]")
    lo, hi = yield from _narrow(lo, hi, tol, _first_fall)
    return float(0.5 * (lo + hi))


def find_crossover(family: str, m: int | None = None, bracket_hi: float | None = None,
                   tol: float = 1e-6) -> tuple[float, float] | None:
    """Root of gamma2(alpha0) = 1 over alpha0 in [0, bracket_hi] (default 20),
    run by ``_lockstep`` as one search: (alpha0, h2_het) at the root.  Every
    input is checked before any evaluation.

    If gamma2 <= 1 already at alpha0 = 0 the family stays below unity for
    every displacement, and None is returned instead of a root.
    """
    state_at = _family_builder(family, m, bracket_hi, tol)
    hi = 20.0 if bracket_hi is None else bracket_hi
    root, = _lockstep([state_at], [_root_search(hi, tol, family)])
    if root is None:
        return None
    return root, crb_report(state_at(root)).h2_het


def _lowest(x, g2):
    """The neighbours in x of the interior point with the lowest gamma2."""
    k = int(np.argmin(g2)) + 1
    return x[k - 1], x[k + 1]


def _minimum_search(grid: np.ndarray, tol: float):
    """One minimum search as a coroutine: it yields the alpha0 values it needs
    and is sent gamma2 at them, and returns (alpha0_min, gamma2_min).

    The grid scan brackets the global minimum first, so that mild
    non-unimodality near the endpoints cannot trap the search.  Each step
    then keeps the neighbours of the lowest interior point: an 8x shrink.
    """
    k = int(np.argmin((yield grid)))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    lo, hi = yield from _narrow(lo, hi, tol, _lowest)
    xmin = 0.5 * (lo + hi)
    g2, = yield (xmin,)
    return float(xmin), g2


def minimize_gamma2_grid(jobs, bracket_hi: float | None = None,
                         tol: float = 1e-6) -> list[tuple[float, float]]:
    """Minima of gamma2 over alpha0 in [0, bracket_hi], one (alpha0_min,
    gamma2_min) per (family, m) job, the searches run in lockstep.

    Every input of every job is checked before any evaluation.  Each round
    is one ``crb_grid`` call over the points the open searches need: first
    every job's 65-point scan, then 15 interior points of the bracket per
    step, which shrink it 8x; a search leaves once its bracket is within tol
    and its midpoint is evaluated (8 calls for a default search).  The
    default bracket_hi is max(5, 3 sqrt(m)).
    """
    builders, searches = [], []
    for family, m in jobs:
        builders.append(_family_builder(family, m, bracket_hi, tol))
        hi = bracket_hi
        if hi is None:
            hi = max(5.0, 3.0 * math.sqrt(m)) if m else 5.0
        searches.append(_minimum_search(np.linspace(0.0, hi, 65), tol))
    return _lockstep(builders, searches)


def minimize_gamma2(family: str, m: int | None = None,
                    bracket_hi: float | None = None,
                    tol: float = 1e-6) -> tuple[float, float]:
    """Minimum of gamma2 over alpha0 in [0, bracket_hi]:
    ``minimize_gamma2_grid`` on one job.  Returns (alpha0_min, gamma2_min)."""
    return minimize_gamma2_grid([(family, m)], bracket_hi, tol)[0]
