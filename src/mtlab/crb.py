"""Fisher matrices, scaled Cramer-Rao bounds and performance-ratio searches.

Scaled bounds are the N-independent coefficients H such that the optimal
mean squared error behaves like H/N: H1 for the two first-moment parameters
and H2 for the three second-moment parameters (vectorized as a1 = <X^2>,
a2 = <{dX,dP}>/2 with a sqrt(2) weight, a3 = <P^2>).

The homodyne Fisher matrices are phase averages of M_theta / Var.  For the
first moments Var = u^T G u and the average is (G + sqrt(det G) I)^-1.  For
the second moments Var(X_theta^2) is, for every state, a trigonometric
polynomial with the harmonics {0, 2 theta, 4 theta}: eight phase samples fix
it, and the trapezoid rule on the rebuilt variance gives the average.

The second-moment bounds have one route, ``crb_grid``, an array computation
over a sequence of states taken in blocks of ``_BLOCK``: the stacked moment
tables go through the moment map at once, one DFT over the eight phases
gives every variance, and the trapezoid rule runs at a node count the
block's unconverged states share.  ``crb_report``, ``gamma2``,
``fisher_hom_second`` and the single-state bounds are that route on a grid
of one.  ``minimize_gamma2_grid`` runs many golden-section searches in
lockstep, one ``crb_grid`` call per step; ``minimize_gamma2`` is it on one
job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    DisplacedFock,
    EvenOddCoherent,
    HusimiMomentSet,
    PhotonAddedCoherent,
    StateModel,
    _moment_data,
    _x2_variance,
    covariance,
    state_to_kv,
)

__all__ = [
    "ScaledFisher",
    "CrbReport",
    "NumericalFailure",
    "fisher_hom_first",
    "scrb_hom_first",
    "scrb_het_first",
    "gamma1",
    "fisher_hom_second",
    "scrb_hom_second",
    "scrb_het_second",
    "gamma2",
    "crb_report",
    "crb_grid",
    "find_crossover",
    "minimize_gamma2",
    "minimize_gamma2_grid",
    "CrossoverResult",
]

_SQ2 = math.sqrt(2.0)


class NumericalFailure(ArithmeticError):
    """A phase average failed: the variance vanished, had harmonics beyond
    4 theta, or the quadrature did not converge."""


@dataclass(frozen=True)
class ScaledFisher:
    """Scaled Fisher matrix: 2x2 for first moments, 3x3 for second moments."""

    order: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.order not in ("first", "second"):
            raise ValueError("order must be 'first' or 'second'")
        m = np.asarray(self.matrix, dtype=float)
        want = 2 if self.order == "first" else 3
        if m.shape != (want, want):
            raise ValueError(f"expected {want}x{want} matrix")
        _check_fisher(m)

    def crb(self) -> float:
        """Trace of the inverse: the scaled Cramer-Rao bound."""
        return float(_trace_inv(self.matrix))


def _check_fisher(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack m (..., k, k) is
    symmetric and positive definite."""
    mt = np.swapaxes(m, -1, -2)
    if not np.all(np.abs(m - mt) <= 1e-12 + 1e-10 * np.abs(mt)):
        raise ValueError("Fisher matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(m) <= 0):
        raise ValueError("Fisher matrix must be positive definite")


def _trace_inv(m: np.ndarray) -> np.ndarray:
    """Trace of the inverse of each matrix of the stack m (..., k, k)."""
    return np.trace(np.linalg.inv(m), axis1=-2, axis2=-1)


# ---------------------------------------------------------------------------
# first moments
# ---------------------------------------------------------------------------


def fisher_hom_first(state: StateModel) -> ScaledFisher:
    """Scaled homodyne Fisher matrix for the first moments: the phase average
    of u u^T / (u^T G u), which is (G + sqrt(det G) I)^-1."""
    g = covariance(state)
    return ScaledFisher("first", np.linalg.inv(g.as_array() + math.sqrt(g.det) * np.eye(2)))


def _first_bounds(gxx, gxp, gpp) -> tuple:
    """First-moment homodyne bound Tr G + 2 sqrt(det G) and heterodyne bound
    (the total Husimi variance) Tr G + 1, elementwise."""
    tr = gxx + gpp
    return tr + 2.0 * np.sqrt(gxx * gpp - gxp * gxp), tr + 1.0


def scrb_hom_first(state: StateModel) -> float:
    """First-moment homodyne bound Tr G + 2 sqrt(det G)."""
    g = covariance(state)
    return float(_first_bounds(g.gxx, g.gxp, g.gpp)[0])


def scrb_het_first(state: StateModel) -> float:
    """First-moment heterodyne bound: total Husimi variance, Tr G + 1."""
    g = covariance(state)
    return float(_first_bounds(g.gxx, g.gxp, g.gpp)[1])


def gamma1(state: StateModel) -> float:
    """Heterodyne/homodyne first-moment ratio; <= 1 with equality iff the
    state is minimum-uncertainty (det G = 1/4)."""
    return scrb_het_first(state) / scrb_hom_first(state)


# ---------------------------------------------------------------------------
# second moments: one array route over a sequence of states
# ---------------------------------------------------------------------------

_HARMONIC_TOL = 1e-10
_TRAPEZOID_TOL = 1e-13
_MAX_NODES = 2 ** 20
_BLOCK = 64        # states per array pass
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


def _trapezoid(states, c: np.ndarray) -> np.ndarray:
    """Phase averages (S, 3, 3) of v v^T / Var(X_theta^2), v = (c^2, sqrt2 s c, s^2),
    for the variance harmonics c (S, 3) of the states.

    The integrand is pi-periodic and analytic, so the trapezoid rule converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  The states share
    the node count n = 32, 64, ...; a state stops doubling once two successive
    levels agree.  They go through each level in groups small enough that a
    (states x nodes) temporary stays within _CHUNK floats, or one at a time.
    """
    out = np.empty((len(c), 3, 3))
    todo = np.arange(len(c))
    prev = None
    n = 32
    while n <= _MAX_NODES:
        th = np.arange(n) * (math.pi / n)
        z = np.exp(2j * th)
        cs, sn = np.cos(th), np.sin(th)
        v = np.array([cs * cs, _SQ2 * sn * cs, sn * sn])
        c0, c1, c2 = c[todo].T[..., None]  # each (states, 1)
        curr = np.empty((todo.size, 3, 3))
        step = max(1, _CHUNK // n)
        for lo in range(0, todo.size, step):
            g = slice(lo, lo + step)
            var = c0[g].real + 2.0 * np.real(c1[g] * z + c2[g] * z * z)
            bad = ~(var > 0).all(axis=1)
            if bad.any():
                raise NumericalFailure("vanishing moment variance in the Fisher integrand: "
                                       + state_to_kv(states[todo[lo + np.argmax(bad)]]))
            curr[g] = (v / var[:, None]) @ v.T / n
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


def _h2_het(h: HusimiMomentSet):
    """Second-moment heterodyne bound var_Q(x^2) + var_Q(p^2) + 2 var_Q(xp),
    elementwise."""
    return (h.mx4 - h.mxx ** 2) + (h.mp4 - h.mpp ** 2) + 2.0 * (h.mx2p2 - h.mxp ** 2)


def _block(states) -> tuple[np.ndarray, np.ndarray]:
    """Second-moment Fisher matrices (S, 3, 3) and the bounds h1_hom, h1_het,
    h2_hom and h2_het (4, S) of at most _BLOCK states."""
    md = _moment_data(states)
    fisher = _trapezoid(states, _variance_harmonics(states, md.harmonics))
    _check_fisher(fisher)
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


def fisher_hom_second(state: StateModel) -> ScaledFisher:
    """Scaled 3x3 homodyne Fisher matrix for (a1, a2, a3): the phase average
    (1/pi) int_0^pi v v^T / Var(X_theta^2) dtheta, v = (c^2, sqrt2 s c, s^2)."""
    return ScaledFisher("second", _grid([state])[0][0])


def scrb_hom_second(state: StateModel) -> float:
    """Second-moment homodyne bound Tr of the inverse scaled Fisher matrix."""
    return crb_report(state).h2_hom


def scrb_het_second(state: StateModel) -> float:
    """Second-moment heterodyne bound var_Q(x^2) + var_Q(p^2) + 2 var_Q(xp)."""
    return crb_report(state).h2_het


def gamma2(state: StateModel) -> float:
    """Heterodyne/homodyne second-moment performance ratio."""
    return crb_report(state).gamma2


# ---------------------------------------------------------------------------
# crossover and minimum searches over the displacement amplitude
# ---------------------------------------------------------------------------

_FAMILY_BUILDERS = {
    "coherent": lambda a0, m: DisplacedFock(a0, 0),
    "even_coherent": lambda a0, m: EvenOddCoherent(a0, "even"),
    "odd_coherent": lambda a0, m: EvenOddCoherent(a0, "odd"),
    "displaced_fock": lambda a0, m: DisplacedFock(a0, m),
    "photon_added": lambda a0, m: PhotonAddedCoherent(a0, m),
}


def _family_builder(family: str, m: int | None):
    """alpha0 -> state of the search family; checks the family and m."""
    try:
        build = _FAMILY_BUILDERS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from "
                         f"{sorted(_FAMILY_BUILDERS)}") from None
    if family in ("displaced_fock", "photon_added") and m is None:
        raise ValueError(f"family {family!r} requires the integer parameter m")
    if m is not None and m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    return lambda a0: build(float(a0), m)


@dataclass(frozen=True)
class CrossoverResult:
    """Location of gamma2 = 1, or a report that gamma2 < 1 everywhere."""

    family: str
    m: int | None
    alpha0: float | None
    h2: float | None
    always_below_unity: bool


def find_crossover(family: str, m: int | None = None,
                   bracket: tuple[float, float] = (0.0, 20.0),
                   tol: float = 1e-6) -> CrossoverResult:
    """Bisection root of gamma2(alpha0) = 1 over the default bracket.

    If gamma2 is already below one at alpha0 = 0 the family stays below
    unity for every displacement and that is reported instead of a root.
    """
    state_at = _family_builder(family, m)

    def g2(a0):
        return gamma2(state_at(a0))

    lo, hi = bracket
    f_lo = g2(lo) - 1.0
    if f_lo <= 0.0:
        return CrossoverResult(family, m, None, None, True)
    f_hi = g2(hi) - 1.0
    if f_hi > 0.0:
        raise NumericalFailure(
            f"no gamma2 = 1 sign change for {family} in bracket {bracket}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g2(mid) - 1.0 > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return CrossoverResult(family, m, root, scrb_het_second(state_at(root)), False)


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
            f1, = yield (x1,)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2, = yield (x2,)
    xmin = 0.5 * (lo + hi)
    g2, = yield (xmin,)
    return float(xmin), g2


def minimize_gamma2_grid(jobs, bracket_hi: float | None = None,
                         tol: float = 1e-6) -> list[tuple[float, float]]:
    """Golden-section minima of gamma2 over alpha0 in [0, bracket_hi], one
    (alpha0_min, gamma2_min) per (family, m) job, the searches run in lockstep.

    Every job is checked before any evaluation.  Each round is one
    ``crb_grid`` call over the points the open searches need: first every
    job's 65-point scan, then the two inner points, then one point per golden
    step; a search leaves once its bracket is within tol and its minimum is
    evaluated.  The default bracket_hi is max(5, 3 sqrt(m)).
    """
    builders, searches = [], []
    for family, m in jobs:
        builders.append(_family_builder(family, m))
        hi = bracket_hi
        if hi is None:
            hi = max(5.0, 3.0 * math.sqrt(m)) if m else 5.0
        searches.append(_golden_section(np.linspace(0.0, hi, 65), tol))
    wanted = [next(s) for s in searches]
    results = [None] * len(jobs)
    live = range(len(jobs))
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


def minimize_gamma2(family: str, m: int | None = None,
                    bracket_hi: float | None = None,
                    tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section minimum of gamma2 over alpha0 in [0, bracket_hi]:
    ``minimize_gamma2_grid`` on one job.  Returns (alpha0_min, gamma2_min)."""
    return minimize_gamma2_grid([(family, m)], bracket_hi, tol)[0]
