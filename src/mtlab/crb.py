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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    DisplacedFock,
    EvenOddCoherent,
    PhotonAddedCoherent,
    StateModel,
    covariance,
    husimi_moments,
    quadrature_x2_variance,
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
    "find_crossover",
    "minimize_gamma2",
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
        if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
            raise ValueError("Fisher matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(m) <= 0):
            raise ValueError("Fisher matrix must be positive definite")

    def crb(self) -> float:
        """Trace of the inverse: the scaled Cramer-Rao bound."""
        return float(np.trace(np.linalg.inv(self.matrix)))


# ---------------------------------------------------------------------------
# first moments
# ---------------------------------------------------------------------------


def fisher_hom_first(state: StateModel) -> ScaledFisher:
    """Scaled homodyne Fisher matrix for the first moments: the phase average
    of u u^T / (u^T G u), which is (G + sqrt(det G) I)^-1."""
    g = covariance(state)
    return ScaledFisher("first", np.linalg.inv(g.as_array() + math.sqrt(g.det) * np.eye(2)))


def scrb_hom_first(state: StateModel) -> float:
    """First-moment homodyne bound Tr G + 2 sqrt(det G)."""
    g = covariance(state)
    return float(g.trace + 2.0 * math.sqrt(g.det))


def scrb_het_first(state: StateModel) -> float:
    """First-moment heterodyne bound: total Husimi variance, Tr G + 1."""
    g = covariance(state)
    return float(g.trace + 1.0)


def gamma1(state: StateModel) -> float:
    """Heterodyne/homodyne first-moment ratio; <= 1 with equality iff the
    state is minimum-uncertainty (det G = 1/4)."""
    return scrb_het_first(state) / scrb_hom_first(state)


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------

_HARMONIC_TOL = 1e-10
_TRAPEZOID_TOL = 1e-13
_MAX_NODES = 2 ** 20


def fisher_hom_second(state: StateModel) -> ScaledFisher:
    """Scaled 3x3 homodyne Fisher matrix for (a1, a2, a3): the phase average
    (1/pi) int_0^pi v v^T / Var(X_theta^2) dtheta, v = (c^2, sqrt2 s c, s^2).

    For every state Var(X_theta^2) = c0 + 2 Re(c1 e^{2i theta} + c2 e^{4i theta}),
    so a DFT over the eight phases k pi/8 gives it exactly; the three unused
    bins check that claim.  The integrand is pi-periodic and analytic, so the
    trapezoid rule converges geometrically (Trefethen & Weideman, SIAM Rev.
    56, 2014); node doubling stops when two successive levels agree.
    """
    c = np.fft.fft(quadrature_x2_variance(state, np.arange(8) * (math.pi / 8))) / 8
    if np.max(np.abs(c[3:6])) > _HARMONIC_TOL * abs(c[0]):
        raise NumericalFailure("Var(X_theta^2) has harmonics beyond 4 theta")
    prev = None
    n = 32
    while n <= _MAX_NODES:
        th = np.arange(n) * (math.pi / n)
        z = np.exp(2j * th)
        var = c[0].real + 2.0 * np.real(c[1] * z + c[2] * z * z)
        if not np.all(var > 0):
            raise NumericalFailure("vanishing moment variance in the Fisher integrand")
        cs, sn = np.cos(th), np.sin(th)
        v = np.stack([cs * cs, _SQ2 * sn * cs, sn * sn])
        curr = (v / var) @ v.T / n
        if (prev is not None
                and np.max(np.abs(curr - prev)) <= _TRAPEZOID_TOL * np.max(np.abs(curr))):
            return ScaledFisher("second", curr)
        prev = curr
        n *= 2
    raise NumericalFailure("phase quadrature did not converge")


def scrb_hom_second(state: StateModel) -> float:
    """Second-moment homodyne bound Tr of the inverse scaled Fisher matrix."""
    return fisher_hom_second(state).crb()


def scrb_het_second(state: StateModel) -> float:
    """Second-moment heterodyne bound var_Q(x^2) + var_Q(p^2) + 2 var_Q(xp)."""
    h = husimi_moments(state)
    return (h.mx4 - h.mxx ** 2) + (h.mp4 - h.mpp ** 2) + 2.0 * (h.mx2p2 - h.mxp ** 2)


def gamma2(state: StateModel) -> float:
    """Heterodyne/homodyne second-moment performance ratio."""
    return scrb_het_second(state) / scrb_hom_second(state)


@dataclass(frozen=True)
class CrbReport:
    """All four scaled bounds and both performance ratios for one state."""

    h1_hom: float
    h1_het: float
    h2_hom: float
    h2_het: float
    gamma1: float
    gamma2: float


def crb_report(state: StateModel) -> CrbReport:
    h1hom = scrb_hom_first(state)
    h1het = scrb_het_first(state)
    h2hom = scrb_hom_second(state)
    h2het = scrb_het_second(state)
    return CrbReport(
        h1_hom=h1hom, h1_het=h1het, h2_hom=h2hom, h2_het=h2het,
        gamma1=h1het / h1hom, gamma2=h2het / h2hom,
    )


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


def _gamma2_of_alpha(family: str, m: int | None):
    try:
        build = _FAMILY_BUILDERS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from "
                         f"{sorted(_FAMILY_BUILDERS)}") from None
    if family in ("displaced_fock", "photon_added") and m is None:
        raise ValueError(f"family {family!r} requires the integer parameter m")
    return lambda a0: gamma2(build(float(a0), m))


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
    g2 = _gamma2_of_alpha(family, m)
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
    state = _FAMILY_BUILDERS[family](root, m)
    return CrossoverResult(family, m, root, scrb_het_second(state), False)


def minimize_gamma2(family: str, m: int | None = None,
                    bracket_hi: float | None = None,
                    tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section minimum of gamma2 over alpha0 in [0, bracket_hi].

    A coarse grid scan brackets the global minimum first so that mild
    non-unimodality near the endpoints cannot trap the golden section.
    Returns (alpha0_min, gamma2_min).
    """
    g2 = _gamma2_of_alpha(family, m)
    if bracket_hi is None:
        bracket_hi = max(5.0, 3.0 * math.sqrt(m)) if m else 5.0
    grid = np.linspace(0.0, bracket_hi, 65)
    vals = [g2(a) for a in grid]
    k = int(np.argmin(vals))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = g2(x1), g2(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = g2(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = g2(x2)
    xmin = 0.5 * (lo + hi)
    return xmin, g2(xmin)
