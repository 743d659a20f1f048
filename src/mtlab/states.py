"""State families and their closed-form quadrature and Husimi moments.

Five families are supported: Gaussian states, Fock states, even/odd coherent
superpositions, displaced Fock states and photon-added coherent states.
Conventions: alpha = (x + i p)/sqrt(2), [X, P] = i, vacuum variance 1/2.

All moment formulas here are hand-derived from the characteristic functions
(differentiation at the origin) and are independently validated against the
brute-force integration routes in :mod:`mtlab.oracle`.  Complex amplitudes
are handled by reducing to the real-amplitude state rotated by arg(alpha0);
every reported bound is invariant under that rotation, only densities,
samplers and moment tables see the phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .phasespace import CovarianceMatrix, FirstMoments
from .special import (
    hyp1f1_deriv_ratios,
    hyp1f1_log,
    log_factorial,
    oscillator_eigenfunction_sum,
)

__all__ = [
    "Gaussian",
    "Fock",
    "EvenOddCoherent",
    "DisplacedFock",
    "PhotonAddedCoherent",
    "StateModel",
    "QuadratureMomentTable",
    "HusimiMomentSet",
    "FockExpansion",
    "CutoffError",
    "quadrature_moments",
    "husimi_moments",
    "first_moments",
    "covariance",
    "second_moment_matrix",
    "fock_expansion",
    "default_cutoff",
    "quadrature_pdf",
    "husimi_pdf",
    "state_to_kv",
    "state_from_kv",
]

_SQ2 = math.sqrt(2.0)


class CutoffError(ValueError):
    """Fock-space cutoff too small for the requested truncation error."""


# ---------------------------------------------------------------------------
# state families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian:
    """Gaussian state with mean r0 and covariance matrix g (det g >= 1/4)."""

    r0: FirstMoments
    g: CovarianceMatrix

    def __post_init__(self):
        if not self.g.is_physical():
            raise ValueError(f"unphysical Gaussian covariance, det={self.g.det}")


@dataclass(frozen=True)
class Fock:
    """Photon-number state |n>."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ValueError("photon number n must be a non-negative integer")


@dataclass(frozen=True)
class EvenOddCoherent:
    """Normalized superposition (|alpha0> +- |-alpha0>), parity 'even'/'odd'."""

    alpha0: complex
    parity: str

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if not cmath.isfinite(complex(self.alpha0)):
            raise ValueError("amplitude must be finite")


@dataclass(frozen=True)
class DisplacedFock:
    """Displaced Fock state D(alpha0)|m>."""

    alpha0: complex
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 0):
            raise ValueError("m must be a non-negative integer")
        if not cmath.isfinite(complex(self.alpha0)):
            raise ValueError("amplitude must be finite")


@dataclass(frozen=True)
class PhotonAddedCoherent:
    """Normalized (A^dag)^m |alpha0>."""

    alpha0: complex
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 0):
            raise ValueError("m must be a non-negative integer")
        if not cmath.isfinite(complex(self.alpha0)):
            raise ValueError("amplitude must be finite")


StateModel = Union[Gaussian, Fock, EvenOddCoherent, DisplacedFock, PhotonAddedCoherent]


def _amp(state) -> complex:
    return complex(state.alpha0)


def _xt_pt(alpha0: complex, theta):
    """Rotating-frame displacement: alpha0 e^{-i theta} = (x_t + i p_t)/sqrt2."""
    w = alpha0 * np.exp(-1j * np.asarray(theta, dtype=float))
    return _SQ2 * np.real(w), _SQ2 * np.imag(w)


# ---------------------------------------------------------------------------
# quadrature moments <X_theta^m>, m <= 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureMomentTable:
    """First four moments of the rotated quadrature X_theta."""

    theta: float
    m1: float
    m2: float
    m3: float
    m4: float


def _quad_moments_arrays(state: StateModel, theta):
    """Vectorized (m1, m2, m3, m4) over an array of LO phases."""
    theta = np.asarray(theta, dtype=float)
    zero = np.zeros_like(theta)
    if isinstance(state, Gaussian):
        u = np.stack([np.cos(theta), np.sin(theta)])
        r = state.r0.as_array()
        g = state.g.as_array()
        mu = r @ u
        s2 = np.einsum("it,ij,jt->t", u, g, u) if theta.ndim else u @ g @ u
        m2 = s2 + mu * mu
        m3 = mu ** 3 + 3 * mu * s2
        m4 = 3 * s2 * s2 + 6 * mu * mu * s2 + mu ** 4
        return mu, m2, m3, m4
    if isinstance(state, Fock):
        n = state.n
        m2 = (n + 0.5) + zero
        m4 = 0.75 * (2 * n * n + 2 * n + 1) + zero
        return zero, m2, zero, m4
    if isinstance(state, EvenOddCoherent):
        a2 = abs(_amp(state)) ** 2
        if a2 == 0.0:
            return _quad_moments_arrays(Fock(0 if state.parity == "even" else 1), theta)
        xt, pt = _xt_pt(_amp(state), theta)
        sgn = 1.0 if state.parity == "even" else -1.0
        q = math.exp(-2.0 * a2)
        # 1 - q via expm1 keeps the odd-state alpha0 -> 0 limit stable
        den = (1.0 + q) if sgn > 0 else -math.expm1(-2.0 * a2)
        e2 = (xt * xt - sgn * q * pt * pt) / den
        e4 = (xt ** 4 + sgn * q * pt ** 4) / den
        m2 = 0.5 + e2
        m4 = 0.75 + 3.0 * e2 + e4
        return zero, m2, zero, m4
    if isinstance(state, DisplacedFock):
        xt, _ = _xt_pt(_amp(state), theta)
        m = state.m
        s0 = m + 0.5
        m4f = 0.75 * (2 * m * m + 2 * m + 1)
        return (
            xt,
            s0 + xt * xt,
            xt ** 3 + 3.0 * xt * s0,
            m4f + 6.0 * xt * xt * s0 + xt ** 4,
        )
    if isinstance(state, PhotonAddedCoherent):
        xt, _ = _xt_pt(_amp(state), theta)
        _, r1, r2, r3, r4 = hyp1f1_deriv_ratios(state.m, abs(_amp(state)) ** 2)
        m1 = r1 * xt
        m2 = r1 - 0.5 + r2 * xt * xt
        m3 = 3.0 * r2 * xt + r3 * xt ** 3 - 1.5 * r1 * xt
        m4 = 3.0 * (r2 - r1) + 0.75 + (6.0 * r3 - 3.0 * r2) * xt * xt + r4 * xt ** 4
        return m1, m2, m3, m4
    raise TypeError(f"unknown state model {type(state).__name__}")


def quadrature_moments(state: StateModel, theta: float) -> QuadratureMomentTable:
    """Closed-form <X_theta^m> for m = 1..4."""
    m1, m2, m3, m4 = (float(v) for v in _quad_moments_arrays(state, float(theta)))
    return QuadratureMomentTable(float(theta), m1, m2, m3, m4)


def quadrature_x2_variance(state: StateModel, theta) -> np.ndarray:
    """<X_theta^4> - <X_theta^2>^2, vectorized over theta."""
    _, m2, _, m4 = _quad_moments_arrays(state, theta)
    return m4 - m2 * m2


def quadrature_variance(state: StateModel, theta) -> np.ndarray:
    """<X_theta^2> - <X_theta>^2, vectorized over theta."""
    m1, m2, _, _ = _quad_moments_arrays(state, theta)
    return m2 - m1 * m1


# ---------------------------------------------------------------------------
# Husimi moments up to total degree 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HusimiMomentSet:
    """Husimi averages of x^k p^l up to total degree 4."""

    mx: float
    mp: float
    mxx: float
    mxp: float
    mpp: float
    mx4: float
    mx3p: float
    mx2p2: float
    mxp3: float
    mp4: float

    def mean(self) -> np.ndarray:
        return np.array([self.mx, self.mp])

    def second_matrix(self) -> np.ndarray:
        """Uncentered degree-2 moment matrix (equals G_2 + I/2)."""
        return np.array([[self.mxx, self.mxp], [self.mxp, self.mpp]])

    def central_covariance(self) -> np.ndarray:
        """Husimi covariance; equals the state covariance shifted by I/2."""
        return self.second_matrix() - np.outer(self.mean(), self.mean())

    def rotated(self, delta: float) -> "HusimiMomentSet":
        """Moment set of the state rotated by delta in phase space."""
        c, s = math.cos(delta), math.sin(delta)
        bx, bp = self.mx, self.mp
        bxx, bxp, bpp = self.mxx, self.mxp, self.mpp
        b40, b31, b22, b13, b04 = self.mx4, self.mx3p, self.mx2p2, self.mxp3, self.mp4
        return HusimiMomentSet(
            mx=c * bx - s * bp,
            mp=s * bx + c * bp,
            mxx=c * c * bxx - 2 * c * s * bxp + s * s * bpp,
            mxp=c * s * (bxx - bpp) + (c * c - s * s) * bxp,
            mpp=s * s * bxx + 2 * c * s * bxp + c * c * bpp,
            mx4=c ** 4 * b40 - 4 * c ** 3 * s * b31 + 6 * c * c * s * s * b22
            - 4 * c * s ** 3 * b13 + s ** 4 * b04,
            mx3p=c ** 3 * s * b40 + (c ** 4 - 3 * c * c * s * s) * b31
            + 3 * (c * s ** 3 - c ** 3 * s) * b22
            + (3 * c * c * s * s - s ** 4) * b13 - c * s ** 3 * b04,
            mx2p2=c * c * s * s * b40 + (2 * c ** 3 * s - 2 * c * s ** 3) * b31
            + (c ** 4 - 4 * c * c * s * s + s ** 4) * b22
            + (2 * c * s ** 3 - 2 * c ** 3 * s) * b13 + c * c * s * s * b04,
            mxp3=c * s ** 3 * b40 + (3 * c * c * s * s - s ** 4) * b31
            + 3 * (c ** 3 * s - c * s ** 3) * b22
            + (c ** 4 - 3 * c * c * s * s) * b13 - c ** 3 * s * b04,
            mp4=s ** 4 * b40 + 4 * s ** 3 * c * b31 + 6 * s * s * c * c * b22
            + 4 * s * c ** 3 * b13 + c ** 4 * b04,
        )


def _husimi_moments_real(state: StateModel) -> HusimiMomentSet:
    """Husimi moment set for the real-amplitude representative of a family."""
    if isinstance(state, Fock):
        n = state.n
        f4 = 1.5 * (n + 1) * (n + 2)
        return HusimiMomentSet(0.0, 0.0, n + 1.0, 0.0, n + 1.0,
                               f4, 0.0, (n + 1) * (n + 2) / 2.0, 0.0, f4)
    if isinstance(state, EvenOddCoherent):
        a2 = abs(_amp(state)) ** 2
        if a2 == 0.0:
            return _husimi_moments_real(Fock(0 if state.parity == "even" else 1))
        sgn = 1.0 if state.parity == "even" else -1.0
        q = math.exp(-2.0 * a2)
        den = (1.0 + q) if sgn > 0 else -math.expm1(-2.0 * a2)
        A = a2 / den
        B = q * A
        return HusimiMomentSet(
            mx=0.0, mp=0.0,
            mxx=1.0 + 2.0 * A, mxp=0.0, mpp=1.0 - sgn * 2.0 * B,
            mx4=3.0 + 12.0 * A + 4.0 * a2 * A,
            mx3p=0.0,
            mx2p2=1.0 + 2.0 * (A - sgn * B),
            mxp3=0.0,
            mp4=3.0 - sgn * 12.0 * B + sgn * 4.0 * a2 * B,
        )
    if isinstance(state, DisplacedFock):
        m = state.m
        x0 = _SQ2 * abs(_amp(state))
        f4 = 1.5 * (m + 1) * (m + 2)
        return HusimiMomentSet(
            mx=x0, mp=0.0,
            mxx=(m + 1.0) + x0 * x0, mxp=0.0, mpp=m + 1.0,
            mx4=f4 + 6.0 * x0 * x0 * (m + 1) + x0 ** 4,
            mx3p=0.0,
            mx2p2=(m + 1) * (m + 2) / 2.0 + x0 * x0 * (m + 1),
            mxp3=0.0,
            mp4=f4,
        )
    if isinstance(state, PhotonAddedCoherent):
        z0 = abs(_amp(state)) ** 2
        _, r1, r2, r3, r4 = hyp1f1_deriv_ratios(state.m, z0)
        return HusimiMomentSet(
            mx=_SQ2 * abs(_amp(state)) * r1, mp=0.0,
            mxx=r1 + 2.0 * z0 * r2, mxp=0.0, mpp=r1,
            mx4=3.0 * r2 + 12.0 * z0 * r3 + 4.0 * z0 * z0 * r4,
            mx3p=0.0,
            mx2p2=r2 + 2.0 * z0 * r3,
            mxp3=0.0,
            mp4=3.0 * r2,
        )
    raise TypeError(f"unknown state model {type(state).__name__}")


def husimi_moments(state: StateModel) -> HusimiMomentSet:
    """Closed-form Husimi moments up to total degree 4."""
    if isinstance(state, Gaussian):
        x0, p0 = state.r0.rx, state.r0.rp
        s = state.g.as_array() + 0.5 * np.eye(2)
        s11, s12, s22 = s[0, 0], s[0, 1], s[1, 1]
        return HusimiMomentSet(
            mx=x0, mp=p0,
            mxx=s11 + x0 * x0, mxp=s12 + x0 * p0, mpp=s22 + p0 * p0,
            mx4=3 * s11 ** 2 + 6 * x0 * x0 * s11 + x0 ** 4,
            mx3p=x0 ** 3 * p0 + 3 * x0 * x0 * s12 + 3 * x0 * p0 * s11 + 3 * s11 * s12,
            mx2p2=x0 * x0 * p0 * p0 + x0 * x0 * s22 + p0 * p0 * s11
            + 4 * x0 * p0 * s12 + s11 * s22 + 2 * s12 * s12,
            mxp3=x0 * p0 ** 3 + 3 * p0 * p0 * s12 + 3 * x0 * p0 * s22 + 3 * s22 * s12,
            mp4=3 * s22 ** 2 + 6 * p0 * p0 * s22 + p0 ** 4,
        )
    if isinstance(state, Fock):
        return _husimi_moments_real(state)
    base = _husimi_moments_real(state)
    delta = cmath.phase(_amp(state))
    return base if delta == 0.0 else base.rotated(delta)


# ---------------------------------------------------------------------------
# derived state descriptors
# ---------------------------------------------------------------------------


def first_moments(state: StateModel) -> FirstMoments:
    """Mean quadrature vector r = (<X>, <P>)."""
    if isinstance(state, Gaussian):
        return state.r0
    h = husimi_moments(state)
    return FirstMoments(h.mx, h.mp)


def second_moment_matrix(state: StateModel) -> CovarianceMatrix:
    """Uncentered second-moment matrix G2 = Re<R R^T> = G + r r^T."""
    if isinstance(state, Gaussian):
        r = state.r0.as_array()
        return CovarianceMatrix.from_array(state.g.as_array() + np.outer(r, r))
    g2 = husimi_moments(state).second_matrix() - 0.5 * np.eye(2)
    return CovarianceMatrix.from_array(g2)


def covariance(state: StateModel) -> CovarianceMatrix:
    """State covariance matrix G; always satisfies det G >= 1/4."""
    if isinstance(state, Gaussian):
        return state.g
    h = husimi_moments(state)
    return CovarianceMatrix.from_array(h.central_covariance() - 0.5 * np.eye(2))


# ---------------------------------------------------------------------------
# Fock expansions and densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockExpansion:
    """Truncated Fock-basis amplitudes of a pure state."""

    coeffs: np.ndarray
    cutoff: int

    @property
    def norm_defect(self) -> float:
        return 1.0 - float(np.sum(np.abs(self.coeffs) ** 2))


def default_cutoff(state: StateModel) -> int:
    """Poisson-tail cutoff keeping the truncation defect below ~1e-10."""
    if isinstance(state, Fock):
        return state.n
    a2 = abs(_amp(state)) ** 2
    m = getattr(state, "m", 0)
    return int(math.ceil(a2 + m + 10.0 * math.sqrt(a2 + m + 1.0) + 20.0))


def fock_expansion(state: StateModel, cutoff: int | None = None,
                   eps_trunc: float = 1e-10) -> FockExpansion:
    """Normalized Fock-basis coefficients of a pure non-Gaussian state."""
    if isinstance(state, Gaussian):
        raise TypeError("fock_expansion covers the pure non-Gaussian families only")
    if cutoff is None:
        cutoff = default_cutoff(state)
    n = np.arange(cutoff + 1)
    if isinstance(state, Fock):
        if cutoff < state.n:
            raise CutoffError(f"cutoff {cutoff} below photon number {state.n}")
        c = np.zeros(cutoff + 1, dtype=complex)
        c[state.n] = 1.0
        return FockExpansion(c, cutoff)

    a0 = _amp(state)
    if isinstance(state, EvenOddCoherent):
        sgn = 1.0 if state.parity == "even" else -1.0
        a2 = abs(a0) ** 2
        c = np.zeros(cutoff + 1, dtype=complex)
        if a2 == 0.0:
            idx = 0 if sgn > 0 else 1
            if cutoff < idx:
                raise CutoffError("cutoff 0 cannot hold the odd-state limit |1>")
            c[idx] = 1.0
        else:
            mask = (n % 2 == 0) if sgn > 0 else (n % 2 == 1)
            logmag = n * math.log(abs(a0)) - 0.5 * log_factorial(n)
            phase = np.exp(1j * n * cmath.phase(a0))
            den = (1.0 + math.exp(-2 * a2)) if sgn > 0 else -math.expm1(-2 * a2)
            # |c_n|^2 = e^{-a2} a2^n / n! * 2 / den on the parity-allowed n
            c[mask] = np.exp(logmag[mask] - 0.5 * a2) * phase[mask] * math.sqrt(2.0 / den)
    elif isinstance(state, DisplacedFock):
        c = _displacement_column(a0, state.m, cutoff)
    elif isinstance(state, PhotonAddedCoherent):
        m = state.m
        c = np.zeros(cutoff + 1, dtype=complex)
        if abs(a0) == 0.0:
            if cutoff < m:
                raise CutoffError(f"cutoff {cutoff} below added-photon number {m}")
            c[m] = 1.0
        else:
            z0 = abs(a0) ** 2
            log_norm = 0.5 * (log_factorial(m) + hyp1f1_log(m + 1, 1, z0))
            k = np.arange(cutoff + 1 - m)
            logmag = (k * math.log(abs(a0)) + 0.5 * log_factorial(k + m)
                      - log_factorial(k) - log_norm)
            phase = np.exp(1j * k * cmath.phase(a0))
            c[m:] = np.exp(logmag) * phase
    else:
        raise TypeError(f"unknown state model {type(state).__name__}")

    defect = 1.0 - float(np.sum(np.abs(c) ** 2))
    if defect > eps_trunc:
        raise CutoffError(
            f"cutoff {cutoff} leaves truncation defect {defect:.3e} > {eps_trunc:.1e}"
        )
    return FockExpansion(c, cutoff)


def _displacement_column(alpha: complex, m: int, cutoff: int) -> np.ndarray:
    """<n|D(alpha)|m> for n = 0..cutoff."""
    if alpha == 0:
        c = np.zeros(cutoff + 1, dtype=complex)
        if cutoff >= m:
            c[m] = 1.0
        return c
    la = math.log(abs(alpha))
    out = np.zeros(cutoff + 1, dtype=complex)
    lf = log_factorial(np.arange(cutoff + m + 1))
    for n in range(cutoff + 1):
        acc = 0.0 + 0.0j
        for k in range(0, min(m, n) + 1):
            logmag = (0.5 * (lf[n] + lf[m]) - lf[n - k] - lf[m - k] - lf[k]
                      + (n + m - 2 * k) * la)
            term = math.exp(logmag) * (-1) ** (m - k)
            acc += term * cmath.exp(1j * (n - m) * cmath.phase(alpha))
        out[n] = acc * math.exp(-0.5 * abs(alpha) ** 2)
    return out


def quadrature_pdf(state: StateModel, theta: float, x) -> np.ndarray:
    """Probability density of the quadrature X_theta at points x."""
    x = np.asarray(x, dtype=float)
    if isinstance(state, Gaussian):
        t = quadrature_moments(state, theta)
        var = t.m2 - t.m1 * t.m1
        return np.exp(-0.5 * (x - t.m1) ** 2 / var) / math.sqrt(2 * math.pi * var)
    if isinstance(state, Fock):
        c = np.zeros(state.n + 1)
        c[state.n] = 1.0
        amp = oscillator_eigenfunction_sum(c, x)
        return amp * amp
    if isinstance(state, DisplacedFock):
        xt, _ = _xt_pt(_amp(state), theta)
        return quadrature_pdf(Fock(state.m), theta, x - float(xt))
    if isinstance(state, EvenOddCoherent):
        a0 = _amp(state)
        # below |alpha0|^2 ~ 1e-8 the odd-state interference cancellation
        # loses more accuracy than the O(|alpha0|^2) limit error
        if abs(a0) ** 2 < 1e-8:
            return quadrature_pdf(Fock(0 if state.parity == "even" else 1), theta, x)
        sgn = 1.0 if state.parity == "even" else -1.0
        beta = a0 * cmath.exp(-1j * theta)
        br, bi = beta.real, beta.imag
        a2 = abs(a0) ** 2
        den = 2.0 * (1.0 + math.exp(-2 * a2)) if sgn > 0 else -2.0 * math.expm1(-2 * a2)
        body = (
            np.exp(-((x - _SQ2 * br) ** 2))
            + np.exp(-((x + _SQ2 * br) ** 2))
            + sgn * 2.0 * np.exp(-x * x - 2.0 * br * br) * np.cos(2.0 * _SQ2 * bi * x)
        )
        return body / (den * math.sqrt(math.pi))
    if isinstance(state, PhotonAddedCoherent):
        # (A^dag)^m |beta> = D(beta) (B^dag + conj(beta))^m |0> in the frame
        # rotated by theta, so the density is that of m+1 number states
        # shifted by sqrt2 Re(beta) (Agarwal & Tara, PRA 43, 492, 1991)
        beta = _amp(state) * cmath.exp(-1j * theta)
        c = _photon_added_displaced_coeffs(beta, state.m)
        y = x - _SQ2 * beta.real
        re = oscillator_eigenfunction_sum(c.real, y)
        im = oscillator_eigenfunction_sum(c.imag, y)
        return re * re + im * im
    raise TypeError(f"unknown state model {type(state).__name__}")


def _photon_added_displaced_coeffs(beta: complex, m: int) -> np.ndarray:
    """Normalized amplitudes of (B^dag + conj(beta))^m |0> on |0>..|m>.

    c_j = C(m, j) sqrt(j!) conj(beta)^(m-j) / sqrt(m! e^{-|beta|^2}
    1F1(m+1; 1; |beta|^2)); at beta = 0 only c_m = 1 survives, exactly.
    """
    z = abs(beta) ** 2
    inv_norm = math.exp(-0.5 * (hyp1f1_log(m + 1, 1, z) - z))
    bbar = beta.conjugate()
    c = np.empty(m + 1, dtype=complex)
    for j in range(m + 1):
        c[j] = (math.comb(m, j) * math.exp(0.5 * (log_factorial(j) - log_factorial(m)))
                * bbar ** (m - j) * inv_norm)
    return c


def husimi_pdf(state: StateModel, x, p) -> np.ndarray:
    """Husimi density Q(x, p) = |<alpha|psi>|^2 / (2 pi), alpha = (x+ip)/sqrt2."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if isinstance(state, Gaussian):
        s = state.g.as_array() + 0.5 * np.eye(2)
        si = np.linalg.inv(s)
        dx = x - state.r0.rx
        dp = p - state.r0.rp
        quad = si[0, 0] * dx * dx + 2 * si[0, 1] * dx * dp + si[1, 1] * dp * dp
        return np.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(np.linalg.det(s)))
    if isinstance(state, Fock):
        n = state.n
        aa = 0.5 * (x * x + p * p)
        if n == 0:
            return np.exp(-aa) / (2 * math.pi)
        logaa = np.log(np.where(aa > 0, aa, 1.0))
        q = np.exp(n * logaa - aa - log_factorial(n)) / (2 * math.pi)
        return np.where(aa > 0, q, 0.0)
    if isinstance(state, DisplacedFock):
        a0 = _amp(state)
        return husimi_pdf(Fock(state.m), x - _SQ2 * a0.real, p - _SQ2 * a0.imag)
    if isinstance(state, EvenOddCoherent):
        a0 = _amp(state)
        if abs(a0) ** 2 < 1e-8:
            return husimi_pdf(Fock(0 if state.parity == "even" else 1), x, p)
        sgn = 1.0 if state.parity == "even" else -1.0
        a2 = abs(a0) ** 2
        alpha_bar = (x - 1j * p) / _SQ2
        w = alpha_bar * a0
        aa = 0.5 * (x * x + p * p)
        # |e^w + s e^{-w}|^2 = e^{2 Re w} + e^{-2 Re w} + 2 s cos(2 Im w)
        body = np.exp(2 * w.real - aa - a2) + np.exp(-2 * w.real - aa - a2) \
            + sgn * 2.0 * np.exp(-aa - a2) * np.cos(2 * w.imag)
        den = 2.0 * (1.0 + math.exp(-2 * a2)) if sgn > 0 else -2.0 * math.expm1(-2 * a2)
        return body / (2 * math.pi * den)
    if isinstance(state, PhotonAddedCoherent):
        a0 = _amp(state)
        m = state.m
        z0 = abs(a0) ** 2
        aa = 0.5 * (x * x + p * p)
        d2 = (x - _SQ2 * a0.real) ** 2 + (p - _SQ2 * a0.imag) ** 2
        log_norm = z0 - log_factorial(m) - hyp1f1_log(m + 1, 1, z0)
        with np.errstate(divide="ignore"):
            logq = m * np.log(np.maximum(aa, 1e-300)) if m > 0 else 0.0
        return np.exp(log_norm + logq - 0.5 * d2) / (2 * math.pi)
    raise TypeError(f"unknown state model {type(state).__name__}")


# ---------------------------------------------------------------------------
# plain-text serialization (used by CLI configs and dataset headers)
# ---------------------------------------------------------------------------

_FAMILY_NAMES = {
    Gaussian: "gaussian",
    Fock: "fock",
    DisplacedFock: "displaced_fock",
    PhotonAddedCoherent: "photon_added",
}


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}j"


def state_to_kv(state: StateModel) -> str:
    """Canonical single-line key=value descriptor of a state."""
    if isinstance(state, Gaussian):
        g = state.g
        return ("family=gaussian "
                f"x0={state.r0.rx!r} p0={state.r0.rp!r} "
                f"gxx={g.gxx!r} gxp={g.gxp!r} gpp={g.gpp!r}")
    if isinstance(state, Fock):
        return f"family=fock n={state.n}"
    if isinstance(state, EvenOddCoherent):
        return f"family={state.parity}_coherent alpha0={_fmt_complex(state.alpha0)}"
    if isinstance(state, DisplacedFock):
        return f"family=displaced_fock alpha0={_fmt_complex(state.alpha0)} m={state.m}"
    if isinstance(state, PhotonAddedCoherent):
        return f"family=photon_added alpha0={_fmt_complex(state.alpha0)} m={state.m}"
    raise TypeError(f"unknown state model {type(state).__name__}")


def state_from_kv(text) -> StateModel:
    """Parse a state descriptor; accepts the output of :func:`state_to_kv`.

    Gaussian states may be given either as (gxx, gxp, gpp) entries or in the
    spectral form (mu, lam, phi); both accept x0/p0 (default 0).
    """
    if isinstance(text, dict):
        kv = dict(text)
    else:
        kv = {}
        for tok in str(text).split():
            if "=" not in tok:
                raise ValueError(f"bad state token {tok!r}")
            k, v = tok.split("=", 1)
            kv[k.strip()] = v.strip()
    family = kv.pop("family", None)
    if family is None:
        raise ValueError("state descriptor requires family=...")
    try:
        if family == "gaussian":
            x0 = float(kv.pop("x0", 0.0))
            p0 = float(kv.pop("p0", 0.0))
            if "mu" in kv or "lam" in kv or "lambda" in kv:
                from .phasespace import GaussianShape, gaussian_cov_from_shape

                shape = GaussianShape(
                    mu=float(kv.pop("mu", 1.0)),
                    lam=float(kv.pop("lam", kv.pop("lambda", 1.0))),
                    phi=float(kv.pop("phi", 0.0)),
                )
                g = gaussian_cov_from_shape(shape)
            else:
                g = CovarianceMatrix(float(kv.pop("gxx")), float(kv.pop("gxp", 0.0)),
                                     float(kv.pop("gpp")))
            state = Gaussian(FirstMoments(x0, p0), g)
        elif family == "fock":
            state = Fock(int(kv.pop("n")))
        elif family in ("even_coherent", "odd_coherent"):
            state = EvenOddCoherent(complex(kv.pop("alpha0")), family.split("_")[0])
        elif family == "displaced_fock":
            state = DisplacedFock(complex(kv.pop("alpha0")), int(kv.pop("m")))
        elif family == "photon_added":
            state = PhotonAddedCoherent(complex(kv.pop("alpha0")), int(kv.pop("m")))
        else:
            raise ValueError(f"unknown family {family!r}")
    except KeyError as exc:
        raise ValueError(f"missing state parameter {exc.args[0]!r} for {family}") from None
    if kv:
        raise ValueError(f"unused state parameters: {sorted(kv)}")
    return state
