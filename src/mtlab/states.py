"""State families and their quadrature and Husimi moments.

Five families are supported: Gaussian states, Fock states, even/odd coherent
superpositions, displaced Fock states and photon-added coherent states.
Conventions: alpha = (x + i p)/sqrt(2), [X, P] = i, vacuum variance 1/2.

Every moment up to fourth order comes from one table per state: a core
state's normally ordered moments T[j, k] = <a^dag^j a^k> (j + k <= 4),
together with the phase-space shift (x0, p0) that displaces the core into
the state.  Each family builds its core table once, in ``_core``; the
moment functions read it through constant coefficient maps that rest on
three identities:

* e^{t X_theta} = e^{t e^{i theta} a^dag/sqrt2} e^{t e^{-i theta} a/sqrt2}
  e^{t^2/4}, which gives <X_theta^m> as harmonics e^{i d theta}, |d| <= 4;
* the Husimi function averages anti-normal products, and
  <a^k a^dag^j> = sum_l l! C(k, l) C(j, l) T[j-l, k-l] (Cahill & Glauber,
  Phys. Rev. 177, 1857, 1969);
* a displacement shifts X_theta by x0 cos(theta) + p0 sin(theta) and the
  Husimi variables by (x0, p0), so the displaced moments are binomial sums
  of the core moments.  Variances are formed from the core moments and the
  shift, with no x^4 terms to cancel at large amplitude.

Everything here is validated against the brute-force routes in
:mod:`mtlab.oracle`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .phasespace import CovarianceMatrix, FirstMoments
from .special import hyp1f1_log, log_factorial, oscillator_eigenfunction_sum

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
# the moment table T[j, k] = <a^dag^j a^k>, j + k <= 4
# ---------------------------------------------------------------------------


#: exponents (a, b) of the Husimi monomials x^a p^b, total degree 0..4
_MONOMIALS = [(a, d - a) for d in range(5) for a in range(d, -1, -1)]


def _moment_map() -> np.ndarray:
    """Complex 69x27 map from (T.ravel(), x0, p0) to the moment data of a state.

    Rows 9 m + 4 + d (m = 0..4, d = -4..4) hold the harmonic e^{i d theta} of
    the core <Y_theta^m> = sum over j + k + 2l = m of m!/(j! k! l!) 4^-l
    2^-(j+k)/2 e^{i (j-k) theta} T[j, k], from e^{t Y_theta} =
    e^{t e^{i theta} a^dag/sqrt2} e^{t e^{-i theta} a/sqrt2} e^{t^2/4}.
    Rows 45-53 hold the harmonics of the shift x0 cos(theta) + p0 sin(theta).
    Rows 54-68 hold the core Husimi averages of ``_MONOMIALS``: x^a p^b =
    2^-(a+b)/2 (-i)^b (alpha + conj alpha)^a (alpha - conj alpha)^b, and the
    average of alpha^k conj(alpha)^j is the anti-normal <a^k a^dag^j> =
    sum_l l! C(k, l) C(j, l) T[j-l, k-l] (Cahill & Glauber 1969).
    """
    quad = np.zeros((5, 9, 5, 5))
    anti = np.zeros((5, 5, 5, 5))
    for j in range(5):
        for k in range(5 - j):
            for l in range((4 - j - k) // 2 + 1):
                m = j + k + 2 * l
                quad[m, 4 + j - k, j, k] = (
                    math.factorial(m) / (math.factorial(j) * math.factorial(k) * math.factorial(l))
                    / 4 ** l / 2 ** ((j + k) / 2))
            for l in range(min(j, k) + 1):
                anti[j, k, j - l, k - l] = math.factorial(l) * math.comb(k, l) * math.comb(j, l)
    husimi = np.zeros((15, 5, 5), dtype=complex)
    for row, (a, b) in enumerate(_MONOMIALS):
        for r in range(a + 1):
            for s in range(b + 1):
                husimi[row, a + b - r - s, r + s] += (math.comb(a, r) * math.comb(b, s)
                                                      * (-1) ** (b - s) * (-1j) ** b
                                                      / 2 ** ((a + b) / 2))
    out = np.zeros((69, 27), dtype=complex)
    out[:45, :25] = quad.reshape(45, 25)
    out[[48, 50], 25] = 0.5
    out[[48, 50], 26] = 0.5j, -0.5j
    out[54:, :25] = husimi.reshape(15, 25) @ anti.reshape(25, 25)
    return out


def _shifted_husimi(c: list, x: float, p: float) -> HusimiMomentSet:
    """Husimi moments <(x' + x)^a (p' + p)^b> of the core shifted by (x, p),
    from the core averages c of ``_MONOMIALS``, by the binomial theorem."""
    _, c10, c01, c20, c11, c02, c30, c21, c12, c03, c40, c31, c22, c13, c04 = c
    p1 = c01 + p                                  # <(p' + p)^b>, b = 1..3
    p2 = c02 + p * (2.0 * c01 + p)
    p3 = c03 + p * (3.0 * c02 + p * (3.0 * c01 + p))
    return HusimiMomentSet(
        mx=c10 + x,
        mp=p1,
        mxx=c20 + x * (2.0 * c10 + x),
        mxp=c11 + p * c10 + x * p1,
        mpp=p2,
        mx4=c40 + x * (4.0 * c30 + x * (6.0 * c20 + x * (4.0 * c10 + x))),
        mx3p=(c31 + p * c30 + x * (3.0 * (c21 + p * c20)
                                   + x * (3.0 * (c11 + p * c10) + x * p1))),
        mx2p2=(c22 + p * (2.0 * c21 + p * c20)
               + x * (2.0 * (c12 + p * (2.0 * c11 + p * c10)) + x * p2)),
        mxp3=c13 + p * (3.0 * c12 + p * (3.0 * c11 + p * c10)) + x * p3,
        mp4=c04 + p * (4.0 * c03 + p * (6.0 * c02 + p * (4.0 * c01 + p))),
    )


_MOMENT_MAP = _moment_map()
_I_HARMONICS = 1j * np.arange(-4, 5)


def _even_table(t11, t02, t22, t13, t04) -> list:
    """Table, row by row, of a core state with <a^dag^j a^k> = 0 for odd j + k."""
    return [1.0, 0, t02, 0, t04,
            0, t11, 0, t13, 0,
            t02.conjugate(), 0, t22, 0, 0,
            0, t13.conjugate(), 0, 0, 0,
            t04.conjugate(), 0, 0, 0, 0]


def _number_table(n: int) -> list:
    """Table, row by row, of |n>: <a^dag^k a^k> = n!/(n-k)!, zero off the diagonal."""
    t = [0.0] * 25
    t[0] = 1.0
    for k in range(1, 5):
        t[6 * k] = t[6 * k - 6] * (n - k + 1)
    return t


def _fock_table(c: np.ndarray) -> list:
    """Table, row by row, of the Fock vector c: the Gram matrix of the ladder
    vectors a^k c."""
    n = c.size
    ladder = np.zeros((5, n), dtype=complex)
    ladder[0] = c
    root = np.sqrt(np.arange(1.0, n))
    for k in range(1, min(5, n)):  # (a v)[i] = sqrt(i + 1) v[i + 1]
        ladder[k, :n - k] = root[:n - k] * ladder[k - 1, 1:n - k + 1]
    return (np.conj(ladder) @ ladder.T).ravel().tolist()


class _MomentData(NamedTuple):
    harmonics: np.ndarray  # (6, 9): core <Y_theta^m>, m = 0..4, and the shift
    core_husimi: list  # core Husimi averages of ``_MONOMIALS``
    husimi: HusimiMomentSet


class _StateFamily:
    """Base of the state families: moment data built once from ``_core``."""

    def _core(self) -> tuple[float, float, list]:
        """Shift (x0, p0) and the table, row by row, of the core state it displaces."""
        raise NotImplementedError

    @cached_property
    def _moments(self) -> _MomentData:
        x0, p0, table = self._core()
        r = _MOMENT_MAP @ np.array(table + [x0, p0], dtype=complex)
        c = r[54:].real.tolist()
        return _MomentData(r[:54].reshape(6, 9), c, _shifted_husimi(c, x0, p0))

    @cached_property
    def _covariance(self) -> CovarianceMatrix:
        # the covariance is shift-free: read it from the core
        _, cx, cp, cxx, cxp, cpp = self._moments.core_husimi[:6]
        return CovarianceMatrix(cxx - cx * cx - 0.5, cxp - cx * cp, cpp - cp * cp - 0.5)


# ---------------------------------------------------------------------------
# state families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian(_StateFamily):
    """Gaussian state with mean r0 and covariance matrix g (det g >= 1/4)."""

    r0: FirstMoments
    g: CovarianceMatrix

    def __post_init__(self):
        if not self.g.is_physical():
            raise ValueError(f"unphysical Gaussian covariance, det={self.g.det}")

    def _core(self):
        # Wick's theorem on n = <a^dag a> and s = <a^2> of the centred state
        g = self.g
        n = 0.5 * (g.gxx + g.gpp - 1.0)
        s = 0.5 * complex(g.gxx - g.gpp, 2.0 * g.gxp)
        return self.r0.rx, self.r0.rp, _even_table(
            n, s, 2.0 * n * n + abs(s) ** 2, 3.0 * n * s, 3.0 * s * s)


@dataclass(frozen=True)
class Fock(_StateFamily):
    """Photon-number state |n>."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ValueError("photon number n must be a non-negative integer")

    def _core(self):
        return 0.0, 0.0, _number_table(self.n)


@dataclass(frozen=True)
class EvenOddCoherent(_StateFamily):
    """Normalized superposition (|alpha0> +- |-alpha0>), parity 'even'/'odd'."""

    alpha0: complex
    parity: str

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if not cmath.isfinite(complex(self.alpha0)):
            raise ValueError("amplitude must be finite")

    def _core(self):
        # <a^dag^j a^k> = conj(a)^j a^k for even j + k, times tanh|a|^2 (even)
        # or coth|a|^2 (odd) when j is odd; w is |a|^2 times that factor
        a = complex(self.alpha0)
        a2 = abs(a) ** 2
        q1 = -math.expm1(-2.0 * a2)
        if self.parity == "even":
            w = a2 * q1 / (2.0 - q1)
        else:
            w = a2 * (2.0 - q1) / q1 if a2 else 1.0
        return 0.0, 0.0, _even_table(w, a * a, a2 * a2, w * a * a, a ** 4)


@dataclass(frozen=True)
class DisplacedFock(_StateFamily):
    """Displaced Fock state D(alpha0)|m>."""

    alpha0: complex
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 0):
            raise ValueError("m must be a non-negative integer")
        if not cmath.isfinite(complex(self.alpha0)):
            raise ValueError("amplitude must be finite")

    def _core(self):
        a = complex(self.alpha0)
        return _SQ2 * a.real, _SQ2 * a.imag, _number_table(self.m)


@dataclass(frozen=True)
class PhotonAddedCoherent(_StateFamily):
    """Normalized (A^dag)^m |alpha0>."""

    alpha0: complex
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 0):
            raise ValueError("m must be a non-negative integer")
        if not cmath.isfinite(complex(self.alpha0)):
            raise ValueError("amplitude must be finite")

    def _core(self):
        # (A^dag)^m |a> = D(a) (B^dag + conj a)^m |0> (Agarwal & Tara, PRA 43, 492, 1991)
        a = complex(self.alpha0)
        return (_SQ2 * a.real, _SQ2 * a.imag,
                _fock_table(_photon_added_displaced_coeffs(a, self.m)))


StateModel = Union[Gaussian, Fock, EvenOddCoherent, DisplacedFock, PhotonAddedCoherent]


def _amp(state) -> complex:
    return complex(state.alpha0)


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


def _core_quadrature(state: StateModel, theta) -> np.ndarray:
    """Rows 1, mu1, mu2, mu3, mu4 (the core <Y_theta^m>) and x0 cos + p0 sin."""
    return (state._moments.harmonics @ np.exp(np.multiply.outer(_I_HARMONICS, theta))).real


def quadrature_moments(state: StateModel, theta: float) -> QuadratureMomentTable:
    """<X_theta^m> for m = 1..4."""
    _, u1, u2, u3, u4, x = _core_quadrature(state, float(theta)).tolist()
    return QuadratureMomentTable(
        float(theta),
        x + u1,
        x * x + 2.0 * x * u1 + u2,
        x ** 3 + 3.0 * x * x * u1 + 3.0 * x * u2 + u3,
        x ** 4 + 4.0 * x ** 3 * u1 + 6.0 * x * x * u2 + 4.0 * x * u3 + u4,
    )


def quadrature_x2_variance(state: StateModel, theta) -> np.ndarray:
    """<X_theta^4> - <X_theta^2>^2, vectorized over theta.

    Var((Y + x)^2) = Var(Y^2) + 4 x (Cov(Y^2, Y) + x Var(Y)) for the core
    quadrature Y: no x^4 terms, so nothing cancels at large amplitude."""
    _, u1, u2, u3, u4, x = _core_quadrature(state, theta)
    return u4 - u2 * u2 + 4.0 * x * (u3 - u1 * u2 + x * (u2 - u1 * u1))


def quadrature_variance(state: StateModel, theta) -> np.ndarray:
    """<X_theta^2> - <X_theta>^2, vectorized over theta."""
    _, u1, u2, _, _, _ = _core_quadrature(state, theta)
    return u2 - u1 * u1


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


def husimi_moments(state: StateModel) -> HusimiMomentSet:
    """Husimi moments up to total degree 4."""
    return state._moments.husimi


# ---------------------------------------------------------------------------
# derived state descriptors
# ---------------------------------------------------------------------------


def first_moments(state: StateModel) -> FirstMoments:
    """Mean quadrature vector r = (<X>, <P>)."""
    h = state._moments.husimi
    return FirstMoments(h.mx, h.mp)


def covariance(state: StateModel) -> CovarianceMatrix:
    """State covariance matrix G; always satisfies det G >= 1/4."""
    return state._covariance


def second_moment_matrix(state: StateModel) -> CovarianceMatrix:
    """Uncentered second-moment matrix G2 = Re<R R^T> = G + r r^T."""
    g, r = covariance(state), first_moments(state)
    return CovarianceMatrix(g.gxx + r.rx * r.rx, g.gxp + r.rx * r.rp, g.gpp + r.rp * r.rp)


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
        xt = _SQ2 * (_amp(state) * cmath.exp(-1j * theta)).real
        return quadrature_pdf(Fock(state.m), theta, x - xt)
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
    log_m = log_factorial(m)
    return np.array([math.comb(m, j) * math.exp(0.5 * (math.lgamma(j + 1.0) - log_m))
                     * bbar ** (m - j) * inv_norm for j in range(m + 1)])


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
        # w = conj(alpha) alpha0 with alpha = (x + ip)/sqrt2, in real arithmetic
        wr2 = _SQ2 * (a0.real * x + a0.imag * p)
        wi2 = _SQ2 * (a0.imag * x - a0.real * p)
        g = -0.5 * (x * x + p * p) - a2
        # |e^w + s e^{-w}|^2 = e^{2 Re w} + e^{-2 Re w} + 2 s cos(2 Im w)
        body = np.exp(g + wr2) + np.exp(g - wr2) + sgn * 2.0 * np.exp(g) * np.cos(wi2)
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
