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

The moment data of a sequence of states comes from one product of the map
with their stacked core rows (``_moment_data``); a state's own moment data,
built once per state object, is that of a sequence of one.

The densities take the same split: each family states the quadrature and
Husimi densities of its core once, and ``quadrature_pdf``/``husimi_pdf``
evaluate them at the point minus the shift.  There are three core routes:
a centred Gaussian, the even/odd cat, and a finite Fock vector c, whose
quadrature density is |sum_j c_j e^{i(m-j) theta} psi_j(y)|^2 and whose
Husimi density is e^{-|b|^2} |sum_j c_j conj(b)^j / sqrt(j!)|^2 / (2 pi).
Fock and displaced Fock states have c = e_n; a photon-added state has the
amplitudes of (B^dag + conj alpha0)^m |0> (Agarwal & Tara, PRA 43, 492,
1991).

Everything here is validated against the brute-force routes in
:mod:`mtlab.oracle`, which also holds the Fock-basis expansions.
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
    "quadrature_moments",
    "husimi_moments",
    "first_moments",
    "covariance",
    "second_moment_matrix",
    "default_cutoff",
    "quadrature_pdf",
    "husimi_pdf",
    "state_to_kv",
    "state_from_kv",
]

_SQ2 = math.sqrt(2.0)

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


def _shifted_husimi(c: np.ndarray, x: np.ndarray, p: np.ndarray) -> HusimiMomentSet:
    """Husimi moments <(x' + x)^a (p' + p)^b> of the cores shifted by (x, p),
    from the core averages c (15, S) of ``_MONOMIALS``, by the binomial theorem."""
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
    """Moment data of a sequence of states, stacked along the first axis."""

    shift: np.ndarray  # (S, 2): (x0, p0)
    harmonics: np.ndarray  # (S, 6, 9): core <Y_theta^m>, m = 0..4, and the shift
    covariance: np.ndarray  # (S, 3): gxx, gxp, gpp
    husimi: HusimiMomentSet  # fields of shape (S,)


def _moment_data(states) -> _MomentData:
    """Moment data of the states from one product of ``_MOMENT_MAP`` with
    their stacked core rows (T.ravel(), x0, p0)."""
    rows = np.array([table + [x0, p0] for x0, p0, table in (s._core() for s in states)],
                    dtype=complex)
    r = _MOMENT_MAP @ rows.T  # (69, S)
    shift = rows[:, 25:].real
    c = r[54:].real
    # the covariance is shift-free: read it from the core
    _, cx, cp, cxx, cxp, cpp = c[:6]
    cov = np.stack([cxx - cx * cx - 0.5, cxp - cx * cp, cpp - cp * cp - 0.5], axis=1)
    return _MomentData(shift, r[:54].T.reshape(-1, 6, 9), cov, _shifted_husimi(c, *shift.T))


class _StateFamily:
    """Base of the state families: moment data built once from ``_core``.

    Each family also gives the densities of its core state:
    ``_core_quadrature_pdf(theta, y)``, of the core quadrature Y_theta, and
    ``_core_husimi_pdf(x, p)``.
    """

    def _core(self) -> tuple[float, float, list]:
        """Shift (x0, p0) and the table, row by row, of the core state it displaces."""
        raise NotImplementedError

    @cached_property
    def _moments(self) -> _MomentData:
        return _moment_data([self])

    @cached_property
    def _covariance(self) -> CovarianceMatrix:
        return CovarianceMatrix(*self._moments.covariance[0])


class _FockVector(_StateFamily):
    """Families whose core is a finite Fock vector ``_vector`` = (c_0, ..., c_m)."""

    def _core_quadrature_pdf(self, theta, y):
        # the core rotated by theta has amplitudes c_j e^{i (m - j) theta}
        c = self._vector
        w = c * np.exp(1j * theta * np.arange(c.size - 1, -1, -1))
        re = oscillator_eigenfunction_sum(w.real, y)
        if not w.imag.any():
            return re * re
        im = oscillator_eigenfunction_sum(w.imag, y)
        return re * re + im * im

    def _core_husimi_pdf(self, x, p):
        # e^{-|b|^2} |sum_j c_j conj(b)^j / sqrt(j!)|^2 / (2 pi), b = (x + ip)/sqrt2, by Horner
        c = self._vector
        bbar = (x - 1j * p) / _SQ2
        amp = c[-1]
        for j in range(c.size - 2, -1, -1):
            amp = amp * bbar / math.sqrt(j + 1.0) + c[j]
        return (amp.real ** 2 + amp.imag ** 2) * np.exp(-0.5 * (x * x + p * p)) / (2 * math.pi)


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

    def _core_quadrature_pdf(self, theta, y):
        var = _core_quadrature(self, theta)[2]  # the core is centred: <Y^2> is its variance
        return np.exp(-0.5 * y * y / var) / math.sqrt(2 * math.pi * var)

    def _core_husimi_pdf(self, x, p):
        s = self.g.as_array() + 0.5 * np.eye(2)
        si = np.linalg.inv(s)
        quad = si[0, 0] * x * x + 2 * si[0, 1] * x * p + si[1, 1] * p * p
        return np.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(np.linalg.det(s)))


@dataclass(frozen=True)
class Fock(_FockVector):
    """Photon-number state |n>."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ValueError("photon number n must be a non-negative integer")

    def _core(self):
        return 0.0, 0.0, _number_table(self.n)

    @cached_property
    def _vector(self):
        return np.eye(1, self.n + 1, self.n, dtype=complex)[0]  # e_n


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

    def _core_quadrature_pdf(self, theta, y):
        a0 = complex(self.alpha0)
        # below |alpha0|^2 ~ 1e-8 the odd-state interference cancellation
        # loses more accuracy than the O(|alpha0|^2) limit error
        if abs(a0) ** 2 < 1e-8:
            return Fock(0 if self.parity == "even" else 1)._core_quadrature_pdf(theta, y)
        sgn = 1.0 if self.parity == "even" else -1.0
        beta = a0 * cmath.exp(-1j * theta)
        br, bi = beta.real, beta.imag
        a2 = abs(a0) ** 2
        den = 2.0 * (1.0 + math.exp(-2 * a2)) if sgn > 0 else -2.0 * math.expm1(-2 * a2)
        body = (
            np.exp(-((y - _SQ2 * br) ** 2))
            + np.exp(-((y + _SQ2 * br) ** 2))
            + sgn * 2.0 * np.exp(-y * y - 2.0 * br * br) * np.cos(2.0 * _SQ2 * bi * y)
        )
        return body / (den * math.sqrt(math.pi))

    def _core_husimi_pdf(self, x, p):
        a0 = complex(self.alpha0)
        if abs(a0) ** 2 < 1e-8:
            return Fock(0 if self.parity == "even" else 1)._core_husimi_pdf(x, p)
        sgn = 1.0 if self.parity == "even" else -1.0
        a2 = abs(a0) ** 2
        # w = conj(alpha) alpha0 with alpha = (x + ip)/sqrt2, in real arithmetic
        wr2 = _SQ2 * (a0.real * x + a0.imag * p)
        wi2 = _SQ2 * (a0.imag * x - a0.real * p)
        g = -0.5 * (x * x + p * p) - a2
        # |e^w + s e^{-w}|^2 = e^{2 Re w} + e^{-2 Re w} + 2 s cos(2 Im w)
        body = np.exp(g + wr2) + np.exp(g - wr2) + sgn * 2.0 * np.exp(g) * np.cos(wi2)
        den = 2.0 * (1.0 + math.exp(-2 * a2)) if sgn > 0 else -2.0 * math.expm1(-2 * a2)
        return body / (2 * math.pi * den)


@dataclass(frozen=True)
class DisplacedFock(_FockVector):
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

    @cached_property
    def _vector(self):
        return np.eye(1, self.m + 1, self.m, dtype=complex)[0]  # e_m


@dataclass(frozen=True)
class PhotonAddedCoherent(_FockVector):
    """Normalized (A^dag)^m |alpha0>."""

    alpha0: complex
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 0):
            raise ValueError("m must be a non-negative integer")
        if not cmath.isfinite(complex(self.alpha0)):
            raise ValueError("amplitude must be finite")

    def _core(self):
        a = complex(self.alpha0)
        return _SQ2 * a.real, _SQ2 * a.imag, _fock_table(self._vector)

    @cached_property
    def _vector(self):
        """Normalized amplitudes of (B^dag + conj a)^m |0> on |0>..|m>, since
        (A^dag)^m |a> = D(a) (B^dag + conj a)^m |0> (Agarwal & Tara, PRA 43,
        492, 1991): c_j = C(m, j) sqrt(j!) conj(a)^(m-j) / sqrt(m! e^{-|a|^2}
        1F1(m+1; 1; |a|^2)); at a = 0 only c_m = 1 survives, exactly."""
        a, m = complex(self.alpha0), self.m
        z = abs(a) ** 2
        inv_norm = math.exp(-0.5 * (hyp1f1_log(m + 1, 1, z) - z))
        log_m = log_factorial(m)
        return np.array([math.comb(m, j) * math.exp(0.5 * (math.lgamma(j + 1.0) - log_m))
                         * a.conjugate() ** (m - j) * inv_norm for j in range(m + 1)])


StateModel = Union[Gaussian, Fock, EvenOddCoherent, DisplacedFock, PhotonAddedCoherent]


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
    return (state._moments.harmonics[0] @ np.exp(np.multiply.outer(_I_HARMONICS, theta))).real


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


def _x2_variance(harmonics: np.ndarray, theta) -> np.ndarray:
    """Var(X_theta^2) of each state of the stacked harmonics (S, 6, 9) of
    ``_MomentData``, at the phases theta: shape (S,) + shape of theta.

    Var((Y + x)^2) = Var(Y^2) + 4 x (Cov(Y^2, Y) + x Var(Y)) for the core
    quadrature Y: no x^4 terms, so nothing cancels at large amplitude."""
    q = (harmonics @ np.exp(np.multiply.outer(_I_HARMONICS, theta))).real
    _, u1, u2, u3, u4, x = q.swapaxes(0, 1)
    return u4 - u2 * u2 + 4.0 * x * (u3 - u1 * u2 + x * (u2 - u1 * u1))


def quadrature_x2_variance(state: StateModel, theta) -> np.ndarray:
    """<X_theta^4> - <X_theta^2>^2, vectorized over theta."""
    return _x2_variance(state._moments.harmonics, theta)[0]


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
    return HusimiMomentSet(**{k: float(v[0]) for k, v in vars(state._moments.husimi).items()})


# ---------------------------------------------------------------------------
# derived state descriptors
# ---------------------------------------------------------------------------


def first_moments(state: StateModel) -> FirstMoments:
    """Mean quadrature vector r = (<X>, <P>)."""
    h = state._moments.husimi
    return FirstMoments(h.mx[0], h.mp[0])


def covariance(state: StateModel) -> CovarianceMatrix:
    """State covariance matrix G; always satisfies det G >= 1/4."""
    return state._covariance


def second_moment_matrix(state: StateModel) -> CovarianceMatrix:
    """Uncentered second-moment matrix G2 = Re<R R^T> = G + r r^T."""
    g, r = covariance(state), first_moments(state)
    return CovarianceMatrix(g.gxx + r.rx * r.rx, g.gxp + r.rx * r.rp, g.gpp + r.rp * r.rp)


def default_cutoff(state: StateModel) -> int:
    """Poisson-tail cutoff keeping the truncation defect below ~1e-10."""
    if isinstance(state, Fock):
        return state.n
    a2 = abs(complex(state.alpha0)) ** 2
    m = getattr(state, "m", 0)
    return int(math.ceil(a2 + m + 10.0 * math.sqrt(a2 + m + 1.0) + 20.0))


# ---------------------------------------------------------------------------
# densities: the core density at the point minus the shift
# ---------------------------------------------------------------------------


def quadrature_pdf(state: StateModel, theta: float, x) -> np.ndarray:
    """Probability density of the quadrature X_theta at points x: the core
    density at x - (x0 cos(theta) + p0 sin(theta))."""
    shift = _core_quadrature(state, theta)[5]
    return state._core_quadrature_pdf(theta, np.asarray(x, dtype=float) - shift)


def husimi_pdf(state: StateModel, x, p) -> np.ndarray:
    """Husimi density Q(x, p) = |<alpha|psi>|^2 / (2 pi), alpha = (x+ip)/sqrt2:
    the core Husimi density at (x - x0, p - p0)."""
    x0, p0 = state._moments.shift[0]
    return state._core_husimi_pdf(np.asarray(x, dtype=float) - x0,
                                  np.asarray(p, dtype=float) - p0)


# ---------------------------------------------------------------------------
# plain-text serialization (used by CLI configs and dataset headers)
# ---------------------------------------------------------------------------

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
