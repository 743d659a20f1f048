"""State families and their quadrature and Husimi moments.

Five families are supported: Gaussian states, Fock states, even/odd coherent
superpositions, displaced Fock states and photon-added coherent states.  A
Fock state |n> is the displaced Fock state at alpha0 = 0 (``Fock`` is a
``DisplacedFock``), so the two share every table, density and draw.
Conventions: alpha = (x + i p)/sqrt(2), [X, P] = i, vacuum variance 1/2.

Every moment up to fourth order comes from one table per state: a core
state's normally ordered moments T[j, k] = <a^dag^j a^k> (j + k <= 4),
together with the phase-space shift (x0, p0) that displaces the core into
the state.  Each family has one array function, ``_rows``, that fills the
core rows (T.ravel(), x0, p0) of a stack of its states from arrays of their
parameters; the moment functions read the tables through constant
coefficient maps that rest on three identities:

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
with their stacked core rows (``_moment_data``), each family's rows built in
one pass.  A core that is a finite Fock vector c (displaced Fock, Fock and
photon-added states) has one table route: T[j, k] = <a^j c, a^k c>, the
Gram table of its ladder vectors (``_gram_tables``).  Such states of any m
share one stack of vectors, padded with zero amplitudes to the largest
m + 1; the padding adds exact zeros, so a state's rows do not depend on its
stack.  A state's own moment data, built once per state object, is that of
a stack of one, and so are its Fock vector and the sampler's photon-added
normalization.  A grid of Gaussian states can also be held as arrays
(``_GaussianStack``), so that no object is built per point.

The densities and draws take the same split: each family states the
quadrature and Husimi densities of its core once, and ``quadrature_pdf``/
``husimi_pdf`` evaluate them at the point minus the shift.  There are three
core routes: a centred Gaussian, the even/odd cat, and a finite Fock vector
c, whose quadrature density is |sum_j c_j e^{i(m-j) theta} psi_j(y)|^2 and
whose Husimi density is e^{-|b|^2} |sum_j c_j conj(b)^j / sqrt(j!)|^2 /
(2 pi).  A displaced Fock state D(alpha0)|m> has c = e_m; a photon-added state
has the amplitudes of (B^dag + conj alpha0)^m |0> (Agarwal & Tara, PRA 43,
492, 1991), normalized by their own finite sum of squares
(``_photon_added_mass``).
Each family draws its core, with the routines and streams of
:mod:`mtlab.sampling`, and the shift is added once; the photon-added Husimi
draw is of the whole state.  Gaussian quadrature samples are normal draws;
the others come by rejection under a Gaussian envelope about the core's own
<Y_theta>, with variance three times its <Y_theta^2>, so a large
displacement does not widen it.  Cells of width 0.02 over the envelope's
centre +- 5 standard deviations decide most of these tests without the
density (``sampling._cells``), from each family's proven bounds
(``_core_quadrature_taylor``): |f(x) - f(y)| <= |f'(y)| r + M2 r^2/2 for
|x - y| <= r, plus a rounding margin.  For a Fock vector, f' is again a
finite oscillator sum by the ladder relation psi_j' = sqrt(j/2) psi_{j-1} -
sqrt((j+1)/2) psi_{j+1}, and M2 >= sup |f''| follows from Cramer's
inequality |psi_j| <= 1.086435 pi^{-1/4}; the cat's M2 comes from the
closed-form bounds of its Gaussian factors and its cosine.  Husimi draws
are exact for Gaussian states
(covariance transform of G + I/2), Fock and displaced Fock states
(Gamma-distributed radius) and photon-added states (a finite mixture of
m + 1 noncentral chi-square radii, weighted by the terms of the
normalization, with a von Mises phase), each yielding its rows one block
of a test chunk at a time; even/odd cats use rejection against a
two-Gaussian mixture.  Both cat densities are (s + t cos w)/d; the cells
decide most quadrature tests, and the Husimi draw takes the cosine only for
the points that the bounds from |cos w| <= 1 leave undecided.  No draw or
moment truncates a Fock space.

Everything here is validated against the brute-force routes in
:mod:`mtlab.oracle`, which also holds the Fock-basis expansions.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .phasespace import (
    PHYSICALITY_TOL,
    CovarianceMatrix,
    FirstMoments,
    GaussianShape,
    gaussian_cov_from_shape,
    het_shift,
)
from .sampling import (
    _TEST_CHUNK,
    _cells,
    _chunks,
    _cos_bracket,
    _density,
    _exact_bracket,
    _polar_rows,
    _rejection,
    _write_blocks,
)
from .special import oscillator_eigenfunction_sum

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


def _rows_of(tables: np.ndarray, x0, p0) -> np.ndarray:
    """Core rows (S, 27) from the tables T.ravel() (S, 25) and the shifts (x0, p0)."""
    rows = np.empty((len(tables), 27), dtype=complex)
    rows[:, :25] = tables
    rows[:, 25] = x0
    rows[:, 26] = p0
    return rows


def _even_tables(t11, t02, t22, t13, t04) -> np.ndarray:
    """Tables (S, 25) of core states with <a^dag^j a^k> = 0 for odd j + k."""
    t = np.zeros((len(t11), 25), dtype=complex)
    t[:, 0] = 1.0
    t[:, [6, 2, 12, 8, 4]] = np.stack([t11, t02, t22, t13, t04], axis=1)
    t[:, [10, 16, 20]] = np.conj(t[:, [2, 8, 4]])
    return t


def _gram_tables(c: np.ndarray) -> np.ndarray:
    """Tables (S, 25) of the Fock vectors c (S, M): the Gram matrices of the
    ladder vectors a^k c, in one batched product.  Zeros that pad a vector
    past its last amplitude add exact zeros to its table."""
    s, n = c.shape
    ladder = np.zeros((s, 5, n), dtype=complex)
    ladder[:, 0] = c
    root = np.sqrt(np.arange(1.0, n))
    for k in range(1, min(5, n)):  # (a v)[i] = sqrt(i + 1) v[i + 1]
        ladder[:, k, :n - k] = root[:n - k] * ladder[:, k - 1, 1:n - k + 1]
    return (np.conj(ladder) @ ladder.swapaxes(1, 2)).reshape(s, 25)


def _gaussian_rows(x0, p0, gxx, gxp, gpp) -> np.ndarray:
    """Core rows (S, 27) of the Gaussian states with means (x0, p0) and
    covariances (gxx, gxp, gpp), from arrays: Wick's theorem on
    n = <a^dag a> and s = <a^2> of each centred state."""
    n = 0.5 * (gxx + gpp - 1.0)
    s = 0.5 * (gxx - gpp) + 1j * gxp
    return _rows_of(_even_tables(n, s, 2.0 * n * n + np.abs(s) ** 2, 3.0 * n * s, 3.0 * s * s),
                 x0, p0)


class _MomentData(NamedTuple):
    """Moment data of a sequence of states, stacked along the first axis."""

    shift: np.ndarray  # (S, 2): (x0, p0)
    harmonics: np.ndarray  # (S, 6, 9): core <Y_theta^m>, m = 0..4, and the shift
    covariance: np.ndarray  # (S, 3): gxx, gxp, gpp
    husimi: HusimiMomentSet  # fields of shape (S,)


def _core_rows(states) -> np.ndarray:
    """Stacked core rows (T.ravel(), x0, p0) (S, 27) of a sequence of states:
    the rows of each family come from its ``_rows`` in one array pass."""
    if isinstance(states, _GaussianStack):
        return states._rows()
    rows = np.empty((len(states), 27), dtype=complex)
    members = {}
    for k, s in enumerate(states):
        members.setdefault(type(s), []).append(k)
    for family, idx in members.items():
        rows[idx] = family._rows([states[k] for k in idx])
    return rows


def _moment_data(states) -> _MomentData:
    """Moment data of the states from one product of ``_MOMENT_MAP`` with
    their stacked core rows."""
    rows = _core_rows(states)
    r = _MOMENT_MAP @ rows.T  # (69, S)
    shift = rows[:, 25:].real
    c = r[54:].real
    # the covariance is shift-free: read it from the core
    _, cx, cp, cxx, cxp, cpp = c[:6]
    cov = np.stack([cxx - cx * cx - 0.5, cxp - cx * cp, cpp - cp * cp - 0.5], axis=1)
    return _MomentData(shift, r[:54].T.reshape(-1, 6, 9), cov, _shifted_husimi(c, *shift.T))


_ENVELOPE_INFLATION = 3.0  # quadrature envelope variance over the core's <Y_theta^2>
_SCAN_NODES = 2049
_SCAN_NODES_2D = 257
# the quadrature draw's cells: their width, and the half span of the table in
# envelope standard deviations (a proposal falls outside it with probability
# 5.7e-7, and is then tested without a cell)
_CELL_WIDTH = 0.02
_CELL_SPAN = 5.0
# the cell bounds' rounding margins, relative to the scale of each density
_CELL_ROUNDING = 1e-12


class _StateFamily:
    """Base of the state families: moment data built once, as a stack of one.

    Each family builds the core rows of a list of its states in one array
    pass, ``_rows(states)``, and states the densities and draws of its core:
    ``_core_quadrature_pdf(theta, y)``, of the core quadrature Y_theta,
    ``_core_husimi_pdf(x, p)``, ``_core_quadrature_draw(theta, u1, u2, n,
    gen)`` (u1, u2: the core <Y_theta>, <Y_theta^2>) and
    ``_core_husimi_blocks(n, gen, radii)``, the points of a heterodyne draw
    in blocks of ``sampling._TEST_CHUNK`` rows, in the order of the stream
    (radii: an n-long array for a pass over all n points, or None).
    ``_quadrature_draw`` and ``_husimi_blocks`` add the shift.

    Unless a family overrides it, the quadrature draw is rejection under a
    Gaussian envelope about u1, with a table of proven cell bounds
    (``sampling._cells``) from the family's ``_core_quadrature_taylor(theta,
    y)``: the density, its derivative, a bound M2 >= sup |f''| and a rounding
    margin.  The cells are the one squeeze of these tests: a point they leave
    undecided is tested on the density itself.
    """

    @cached_property
    def _moments(self) -> _MomentData:
        return _moment_data([self])

    def _quadrature_draw(self, theta, n, gen):
        _, u1, u2, _, _, shift = _core_quadrature(self, theta).tolist()
        return self._core_quadrature_draw(theta, u1, u2, n, gen) + shift

    def _core_quadrature_draw(self, theta, u1, u2, n, gen):
        var_env = _ENVELOPE_INFLATION * u2
        sd, half = math.sqrt(var_env), 6.0 * math.sqrt(u2) + abs(u1)

        def env(y):
            return np.exp(-0.5 * (y - u1) ** 2 / var_env) / math.sqrt(2 * math.pi * var_env)

        cells = _cells(lambda y: self._core_quadrature_taylor(theta, y), env, u1,
                       _CELL_SPAN * sd, _CELL_WIDTH)
        return _write_blocks(_rejection(
            lambda y: _exact_bracket(self._core_quadrature_pdf(theta, y)), env,
            lambda g, k: g.normal(u1, sd, size=k),
            [np.linspace(u1 - half, u1 + half, _SCAN_NODES)], n, gen, cells), np.empty(n))

    def _husimi_blocks(self, n, gen, radii=None):
        shift = self._moments.shift[0]
        for rows in self._core_husimi_blocks(n, gen, radii):
            rows += shift
            yield rows


# ---------------------------------------------------------------------------
# state families
# ---------------------------------------------------------------------------


def _check_count(value, name: str) -> None:
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer")


def _check_amplitude(alpha0) -> None:
    if not cmath.isfinite(complex(alpha0)):
        raise ValueError("amplitude must be finite")


@dataclass(frozen=True)
class Gaussian(_StateFamily):
    """Gaussian state with mean r0 and covariance matrix g (det g >= 1/4)."""

    r0: FirstMoments
    g: CovarianceMatrix

    def __post_init__(self):
        if not self.g.is_physical():
            raise ValueError(f"unphysical Gaussian covariance, det={self.g.det}")

    @staticmethod
    def _rows(states):
        return _gaussian_rows(*np.array([(s.r0.rx, s.r0.rp, s.g.gxx, s.g.gxp, s.g.gpp)
                                         for s in states]).T)

    def _core_quadrature_pdf(self, theta, y):
        var = _core_quadrature(self, theta)[2]  # the core is centred: <Y^2> is its variance
        return np.exp(-0.5 * y * y / var) / math.sqrt(2 * math.pi * var)

    def _core_husimi_pdf(self, x, p):
        s = self.g.as_array() + 0.5 * np.eye(2)
        si = np.linalg.inv(s)
        quad = si[0, 0] * x * x + 2 * si[0, 1] * x * p + si[1, 1] * p * p
        return np.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(np.linalg.det(s)))

    def _core_quadrature_draw(self, theta, u1, u2, n, gen):
        return gen.normal(u1, math.sqrt(u2 - u1 * u1), size=n)

    def _core_husimi_blocks(self, n, gen, radii=None):
        # the rows of normal(size=(n, 2)) @ chol.T, one test chunk at a time
        chol = np.linalg.cholesky(het_shift(self.g).as_array())
        for sl in _chunks(n):
            yield gen.normal(size=(sl.stop - sl.start, 2)) @ chol.T


class _GaussianStack:
    """Gaussian states held as arrays of (x0, p0, gxx, gxp, gpp), for grids.

    A sequence of states whose rows come from ``_gaussian_rows`` on the
    arrays themselves; it builds a ``Gaussian`` only for a point taken by
    index, to name it.  The points pass the checks of ``Gaussian`` at once,
    vectorized; the first point that fails is built, and raises its own
    ValueError.
    """

    def __init__(self, x0, p0, gxx, gxp, gpp):
        self.params = np.array(np.broadcast_arrays(x0, p0, gxx, gxp, gpp), dtype=float)
        _, _, gxx, gxp, gpp = self.params
        ok = (np.isfinite(self.params).all(axis=0) & (gxx > 0.0) & (gpp > 0.0)
              & (gxx * gpp - gxp * gxp >= 0.25 - PHYSICALITY_TOL))
        if not ok.all():
            self[int(np.argmin(ok))]  # raises

    def __len__(self) -> int:
        return self.params.shape[1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _GaussianStack(*self.params[:, k])
        x0, p0, gxx, gxp, gpp = self.params[:, k].tolist()
        return Gaussian(FirstMoments(x0, p0), CovarianceMatrix(gxx, gxp, gpp))

    def _rows(self):
        return _gaussian_rows(*self.params)


@dataclass(frozen=True)
class EvenOddCoherent(_StateFamily):
    """Normalized superposition (|alpha0> +- |-alpha0>), parity 'even'/'odd'."""

    alpha0: complex
    parity: str

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        _check_amplitude(self.alpha0)

    @staticmethod
    def _rows(states):
        # <a^dag^j a^k> = conj(a)^j a^k for even j + k, times tanh|a|^2 (even)
        # or coth|a|^2 (odd) when j is odd; w is |a|^2 times that factor
        a = np.array([complex(s.alpha0) for s in states])
        even = np.array([s.parity == "even" for s in states])
        a2 = np.abs(a) ** 2
        q1 = -np.expm1(-2.0 * a2)
        with np.errstate(divide="ignore", invalid="ignore"):  # the odd state at a = 0 has w = 1
            w = np.where(even, a2 * q1 / (2.0 - q1),
                         np.where(a2 > 0.0, a2 * (2.0 - q1) / q1, 1.0))
        aa = a * a
        return _rows_of(_even_tables(w, aa, a2 * a2, w * a * a, aa * aa), 0.0, 0.0)

    # Both cat densities are (s + t cos w)/d: the two components and their
    # interference.  The Husimi density is computed from its bracket
    # (``_cos_bracket``), so the squeeze of its draw bounds the very values
    # the density takes; the cells decide the quadrature draw's tests.

    def _constants(self):
        """(limit, a0, sgn, a2, den) of both densities: the interference sign,
        |alpha0|^2 and the normalization 2(1 + sgn e^{-2 a2}).  Below
        |alpha0|^2 ~ 1e-8 the odd-state interference cancellation loses more
        accuracy than the O(|alpha0|^2) limit error, so the limit Fock(0)
        (even) or Fock(1) (odd) gives the densities there; else it is None."""
        a0 = complex(self.alpha0)
        a2 = abs(a0) ** 2
        even = self.parity == "even"
        limit = Fock(0 if even else 1) if a2 < 1e-8 else None
        den = 2.0 * (1.0 + math.exp(-2 * a2)) if even else -2.0 * math.expm1(-2 * a2)
        return limit, a0, 1.0 if even else -1.0, a2, den

    def _core_quadrature_pdf(self, theta, y):
        limit, a0, sgn, _, den = self._constants()
        if limit is not None:
            return limit._core_quadrature_pdf(theta, y)
        beta = a0 * cmath.exp(-1j * theta)
        br, bi = beta.real, beta.imag
        s = np.exp(-((y - _SQ2 * br) ** 2)) + np.exp(-((y + _SQ2 * br) ** 2))
        t = sgn * 2.0 * np.exp(-y * y - 2.0 * br * br)
        return (s + t * np.cos(2.0 * _SQ2 * bi * y)) / (den * math.sqrt(math.pi))

    def _core_quadrature_taylor(self, theta, y):
        """(f, f', M2, margin) of the core quadrature density at the points y.

        f = (s + t cos w)/d with s = g(y - mu) + g(y + mu), t = sgn t0 g(y),
        g(z) = e^{-z^2}, t0 = 2 e^{-2 br^2}, w = kappa y, mu = sqrt2 br and
        kappa = 2 sqrt2 bi.  With |g'| <= sqrt(2/e) and |g''| <= 2,
        |f''| <= M2 = (4 + t0 (2 + 2 sqrt(2/e) |kappa| + kappa^2))/d.  The
        margin, 1e-12 (2 + t0 (1 + |kappa| (|y| + 1)))/d, covers the rounding
        of the exponentials, of w (relative, so the cosine's error grows with
        |w|) and of the sums.  Below |alpha0|^2 = 1e-8 the density is that of
        the limit Fock state (``_constants``), and so are these.
        """
        limit, a0, sgn, _, den = self._constants()
        if limit is not None:
            return limit._core_quadrature_taylor(theta, y)
        beta = a0 * cmath.exp(-1j * theta)
        mu, kappa = _SQ2 * beta.real, 2.0 * _SQ2 * beta.imag
        t0, d = 2.0 * math.exp(-2.0 * beta.real ** 2), den * math.sqrt(math.pi)
        t = sgn * t0 * np.exp(-y * y)
        fp = (-2.0 * ((y - mu) * np.exp(-((y - mu) ** 2)) + (y + mu) * np.exp(-((y + mu) ** 2)))
              - t * (2.0 * y * np.cos(kappa * y) + kappa * np.sin(kappa * y))) / d
        m2 = (4.0 + t0 * (2.0 + 2.0 * math.sqrt(2.0 / math.e) * abs(kappa) + kappa * kappa)) / d
        margin = _CELL_ROUNDING * (2.0 + t0 * (1.0 + abs(kappa) * (np.abs(y) + 1.0))) / d
        return self._core_quadrature_pdf(theta, y), fp, m2, margin

    def _core_husimi_bracket(self, x, p):
        limit, a0, sgn, a2, den = self._constants()
        if limit is not None:
            return _exact_bracket(limit._core_husimi_pdf(x, p))
        # w = conj(alpha) alpha0 with alpha = (x + ip)/sqrt2, in real arithmetic
        wr2 = _SQ2 * (a0.real * x + a0.imag * p)
        wi2 = _SQ2 * (a0.imag * x - a0.real * p)
        g = -0.5 * (x * x + p * p) - a2
        # |e^w + s e^{-w}|^2 = e^{2 Re w} + e^{-2 Re w} + 2 s cos(2 Im w)
        return _cos_bracket(np.exp(g + wr2) + np.exp(g - wr2), sgn * 2.0 * np.exp(g), wi2,
                            2 * math.pi * den)

    def _core_husimi_pdf(self, x, p):
        return _density(self._core_husimi_bracket(x, p))

    def _core_husimi_blocks(self, n, gen, radii=None):
        ghet = het_shift(covariance(self)).as_array()
        var_env = 2.0 * float(np.max(np.linalg.eigvalsh(ghet)))
        a0 = complex(self.alpha0)
        r0 = np.array([_SQ2 * a0.real, _SQ2 * a0.imag])
        centers = np.array([r0, -r0])

        def env(pts):  # equal-weight mixture of isotropic Gaussians about +-r0
            acc = np.zeros(len(pts))
            for cx, cp in centers:
                acc += np.exp(-0.5 * ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cp) ** 2) / var_env)
            return acc / (4 * math.pi * var_env)

        sd = math.sqrt(var_env)

        def propose(g, k):  # k component indices, then k pairs of normals
            # another dtype would change the stream, so the int64 draw is
            # narrowed to a byte per proposal one test chunk at a time; a
            # range-2 draw takes one 32-bit word per value, so the chunks
            # read the words of one whole call
            side = np.empty(k, dtype=np.uint8)
            for sl in _chunks(k):
                side[sl] = g.integers(0, 2, size=sl.stop - sl.start)
            # no batch of normals is kept: g skips them into one reused buffer
            # (standard_normal reads the words of normal(0, sd)), and a copy
            # of g draws them again one test chunk at a time, only for the
            # chunks that are tested
            again = np.random.Generator(copy.deepcopy(g.bit_generator))
            skip = np.empty(_TEST_CHUNK)
            for sl in _chunks(2 * k):
                g.standard_normal(out=skip[:sl.stop - sl.start])

            def chunks():
                for sl in _chunks(k):
                    pts = again.normal(0.0, sd, size=(sl.stop - sl.start, 2))
                    pts += np.take(centers, side[sl], axis=0)
                    yield pts

            return chunks()

        half = 6.0 * sd + float(np.hypot(*r0))
        xs = np.linspace(-half, half, _SCAN_NODES_2D)

        # the nodes (xs[i], xs[j]) in C order of (i, j), one test chunk at a time
        grid = (xs[np.column_stack(np.divmod(np.arange(sl.start, sl.stop), _SCAN_NODES_2D))]
                for sl in _chunks(_SCAN_NODES_2D ** 2))
        return _rejection(
            lambda pts: self._core_husimi_bracket(pts[:, 0], pts[:, 1]), env, propose,
            grid, n, gen)


#: Cramer's bound on the oscillator eigenfunctions, |psi_j(x)| <= 1.086435 pi^{-1/4}
_PSI_BOUND = 1.086435 * math.pi ** -0.25


def _derivative_coefficients(a: np.ndarray) -> np.ndarray:
    """The coefficients of (sum_j a_j psi_j)' on psi_0..psi_{len(a)}, by the
    ladder relation psi_j' = sqrt(j/2) psi_{j-1} - sqrt((j+1)/2) psi_{j+1}."""
    j = np.arange(a.size)
    d = np.zeros(a.size + 1)
    d[:-2] += a[1:] * np.sqrt(j[1:] / 2.0)
    d[1:] -= a * np.sqrt((j + 1) / 2.0)
    return d


@dataclass(frozen=True)
class _DisplacedCore(_StateFamily):
    """Families whose core is a finite Fock vector ``_vector`` = (c_0, ..., c_m),
    fixed by m, displaced by alpha0.

    Each family builds the vectors of a stack of its states in one array
    pass, ``_vectors(alpha0, m)``, zero-padded to the largest m + 1; their
    tables are the Gram tables of the vectors (``_gram_tables``), and a
    state's own vector is that of a stack of one.
    """

    alpha0: complex
    m: int

    def __post_init__(self):
        _check_count(self.m, "m")
        _check_amplitude(self.alpha0)

    @classmethod
    def _rows(cls, states):
        a = np.array([complex(s.alpha0) for s in states])
        return _rows_of(_gram_tables(cls._vectors(a, np.array([s.m for s in states]))),
                        _SQ2 * a.real, _SQ2 * a.imag)

    @cached_property
    def _vector(self):
        return self._vectors(np.array([complex(self.alpha0)]), np.array([self.m]))[0]

    def _rotated_parts(self, theta):
        """The real and imaginary parts of the amplitudes c_j e^{i (m - j) theta}
        of the core rotated by theta; the real part alone if the other is zero."""
        c = self._vector
        w = c * np.exp(1j * theta * np.arange(c.size - 1, -1, -1))
        return (w.real, w.imag) if w.imag.any() else (w.real,)

    def _core_quadrature_pdf(self, theta, y):
        # f = sum over the parts a of (sum_j a_j psi_j(y))^2
        f = 0.0
        for a in self._rotated_parts(theta):
            s = oscillator_eigenfunction_sum(a, y)
            f = f + s * s
        return f

    def _core_quadrature_taylor(self, theta, y):
        """(f, f', M2, margin) of the core quadrature density at the points y.

        Each part S = sum_j a_j psi_j has S' = sum_j a'_j psi_j, with the
        coefficients a' of ``_derivative_coefficients``, and S'' likewise from
        a''.  Cramer's inequality |psi_j(x)| <= B = 1.086435 pi^{-1/4}, for
        every j and x (Abramowitz & Stegun 22.14.17), bounds |S| <= B |a|_1, so
        f'' = 2 sum (S'^2 + S S'') gives |f''| <= M2 = 2 B^2 sum (|a'|_1^2 +
        |a|_1 |a''|_1).  The margin, 1e-12 (m + 3) (B sum (|a|_1 + |a'|_1))^2,
        covers the rounding of the recurrence, whose error in psi_j grows at
        most linearly in j (forward recurrence, stable where psi_j oscillates
        and dominant where it grows), and of the sums.
        """
        f = fp = 0.0
        m2 = scale = 0.0
        for a in self._rotated_parts(theta):
            a1 = _derivative_coefficients(a)
            a2 = _derivative_coefficients(a1)
            s, s1 = oscillator_eigenfunction_sum(a, y), oscillator_eigenfunction_sum(a1, y)
            f = f + s * s
            fp = fp + 2.0 * s * s1
            n0, n1, n2 = (float(np.abs(v).sum()) for v in (a, a1, a2))
            m2 += 2.0 * _PSI_BOUND ** 2 * (n1 * n1 + n0 * n2)
            scale += n0 + n1
        return f, fp, m2, _CELL_ROUNDING * (self.m + 3) * (_PSI_BOUND * scale) ** 2

    def _core_husimi_pdf(self, x, p):
        # e^{-|b|^2} |sum_j c_j conj(b)^j / sqrt(j!)|^2 / (2 pi), b = (x + ip)/sqrt2, by Horner
        c = self._vector
        bbar = (x - 1j * p) / _SQ2
        amp = c[-1]
        for j in range(c.size - 2, -1, -1):
            amp = amp * bbar / math.sqrt(j + 1.0) + c[j]
        return (amp.real ** 2 + amp.imag ** 2) * np.exp(-0.5 * (x * x + p * p)) / (2 * math.pi)


class DisplacedFock(_DisplacedCore):
    """Displaced Fock state D(alpha0)|m>."""

    @staticmethod
    def _vectors(alpha0, m):
        """The rows e_m (S, max m + 1) of the number states |m>."""
        c = np.zeros((len(m), int(np.max(m)) + 1), dtype=complex)
        c[np.arange(len(m)), m] = 1.0
        return c

    def _core_husimi_blocks(self, n, gen, radii=None):
        # s = |alpha|^2 ~ Gamma(m + 1) for all n points, then a uniform phase,
        # one test chunk at a time
        s = np.empty(n) if radii is None else radii
        for sl in _chunks(n):
            s[sl] = gen.gamma(shape=self.m + 1.0, scale=1.0, size=sl.stop - sl.start)
        for sl in _chunks(n):
            yield _polar_rows(s[sl], gen.uniform(0.0, 2.0 * math.pi, size=sl.stop - sl.start))


class Fock(DisplacedFock):
    """Photon-number state |n>: the displaced Fock state at alpha0 = 0."""

    def __init__(self, n: int):
        _check_count(n, "photon number n")
        super().__init__(0.0, n)

    @property
    def n(self) -> int:
        return self.m


def _photon_added_mass(z: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masses ||(B^dag + sqrt z)^m |0>||^2 = sum_j C(m, j)^2 j! z^(m-j) =
    m! L_m(-z) = m! e^{-z} 1F1(m+1; 1; z) of a stack of (z, m), as (the terms
    j = 0..m of each over its largest, zero past m: shape (S, max m + 1);
    the index of the largest term, shape (S,)).

    term_{j-1}/term_j = q_j = j z/(m-j+1)^2 grows with j, so the largest term
    follows the ratios below one, and each other term is a product of ratios
    at most one: nothing overflows.  Each product runs over the whole stack
    width, with the factors outside its own range masked to 1.0, so it is
    exact: a state's terms do not depend on the stack it is in.
    """
    j = np.arange(1, int(np.max(m)) + 1)
    live = j <= m[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # q and 1/q where masked off
        q = j * z[:, None] / (m[:, None] - j + 1.0) ** 2
        below = live & (q < 1.0)
        w = np.ones((len(m), j.size + 1))
        w[:, :-1] = np.cumprod(np.where(below, q, 1.0)[:, ::-1], axis=1)[:, ::-1]
        w[:, 1:] *= np.cumprod(np.where(live & ~below, 1.0 / q, 1.0), axis=1)
    w[:, 1:][~live] = 0.0
    return w, below.sum(axis=1)


def _photon_added_vectors(alpha0: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Normalized amplitudes (S, max m + 1) of (B^dag + conj a)^m |0> on
    |0>..|m>, zero past m, for a stack of (a, m), since (A^dag)^m |a> =
    D(a) (B^dag + conj a)^m |0> (Agarwal & Tara, PRA 43, 492, 1991):
    c_j = C(m, j) sqrt(j!) conj(a)^(m-j) over the root of
    ``_photon_added_mass``; at a = 0 only c_m = 1 survives, exactly."""
    w, _ = _photon_added_mass(np.abs(alpha0) ** 2, m)
    total = np.cumsum(w, axis=1)[:, -1:]  # a sequential sum: the zero padding adds exact zeros
    power = m[:, None] - np.arange(w.shape[1])
    return np.sqrt(w / total) * np.exp(-1j * (np.angle(alpha0)[:, None] * power))


class PhotonAddedCoherent(_DisplacedCore):
    """Normalized (A^dag)^m |alpha0>."""

    _vectors = staticmethod(_photon_added_vectors)

    def _husimi_blocks(self, n, gen, radii=None):
        """Exact draw from Q ~ |alpha|^{2m} exp(-|alpha - alpha0|^2), shift included.

        In polar form s = |alpha|^2 is a mixture over k of Gamma(m + k + 1)
        with weights z0^k (m+k)! / (k!)^2, z0 = |alpha0|^2.  These are the
        Poisson(z0) weights times (k+1)...(k+m) = sum_j C(m, j) (m!/j!)
        k!/(k-j)!, so the mixture is a finite one: component j = 0..m, with
        weight C(m, j) (m!/j!) z0^j (the terms of ``_photon_added_mass`` read
        in reverse), is the Poisson(z0) mixture of Gamma(m + 1 + j + K), that
        is half a noncentral chi-square with 2 (m + 1 + j) degrees of freedom
        and noncentrality 2 z0.  Given s, arg(alpha) is von Mises about
        arg(alpha0) with concentration 2 sqrt(s z0); at alpha0 = 0 the draw is
        a plain chi-square radius and a uniform phase.
        """
        alpha0, m = complex(self.alpha0), self.m
        z0 = abs(alpha0) ** 2
        w, _ = _photon_added_mass(np.array([z0]), np.array([m]))
        cdf = np.cumsum(w[0, m::-1])
        cdf /= cdf[-1]
        # each pass draws all n values one test chunk at a time, in one
        # array: the degrees of freedom 2 (m + 1 + j) from the uniforms, the
        # radii s over them, then the phases, with the von Mises
        # concentrations 2 sqrt(s z0)
        s = np.empty(n) if radii is None else radii
        for sl in _chunks(n):
            j = np.searchsorted(cdf, gen.random(sl.stop - sl.start), side="right")
            s[sl] = (j + (m + 1.0)) * 2.0
        for sl in _chunks(n):
            s[sl] = gen.noncentral_chisquare(s[sl], 2.0 * z0) * 0.5
        for sl in _chunks(n):
            kappa = np.sqrt(s[sl] * z0) * 2.0
            yield _polar_rows(s[sl], gen.vonmises(cmath.phase(alpha0), kappa))


StateModel = Union[Gaussian, Fock, EvenOddCoherent, DisplacedFock, PhotonAddedCoherent]

#: the families of an amplitude alpha0: name -> ((alpha0, m) -> state, takes m);
#: a coherent state is the displaced Fock state at m = 0
_AMPLITUDE_FAMILIES = {
    "coherent": (lambda a0, m: DisplacedFock(a0, 0), False),
    "even_coherent": (lambda a0, m: EvenOddCoherent(a0, "even"), False),
    "odd_coherent": (lambda a0, m: EvenOddCoherent(a0, "odd"), False),
    "displaced_fock": (DisplacedFock, True),
    "photon_added": (PhotonAddedCoherent, True),
}


# ---------------------------------------------------------------------------
# quadrature moments <X_theta^m>, m <= 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureMomentTable:
    """First four moments of the rotated quadrature X_theta."""

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
    return CovarianceMatrix(*state._moments.covariance[0])


def second_moment_matrix(state: StateModel) -> CovarianceMatrix:
    """Uncentered second-moment matrix G2 = Re<R R^T> = G + r r^T."""
    g, r = covariance(state), first_moments(state)
    return CovarianceMatrix(g.gxx + r.rx * r.rx, g.gxp + r.rx * r.rp, g.gpp + r.rp * r.rp)


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
# plain-text serialization (used by CLI configs, reports and error messages)
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
            if "mu" in kv or "lam" in kv:
                g = gaussian_cov_from_shape(GaussianShape(
                    mu=float(kv.pop("mu", 1.0)),
                    lam=float(kv.pop("lam", 1.0)),
                    phi=float(kv.pop("phi", 0.0)),
                ))
            else:
                g = CovarianceMatrix(float(kv.pop("gxx")), float(kv.pop("gxp", 0.0)),
                                     float(kv.pop("gpp")))
            state = Gaussian(FirstMoments(x0, p0), g)
        elif family == "fock":
            state = Fock(int(kv.pop("n")))
        elif family in _AMPLITUDE_FAMILIES:
            build, takes_m = _AMPLITUDE_FAMILIES[family]
            state = build(complex(kv.pop("alpha0")), int(kv.pop("m")) if takes_m else None)
        else:
            raise ValueError(f"unknown family {family!r}")
    except KeyError as exc:
        raise ValueError(f"missing state parameter {exc.args[0]!r} for {family}") from None
    if kv:
        raise ValueError(f"unused state parameters: {sorted(kv)}")
    return state
