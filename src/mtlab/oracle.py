"""Independent brute-force numerics used to validate every closed form.

Two routes are provided for each moment: direct density integration
(composite Simpson over the evaluable densities) and finite-difference
differentiation of the characteristic functions, which are written down
here from their defining expressions rather than reusing the hand-derived
moment formulas.  A Simpson-rule Fisher integral (different rule from the
engine's trapezoid) closes the loop on the bounds.  Truncated Fock-basis
expansions are the reference for the moment tables and densities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .special import hyp1f1, hyp1f1_log, laguerre, log_factorial
from . import states as st
from .states import StateModel

__all__ = [
    "OracleConfig",
    "numeric_quadrature_moment",
    "numeric_quadrature_moment_table",
    "numeric_husimi_moment",
    "numeric_husimi_moment_set",
    "quadrature_char",
    "husimi_char",
    "cf_quadrature_moment",
    "cf_husimi_moment",
    "numeric_fisher",
    "OracleFailure",
    "FockExpansion",
    "CutoffError",
    "fock_expansion",
]

_SQ2 = math.sqrt(2.0)


class OracleFailure(ArithmeticError):
    """An oracle integration or differentiation failed to converge."""


class CutoffError(ValueError):
    """Fock-space cutoff too small for the requested truncation error."""


@dataclass(frozen=True)
class OracleConfig:
    """Numerical knobs for the brute-force routes."""

    grid_extent: float = 10.0
    nodes_1d: int = 2049
    nodes_2d: int = 513
    fd_step: float = 1e-3
    richardson_levels: int = 3

    def __post_init__(self):
        if self.nodes_1d % 2 == 0 or self.nodes_2d % 2 == 0:
            raise ValueError("Simpson rules need an odd node count")
        if self.grid_extent <= 5:
            raise ValueError("grid extent must exceed 5 sigma")


_DEFAULT = OracleConfig()


def _simpson(values: np.ndarray, step: float, axis: int = -1) -> float:
    n = values.shape[axis]
    if n % 2 == 0:
        raise ValueError("Simpson needs an odd number of nodes")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.tensordot(values, w, axes=([axis], [0])) * (step / 3.0)


def numeric_quadrature_moment(state: StateModel, theta: float, m: int,
                              config: OracleConfig = _DEFAULT) -> float:
    """int x^m p_theta(x) dx by composite Simpson with node-doubling check."""
    if m > 6:
        raise ValueError("moments up to order 6 only")
    t = st.quadrature_moments(state, theta)
    half = config.grid_extent * math.sqrt(t.m2) + abs(t.m1)

    def value(nodes):
        xs = np.linspace(-half, half, nodes)
        dens = st.quadrature_pdf(state, theta, xs)
        return _simpson(xs ** m * dens if m else dens, xs[1] - xs[0])

    coarse = value(config.nodes_1d)
    fine = value(2 * config.nodes_1d - 1)
    scale = max(abs(fine), math.sqrt(t.m2) ** m, 1e-12)
    if abs(fine - coarse) > 1e-6 * scale:
        raise OracleFailure(
            f"quadrature-moment integration did not converge (delta="
            f"{abs(fine - coarse):.2e})"
        )
    return float(fine)


def numeric_husimi_moment(state: StateModel, k: int, l: int,
                          config: OracleConfig = _DEFAULT) -> float:
    """Husimi average of x^k p^l by tensor-product Simpson."""
    if k + l > 4:
        raise ValueError("total degree 4 only")
    return numeric_husimi_moment_set(state, [(k, l)], config)[(k, l)]


def numeric_husimi_moment_set(state: StateModel, indices,
                              config: OracleConfig = _DEFAULT) -> dict:
    """Several Husimi monomial averages from one shared density grid."""
    if any(k + l > 4 for k, l in indices):
        raise ValueError("total degree 4 only")
    h = st.husimi_moments(state)
    half_x = config.grid_extent * math.sqrt(h.mxx - h.mx ** 2) + abs(h.mx)
    half_p = config.grid_extent * math.sqrt(h.mpp - h.mp ** 2) + abs(h.mp)

    def values(nodes):
        xs = np.linspace(-half_x, half_x, nodes)
        ps = np.linspace(-half_p, half_p, nodes)
        gx, gp = np.meshgrid(xs, ps, indexing="ij")
        dens = st.husimi_pdf(state, gx, gp)
        out = {}
        for k, l in indices:
            inner = _simpson(dens * gx ** k * gp ** l, ps[1] - ps[0], axis=1)
            out[(k, l)] = _simpson(inner, xs[1] - xs[0])
        return out

    coarse = values(config.nodes_2d)
    fine = values(2 * config.nodes_2d - 1)
    for key, v in fine.items():
        if abs(v - coarse[key]) > 1e-6 * max(abs(v), 1.0):
            raise OracleFailure(f"husimi-moment integration did not converge at {key}")
    return {k: float(v) for k, v in fine.items()}


def numeric_quadrature_moment_table(state: StateModel, theta: float,
                                    config: OracleConfig = _DEFAULT) -> list:
    """Moments m = 1..4 of X_theta from one shared density grid."""
    t = st.quadrature_moments(state, theta)
    half = config.grid_extent * math.sqrt(t.m2) + abs(t.m1)

    def values(nodes):
        xs = np.linspace(-half, half, nodes)
        dens = st.quadrature_pdf(state, theta, xs)
        return [_simpson(xs ** m * dens, xs[1] - xs[0]) for m in range(1, 5)]

    coarse = values(config.nodes_1d)
    fine = values(2 * config.nodes_1d - 1)
    for m, (a, b) in enumerate(zip(coarse, fine), start=1):
        if abs(a - b) > 1e-6 * max(abs(b), math.sqrt(t.m2) ** m, 1e-12):
            raise OracleFailure(f"quadrature-moment integration did not converge at m={m}")
    return [float(v) for v in fine]


# ---------------------------------------------------------------------------
# characteristic functions (the defining expressions)
# ---------------------------------------------------------------------------


def quadrature_char(state: StateModel, theta: float, k: float) -> complex:
    """<e^{i k X_theta}> evaluated from the family characteristic function."""
    if isinstance(state, st.Gaussian):
        u = np.array([math.cos(theta), math.sin(theta)])
        mu = float(u @ state.r0.as_array())
        s2 = float(u @ state.g.as_array() @ u)
        return cmath.exp(1j * mu * k - 0.5 * s2 * k * k)
    if isinstance(state, st.Fock):
        return complex(math.exp(-k * k / 4.0) * laguerre(state.n, k * k / 2.0))
    a0 = complex(state.alpha0)
    w = a0 * cmath.exp(-1j * theta)
    xt, pt = _SQ2 * w.real, _SQ2 * w.imag
    if isinstance(state, st.EvenOddCoherent):
        sgn = 1.0 if state.parity == "even" else -1.0
        a2 = abs(a0) ** 2
        q = math.exp(-2.0 * a2)
        den = (1.0 + q) if sgn > 0 else -math.expm1(-2.0 * a2)
        return (math.exp(-k * k / 4.0)
                * (math.cos(k * xt) + sgn * q * math.cosh(k * pt)) / den)
    if isinstance(state, st.DisplacedFock):
        return (cmath.exp(-k * k / 4.0 + 1j * k * xt)
                * laguerre(state.m, k * k / 2.0))
    if isinstance(state, st.PhotonAddedCoherent):
        z0 = abs(a0) ** 2
        arg = z0 + 1j * k * xt - k * k / 2.0
        return (cmath.exp(k * k / 4.0) * hyp1f1(state.m + 1, 1, arg)
                / math.exp(hyp1f1_log(state.m + 1, 1, z0)))
    raise TypeError(f"unknown state model {type(state).__name__}")


def husimi_char(state: StateModel, u: float, v: float) -> float:
    """Husimi moment generating function: average of e^{u x + v p}."""
    if isinstance(state, st.Gaussian):
        w = np.array([u, v])
        ghet = state.g.as_array() + 0.5 * np.eye(2)
        return math.exp(float(w @ state.r0.as_array()) + 0.5 * float(w @ ghet @ w))
    if isinstance(state, st.Fock):
        return float(hyp1f1(state.n + 1, 1, (u * u + v * v) / 2.0))
    a0 = complex(state.alpha0)
    if isinstance(state, st.DisplacedFock):
        x0, p0 = _SQ2 * a0.real, _SQ2 * a0.imag
        return math.exp(u * x0 + v * p0) * float(
            hyp1f1(state.m + 1, 1, (u * u + v * v) / 2.0))
    # remaining families: rotate to the real-amplitude representative
    delta = cmath.phase(a0) if a0 != 0 else 0.0
    c, s = math.cos(delta), math.sin(delta)
    ur, vr = c * u + s * v, -s * u + c * v
    a = abs(a0)
    if isinstance(state, st.EvenOddCoherent):
        sgn = 1.0 if state.parity == "even" else -1.0
        a2 = a * a
        if a2 == 0.0:
            return husimi_char(st.Fock(0 if state.parity == "even" else 1), u, v)
        q = math.exp(-2.0 * a2)
        den = (1.0 + q) if sgn > 0 else -math.expm1(-2.0 * a2)
        return (math.exp((ur * ur + vr * vr) / 2.0)
                * (math.cosh(_SQ2 * a * ur) + sgn * q * math.cos(_SQ2 * a * vr)) / den)
    if isinstance(state, st.PhotonAddedCoherent):
        z0 = a * a
        arg = z0 + _SQ2 * a * ur + (ur * ur + vr * vr) / 2.0
        return math.exp(hyp1f1_log(state.m + 1, 1, arg)
                        - hyp1f1_log(state.m + 1, 1, z0))
    raise TypeError(f"unknown state model {type(state).__name__}")


# ---------------------------------------------------------------------------
# finite-difference moment extraction with Richardson extrapolation
# ---------------------------------------------------------------------------

_STENCILS = {
    0: ({0: 1.0}, 0),
    1: ({-1: -0.5, 1: 0.5}, 1),
    2: ({-1: 1.0, 0: -2.0, 1: 1.0}, 2),
    3: ({-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5}, 3),
    4: ({-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}, 4),
}


def _richardson(samples):
    """Extrapolate central-difference estimates D(h), D(h/2), ... (O(h^2))."""
    table = [list(samples)]
    for lev in range(1, len(samples)):
        prev = table[-1]
        fac = 4.0 ** lev
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                      for i in range(len(prev) - 1)])
    return table[-1][0]


# step multiplier by total derivative order: the optimal step balances the
# O(h^2) truncation error against roundoff amplified by h^-(total order)
_STEP_FACTOR = {0: 1.0, 1: 1.0, 2: 1.0, 3: 20.0, 4: 50.0}


def _fd_derivative(f, orders, h0, levels, scales=None):
    """Mixed partial derivative of f(point tuple) at the origin.

    scales shrinks the step along axes where f varies fast (large moments);
    the roundoff-driven step factor grows with the total order because the
    nested stencil denominators multiply.
    """
    if scales is None:
        scales = [1.0] * len(orders)
    factor = _STEP_FACTOR[sum(orders)]
    steps0 = [h0 * factor * s for o, s in zip(orders, scales)]
    estimates = []
    for lev in range(levels):
        hs = [h / (2.0 ** lev) for h in steps0]
        total = 0.0
        grids = [_STENCILS[o][0] for o in orders]
        denom = 1.0
        for o, h in zip(orders, hs):
            denom *= h ** _STENCILS[o][1]

        def rec(idx, offsets, weight):
            nonlocal total
            if idx == len(grids):
                total += weight * f(tuple(offsets))
                return
            for off, wt in grids[idx].items():
                rec(idx + 1, offsets + [off * hs[idx]], weight * wt)

        rec(0, [], 1.0)
        estimates.append(total / denom)
    return _richardson(estimates)


def cf_quadrature_moment(state: StateModel, theta: float, m: int,
                         config: OracleConfig = _DEFAULT) -> float:
    """<X_theta^m> from (-i d/dk)^m of the quadrature characteristic function."""
    if m > 4:
        raise ValueError("orders up to 4 only")
    t = st.quadrature_moments(state, theta)
    scale = 1.0 / math.sqrt(max(1.0, t.m2))
    val = _fd_derivative(
        lambda pt: quadrature_char(state, theta, pt[0]),
        [m], config.fd_step, config.richardson_levels, scales=[scale],
    )
    out = (-1j) ** m * val
    return float(np.real(out))


def cf_husimi_moment(state: StateModel, k: int, l: int,
                     config: OracleConfig = _DEFAULT) -> float:
    """Husimi x^k p^l average by differentiating the moment generating
    function with respect to (u, v) at the origin."""
    if k + l > 4:
        raise ValueError("total order 4 only")
    h = st.husimi_moments(state)
    scales = [1.0 / math.sqrt(max(1.0, h.mxx)), 1.0 / math.sqrt(max(1.0, h.mpp))]
    return float(_fd_derivative(
        lambda pt: husimi_char(state, pt[0], pt[1]),
        [k, l], config.fd_step, config.richardson_levels, scales=scales,
    ))


# ---------------------------------------------------------------------------
# Simpson-rule Fisher integral
# ---------------------------------------------------------------------------


def numeric_fisher(state: StateModel, order: str,
                   config: OracleConfig = _DEFAULT) -> np.ndarray:
    """(1/pi) int m_theta/var dtheta by Simpson on [0, pi] (independent rule)."""
    if order not in ("first", "second"):
        raise ValueError("order must be 'first' or 'second'")

    def value(nodes):
        th = np.linspace(0.0, math.pi, nodes)
        c, s = np.cos(th), np.sin(th)
        if order == "first":
            var = st.quadrature_variance(state, th)
            basis = np.stack([c * c, s * c, s * c, s * s]).reshape(2, 2, -1)
        else:
            var = st.quadrature_x2_variance(state, th)
            v = np.stack([c * c, _SQ2 * s * c, s * s])
            basis = np.einsum("it,jt->ijt", v, v)
        if np.any(var <= 0):
            raise OracleFailure("vanishing variance in Fisher integrand")
        return _simpson(basis / var, (th[1] - th[0]) / math.pi, axis=-1)

    coarse = value(config.nodes_1d)
    fine = value(2 * config.nodes_1d - 1)
    if np.max(np.abs(fine - coarse)) > 1e-8 * max(1.0, np.max(np.abs(fine))):
        raise OracleFailure("Fisher Simpson integration did not converge")
    return fine


# ---------------------------------------------------------------------------
# truncated Fock-basis expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockExpansion:
    """Truncated Fock-basis amplitudes of a pure state."""

    coeffs: np.ndarray
    cutoff: int

    @property
    def norm_defect(self) -> float:
        return 1.0 - float(np.sum(np.abs(self.coeffs) ** 2))


def fock_expansion(state: StateModel, cutoff: int | None = None,
                   eps_trunc: float = 1e-10) -> FockExpansion:
    """Normalized Fock-basis coefficients of a pure non-Gaussian state."""
    if isinstance(state, st.Gaussian):
        raise TypeError("fock_expansion covers the pure non-Gaussian families only")
    if cutoff is None:
        cutoff = st.default_cutoff(state)
    n = np.arange(cutoff + 1)
    if isinstance(state, st.Fock):
        if cutoff < state.n:
            raise CutoffError(f"cutoff {cutoff} below photon number {state.n}")
        c = np.zeros(cutoff + 1, dtype=complex)
        c[state.n] = 1.0
        return FockExpansion(c, cutoff)

    a0 = complex(state.alpha0)
    if isinstance(state, st.EvenOddCoherent):
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
    elif isinstance(state, st.DisplacedFock):
        c = _displacement_column(a0, state.m, cutoff)
    elif isinstance(state, st.PhotonAddedCoherent):
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
