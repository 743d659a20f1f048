"""Confluent hypergeometric, Laguerre and Hermite-oscillator evaluation.

Only the regimes needed by the state models are implemented: 1F1(a; b; z)
with small non-negative integer a - b, real z >= 0 (log-scaled to survive
z of a few thousand) or complex z of moderate modulus, Laguerre polynomials
by the three-term recurrence, and normalized harmonic-oscillator
eigenfunctions evaluated by the stable recurrence on the functions
themselves rather than the raw polynomials.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "hyp1f1",
    "hyp1f1_log",
    "laguerre",
    "oscillator_eigenfunction_sum",
    "log_factorial",
]

_MAX_TERMS = 20000
_RESCALE = 1e250


def log_factorial(n) -> float:
    """log(n!) via lgamma; accepts scalars or arrays."""
    if np.ndim(n) == 0:
        return math.lgamma(float(n) + 1.0)
    n = np.asarray(n, dtype=float)
    return np.vectorize(math.lgamma)(n + 1.0)


def hyp1f1(a: float, b: float, z) -> complex | float:
    """Kummer's function 1F1(a; b; z) by the ascending series.

    Valid for b > 0 and either real z (may overflow for z >> 700; use
    :func:`hyp1f1_log` there) or complex z of moderate modulus.  Arguments
    with negative real part go through the Kummer transformation
    1F1(a; b; z) = e^z 1F1(b-a; b; -z), whose series has no sign
    alternation (and terminates outright when b - a is a non-positive
    integer, the case of all Laguerre-type arguments here).
    """
    if b <= 0 and float(b).is_integer():
        raise ValueError("1F1 undefined for non-positive integer b")
    is_complex = np.iscomplexobj(np.asarray(z)) or isinstance(z, complex)
    re_z = z.real if is_complex else float(z)
    if re_z < 0.0:
        return (cmath.exp(z) if is_complex else math.exp(z)) * hyp1f1(b - a, b, -z)
    term = 1.0 + 0.0j if is_complex else 1.0
    total = term
    k = 0
    while k < _MAX_TERMS:
        term = term * (a + k) * z / ((b + k) * (k + 1))
        total += term
        k += 1
        if abs(term) <= 1e-17 * abs(total) and k > 3:
            break
    else:
        raise ArithmeticError("1F1 series did not converge")
    return total


def hyp1f1_log(a: float, b: float, x: float) -> float:
    """log 1F1(a; b; x) for a, b > 0 and real x >= 0.

    All series terms are positive, so the sum is computed with periodic
    rescaling; no cancellation occurs and the result is accurate to ~1e-15
    relative for arguments up to several thousand.
    """
    if x < 0:
        raise ValueError("hyp1f1_log requires x >= 0")
    if a <= 0 or b <= 0:
        raise ValueError("hyp1f1_log requires a, b > 0")
    term = 1.0
    total = 1.0
    offset = 0.0
    k = 0
    while k < _MAX_TERMS:
        term = term * (a + k) * x / ((b + k) * (k + 1))
        total += term
        k += 1
        if total > _RESCALE:
            total /= _RESCALE
            term /= _RESCALE
            offset += math.log(_RESCALE)
        if term <= 1e-18 * total and k > 3:
            break
    else:
        raise ArithmeticError("1F1 series did not converge")
    return math.log(total) + offset


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x), vectorized over x."""
    x = np.asarray(x, dtype=complex if np.iscomplexobj(np.asarray(x)) else float)
    if n < 0:
        raise ValueError("n >= 0 required")
    prev = np.ones_like(x)
    if n == 0:
        return prev
    curr = 1.0 - x
    for k in range(1, n):
        prev, curr = curr, ((2 * k + 1 - x) * curr - k * prev) / (k + 1)
    return curr


def oscillator_eigenfunction_sum(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n c_n psi_n(x) for oscillator eigenfunctions with <x|0> variance 1/2.

    psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)); the recurrence
    psi_n = x sqrt(2/n) psi_{n-1} - sqrt((n-1)/n) psi_{n-2} keeps every
    intermediate bounded, so n of a few hundred is safe.
    """
    x = np.asarray(x, dtype=float)
    coeffs = np.asarray(coeffs)
    psi_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    acc = coeffs[0] * psi_prev
    if len(coeffs) == 1:
        return acc
    psi_curr = math.sqrt(2.0) * x * psi_prev
    acc = acc + coeffs[1] * psi_curr
    for n in range(2, len(coeffs)):
        psi_prev, psi_curr = psi_curr, (
            math.sqrt(2.0 / n) * x * psi_curr - math.sqrt((n - 1.0) / n) * psi_prev
        )
        if coeffs[n] != 0.0:
            acc = acc + coeffs[n] * psi_curr
    return acc
