"""Hermite-oscillator evaluation.

Normalized harmonic-oscillator eigenfunctions, which the state densities
sum, are evaluated by the stable recurrence on the functions themselves
rather than the raw polynomials.  The log-factorials, Kummer and Laguerre
series that only the oracle uses live in :mod:`mtlab.oracle`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["oscillator_eigenfunction_sum"]


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
