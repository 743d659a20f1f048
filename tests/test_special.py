import math

import numpy as np
import pytest
import scipy.special as sp

from mtlab.oracle import hyp1f1, hyp1f1_log, laguerre
from mtlab.special import oscillator_eigenfunction_sum


class TestKummerIdentities:
    """Identity suite on x in [0, 10] at relative 1e-10."""

    grid = np.linspace(0.0, 10.0, 41)

    def test_1f1_1_1_is_exp(self):
        for x in self.grid:
            assert hyp1f1(1, 1, x) == pytest.approx(math.exp(x), rel=1e-10)

    def test_1f1_2_1(self):
        for x in self.grid:
            assert hyp1f1(2, 1, x) == pytest.approx(math.exp(x) * (1 + x), rel=1e-10)

    def test_1f1_negative_argument_laguerre(self):
        for n in (0, 1, 2, 5, 9):
            for x in self.grid:
                lhs = hyp1f1(n + 1, 1, -x)
                rhs = math.exp(-x) * float(laguerre(n, x))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_low_order_laguerre(self):
        x = self.grid
        assert np.allclose(laguerre(0, x), np.ones_like(x))
        assert np.allclose(laguerre(1, x), 1 - x)


class TestAgainstScipy:
    def test_hyp1f1_matches_scipy(self, rng):
        for _ in range(200):
            a = rng.integers(1, 12)
            b = rng.integers(1, 5)
            x = rng.uniform(0, 40)
            assert hyp1f1(a, b, x) == pytest.approx(sp.hyp1f1(a, b, x), rel=1e-12)

    def test_hyp1f1_complex(self, rng):
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            mine = hyp1f1(3, 1, z)
            ref = complex(sp.hyp1f1(3, 1, z))
            assert abs(mine - ref) < 1e-10 * max(1.0, abs(ref))

    def test_log_form_large_argument(self):
        # linear-space evaluation would overflow near x ~ 700
        for x in (10.0, 100.0, 1000.0, 2500.0):
            for a in (1, 3, 8):
                ref = sp.hyp1f1(a, 1, x)
                if math.isfinite(ref) and ref > 0:
                    assert hyp1f1_log(a, 1, x) == pytest.approx(math.log(ref), rel=1e-12)
        assert hyp1f1_log(5, 1, 2500.0) > 2400.0

    def test_laguerre_matches_scipy(self, rng):
        x = rng.uniform(0, 20, size=50)
        for n in (0, 1, 2, 3, 7, 15, 40):
            assert np.allclose(laguerre(n, x), sp.eval_laguerre(n, x), rtol=1e-9, atol=1e-9)


class TestOscillatorFunctions:
    def test_vacuum_density(self):
        x = np.linspace(-4, 4, 101)
        psi = oscillator_eigenfunction_sum(np.array([1.0]), x)
        assert np.allclose(psi * psi, np.exp(-x * x) / math.sqrt(math.pi))

    def test_orthonormality(self):
        x = np.linspace(-25.0, 25.0, 20001)
        funcs = []
        for n in range(0, 120, 17):
            c = np.zeros(n + 1)
            c[n] = 1.0
            funcs.append(oscillator_eigenfunction_sum(c, x))
        for i, f in enumerate(funcs):
            for j, g in enumerate(funcs):
                ip = np.trapezoid(f * g, x)
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_matches_scipy_hermite(self):
        x = np.linspace(-3, 3, 31)
        for n in (1, 2, 5, 12):
            c = np.zeros(n + 1)
            c[n] = 1.0
            mine = oscillator_eigenfunction_sum(c, x)
            norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
            ref = sp.eval_hermite(n, x) * np.exp(-x * x / 2) * norm
            assert np.allclose(mine, ref, rtol=1e-10, atol=1e-12)
