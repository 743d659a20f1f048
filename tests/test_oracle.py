import numpy as np
import pytest

from mtlab import (
    CovarianceMatrix,
    FirstMoments,
    Fock,
    Gaussian,
    PhotonAddedCoherent,
    crb_report,
    husimi_moments,
    quadrature_moments,
)
from mtlab.oracle import (
    OracleConfig,
    OracleFailure,
    _log_factorial,
    cf_husimi_moment,
    cf_quadrature_moment,
    numeric_fisher,
    numeric_husimi_moment,
    numeric_quadrature_moment,
    numeric_quadrature_moment_table,
)
from conftest import fisher_matrices, random_state

HUSIMI_KEYS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
               (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]


def husimi_value(h, k, l):
    names = {(1, 0): "mx", (0, 1): "mp", (2, 0): "mxx", (1, 1): "mxp",
             (0, 2): "mpp", (4, 0): "mx4", (3, 1): "mx3p", (2, 2): "mx2p2",
             (1, 3): "mxp3", (0, 4): "mp4"}
    return getattr(h, names[(k, l)])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(nodes_1d=2048)
        with pytest.raises(ValueError):
            OracleConfig(grid_extent=4.0)


class TestQuadratureOracles:
    def test_vacuum_second_moment(self):
        assert numeric_quadrature_moment(Fock(0), 0.0, 2) == pytest.approx(0.5)

    def test_fock2_fourth_moment(self):
        # variance identity 0.5 m2^2 + 3/8 on top of m2 = 5/2
        expect = 0.5 * 2.5 ** 2 + 0.375 + 2.5 ** 2
        assert numeric_quadrature_moment(Fock(2), 0.4, 4) == pytest.approx(expect, rel=1e-8)

    def test_photon_added_both_routes(self):
        s = PhotonAddedCoherent(1.0, 1)
        t = quadrature_moments(s, np.pi / 5)
        assert numeric_quadrature_moment(s, np.pi / 5, 3) == pytest.approx(t.m3, rel=1e-6)
        assert cf_quadrature_moment(s, np.pi / 5, 3) == pytest.approx(t.m3, rel=1e-6)

    def test_gaussian_first_moment_linear_term(self):
        s = Gaussian(FirstMoments(0.8, -0.3), CovarianceMatrix(0.5, 0.1, 0.6))
        th = 0.9
        expect = 0.8 * np.cos(th) - 0.3 * np.sin(th)
        assert cf_quadrature_moment(s, th, 1) == pytest.approx(expect, rel=1e-8)

    def test_two_routes_agree_random(self, rng):
        for fam in range(5):
            for _ in range(2):
                s = random_state(rng, family=fam)
                theta = float(rng.uniform(0, np.pi))
                dens = numeric_quadrature_moment_table(s, theta)
                for m in range(1, 5):
                    cf = cf_quadrature_moment(s, theta, m)
                    scale = max(1.0, abs(dens[m - 1]))
                    assert abs(cf - dens[m - 1]) / scale < 1e-5


class TestHusimiOracles:
    def test_fock1_fourth_moment(self):
        assert numeric_husimi_moment(Fock(1), 4, 0) == pytest.approx(9.0, rel=1e-7)
        assert cf_husimi_moment(Fock(1), 4, 0) == pytest.approx(9.0, rel=1e-6)

    def test_even_coherent_cross_check(self, rng):
        from mtlab import EvenOddCoherent

        s = EvenOddCoherent(1.0, "even")
        h = husimi_moments(s)
        for (k, l) in ((2, 0), (2, 2), (0, 4)):
            num = numeric_husimi_moment(s, k, l)
            assert num == pytest.approx(husimi_value(h, k, l), rel=1e-6)
            assert cf_husimi_moment(s, k, l) == pytest.approx(num, rel=1e-5)


class TestNumericFisher:
    def test_fock_matrix(self):
        for n in (0, 1, 3):
            f = numeric_fisher(Fock(n), "second")
            expect = np.array([[3, 0, 1], [0, 2, 0], [1, 0, 3]]) / (4.0 * (n * n + n + 1))
            assert np.allclose(f, expect, atol=1e-10)

    def test_vacuum_second_bound(self):
        f = numeric_fisher(Fock(0), "second")
        assert np.trace(np.linalg.inv(f)) == pytest.approx(5.0)

    def test_matches_engine_both_orders(self, rng):
        for _ in range(5):
            s = random_state(rng)
            f2 = numeric_fisher(s, "second")
            assert np.allclose(f2, fisher_matrices([s])[0], rtol=1e-8, atol=1e-10)
            # crb keeps no first-moment matrix: compare the bound, Tr F^-1
            f1 = numeric_fisher(s, "first")
            assert np.trace(np.linalg.inv(f1)) == pytest.approx(crb_report(s).h1_hom, rel=1e-8)

    def test_noncentral_gaussian_closed_form(self, rng):
        from conftest import random_gaussian

        for _ in range(5):
            s = random_gaussian(rng)
            fc = fisher_matrices([s])[0]
            fn = numeric_fisher(s, "second")
            assert np.max(np.abs(fc - fn)) < 1e-8 * np.max(np.abs(fn))


def test_log_factorial_scalar_matches_array_bitwise():
    ns = np.arange(201)
    arr = _log_factorial(ns)
    for n in ns:
        assert _log_factorial(int(n)) == arr[n]
        assert _log_factorial(n) == arr[n]
        assert isinstance(_log_factorial(int(n)), float)
