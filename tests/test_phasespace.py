import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mtlab import (
    CovarianceMatrix,
    GaussianShape,
    gaussian_cov_from_shape,
    het_shift,
)
from mtlab.phasespace import rotation_matrix
from conftest import rotated_cov


class TestCovarianceMatrix:
    def test_positive_definite_enforced(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            CovarianceMatrix(-1.0, 0.0, 1.0)

    def test_physicality_predicate(self):
        assert CovarianceMatrix(0.5, 0.0, 0.5).is_physical()
        assert CovarianceMatrix(0.25, 0.0, 1.0).is_physical()
        assert not CovarianceMatrix(0.3, 0.0, 0.3).is_physical()


class TestGaussianShape:
    def test_vacuum_shape(self):
        g = gaussian_cov_from_shape(GaussianShape(1.0, 1.0, 0.7))
        assert np.allclose(g.as_array(), 0.5 * np.eye(2), atol=1e-14)

    def test_thermal(self):
        g = gaussian_cov_from_shape(GaussianShape(2.0, 1.0, 0.0))
        assert np.allclose(g.as_array(), np.eye(2))
        assert g.det == pytest.approx(1.0)

    def test_minimum_uncertainty_squeezed(self):
        g = gaussian_cov_from_shape(GaussianShape(1.0, 2.0, 0.0))
        assert np.allclose(g.as_array(), np.diag([0.25, 1.0]))
        assert g.is_physical()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianShape(0.5, 1.0)
        with pytest.raises(ValueError):
            GaussianShape(1.0, 0.9)

    def test_determinant_identity(self, rng):
        for _ in range(200):
            mu = float(np.exp(rng.uniform(0, 2)))
            lam = float(np.exp(rng.uniform(0, 1.5)))
            phi = float(rng.uniform(0, np.pi))
            g = gaussian_cov_from_shape(GaussianShape(mu, lam, phi))
            assert abs(g.det - mu * mu / 4.0) < 1e-12 * mu * mu


class TestHetShift:
    def test_vacuum_saturates_joint_measurement_bound(self):
        ghet = het_shift(CovarianceMatrix(0.5, 0.0, 0.5))
        assert np.allclose(ghet.as_array(), np.eye(2))
        assert ghet.gxx * ghet.gpp == pytest.approx(1.0)

    def test_additive_shift(self):
        ghet = het_shift(CovarianceMatrix(0.25, 0.0, 1.0))
        assert np.allclose(ghet.as_array(), np.diag([0.75, 1.5]))
        ghet = het_shift(CovarianceMatrix(1.5, 0.0, 1.5))
        assert np.allclose(ghet.as_array(), 2.0 * np.eye(2))

    @given(hst.floats(0, math.pi, allow_nan=False))
    @settings(max_examples=40)
    def test_commutes_with_rotation(self, phi):
        g = CovarianceMatrix(0.8, 0.2, 0.6)
        lhs = het_shift(rotated_cov(g, phi)).as_array()
        rhs = rotation_matrix(phi) @ het_shift(g).as_array() @ rotation_matrix(phi).T
        assert np.allclose(lhs, rhs, atol=1e-12)
