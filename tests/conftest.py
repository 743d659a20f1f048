import numpy as np
import pytest

from mtlab import (
    CovarianceMatrix,
    DisplacedFock,
    EvenOddCoherent,
    FirstMoments,
    Fock,
    Gaussian,
    GaussianShape,
    PhotonAddedCoherent,
    gaussian_cov_from_shape,
)
from mtlab.phasespace import rotation_matrix


def rotated_mean(r, phi):
    """The mean vector r rotated by the angle phi."""
    return FirstMoments(*(rotation_matrix(phi) @ r.as_array()))


def rotated_cov(g, phi):
    """The covariance (or second-moment) matrix g rotated by the angle phi: R g R^T."""
    r = rotation_matrix(phi)
    return CovarianceMatrix.from_array(r @ g.as_array() @ r.T)


def random_gaussian(rng, central=False):
    shape = GaussianShape(
        mu=float(np.exp(rng.uniform(0.0, 1.4))),
        lam=float(np.exp(rng.uniform(0.0, 1.1))),
        phi=float(rng.uniform(0.0, np.pi)),
    )
    r0 = (FirstMoments(0.0, 0.0) if central
          else FirstMoments(float(rng.normal(0, 1.2)), float(rng.normal(0, 1.2))))
    return Gaussian(r0, gaussian_cov_from_shape(shape))


def random_state(rng, family=None):
    """Bounded random draw from one of the five families."""
    fam = family if family is not None else int(rng.integers(0, 5))
    if fam == 0:
        return random_gaussian(rng)
    if fam == 1:
        return Fock(int(rng.integers(0, 9)))
    if fam == 2:
        alpha = rng.uniform(0.2, 1.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return EvenOddCoherent(complex(alpha), "even" if rng.integers(2) else "odd")
    if fam == 3:
        alpha = rng.uniform(0.0, 1.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return DisplacedFock(complex(alpha), int(rng.integers(0, 5)))
    alpha = rng.uniform(0.0, 1.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return PhotonAddedCoherent(complex(alpha), int(rng.integers(0, 5)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
