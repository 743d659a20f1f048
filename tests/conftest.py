import numpy as np
import pytest
import scipy.stats

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
from mtlab.crb import _trapezoid, _variance_harmonics
from mtlab.phasespace import rotation_matrix
from mtlab.states import _moment_data

#: the symmetric 3 x 3 Fisher matrix, row by row, from its six distinct entries
FULL = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def band(sd, rate, comparisons=1):
    """Half-width of a two-sided band about the expected value of a normal
    estimate with standard deviation sd, such that the test fails with
    probability at most rate when every one of its comparisons is drawn
    correctly (a union bound over the comparisons)."""
    return sd * scipy.stats.norm.isf(rate / (2.0 * comparisons))


def rotated_mean(r, phi):
    """The mean vector r rotated by the angle phi."""
    return FirstMoments(*(rotation_matrix(phi) @ r.as_array()))


def rotated_cov(g, phi):
    """The covariance (or second-moment) matrix g rotated by the angle phi: R g R^T."""
    r = rotation_matrix(phi)
    return CovarianceMatrix.from_array(r @ g.as_array() @ r.T)


def fisher_entries(states):
    """The six distinct entries (S, 6) of the scaled second-moment homodyne
    Fisher matrices of the states, as crb computes them."""
    return _trapezoid(states, _variance_harmonics(states, _moment_data(states).harmonics))


def fisher_matrices(states):
    """The scaled 3x3 second-moment homodyne Fisher matrices (S, 3, 3) of the
    states, expanded from their six distinct entries."""
    return fisher_entries(states)[:, FULL].reshape(-1, 3, 3)


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
