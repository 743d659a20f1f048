"""Two-dimensional phase-space primitives.

Quadrature operators follow the convention [X, P] = i (hbar = 1), so the
vacuum covariance matrix is I/2 and a covariance matrix G is physical iff
det G >= 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CovarianceMatrix",
    "FirstMoments",
    "GaussianShape",
    "gaussian_cov_from_shape",
    "het_shift",
    "rotation_matrix",
]

#: absolute slack used by the det G >= 1/4 physicality predicate
PHYSICALITY_TOL = 1e-10


def rotation_matrix(phi: float) -> np.ndarray:
    """2x2 rotation by angle phi."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class FirstMoments:
    """Mean quadrature vector r = (<X>, <P>)."""

    rx: float
    rp: float

    def __post_init__(self):
        object.__setattr__(self, "rx", float(self.rx))
        object.__setattr__(self, "rp", float(self.rp))
        if not (math.isfinite(self.rx) and math.isfinite(self.rp)):
            raise ValueError("first moments must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.rp])


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite 2x2 quadrature (co)variance matrix.

    Stores only the three independent entries gxx = <(dX)^2>,
    gxp = <{dX, dP}>/2 and gpp = <(dP)^2>.  Positive definiteness is
    enforced on construction; the stricter uncertainty bound det >= 1/4 is
    available as :meth:`is_physical` because the same layout also carries
    second-moment matrices for which the bound is not required.
    """

    gxx: float
    gxp: float
    gpp: float

    def __post_init__(self):
        for name in ("gxx", "gxp", "gpp"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(map(math.isfinite, (self.gxx, self.gxp, self.gpp))):
            raise ValueError("covariance entries must be finite")
        if self.gxx <= 0.0 or self.gpp <= 0.0 or self.det <= 0.0:
            raise ValueError(f"matrix is not positive definite: {self}")

    @classmethod
    def from_array(cls, m) -> "CovarianceMatrix":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-12 * (1 + abs(m[0, 1])):
            raise ValueError("expected a symmetric 2x2 matrix")
        return cls(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])

    def as_array(self) -> np.ndarray:
        return np.array([[self.gxx, self.gxp], [self.gxp, self.gpp]])

    @property
    def det(self) -> float:
        return self.gxx * self.gpp - self.gxp * self.gxp

    def is_physical(self) -> bool:
        """det G >= 1/4 up to rounding slack (HRS uncertainty bound)."""
        return self.det >= 0.25 - PHYSICALITY_TOL


@dataclass(frozen=True)
class GaussianShape:
    """Spectral parametrization of a physical Gaussian covariance matrix.

    mu >= 1 is the temperature parameter, lam >= 1 the squeezing strength and
    phi the orientation of the squeezed axis; the eigenvalues of the
    reconstructed matrix are mu/(2 lam) and mu lam / 2.
    """

    mu: float
    lam: float
    phi: float = 0.0

    def __post_init__(self):
        if not (self.mu >= 1.0 and math.isfinite(self.mu)):
            raise ValueError("temperature parameter mu must satisfy mu >= 1")
        if not (self.lam >= 1.0 and math.isfinite(self.lam)):
            raise ValueError("squeezing strength lam must satisfy lam >= 1")


def gaussian_cov_from_shape(shape: GaussianShape) -> CovarianceMatrix:
    """Covariance matrix R(phi) diag(mu/2lam, mu lam/2) R(phi)^T; det = mu^2/4."""
    r = rotation_matrix(shape.phi)
    d = np.diag([shape.mu / (2.0 * shape.lam), shape.mu * shape.lam / 2.0])
    return CovarianceMatrix.from_array(r @ d @ r.T)


def het_shift(g: CovarianceMatrix) -> CovarianceMatrix:
    """Husimi covariance G + I/2 of a state with covariance G."""
    return CovarianceMatrix(g.gxx + 0.5, g.gxp, g.gpp + 0.5)
