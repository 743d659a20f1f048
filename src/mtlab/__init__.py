"""Moment tomography lab.

First- and second-moment quantum tomography for homodyne and heterodyne
continuous-variable detection: state models with closed-form moments,
Fisher-information machinery and scaled Cramer-Rao bounds, optimal moment
estimators, seedable synthetic data, and Monte-Carlo verification that the
estimators attain the bounds.
"""

# the one version string: pyproject.toml and report metadata read it
__version__ = "0.1.0"

from .phasespace import (
    CovarianceMatrix,
    FirstMoments,
    GaussianShape,
    gaussian_cov_from_shape,
    het_shift,
)
from .states import (
    DisplacedFock,
    EvenOddCoherent,
    Fock,
    Gaussian,
    HusimiMomentSet,
    PhotonAddedCoherent,
    QuadratureMomentTable,
    StateModel,
    covariance,
    first_moments,
    husimi_moments,
    husimi_pdf,
    quadrature_moments,
    quadrature_pdf,
    second_moment_matrix,
    state_from_kv,
    state_to_kv,
)
from .crb import (
    CrbReport,
    crb_grid,
    crb_report,
    find_crossover,
    minimize_gamma2,
    minimize_gamma2_grid,
)
from .sampling import (
    HeterodyneDataset,
    HomodyneDataset,
    sample_heterodyne,
    sample_homodyne,
)
from .estimators import (
    ProcessedMoments,
    ProcessedScatter,
    het_first_estimator,
    het_second_estimator,
    linear_first_estimator,
    monte_carlo_mse,
    optimal_first_estimator,
    optimal_second_estimator,
    processed_moments,
    processed_scatter,
)
