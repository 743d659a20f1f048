"""Moment estimators for homodyne and heterodyne data.

The homodyne estimators are plug-in versions of the best linear unbiased
estimator: the unknown per-phase weights 1/var are replaced by their
empirical estimates, which costs nothing asymptotically.  Per-phase moment
averages are normalized by the per-phase count N_k (the only normalization
that leaves the estimators unbiased).  The heterodyne estimators are the
plain sample mean and sample second-moment matrix of the phase-space
scatter.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import sampling
from .phasespace import FirstMoments
from .sampling import HeterodyneDataset, HomodyneDataset, TAG_TRIAL
from .states import StateModel, first_moments, second_moment_matrix

__all__ = [
    "ProcessedMoments",
    "MomentEstimate",
    "EstimatorError",
    "processed_moments",
    "linear_first_estimator",
    "optimal_first_estimator",
    "optimal_second_estimator",
    "het_first_estimator",
    "het_second_estimator",
    "monte_carlo_mse",
    "McVerifyResult",
]

_SQ2 = math.sqrt(2.0)
_EPS_VAR = 1e-9


class EstimatorError(RuntimeError):
    """Estimator is not computable from the given data."""


@dataclass(frozen=True)
class ProcessedMoments:
    """Per-phase empirical moments (1/N_k) sum_j x_jk^m, m = 1..4."""

    phases: np.ndarray
    counts: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray

    @property
    def var2(self) -> np.ndarray:
        """Empirical variance of X per phase (weight denominator, order 1)."""
        return self.m2 - self.m1 ** 2

    @property
    def var4(self) -> np.ndarray:
        """Empirical variance of X^2 per phase (weight denominator, order 2)."""
        return self.m4 - self.m2 ** 2


def processed_moments(dataset: HomodyneDataset) -> ProcessedMoments:
    """Empirical per-phase moments of a homodyne dataset."""
    counts = dataset.counts
    if np.any(counts == 0):
        raise EstimatorError("empty phase bin in homodyne dataset")
    cols = []
    for xs in dataset.samples:
        x2 = xs * xs
        cols.append((xs.mean(), x2.mean(), (x2 * xs).mean(), (x2 * x2).mean()))
    m = np.array(cols)
    return ProcessedMoments(np.asarray(dataset.phases, dtype=float), counts,
                            m[:, 0], m[:, 1], m[:, 2], m[:, 3])


@dataclass(frozen=True)
class MomentEstimate:
    """Result of one estimator run."""

    scheme: str
    order: str
    n_samples: int
    seed: int | None = None
    r_hat: FirstMoments | None = None
    g2_hat: np.ndarray | None = None
    g2het_hat: np.ndarray | None = None


def _directions(phases: np.ndarray) -> np.ndarray:
    return np.column_stack([np.cos(phases), np.sin(phases)])


def linear_first_estimator(p: ProcessedMoments) -> MomentEstimate:
    """Pseudoinverse estimator r_hat = L^- (first-moment column).

    Unbiased but ignores the per-phase variances, so it does not minimize
    the mean squared error.
    """
    if len(p.phases) < 2:
        raise EstimatorError("at least two LO phases are required")
    design = _directions(p.phases)
    if np.linalg.matrix_rank(design, tol=1e-12) < 2:
        raise EstimatorError("rank-deficient phase design")
    r = np.linalg.pinv(design) @ p.m1
    return MomentEstimate("hom_linear", "first", int(p.counts.sum()),
                          r_hat=FirstMoments(r[0], r[1]))


def optimal_first_estimator(p: ProcessedMoments) -> MomentEstimate:
    """Variance-weighted first-moment estimator (asymptotically efficient)."""
    usable = p.var2 > _EPS_VAR
    if not np.all(usable):
        warnings.warn("excluding phases with degenerate variance from the "
                      "first-moment weights", RuntimeWarning, stacklevel=2)
    if usable.sum() < 2:
        raise EstimatorError("fewer than two usable phases")
    u = _directions(p.phases[usable])
    w = p.counts[usable] / p.var2[usable]
    frame = (u * w[:, None]).T @ u
    rhs = (u * (w * p.m1[usable])[:, None]).sum(axis=0)
    if np.linalg.cond(frame) > 1e12:
        raise EstimatorError("singular first-moment frame matrix")
    r = np.linalg.solve(frame, rhs)
    return MomentEstimate("hom_optimal", "first", int(p.counts.sum()),
                          r_hat=FirstMoments(r[0], r[1]))


def optimal_second_estimator(p: ProcessedMoments) -> MomentEstimate:
    """Variance-weighted second-moment estimator in vectorized form."""
    usable = p.var4 > _EPS_VAR
    if not np.all(usable):
        warnings.warn("excluding phases with degenerate fourth-moment variance "
                      "from the second-moment weights", RuntimeWarning, stacklevel=2)
    if usable.sum() < 3:
        raise EstimatorError("fewer than three usable phases")
    th = p.phases[usable]
    c, s = np.cos(th), np.sin(th)
    vecs = np.column_stack([c * c, _SQ2 * s * c, s * s])
    w = p.counts[usable] / p.var4[usable]
    frame = (vecs * w[:, None]).T @ vecs
    rhs = (vecs * (w * p.m2[usable])[:, None]).sum(axis=0)
    if np.linalg.cond(frame) > 1e12:
        raise EstimatorError("singular second-moment frame matrix")
    g2vec = np.linalg.solve(frame, rhs)
    off = g2vec[1] / _SQ2
    g2 = np.array([[g2vec[0], off], [off, g2vec[2]]])
    return MomentEstimate("hom_optimal", "second", int(p.counts.sum()), g2_hat=g2)


def het_first_estimator(d: HeterodyneDataset) -> MomentEstimate:
    """Sample mean of the phase-space scatter."""
    if len(d.points) < 1:
        raise EstimatorError("empty heterodyne dataset")
    r = d.points.mean(axis=0)
    return MomentEstimate("het", "first", len(d.points), seed=d.seed,
                          r_hat=FirstMoments(r[0], r[1]))


def het_second_estimator(d: HeterodyneDataset) -> MomentEstimate:
    """Sample second-moment matrix; returns both the raw Husimi moment matrix
    and the state-moment estimate obtained by subtracting I/2."""
    if len(d.points) < 1:
        raise EstimatorError("empty heterodyne dataset")
    x = d.points[:, 0]
    pp = d.points[:, 1]
    ghet = np.array([
        [np.mean(x * x), np.mean(x * pp)],
        [np.mean(x * pp), np.mean(pp * pp)],
    ])
    return MomentEstimate("het", "second", len(d.points), seed=d.seed,
                          g2_hat=ghet - 0.5 * np.eye(2), g2het_hat=ghet)


# ---------------------------------------------------------------------------
# Monte-Carlo bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McVerifyResult:
    """Scaled MSE of one estimator over repeated synthetic experiments."""

    scheme: str
    order: str
    n_samples: int
    trials: int
    scaled_mse: float
    stderr: float
    failures: int
    seed: int
    n_theta: int | None = None


def _trial_error(state: StateModel, scheme: str, order: str, n_samples: int,
                 n_theta: int | None, trial_seed: int, truth) -> float:
    if scheme == "hom":
        ds = sampling.sample_homodyne(state, n_theta, n_samples, trial_seed)
        p = processed_moments(ds)
        est = (optimal_first_estimator(p) if order == "first"
               else optimal_second_estimator(p))
    else:
        ds = sampling.sample_heterodyne(state, n_samples, trial_seed)
        est = (het_first_estimator(ds) if order == "first"
               else het_second_estimator(ds))
    if order == "first":
        diff = est.r_hat.as_array() - truth
        return float(n_samples * (diff @ diff))
    target = est.g2het_hat if scheme == "het" else est.g2_hat
    diff = target - truth
    return float(n_samples * np.sum(diff * diff))


def monte_carlo_mse(state: StateModel, scheme: str, order: str, n_samples: int,
                    trials: int, n_theta: int | None = None, seed: int = 0,
                    workers: int = 1) -> McVerifyResult:
    """Mean of N * (squared estimator error) over independent trials.

    The truth is the state's first-moment vector or second-moment matrix
    (heterodyne second-moment errors are measured against G2 + I/2, which
    is equivalent to measuring the shifted estimate against G2).  Trials
    use independent derived substreams, so any worker count produces the
    same result; per-trial errors are combined with exact summation.
    Estimator failures are counted, and more than 1 percent aborts.
    """
    if scheme not in ("hom", "het"):
        raise ValueError("scheme must be 'hom' or 'het'")
    if order not in ("first", "second"):
        raise ValueError("order must be 'first' or 'second'")
    if trials < 2:
        raise ValueError("trials >= 2 required")
    if scheme == "hom" and n_theta is None:
        n_theta = 24

    if order == "first":
        truth = first_moments(state).as_array()
    else:
        g2 = second_moment_matrix(state).as_array()
        truth = g2 + 0.5 * np.eye(2) if scheme == "het" else g2

    def run(trial: int):
        try:
            return _trial_error(state, scheme, order, n_samples, n_theta,
                                derive_seed(seed, trial), truth)
        except EstimatorError:
            return None

    def derive_seed(s, t):
        return sampling.derive_key(s, TAG_TRIAL, t)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(trials)))
    else:
        results = [run(t) for t in range(trials)]

    errors = [e for e in results if e is not None]
    failures = trials - len(errors)
    if failures > 0.01 * trials:
        raise EstimatorError(f"{failures}/{trials} estimator failures")
    mean = math.fsum(errors) / len(errors)
    var = math.fsum((e - mean) ** 2 for e in errors) / (len(errors) - 1)
    stderr = math.sqrt(var / len(errors))
    return McVerifyResult(scheme=scheme, order=order, n_samples=int(n_samples),
                          trials=trials, scaled_mse=mean, stderr=stderr,
                          failures=failures, seed=int(seed), n_theta=n_theta)
