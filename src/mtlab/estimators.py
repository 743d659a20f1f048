"""Moment estimators for homodyne and heterodyne data.

The estimators read power sums only.  The homodyne estimators read the
per-phase count N_k and the means of x, x^2 and x^4 (``ProcessedMoments``,
from ``processed_moments(dataset)``); they are plug-in versions of the best
linear unbiased estimator: the unknown per-phase weights 1/var are replaced
by their empirical estimates, which costs nothing asymptotically.  Per-phase
moment averages are normalized by N_k (the only normalization that leaves
the estimators unbiased).  The heterodyne estimators read the count and the
means of x, p, x^2, xp and p^2 (``ProcessedScatter``, from
``processed_scatter(dataset)``): the plain sample mean and sample
second-moment matrix of the phase-space scatter, as in
``het_second_estimator(processed_scatter(data))``.

A Monte-Carlo trial holds no dataset.  A homodyne trial folds each phase's
draw into its column of moments as soon as the phase is drawn, with the
arithmetic of ``processed_moments``; a heterodyne trial folds each block of
``sampling._TEST_CHUNK`` points into the five sums as it is drawn and drops
it, and ``processed_scatter`` folds a dataset in the same blocks, so a
trial's estimates are those of its dataset written out, bit for bit.  A
trial holds one phase's draw, or one block plus the n-long array of radii of
a draw that makes a pass over all of its points first (Fock, displaced Fock
and photon-added states).
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
    "ProcessedScatter",
    "EstimatorError",
    "processed_moments",
    "processed_scatter",
    "linear_first_estimator",
    "optimal_first_estimator",
    "optimal_second_estimator",
    "het_first_estimator",
    "het_second_estimator",
    "monte_carlo_mse",
    "McVerifyResult",
    "McVerifyResults",
    "N_THETA",
]

_SQ2 = math.sqrt(2.0)
_EPS_VAR = 1e-9
# LO phases of a homodyne Monte-Carlo trial when the caller names none
N_THETA = 24


class EstimatorError(RuntimeError):
    """Estimator is not computable from the given data."""


@dataclass(frozen=True)
class ProcessedMoments:
    """Per-phase empirical moments (1/N_k) sum_j x_jk^m, m = 1, 2, 4."""

    phases: np.ndarray
    counts: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m4: np.ndarray

    @property
    def var2(self) -> np.ndarray:
        """Empirical variance of X per phase (weight denominator, order 1)."""
        return self.m2 - self.m1 ** 2

    @property
    def var4(self) -> np.ndarray:
        """Empirical variance of X^2 per phase (weight denominator, order 2)."""
        return self.m4 - self.m2 ** 2


def _fold_phases(phases, draws) -> ProcessedMoments:
    """The moments of each phase's draw in turn; no draw is kept."""
    counts, cols = [], []
    for xs in draws:
        if len(xs) == 0:
            raise EstimatorError("empty phase bin in homodyne dataset")
        x2 = xs * xs
        counts.append(len(xs))
        cols.append((xs.mean(), x2.mean(), (x2 * x2).mean()))
    m = np.array(cols)
    return ProcessedMoments(np.asarray(phases, dtype=float), np.array(counts),
                            m[:, 0], m[:, 1], m[:, 2])


def processed_moments(dataset: HomodyneDataset) -> ProcessedMoments:
    """Empirical per-phase moments of a homodyne dataset."""
    return _fold_phases(dataset.phases, dataset.samples)


@dataclass(frozen=True)
class ProcessedScatter:
    """Sample moments of a phase-space scatter: the count and the means of
    x, p, x^2, xp and p^2."""

    count: int
    x: float
    p: float
    xx: float
    xp: float
    pp: float


def _fold_blocks(blocks) -> ProcessedScatter:
    """The sample moments of the (m, 2) blocks of points in turn; no block is
    kept.  Each block's five sums are pairwise sums, added to the running
    sums block after block."""
    count, acc = 0, np.zeros(5)
    for b in blocks:
        x, p = b[:, 0], b[:, 1]
        buf = x * x  # the three products made in turn in one buffer
        acc += (x.sum(), p.sum(), buf.sum(), np.multiply(x, p, out=buf).sum(),
                np.multiply(p, p, out=buf).sum())
        count += len(b)
    if count == 0:
        raise EstimatorError("empty heterodyne dataset")
    return ProcessedScatter(count, *(acc / count).tolist())


def processed_scatter(dataset: HeterodyneDataset) -> ProcessedScatter:
    """Sample moments of a heterodyne dataset, folded in the blocks of a
    heterodyne draw."""
    pts = dataset.points
    return _fold_blocks(pts[sl] for sl in sampling._chunks(len(pts)))


def _directions(phases: np.ndarray) -> np.ndarray:
    return np.column_stack([np.cos(phases), np.sin(phases)])


def linear_first_estimator(p: ProcessedMoments) -> FirstMoments:
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
    return FirstMoments(r[0], r[1])


def _weighted_fit(p: ProcessedMoments, design, moment: np.ndarray,
                  var: np.ndarray, order: str) -> np.ndarray:
    """Least-squares solution g of moment_k = V_k . g with weights N_k / var_k.

    V = design(phases) holds one design vector per usable phase, a phase
    whose empirical variance is not above _EPS_VAR being left out with a
    warning; at least as many usable phases as unknowns are required.
    """
    usable = var > _EPS_VAR
    if not np.all(usable):
        warnings.warn(f"excluding phases with degenerate variance from the "
                      f"{order}-moment weights", RuntimeWarning, stacklevel=3)
    vecs = design(p.phases[usable])
    if usable.sum() < vecs.shape[1]:
        raise EstimatorError(f"fewer than {vecs.shape[1]} usable phases for "
                             f"the {order}-moment fit")
    w = p.counts[usable] / var[usable]
    frame = (vecs * w[:, None]).T @ vecs
    rhs = (vecs * (w * moment[usable])[:, None]).sum(axis=0)
    if np.linalg.cond(frame) > 1e12:
        raise EstimatorError(f"singular {order}-moment frame matrix")
    return np.linalg.solve(frame, rhs)


def _second_design(th: np.ndarray) -> np.ndarray:
    c, s = np.cos(th), np.sin(th)
    return np.column_stack([c * c, _SQ2 * s * c, s * s])


def optimal_first_estimator(p: ProcessedMoments) -> FirstMoments:
    """Variance-weighted first-moment estimator (asymptotically efficient)."""
    r = _weighted_fit(p, _directions, p.m1, p.var2, "first")
    return FirstMoments(r[0], r[1])


def optimal_second_estimator(p: ProcessedMoments) -> np.ndarray:
    """Variance-weighted estimate of the 2x2 second-moment matrix G2,
    fitted in the vectorized form (gxx, sqrt(2) gxp, gpp)."""
    g2vec = _weighted_fit(p, _second_design, p.m2, p.var4, "second")
    off = g2vec[1] / _SQ2
    return np.array([[g2vec[0], off], [off, g2vec[2]]])


def het_first_estimator(s: ProcessedScatter) -> FirstMoments:
    """Sample mean of the phase-space scatter."""
    return FirstMoments(s.x, s.p)


def het_second_estimator(s: ProcessedScatter) -> np.ndarray:
    """Sample second-moment matrix of the scatter: an estimate of the
    Husimi second moments G2 + I/2, so G2 = it - I/2."""
    return np.array([[s.xx, s.xp], [s.xp, s.pp]])


# ---------------------------------------------------------------------------
# Monte-Carlo bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McVerifyResult:
    """Scaled MSE of one estimator over repeated synthetic experiments."""

    scaled_mse: float
    stderr: float
    failures: int


class McVerifyResults(tuple):
    """The ``McVerifyResult`` of each order of one ``monte_carlo_mse`` call,
    in the order asked for."""

    @property
    def failures(self) -> int:
        """Failed trials of the call, summed over its orders (the per-call
        failure count that bench/tracing.py reads)."""
        return sum(r.failures for r in self)


def _trial_errors(state: StateModel, scheme: str, orders: tuple, n_samples: int,
                  n_theta: int, trial_seed: int, truth: dict) -> list:
    """One trial: a single draw, folded into its moments as it is drawn, then
    per order N * |estimate - truth|^2, or None where that order's estimator
    fails."""
    if scheme == "hom":
        data = _fold_phases(*sampling._phase_draws(state, n_theta, n_samples, trial_seed))
        estimator = {"first": optimal_first_estimator, "second": optimal_second_estimator}
    else:
        data = _fold_blocks(sampling._husimi_blocks(state, n_samples, trial_seed))
        estimator = {"first": het_first_estimator, "second": het_second_estimator}
    errors = []
    for order in orders:
        try:
            est = estimator[order](data)
        except EstimatorError:
            errors.append(None)
            continue
        if order == "first":
            diff = est.as_array() - truth[order]
            errors.append(float(n_samples * (diff @ diff)))
        else:
            diff = est - truth[order]
            errors.append(float(n_samples * np.sum(diff * diff)))
    return errors


def monte_carlo_mse(state: StateModel, scheme: str, orders: tuple, n_samples: int,
                    trials: int, n_theta: int = N_THETA, seed: int = 0,
                    workers: int = 1) -> McVerifyResults:
    """Mean of N * (squared estimator error) over independent trials, one
    ``McVerifyResult`` per estimator order in orders ('first', 'second').

    Each trial draws one dataset, and every order asked for is estimated
    from it, so the results of one call are correlated across orders.  The
    truth is the state's first-moment vector or second-moment matrix
    (heterodyne second-moment errors are measured against G2 + I/2, which
    is equivalent to measuring the shifted estimate against G2).  Homodyne
    trials draw at n_theta LO phases; heterodyne trials ignore it.  Trial t
    samples with seed derive_key(seed, TAG_TRIAL, t), so any worker count
    produces the same result; per-trial errors are combined with exact
    summation.  Estimator failures are counted per order, and more than
    1 percent of the trials of any order aborts.
    """
    if scheme not in ("hom", "het"):
        raise ValueError("scheme must be 'hom' or 'het'")
    orders = tuple(orders)
    if not orders or any(o not in ("first", "second") for o in orders):
        raise ValueError(f"orders must be a non-empty tuple of 'first' and 'second', "
                         f"got {orders!r}")
    if trials < 2:
        raise ValueError("trials >= 2 required")
    if workers < 1:
        raise ValueError(f"workers >= 1 required, got {workers}")

    g2 = second_moment_matrix(state).as_array()
    truth = {"first": first_moments(state).as_array(),
             "second": g2 + 0.5 * np.eye(2) if scheme == "het" else g2}

    def run(trial: int) -> list:
        return _trial_errors(state, scheme, orders, n_samples, n_theta,
                             sampling.derive_key(seed, TAG_TRIAL, trial), truth)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(trials)))
    else:
        results = [run(t) for t in range(trials)]

    out = []
    for order, column in zip(orders, zip(*results)):
        errors = [e for e in column if e is not None]
        failures = trials - len(errors)
        if failures > 0.01 * trials:
            raise EstimatorError(f"{failures}/{trials} {order}-moment estimator failures")
        mean = math.fsum(errors) / len(errors)
        var = math.fsum((e - mean) ** 2 for e in errors) / (len(errors) - 1)
        out.append(McVerifyResult(scaled_mse=mean, stderr=math.sqrt(var / len(errors)),
                                  failures=failures))
    return McVerifyResults(out)
