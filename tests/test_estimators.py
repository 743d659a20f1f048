import math

import numpy as np
import pytest

from mtlab import (
    CovarianceMatrix,
    DisplacedFock,
    FirstMoments,
    Fock,
    Gaussian,
    crb_report,
    first_moments,
    het_first_estimator,
    het_second_estimator,
    linear_first_estimator,
    monte_carlo_mse,
    optimal_first_estimator,
    optimal_second_estimator,
    processed_moments,
    sample_heterodyne,
    sample_homodyne,
    second_moment_matrix,
)
from mtlab import estimators
from mtlab.estimators import EstimatorError, ProcessedMoments
from mtlab.sampling import TAG_TRIAL, HeterodyneDataset, HomodyneDataset, derive_key

from conftest import band

VACUUM = Gaussian(FirstMoments(0.0, 0.0), CovarianceMatrix(0.5, 0.0, 0.5))
SQUEEZED3 = Gaussian(FirstMoments(0.0, 0.0), CovarianceMatrix(1.0 / 6.0, 0.0, 1.5))


def make_pm(phases, m1, m2=None, m4=None, counts=None):
    phases = np.asarray(phases, dtype=float)
    n = len(phases)
    m1 = np.asarray(m1, dtype=float)
    m2 = np.ones(n) if m2 is None else np.asarray(m2, dtype=float)
    m4 = 3.0 * np.ones(n) if m4 is None else np.asarray(m4, dtype=float)
    counts = np.full(n, 1000) if counts is None else np.asarray(counts)
    return ProcessedMoments(phases, counts, m1, m2, m4)


class TestProcessedMoments:
    def test_single_sample(self):
        ds = HomodyneDataset(np.array([0.0, 1.0, 2.0]),
                             [np.array([2.0]), np.array([2.0]), np.array([2.0])])
        p = processed_moments(ds)
        assert np.allclose(p.m1, 2.0)
        assert np.allclose(p.m2, 4.0)
        assert np.allclose(p.m4, 16.0)

    def test_empty_bin_rejected(self):
        ds = HomodyneDataset(np.array([0.0, 1.0]), [np.array([1.0]), np.array([])])
        with pytest.raises(EstimatorError):
            processed_moments(ds)

    def test_constant_data_flagged_degenerate(self):
        ds = HomodyneDataset(np.array([0.0, 1.0, 2.0]),
                             [np.full(5, 3.0)] * 3)
        p = processed_moments(ds)
        with pytest.raises(EstimatorError):
            with pytest.warns(RuntimeWarning):
                optimal_first_estimator(p)

    def test_vacuum_second_moments(self):
        # each phase's mean of x^2 has SD sqrt(Var(x^2)/n) = sqrt(0.5/n) about
        # 0.5: the band fails a correct draw with probability at most 1e-4,
        # and misses a 2% error in any phase's variance (0.01) with
        # probability below 1e-8 (5.8 SD past the band)
        n = 500_000
        p = processed_moments(sample_homodyne(VACUUM, 4, 4 * n, seed=8))
        assert np.all(np.abs(p.m2 - 0.5) < band(math.sqrt(0.5 / n), 1e-4, comparisons=4))


class TestLinearEstimator:
    def test_exact_cosines(self):
        phases = np.arange(5) * math.pi / 5
        p = make_pm(phases, np.cos(phases))
        est = linear_first_estimator(p)
        assert est.as_array() == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_orthogonal_two_phase_design(self):
        p = make_pm([0.0, math.pi / 2], [0.7, -0.3])
        est = linear_first_estimator(p)
        assert est.as_array() == pytest.approx([0.7, -0.3])

    def test_rank_deficient(self):
        p = make_pm([0.3, 0.3], [1.0, 1.0])
        with pytest.raises(EstimatorError):
            linear_first_estimator(p)

    def test_displaced_gaussian_monte_carlo(self):
        s = Gaussian(FirstMoments(1.0, 2.0), CovarianceMatrix(0.5, 0.0, 0.5))
        n = 1_000_000
        ds = sample_homodyne(s, 12, n, seed=6)
        est = linear_first_estimator(processed_moments(ds))
        # sample-mean error scale ~ sqrt(H1/N)
        se = 4.0 * math.sqrt(crb_report(s).h1_hom / n)
        assert np.allclose(est.as_array(), [1.0, 2.0], atol=se)


class TestOptimalEstimators:
    def test_equal_variances_reduce_to_linear(self):
        phases = np.arange(7) * math.pi / 7
        m1 = 0.6 * np.cos(phases) - 0.2 * np.sin(phases) + 0.01
        p = make_pm(phases, m1, m2=1.0 + m1 ** 2)  # variance 1 at every phase
        lin = linear_first_estimator(p).as_array()
        opt = optimal_first_estimator(p).as_array()
        assert np.allclose(lin, opt, atol=1e-12)

    def test_exact_fock1_injection(self):
        phases = np.arange(6) * math.pi / 6
        m2 = np.full(6, 1.5)
        m4 = np.full(6, 3.75)
        p = make_pm(phases, np.zeros(6), m2=m2, m4=m4)
        g2 = optimal_second_estimator(p)
        assert np.allclose(g2, 1.5 * np.eye(2), atol=1e-12)

    def test_needs_three_phases(self):
        p = make_pm([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(EstimatorError):
            optimal_second_estimator(p)

    def test_degenerate_phase_excluded_with_warning(self):
        phases = np.arange(5) * math.pi / 5
        m2 = np.full(5, 1.5)
        m4 = np.full(5, 3.75)
        m4[2] = m2[2] ** 2  # kills the weight denominator
        p = make_pm(phases, np.zeros(5), m2=m2, m4=m4)
        with pytest.warns(RuntimeWarning):
            g2 = optimal_second_estimator(p)
        assert np.allclose(g2, 1.5 * np.eye(2), atol=1e-10)


class TestHeterodyneEstimators:
    def test_single_point_first(self):
        est = het_first_estimator(HeterodyneDataset(np.array([[1.0, -1.0]])))
        assert est.as_array() == pytest.approx([1.0, -1.0])

    def test_single_point_second(self):
        ghet = het_second_estimator(HeterodyneDataset(np.array([[1.0, 2.0]])))
        assert np.allclose(ghet, [[1.0, 2.0], [2.0, 4.0]])

    def test_shift_equivalence_is_exact(self, rng):
        # MSE against G2_het equals MSE of the shifted estimate against G2
        pts = rng.normal(size=(400, 2))
        ghet = het_second_estimator(HeterodyneDataset(pts))
        g2 = rng.normal(size=(2, 2))
        g2 = g2 + g2.T
        d1 = ghet - (g2 + 0.5 * np.eye(2))
        d2 = (ghet - 0.5 * np.eye(2)) - g2
        assert np.sum(d1 * d1) == np.sum(d2 * d2)

    @pytest.mark.parametrize("n", [1, 8_193, 10**6])
    def test_estimates_are_the_numpy_means_bit_for_bit(self, rng, n):
        pts = rng.normal(size=(n, 2)) * [1.3, 0.7] + [0.4, -2.1]
        x, p = pts[:, 0], pts[:, 1]
        d = HeterodyneDataset(pts)
        assert np.array_equal(het_first_estimator(d).as_array(), pts.mean(axis=0))
        xp = np.mean(x * p)
        assert np.array_equal(het_second_estimator(d),
                              [[np.mean(x * x), xp], [xp, np.mean(p * p)]])


class TestMonteCarlo:
    def test_argument_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_mse(VACUUM, "hom", ("first",), 100, 1)
        with pytest.raises(ValueError):
            monte_carlo_mse(VACUUM, "xyz", ("first",), 100, 10)
        for orders in ((), ("third",), "first"):
            with pytest.raises(ValueError, match="orders"):
                monte_carlo_mse(VACUUM, "het", orders, 100, 10)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                monte_carlo_mse(VACUUM, "het", ("first",), 100, 10, workers=workers)

    def test_vacuum_het_first(self):
        res, = monte_carlo_mse(VACUUM, "het", ("first",), 10_000, 400, seed=1)
        assert abs(res.scaled_mse - 2.0) < 3 * res.stderr

    def test_vacuum_hom_first(self):
        res, = monte_carlo_mse(VACUUM, "hom", ("first",), 60_000, 150, n_theta=6, seed=1)
        assert abs(res.scaled_mse - 2.0) < 3 * res.stderr

    def test_vacuum_hom_second(self):
        res, = monte_carlo_mse(VACUUM, "hom", ("second",), 120_000, 200, n_theta=12, seed=1)
        assert abs(res.scaled_mse - 5.0) < 3 * res.stderr

    def test_fock1_het_second(self):
        res, = monte_carlo_mse(Fock(1), "het", ("second",), 50_000, 200, seed=2)
        assert abs(res.scaled_mse - 16.0) < 3 * res.stderr

    def test_worker_pool_matches_serial(self):
        a, = monte_carlo_mse(VACUUM, "het", ("first",), 2000, 20, seed=3, workers=1)
        b, = monte_carlo_mse(VACUUM, "het", ("first",), 2000, 20, seed=3, workers=4)
        assert a.scaled_mse == b.scaled_mse
        assert a.stderr == b.stderr

    @pytest.mark.parametrize("scheme", ["hom", "het"])
    @pytest.mark.parametrize("lead", ["first", "second"])
    def test_trial_measures_scaled_squared_error(self, scheme, lead):
        # one trial, written out: one draw at derive_key(seed, TAG_TRIAL, t)
        # feeds both estimators, and each takes N |estimate - truth|^2
        # against r, G2, or G2 + I/2 for the heterodyne second moments;
        # lead is the order named first in the call
        state = DisplacedFock(0.7 + 0.2j, 1)
        n, trials, n_theta, seed = 3000, 3, 6, 5
        r = first_moments(state).as_array()
        g2 = second_moment_matrix(state).as_array()
        errors = {"first": [], "second": []}
        for t in range(trials):
            key = derive_key(seed, TAG_TRIAL, t)
            if scheme == "hom":
                p = processed_moments(sample_homodyne(state, n_theta, n, key))
                est1, est2 = optimal_first_estimator(p).as_array(), optimal_second_estimator(p)
            else:
                ds = sample_heterodyne(state, n, key)
                est1, est2 = het_first_estimator(ds).as_array(), het_second_estimator(ds)
            d = est1 - r
            errors["first"].append(float(n * (d @ d)))
            d = est2 - (g2 + 0.5 * np.eye(2) if scheme == "het" else g2)
            errors["second"].append(float(n * np.sum(d * d)))
        orders = (lead, {"first": "second", "second": "first"}[lead])
        results = monte_carlo_mse(state, scheme, orders, n, trials, n_theta=n_theta, seed=seed)
        assert len(results) == 2
        for order, res in zip(orders, results):
            mean = math.fsum(errors[order]) / trials
            var = math.fsum((e - mean) ** 2 for e in errors[order]) / (trials - 1)
            assert res.scaled_mse == mean
            assert res.stderr == math.sqrt(var / trials)
            assert res.failures == 0

    def test_failures_are_counted_per_order(self, monkeypatch):
        # a second-moment failure leaves the first-moment result of the same
        # draws as it is without the second order
        calls = []

        def fail_once(ds):
            calls.append(None)
            if len(calls) == 3:
                raise EstimatorError("injected")
            return het_second_estimator(ds)

        monkeypatch.setattr(estimators, "het_second_estimator", fail_once)
        results = monte_carlo_mse(VACUUM, "het", ("first", "second"), 200, 100, seed=4)
        alone, = monte_carlo_mse(VACUUM, "het", ("first",), 200, 100, seed=4)
        first, second = results
        assert (first.failures, second.failures, results.failures) == (0, 1, 1)
        assert first == alone

    def test_failure_fraction_aborts(self):
        # one sample per phase leaves every weight denominator degenerate
        with pytest.warns(RuntimeWarning):
            with pytest.raises(EstimatorError, match="failures"):
                monte_carlo_mse(VACUUM, "hom", ("second",), 24, 2, n_theta=24, seed=1)

    @pytest.mark.slow
    def test_unbiasedness_all_families(self, rng):
        from conftest import random_state

        n, trials = 100_000, 30
        for fam in range(5):
            state = random_state(rng, family=fam)
            truth_r = first_moments(state).as_array()
            truth_g2 = second_moment_matrix(state).as_array()
            sums = {k: [] for k in ("hom1", "hom2", "het1", "het2")}
            for t in range(trials):
                seed = derive_key(1000 + fam, TAG_TRIAL, t)
                ds = sample_homodyne(state, 12, n, seed)
                p = processed_moments(ds)
                sums["hom1"].append(optimal_first_estimator(p).as_array())
                sums["hom2"].append(optimal_second_estimator(p).ravel())
                dh = sample_heterodyne(state, n, seed)
                sums["het1"].append(het_first_estimator(dh).as_array())
                sums["het2"].append((het_second_estimator(dh) - 0.5 * np.eye(2)).ravel())
            for key, truth in (("hom1", truth_r), ("het1", truth_r),
                               ("hom2", truth_g2.ravel()), ("het2", truth_g2.ravel())):
                arr = np.array(sums[key])
                mean = arr.mean(axis=0)
                se = arr.std(axis=0) / math.sqrt(trials) + 1e-12
                assert np.all(np.abs(mean - truth) < 4.0 * se), (fam, key, mean, truth)

    def test_plugin_tracks_true_weight_blue(self):
        # the BLUE needs the true per-phase variances; plugging in the
        # empirical ones must agree with it to O(1/sqrt(N_k)) per trial
        from mtlab import quadrature_moments

        state = SQUEEZED3
        n = 50_000
        diffs, sizes = [], []
        for t in range(20):
            ds = sample_homodyne(state, 12, n, derive_key(77, TAG_TRIAL, t))
            p = processed_moments(ds)
            plug = optimal_first_estimator(p).as_array()
            u = np.column_stack([np.cos(p.phases), np.sin(p.phases)])
            var_true = np.array([
                quedr.m2 - quedr.m1 ** 2
                for quedr in (quadrature_moments(state, th) for th in p.phases)
            ])
            w = p.counts / var_true
            frame = (u * w[:, None]).T @ u
            blue = np.linalg.solve(frame, (u * (w * p.m1)[:, None]).sum(axis=0))
            diffs.append(np.sum((plug - blue) ** 2))
            sizes.append(np.sum(plug ** 2))
        assert np.mean(diffs) < 0.01 * np.mean(sizes)
