import cmath
import math

import numpy as np
import pytest
import scipy.stats

import mtlab.states
from mtlab import (
    CovarianceMatrix,
    DisplacedFock,
    EvenOddCoherent,
    FirstMoments,
    Fock,
    Gaussian,
    PhotonAddedCoherent,
    first_moments,
    husimi_moments,
    quadrature_moments,
    quadrature_pdf,
    sample_heterodyne,
    sample_homodyne,
)
from mtlab.sampling import (
    SamplingError,
    _accept_into,
    _rejection,
    _sample_photon_added_husimi,
    dataset_from_csv,
    derive_key,
    substream,
)
from mtlab.oracle import fock_expansion
from mtlab.special import oscillator_eigenfunction_sum

SQ2 = math.sqrt(2.0)
VACUUM = Gaussian(FirstMoments(0.0, 0.0), CovarianceMatrix(0.5, 0.0, 0.5))

FAMILIES = [
    Gaussian(FirstMoments(0.8, -0.4), CovarianceMatrix(0.3, 0.1, 1.1)),
    Fock(2),
    EvenOddCoherent(1.0, "even"),
    DisplacedFock(0.9, 1),
    PhotonAddedCoherent(0.8, 1),
]


class TestSubstreams:
    def test_derive_key_is_path_sensitive(self):
        assert derive_key(1, 2, 3) != derive_key(1, 3, 2)
        assert derive_key(1) != derive_key(2)

    def test_substream_independence(self):
        a = substream(7, 0).normal(size=5)
        b = substream(7, 1).normal(size=5)
        assert not np.allclose(a, b)
        assert np.allclose(a, substream(7, 0).normal(size=5))


class TestHomodyne:
    def test_size_validation(self):
        with pytest.raises(SamplingError):
            sample_homodyne(VACUUM, 2, 100, seed=0)
        with pytest.raises(SamplingError):
            sample_homodyne(VACUUM, 4, 3, seed=0)

    def test_counts_allocation(self):
        d = sample_homodyne(VACUUM, 4, 10, seed=0)
        assert list(d.counts) == [3, 3, 2, 2]
        assert d.total == 10
        assert np.all(np.diff(d.phases) > 0)
        assert d.phases[0] == 0.0 and d.phases[-1] < math.pi

    def test_determinism(self):
        for s in FAMILIES:
            d1 = sample_homodyne(s, 3, 600, seed=123)
            d2 = sample_homodyne(s, 3, 600, seed=123)
            assert all((a == b).all() for a, b in zip(d1.samples, d2.samples))
            assert d1.to_csv() == d2.to_csv()  # byte-for-byte
            d3 = sample_homodyne(s, 3, 600, seed=124)
            assert not all((a == b).all() for a, b in zip(d1.samples, d3.samples))

    def test_vacuum_variance(self):
        d = sample_homodyne(VACUUM, 4, 400_000, seed=9)
        for xs in d.samples:
            assert np.var(xs) == pytest.approx(0.5, abs=5e-3)

    def test_fock1_moments(self):
        d = sample_homodyne(Fock(1), 3, 3_000_000, seed=3)
        xs = d.samples[0]
        assert np.mean(xs ** 2) == pytest.approx(1.5, abs=0.01)
        assert np.mean(xs ** 4) == pytest.approx(3.75, abs=0.05)

    @pytest.mark.parametrize("state", [
        *FAMILIES, pytest.param(PhotonAddedCoherent(3.0, 2), id="PhotonAddedCoherent-3.0-2"),
    ], ids=lambda s: type(s).__name__)
    def test_kolmogorov_smirnov(self, state):
        # exact samplers at significance 1e-3, N = 1e5 per phase draw
        d = sample_homodyne(state, 3, 300_000, seed=11)
        self.check_ks(state, float(d.phases[1]), d.samples[1])  # phases are k pi/3

    def test_kolmogorov_smirnov_far_cat_peaks(self):
        # the two peaks of the odd cat at alpha0 = 6 sit far from the envelope
        # centre (constant 13.5 at theta = 0), which still takes exact rejection
        state = EvenOddCoherent(6.0, "odd")
        d = sample_homodyne(state, 3, 300_000, seed=11)
        self.check_ks(state, 0.0, d.samples[0])

    @staticmethod
    def check_ks(state, th, xs):
        xs = np.sort(xs)
        t = quadrature_moments(state, th)
        half = 10.0 * math.sqrt(t.m2) + abs(t.m1)
        grid = np.linspace(-half, half, 40001)
        dens = quadrature_pdf(state, th, grid)
        cdf_grid = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                                    * np.diff(grid))])
        cdf_grid /= cdf_grid[-1]
        cdf = np.interp(xs, grid, cdf_grid)
        k = len(xs)
        dplus = np.max(np.arange(1, k + 1) / k - cdf)
        dminus = np.max(cdf - np.arange(0, k) / k)
        dstat = max(dplus, dminus)
        dcrit = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * k))
        assert dstat < dcrit, f"KS {dstat:.5f} >= {dcrit:.5f}"

    def test_photon_added_draws_match_fock_sum_density(self, monkeypatch):
        # the core-vector density must not move a single accept decision
        state = PhotonAddedCoherent(0.8, 2)
        new = sample_homodyne(state, 24, 24_000, seed=4041)
        calls = []

        def fock_sum_core_pdf(s, theta, y):
            # the state's Fock-sum density, moved back by the shift sqrt2 Re(alpha0 e^{-i theta})
            calls.append(theta)
            e = fock_expansion(s)
            w = e.coeffs * np.exp(-1j * np.arange(e.cutoff + 1) * theta)
            x = np.asarray(y, dtype=float) + SQ2 * (complex(s.alpha0) * cmath.exp(-1j * theta)).real
            return np.abs(oscillator_eigenfunction_sum(w, x)) ** 2

        monkeypatch.setattr(PhotonAddedCoherent, "_core_quadrature_pdf", fock_sum_core_pdf)
        old = sample_homodyne(state, 24, 24_000, seed=4041)
        assert len(set(calls)) == 24  # the sampler evaluated the Fock-sum density at every phase
        assert all(np.array_equal(a, b) for a, b in zip(new.samples, old.samples))

    @pytest.mark.parametrize("alpha0, m", [(1.0, 2), (0.9 - 0.4j, 1), (-2.5 + 3.0j, 4)])
    def test_displaced_fock_draws_are_fock_draws_plus_shift(self, alpha0, m):
        state = DisplacedFock(alpha0, m)
        hom, ref = (sample_homodyne(s, 6, 6_000, seed=17) for s in (state, Fock(m)))
        for th, a, b in zip(hom.phases, hom.samples, ref.samples):
            assert np.array_equal(a, b + quadrature_moments(state, th).m1)
        r = first_moments(state)
        het, ref = (sample_heterodyne(s, 5_000, seed=17).points for s in (state, Fock(m)))
        assert np.array_equal(het, ref + [r.rx, r.rp])


class TestRejection:
    """Chunked acceptance must take the same draws as testing a whole batch."""

    def test_accept_into_keeps_order_and_stops_when_full(self):
        props = np.arange(300_000.0)
        seen = []

        def accept(chunk, u):
            seen.append(chunk[0])
            return chunk % 3 == 0

        out = np.full(5, -1.0)
        assert _accept_into(out, 2, props, np.zeros(props.size), accept) == 5
        assert list(out) == [-1.0, -1.0, 0.0, 3.0, 6.0]
        assert seen == [0.0]  # later chunks are never tested

    def test_rejection_1d_matches_whole_batch(self):
        pdf = lambda x: quadrature_pdf(Fock(3), 0.0, x)
        var_env, half = 3.0 * 3.5, 6.0 * math.sqrt(3.5)
        env = lambda x: np.exp(-0.5 * x ** 2 / var_env) / math.sqrt(2 * math.pi * var_env)
        grid = np.linspace(-half, half, 2049)
        got = _rejection(pdf, env, lambda g, k: g.normal(0.0, math.sqrt(var_env), size=k),
                         grid, 200_000, substream(9, 1))
        # the reference tests every proposal of each batch at once
        c = float(np.max(pdf(grid) / env(grid))) * 1.10
        gen, ref = substream(9, 1), []
        while len(ref) < 200_000:
            k = max(1024, int((200_000 - len(ref)) * c * 1.2))
            xs = gen.normal(0.0, math.sqrt(var_env), size=k)
            ref.extend(xs[gen.uniform(0.0, 1.0, size=k) * c * env(xs) < pdf(xs)])
        assert np.array_equal(got, np.array(ref[:200_000]))

    def test_rejection_2d_matches_whole_batch(self):
        state = EvenOddCoherent(1.0, "even")
        qpdf = lambda x, p: mtlab.states.husimi_pdf(state, x, p)
        centers, var_env = np.array([[SQ2, 0.0], [-SQ2, 0.0]]), 2.5

        def env(x, p):
            return sum(np.exp(-0.5 * ((x - cx) ** 2 + (p - cp) ** 2) / var_env)
                       for cx, cp in centers) / (4 * math.pi * var_env)

        def propose(g, k):
            return centers[g.integers(0, 2, size=k)] + g.normal(0.0, math.sqrt(var_env), (k, 2))

        xs = np.linspace(-9.0, 9.0, 257)
        gx, gp = (g.ravel() for g in np.meshgrid(xs, xs, indexing="ij"))
        got = _rejection(lambda pts: qpdf(pts[:, 0], pts[:, 1]),
                         lambda pts: env(pts[:, 0], pts[:, 1]), propose,
                         np.column_stack([gx, gp]), 150_000, substream(9, 2))
        c = float(np.max(qpdf(gx, gp) / env(gx, gp))) * 1.10
        gen, ref = substream(9, 2), []
        while len(ref) < 150_000:
            k = max(1024, int((150_000 - len(ref)) * c * 1.2))
            pts = propose(gen, k)
            keep = gen.uniform(0.0, 1.0, size=k) * c * env(pts[:, 0], pts[:, 1]) \
                < qpdf(pts[:, 0], pts[:, 1])
            ref.extend(pts[keep])
        assert np.array_equal(got, np.array(ref[:150_000]))

    def test_density_above_envelope_between_scan_nodes_raises(self):
        # a narrow peak at 0.5 falls between the integer scan nodes, so the
        # scanned constant is too small there and the tested points show it
        def pdf(x):
            spike = np.exp(-0.5 * ((x - 0.5) / 0.05) ** 2) / (0.05 * math.sqrt(2 * math.pi))
            return 0.5 * scipy.stats.norm.pdf(x) + 0.5 * spike

        with pytest.raises(SamplingError, match="exceeds the rejection envelope"):
            _rejection(pdf, scipy.stats.norm.pdf, lambda g, k: g.normal(size=k),
                       np.linspace(-4.0, 4.0, 9), 1000, substream(9, 3))

    def test_far_cat_heterodyne_raises_instead_of_inexact_draws(self):
        # at alpha0 = 10 the 257^2 scan misses the Husimi peaks by more than
        # the safety factor; the draw must fail rather than be silently wrong
        with pytest.raises(SamplingError, match="exceeds the rejection envelope"):
            sample_heterodyne(EvenOddCoherent(10.0, "even"), 1000, seed=1)


class TestHeterodyne:
    def test_size_validation(self):
        with pytest.raises(SamplingError):
            sample_heterodyne(VACUUM, 0, seed=0)

    def test_determinism(self):
        for s in FAMILIES:
            a = sample_heterodyne(s, 2000, seed=9).points
            b = sample_heterodyne(s, 2000, seed=9).points
            assert (a == b).all()

    def test_gaussian_covariance_matches_husimi(self):
        s = Gaussian(FirstMoments(1.0, 0.0), CovarianceMatrix(0.25, 0.0, 1.0))
        pts = sample_heterodyne(s, 500_000, seed=21).points
        cov = np.cov(pts.T)
        assert np.allclose(cov, s.g.as_array() + 0.5 * np.eye(2), atol=6e-3)
        assert np.allclose(pts.mean(axis=0), [1.0, 0.0], atol=6e-3)

    def test_fock_radial_law(self):
        n = 3
        pts = sample_heterodyne(Fock(n), 400_000, seed=5).points
        s = 0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
        # radius^2/2 is Gamma(n+1): mean n+1, variance n+1
        assert s.mean() == pytest.approx(n + 1.0, abs=4 * s.std() / math.sqrt(len(s)))
        ks = scipy.stats.kstest(s, "gamma", args=(n + 1.0,))
        assert ks.pvalue > 1e-3

    def test_photon_added_vacuum_radial_law(self):
        m = 3
        pts = sample_heterodyne(PhotonAddedCoherent(0.0, m), 400_000, seed=5).points
        s = 0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
        ks = scipy.stats.kstest(s, "gamma", args=(m + 1.0,))
        assert ks.pvalue > 1e-3

    def test_photon_added_mixture_defect_raises(self):
        gen = substream(1, 2)
        with pytest.raises(SamplingError):
            _sample_photon_added_husimi(1.5 + 0.5j, 2, 100, gen, cutoff=3)

    @pytest.mark.parametrize("state", FAMILIES,
                             ids=lambda s: type(s).__name__)
    def test_moments_match_husimi_within_4se(self, state):
        self.check_husimi_moments(state)

    @pytest.mark.parametrize("state", [PhotonAddedCoherent(1.3 + 0.7j, 3),
                                       PhotonAddedCoherent(2.5j, 6)],
                             ids=lambda s: f"m{s.m}")
    def test_photon_added_moments_within_4se(self, state):
        self.check_husimi_moments(state)

    @staticmethod
    def check_husimi_moments(state):
        n = 1_000_000
        pts = sample_heterodyne(state, n, seed=31).points
        x, p = pts[:, 0], pts[:, 1]
        h = husimi_moments(state)
        monomials = {
            "mx": x, "mp": p, "mxx": x * x, "mxp": x * p, "mpp": p * p,
            "mx4": x ** 4, "mx3p": x ** 3 * p, "mx2p2": x * x * p * p,
            "mxp3": x * p ** 3, "mp4": p ** 4,
        }
        for name, vals in monomials.items():
            se = vals.std() / math.sqrt(n)
            assert abs(vals.mean() - getattr(h, name)) < 4.0 * se + 1e-9, name


class TestCsv:
    def test_homodyne_roundtrip(self):
        d = sample_homodyne(VACUUM, 3, 30, seed=77)
        back = dataset_from_csv(d.to_csv())
        assert back.seed == 77
        assert back.state_kv == d.state_kv
        assert np.allclose(back.phases, d.phases)
        for a, b in zip(back.samples, d.samples):
            assert (a == b).all()

    def test_heterodyne_roundtrip(self):
        d = sample_heterodyne(Fock(1), 25, seed=5)
        back = dataset_from_csv(d.to_csv())
        assert (back.points == d.points).all()
        assert back.state_kv == "family=fock n=1"
