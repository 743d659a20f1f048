import cmath
import math

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
    covariance,
    first_moments,
    gaussian_cov_from_shape,
    husimi_moments,
    husimi_pdf,
    quadrature_moments,
    quadrature_pdf,
    sample_heterodyne,
    sample_homodyne,
    second_moment_matrix,
    state_from_kv,
    state_to_kv,
)
from mtlab.special import oscillator_eigenfunction_sum
from mtlab.oracle import CutoffError, _log_factorial, fock_expansion, hyp1f1, hyp1f1_log
from mtlab.states import (_core_rows, _moment_data, _photon_added_mass,
                          quadrature_x2_variance)
from conftest import random_state, rotated_cov, rotated_mean

SQ2 = math.sqrt(2.0)

VACUUM = Gaussian(FirstMoments(0.0, 0.0), CovarianceMatrix(0.5, 0.0, 0.5))


class TestQuadratureMoments:
    def test_fock1_phase_independent(self):
        for th in (0.0, 0.4, 2.2):
            t = quadrature_moments(Fock(1), th)
            assert t.m1 == 0.0 and t.m3 == 0.0
            assert t.m2 == pytest.approx(1.5)
            assert t.m4 == pytest.approx(3.75)

    def test_vacuum(self):
        t = quadrature_moments(Fock(0), 1.0)
        assert (t.m1, t.m2, t.m4) == pytest.approx((0.0, 0.5, 0.75))

    def test_gaussian_displaced(self):
        s = Gaussian(FirstMoments(1.0, 0.0), CovarianceMatrix(0.5, 0.0, 0.5))
        t = quadrature_moments(s, 0.0)
        assert t.m1 == pytest.approx(1.0)
        assert t.m2 == pytest.approx(1.5)
        # variance of X^2 for a displaced normal: 2 s^2 (s^2 + 2 mu^2)
        assert t.m4 - t.m2 ** 2 == pytest.approx(2.5)

    def test_fock_x2_variance_identity(self):
        for n in range(6):
            t = quadrature_moments(Fock(n), 0.3)
            assert t.m4 - t.m2 ** 2 == pytest.approx(0.5 * t.m2 ** 2 + 0.375)

    def test_moment_inequalities_random(self, rng):
        for _ in range(60):
            s = random_state(rng)
            for th in (0.0, 0.9, 2.5):
                t = quadrature_moments(s, th)
                assert t.m2 >= t.m1 ** 2 - 1e-12
                assert t.m4 >= t.m2 ** 2 - 1e-12

    def test_x2_variance_exact_at_large_amplitude(self):
        # m4 - m2^2 evaluated exactly in rationals from the float mean x and core
        # variance s2; the raw float difference would cancel ~x^4 at |alpha0| = 20
        from fractions import Fraction

        thetas = np.arange(8) * (math.pi / 8)
        shape = gaussian_cov_from_shape(GaussianShape(2.0, 3.0, 0.4))
        for r in (6.0, 10.0, 20.0):
            for phase in (0.0, 1.1):
                a0 = r * complex(math.cos(phase), math.sin(phase))
                cases = [(DisplacedFock(a0, m), None, m) for m in (0, 3)]
                cases.append((Gaussian(FirstMoments(SQ2 * a0.real, SQ2 * a0.imag), shape),
                              shape.as_array(), None))
                for s, g, m in cases:
                    got = quadrature_x2_variance(s, thetas)
                    for th, v in zip(thetas, got):
                        x = Fraction(SQ2 * (a0 * complex(math.cos(th), -math.sin(th))).real)
                        if g is None:
                            s2 = Fraction(2 * m + 1, 2)
                            c4 = Fraction(3, 4) * (2 * m * m + 2 * m + 1)
                        else:
                            u = np.array([math.cos(th), math.sin(th)])
                            s2 = Fraction(float(u @ g @ u))
                            c4 = 3 * s2 * s2
                        m2 = s2 + x * x
                        m4 = c4 + 6 * x * x * s2 + x ** 4
                        exact = m4 - m2 * m2
                        assert abs(Fraction(float(v)) - exact) <= Fraction(1, 10 ** 12) * exact, (s, th)


def _gram_table(c):
    """<a^dag^j a^k> (j, k <= 4) of the Fock vector c, as <a^j c | a^k c>."""
    v = [np.asarray(c, dtype=complex)]
    root = np.sqrt(np.arange(1.0, len(c)))
    for _ in range(4):
        v.append(np.append(root * v[-1][1:], 0.0))
    return np.array([[np.vdot(v[j], v[k]) for k in range(5)] for j in range(5)])


def _table_of(state):
    """Normally ordered table of the state: its core table displaced by its shift."""
    row = _core_rows([state])[0]
    x0, p0 = row[25:].real
    core = row[:25].reshape(5, 5)
    beta = complex(x0, p0) / SQ2
    out = np.zeros((5, 5), dtype=complex)
    for j in range(5):
        for k in range(5 - j):
            out[j, k] = sum(math.comb(j, r) * math.comb(k, q) * beta.conjugate() ** (j - r)
                            * beta ** (k - q) * core[r, q]
                            for r in range(j + 1) for q in range(k + 1))
    return out


LOW_ORDER = np.add.outer(np.arange(5), np.arange(5)) <= 4


class TestMomentTable:
    @pytest.mark.parametrize("state", [
        Fock(3),
        EvenOddCoherent(1.3 - 0.4j, "odd"),
        DisplacedFock(0.9 + 0.6j, 2),
        PhotonAddedCoherent(-0.7 + 0.5j, 3),
        # the largest criterion-3 search state, and one whose unscaled
        # normalization sum of squares overflows
        pytest.param(PhotonAddedCoherent(19.0, 40), id="PhotonAddedCoherent-19-40"),
        pytest.param(PhotonAddedCoherent(20.0, 120), id="PhotonAddedCoherent-20-120"),
    ], ids=lambda s: type(s).__name__)
    def test_displaced_core_matches_fock_expansion(self, state):
        got = _table_of(state)
        ref = _gram_table(fock_expansion(state).coeffs)
        assert got[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(got[LOW_ORDER], ref[LOW_ORDER], rtol=1e-9, atol=1e-9)

    def test_stacked_photon_added_tables_match_gram_tables(self):
        # one stack per family of every m = 0..12, padded to 13 amplitudes:
        # each table is the Gram table of the state's own vector (a stack of
        # one); a number state's vector has one amplitude, so its rows are
        # those of a stack of one bit for bit
        rng = np.random.default_rng(43)
        states = [PhotonAddedCoherent(complex(a0), m) for m in range(13)
                  for a0 in (0.0, 20.0, -20j, 1e-3,
                             rng.uniform(0.1, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))]
        states += [DisplacedFock(a0, m) for m in range(13) for a0 in (0.0, -20j, 0.7 - 1.1j)]
        rng.shuffle(states)
        rows = _core_rows(states)
        for s, row in zip(states, rows):
            ref = _gram_table(s._vector)
            assert s._vector.size == s.m + 1
            got = row[:25].reshape(5, 5)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), s
            if isinstance(s, DisplacedFock):
                assert np.array_equal(row, _core_rows([s])[0]), s

    def test_number_state_tables_are_falling_factorials(self):
        # the Gram table of e_n: <a^dag^k a^k> = n!/(n-k)! to 3 ulps, and
        # exact zeros off the diagonal, for n = 0..60 in one stack
        n = range(61)
        tables = _core_rows([Fock(k) for k in n])[:, :25].reshape(-1, 5, 5)
        ref = np.array([[math.perm(k, j) for j in range(5)] for k in n], dtype=float)
        diag = tables[:, range(5), range(5)]
        assert not diag.imag.any()
        assert np.all(np.abs(diag.real - ref) <= 3.0 * np.finfo(float).eps * ref)
        tables[:, range(5), range(5)] = 0.0
        assert not tables.any()

    @pytest.mark.parametrize("r, phi", [(0.4, 0.0), (0.7, 2.3)])
    def test_gaussian_wick_table_matches_squeezed_vacuum(self, r, phi):
        # S(r)|0> has c_2n = (-e^{i phi} tanh r)^n sqrt((2n)!) / (2^n n! sqrt(cosh r));
        # the Wick table built from its n and s must reproduce its fourth moments
        c = np.zeros(201, dtype=complex)
        c[0] = 1.0 / math.sqrt(math.cosh(r))
        for n in range(1, 101):
            c[2 * n] = (c[2 * n - 2] * -cmath.exp(1j * phi) * math.tanh(r)
                        * math.sqrt(2 * n * (2 * n - 1)) / (2 * n))
        ref = _gram_table(c)
        n, s = ref[1, 1].real, ref[0, 2]
        g = CovarianceMatrix(n + 0.5 + s.real, s.imag, n + 0.5 - s.real)
        got = _table_of(Gaussian(FirstMoments(0.0, 0.0), g))
        assert np.allclose(got[LOW_ORDER], ref[LOW_ORDER], rtol=1e-12, atol=1e-12)


class TestHusimiMoments:
    def test_fock(self):
        for n in (0, 1, 4):
            h = husimi_moments(Fock(n))
            assert h.mxx == pytest.approx(n + 1)
            assert h.mx4 == pytest.approx(1.5 * (n + 1) * (n + 2))
            assert h.mx2p2 == pytest.approx((n + 1) * (n + 2) / 2)

    def test_vacuum(self):
        h = husimi_moments(Fock(0))
        assert (h.mxx, h.mpp, h.mx4, h.mx2p2) == pytest.approx((1.0, 1.0, 3.0, 1.0))

    def test_coherent_real(self):
        x0 = 1.3 * SQ2
        h = husimi_moments(DisplacedFock(1.3, 0))
        assert h.mx == pytest.approx(x0)
        assert h.mxx - h.mx ** 2 == pytest.approx(1.0)

    def test_husimi_covariance_is_state_covariance_plus_half(self, rng):
        for _ in range(40):
            s = random_state(rng)
            h = husimi_moments(s)
            mean = np.array([h.mx, h.mp])
            lhs = np.array([[h.mxx, h.mxp], [h.mxp, h.mpp]]) - np.outer(mean, mean)
            rhs = covariance(s).as_array() + 0.5 * np.eye(2)
            assert np.allclose(lhs, rhs, atol=1e-8)

    def test_rotation_consistency_all_families(self, rng):
        # |alpha0| e^{i delta}: mean and G2 are R(delta) applied to those of the
        # real-amplitude state; the degree-4 Husimi moments, which carry the
        # phase, agree with the characteristic-function oracle
        from mtlab.oracle import cf_husimi_moment

        degree4 = {(4, 0): "mx4", (3, 1): "mx3p", (2, 2): "mx2p2", (1, 3): "mxp3", (0, 4): "mp4"}

        def pairs(a, delta):
            m = int(rng.integers(0, 5))
            shape = GaussianShape(float(np.exp(rng.uniform(0.0, 1.4))),
                                  float(np.exp(rng.uniform(0.0, 1.1))),
                                  float(rng.uniform(0.0, np.pi)))
            g = gaussian_cov_from_shape(shape)
            base = Gaussian(FirstMoments(SQ2 * a, 0.0), g)
            yield base, Gaussian(rotated_mean(base.r0, delta), rotated_cov(g, delta))
            yield Fock(m), Fock(m)
            for parity in ("even", "odd"):
                yield EvenOddCoherent(a, parity), EvenOddCoherent(a * np.exp(1j * delta), parity)
            yield DisplacedFock(a, m), DisplacedFock(a * np.exp(1j * delta), m)
            yield PhotonAddedCoherent(a, m), PhotonAddedCoherent(a * np.exp(1j * delta), m)

        for draw in range(12):
            a = float(rng.uniform(0.1, 2.0))
            delta = float(rng.uniform(0, 2 * np.pi))
            for real, rotated in pairs(a, delta):
                want = rotated_mean(first_moments(real), delta).as_array()
                got = first_moments(rotated).as_array()
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), rotated
                want = rotated_cov(second_moment_matrix(real), delta).as_array()
                got = second_moment_matrix(rotated).as_array()
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), rotated
                if draw < 2:
                    h = husimi_moments(rotated)
                    for (k, l), name in degree4.items():
                        v = getattr(h, name)
                        assert abs(cf_husimi_moment(rotated, k, l) - v) <= 1e-5 * max(1.0, abs(v))


class TestSecondMomentMatrix:
    def test_fock_isotropic(self):
        for n in (0, 2, 7):
            g2 = second_moment_matrix(Fock(n)).as_array()
            assert np.allclose(g2, (n + 0.5) * np.eye(2), atol=1e-12)

    def test_displaced_fock_eigenvalues(self):
        g2 = second_moment_matrix(DisplacedFock(1.0, 2)).as_array()
        assert np.linalg.eigvalsh(g2) == pytest.approx([2.5, 4.5])
        # lambda_1 = m + 1/2, lambda_2 = m + 2|a0|^2 + 1/2 for any phase
        g2 = second_moment_matrix(DisplacedFock(0.8j, 3)).as_array()
        assert np.linalg.eigvalsh(g2) == pytest.approx([3.5, 3.5 + 2 * 0.64])

    def test_even_odd_eigenvalues(self):
        for parity, sgn in (("even", 1.0), ("odd", -1.0)):
            for a0 in (0.4, 1.1):
                a2 = a0 * a0
                tpm = math.tanh(a2) ** sgn
                expect = sorted([0.5 + a2 * (tpm + 1), 0.5 + a2 * (tpm - 1)])
                g2 = second_moment_matrix(EvenOddCoherent(a0, parity)).as_array()
                assert np.linalg.eigvalsh(g2) == pytest.approx(expect, rel=1e-10)

    def test_photon_added_eigenvalues(self):
        # closed forms in terms of Kummer-function ratios
        for m, a0 in ((0, 1.0), (1, 0.7), (3, 1.2)):
            z = a0 * a0
            lam1 = (m + 1) * hyp1f1(m + 2, 2, z) / hyp1f1(m + 1, 1, z) - 0.5
            lam2 = (2 * m + 2 * z + 0.5
                    + m * (2 * z - 1) * hyp1f1(m + 1, 2, z) / hyp1f1(m + 1, 1, z))
            g2 = second_moment_matrix(PhotonAddedCoherent(a0, m)).as_array()
            assert np.linalg.eigvalsh(g2) == pytest.approx(sorted([lam1, lam2]), rel=1e-10)

    def test_coherent_case(self):
        g2 = second_moment_matrix(PhotonAddedCoherent(1.0, 0)).as_array()
        assert np.linalg.eigvalsh(g2) == pytest.approx([0.5, 2.5])

    def test_g2_equals_g_plus_outer(self, rng):
        for _ in range(30):
            s = random_state(rng)
            g2 = second_moment_matrix(s).as_array()
            r = first_moments(s).as_array()
            assert np.allclose(g2, covariance(s).as_array() + np.outer(r, r), atol=1e-9)


class TestLimits:
    def test_photon_added_zero_amplitude_is_fock(self):
        for m in (0, 1, 3):
            tp = quadrature_moments(PhotonAddedCoherent(0.0, m), 0.7)
            tf = quadrature_moments(Fock(m), 0.7)
            assert (tp.m2, tp.m4) == pytest.approx((tf.m2, tf.m4))
            hp = husimi_moments(PhotonAddedCoherent(1e-7, m))
            hf = husimi_moments(Fock(m))
            assert hp.mx4 == pytest.approx(hf.mx4, rel=1e-5)

    def test_even_small_amplitude_is_vacuum(self):
        h = husimi_moments(EvenOddCoherent(1e-7, "even"))
        assert h.mxx == pytest.approx(1.0, abs=1e-8)
        assert h.mx4 == pytest.approx(3.0, abs=1e-6)

    def test_odd_small_amplitude_is_single_photon(self):
        for a0 in (0.0, 1e-7, 1e-4):
            t = quadrature_moments(EvenOddCoherent(a0, "odd"), 0.2)
            assert t.m2 == pytest.approx(1.5, abs=1e-6)
            assert t.m4 == pytest.approx(3.75, abs=1e-5)
        h = husimi_moments(EvenOddCoherent(1e-6, "odd"))
        assert h.mxx == pytest.approx(2.0, abs=1e-8)


class TestFockExpansion:
    def test_fock_trivial(self):
        e = fock_expansion(Fock(3), cutoff=10)
        assert e.coeffs[3] == 1.0
        assert np.sum(np.abs(e.coeffs) ** 2) == pytest.approx(1.0)

    def test_even_coherent_weights(self):
        e = fock_expansion(EvenOddCoherent(1.0, "even"), cutoff=30)
        assert abs(e.coeffs[0]) ** 2 == pytest.approx(1.0 / math.cosh(1.0), rel=1e-12)
        assert e.norm_defect <= 1e-10
        assert np.all(e.coeffs[1::2] == 0)

    def test_photon_added_zero_amplitude(self):
        e = fock_expansion(PhotonAddedCoherent(0.0, 1), cutoff=5)
        assert abs(e.coeffs[1]) == pytest.approx(1.0)

    def test_cutoff_error(self):
        with pytest.raises(CutoffError):
            fock_expansion(EvenOddCoherent(2.0, "even"), cutoff=3)

    def test_default_cutoff_of_each_family(self):
        assert fock_expansion(Fock(3)).cutoff == 3
        # ceil(|alpha0|^2 + m + 10 sqrt(|alpha0|^2 + m + 1) + 20)
        assert fock_expansion(EvenOddCoherent(1.0, "odd")).cutoff == 36
        assert fock_expansion(DisplacedFock(1j, 2)).cutoff == 43
        assert fock_expansion(PhotonAddedCoherent(-1.0, 2)).cutoff == 43

    def test_default_cutoff_of_gaussian_raises(self):
        with pytest.raises(TypeError, match="non-Gaussian families only"):
            fock_expansion(VACUUM)

    def test_mean_photon_number_matches_moments(self, rng):
        # sum n |c_n|^2 must equal (Tr G2 - 1)/2 for every pure family
        for fam in (1, 2, 3, 4):
            for _ in range(5):
                s = random_state(rng, family=fam)
                e = fock_expansion(s)
                nbar = float(np.sum(np.arange(len(e.coeffs)) * np.abs(e.coeffs) ** 2))
                g2 = second_moment_matrix(s).as_array()
                assert nbar == pytest.approx((np.trace(g2) - 1.0) / 2.0, rel=1e-8, abs=1e-8)


class TestDensities:
    x = np.linspace(-9, 9, 3001)

    def test_vacuum_quadrature(self):
        pdf = quadrature_pdf(VACUUM, 0.3, self.x)
        assert np.allclose(pdf, np.exp(-self.x ** 2) / math.sqrt(math.pi), atol=1e-12)

    def test_fock1_quadrature(self):
        pdf = quadrature_pdf(Fock(1), 0.0, self.x)
        ref = 2 * self.x ** 2 * np.exp(-self.x ** 2) / math.sqrt(math.pi)
        assert np.allclose(pdf, ref, atol=1e-12)

    def test_gaussian_marginal(self):
        s = Gaussian(FirstMoments(1.0, 0.0), CovarianceMatrix(0.25, 0.0, 1.0))
        pdf = quadrature_pdf(s, 0.0, self.x)
        ref = np.exp(-0.5 * (self.x - 1) ** 2 / 0.25) / math.sqrt(2 * math.pi * 0.25)
        assert np.allclose(pdf, ref)

    def test_quadrature_normalization_all_families(self, rng):
        for fam in range(5):
            s = random_state(rng, family=fam)
            for th in (0.0, 1.1):
                t = quadrature_moments(s, th)
                half = 10 * math.sqrt(t.m2) + abs(t.m1)
                xs = np.linspace(-half, half, 8001)
                total = np.trapezoid(quadrature_pdf(s, th, xs), xs)
                assert total == pytest.approx(1.0, abs=1e-8)

    def test_husimi_closed_forms(self):
        xs = np.linspace(-5, 5, 41)
        X, P = np.meshgrid(xs, xs, indexing="ij")
        vac = husimi_pdf(VACUUM, X, P)
        assert np.allclose(vac, np.exp(-(X ** 2 + P ** 2) / 2) / (2 * math.pi))
        for n in (1, 3):
            q = husimi_pdf(Fock(n), X, P)
            aa = (X ** 2 + P ** 2) / 2
            ref = np.exp(-aa) * aa ** n / (2 * math.pi * math.factorial(n))
            assert np.allclose(q, ref, atol=1e-14)

    @pytest.mark.parametrize("s", [
        pytest.param(EvenOddCoherent(1.0, "even"), id="1.0-even"),
        pytest.param(EvenOddCoherent(1.3 - 0.4j, "odd"), id="(1.3-0.4j)-odd"),
        pytest.param(EvenOddCoherent(2.5j, "even"), id="2.5j-even"),
        pytest.param(DisplacedFock(0.9 + 0.6j, 2), id="displaced_fock-(0.9+0.6j)-2"),
        pytest.param(PhotonAddedCoherent(-0.7 + 0.5j, 3), id="photon_added-(-0.7+0.5j)-3"),
        pytest.param(PhotonAddedCoherent(2.0, 6), id="photon_added-2.0-6"),
    ])
    def test_husimi_cat_matches_fock_sum(self, s):
        # Q = |sum_n c_n conj(alpha)^n / sqrt(n!)|^2 e^{-|alpha|^2} / (2 pi)
        c = fock_expansion(s).coeffs
        xs = np.linspace(-6, 6, 25)
        X, P = np.meshgrid(xs, xs, indexing="ij")
        abar = (X - 1j * P) / SQ2
        amp = sum(cn * abar ** n / math.sqrt(math.factorial(n)) for n, cn in enumerate(c))
        ref = np.abs(amp) ** 2 * np.exp(-np.abs(abar) ** 2) / (2 * math.pi)
        assert np.allclose(husimi_pdf(s, X, P), ref, rtol=1e-10, atol=1e-14)

    def test_husimi_gaussian_is_normal_ghet(self):
        s = Gaussian(FirstMoments(0.7, -0.2), CovarianceMatrix(0.8, 0.15, 0.45))
        xs = np.linspace(-6, 6, 31)
        X, P = np.meshgrid(xs, xs, indexing="ij")
        q = husimi_pdf(s, X, P)
        ghet = s.g.as_array() + 0.5 * np.eye(2)
        si = np.linalg.inv(ghet)
        dx, dp = X - 0.7, P + 0.2
        ref = np.exp(-0.5 * (si[0, 0] * dx ** 2 + 2 * si[0, 1] * dx * dp + si[1, 1] * dp ** 2))
        ref /= 2 * math.pi * math.sqrt(np.linalg.det(ghet))
        assert np.allclose(q, ref)

    def test_husimi_normalization_all_families(self, rng):
        for fam in range(5):
            s = random_state(rng, family=fam)
            h = husimi_moments(s)
            hx = 9 * math.sqrt(h.mxx) + abs(h.mx)
            hp = 9 * math.sqrt(h.mpp) + abs(h.mp)
            xs = np.linspace(-hx, hx, 601)
            ps = np.linspace(-hp, hp, 601)
            X, P = np.meshgrid(xs, ps, indexing="ij")
            q = husimi_pdf(s, X, P)
            total = np.trapezoid(np.trapezoid(q, ps, axis=1), xs)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestPhotonAddedDensity:
    """The m+1 displaced-number-state density against the Fock-sum route."""

    @staticmethod
    def fock_sum_pdf(state, theta, x):
        e = fock_expansion(state)
        w = e.coeffs * np.exp(-1j * np.arange(e.cutoff + 1) * theta)
        return np.abs(oscillator_eigenfunction_sum(w, x)) ** 2

    def test_matches_fock_sum(self):
        rng = np.random.default_rng(1991)
        x = np.linspace(-12.0, 12.0, 801)
        for _ in range(300):
            m = int(rng.integers(0, 13))
            a0 = 10.0 ** rng.uniform(-4.0, math.log10(3.0)) \
                * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            s = PhotonAddedCoherent(complex(a0), m)
            theta = float(rng.uniform(0.0, math.pi))
            ref = self.fock_sum_pdf(s, theta, x)
            got = quadrature_pdf(s, theta, x)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref), (s, theta)

    def test_mass_is_kummer_sum(self):
        # m! 1F1(m+1; 1; z) = e^z sum_j C(m, j)^2 j! z^(m-j), to 1e-12 relative:
        # the finite mixture of the photon-added Husimi draw rests on it
        for m in (*range(0, 120, 7), 120):
            for z in (0.0, 1e-6, 0.3, 2.0, 15.0, 60.0, 150.0, 400.0):
                w, top = _photon_added_mass(np.array([z]), np.array([m]))
                top = int(top[0])  # the largest term, C(m, top)^2 top! z^(m - top)
                log_mass = (2.0 * math.log(math.comb(m, top)) + math.lgamma(top + 1.0)
                            + (m - top) * (math.log(z) if top < m else 0.0) + math.log(w.sum()))
                ref = _log_factorial(m) + hyp1f1_log(m + 1, 1, z)
                assert z + log_mass == pytest.approx(ref, abs=1e-12), (m, z)

    def test_zero_amplitude_is_fock_exactly(self):
        x = np.linspace(-8.0, 8.0, 1601)
        for m in range(13):
            for theta in (0.0, 0.9):
                got = quadrature_pdf(PhotonAddedCoherent(0.0, m), theta, x)
                assert np.array_equal(got, quadrature_pdf(Fock(m), theta, x))

    def test_normalized(self):
        for s in (PhotonAddedCoherent(0.8, 2), PhotonAddedCoherent(1.3 + 0.7j, 7),
                  PhotonAddedCoherent(-2.5j, 12)):
            for theta in (0.0, 0.7, 2.3):
                t = quadrature_moments(s, theta)
                half = 12.0 * math.sqrt(t.m2) + abs(t.m1)
                xs = np.linspace(-half, half, 20001)
                total = np.trapezoid(quadrature_pdf(s, theta, xs), xs)
                assert abs(total - 1.0) <= 1e-10


class TestSerialization:
    def test_roundtrip_all_families(self, rng):
        for fam in range(5):
            for _ in range(3):
                s = random_state(rng, family=fam)
                assert state_from_kv(state_to_kv(s)) == s

    def test_gaussian_shape_form(self):
        s = state_from_kv("family=gaussian mu=2.0 lam=1.0 phi=0.0 x0=1.0")
        assert isinstance(s, Gaussian)
        assert np.allclose(s.g.as_array(), np.eye(2))
        assert s.r0.rx == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            state_from_kv("family=unknown")
        with pytest.raises(ValueError):
            state_from_kv("family=fock")
        with pytest.raises(ValueError):
            state_from_kv("family=fock n=2 junk=1")
        # a bool is an int, but a state of one would write "n=True", which does
        # not parse back: no state takes a bool count
        for text in ("family=fock n=True", "family=displaced_fock alpha0=1.0 m=True"):
            with pytest.raises(ValueError):
                state_from_kv(text)
        for make in (lambda: Fock(True), lambda: DisplacedFock(1.0, True),
                     lambda: PhotonAddedCoherent(0.5, False)):
            with pytest.raises(ValueError, match="non-negative integer"):
                make()


class TestValidation:
    def test_unphysical_gaussian_rejected(self):
        with pytest.raises(ValueError):
            Gaussian(FirstMoments(0, 0), CovarianceMatrix(0.3, 0.0, 0.3))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Fock(-1)
        with pytest.raises(ValueError):
            EvenOddCoherent(1.0, "both")
        with pytest.raises(ValueError):
            DisplacedFock(1.0, -2)


def _moment_arrays(state):
    d = _moment_data([state])
    return [d.shift, d.harmonics, d.covariance, *map(np.asarray, vars(d.husimi).values())]


class TestFock:
    """A Fock state is the displaced Fock state at alpha0 = 0, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_same_numbers_as_displaced_fock_at_zero(self, n):
        fock, ref = Fock(n), DisplacedFock(0.0, n)
        assert isinstance(fock, DisplacedFock)
        for got, want in zip(_moment_arrays(fock), _moment_arrays(ref), strict=True):
            assert np.array_equal(got, want)
        y = np.linspace(-5.0, 5.0, 101)
        for th in (0.0, 0.4, 2.0):
            assert np.array_equal(quadrature_pdf(fock, th, y), quadrature_pdf(ref, th, y))
        assert np.array_equal(husimi_pdf(fock, y, y[::-1]), husimi_pdf(ref, y, y[::-1]))
        for got, want in zip(sample_homodyne(fock, 3, 3_000, seed=7).samples,
                             sample_homodyne(ref, 3, 3_000, seed=7).samples, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(sample_heterodyne(fock, 2_000, seed=7).points,
                              sample_heterodyne(ref, 2_000, seed=7).points)

    def test_descriptor(self):
        assert state_to_kv(Fock(3)) == "family=fock n=3"
        assert state_from_kv(state_to_kv(Fock(3))) == Fock(3)
        assert Fock(3).n == 3

    @pytest.mark.parametrize("n", [-1, True, 2.0])
    def test_bad_photon_number(self, n):
        with pytest.raises(ValueError, match="photon number n"):
            Fock(n)
