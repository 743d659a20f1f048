import math
import re

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
    crb_grid,
    crb_report,
    find_crossover,
    fisher_hom_first,
    fisher_hom_second,
    gamma1,
    gamma2,
    gaussian_cov_from_shape,
    minimize_gamma2,
    scrb_het_first,
    scrb_het_second,
    scrb_hom_first,
    scrb_hom_second,
)
import mtlab.crb
from mtlab.crb import NumericalFailure, ScaledFisher
from mtlab.states import state_to_kv
from mtlab.oracle import numeric_fisher
from mtlab.special import hyp1f1
from conftest import random_gaussian, random_state

VACUUM = Gaussian(FirstMoments(0.0, 0.0), CovarianceMatrix(0.5, 0.0, 0.5))


def gaussian_from_shape(mu, lam, phi=0.0, x0=0.0, p0=0.0):
    return Gaussian(FirstMoments(x0, p0),
                    gaussian_cov_from_shape(GaussianShape(mu, lam, phi)))


class TestScaledFisher:
    def test_symmetry_tolerance(self):
        # |m - m.T| <= 1e-12 + 1e-10 |m.T|, entry by entry
        m = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
        tol = 1e-12 + 1e-10 * 0.3
        inside, outside = m.copy(), m.copy()
        inside[0, 1] += 0.9 * tol
        outside[0, 1] += 1.1 * tol
        assert ScaledFisher("second", inside).crb() > 0
        with pytest.raises(ValueError, match="symmetric"):
            ScaledFisher("second", outside)


class TestFirstMoment:
    def test_vacuum_fisher_is_identity(self):
        assert np.allclose(fisher_hom_first(VACUUM).matrix, np.eye(2), atol=1e-12)

    def test_fock_fisher(self):
        for n in (1, 4):
            f = fisher_hom_first(Fock(n)).matrix
            assert np.allclose(f, np.eye(2) / (2 * n + 1), atol=1e-12)

    def test_squeezed_closed_form(self):
        s = Gaussian(FirstMoments(0, 0), CovarianceMatrix(0.25, 0.0, 1.0))
        f = fisher_hom_first(s)
        assert f.crb() == pytest.approx(2.25, rel=1e-10)
        assert scrb_hom_first(s) == pytest.approx(2.25)

    def test_fisher_trace_inverse_matches_closed_form(self, rng):
        for _ in range(20):
            s = random_state(rng)
            assert fisher_hom_first(s).crb() == pytest.approx(scrb_hom_first(s), rel=1e-8)

    def test_fock_bounds(self):
        for n in (0, 1, 5):
            assert scrb_hom_first(Fock(n)) == pytest.approx(2 * (2 * n + 1), rel=1e-12)
            assert scrb_het_first(Fock(n)) == pytest.approx(2 * (n + 1), rel=1e-12)

    def test_even_coherent_closed_form(self):
        a0 = 0.9
        a = a0 ** 2
        b = a0 ** 2 * math.tanh(a0 ** 2) + 0.5
        expect = 2 * (b + math.sqrt(b * b - a * a))
        assert scrb_hom_first(EvenOddCoherent(a0, "even")) == pytest.approx(expect, rel=1e-10)

    def test_photon_added_het_closed_form(self):
        m, a0 = 2, 1.1
        z = a0 * a0
        f0 = hyp1f1(m + 1, 1, z)
        f1r = (m + 1) * hyp1f1(m + 2, 2, z) / f0
        f2r = (m + 1) * (m + 2) / 2 * hyp1f1(m + 3, 3, z) / f0
        # bound = 2 [a + (m+1) 1F1(m+2;2;z)/1F1(m+1;1;z)] with the anisotropy
        # a = z (f0 f'' - f'^2)/f0^2 written in derivative ratios
        a = z * (f2r - f1r ** 2)
        expect = 2 * (a + f1r)
        assert scrb_het_first(PhotonAddedCoherent(a0, m)) == pytest.approx(expect, rel=1e-10)

    def test_gamma1_values(self):
        assert gamma1(Fock(1)) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert gamma1(DisplacedFock(1.3, 0)) == pytest.approx(1.0, rel=1e-12)
        assert gamma1(VACUUM) == pytest.approx(1.0, rel=1e-12)

    def test_gamma1_never_exceeds_one(self, rng):
        for _ in range(500):
            s = random_state(rng)
            g1 = gamma1(s)
            assert g1 <= 1.0 + 1e-9
            from mtlab import covariance
            if abs(covariance(s).det - 0.25) < 1e-9:
                assert g1 == pytest.approx(1.0, abs=1e-8)

    def test_displaced_fock_matches_fock(self):
        for m in (0, 2):
            assert gamma1(DisplacedFock(1.5, m)) == pytest.approx(
                gamma1(Fock(m)), rel=1e-12)


class TestSecondMomentFisher:
    def test_fock_matrix(self):
        for n in (0, 1, 3):
            f = fisher_hom_second(Fock(n)).matrix
            expect = np.array([[3, 0, 1], [0, 2, 0], [1, 0, 3]]) / (4.0 * (n * n + n + 1))
            assert np.allclose(f, expect, atol=1e-13)

    def test_thermal_constant_variance(self):
        s = gaussian_from_shape(3.0, 1.0)
        from mtlab.states import quadrature_x2_variance

        v = quadrature_x2_variance(s, np.linspace(0, np.pi, 7))
        assert np.allclose(v, 4.5, atol=1e-12)  # mu^2/2
        assert scrb_hom_second(s) == pytest.approx(5 * 9.0, rel=1e-12)

    def test_noncentral_closed_vs_quadrature(self, rng):
        worst = 0.0
        for _ in range(100):
            s = random_gaussian(rng)
            fc = fisher_hom_second(s).matrix
            fq = numeric_fisher(s, "second")
            worst = max(worst, float(np.max(np.abs(fc - fq)) / np.max(np.abs(fq))))
        assert worst < 1e-8

    def test_closed_vs_quadrature_other_families(self, rng):
        for fam in (1, 2, 3):
            for _ in range(10):
                s = random_state(rng, family=fam)
                fc = fisher_hom_second(s).matrix
                fq = numeric_fisher(s, "second")
                assert np.max(np.abs(fc - fq)) < 1e-8 * np.max(np.abs(fq))

    def test_central_reduction(self, rng):
        # r0 = 0 puts the variance roots in coincident pairs
        for _ in range(20):
            s = random_gaussian(rng, central=True)
            fc = fisher_hom_second(s).matrix
            fq = numeric_fisher(s, "second")
            assert np.max(np.abs(fc - fq)) < 1e-8 * np.max(np.abs(fq))


class TestSecondMomentBounds:
    def test_fock_values(self):
        assert scrb_hom_second(Fock(1)) == pytest.approx(15.0, rel=1e-12)
        assert scrb_het_second(Fock(2)) == pytest.approx(30.0, rel=1e-12)
        assert scrb_het_second(VACUUM) == pytest.approx(6.0, rel=1e-12)

    def test_coherent_at_critical_displacement(self):
        s = DisplacedFock(math.sqrt(5.0 / 32.0), 0)
        assert scrb_hom_second(s) == pytest.approx(63.0 / 8.0, rel=1e-10)
        assert scrb_het_second(s) == pytest.approx(63.0 / 8.0, rel=1e-10)

    def test_coherent_hom_closed_form(self, rng):
        for a0 in (0.3, 1.0, 2.5):
            s = DisplacedFock(a0, 0)
            expect = 3 + 12 * a0 ** 2 + 2 * math.sqrt(1 + 8 * a0 ** 2)
            assert scrb_hom_second(s) == pytest.approx(expect, rel=1e-10)

    def test_displaced_fock_het_closed_form(self):
        # 2 (m+1)(m+3+6 a0^2); the Fock and coherent limits pin the constant
        for m, a0 in ((1, 1.0), (2, 0.5), (0, 1.2)):
            expect = 2 * (m + 1) * (m + 3 + 6 * a0 ** 2)
            assert scrb_het_second(DisplacedFock(a0, m)) == pytest.approx(expect, rel=1e-10)
        assert scrb_het_second(DisplacedFock(0.0, 3)) == pytest.approx(
            scrb_het_second(Fock(3)), rel=1e-12)
        # coherent alpha0 = 1: 2 (3 + 6 alpha0^2) = 18
        assert scrb_het_second(DisplacedFock(1.0, 0)) == pytest.approx(18.0, rel=1e-12)

    def test_even_odd_closed_forms(self):
        for parity, sgn in (("even", 1.0), ("odd", -1.0)):
            for a0 in (0.5, 1.3):
                a2 = a0 * a0
                t = math.tanh(a2) ** sgn
                cosh_like = math.exp(a2) + sgn * math.exp(-a2)
                m_pm = 0.5 + 2 * a2 * t + sgn * 4 * a2 * a2 / cosh_like ** 2
                l = 2 * a2
                hom = 6 * m_pm + 4 * math.sqrt(m_pm ** 2 - l * l)
                het = 6 + 12 * a2 * t + sgn * 8 * a2 * a2 / cosh_like ** 2
                s = EvenOddCoherent(a0, parity)
                assert scrb_hom_second(s) == pytest.approx(hom, rel=1e-10)
                assert scrb_het_second(s) == pytest.approx(het, rel=1e-10)

    def test_photon_added_small_amplitude_expansion(self):
        m, a0 = 1, 0.05
        approx = 5 * (m * m + m + 1) + 10 * a0 ** 2 * (m + 1) * (m + 2)
        assert scrb_hom_second(PhotonAddedCoherent(a0, m)) == pytest.approx(
            approx, abs=2e-3)

    def test_gamma2_values(self):
        assert gamma2(VACUUM) == pytest.approx(1.2, rel=1e-12)
        assert gamma2(Fock(1)) == pytest.approx(16.0 / 15.0, rel=1e-12)
        g2 = gamma2(Fock(400))
        assert abs(g2 - 0.4) < 0.01

    def test_rotation_invariance(self, rng):
        # both bounds (hence gamma2) depend only on the spectrum, not the
        # orientation of G or the phase of the displacement amplitude
        for _ in range(15):
            mu = float(np.exp(rng.uniform(0, 1.2)))
            lam = float(np.exp(rng.uniform(0.05, 1.0)))
            base = gaussian_from_shape(mu, lam, 0.0)
            h2h, h2e = scrb_hom_second(base), scrb_het_second(base)
            for phi in rng.uniform(0, np.pi, 3):
                s = gaussian_from_shape(mu, lam, float(phi))
                assert scrb_hom_second(s) == pytest.approx(h2h, rel=1e-9)
                assert scrb_het_second(s) == pytest.approx(h2e, rel=1e-9)
        for _ in range(10):
            a0 = rng.uniform(0.3, 1.5)
            for build in (lambda a: EvenOddCoherent(a, "odd"),
                          lambda a: DisplacedFock(a, 2),
                          lambda a: PhotonAddedCoherent(a, 1)):
                base = build(complex(a0))
                rot = build(complex(a0 * np.exp(1j * rng.uniform(0, 2 * np.pi))))
                assert scrb_hom_second(rot) == pytest.approx(
                    scrb_hom_second(base), rel=1e-9)
                assert scrb_het_second(rot) == pytest.approx(
                    scrb_het_second(base), rel=1e-9)

    def test_het_bound_from_gaussian_formula(self, rng):
        # var-combination route equals 2[(Tr S)^2 - det S + r0 S r0 + Tr S r0^2]
        for _ in range(20):
            s = random_gaussian(rng)
            ghet = s.g.as_array() + 0.5 * np.eye(2)
            r0 = s.r0.as_array()
            expect = 2 * (np.trace(ghet) ** 2 - np.linalg.det(ghet)
                          + r0 @ ghet @ r0 + np.trace(ghet) * (r0 @ r0))
            assert scrb_het_second(s) == pytest.approx(float(expect), rel=1e-10)


class TestSearches:
    def test_coherent_crossover(self):
        res = find_crossover("coherent")
        assert res.alpha0 == pytest.approx(math.sqrt(5.0 / 32.0), abs=1e-6)
        assert res.h2 == pytest.approx(63.0 / 8.0, abs=1e-5)

    def test_even_coherent_crossover(self):
        res = find_crossover("even_coherent")
        assert res.alpha0 == pytest.approx(0.6938846847993235, abs=1e-6)

    def test_displaced_fock_always_below(self):
        for m in (2, 5):
            res = find_crossover("displaced_fock", m=m)
            assert res.always_below_unity
            assert res.alpha0 is None

    def test_displaced_fock_m1_crossover(self):
        res = find_crossover("displaced_fock", m=1)
        expect = 0.5 * math.sqrt(19.0 / 3.0 - 2.0 * math.sqrt(87.0) / 3.0)
        assert res.alpha0 == pytest.approx(expect, abs=1e-6)

    def test_photon_added_m1_crossover(self):
        res = find_crossover("photon_added", m=1)
        assert res.alpha0 == pytest.approx(0.2001, abs=1e-3)

    def test_even_minimum(self):
        a0, g2 = minimize_gamma2("even_coherent")
        assert a0 == pytest.approx(1.1488776, abs=1e-4)
        assert g2 == pytest.approx(0.77096017, abs=1e-7)

    def test_odd_minimum(self):
        a0, g2 = minimize_gamma2("odd_coherent")
        assert a0 == pytest.approx(1.9804383, abs=1e-4)
        assert g2 == pytest.approx(0.86796197, abs=1e-7)

    def test_photon_added_m0_analytic_minimum(self):
        a0, g2 = minimize_gamma2("photon_added", m=0)
        assert a0 == pytest.approx(math.sqrt(13 + 3 * math.sqrt(21)) / 4, abs=1e-4)
        assert g2 == pytest.approx(3 * (6 - math.sqrt(21)) / 5, abs=1e-6)

    def test_even_odd_curves_cross(self):
        # gamma2 curves for the two parities intersect near alpha0 = 0.631
        from scipy.optimize import brentq

        f = lambda a: (gamma2(EvenOddCoherent(a, "even"))
                       - gamma2(EvenOddCoherent(a, "odd")))
        root = brentq(f, 0.4, 0.9, xtol=1e-10)
        assert root == pytest.approx(0.631, abs=0.01)

    def test_displaced_large_amplitude_asymptote(self):
        # exact closed forms put the m=9,10 deviations at ~0.0105-0.0109,
        # so the attainable 0.01 window at alpha0 = 50 ends near m = 8
        for m in (1, 3, 5, 8):
            expect = (m + 1) / (2 * m + 1)
            assert abs(gamma2(DisplacedFock(50.0, m)) - expect) < 0.01
        assert abs(gamma2(DisplacedFock(120.0, 10)) - 11.0 / 21.0) < 0.01

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            find_crossover("bogus")
        with pytest.raises(ValueError):
            find_crossover("displaced_fock")  # missing m

    def test_no_sign_change_raises(self):
        with pytest.raises(NumericalFailure):
            find_crossover("coherent", bracket=(0.0, 0.1))


class TestReport:
    def test_report_fields(self):
        s = PhotonAddedCoherent(0.7, 1)
        assert fisher_hom_second(s).matrix.shape == (3, 3)
        rep = crb_report(s)
        assert rep.gamma2 == pytest.approx(rep.h2_het / rep.h2_hom)

    @pytest.mark.parametrize("r0, lam", [((1e-3, 3e-4), 1.001), ((1e-2, 3e-3), 1.01)])
    def test_near_isotropic_displaced_gaussian(self, r0, lam):
        # small r0 and lam -> 1 bring the roots of Var(X_theta^2) together
        s = gaussian_from_shape(1.7, lam, 0.4, *r0)
        expect = np.trace(np.linalg.inv(numeric_fisher(s, "second")))
        assert crb_report(s).h2_hom == pytest.approx(expect, rel=1e-10)


def _near_degenerate_states():
    out = []
    for a0 in (1e-6, 1e-4, 1e-2, 0.05):
        for m in (0, 1, 4, 8):
            out += [DisplacedFock(a0, m), PhotonAddedCoherent(a0, m)]
        out += [EvenOddCoherent(a0, "even"), EvenOddCoherent(a0, "odd"),
                gaussian_from_shape(1.7, 1.0 + a0, 0.4, a0, 0.3 * a0)]
    for a0 in (3.0, 6.0):
        out += [EvenOddCoherent(a0, "even"), EvenOddCoherent(a0, "odd"),
                DisplacedFock(a0, 3), PhotonAddedCoherent(a0, 4)]
    out += [gaussian_from_shape(1.3, lam, 0.7) for lam in (3.0, 10.0)]
    return out


class TestHomodyneFisherRoute:
    def test_near_degenerate_limits_match_oracle(self):
        # small amplitude, rotation symmetry, large m and large |alpha0|
        for s in _near_degenerate_states():
            fo = numeric_fisher(s, "second")
            f = fisher_hom_second(s).matrix
            assert np.max(np.abs(f - fo)) <= 1e-12 * np.max(np.abs(fo)), s

    def test_harmonics_beyond_4theta_raise(self, monkeypatch):
        base = mtlab.crb._x2_variance
        monkeypatch.setattr(mtlab.crb, "_x2_variance",
                            lambda h, th: base(h, th) + 0.1 * np.cos(6 * th))
        with pytest.raises(NumericalFailure):
            fisher_hom_second(Fock(1))

    @pytest.mark.parametrize("var", [
        lambda th: 0.5 + np.cos(2 * th),        # changes sign
        lambda th: 1.0 + np.cos(2 * th - 0.2),  # touches zero off the nodes
    ])
    def test_variance_with_zero_raises(self, monkeypatch, var):
        monkeypatch.setattr(mtlab.crb, "_x2_variance",
                            lambda h, th: var(np.asarray(th))[None])
        with pytest.raises(NumericalFailure):
            fisher_hom_second(Fock(1))


def _mixed_grid(per_family=60, seed=7):
    """per_family random draws of each family, interleaved: the grid spans several blocks."""
    rng = np.random.default_rng(seed)
    return [random_state(rng, family=f) for _ in range(per_family) for f in range(5)]


class TestGrid:
    def test_grid_equals_grid_of_one(self):
        states = _mixed_grid()
        assert len(states) > 3 * mtlab.crb._BLOCK
        grid = crb_grid(states)
        for k, s in enumerate(states):
            one = crb_report(s)
            for name, value in vars(one).items():
                assert getattr(grid, name)[k] == pytest.approx(value, rel=1e-14, abs=0), (s, name)
            assert gamma2(s) == pytest.approx(grid.gamma2[k], rel=1e-14, abs=0)

    def test_grid_fisher_matches_oracle(self):
        states = _mixed_grid()
        fisher = mtlab.crb._grid(states)[0]
        for k in range(0, len(states), 15):
            fq = numeric_fisher(states[k], "second")
            assert np.max(np.abs(fisher[k] - fq)) < 1e-8 * np.max(np.abs(fq)), states[k]

    @pytest.mark.parametrize("bad_var", [
        lambda var, th: var + 0.1 * np.cos(6 * th),  # harmonic beyond 4 theta
        lambda var, th: -var,                          # negative variance
    ])
    def test_one_bad_state_in_second_block_raises_naming_it(self, monkeypatch, bad_var):
        states = _mixed_grid(per_family=20)
        bad = DisplacedFock(0.321 + 0.123j, 2)
        states[mtlab.crb._BLOCK + 5] = bad
        target = bad._moments.harmonics[0]
        base = mtlab.crb._x2_variance

        def patched(h, th):
            out = base(h, th)
            rows = np.all(h == target, axis=(1, 2))
            out[rows] = bad_var(out[rows], np.asarray(th))
            return out

        monkeypatch.setattr(mtlab.crb, "_x2_variance", patched)
        with pytest.raises(NumericalFailure, match=re.escape(state_to_kv(bad))):
            crb_grid(states)
