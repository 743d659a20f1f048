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
    gaussian_cov_from_shape,
    minimize_gamma2,
    minimize_gamma2_grid,
)
import mtlab.crb
from mtlab.crb import NumericalFailure
from mtlab.states import state_from_kv, state_to_kv
from mtlab.oracle import hyp1f1, numeric_fisher
from conftest import FULL, fisher_entries, fisher_matrices, random_gaussian, random_state

VACUUM = Gaussian(FirstMoments(0.0, 0.0), CovarianceMatrix(0.5, 0.0, 0.5))

#: descriptors whose state prints under another family
CANONICAL = {"family=coherent alpha0={}": "family=displaced_fock alpha0={} m=0"}


def gaussian_from_shape(mu, lam, phi=0.0, x0=0.0, p0=0.0):
    return Gaussian(FirstMoments(x0, p0),
                    gaussian_cov_from_shape(GaussianShape(mu, lam, phi)))


def fisher_second(s):
    """The scaled 3x3 second-moment homodyne Fisher matrix of one state."""
    return fisher_matrices([s])[0]


def trace_inv(f):
    return float(np.trace(np.linalg.inv(f)))


def six_entries(m):
    """The six distinct entries (F00, F01, F02, F11, F12, F22) of a symmetric 3x3 matrix."""
    return m[np.triu_indices(3)]


class TestFisherCheck:
    def test_not_positive_definite_raises_naming_the_state(self):
        good = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
        indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # eigenvalue -1
        # F00 > 0 and F00 F11 - F01^2 = 1 > 0, but det = -1: only the determinant rejects it
        det_only = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert np.linalg.det(det_only) < 0 < np.linalg.det(det_only[:2, :2])
        states = [Fock(0), Fock(1)]
        h2 = mtlab.crb._h2_hom(states, np.stack([six_entries(good)] * 2))
        assert h2 == pytest.approx([trace_inv(good)] * 2, rel=1e-15)
        for bad in (indefinite, det_only):
            with pytest.raises(NumericalFailure,
                               match="not positive definite: " + state_to_kv(Fock(1))):
                mtlab.crb._h2_hom(states, np.stack([six_entries(good), six_entries(bad)]))


class TestFirstMoment:
    # the first-moment Fisher matrix is (G + sqrt(det G) I)^-1; crb keeps only
    # the trace of its inverse, h1_hom, so the matrix comes from the oracle
    def test_vacuum_fisher_is_identity(self):
        f = numeric_fisher(VACUUM, "first")
        assert np.allclose(f, np.eye(2), atol=1e-12)
        assert crb_report(VACUUM).h1_hom == pytest.approx(trace_inv(f), rel=1e-12)

    def test_fock_fisher(self):
        for n in (1, 4):
            f = numeric_fisher(Fock(n), "first")
            assert np.allclose(f, np.eye(2) / (2 * n + 1), atol=1e-12)
            assert crb_report(Fock(n)).h1_hom == pytest.approx(trace_inv(f), rel=1e-12)

    def test_squeezed_closed_form(self):
        s = Gaussian(FirstMoments(0, 0), CovarianceMatrix(0.25, 0.0, 1.0))
        assert trace_inv(numeric_fisher(s, "first")) == pytest.approx(2.25, rel=1e-10)
        assert crb_report(s).h1_hom == pytest.approx(2.25)

    def test_fisher_trace_inverse_matches_closed_form(self, rng):
        for _ in range(20):
            s = random_state(rng)
            assert trace_inv(numeric_fisher(s, "first")) == pytest.approx(
                crb_report(s).h1_hom, rel=1e-8)

    def test_fock_bounds(self):
        for n in (0, 1, 5):
            rep = crb_report(Fock(n))
            assert rep.h1_hom == pytest.approx(2 * (2 * n + 1), rel=1e-12)
            assert rep.h1_het == pytest.approx(2 * (n + 1), rel=1e-12)

    def test_even_coherent_closed_form(self):
        a0 = 0.9
        a = a0 ** 2
        b = a0 ** 2 * math.tanh(a0 ** 2) + 0.5
        expect = 2 * (b + math.sqrt(b * b - a * a))
        assert crb_report(EvenOddCoherent(a0, "even")).h1_hom == pytest.approx(expect, rel=1e-10)

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
        assert crb_report(PhotonAddedCoherent(a0, m)).h1_het == pytest.approx(expect, rel=1e-10)

    def test_gamma1_values(self):
        assert crb_report(Fock(1)).gamma1 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert crb_report(DisplacedFock(1.3, 0)).gamma1 == pytest.approx(1.0, rel=1e-12)
        assert crb_report(VACUUM).gamma1 == pytest.approx(1.0, rel=1e-12)

    def test_gamma1_never_exceeds_one(self, rng):
        for _ in range(500):
            s = random_state(rng)
            g1 = crb_report(s).gamma1
            assert g1 <= 1.0 + 1e-9
            from mtlab import covariance
            if abs(covariance(s).det - 0.25) < 1e-9:
                assert g1 == pytest.approx(1.0, abs=1e-8)

    def test_displaced_fock_matches_fock(self):
        for m in (0, 2):
            assert crb_report(DisplacedFock(1.5, m)).gamma1 == pytest.approx(
                crb_report(Fock(m)).gamma1, rel=1e-12)


class TestSecondMomentFisher:
    def test_fock_matrix(self):
        for n in (0, 1, 3):
            f = fisher_second(Fock(n))
            expect = np.array([[3, 0, 1], [0, 2, 0], [1, 0, 3]]) / (4.0 * (n * n + n + 1))
            assert np.allclose(f, expect, atol=1e-13)

    def test_thermal_constant_variance(self):
        s = gaussian_from_shape(3.0, 1.0)
        from mtlab.states import quadrature_x2_variance

        v = quadrature_x2_variance(s, np.linspace(0, np.pi, 7))
        assert np.allclose(v, 4.5, atol=1e-12)  # mu^2/2
        assert crb_report(s).h2_hom == pytest.approx(5 * 9.0, rel=1e-12)

    def test_noncentral_closed_vs_quadrature(self, rng):
        worst = 0.0
        for _ in range(100):
            s = random_gaussian(rng)
            fc = fisher_second(s)
            fq = numeric_fisher(s, "second")
            worst = max(worst, float(np.max(np.abs(fc - fq)) / np.max(np.abs(fq))))
        assert worst < 1e-8

    def test_closed_vs_quadrature_other_families(self, rng):
        for fam in (1, 2, 3):
            for _ in range(10):
                s = random_state(rng, family=fam)
                fc = fisher_second(s)
                fq = numeric_fisher(s, "second")
                assert np.max(np.abs(fc - fq)) < 1e-8 * np.max(np.abs(fq))

    def test_central_reduction(self, rng):
        # r0 = 0 puts the variance roots in coincident pairs
        for _ in range(20):
            s = random_gaussian(rng, central=True)
            fc = fisher_second(s)
            fq = numeric_fisher(s, "second")
            assert np.max(np.abs(fc - fq)) < 1e-8 * np.max(np.abs(fq))


class TestSecondMomentBounds:
    def test_fock_values(self):
        assert crb_report(Fock(1)).h2_hom == pytest.approx(15.0, rel=1e-12)
        assert crb_report(Fock(2)).h2_het == pytest.approx(30.0, rel=1e-12)
        assert crb_report(VACUUM).h2_het == pytest.approx(6.0, rel=1e-12)

    def test_coherent_at_critical_displacement(self):
        rep = crb_report(DisplacedFock(math.sqrt(5.0 / 32.0), 0))
        assert rep.h2_hom == pytest.approx(63.0 / 8.0, rel=1e-10)
        assert rep.h2_het == pytest.approx(63.0 / 8.0, rel=1e-10)

    def test_coherent_hom_closed_form(self, rng):
        for a0 in (0.3, 1.0, 2.5):
            s = DisplacedFock(a0, 0)
            expect = 3 + 12 * a0 ** 2 + 2 * math.sqrt(1 + 8 * a0 ** 2)
            assert crb_report(s).h2_hom == pytest.approx(expect, rel=1e-10)

    def test_displaced_fock_het_closed_form(self):
        # 2 (m+1)(m+3+6 a0^2); the Fock and coherent limits pin the constant
        for m, a0 in ((1, 1.0), (2, 0.5), (0, 1.2)):
            expect = 2 * (m + 1) * (m + 3 + 6 * a0 ** 2)
            assert crb_report(DisplacedFock(a0, m)).h2_het == pytest.approx(expect, rel=1e-10)
        assert crb_report(DisplacedFock(0.0, 3)).h2_het == pytest.approx(
            crb_report(Fock(3)).h2_het, rel=1e-12)
        # coherent alpha0 = 1: 2 (3 + 6 alpha0^2) = 18
        assert crb_report(DisplacedFock(1.0, 0)).h2_het == pytest.approx(18.0, rel=1e-12)

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
                rep = crb_report(EvenOddCoherent(a0, parity))
                assert rep.h2_hom == pytest.approx(hom, rel=1e-10)
                assert rep.h2_het == pytest.approx(het, rel=1e-10)

    def test_photon_added_small_amplitude_expansion(self):
        m, a0 = 1, 0.05
        approx = 5 * (m * m + m + 1) + 10 * a0 ** 2 * (m + 1) * (m + 2)
        assert crb_report(PhotonAddedCoherent(a0, m)).h2_hom == pytest.approx(
            approx, abs=2e-3)

    def test_gamma2_values(self):
        assert crb_report(VACUUM).gamma2 == pytest.approx(1.2, rel=1e-12)
        assert crb_report(Fock(1)).gamma2 == pytest.approx(16.0 / 15.0, rel=1e-12)
        g2 = crb_report(Fock(400)).gamma2
        assert abs(g2 - 0.4) < 0.01

    def test_rotation_invariance(self, rng):
        # both bounds (hence gamma2) depend only on the spectrum, not the
        # orientation of G or the phase of the displacement amplitude
        for _ in range(15):
            mu = float(np.exp(rng.uniform(0, 1.2)))
            lam = float(np.exp(rng.uniform(0.05, 1.0)))
            base = crb_report(gaussian_from_shape(mu, lam, 0.0))
            for phi in rng.uniform(0, np.pi, 3):
                rep = crb_report(gaussian_from_shape(mu, lam, float(phi)))
                assert rep.h2_hom == pytest.approx(base.h2_hom, rel=1e-9)
                assert rep.h2_het == pytest.approx(base.h2_het, rel=1e-9)
        for _ in range(10):
            a0 = rng.uniform(0.3, 1.5)
            for build in (lambda a: EvenOddCoherent(a, "odd"),
                          lambda a: DisplacedFock(a, 2),
                          lambda a: PhotonAddedCoherent(a, 1)):
                base = crb_report(build(complex(a0)))
                rot = crb_report(build(complex(a0 * np.exp(1j * rng.uniform(0, 2 * np.pi)))))
                assert rot.h2_hom == pytest.approx(base.h2_hom, rel=1e-9)
                assert rot.h2_het == pytest.approx(base.h2_het, rel=1e-9)

    def test_het_bound_from_gaussian_formula(self, rng):
        # var-combination route equals 2[(Tr S)^2 - det S + r0 S r0 + Tr S r0^2]
        for _ in range(20):
            s = random_gaussian(rng)
            ghet = s.g.as_array() + 0.5 * np.eye(2)
            r0 = s.r0.as_array()
            expect = 2 * (np.trace(ghet) ** 2 - np.linalg.det(ghet)
                          + r0 @ ghet @ r0 + np.trace(ghet) * (r0 @ r0))
            assert crb_report(s).h2_het == pytest.approx(float(expect), rel=1e-10)


class TestSearches:
    def test_coherent_crossover(self):
        a0, h2 = find_crossover("coherent")
        assert a0 == pytest.approx(math.sqrt(5.0 / 32.0), abs=1e-6)
        assert h2 == pytest.approx(63.0 / 8.0, abs=1e-5)

    def test_even_coherent_crossover(self):
        a0, _ = find_crossover("even_coherent")
        assert a0 == pytest.approx(0.6938846847993235, abs=1e-6)

    def test_displaced_fock_always_below(self):
        for m in (2, 5):
            assert find_crossover("displaced_fock", m=m) is None

    def test_displaced_fock_m1_crossover(self):
        a0, _ = find_crossover("displaced_fock", m=1)
        expect = 0.5 * math.sqrt(19.0 / 3.0 - 2.0 * math.sqrt(87.0) / 3.0)
        assert a0 == pytest.approx(expect, abs=1e-6)

    def test_photon_added_m1_crossover(self):
        a0, _ = find_crossover("photon_added", m=1)
        assert a0 == pytest.approx(0.2001, abs=1e-3)

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

        f = lambda a: (crb_report(EvenOddCoherent(a, "even")).gamma2
                       - crb_report(EvenOddCoherent(a, "odd")).gamma2)
        root = brentq(f, 0.4, 0.9, xtol=1e-10)
        assert root == pytest.approx(0.631, abs=0.01)

    def test_displaced_large_amplitude_asymptote(self):
        # exact closed forms put the m=9,10 deviations at ~0.0105-0.0109,
        # so the attainable 0.01 window at alpha0 = 50 ends near m = 8
        for m in (1, 3, 5, 8):
            expect = (m + 1) / (2 * m + 1)
            assert abs(crb_report(DisplacedFock(50.0, m)).gamma2 - expect) < 0.01
        assert abs(crb_report(DisplacedFock(120.0, 10)).gamma2 - 11.0 / 21.0) < 0.01

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            find_crossover("bogus")
        with pytest.raises(ValueError):
            find_crossover("displaced_fock")  # missing m
        for family in ("coherent", "even_coherent", "odd_coherent"):
            with pytest.raises(ValueError, match="takes no parameter m"):
                find_crossover(family, m=3)

    @pytest.mark.parametrize("family, m, kv", [
        ("coherent", None, "family=coherent alpha0={}"),
        ("coherent", None, "family=displaced_fock alpha0={} m=0"),
        ("even_coherent", None, "family=even_coherent alpha0={}"),
        ("odd_coherent", None, "family=odd_coherent alpha0={}"),
        ("displaced_fock", 0, "family=displaced_fock alpha0={} m=0"),
        ("displaced_fock", 3, "family=displaced_fock alpha0={} m=3"),
        ("photon_added", 1, "family=photon_added alpha0={} m=1"),
        ("photon_added", 4, "family=photon_added alpha0={} m=4"),
    ])
    def test_search_families_build_the_descriptor_states(self, family, m, kv):
        build = mtlab.crb._family_builder(family, m, None, 1e-8)
        for a0 in (0.0, 0.35, 2.5):
            state = build(a0)
            assert state == state_from_kv(kv.format(a0))
            # a coherent state's canonical descriptor is the displaced Fock state at m = 0
            assert state_to_kv(state) == CANONICAL.get(kv, kv).format(a0)

    def test_no_sign_change_raises(self):
        with pytest.raises(NumericalFailure):
            find_crossover("coherent", bracket_hi=0.1)

    def test_tol_below_float_spacing_returns(self, monkeypatch):
        # once the bracket is down to adjacent floats the next point rounds
        # onto an end, and the search stops there; a stalled loop would run
        # past the round cap
        rounds = []
        grid = mtlab.crb.crb_grid

        def capped(states):
            rounds.append(None)
            assert len(rounds) < 500, "search stalled"
            return grid(states)

        root, _ = find_crossover("coherent")
        expect = minimize_gamma2("even_coherent")
        monkeypatch.setattr(mtlab.crb, "crb_grid", capped)
        a0, h2 = find_crossover("coherent", tol=1e-300)
        assert abs(a0 - root) < 1e-6
        assert h2 == pytest.approx(63.0 / 8.0, rel=1e-12)  # h2_het at sqrt(5/32)
        assert np.allclose(minimize_gamma2("even_coherent", tol=1e-300), expect,
                           rtol=0.0, atol=1e-6)


class TestReport:
    def test_report_fields(self):
        s = PhotonAddedCoherent(0.7, 1)
        assert fisher_second(s).shape == (3, 3)
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
            f = fisher_second(s)
            assert np.max(np.abs(f - fo)) <= 1e-12 * np.max(np.abs(fo)), s

    def test_h2_hom_matches_mpmath_trace_inverse(self):
        # Tr F^-1 from cofactors in double precision against a 40-digit
        # inverse of the same six entries, small to large amplitudes
        import mpmath

        states = _near_degenerate_states()
        for a0 in (0.5, 2.0, 5.0, 10.0, 20.0, 20.0 * np.exp(0.7j)):
            states += [DisplacedFock(a0, 2), PhotonAddedCoherent(a0, 3),
                       EvenOddCoherent(a0, "even"), EvenOddCoherent(a0, "odd")]
        states += [EvenOddCoherent(1e-3, "even"), EvenOddCoherent(1e-3, "odd")]
        h2 = crb_grid(states).h2_hom
        with mpmath.workdps(40):
            for s, f, value in zip(states, fisher_entries(states), h2.tolist()):
                inv = mpmath.matrix(f[FULL].reshape(3, 3).tolist()) ** -1
                exact = inv[0, 0] + inv[1, 1] + inv[2, 2]
                assert abs(value - exact) <= 1e-14 * abs(exact), s

    def test_harmonics_beyond_4theta_raise(self, monkeypatch):
        base = mtlab.crb._x2_variance
        monkeypatch.setattr(mtlab.crb, "_x2_variance",
                            lambda h, th: base(h, th) + 0.1 * np.cos(6 * th))
        with pytest.raises(NumericalFailure):
            crb_report(Fock(1))

    def test_nested_levels_check_every_node(self):
        # Var = 1 - (1 + eps) cos(4 (theta - pi/64)) is positive at the 32
        # first-level nodes k pi/32 and negative at pi/64, a node that only
        # level 64 adds
        eps = 0.01
        c = np.array([[1.0, 0.0, -0.5 * (1.0 + eps) * np.exp(-1j * math.pi / 16)]])
        theta = np.arange(64) * (math.pi / 64)
        var = 1.0 - (1.0 + eps) * np.cos(4.0 * (theta - math.pi / 64))
        assert (var[::2] > 0).all() and var[1] < 0
        with pytest.raises(NumericalFailure, match="vanishing moment variance in the Fisher "
                           "integrand: " + re.escape(state_to_kv(Fock(2)))):
            mtlab.crb._trapezoid([Fock(2)], c)

    @pytest.mark.parametrize("var", [
        lambda th: 0.5 + np.cos(2 * th),        # changes sign
        lambda th: 1.0 + np.cos(2 * th - 0.2),  # touches zero off the nodes
    ])
    def test_variance_with_zero_raises(self, monkeypatch, var):
        monkeypatch.setattr(mtlab.crb, "_x2_variance",
                            lambda h, th: var(np.asarray(th))[None])
        with pytest.raises(NumericalFailure):
            crb_report(Fock(1))


def _mixed_grid(per_family=60, seed=7):
    """per_family random draws of each family, interleaved: the grid spans several blocks."""
    rng = np.random.default_rng(seed)
    return [random_state(rng, family=f) for _ in range(per_family) for f in range(5)]


def _stacked_grid(seed=11):
    """A shuffled grid over more than three blocks: random draws of every
    family, and photon-added states at m = 0..12 with alpha0 = 0 (only
    c_m = 1 survives), |alpha0| = 20 and amplitudes in between, so that
    blocks stack photon-added states of many m."""
    rng = np.random.default_rng(seed)
    states = _mixed_grid(per_family=140, seed=seed)
    for m in range(13):
        for a0 in (0.0, 20.0, -20j, 20.0 * np.exp(0.7j), 1e-3, rng.uniform(0.1, 3.0)):
            states.append(PhotonAddedCoherent(complex(a0), m))
    rng.shuffle(states)
    return states


class TestGrid:
    def test_grid_equals_grid_of_one(self):
        states = _stacked_grid()
        assert len(states) > 3 * mtlab.crb._BLOCK
        grid = crb_grid(states)
        for k, s in enumerate(states):
            one = crb_report(s)
            for name, value in vars(one).items():
                assert getattr(grid, name)[k] == value, (s, name)

    def test_grid_fisher_matches_oracle(self):
        states = _mixed_grid()
        fisher = fisher_matrices(states)
        for k in range(0, len(states), 15):
            fq = numeric_fisher(states[k], "second")
            assert np.max(np.abs(fisher[k] - fq)) < 1e-8 * np.max(np.abs(fq)), states[k]

    @pytest.mark.parametrize("bad_var", [
        lambda var, th: var + 0.1 * np.cos(6 * th),  # harmonic beyond 4 theta
        lambda var, th: -var,                          # negative variance
    ])
    def test_one_bad_state_in_second_block_raises_naming_it(self, monkeypatch, bad_var):
        states = _mixed_grid(per_family=60)
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


_SEARCH_STATES = {
    "coherent": lambda a0, m: DisplacedFock(a0, 0),
    "displaced_fock": lambda a0, m: DisplacedFock(a0, m),
    "photon_added": lambda a0, m: PhotonAddedCoherent(a0, m),
    "even_coherent": lambda a0, m: EvenOddCoherent(a0, "even"),
    "odd_coherent": lambda a0, m: EvenOddCoherent(a0, "odd"),
}


def scalar_golden_minimum(family, m, bracket_hi=None, tol=1e-6):
    """Reference search: a 65-point scan and a golden section over alpha0,
    gamma2 evaluated one state at a time."""
    def g2(a0):
        return crb_report(_SEARCH_STATES[family](float(a0), m)).gamma2

    if bracket_hi is None:
        bracket_hi = max(5.0, 3.0 * math.sqrt(m)) if m else 5.0
    grid = np.linspace(0.0, bracket_hi, 65)
    k = int(np.argmin([g2(a) for a in grid]))
    lo, hi = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
    f1, f2 = g2(x1), g2(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = g2(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = g2(x2)
    xmin = 0.5 * (lo + hi)
    return xmin, g2(xmin)


def scalar_minimum(family, m, bracket_hi=None, tol=1e-6):
    """Reference of the lockstep search: a 65-point scan, then 15 evenly
    spaced interior points per step, keeping the neighbours of the lowest;
    gamma2 evaluated one state at a time."""
    def g2(a0):
        return crb_report(_SEARCH_STATES[family](float(a0), m)).gamma2

    if bracket_hi is None:
        bracket_hi = max(5.0, 3.0 * math.sqrt(m)) if m else 5.0
    grid = np.linspace(0.0, bracket_hi, 65)
    k = int(np.argmin([g2(a) for a in grid]))
    lo, hi = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
    while hi - lo > tol:
        x = np.linspace(lo, hi, 17)
        if x[1] == lo or x[-2] == hi:  # the bracket is down to adjacent floats
            break
        k = 1 + int(np.argmin([g2(a) for a in x[1:-1]]))
        lo, hi = x[k - 1], x[k + 1]
    xmin = 0.5 * (lo + hi)
    return xmin, g2(xmin)


_MIXED_JOBS = [(f, m) for f in ("displaced_fock", "photon_added") for m in (0, 5, 12)]
_MIXED_JOBS.append(("even_coherent", None))

# search inputs that would give a wrong number, a hang or a traceback
_BAD_SEARCH_KWARGS = [{"bracket_hi": 0.0}, {"bracket_hi": -1.0}, {"bracket_hi": math.nan},
                      {"tol": 0.0}, {"tol": math.nan}]


def _id(kwargs):
    (key, value), = kwargs.items()
    return f"{key}={value}"


def _never_evaluated(states):
    raise AssertionError("evaluated before the inputs were checked")


class TestLockstepSearch:
    @pytest.mark.parametrize("kwargs", [{}, {"bracket_hi": 6.0, "tol": 1e-9}])
    def test_equals_scalar_minimum_search(self, kwargs):
        expect = [scalar_minimum(f, m, **kwargs) for f, m in _MIXED_JOBS]
        assert minimize_gamma2_grid(_MIXED_JOBS, **kwargs) == expect
        assert [minimize_gamma2(f, m, **kwargs) for f, m in _MIXED_JOBS] == expect

    def test_close_to_golden_section(self):
        # an independent search finds the same minima; at the default tol,
        # not below it, where gamma2 is flat to rounding over more than tol
        tol = 1e-6
        for (f, m), (a0, g2) in zip(_MIXED_JOBS, minimize_gamma2_grid(_MIXED_JOBS, tol=tol)):
            ref_a0, ref_g2 = scalar_golden_minimum(f, m, tol=tol)
            assert abs(a0 - ref_a0) <= 2 * tol, (f, m)
            assert g2 == pytest.approx(ref_g2, rel=1e-10, abs=0.0), (f, m)

    def test_one_grid_call_per_round(self, monkeypatch):
        # the m = 12 brackets are wider, so those searches take more steps;
        # the lockstep run takes as many crb_grid calls as its longest search
        sizes = []
        grid = mtlab.crb.crb_grid

        def counted(states):
            sizes.append(len(states))
            return grid(states)

        monkeypatch.setattr(mtlab.crb, "crb_grid", counted)
        rounds = []
        for job in _MIXED_JOBS:
            sizes.clear()
            minimize_gamma2_grid([job])
            rounds.append(len(sizes))
        sizes.clear()
        minimize_gamma2_grid(_MIXED_JOBS)
        assert len(set(rounds)) > 1
        assert rounds[_MIXED_JOBS.index(("even_coherent", None))] <= 10  # golden section: 28
        assert len(sizes) == max(rounds)
        assert sizes[0] == 65 * len(_MIXED_JOBS)
        assert sizes[1] == 15 * len(_MIXED_JOBS)

    @pytest.mark.parametrize("jobs, kwargs", [
        *(pytest.param(jobs, {}, id=f"jobs{i}") for i, jobs in enumerate([
            [("displaced_fock", 1), ("bogus", None)],
            [("even_coherent", None), ("photon_added", None)],  # missing m
            [("displaced_fock", 1), ("displaced_fock", -1)],
            [("displaced_fock", 1), ("even_coherent", 0)],  # m for a family without one
        ])),
        *(pytest.param(_MIXED_JOBS, kwargs, id=_id(kwargs)) for kwargs in _BAD_SEARCH_KWARGS),
    ])
    def test_bad_job_raises_before_any_evaluation(self, monkeypatch, jobs, kwargs):
        monkeypatch.setattr(mtlab.crb, "crb_grid", _never_evaluated)
        # a bad bracket_hi or tol is named, not found by a state that rejects it
        with pytest.raises(ValueError, match=next(iter(kwargs), None)):
            minimize_gamma2_grid(jobs, **kwargs)


def scalar_crossover(family, m, tol=1e-6):
    """Reference crossover: gamma2 = 1 over alpha0 in [0, 20], 15 evenly
    spaced interior points per step, keeping the first interval over which
    gamma2 - 1 falls to <= 0; gamma2 evaluated one state at a time.  Returns
    (alpha0, h2_het there)."""
    def g2(a0):
        return crb_report(_SEARCH_STATES[family](float(a0), m)).gamma2

    lo, hi = 0.0, 20.0
    assert g2(lo) > 1.0 and g2(hi) <= 1.0
    while hi - lo > tol:
        x = np.linspace(lo, hi, 17)
        if x[1] == lo or x[-2] == hi:  # the bracket is down to adjacent floats
            break
        k = 1
        while k < 16 and g2(x[k]) > 1.0:
            k += 1
        lo, hi = x[k - 1], x[k]
    root = float(0.5 * (lo + hi))
    return root, crb_report(_SEARCH_STATES[family](root, m)).h2_het


_CROSSOVER_JOBS = [("coherent", None), ("even_coherent", None), ("odd_coherent", None),
                   ("displaced_fock", 1)]


class TestCrossoverSearch:
    @pytest.mark.parametrize("kwargs", [{}, {"tol": 1e-9}, {"tol": 1e-300}])
    def test_equals_scalar_bisection(self, kwargs):
        for family, m in _CROSSOVER_JOBS:
            got = find_crossover(family, m, **kwargs)
            assert got == scalar_crossover(family, m, **kwargs), family

    def test_sign_change_within_tol_of_root(self):
        tol = 1e-6
        for family, m in _CROSSOVER_JOBS:
            root, _ = find_crossover(family, m, tol=tol)
            left, right = crb_grid([_SEARCH_STATES[family](a0, m)
                                    for a0 in (root - tol, root + tol)]).gamma2 - 1.0
            assert left > 0.0 >= right, family

    @pytest.mark.parametrize("kwargs", _BAD_SEARCH_KWARGS + [{"bracket_hi": math.inf}], ids=_id)
    def test_bad_input_raises_before_any_evaluation(self, monkeypatch, kwargs):
        monkeypatch.setattr(mtlab.crb, "crb_grid", _never_evaluated)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            find_crossover("coherent", **kwargs)

    def test_grid_calls(self, monkeypatch):
        sizes = []
        grid = mtlab.crb.crb_grid

        def counted(states):
            sizes.append(len(states))
            return grid(states)

        monkeypatch.setattr(mtlab.crb, "crb_grid", counted)
        assert find_crossover("displaced_fock", 2) is None
        assert sizes == [1]  # gamma2 at alpha0 = 0 only
        sizes.clear()
        find_crossover("coherent")
        # alpha0 = 0; the other end; seven steps of 15 points, each a 16x
        # shrink of [0, 20] down to 1e-6; and the report at the root
        assert sizes == [1, 1, *[15] * 7, 1]
