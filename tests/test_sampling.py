import cmath
import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
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
from mtlab.phasespace import het_shift
from mtlab.sampling import (
    TAG_HET,
    TAG_PHASE,
    SamplingError,
    _CELL_SLACK,
    _TEST_CHUNK,
    _accept_by_cells,
    _accept_into,
    _accepted,
    _exact_bracket,
    _rejection,
    derive_key,
    substream,
)
from mtlab.oracle import fock_expansion
from mtlab.special import oscillator_eigenfunction_sum

from conftest import band

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
            d3 = sample_homodyne(s, 3, 600, seed=124)
            assert not all((a == b).all() for a, b in zip(d1.samples, d3.samples))

    def test_vacuum_variance(self):
        # each phase's sample variance has SD sqrt(2/n) 0.5^2 about 0.5: the
        # band fails a correct draw with probability at most 1e-4, and
        # misses a 2% variance error (0.01) with probability below 1e-8
        n = 500_000
        d = sample_homodyne(VACUUM, 4, 4 * n, seed=9)
        half = band(math.sqrt(0.5 / n), 1e-4, comparisons=4)
        assert all(abs(np.var(xs) - 0.5) < half for xs in d.samples)

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

        gen, ref = substream(9, 4), substream(9, 4)
        out = np.full(5, -1.0)
        assert _accept_into(out, 2, props, gen, accept) == 5
        assert list(out) == [-1.0, -1.0, 0.0, 3.0, 6.0]
        assert seen == [0.0]  # later chunks are never tested
        ref.uniform(0.0, 1.0, size=_TEST_CHUNK)  # nor are their uniforms drawn
        assert np.array_equal(gen.random(8), ref.random(8))

    def test_rejection_1d_matches_whole_batch(self):
        pdf = lambda x: quadrature_pdf(Fock(3), 0.0, x)
        var_env, half = 3.0 * 3.5, 6.0 * math.sqrt(3.5)
        env = lambda x: np.exp(-0.5 * x ** 2 / var_env) / math.sqrt(2 * math.pi * var_env)
        grid = np.linspace(-half, half, 2049)
        got = _rejection(lambda x: _exact_bracket(pdf(x)), env,
                         lambda g, k: g.normal(0.0, math.sqrt(var_env), size=k),
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
        # the cat's bracket decides most points without their cosine
        got = _rejection(lambda pts: state._core_husimi_bracket(pts[:, 0], pts[:, 1]),
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
            _rejection(lambda x: _exact_bracket(pdf(x)), scipy.stats.norm.pdf,
                       lambda g, k: g.normal(size=k), np.linspace(-4.0, 4.0, 9), 1000,
                       substream(9, 3))

    def test_accept_by_cells_matches_accept_into(self):
        # the cells decide most points and the rest are tested later, in
        # groups: the same proposals fill out, testing stops after the same
        # chunk, and so the generator is left in the same state
        state, theta = Fock(3), 0.4
        cells, env, c = draw_cells(state, theta)
        accept = lambda y, u: _accepted(state._core_quadrature_bracket(theta, y), u, c, env(y))
        props = substream(3, 0).normal(0.0, math.sqrt(10.5), size=60_000)
        for n, filled in [(1, 0), (5_000, 0), (9_000, 4_000), (15_000, 0), (20_000, 0)]:
            got, ref = np.full(n, np.nan), np.full(n, np.nan)
            gen, gen_ref = substream(3, 1), substream(3, 1)
            k = _accept_by_cells(got, filled, props, gen, accept, cells, c)
            assert k == _accept_into(ref, filled, props, gen_ref, accept)
            assert k == min(n, filled + np.count_nonzero(ref[filled:] == ref[filled:]))
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(gen.random(4), gen_ref.random(4))

    def test_too_small_constant_raises_through_the_cells(self, monkeypatch):
        # with c below the density's peak ratio, the cells about the peak
        # decide none of their points, and the tested points raise
        calls = []

        def spy(*args):
            calls.append(len(args[2]))
            return _accept_by_cells(*args)

        monkeypatch.setattr(mtlab.sampling, "_accept_by_cells", spy)
        monkeypatch.setattr(mtlab.sampling, "_SAFETY", 0.5)
        for state in (Fock(3), PhotonAddedCoherent(0.8, 2), EvenOddCoherent(1.0, "odd")):
            with pytest.raises(SamplingError, match="exceeds the rejection envelope"):
                sample_homodyne(state, 3, 30_000, seed=5)
        assert len(calls) == 3

    def test_far_cat_heterodyne_raises_instead_of_inexact_draws(self):
        # at alpha0 = 10 the 257^2 scan misses the Husimi peaks by more than
        # the safety factor; the draw must fail rather than be silently wrong
        with pytest.raises(SamplingError, match="exceeds the rejection envelope"):
            sample_heterodyne(EvenOddCoherent(10.0, "even"), 1000, seed=1)


def draw_cells(state, theta):
    """(cells, envelope, constant) of the state's homodyne draw at theta: the
    arguments that its rejection gets, and the constant it scans."""
    seen = {}

    def spy(bracket, env, propose, grid, n, gen, cells):
        seen.update(cells=cells, env=env,
                    c=float(np.max(bracket(grid)[2](()) / env(grid))) * 1.10)
        return np.zeros(n)

    _, u1, u2, _, _, _ = mtlab.states._core_quadrature(state, theta).tolist()
    real = mtlab.states._rejection
    mtlab.states._rejection = spy
    try:
        state._core_quadrature_draw(theta, u1, u2, 1, substream(0))
    finally:
        mtlab.states._rejection = real
    return seen["cells"], seen["env"], seen["c"]


CELL_STATES = [Fock(3), DisplacedFock(1 + 0.5j, 2), PhotonAddedCoherent(0.8, 2),
               PhotonAddedCoherent(1.3 + 0.7j, 3),
               *(EvenOddCoherent(a0, parity) for a0 in (1.0, 6.0) for parity in ("even", "odd")),
               EvenOddCoherent(1e-5, "odd")]
CELL_THETAS = (0.0, 0.7, math.pi / 2, 2.5)


def cell_violations(state, theta, cells, env, per_cell=64):
    """The cells whose bounds miss the computed density or the envelope at
    per_cell points across each cell, ends included."""
    k = len(cells.f_lo)
    x = (cells.origin + cells.width * (np.arange(1, k + 1)[:, None]
                                       + np.linspace(0.0, 1.0, per_cell)[None, :]))
    f = state._core_quadrature_pdf(theta, x.ravel()).reshape(x.shape)
    e = env(x.ravel()).reshape(x.shape)
    tol = 1.0 + 1e-12
    bad = ((f < cells.f_lo[:, None]) | (f > cells.f_hi[:, None])
           | (e * tol < cells.e_lo[:, None]) | (e > cells.e_hi[:, None] * tol))
    return np.flatnonzero(bad.any(axis=1))


class TestCells:
    """The cells' bounds are proven inequalities; the draws rest on them."""

    @pytest.mark.parametrize("state", CELL_STATES, ids=repr)
    def test_bounds_hold_across_every_cell(self, state):
        for theta in CELL_THETAS:
            cells, env, _ = draw_cells(state, theta)
            assert len(cell_violations(state, theta, cells, env)) == 0, theta
            # every point is put in a cell within the radius of the bounds
            r = 0.5 * cells.width * (1.0 + _CELL_SLACK)
            y = cells.origin + cells.width * np.random.default_rng(1).uniform(
                1.0, len(cells.f_lo) + 1.0, 100_000)
            k = ((y - cells.origin) * (1.0 / cells.width)).astype(np.intp)
            assert np.all(np.abs(y - (cells.origin + (k + 0.5) * cells.width)) <= r)

    @pytest.mark.parametrize("state", CELL_STATES, ids=repr)
    def test_second_derivative_bound(self, state):
        # M2 >= sup |f''|, with f'' from second differences on a fine grid
        for theta in CELL_THETAS:
            y = np.linspace(-30.0, 30.0, 300_001)
            f, fp, m2, _ = state._core_quadrature_taylor(theta, y)
            h = y[1] - y[0]
            assert np.abs(f[2:] - 2.0 * f[1:-1] + f[:-2]).max() / h ** 2 <= m2
            # f' against central differences, whose error h^2 |f'''| / 6 is below 1e-6 M2 here
            assert np.allclose((f[2:] - f[:-2]) / (2.0 * h), fp[1:-1], rtol=0.0, atol=1e-6 * m2)

    @pytest.mark.parametrize("state, scale", [
        *((state, 0.0) for state in CELL_STATES),
        (EvenOddCoherent(6.0, "even"), 0.5), (EvenOddCoherent(6.0, "odd"), 0.5),
    ], ids=lambda v: repr(v) if not isinstance(v, float) else f"M2x{v}")
    def test_check_fails_once_the_bound_is_broken(self, state, scale, monkeypatch):
        # with no margin and M2 scaled down, some cell's bounds miss the
        # density: the check above has the power to see a broken bound
        # (for the cats at alpha0 = 6, M2 is within 11% of sup |f''| at pi/2)
        # the tiny cat takes the bounds of its limit Fock state
        target = Fock if isinstance(state, EvenOddCoherent) and abs(state.alpha0) < 1e-4 \
            else type(state)
        real = target._core_quadrature_taylor

        def broken(self, theta, y):
            f, fp, m2, _ = real(self, theta, y)
            return f, fp, scale * m2, 0.0

        monkeypatch.setattr(target, "_core_quadrature_taylor", broken)
        theta = math.pi / 2
        assert len(cell_violations(state, theta, *draw_cells(state, theta)[:2])) > 0


def cat_quadrature_reference(state, theta, y):
    """The cat's quadrature density written out as one expression."""
    a0, sgn = complex(state.alpha0), 1.0 if state.parity == "even" else -1.0
    beta = a0 * cmath.exp(-1j * theta)
    br, bi, a2 = beta.real, beta.imag, abs(a0) ** 2
    den = 2.0 * (1.0 + math.exp(-2 * a2)) if sgn > 0 else -2.0 * math.expm1(-2 * a2)
    body = (np.exp(-((y - SQ2 * br) ** 2)) + np.exp(-((y + SQ2 * br) ** 2))
            + sgn * 2.0 * np.exp(-y * y - 2.0 * br * br) * np.cos(2.0 * SQ2 * bi * y))
    return body / (den * math.sqrt(math.pi))


def cat_husimi_reference(state, x, p):
    """The cat's Husimi density written out as one expression."""
    a0, sgn = complex(state.alpha0), 1.0 if state.parity == "even" else -1.0
    a2 = abs(a0) ** 2
    wr2, wi2 = SQ2 * (a0.real * x + a0.imag * p), SQ2 * (a0.imag * x - a0.real * p)
    g = -0.5 * (x * x + p * p) - a2
    body = np.exp(g + wr2) + np.exp(g - wr2) + sgn * 2.0 * np.exp(g) * np.cos(wi2)
    den = 2.0 * (1.0 + math.exp(-2 * a2)) if sgn > 0 else -2.0 * math.expm1(-2 * a2)
    return body / (2 * math.pi * den)


def cat_densities(state, rng):
    """(bracket, reference density, points) of the cat's quadrature density at
    three phases and of its Husimi density.  Besides random points, each has
    points on the lines where the interference phase w is a multiple of pi,
    so that cos w rounds to +-1 and the density meets an end of its bracket."""
    a0, k = complex(state.alpha0), np.arange(-3.0, 4.0)
    spread = 1.0 + abs(a0)
    cases = []
    for theta in (0.0, 0.7, math.pi / 2):
        bi = (a0 * cmath.exp(-1j * theta)).imag
        lines = k * math.pi / (2.0 * SQ2 * bi) if bi else rng.normal(0.0, spread, 50)
        y = np.concatenate([rng.normal(0.0, spread, 2000), lines, [0.0]])
        cases.append((lambda y, th=theta: state._core_quadrature_bracket(th, y),
                      lambda y, th=theta: cat_quadrature_reference(state, th, y), y))
    # w = sqrt2 (Im a0 x - Re a0 p) = k pi on these lines
    xl = np.repeat(rng.normal(0.0, spread, 40), k.size)
    pl = (a0.imag * xl - np.tile(k, 40) * math.pi / SQ2) / a0.real
    pts = np.column_stack([np.concatenate([rng.normal(0.0, spread, 2000), xl, [0.0]]),
                           np.concatenate([rng.normal(0.0, spread, 2000), pl, [0.0]])])
    cases.append((lambda pts: state._core_husimi_bracket(pts[:, 0], pts[:, 1]),
                  lambda pts: cat_husimi_reference(state, pts[:, 0], pts[:, 1]), pts))
    return cases


@pytest.mark.parametrize("state", [
    EvenOddCoherent(a0, parity) for parity in ("even", "odd") for a0 in (1.0, 1.5 + 0.5j, 6.0)
], ids=lambda st: f"{st.parity}-{st.alpha0}")
def test_cat_bracket_holds_and_decides_as_the_density(state):
    """Both cat densities are (s + t cos w)/d, bracketed without the cosine by
    [fl(fl(s - |t|)/d), fl(fl(s + |t|)/d)]; the squeeze must take the same
    decisions as comparing with the density itself, at the ends of the
    bracket and at their neighbouring floats too."""
    at_ends = 0
    for bracket, reference, pts in cat_densities(state, np.random.default_rng(17)):
        lo, hi, rest = bracket(pts)
        f = reference(pts)
        assert np.array_equal(rest(()), f)  # the density, in the same order
        assert np.all(lo <= f) and np.all(f <= hi)
        assert f.max() < 2.0  # so c e = 2 below is a majorant, though hi may exceed it
        at_ends += np.count_nonzero((f == lo) | (f == hi))
        # u c e with c = 1, e = 2 at the ends of the bracket, their
        # neighbours and in between
        x = np.concatenate([lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                            hi, np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
                            lo + (hi - lo) * np.random.default_rng(5).random(len(f))])
        u, e = x / 2.0, np.full(len(x), 2.0)
        keep = _accepted(bracket(np.concatenate([pts] * 7)), u, 1.0, e)
        assert np.array_equal(keep, u * 1.0 * e < np.tile(f, 7))
        # an envelope c e at the density itself is not exceeded; one below it is
        u = np.random.default_rng(6).random(len(f))
        assert np.array_equal(_accepted(bracket(pts), u, 1.0, f), u * f < f)
        low = f.copy()
        low[np.argmax(f)] = np.nextafter(f.max(), 0.0)
        with pytest.raises(SamplingError, match="exceeds the rejection envelope"):
            _accepted(bracket(pts), u, 1.0, low)
    assert at_ends > 0


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
        # the Husimi covariance is G + I/2 = diag(0.75, 1.5); for normal data
        # the sample (co)variances have SD sxx sqrt(2/n), sqrt(sxx spp / n) and
        # spp sqrt(2/n), the means sqrt(sxx/n) and sqrt(spp/n).  The bands fail
        # a correct draw with probability at most 1e-4 over the five, and
        # miss a 2% error in either variance with probability below 1e-8
        # (10 SD at this n, 5.7 past the band)
        s = Gaussian(FirstMoments(1.0, 0.0), CovarianceMatrix(0.25, 0.0, 1.0))
        n, sxx, spp = 500_000, 0.75, 1.5
        pts = sample_heterodyne(s, n, seed=21).points
        cov, mean = np.cov(pts.T), pts.mean(axis=0)
        got = np.array([cov[0, 0], cov[0, 1], cov[1, 1], mean[0], mean[1]])
        sd = np.sqrt(np.array([2.0 * sxx * sxx, sxx * spp, 2.0 * spp * spp, sxx, spp]) / n)
        assert np.all(np.abs(got - [sxx, 0.0, spp, 1.0, 0.0]) < band(sd, 1e-4, comparisons=5))

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

    @pytest.mark.parametrize("state", [PhotonAddedCoherent(1.3 + 0.7j, 3),
                                       PhotonAddedCoherent(2.5j, 6)],
                             ids=lambda s: f"m{s.m}")
    def test_photon_added_radial_law(self, state):
        # s = |alpha|^2 is the Gamma(m + k + 1) mixture over k >= 0 with weights
        # z0^k (m + k)! / (k!)^2, summed here until the weights vanish
        m, z0 = state.m, abs(complex(state.alpha0)) ** 2
        pts = sample_heterodyne(state, 400_000, seed=5).points
        s = 0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
        k = np.arange(200.0)
        gammaln = scipy.special.gammaln
        logw = k * math.log(z0) + gammaln(m + k + 1.0) - 2.0 * gammaln(k + 1.0)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        live = w > 1e-18

        def cdf(x):
            return sum(wk * scipy.special.gammainc(m + kk + 1.0, x)
                       for kk, wk in zip(k[live], w[live]))

        assert scipy.stats.kstest(s, cdf).pvalue > 1e-3

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


# Whole-array heterodyne draws, as the samplers once made them: every
# temporary full length and each batch's uniforms drawn at once.  The
# samplers must reproduce them bit for bit.

def whole_fock_husimi(n_photon, n, gen):
    s = gen.gamma(shape=n_photon + 1.0, scale=1.0, size=n)
    r = np.sqrt(2.0 * s)
    ang = gen.uniform(0.0, 2.0 * math.pi, size=n)
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def whole_photon_added_husimi(state, n, gen):
    # component j = 0..m has weight C(m, j) (m!/j!) z0^j and the radius
    # s ~ Gamma(m + 1 + j + Poisson(z0)), half a noncentral chi-square
    alpha0, m = complex(state.alpha0), state.m
    z0 = abs(alpha0) ** 2
    cdf = np.cumsum([math.comb(m, j) * math.factorial(m) / math.factorial(j) * z0 ** j
                     for j in range(m + 1)])
    js = np.searchsorted(cdf / cdf[-1], gen.random(n), side="right")
    s = 0.5 * gen.noncentral_chisquare(2.0 * (m + 1.0 + js), 2.0 * z0)
    ang = gen.vonmises(cmath.phase(alpha0), 2.0 * np.sqrt(s * z0))
    r = np.sqrt(2.0 * s)
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def whole_gaussian_heterodyne(state, n, gen):
    chol = np.linalg.cholesky(het_shift(state.g).as_array())
    return gen.normal(size=(n, 2)) @ chol.T + state._moments.shift[0]


def whole_cat_heterodyne(state, n, gen):
    ghet = het_shift(mtlab.states.covariance(state)).as_array()
    var_env = 2.0 * float(np.max(np.linalg.eigvalsh(ghet)))
    a0 = complex(state.alpha0)
    r0 = np.array([SQ2 * a0.real, SQ2 * a0.imag])
    centers = np.array([r0, -r0])

    def env(x, p):
        acc = np.zeros(len(x))
        for cx, cp in centers:
            acc += np.exp(-0.5 * ((x - cx) ** 2 + (p - cp) ** 2) / var_env)
        return acc / (4 * math.pi * var_env)

    sd = math.sqrt(var_env)
    half = 6.0 * sd + float(np.hypot(*r0))
    xs = np.linspace(-half, half, 257)
    gx, gp = (g.ravel() for g in np.meshgrid(xs, xs, indexing="ij"))
    c = float(np.max(state._core_husimi_pdf(gx, gp) / env(gx, gp))) * 1.10
    blocks, filled = [], 0
    while filled < n:
        k = min(4_000_000, max(1024, int((n - filled) * c * 1.2)))
        pts = centers[gen.integers(0, 2, size=k)] + gen.normal(0.0, sd, size=(k, 2))
        x, p = pts[:, 0], pts[:, 1]
        blocks.append(pts[gen.uniform(0.0, 1.0, size=k) * c * env(x, p)
                          < state._core_husimi_pdf(x, p)])
        filled += len(blocks[-1])
    return np.concatenate(blocks)[:n] + state._moments.shift[0]


class RecordingGenerator:
    """A generator that passes every call on and records the sizes asked of integers."""

    def __init__(self, gen):
        self.gen, self.integer_sizes = gen, []

    def integers(self, *args, size=None, **kwargs):
        self.integer_sizes.append(size)
        return self.gen.integers(*args, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self.gen, name)


STREAM_SIZES = (1, 12_345, 100_000)


class TestHeterodyneStream:
    """In-place draws take the same values as the whole-array expressions."""

    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_fock_husimi(self, n):
        got = Fock(3)._core_husimi_draw(n, substream(5, n))
        assert np.array_equal(got, whole_fock_husimi(3, n, substream(5, n)))

    @pytest.mark.parametrize("state", [PhotonAddedCoherent(0.8, 2),
                                       PhotonAddedCoherent(1.3 + 0.7j, 3),
                                       PhotonAddedCoherent(0.0, 3)],
                             ids=["real", "complex", "vacuum"])
    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_photon_added_husimi(self, state, n):
        got = state._husimi_draw(n, substream(6, n))
        assert np.array_equal(got, whole_photon_added_husimi(state, n, substream(6, n)))

    # at n = 10^6 the even cat's first batch is capped at _MAX_BATCH rows,
    # drawn again from a copy of the generator as it is tested, and a
    # second batch follows
    @pytest.mark.parametrize("state, whole, n", [
        pytest.param(state, whole, n, id=f"{n}-{name}")
        for n in STREAM_SIZES + (_TEST_CHUNK, _TEST_CHUNK + 1)
        for state, whole, name in [
            (FAMILIES[0], whole_gaussian_heterodyne, "gaussian"),
            (EvenOddCoherent(1.0, "even"), whole_cat_heterodyne, "even_cat"),
            (EvenOddCoherent(1.5 + 0.5j, "odd"), whole_cat_heterodyne, "odd_cat"),
        ]
    ] + [pytest.param(EvenOddCoherent(1.0, "even"), whole_cat_heterodyne, 10**6,
                      id="1000000-even_cat")])
    def test_sample_heterodyne(self, state, whole, n):
        got = sample_heterodyne(state, n, seed=7).points
        assert np.array_equal(got, whole(state, n, substream(7, TAG_HET)))

    def test_cat_component_index_drawn_one_chunk_at_a_time(self):
        state = EvenOddCoherent(1.0, "even")
        gen = RecordingGenerator(substream(7, TAG_HET))
        got = state._core_husimi_draw(100_000, gen)
        assert len(gen.integer_sizes) > 1
        assert max(gen.integer_sizes) <= _TEST_CHUNK
        assert np.array_equal(got, whole_cat_heterodyne(state, 100_000, substream(7, TAG_HET)))


# Whole-array homodyne draws: a normal draw for a Gaussian core, else
# rejection testing every proposal of each batch at once, under the
# envelope written out.  The samplers must reproduce them bit for bit.

def whole_quadrature(state, theta, n, gen):
    _, u1, u2, _, _, shift = mtlab.states._core_quadrature(state, theta).tolist()
    if isinstance(state, Gaussian):
        return gen.normal(u1, math.sqrt(u2 - u1 * u1), size=n) + shift
    pdf = lambda y: state._core_quadrature_pdf(theta, y)
    var_env, half = 3.0 * u2, 6.0 * math.sqrt(u2) + abs(u1)
    env = lambda y: np.exp(-0.5 * (y - u1) ** 2 / var_env) / math.sqrt(2 * math.pi * var_env)
    grid = np.linspace(u1 - half, u1 + half, 2049)
    c = float(np.max(pdf(grid) / env(grid))) * 1.10
    blocks, filled = [], 0
    while filled < n:
        k = min(4_000_000, max(1024, int((n - filled) * c * 1.2)))
        xs = gen.normal(u1, math.sqrt(var_env), size=k)
        blocks.append(xs[gen.uniform(0.0, 1.0, size=k) * c * env(xs) < pdf(xs)])
        filled += len(blocks[-1])
    return np.concatenate(blocks)[:n] + shift


class TestHomodyneStream:
    """Every family's homodyne draw takes the values of the whole-array draw."""

    @pytest.mark.parametrize("state", [
        FAMILIES[0], Fock(3), DisplacedFock(1 + 0.5j, 2), PhotonAddedCoherent(0.8, 2),
        PhotonAddedCoherent(1.3 + 0.7j, 3), EvenOddCoherent(1.0, "even"),
        EvenOddCoherent(1.5 + 0.5j, "odd"), EvenOddCoherent(6.0, "odd"),
        EvenOddCoherent(1e-5, "odd"),
    ], ids=["gaussian", "fock3", "displaced_fock", "photon_added", "photon_added_m3",
            "even_cat", "odd_cat", "far_odd_cat", "tiny_odd_cat"])
    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_sample_homodyne(self, state, n):
        got = sample_homodyne(state, 3, 3 * n, seed=8)
        for k, (th, xs) in enumerate(zip(got.phases, got.samples)):
            ref = whole_quadrature(state, float(th), n, substream(8, TAG_PHASE, k))
            assert np.array_equal(xs, ref)


@pytest.mark.parametrize("state, mib", [
    (FAMILIES[0], 17),
    (Fock(3), 17),
    (DisplacedFock(1 + 0.5j, 2), 17),
    (PhotonAddedCoherent(0.8, 2), 17),
    (EvenOddCoherent(1.0, "even"), 32),
], ids=["gaussian", "fock3", "displaced_fock", "photon_added", "even_cat"])
def test_heterodyne_draw_peak_memory(state, mib):
    # 10^6 draws hold their (n, 2) output (15.3 MiB) and one test chunk of
    # random inputs (a traced peak of 15.4-15.6 MiB; 1.5 MiB of slack), and,
    # for the cat, a byte of component index per proposal of a batch and
    # one test chunk of its normals (20.9 MiB).
    # tracemalloc cannot see a large block freed before the traced peak,
    # such as a whole batch's int64 component index: the resident heap that
    # glibc keeps after it is checked below
    sample_heterodyne(state, 100, seed=1)  # warm-up: the state's cached tables
    tracemalloc.start()
    try:
        sample_heterodyne(state, 10**6, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20, f"{peak / 2**20:.1f} MiB"


# A warm-up and two 10^6 cat draws in a fresh process; prints the resident
# peak after each, in KiB
_CAT_RSS_PROBE = """
import resource
from mtlab import EvenOddCoherent, sample_heterodyne
state = EvenOddCoherent(1.0, "even")
peaks = []
for n, seed in ((100, 1), (10**6, 2), (10**6, 3)):
    sample_heterodyne(state, n, seed=seed)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(*peaks)
"""


@functools.cache
def cat_rss_peaks_mib():
    src = os.path.dirname(os.path.dirname(mtlab.states.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CAT_RSS_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return [int(kib) / 1024 for kib in proc.stdout.split()]


linux_rss = pytest.mark.skipif(not sys.platform.startswith("linux"),
                               reason="ru_maxrss is in KiB on Linux, and the heap is glibc's")


@linux_rss
def test_cat_heterodyne_draw_resident_peak_does_not_grow():
    # a k-long int64 block made and freed raises glibc's mmap threshold, and
    # the next draw's arrays then come from a heap that is never trimmed
    _, first, second = cat_rss_peaks_mib()
    grown = second - first
    assert grown < 10, f"the second draw raised the resident peak by {grown:.1f} MiB"


@linux_rss
def test_cat_heterodyne_first_draw_resident_peak():
    # the output (15.3 MiB) and a byte per proposal of the first 4M-row
    # batch; a batch of normals held whole would add 61 MiB more
    warm, first, _ = cat_rss_peaks_mib()
    grown = first - warm
    assert grown < 45, f"the first draw raised the resident peak by {grown:.1f} MiB"
