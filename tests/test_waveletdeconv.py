"""Tests for the Meyer wavelet deconvolution estimator."""

import numpy as np
import pytest
from scipy.integrate import quad

from reference import band_quad, fourier_quad, meyer_wavelet_fourier, sobolev_norm
from voldens._tables import GUARD, fourier_table
from voldens.errors import DataError, ParameterError
from voldens.noisemodel import inv_noise_charfn
from voldens.waveletdeconv import (LEVEL_DENOMINATOR, MAX_LEVEL, OMEGA_MAX, default_level,
                                   meyer_scaling_fourier, render_scaling_expansion,
                                   scaling_table, um_band, um_table, wavelet_coefficients,
                                   wavelet_estimate)


class TestMeyerFourier:
    def test_scaling_at_zero_and_support(self):
        assert meyer_scaling_fourier(0.0) == 1.0
        assert meyer_scaling_fourier(OMEGA_MAX) == 0.0
        assert meyer_scaling_fourier(OMEGA_MAX + 0.5) == 0.0
        assert meyer_scaling_fourier(-OMEGA_MAX - 3.0) == 0.0
        # flat on the inner band
        assert meyer_scaling_fourier(2 * np.pi / 3 - 0.01) == 1.0

    @pytest.mark.parametrize("omega", [0.3, 1.0, 2.0])
    def test_partition_of_shifted_squares(self, omega):
        total = sum(meyer_scaling_fourier(omega + 2 * np.pi * l) ** 2
                    for l in range(-3, 4))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_scaling_is_even_and_exact_on_its_plateaus(self):
        # phi~ is a function of |omega|, and nothing cancels in it
        w = np.linspace(0.0, 4.3, 100_001)
        phi = meyer_scaling_fourier(w)
        assert np.array_equal(meyer_scaling_fourier(-w), phi)
        inner, outer = w <= 2 * np.pi / 3, w >= OMEGA_MAX
        assert np.all(phi[inner] == 1.0) and np.all(phi[outer] == 0.0)
        assert np.all(phi[~inner & ~outer] > 0.0)
        total = sum(meyer_scaling_fourier(w + 2 * np.pi * l) ** 2 for l in range(-2, 3))
        assert np.max(np.abs(total - 1.0)) <= 1e-13

    def test_scaling_near_the_band_edge(self):
        # phi~ = sqrt(35) u^2 (1 + O(u)) with u = 3 d / 2pi at d = 4pi/3 - omega:
        # positive and increasing in d all the way to the edge
        values = [meyer_scaling_fourier(OMEGA_MAX - d) for d in (1e-9, 1e-7, 1e-5)]
        assert 0.0 < values[0] < values[1] < values[2]
        for d, value in zip((1e-9, 1e-7, 1e-5), values):
            assert value == pytest.approx(np.sqrt(35.0) * (1.5 * d / np.pi) ** 2, rel=1e-4)

    def test_wavelet_at_zero_and_support(self):
        assert meyer_wavelet_fourier(0.0) == 0.0
        assert meyer_wavelet_fourier(2 * np.pi / 3 - 0.05) == 0.0
        assert abs(meyer_wavelet_fourier(np.pi)) > 0
        assert meyer_wavelet_fourier(8 * np.pi / 3 + 0.1) == 0.0

    @pytest.mark.parametrize("omega", [0.5, 1.5, 3.0, -2.2, 6.0])
    def test_two_scale_relation(self, omega):
        lhs = (abs(meyer_wavelet_fourier(omega)) ** 2
               + meyer_scaling_fourier(omega) ** 2)
        rhs = meyer_scaling_fourier(omega / 2) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_wavelet_phase_convention(self):
        # modulus is even; the only asymmetry is the e^{-i omega/2} phase
        for omega in (1.0, 2.5, 5.0):
            assert abs(meyer_wavelet_fourier(-omega)) == pytest.approx(
                abs(meyer_wavelet_fourier(omega)), abs=1e-14)
            assert meyer_wavelet_fourier(-omega) == pytest.approx(
                np.conj(meyer_wavelet_fourier(omega)), abs=1e-14)


class TestUmFunction:
    def test_no_noise_gives_scaling_function(self):
        # the quadrature with the noise-free spectrum phi~ is the scaling function
        xs = np.array([-2.0, -0.3, 0.0, 0.8, 3.1])
        np.testing.assert_allclose(fourier_quad(meyer_scaling_fourier, OMEGA_MAX, xs),
                                   scaling_table(8.0)(xs), atol=1e-8)

    def test_statistical_level_cap_admits_level_3_and_refuses_4(self):
        # every range bucket from 64 to 4096 builds at the top level
        for r in (64.0, 128.0, 256.0, 512.0, *range(1024, 4097, 512)):
            table = um_band(MAX_LEVEL).table(r - GUARD, fourier_table)
            assert np.all(np.isfinite(table.raw()))
        with pytest.raises(ParameterError):
            um_table(4, 64.0)
        with pytest.raises(ParameterError):
            wavelet_estimate(np.linspace(-3.0, 1.0, 50), level=4, truncation=5)

    def test_magnitude_growth_tracks_supersmooth_amplification(self):
        # growth of max|U_m| across levels follows the growth of the
        # 1/|phi_k| amplification at the spectral edge within a factor 10
        maxes = {}
        for m in (0, 1, 2):
            tab = um_band(m).table(64.0, fourier_table)
            g = tab.grid()
            maxes[m] = float(np.max(np.abs(tab(g[np.abs(g) <= 40]))))
        for m in (0, 1):
            observed = maxes[m + 1] / maxes[m]
            predicted = (abs(inv_noise_charfn(2 ** (m + 1) * OMEGA_MAX))
                         / abs(inv_noise_charfn(2 ** m * OMEGA_MAX)))
            assert predicted / 10 < observed < predicted * 10

    def test_level_cap(self):
        with pytest.raises(ParameterError):
            um_band(9)


class TestOrthonormality:
    def test_scaling_translates_orthonormal(self):
        # band-limited integrand: trapezoid with step well under the Nyquist
        # limit plus decayed tails is a quadrature accurate beyond 1e-8
        step = 0.25
        xg = np.arange(-320.0, 320.0, step)
        tab = scaling_table(340.0)
        base = tab(xg)
        for l in range(0, 4):
            for lp in range(0, 4):
                ip = float(np.sum(tab(xg + l) * tab(xg + lp)) * step)
                assert ip == pytest.approx(1.0 if l == lp else 0.0, abs=1e-8)

    def test_projection_identity_for_band_limited_target(self):
        # g with spectrum inside [-2pi/3, 2pi/3]: the scaling coefficients at
        # level 0 are the samples g(l) (phi~ = 1 there), and the expansion
        # reproduces g pointwise
        c = 2 * np.pi / 3

        def g(x):
            x = np.asarray(x, dtype=float)
            # squared-sinc (Fejer-type): spectrum is the triangle on [-c, c]
            return (c / (2 * np.pi)) * np.sinc(c * x / (2 * np.pi)) ** 2

        ls = np.arange(-220, 221)
        phi = scaling_table(60.0)
        coeffs = np.array([quad(lambda x, l=l: phi(x - l) * g(x),
                                l - 60, l + 60, limit=300)[0] for l in (-2, 0, 3)])
        np.testing.assert_allclose(coeffs, g(np.array([-2.0, 0.0, 3.0])), atol=1e-6)
        xs = np.array([-1.7, -0.4, 0.0, 0.9, 2.5])
        tab = scaling_table(512.0)
        recon = np.array([np.sum(g(ls) * tab(x - ls)) for x in xs])
        np.testing.assert_allclose(recon, g(xs), atol=1e-6)


class TestCoefficients:
    def test_single_observation(self):
        # one observation: a_{m,l} = 2^{m/2} U_m(2^m y - l), against quadrature;
        # each bound is 3x the error measured with phi~ in closed form
        for m, rtol in ((0, 2.3e-13), (1, 1.3e-12), (3, 4.0e-10)):
            coeffs = wavelet_coefficients(np.array([0.7]), m, 2)
            expect = 2.0 ** (m / 2) * band_quad(um_band(m), 2.0 ** m * 0.7 - np.arange(-2, 3))
            assert np.max(np.abs(coeffs - expect)) <= rtol * np.max(np.abs(expect)), m

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=100)
        a = wavelet_coefficients(y, 0, 5)
        b = wavelet_coefficients(y[::-1].copy(), 0, 5)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_linear_in_empirical_measure(self):
        rng = np.random.default_rng(4)
        y1, y2 = rng.normal(size=60), rng.normal(size=40)
        a1 = wavelet_coefficients(y1, 0, 4)
        a2 = wavelet_coefficients(y2, 0, 4)
        both = wavelet_coefficients(np.concatenate([y1, y2]), 0, 4)
        np.testing.assert_allclose(both, 0.6 * a1 + 0.4 * a2, rtol=1e-10)


class TestEstimate:
    def test_default_level_rule(self):
        level, target = default_level(10_000)
        assert target == pytest.approx(np.log(10_000) / LEVEL_DENOMINATOR)
        assert target == pytest.approx(0.6505, abs=1e-3)
        assert level == 0  # round(log2(0.65)) = -1, floored at 0

    def test_estimate_shapes_and_defaults(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=300)
        est = wavelet_estimate(y)
        assert est.level == 0
        assert est.truncation == 300  # L_n = n default
        assert est.coefficients.size == 601

    def test_estimate_linear_in_empirical_measure(self):
        rng = np.random.default_rng(12)
        y1, y2 = rng.normal(size=80), rng.normal(size=40)
        grid = np.linspace(-4, 4, 33)
        e1 = wavelet_estimate(y1, level=0, truncation=30, grid=grid).density.values
        e2 = wavelet_estimate(y2, level=0, truncation=30, grid=grid).density.values
        both = wavelet_estimate(np.concatenate([y1, y2]), level=0, truncation=30,
                                grid=grid).density.values
        np.testing.assert_allclose(both, (80 * e1 + 40 * e2) / 120, rtol=1e-9,
                                   atol=1e-12)

    def test_coefficient_accessor(self):
        rng = np.random.default_rng(13)
        est = wavelet_estimate(rng.normal(size=50), level=0, truncation=3)
        assert est.coefficient(-3) == est.coefficients[0]
        with pytest.raises(Exception):
            est.coefficient(4)

    @pytest.mark.parametrize("m", [0, 1, MAX_LEVEL])
    def test_render_matches_manual_expansion(self, m):
        # 2^{m/2} sum_l c_l phi(2^m x - l), term by term through the same phi table
        c = np.random.default_rng(40 + m).normal(size=21)
        ls = np.arange(-10, 11)
        grid = np.linspace(-4.0, 3.0, 37)
        phi = scaling_table(2.0 ** m * 4.0 + 10)
        manual = np.array([2.0 ** (m / 2) * np.sum(c * phi(2.0 ** m * x - ls)) for x in grid])
        np.testing.assert_allclose(render_scaling_expansion(c, m, grid), manual, rtol=1e-12)

    def test_render_rejects_even_coefficient_count(self):
        # L is read from the 2L+1 coefficients; an even count covers no [-L, L]
        with pytest.raises(DataError):
            render_scaling_expansion(np.ones(6), 0, np.linspace(-3, 3, 16))


class TestSobolevNorm:
    def _gaussian_cf(self, t_max=12.0, n=4001):
        t = np.linspace(-t_max, t_max, n)
        return t, np.exp(-t * t / 2.0) + 0j

    def test_standard_normal_l2_norm(self):
        # ||g||_0^2 = int |g~|^2 = 2 pi int g^2 = 2 pi / (2 sqrt(pi)) = sqrt(pi)
        t, cf = self._gaussian_cf()
        assert sobolev_norm(t, cf, 0.0) ** 2 == pytest.approx(np.sqrt(np.pi), rel=1e-8)

    def test_monotone_in_alpha(self):
        t, cf = self._gaussian_cf()
        norms = [sobolev_norm(t, cf, a) for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_truncation_warning(self):
        t, cf = self._gaussian_cf(1.0, 101)
        with pytest.warns(UserWarning):
            sobolev_norm(t, cf, 2.0)
