"""Tests for the log-squared Gaussian noise model."""

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from voldens.errors import ParameterError
from voldens.noisemodel import (CHARFN_CUTOFF, inv_noise_charfn, noise_charfn, noise_density,
                                sample_noise)


class TestNoiseDensity:
    def test_value_at_zero(self):
        # closed form: exp(-1/2)/sqrt(2 pi)
        assert noise_density(0.0) == pytest.approx(0.24197072451914337, abs=1e-15)

    def test_maximum_at_zero(self):
        # derivative is (1/2)(1 - e^x) k(x): positive left of 0, negative right
        xs = np.array([-2.0, -0.5, -0.01, 0.01, 0.5, 2.0])
        vals = noise_density(xs)
        assert np.all(vals < noise_density(0.0))
        h = 1e-6
        assert noise_density(-h) < noise_density(0.0) > noise_density(h)

    def test_integrates_to_one(self):
        # the left tail below -60 carries ~8e-14 mass; a [-40, 10] range would
        # already truncate 1.6e-9 and could not meet the tolerance
        total, _ = quad(noise_density, -60, 15, epsabs=1e-13, limit=200)
        assert abs(total - 1.0) < 1e-10

    def test_nonnegative(self):
        xs = np.linspace(-50, 8, 500)
        assert np.all(noise_density(xs) >= 0)

    def test_matches_sampled_histogram_moments(self):
        # E log Z^2 = -(gamma + log 2), Var = pi^2/2
        rng = np.random.Generator(np.random.Philox(key=5))
        s = sample_noise(200_000, rng)
        assert s.mean() == pytest.approx(-(np.euler_gamma + np.log(2)), abs=0.02)
        assert s.var() == pytest.approx(np.pi ** 2 / 2, rel=0.02)


class TestCharFn:
    def test_value_at_zero_is_one(self):
        assert noise_charfn(0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_squared_modulus_is_sech(self, t):
        assert abs(noise_charfn(t)) ** 2 == pytest.approx(1.0 / np.cosh(np.pi * t),
                                                          abs=1e-10)

    def test_supersmooth_asymptote(self):
        # |phi_k(s)| -> sqrt(2) exp(-pi |s|/2) with O(1/|s|) relative error
        val = abs(noise_charfn(20.0))
        target = np.sqrt(2.0) * np.exp(-10.0 * np.pi)
        assert abs(val - target) / target < 0.01

    def test_hermitian_symmetry_exact(self):
        t = np.array([0.25, 1.0, 3.5, 17.2, 100.0])
        assert np.array_equal(noise_charfn(-t), np.conj(noise_charfn(t)))

    def test_underflow_cutoff(self):
        assert noise_charfn(CHARFN_CUTOFF + 1.0) == 0.0
        assert noise_charfn(-CHARFN_CUTOFF - 1.0) == 0.0

    def test_inverse_is_stable_and_consistent(self):
        t = np.array([0.5, 2.0, 10.0, 60.0])
        prod = inv_noise_charfn(t) * noise_charfn(t)
        np.testing.assert_allclose(prod, 1.0, rtol=1e-12)

    def test_inverse_overflow_guard(self):
        with pytest.raises(ParameterError):
            inv_noise_charfn(CHARFN_CUTOFF + 1.0)

    def test_matches_scipy_loggamma_on_the_whole_band(self):
        # the Stirling phase against scipy's complex log-gamma on 10^6 points:
        # 3x the largest relative difference measured (9.1e-13), which sits
        # at large t, where the phase t log t rounds at about 1e-13
        t = np.linspace(0.0, CHARFN_CUTOFF, 1_000_000)
        phi = noise_charfn(t)
        ref = np.exp(1j * t * np.log(2.0) + special.loggamma(0.5 + 1j * t)) / np.sqrt(np.pi)
        assert np.max(np.abs(phi - ref) / np.abs(ref)) < 2.7e-12
        assert np.array_equal(noise_charfn(-t), np.conj(phi))
        # the modulus is exact: |phi_k|^2 cosh(pi t) = 1 within 4 ulp (3 measured)
        modulus2 = phi.real ** 2 + phi.imag ** 2
        assert np.max(np.abs(modulus2 * np.cosh(np.pi * t) - 1.0)) <= 4 * np.finfo(float).eps

    def test_density_is_inverse_transform_of_charfn(self):
        # k(x) = (1/2pi) int phi_k(t) e^{-itx} dt, quadrature over the decay range
        for x in (-10.0, -4.0, -1.0, 0.0, 2.0, 5.0):
            re, _ = quad(lambda t: (noise_charfn(t) * np.exp(-1j * t * x)).real,
                         -30, 30, epsabs=1e-12, limit=400)
            assert re / (2 * np.pi) == pytest.approx(noise_density(x), abs=1e-6)

    def test_empirical_charfn_agreement(self):
        # ECF of 1e6 samples within 4/sqrt(1e6) of phi_k uniformly on [-5, 5]
        rng = np.random.Generator(np.random.Philox(key=77))
        s = sample_noise(1_000_000, rng)
        ts = np.linspace(-5, 5, 41)
        worst = 0.0
        for t in ts:
            ecf = np.exp(1j * t * s).mean()
            worst = max(worst, abs(ecf - noise_charfn(t)))
        assert worst < 4.0 / np.sqrt(1_000_000)


class TestComplexLogGamma:
    # the oracle's complex log-gamma (`reference.inv_noise_cf`, and the
    # accuracy tests of phi_k above) is scipy's `loggamma`; these are its identities
    def test_gamma_one_and_half(self):
        assert special.loggamma(1.0 + 0j) == pytest.approx(0.0, abs=1e-13)
        assert special.loggamma(0.5 + 0j).real == pytest.approx(np.log(np.sqrt(np.pi)),
                                                                abs=1e-13)

    def test_reflection_identity_on_imaginary_line(self):
        # |Gamma(1/2 + 3i)|^2 = pi / cosh(3 pi)
        lg = special.loggamma(0.5 + 3.0j)
        assert np.exp(2 * lg.real) == pytest.approx(np.pi / np.cosh(3 * np.pi),
                                                    rel=1e-12)

    def test_accuracy_on_strip_against_scipy(self):
        # the recurrence Gamma(z + 1) = z Gamma(z) on the strip, to 1e-12 relative
        rng = np.random.default_rng(0)
        z = rng.uniform(0.5, 1.5, 500) + 1j * rng.uniform(-50, 50, 500)
        step = special.loggamma(z + 1.0) - special.loggamma(z) - np.log(z)
        assert np.max(np.abs(np.expm1(step))) < 1e-12

    def test_reflection_branch(self):
        # exp(result) must still equal Gamma for Re z < 1/2
        z = np.array([-0.3 + 0.7j, 0.1 - 2.0j, -1.5 + 0.2j])
        mine = np.exp(special.loggamma(z))
        ref = special.gamma(z)
        np.testing.assert_allclose(mine, ref, rtol=1e-11)
