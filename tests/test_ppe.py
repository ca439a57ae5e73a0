"""Tests for the penalized projection estimator."""

import numpy as np
import pytest
from scipy.integrate import quad

from reference import (empirical_contrast, fourier_quad, ppe_oracle_coefficients, sinc_basis,
                       sinc_expansion_dense, u_basis)
from voldens.errors import ConfigError, DataError, ParameterError
from voldens.metrics import PureConvolution
from voldens.ppe import (MAX_LEVEL, PpeConfig, contrast, penalty, phi_k_integral,
                         ppe_coefficients, render_sinc_expansion, select_and_estimate,
                         u_band, u_zero_table)


class TestSincBasis:
    def test_peak_value(self):
        for L, j in ((1, 0), (2, 3), (5, -4)):
            assert sinc_basis(L, j, j / L) == pytest.approx(np.sqrt(L), abs=1e-14)

    def test_zeros_at_shifted_integers(self):
        for k in (1, -1, 2, 7):
            assert sinc_basis(2, 3, (3 + k) / 2) == pytest.approx(0.0, abs=1e-14)

    def test_orthonormality_by_quadrature(self):
        # After u = Lx the inner product is I(d) = int sinc(u) sinc(u - d) du
        # with d = j - j'.  The integrand is band-limited, so the trapezoid
        # lattice sum is exact up to truncation; the truncated tail carries a
        # slowly decaying non-oscillatory part, integrable in closed form:
        # int_{|u|>R} cos(pi d)/(2 pi^2 u (u-d)) du = cos(pi d)/(pi^2 R) + O(R^-3),
        # while the oscillatory remainder is O(R^-2).
        step = 0.125
        big_r = 2.0e4
        u = np.arange(-big_r, big_r, step)
        for j in range(-2, 3):
            for jp in range(-2, 3):
                d = j - jp
                lattice = float(np.sum(np.sinc(u - j) * np.sinc(u - jp)) * step)
                ip = lattice + np.cos(np.pi * d) / (np.pi ** 2 * big_r)
                assert ip == pytest.approx(1.0 if j == jp else 0.0, abs=1e-8)

    def test_level_validation(self):
        with pytest.raises(ParameterError):
            sinc_basis(0, 0, 0.5)


@pytest.mark.parametrize("L", [0, -1])
@pytest.mark.parametrize("call", [
    lambda L: ppe_coefficients(np.array([0.3, -1.2, 2.0]), L, 4),
    lambda L: u_basis(np.array([0.3, -1.2]), L, 2),
    lambda L: render_sinc_expansion(np.ones(5), L, np.linspace(-3, 3, 16)),
], ids=["ppe_coefficients", "u_basis", "render_sinc_expansion"])
def test_level_below_one_is_a_parameter_error(call, L):
    # the level is checked before k_n / L or j / L is formed
    with pytest.raises(ParameterError):
        call(L)


class TestUBasis:
    def test_no_noise_reduces_to_sinc(self):
        # u_{psi_{L,j}} with the noise-free spectrum 1 is psi_{L,j} (L = 2, j = 1)
        ys = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(
            fourier_quad(lambda s: 1.0, 2 * np.pi, ys - 0.5) / np.sqrt(2),
            sinc_basis(2, 1, ys), atol=1e-10)

    def test_shift_identity(self):
        ys = np.array([0.37, -2.2, 5.5, 11.0])
        for L, j in ((1, 4), (3, -5), (2, 17)):
            np.testing.assert_array_equal(u_basis(ys, L, j),
                                          u_basis(ys - j / L, L, 0))

    def test_mean_identity_on_pure_convolution(self):
        # E u_h(Y) = <h, g> for h = psi_{2,1} and g = N(0,1)
        target, _ = quad(lambda x: sinc_basis(2, 1, x)
                         * np.exp(-x * x / 2) / np.sqrt(2 * np.pi),
                         -40, 40, limit=800)
        vals = []
        for rep in range(400):
            pc = PureConvolution(0.0, 1.0, 200, seed=62000 + rep)
            vals.append(np.mean(u_basis(pc.draw(), 2, 1)))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) < 3 * se

    def test_overflow_guard(self):
        with pytest.raises(ParameterError):
            u_band(MAX_LEVEL + 1)

    def test_top_level_table_builds(self):
        # the band edge pi L of the top level keeps 1/phi_k finite
        assert np.all(np.isfinite(u_zero_table(MAX_LEVEL, 1.0).raw()))


class TestCoefficientsAndContrast:
    def test_single_observation_single_u_evaluation(self):
        y = np.array([1.234])
        coeffs = ppe_coefficients(y, 2, 3)
        expect = np.array([u_basis(1.234, 2, j) for j in range(-3, 4)])
        np.testing.assert_allclose(coeffs, expect, rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=80)
        np.testing.assert_allclose(ppe_coefficients(y, 2, 10),
                                   ppe_coefficients(y[::-1].copy(), 2, 10),
                                   rtol=1e-13)

    def test_unbiasedness_against_quadrature(self):
        # MC mean of a_hat_{2,j} matches <psi_{2,j}, g> for g = N(0,1)
        targets = {}
        for j in (-1, 0, 2):
            targets[j], _ = quad(lambda x, j=j: sinc_basis(2, j, x)
                                 * np.exp(-x * x / 2) / np.sqrt(2 * np.pi),
                                 -40, 40, limit=800)
        draws = {j: [] for j in targets}
        for rep in range(400):
            pc = PureConvolution(0.0, 1.0, 150, seed=63000 + rep)
            coeffs = ppe_coefficients(pc.draw(), 2, 2)
            for j in targets:
                draws[j].append(coeffs[j + 2])
        for j, target in targets.items():
            vals = np.array(draws[j])
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean() - target) < 3 * se

    def test_contrast_values(self):
        assert contrast(np.zeros(5)) == 0.0
        assert contrast(np.array([0.7])) == pytest.approx(-0.49)

    def test_empirical_contrast_minimized_at_coefficients(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=120)
        a_hat = ppe_coefficients(y, 2, 6)
        base = empirical_contrast(a_hat, a_hat)
        assert base == pytest.approx(contrast(a_hat), rel=1e-12)
        for idx in (0, 5, 12):
            for eps in (1e-3, -1e-3):
                perturbed = a_hat.copy()
                perturbed[idx] += eps
                assert empirical_contrast(perturbed, a_hat) > base

    # rtol is relative to max |oracle| at the level, three times the error the
    # table path showed when the case was added
    @pytest.mark.parametrize("L, coeff_rtol, contrast_rtol", [
        (1, 1.2e-7, 2.3e-7), (2, 9.9e-8, 2.0e-7), (4, 1.6e-7, 3.1e-7), (8, 7.0e-7, 1.6e-6)],
        ids=["L1", "L2", "L4", "L8"])
    def test_coefficients_match_fourier_oracle(self, L, coeff_rtol, contrast_rtol):
        # a_{L,j} for |j| <= K_n = 20 from direct ECF sums at Gauss-Legendre
        # nodes: no FFT, no bridge and no table
        y = PureConvolution(0.0, 1.0, 200, seed=64000).draw()
        oracle = ppe_oracle_coefficients(y, L, 20)
        a_hat = ppe_coefficients(y, L, 20)
        assert np.max(np.abs(a_hat - oracle)) <= coeff_rtol * np.max(np.abs(oracle))
        assert contrast(a_hat) == pytest.approx(contrast(oracle), rel=contrast_rtol)

    #: max |a_hat - oracle| / max |oracle| at L = 1..8 on the sample above,
    #: measured with the 8-point stencil at TABLE_STRIDE = 16 (3.9e-8 to
    #: 2.3e-7 with the 4-point cubic at 72)
    ORACLE_ERROR = (7.3e-10, 5.6e-10, 1.5e-9, 2.7e-9, 5.2e-9, 7.4e-9, 9.6e-9, 2.5e-8)

    def test_coefficients_at_every_level_within_the_stencil_error(self):
        # 3x the error measured at each level, K_n = 20
        y = PureConvolution(0.0, 1.0, 200, seed=64000).draw()
        for L, error in enumerate(self.ORACLE_ERROR, start=1):
            oracle = ppe_oracle_coefficients(y, L, 20)
            a_hat = ppe_coefficients(y, L, 20)
            assert np.max(np.abs(a_hat - oracle)) <= 3 * error * np.max(np.abs(oracle)), L

    def test_contrast_nonincreasing_in_truncation(self):
        rng = np.random.default_rng(23)
        y = rng.normal(size=200)
        values = [contrast(ppe_coefficients(y, 2, k)) for k in (2, 5, 10, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestPhiKIntegralAndPenalty:
    def test_closed_form_value(self):
        # (2/pi) sinh(pi^2), quadrature-verified
        assert phi_k_integral(1) == pytest.approx(6154.1043523099615, rel=1e-12)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_closed_form_matches_quadrature(self, L):
        q, _ = quad(lambda s: np.cosh(np.pi * s), -np.pi * L, np.pi * L,
                    epsrel=1e-12, limit=400)
        assert phi_k_integral(L) == pytest.approx(q, rel=1e-8)

    def test_strictly_increasing(self):
        vals = [phi_k_integral(L) for L in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_log_increment_approaches_pi_squared(self):
        diff = np.log(phi_k_integral(5)) - np.log(phi_k_integral(4))
        assert diff == pytest.approx(np.pi ** 2, abs=1e-6)

    def test_overflow_bound(self):
        phi_k_integral(MAX_LEVEL)  # largest representable level
        with pytest.raises(ParameterError):
            phi_k_integral(MAX_LEVEL + 1)

    def test_penalty_formula(self):
        base = penalty(1, 10_000, 1.0)
        assert base == pytest.approx(2 * 6154.1043523099615 / 1e4, rel=1e-12)
        assert penalty(1, 10_000, 2.0) == pytest.approx(2 * base, rel=1e-14)
        assert penalty(1, 10_000_000, 1.0) < base


class TestSelection:
    def test_large_kappa_selects_smallest_level(self):
        rng = np.random.default_rng(31)
        y = rng.normal(size=500)
        est = select_and_estimate(y, PpeConfig(kappa=1e9))
        assert est.selected_level == 1

    def test_selected_level_in_candidate_range(self):
        rng = np.random.default_rng(32)
        y = rng.normal(size=800)
        est = select_and_estimate(y, PpeConfig())
        assert 1 <= est.selected_level <= int(np.floor(np.log(800)))
        assert est.k_n == 800
        assert set(est.contrasts) == set(range(1, int(np.floor(np.log(800))) + 1))

    def test_tie_breaks_to_smallest(self):
        # argmin over the sorted candidate list returns the first of equals;
        # force a tie by duplicating a level
        rng = np.random.default_rng(33)
        y = rng.normal(size=300)
        est = select_and_estimate(y, PpeConfig(levels=(2, 1, 2), k_n=50))
        scores = {L: est.contrasts[L] + est.penalties[L] for L in est.contrasts}
        assert est.selected_level == min(scores, key=lambda L: (scores[L], L))

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ParameterError, match="kappa must be finite"):
            PpeConfig(kappa=kappa)

    def test_overflow_levels_rejected_loudly(self):
        rng = np.random.default_rng(34)
        y = rng.normal(size=100)
        with pytest.raises(ConfigError):
            select_and_estimate(y, PpeConfig(levels=(1, MAX_LEVEL + 5), k_n=10))

    def test_render_matches_manual_expansion(self):
        rng = np.random.default_rng(35)
        y = rng.normal(size=150)
        est = select_and_estimate(y, PpeConfig(k_n=40), grid=np.linspace(-3, 3, 21))
        L = est.selected_level
        js = np.arange(-40, 41)
        manual = np.array([np.sum(est.coefficients[L] * sinc_basis(L, 0, 0) / np.sqrt(L)
                                  * np.sinc(L * x - js)) * np.sqrt(L)
                           for x in est.density.x])
        np.testing.assert_allclose(est.density.values, manual, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("L", [1, 9, 70])
    def test_render_matches_dense_sinc_sum(self, L):
        # a uniform grid, grid points with L x an exact integer (inside and
        # beyond |j| <= K) and L x within 1e-12 of one
        rng = np.random.default_rng(36 + L)
        coeffs = rng.normal(size=601)
        ints = np.arange(-320.0, 321.0, 7.0)
        grid = np.concatenate([np.linspace(-4.0, 3.0, 301), np.arange(-5.0, 6.0),
                               ints / L, (ints + rng.uniform(-1e-12, 1e-12, ints.size)) / L])
        z = L * grid
        assert np.sum(z == np.rint(z)) >= 11 and np.sum(np.abs(z - np.rint(z)) < 2e-12) > 100
        dense = sinc_expansion_dense(coeffs, L, grid)
        np.testing.assert_allclose(render_sinc_expansion(coeffs, L, grid), dense,
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(dense)))

    def test_render_rejects_even_coefficient_count(self):
        # K_n is read from the 2K_n+1 coefficients; an even count covers no [-K_n, K_n]
        with pytest.raises(DataError):
            render_sinc_expansion(np.ones(6), 2, np.linspace(-3, 3, 16))

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            select_and_estimate(np.array([1.0, 2.0]), PpeConfig())
