"""Tests for the nonlinear-AR scenario and the deconvolution regression estimator."""

import numpy as np
import pytest

from reference import band_quad, regression_residual_field, simulate_discrete_ar
from voldens.errors import DataError, ParameterError
from voldens.kerneldeconv import kernel_band
from voldens.svsim import ArParams, simulate_ar_logvol
from voldens.volreg import NOISE_MEAN, default_regression_bandwidth, regression_estimate


def ar_observations(params: ArParams, n: int, seed: int):
    """(Y_1..Y_n, xi_1..xi_n) of the discrete-time model."""
    series, vol = simulate_discrete_ar(params, n, seed)
    return series.log_squared, vol.log_sigma2[:n]


class TestArScenario:
    def test_stability_rejects_identity_map(self):
        with pytest.raises(ParameterError):
            ArParams("linear", slope=1.0)

    def test_stability_accepts_contraction_and_tanh(self):
        ArParams("linear", slope=0.9)
        ArParams("tanh", scale=50.0)

    def test_stability_is_exact_for_a_large_intercept(self):
        # AR(1) with |slope| < 1 is stationary whatever its intercept
        ArParams("linear", slope=0.99, intercept=10.0)

    @pytest.mark.parametrize("slope", [1.5, -1.0, float("nan")])
    def test_unstable_slope_rejected_by_the_parameters(self, slope):
        with pytest.raises(ParameterError, match="stability"):
            ArParams("linear", slope=slope)

    def test_constant_regression_stationary_law(self):
        # m == c: xi_t = c + eta_{t-1}, stationary N(c, sd^2)
        _, xi = ar_observations(ArParams("linear", slope=0.0, intercept=1.4,
                                         innovation_sd=0.6), n=40_000, seed=5)
        assert abs(xi.mean() - 1.4) < 3 * 0.6 / np.sqrt(xi.size)
        assert abs(xi.var() - 0.36) < 3 * 0.36 * np.sqrt(2 / xi.size)

    def test_linear_regression_stationary_law(self):
        # AR(1): N(0, sd^2 / (1 - a^2)); autocorrelation inflates the moment SEs
        _, xi = ar_observations(ArParams("linear", slope=0.5, innovation_sd=1.0),
                                n=40_000, seed=6)
        var_target = 1.0 / 0.75
        n_eff = xi.size * (1 - 0.5) / (1 + 0.5)
        assert abs(xi.mean()) < 3 * np.sqrt(var_target / n_eff)
        assert abs(xi.var() - var_target) < 3 * var_target * np.sqrt(2 / n_eff)

    def test_observation_is_signal_plus_noise(self):
        y, xi = ar_observations(ArParams("linear", slope=0.3), n=5000, seed=7)
        _assert_log_chi2_moments(y - xi)

    def test_reproducibility(self):
        params = ArParams("linear", slope=0.5)
        y1, x1 = ar_observations(params, n=500, seed=4)
        y2, x2 = ar_observations(params, n=500, seed=4)
        assert np.array_equal(y1, y2) and np.array_equal(x1, x2)


def _assert_log_chi2_moments(eps):
    # eps is log Z^2: mean -(gamma + log 2), variance pi^2/2, and the
    # fourth cumulant psi'''(1/2) = pi^4 drives the variance-of-variance
    assert abs(eps.mean() - NOISE_MEAN) < 3 * np.sqrt(np.pi ** 2 / 2 / eps.size)
    se_var = np.sqrt((np.pi ** 4 + 2 * (np.pi ** 2 / 2) ** 2) / eps.size)
    assert abs(eps.var() - np.pi ** 2 / 2) < 3 * se_var


@pytest.mark.parametrize("function", ["linear", "tanh"])
def test_xi_is_the_svsim_ar_path(function):
    # the scenario's xi is the svsim chain run from xi = 0 past its burn-in
    params = ArParams(function, slope=0.6, intercept=0.1, scale=0.8, innovation_sd=0.7)
    n, seed = 800, 12
    _, xi = ar_observations(params, n, seed)
    path = simulate_ar_logvol(params.regression(), params.innovation_sd, n - 1, seed)
    assert np.array_equal(xi, path)


@pytest.mark.parametrize("function", ["linear", "tanh"])
def test_nonlinear_ar_scenario_is_the_discrete_time_model(function):
    # one substep per unit gap: the observation is Y_t = xi_t + log Z_t^2 with
    # xi the svsim chain itself, as in the discrete-time model
    params = ArParams(function, slope=0.6, intercept=0.1, scale=0.8, innovation_sd=0.7)
    n, seed = 20_000, 31
    series, vol = simulate_discrete_ar(params, n, seed)
    xi = simulate_ar_logvol(params.regression(), params.innovation_sd, n, seed)[:n]
    assert np.array_equal(vol.log_sigma2[:n], xi)
    assert np.array_equal(series.xi, xi)
    _assert_log_chi2_moments(series.log_squared - xi)



class TestRegressionBandwidth:
    def test_formula(self):
        n = round(np.e ** 10)
        assert default_regression_bandwidth(n, 4.0) == pytest.approx(0.4, rel=1e-4)

    def test_warns_below_pi(self):
        with pytest.warns(UserWarning):
            default_regression_bandwidth(1000, 3.0)

    def test_decreasing_in_n(self):
        hs = [default_regression_bandwidth(n, 4.0) for n in (100, 1000, 10_000)]
        assert hs[0] > hs[1] > hs[2]


class TestRegressionEstimate:
    def test_constant_response_gives_constant_estimate(self):
        # Y_{j+1} == c for every transition: numerator = (c - NOISE_MEAN) *
        # denominator, so the corrected quotient is c - NOISE_MEAN wherever unmasked
        c = 0.8
        y = np.concatenate([[1.7], np.full(60, c)])
        grid = np.linspace(-1, 2, 31)
        est = regression_estimate(y, 0.5, grid)
        unmasked = ~est.mask
        assert unmasked.any()
        np.testing.assert_allclose(est.m_hat[unmasked], c - NOISE_MEAN, rtol=1e-12)

    def test_non_uniform_grid_matches_quadrature_sums(self):
        # numerator and denominator on a non-uniform grid against quadrature of
        # v_h; each bound is three times the error measured when any increasing
        # grid became readable (9.6e-10 and 3.2e-9)
        rng = np.random.default_rng(21)
        y = rng.normal(-1.0, 1.5, 9)
        grid = np.sort(rng.uniform(-3.0, 2.0, 15))
        h = 0.4
        est = regression_estimate(y, h, grid)
        v = np.array([band_quad(kernel_band(h), (x - y[:-1]) / h) for x in grid]) / h
        den, num = v.mean(axis=1), (v * (y[1:] - NOISE_MEAN)).mean(axis=1)
        assert np.max(np.abs(est.denominator - den)) <= 2.9e-9 * np.max(np.abs(den))
        assert np.max(np.abs(est.numerator - num)) <= 9.5e-9 * np.max(np.abs(num))

    def test_non_increasing_grid_rejected(self):
        y = np.random.default_rng(4).normal(size=50)
        with pytest.raises(DataError):
            regression_estimate(y, 0.5, np.array([-1.0, 0.5, 0.0, 2.0]))

    def test_quotient_structure_exact(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=300)
        grid = np.linspace(-2, 2, 41)
        est = regression_estimate(y, 0.6, grid)
        unmasked = ~est.mask
        np.testing.assert_allclose(est.numerator[unmasked],
                                   est.m_hat[unmasked] * est.denominator[unmasked],
                                   rtol=1e-13)

    def test_decomposition_identity(self):
        # m_hat(x) - m(x) = p_nh(x) / f_nh(x) to 1e-12, pure algebra on the
        # shared kernel evaluations
        rng = np.random.default_rng(2)
        y = rng.normal(size=250)
        grid = np.linspace(-1.5, 1.5, 37)
        est = regression_estimate(y, 0.5, grid)
        m = lambda x: 0.5 * x
        p = regression_residual_field(est, m)
        unmasked = ~est.mask
        lhs = est.m_hat[unmasked] - m(est.x[unmasked])
        rhs = p[unmasked] / est.denominator[unmasked]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shift_equivariance(self):
        # estimating from Y + c on grid + c adds c to the regression values
        rng = np.random.default_rng(3)
        y = rng.normal(size=200)
        c = 1.7
        grid = np.linspace(-1, 1, 21)
        a = regression_estimate(y, 0.5, grid)
        b = regression_estimate(y + c, 0.5, grid + c)
        keep = ~(a.mask | b.mask)
        np.testing.assert_allclose(b.m_hat[keep], a.m_hat[keep] + c,
                                   rtol=1e-9, atol=1e-9)

    def test_masking_and_degenerate_data(self):
        y = np.array([0.0, 0.1, -0.1, 0.2])
        grid = np.linspace(400.0, 410.0, 5)  # far from all data: density ~ 0
        with pytest.raises(DataError):
            regression_estimate(y, 0.3, grid)

    def test_constant_scenario_recovery(self):
        # on the constant-m scenario the estimate hovers at the constant
        c = 0.5
        devs = []
        for rep in range(10):
            y, _ = ar_observations(ArParams("linear", slope=0.0, intercept=c,
                                            innovation_sd=0.8), n=4000, seed=500 + rep)
            grid = np.linspace(c - 0.8, c + 0.8, 21)
            est = regression_estimate(y, 3.5 / np.log(4000), grid)
            devs.append(np.nanmean(est.m_hat[~est.mask]) - c)
        devs = np.array(devs)
        se = devs.std(ddof=1) / np.sqrt(devs.size)
        assert abs(devs.mean()) < max(3 * se, 0.02)

    def test_calibrated_error_threshold_linear_scenario(self):
        # frozen from a brute-force calibration run (max error 0.29 across 20
        # seeds at these settings; 0.45 leaves headroom for one fixed seed)
        n = 20_000
        y, _ = ar_observations(ArParams("linear", slope=0.5, innovation_sd=1.0),
                               n=n, seed=903)
        sd = 1.0 / np.sqrt(0.75)
        q = 0.6744897501960817 * sd
        grid = np.linspace(-q, q, 81)
        est = regression_estimate(y, 3.5 / np.log(n), grid)
        err = np.nanmax(np.abs(est.m_hat - 0.5 * grid))
        assert err < 0.45

    def test_bandwidth_validation(self):
        with pytest.raises(ParameterError):
            regression_estimate(np.array([0.0, 1.0]), -0.5, np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("h, floor", [(float("nan"), 1e-4), (float("inf"), 1e-4),
                                          (0.5, float("nan")), (0.5, float("inf"))])
    def test_non_finite_bandwidth_or_floor_rejected(self, h, floor):
        with pytest.raises(ParameterError, match="must be finite"):
            regression_estimate(np.array([0.0, 1.0]), h, np.linspace(-1, 1, 5), floor)

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_non_positive_floor_rejected(self, floor):
        # |denominator| < floor is never true then: the mask was switched off
        with pytest.raises(ParameterError, match="^floor must be positive"):
            regression_estimate(np.array([0.0, 1.0]), 0.5, np.linspace(-1, 1, 5), floor)
