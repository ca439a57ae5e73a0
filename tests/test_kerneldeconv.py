"""Tests for the Fourier deconvolution kernel estimator."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from reference import band_quad, fourier_quad
from voldens._tables import Table1D, fourier_table
from voldens.errors import DataError, ParameterError
from voldens.kerneldeconv import (MIN_BANDWIDTH, TABLE_STEP, check_gamma_constraint,
                                  deconv_kernel_table, default_bandwidth, estimate_density,
                                  kernel_band, wand_charfn, wand_kernel)
from voldens.metrics import PureConvolution, mise
from voldens.grids import DensityGrid
from voldens.svsim import OuParams, ScenarioConfig, simulate_scenario
from voldens.volreg import regression_estimate


class TestWandKernel:
    def test_value_at_zero(self):
        # (1/2pi) int_{-1}^{1} (1-t^2)^3 dt = 16/(35 pi)
        assert wand_kernel(0.0) == pytest.approx(16.0 / (35.0 * np.pi), abs=1e-15)

    def test_symmetry(self):
        xs = np.array([0.1, 0.3, 0.49, 0.51, 1.7, 6.0, 25.0])
        np.testing.assert_array_equal(wand_kernel(xs), wand_kernel(-xs))

    def test_matches_elementary_closed_form(self):
        # the j_3 form and the elementary closed form are the same function
        for x in (0.45, 0.5, 0.55, 0.6):
            closed = (48 * x * (x * x - 15) * np.cos(x)
                      - 144 * (2 * x * x - 5) * np.sin(x)) / (np.pi * x ** 7)
            assert wand_kernel(x) == pytest.approx(closed, abs=5e-12)

    def test_matches_fourier_inversion(self):
        # w is the inverse transform of its characteristic function
        for x in (0.2, 1.0, 3.3):
            val, _ = quad(lambda t: (1 - t * t) ** 3 * np.cos(t * x), 0, 1,
                          epsabs=1e-13)
            assert wand_kernel(x) == pytest.approx(val / np.pi, abs=1e-12)

    @pytest.mark.parametrize("x", [0.51, 0.544, 0.6, 1.0])
    def test_full_precision_where_closed_form_cancels(self, x):
        val, _ = quad(lambda t: (1 - t * t) ** 3 * np.cos(t * x), 0, 1, epsabs=1e-13)
        assert wand_kernel(x) == pytest.approx(val / np.pi, abs=1e-14)


class TestWandCharFn:
    def test_at_zero_and_support(self):
        assert wand_charfn(0.0) == 1.0
        assert wand_charfn(1.0) == 0.0
        assert wand_charfn(1.0001) == 0.0
        assert wand_charfn(-2.0) == 0.0

    def test_boundary_exponent(self):
        # phi_w(1-s) = 8 s^3 (1 + o(1)): exponent rho = 3, constant A = 8
        s = 1e-3
        assert wand_charfn(1 - s) / s ** 3 == pytest.approx(8.0, rel=0.01)

    def test_second_derivative_at_zero(self):
        # -phi_w''(0) = 6 = int u^2 w(u) du
        h = 1e-4
        d2 = (wand_charfn(h) - 2 * wand_charfn(0.0) + wand_charfn(-h)) / h ** 2
        assert d2 == pytest.approx(-6.0, abs=1e-5)


class TestDeconvKernel:
    def test_no_noise_reduces_to_wand(self):
        # the quadrature with the noise-free spectrum phi_w is the plain kernel w
        xs = np.array([-2.0, -0.4, 0.0, 1.3, 5.0])
        np.testing.assert_allclose(fourier_quad(wand_charfn, 1.0, -xs),
                                   wand_kernel(xs), atol=1e-10)

    def test_asymmetry_of_the_deconvolution_kernel(self):
        # the noise characteristic function is complex (the noise has nonzero
        # mean and skew), so v_h is real but NOT even; both evaluation routes
        # must agree on that
        h = 0.4
        v_plus = band_quad(kernel_band(h), 1.0)
        v_minus = band_quad(kernel_band(h), -1.0)
        assert v_plus == pytest.approx(0.3346384, abs=1e-5)
        assert v_minus == pytest.approx(0.3677208, abs=1e-5)
        table = deconv_kernel_table(h, 16.0)
        assert table(1.0) == pytest.approx(v_plus, abs=1e-7)
        assert table(-1.0) == pytest.approx(v_minus, abs=1e-7)

    def test_bandwidth_validation(self):
        with pytest.raises(ParameterError):
            kernel_band(-0.1)
        with pytest.raises(ParameterError):
            deconv_kernel_table(1e-4, 10.0)
        for h in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="bandwidth must be finite"):
                estimate_density(np.zeros(3), h)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bandwidth_rejected_before_any_table(self, h):
        # nan reached NumericsError from the spectrum samples; inf built the
        # plain Wand kernel's table
        with pytest.raises(ParameterError, match="bandwidth must be positive and finite"):
            deconv_kernel_table(h, 10.0)

    def test_smallest_bandwidth_evaluates_its_band_edge(self):
        # s/h reaches 1/h at s = +-1, which may not pass CHARFN_CUTOFF; at
        # pi/700 itself it did, by one ulp
        band = kernel_band(MIN_BANDWIDTH)
        assert np.all(np.isfinite(band.spectrum(np.array([-1.0, 1.0]), band.param)))
        with pytest.raises(ParameterError):
            kernel_band(np.nextafter(MIN_BANDWIDTH, 0.0))


class TestEstimateDensity:
    def test_single_observation_is_one_kernel_term(self):
        # one observation: the sums on the table lattice u_k = k TABLE_STEP are
        # v_h(u_k - Y/h) itself, and the estimate reads them at x/h through the
        # 8-point stencil; the FFT correlation reproduces them up to float rounding
        y = np.array([1.3])
        h = 0.6
        grid = np.linspace(-2, 4, 41)
        rep = estimate_density(y, h, grid)
        table = deconv_kernel_table(h, 16.0)  # the estimator's table: same range bucket
        u = TABLE_STEP * np.arange(-200, 300)  # covers grid / h with room for the stencil
        lattice = Table1D(u[0], TABLE_STEP, table(u - 1.3 / h))
        expect = lattice(grid / h) / h
        np.testing.assert_allclose(rep.density.values, expect,
                                   rtol=0, atol=1e-13 * np.max(np.abs(expect)))
        # the second read moves it by rounding only against the table read
        # directly: 1.5e-15 (a 4-point cubic read costs 1.0e-9)
        direct = table((grid - 1.3) / h) / h
        assert np.max(np.abs(expect - direct)) <= 3.1e-9 * np.max(np.abs(direct))
        # and the same x reads the same value from any grid that contains it
        sub = estimate_density(y, h, grid[7:30:3])
        np.testing.assert_allclose(sub.density.values, rep.density.values[7:30:3],
                                   rtol=0, atol=1e-13 * np.max(np.abs(expect)))

    # the kernel sums against quadrature of v_h at h = 0.4, 0.25 and 0.7, on a
    # uniform grid and on a non-uniform one, which the grid-derived table step
    # that TABLE_STEP replaced could not read.  The uniform-grid bounds are three
    # times the error measured when the step became TABLE_STEP (1.0e-9, 3.3e-9
    # and 1.7e-10); the non-uniform ones (measured 8.0e-10, 2.7e-9 and 1.7e-10)
    # are a third of the old step's uniform-grid error (7.8e-9, 3.2e-8, 2.6e-9)
    ORACLE_CASES = ((0.4, 3.1e-9, 2.6e-9), (0.25, 1.0e-8, 1.05e-8), (0.7, 5.2e-10, 8.7e-10))

    @staticmethod
    def _oracle_error(h, grid):
        y = np.random.default_rng(21).normal(-1.0, 1.5, 8)
        est = estimate_density(y, h, grid).density.values
        direct = np.array([np.mean(band_quad(kernel_band(h), (x - y) / h)) / h for x in grid])
        return np.max(np.abs(est - direct)) / np.max(np.abs(direct))

    def test_strided_lattice_matches_quadrature_sums(self):
        for h, rtol, _ in self.ORACLE_CASES:
            assert self._oracle_error(h, np.linspace(-3, 5, 15)) <= rtol, h

    def test_non_uniform_grid_matches_quadrature_sums(self):
        grid = np.sort(np.random.default_rng(22).uniform(-3.0, 5.0, 15))
        for h, _, rtol in self.ORACLE_CASES:
            assert self._oracle_error(h, grid) <= rtol, h

    def test_non_increasing_grid_rejected(self):
        y = np.array([0.1, 0.5, 1.2])
        with pytest.raises(DataError):
            estimate_density(y, 0.5, np.array([-1.0, 0.5, 0.0, 2.0]))

    def test_fine_grid_keeps_a_coarse_table(self):
        # grid step / h ~ 1.7e-3, far below TABLE_STEP: the grid only changes
        # where the sums are read, not the table, whose step stays TABLE_STEP
        config = ScenarioConfig("ou-exp", OuParams(0.5, 0.0, 1.0), 0.05, 300)
        series, _ = simulate_scenario(config)
        y = series.log_squared
        h = np.pi / np.log(y.size)
        est = estimate_density(y, h, grid_points=20_000).density
        x_half = max(est.x[-1] - np.min(y), np.max(y) - est.x[0]) / h
        assert deconv_kernel_table(h, x_half).dx == TABLE_STEP
        fine = replace(kernel_band(h), step=TABLE_STEP / 8).table(x_half, fourier_table)
        direct = np.mean([fine((est.x - yj) / h) for yj in y], axis=0) / h
        assert np.max(np.abs(est.values - direct)) <= 1e-8 * np.max(np.abs(direct))

    def test_one_table_per_bandwidth(self, monkeypatch):
        # six samples, each on its own data-dependent default grid, and a
        # regression on yet another grid: one cold table build serves them all
        import voldens.kerneldeconv as kd
        builds = []
        monkeypatch.setattr(kd, "fourier_table",
                            lambda *a, **k: builds.append(1) or fourier_table(*a, **k))
        h = 0.4321  # no other test builds this bandwidth's table
        rng = np.random.default_rng(12)
        for _ in range(6):
            estimate_density(rng.normal(-1.0, 1.5, 500), h)
        regression_estimate(rng.normal(-1.0, 1.5, 500), h, np.linspace(-2.0, 1.0, 77))
        assert len(builds) == 1

    def test_shift_equivariance(self):
        # exact as a change of variables; float addition leaves ~1e-16 residue
        rng = np.random.default_rng(5)
        y = rng.normal(size=200)
        c = 2.5
        grid = np.linspace(-3, 3, 101)
        a = estimate_density(y, 0.5, grid)
        b = estimate_density(y + c, 0.5, grid + c)
        np.testing.assert_allclose(a.density.values, b.density.values,
                                   rtol=1e-10, atol=1e-12)

    def test_linearity_over_concatenation(self):
        rng = np.random.default_rng(8)
        y1, y2 = rng.normal(size=150), rng.normal(size=50)
        grid = np.linspace(-4, 4, 64)
        est1 = estimate_density(y1, 0.45, grid).density.values
        est2 = estimate_density(y2, 0.45, grid).density.values
        both = estimate_density(np.concatenate([y1, y2]), 0.45, grid).density.values
        np.testing.assert_allclose(both, (150 * est1 + 50 * est2) / 200, rtol=1e-12)

    def test_default_grid_covers_sample_range_plus_padding(self):
        y = np.array([-3.0, 0.0, 4.0])
        rep = estimate_density(y, 0.5)
        lo, hi = rep.density.span
        assert lo == pytest.approx(-3.0 - 1.5) and hi == pytest.approx(4.0 + 1.5)
        assert rep.diagnostics["grid_span"] == (lo, hi)

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            estimate_density(np.array([]), 0.5)

    def test_negative_values_allowed(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=400)
        grid = np.linspace(-6, 6, 201)
        raw = estimate_density(y, 0.3, grid)
        assert raw.density.signed and np.any(raw.density.values < 0)

    def test_observation_series_input_carries_zero_count(self):
        from voldens.svsim import ObservationSeries
        series = ObservationSeries(np.array([0.0, 1.0, 1.0, 1.5]), delta=1.0)
        rep = estimate_density(series, 5.0)
        assert rep.diagnostics["zero_increment_count"] == 1

    def test_expectation_matches_quadrature_oracle(self):
        # E f_nh(0) = (1/2pi) int phi_w(th) e^{-t^2/2} dt for xi ~ N(0,1):
        # the independent route that pins the estimator's exact bias
        h = 0.75
        target, _ = quad(lambda t: (1 - (t * h) ** 2) ** 3 * np.exp(-t * t / 2)
                         / (2 * np.pi), -1 / h, 1 / h, epsabs=1e-13)
        assert target == pytest.approx(0.1769383070334627, abs=1e-12)
        vals = []
        for rep in range(60):
            pc = PureConvolution(0.0, 1.0, 2000, seed=41000 + rep)
            est = estimate_density(pc.draw(), h, np.array([-1.0, 0.0, 1.0]))
            vals.append(est.density.values[1])
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) < 4 * se


class TestBandwidthRule:
    def test_formula(self):
        n = round(np.e ** 10)
        assert default_bandwidth(n, 5.0) == pytest.approx(5 * np.pi / 10, rel=1e-4)

    def test_monotone_decreasing(self):
        hs = [default_bandwidth(n, 1.0) for n in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            default_bandwidth(2, 1.0)

    def test_gamma_constraint_warning(self):
        # Delta = n^{-delta_exp}: at n = 1e4, Delta = 0.01 gives delta_exp = 0.5,
        # so gamma must exceed 8
        with pytest.warns(UserWarning):
            assert not check_gamma_constraint(10_000, 0.01, 5.0)
        assert check_gamma_constraint(10_000, 0.01, 9.0)
        with pytest.warns(UserWarning):
            assert not check_gamma_constraint(10_000, 1.5, 100.0)


class TestVarianceDecay:
    def test_pointwise_variance_shrinks_with_n(self):
        # the variance bound is exercised empirically: replicated values of
        # f_nh(0) spread less at larger n for fixed h
        h = 0.6
        spreads = {}
        for n in (500, 4000):
            vals = []
            for rep in range(40):
                pc = PureConvolution(0.0, 1.0, n, seed=52000 + rep)
                est = estimate_density(pc.draw(), h, np.array([-1.0, 0.0, 1.0]))
                vals.append(est.density.values[1])
            spreads[n] = np.var(vals, ddof=1)
        assert spreads[4000] < spreads[500]
        # i.i.d. averaging scales variance like 1/n; allow wide MC slack
        assert spreads[4000] < 0.4 * spreads[500]


class TestConsistencyProperty:
    def test_l2_error_decreases_with_n_on_ou_scenario(self):
        grid = np.linspace(-6, 6, 512)
        truth = DensityGrid(grid, np.exp(-grid ** 2 / 2) / np.sqrt(2 * np.pi),
                            signed=False)
        wins = 0
        for rep in range(20):
            errs = {}
            for n in (1000, 10_000):
                sc = ScenarioConfig("ou-exp", OuParams(0.5, 0.0, 1.0), delta=0.05,
                                    n=n, substeps=16, vol_seed=100 + 2 * rep,
                                    price_seed=101 + 2 * rep)
                series, _ = simulate_scenario(sc)
                h = default_bandwidth(n, 1.0)
                est = estimate_density(series.log_squared, h, grid)
                errs[n] = mise(est.density, truth)
            wins += errs[10_000] < errs[1000]
        assert wins >= 16  # >= 80% of 20 seeded replications
