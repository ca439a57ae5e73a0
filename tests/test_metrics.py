"""Tests for error metrics and the Monte Carlo experiment harness."""

import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import find_peaks

from voldens.errors import ConfigError, DataError, ParameterError
from voldens.grids import DensityGrid
from voldens.kerneldeconv import estimate_density
from voldens.metrics import (ExperimentSpec, PureConvolution, _clipped_density,
                             default_evaluation_grid, mise, mode_count, normal_fit,
                             run_experiment, scenario_preset)
from voldens.ppe import select_and_estimate
from voldens.waveletdeconv import wavelet_estimate


def _normal_grid(x, mean=0.0, sd=1.0):
    return np.exp(-(x - mean) ** 2 / (2 * sd * sd)) / (sd * np.sqrt(2 * np.pi))


class TestMise:
    def test_zero_for_equal_grids(self):
        x = np.linspace(-1, 1, 50)
        g = DensityGrid(x, _normal_grid(x))
        assert mise(g, g) == 0.0

    def test_unit_box(self):
        x = np.linspace(0, 1, 101)
        est = DensityGrid(x, np.ones_like(x))
        truth = DensityGrid(x, np.zeros_like(x))
        assert mise(est, truth) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_shift_closed_form(self):
        # || N(0,1) - N(0.1,1) ||_2^2 = 2 (1 - exp(-0.01/4)) / (2 sqrt(pi)),
        # quadrature-verified before freezing
        closed = 2 * (1 - np.exp(-0.01 / 4)) / (2 * np.sqrt(np.pi))
        assert closed == pytest.approx(0.001408712334746715, abs=1e-15)
        oracle, _ = quad(lambda x: (_normal_grid(x) - _normal_grid(x, 0.1)) ** 2,
                         -12, 12, epsabs=1e-14)
        assert closed == pytest.approx(oracle, abs=1e-12)
        x = np.linspace(-10, 10, 20001)
        est = DensityGrid(x, _normal_grid(x))
        truth = DensityGrid(x, _normal_grid(x, 0.1))
        assert mise(est, truth) == pytest.approx(closed, rel=1e-6)

    def test_symmetry_and_nonnegativity(self):
        x = np.linspace(-2, 2, 64)
        a = DensityGrid(x, _normal_grid(x))
        b = DensityGrid(x, _normal_grid(x, 0.5))
        assert mise(a, b) == mise(b, a) > 0

    def test_grid_mismatch_rejected(self):
        a = DensityGrid(np.linspace(-1, 1, 20), np.ones(20))
        b = DensityGrid(np.linspace(-1, 1, 30), np.ones(30))
        with pytest.raises(DataError):
            mise(a, b)


def _random_curve(rng, case):
    """A curve on a random increasing grid: noisy bumps, plateaus (also at the
    edges), runs clipped to zero, or a 3-point grid, cycling with `case`."""
    size = 3 if case % 5 == 4 else int(rng.integers(3, 400))
    x = np.cumsum(rng.uniform(0.01, 0.1, size))
    kind = case % 5
    if kind == 0:  # noisy bumps
        centres = rng.uniform(x[0], x[-1], int(rng.integers(1, 5)))
        vals = sum(np.exp(-(x - c) ** 2 / rng.uniform(0.01, 1.0)) for c in centres)
        vals = vals + rng.normal(0.0, rng.uniform(0.0, 0.2), size)
    elif kind == 1:  # quantized: plateaus everywhere, edge plateaus included
        vals = rng.integers(0, 4, size).astype(float)
    elif kind == 2:  # long runs of equal values
        vals = np.repeat(rng.normal(size=size), rng.integers(1, 6, size))[:size]
    elif kind == 3:  # a random walk dipping below zero: clipped zero runs
        vals = np.cumsum(rng.normal(size=size)) + rng.normal(0.0, 2.0)
    else:  # 3 points
        vals = rng.integers(-1, 3, size).astype(float)
    vals[rng.integers(size)] = abs(vals.max()) + 1.0  # some positive mass
    return DensityGrid(x, vals)


class TestModeCount:
    def test_matches_find_peaks_on_random_curves(self):
        rng = np.random.default_rng(20)
        for case in range(1500):
            grid = _random_curve(rng, case)
            count = mode_count(grid)
            peaks, _ = find_peaks(_clipped_density(grid), prominence=0.05)
            assert type(count) is int
            assert count == peaks.size, case

    def test_floor_is_inclusive_as_in_find_peaks(self):
        # floors equal to a peak's own prominence: that peak counts
        rng = np.random.default_rng(21)
        for case in range(300):
            grid = _random_curve(rng, case)
            vals = _clipped_density(grid)
            _, props = find_peaks(vals, prominence=0.0)
            for floor in props["prominences"][:3]:
                assert mode_count(grid, floor) == find_peaks(vals, prominence=floor)[0].size

    def test_edge_plateaus_and_three_points(self):
        x3 = np.arange(3.0)
        assert mode_count(DensityGrid(x3, [0.0, 1.0, 0.0])) == 1
        assert mode_count(DensityGrid(x3, [1.0, 1.0, 0.0])) == 0
        assert mode_count(DensityGrid(x3, [0.0, 1.0, 1.0])) == 0
        x = np.arange(8.0)
        # a plateau touching either edge is not a peak; an interior one is
        assert mode_count(DensityGrid(x, [2, 2, 1, 0, 0, 1, 2, 2])) == 0
        assert mode_count(DensityGrid(x, [0, 2, 2, 2, 0, 0, 0, 0])) == 1

    def test_monotone_has_no_interior_modes(self):
        x = np.linspace(0, 1, 50)
        assert mode_count(DensityGrid(x, np.exp(x))) == 0

    def test_single_gaussian(self):
        x = np.linspace(-5, 5, 301)
        assert mode_count(DensityGrid(x, _normal_grid(x))) == 1

    def test_separated_two_bump_mixture(self):
        x = np.linspace(-6, 6, 601)
        vals = 0.5 * _normal_grid(x, -2, 0.5) + 0.5 * _normal_grid(x, 2, 0.5)
        assert mode_count(DensityGrid(x, vals)) == 2

    def test_prominence_floor_suppresses_ripples(self):
        # phase offset keeps ripple peaks from tying exactly at the summit
        x = np.linspace(-5, 5, 801)
        vals = _normal_grid(x) + 0.003 * np.sin(40 * x + 0.3) ** 2
        assert mode_count(DensityGrid(x, vals), prominence=0.05) == 1
        assert mode_count(DensityGrid(x, vals), prominence=0.0001) > 1


class TestNormalFit:
    def test_self_fit(self):
        x = np.linspace(-8, 8, 2001)
        mean, var, fitted = normal_fit(DensityGrid(x, _normal_grid(x)))
        assert abs(mean) < 1e-4 and abs(var - 1.0) < 1e-4
        np.testing.assert_allclose(fitted.values, _normal_grid(x), atol=1e-4)

    def test_shift_equivariance(self):
        x = np.linspace(-8, 12, 2001)
        m0, v0, _ = normal_fit(DensityGrid(x, _normal_grid(x)))
        m1, v1, _ = normal_fit(DensityGrid(x, _normal_grid(x, 2.5)))
        assert m1 - m0 == pytest.approx(2.5, abs=1e-6)
        assert v1 == pytest.approx(v0, abs=1e-6)

    def test_mixture_variance_exceeds_components(self):
        x = np.linspace(-9, 9, 2001)
        vals = 0.5 * _normal_grid(x, -2, 0.7) + 0.5 * _normal_grid(x, 2, 0.7)
        _, var, _ = normal_fit(DensityGrid(x, vals))
        assert var > 0.49  # law of total variance adds the mean spread

    def test_nonpositive_mass_rejected(self):
        x = np.linspace(-1, 1, 30)
        with pytest.raises(DataError):
            normal_fit(DensityGrid(x, np.full(30, -0.2)))


class TestHarness:
    def _spec(self, reps=4, estimator="kernel"):
        return ExperimentSpec(
            scenario=PureConvolution(0.0, 1.0, 400),
            estimator=estimator,
            estimator_config={"bandwidth": 0.6} if estimator == "kernel" else {},
            replications=reps,
            seed_base=2024,
            metrics=("mise", "mse_at_point", "mode_count"),
        )

    def test_deterministic_given_seed_base(self):
        a = run_experiment(self._spec())
        b = run_experiment(self._spec())
        assert a.rows == b.rows
        assert a.aggregate == b.aggregate

    def test_rows_tagged_with_seed_and_aggregates_have_se(self):
        report = run_experiment(self._spec())
        assert [r["replication"] for r in report.rows] == [0, 1, 2, 3]
        assert all("seed" in r for r in report.rows)
        mean, se = report.aggregate["mise"]
        vals = [r["mise"] for r in report.rows]
        assert mean == pytest.approx(np.mean(vals))
        assert se == pytest.approx(np.std(vals, ddof=1) / 2.0)

    # each thread takes its own `_tables` scratch arrays (kernel and ppe)
    @pytest.mark.parametrize("estimator", ["kernel", "wavelet", "ppe"])
    def test_threaded_run_matches_sequential(self, estimator):
        seq = run_experiment(self._spec(estimator=estimator))
        os.environ["VOLDENS_THREADS"] = "4"
        try:
            par = run_experiment(self._spec(estimator=estimator))
        finally:
            del os.environ["VOLDENS_THREADS"]
        assert seq.rows == par.rows

    # each option set differs from the estimator's defaults; the direct call
    # names them in its own call form, so a dropped or misrouted option shows
    @pytest.mark.parametrize("estimator, options, direct", [
        ("kernel", {"bandwidth": 0.4}, lambda y, grid: estimate_density(y, 0.4, grid)),
        ("wavelet", {"level": 0, "truncation": 40},
         lambda y, grid: wavelet_estimate(y, 0, 40, grid)),
        ("ppe", {"kappa": 2.0, "k_n": 30, "levels": (1, 2)},
         lambda y, grid: select_and_estimate(y, 2.0, 30, (1, 2), grid)),
        # the set above selects level 1 with or without its `levels`; this one cannot
        ("ppe", {"levels": (2,)}, lambda y, grid: select_and_estimate(y, 1.0, None, (2,), grid)),
    ])
    def test_options_reach_the_estimator(self, estimator, options, direct):
        scenario = PureConvolution(0.0, 1.0, 400)
        spec = ExperimentSpec(scenario, estimator, options, replications=1, seed_base=77)
        row = run_experiment(spec).rows[0]
        grid = default_evaluation_grid(scenario, spec.grid_points)
        est = direct(replace(scenario, seed=row["seed"]).draw(), grid).density
        assert row["mise"] == mise(est, DensityGrid(grid, scenario.truth(grid), signed=False))

    def test_csv_and_summary(self, tmp_path):
        report = run_experiment(self._spec(reps=3))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "replication,seed,mise,mse_at_point,mode_count"
        assert len(lines) == 4
        assert "mise" in report.summary()

    def test_presets(self):
        for name in ("ou-exp", "regime-switch", "nonlinear-ar", "pure-convolution"):
            scenario_preset(name, n=50)
        with pytest.raises(ConfigError):
            scenario_preset("heston", n=50)

    def test_preset_name_rejected(self):
        # a preset name must be resolved with scenario_preset first
        with pytest.raises(ConfigError, match="scenario_preset"):
            run_experiment(ExperimentSpec(scenario="ou-exp"))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(scenario=PureConvolution(), metrics=("rmse",))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        # each names its field, rather than failing later on the data or
        # aggregating to nan
        for field, make in (("mean", lambda: PureConvolution(mean=bad)),
                            ("sd", lambda: PureConvolution(sd=bad)),
                            ("mse_point", lambda: ExperimentSpec(scenario=PureConvolution(),
                                                                 mse_point=bad))):
            with pytest.raises(ParameterError, match=field):
                make()

    def test_regime_switch_scenario_roundtrip(self):
        # n = 5000 gives ~50 regime stays, enough for both mixture components
        # to be represented in every replication
        spec = ExperimentSpec(
            scenario=scenario_preset("regime-switch", n=5000),
            estimator="kernel",
            estimator_config={"bandwidth": 0.35},
            replications=3,
            seed_base=4242,
            metrics=("mise", "mode_count"),
        )
        report = run_experiment(spec)
        assert len(report.rows) == 3
        assert all(r["mode_count"] == 2 for r in report.rows)
        assert report.aggregate["mise"][0] < 0.1

    def test_other_estimators_run(self):
        spec = ExperimentSpec(
            scenario=PureConvolution(0.0, 1.0, 200), estimator="wavelet",
            estimator_config={"truncation": 50}, replications=2, seed_base=7,
            metrics=("mise",))
        report = run_experiment(spec)
        assert len(report.rows) == 2
        spec_ppe = ExperimentSpec(
            scenario=PureConvolution(0.0, 1.0, 200), estimator="ppe",
            estimator_config={"k_n": 60}, replications=2, seed_base=7,
            metrics=("mise",))
        assert len(run_experiment(spec_ppe).rows) == 2
