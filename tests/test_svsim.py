"""Tests for the stochastic-volatility simulators and invariant-density oracle."""

import json

import numpy as np
import pytest

from reference import simulate_markov2_loop
from voldens.cli import PipelineConfig, main
from voldens.errors import ConfigError, DataError, ParameterError
from voldens.svsim import (ArParams, ObservationSeries, OuParams,
                           RegimeSwitchParams, ScenarioConfig, invariant_density,
                           log_squared_transform, simulate_ar_logvol, simulate_markov2,
                           simulate_ou, simulate_price, simulate_scenario,
                           simulate_volatility)
from voldens.kerneldeconv import check_gamma_constraint, default_bandwidth, estimate_density
from voldens.metrics import (ExperimentSpec, PureConvolution, run_experiment,
                             scenario_preset)
from voldens.ppe import penalty, ppe_coefficients, select_and_estimate
from voldens.volreg import default_regression_bandwidth, regression_estimate
from voldens.waveletdeconv import default_level, wavelet_coefficients, wavelet_estimate


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _lfilter_ou(params, steps, dt, rng):
    """The OU path as one `scipy.signal.lfilter` of the same draws: the reference."""
    from scipy.signal import lfilter

    b, mu, a = params.mean_reversion, params.level, params.diffusion
    decay = np.exp(-b * dt)
    trans_sd = a * np.sqrt((1.0 - decay * decay) / (2.0 * b))
    x0 = (mu + np.sqrt(params.stationary_variance) * rng.standard_normal()
          if params.x0 is None else params.x0)
    inputs = mu * (1.0 - decay) + trans_sd * rng.standard_normal(steps)
    return np.concatenate([[x0], lfilter([1.0], [1.0, -decay], inputs,
                                         zi=np.array([decay * x0]))[0]])


def _assert_close_to_lfilter(path, ref):
    assert path.shape == ref.shape
    assert np.max(np.abs(path - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestOuSimulation:
    def test_stationary_moments(self):
        # stationary law N(mu, a^2/(2b)); 1e5 steps, 3 MC standard errors
        p = OuParams(mean_reversion=0.5, level=0.0, diffusion=1.0)
        path = simulate_ou(p, 100_000, 0.05, seed=42)
        # effective sample size accounts for autocorrelation time 1/(b dt) steps
        tau = 1.0 / (0.5 * 0.05)
        n_eff = path.size / (2 * tau)
        assert abs(path.mean()) < 3 * np.sqrt(1.0 / n_eff)
        assert abs(path.var() - 1.0) < 3 * np.sqrt(2.0 / n_eff)

    def test_zero_noise_decay(self):
        # a -> 0 with X_0 = 1, mu = 0: deterministic decay e^{-b t}
        p = OuParams(mean_reversion=0.7, level=0.0, diffusion=1e-12, x0=1.0)
        path = simulate_ou(p, 100, 0.1, seed=1)
        t = 0.1 * np.arange(101)
        np.testing.assert_allclose(path, np.exp(-0.7 * t), atol=1e-9)

    def test_transition_variance(self):
        # one-step residual variance equals a^2 (1 - e^{-2 b dt}) / (2b)
        p = OuParams(mean_reversion=0.5, level=0.0, diffusion=1.0)
        dt = 0.1
        path = simulate_ou(p, 100_000, dt, seed=3)
        decay = np.exp(-0.5 * dt)
        resid = path[1:] - decay * path[:-1]
        target = (1.0 - np.exp(-2 * 0.5 * dt)) / (2 * 0.5)
        assert target == pytest.approx(0.09516258196404048, abs=1e-12)
        se = target * np.sqrt(2.0 / resid.size)
        assert abs(resid.var() - target) < 3 * se

    def test_exact_transition_vs_fine_euler_oracle(self):
        # one-step moments from the exact sampler against a 100x finer Euler scheme
        b, mu, a, dt, x0 = 0.8, 0.3, 1.2, 0.2, 1.1
        n_paths = 100_000
        rng = _philox(11)
        decay = np.exp(-b * dt)
        exact_mean = mu + (x0 - mu) * decay
        exact_var = a * a * (1 - decay * decay) / (2 * b)
        sub = dt / 100.0
        x = np.full(n_paths, x0)
        for _ in range(100):
            x = x - b * (x - mu) * sub + a * np.sqrt(sub) * rng.standard_normal(n_paths)
        se_mean = np.sqrt(exact_var / n_paths)
        se_var = exact_var * np.sqrt(2.0 / n_paths)
        # Euler discretization bias at this step size is well below the MC noise
        assert abs(x.mean() - exact_mean) < 3 * se_mean + 1e-3
        assert abs(x.var() - exact_var) < 3 * se_var + 1e-3

    @pytest.mark.parametrize("n", [20_000, 5_000, 2_600])
    def test_scan_matches_lfilter_on_ou_exp(self, n):
        for seed in range(20):
            cfg = scenario_preset("ou-exp", n).with_seeds(2 * seed + 1, 2 * seed + 2)
            dt, steps = cfg.delta / cfg.substeps, n * cfg.substeps
            ref = _lfilter_ou(cfg.params, steps, dt, _philox(cfg.vol_seed))
            _assert_close_to_lfilter(simulate_volatility(cfg).log_sigma2, ref)

    @pytest.mark.parametrize("n", [20_000, 5_000, 2_600])
    def test_scan_matches_lfilter_on_regime_switch(self, n):
        # both OU paths share the chain's generator, so each must take exactly
        # the draws lfilter's did, so the generator's next draws agree
        for seed in range(20):
            cfg = scenario_preset("regime-switch", n).with_seeds(2 * seed + 1, 2 * seed + 2)
            dt, steps = cfg.delta / cfg.substeps, n * cfg.substeps
            rng, ref_rng = _philox(cfg.vol_seed), _philox(cfg.vol_seed)
            for regime in (cfg.params.regime0, cfg.params.regime1):
                _assert_close_to_lfilter(simulate_ou(regime, steps, dt, rng),
                                         _lfilter_ou(regime, steps, dt, ref_rng))
            assert np.array_equal(rng.random(16), ref_rng.random(16))

    def test_regime_switch_chain_draws_unchanged(self):
        cfg = scenario_preset("regime-switch", 2_600).with_seeds(1, 2)
        p, dt, steps = cfg.params, cfg.delta / cfg.substeps, 2_600 * cfg.substeps
        rng, ref_rng = _philox(cfg.vol_seed), _philox(cfg.vol_seed)
        x0, x1 = (simulate_ou(r, steps, dt, rng) for r in (p.regime0, p.regime1))
        ref0, ref1 = (_lfilter_ou(r, steps, dt, ref_rng) for r in (p.regime0, p.regime1))
        chain = simulate_markov2(p.rate_01, p.rate_10, steps, dt, rng)
        assert np.array_equal(chain, simulate_markov2(p.rate_01, p.rate_10, steps, dt, ref_rng))
        assert np.array_equal(simulate_volatility(cfg).log_sigma2, np.where(chain == 1, x1, x0))
        _assert_close_to_lfilter(np.where(chain == 1, x1, x0), np.where(chain == 1, ref1, ref0))

    @pytest.mark.parametrize("b_dt", [1e-6, 0.7, 50.0])
    @pytest.mark.parametrize("x0", [None, 3.5])
    def test_scan_matches_lfilter_off_the_presets(self, b_dt, x0):
        # near the unit root, in between, and decay below the scan's 1e-17 cut
        params = OuParams(mean_reversion=b_dt / 0.01, level=-0.4, diffusion=1.3, x0=x0)
        path = simulate_ou(params, 200_000, 0.01, seed=9)
        _assert_close_to_lfilter(path, _lfilter_ou(params, 200_000, 0.01, _philox(9)))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            OuParams(mean_reversion=-1.0)
        with pytest.raises(ParameterError):
            OuParams(mean_reversion=1.0, diffusion=0.0)
        with pytest.raises(ParameterError):
            simulate_ou(OuParams(1.0), steps=0, dt=0.1, seed=1)


class TestMarkovChain:
    def test_symmetric_occupancy(self):
        reps = [simulate_markov2(0.5, 0.5, 2000, 0.05, seed=100 + k).mean()
                for k in range(40)]
        reps = np.array(reps)
        se = reps.std(ddof=1) / np.sqrt(reps.size)
        assert abs(reps.mean() - 0.5) < 3 * se

    def test_asymmetric_occupancy(self):
        # pi_1 = rate_01 / (rate_01 + rate_10) = 1/4
        reps = [simulate_markov2(1.0, 3.0, 2500, 0.01, seed=300 + k).mean()
                for k in range(40)]
        reps = np.array(reps)
        se = reps.std(ddof=1) / np.sqrt(reps.size)
        assert abs(reps.mean() - 0.25) < 3 * se + 0.003  # O(dt) flip-prob bias allowance

    @pytest.mark.parametrize("rates", [(0.5, 0.5), (1.0, 3.0), (0.02, 0.05), (40.0, 25.0),
                                       (1e-12, 1.0), (300.0, 0.1)])
    def test_matches_the_loop_on_the_same_draws(self, rates):
        # the vectorized chain is the per-step loop exactly, and leaves the
        # generator where the loop does
        for seed in range(5):
            rng, ref_rng = _philox(seed), _philox(seed)
            chain = simulate_markov2(*rates, 41_600, 0.01, rng)
            assert np.array_equal(chain, simulate_markov2_loop(*rates, 41_600, 0.01, ref_rng))
            assert np.array_equal(rng.random(16), ref_rng.random(16))

    def test_degenerate_rate_constant_path(self):
        path = simulate_markov2(1e-12, 1.0, 500, 0.1, seed=9)
        assert np.all(path == 0)

    def test_rate_validation(self):
        with pytest.raises(ParameterError):
            simulate_markov2(0.0, 1.0, 10, 0.1, seed=1)


class TestVolatilityAndPrice:
    def test_ou_exp_truth_is_standard_normal(self):
        cfg = ScenarioConfig("ou-exp", OuParams(0.5, 0.0, 1.0), delta=0.1, n=50,
                             substeps=4)
        vol = simulate_volatility(cfg)
        xs = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(vol.truth(xs),
                                   np.exp(-xs ** 2 / 2) / np.sqrt(2 * np.pi),
                                   rtol=1e-12)
        assert vol.sigma2.shape == (50 * 4 + 1,)
        np.testing.assert_allclose(vol.sigma2, np.exp(vol.log_sigma2))

    def test_regime_switch_truth_is_mixture(self):
        params = RegimeSwitchParams(OuParams(2.0, -2.0, 1.0), OuParams(2.0, 2.0, 1.0),
                                    rate_01=1.0, rate_10=1.0)
        cfg = ScenarioConfig("regime-switch-exp", params, delta=0.1, n=20, substeps=2)
        vol = simulate_volatility(cfg)
        pi1 = params.stationary_prob_1
        comp = lambda x, m: np.exp(-(x - m) ** 2 / (2 * 0.25)) / np.sqrt(2 * np.pi * 0.25)
        assert vol.truth(0.0) == pytest.approx(pi1 * comp(0.0, 2.0)
                                               + (1 - pi1) * comp(0.0, -2.0), rel=1e-12)

    def test_identical_regimes_collapse_to_single_normal(self):
        same = OuParams(1.0, 0.5, 1.0)
        params = RegimeSwitchParams(same, same, rate_01=2.0, rate_10=1.0)
        cfg = ScenarioConfig("regime-switch-exp", params, delta=0.1, n=20, substeps=2)
        vol = simulate_volatility(cfg)
        xs = np.linspace(-2, 3, 11)
        single = np.exp(-(xs - 0.5) ** 2 / (2 * 0.5)) / np.sqrt(2 * np.pi * 0.5)
        np.testing.assert_allclose(vol.truth(xs), single, rtol=1e-12)

    def test_unknown_model_tag(self):
        with pytest.raises(ConfigError):
            ScenarioConfig("garch", OuParams(1.0), delta=0.1, n=10)

    def test_price_constant_volatility_increments(self):
        s_const = 0.7
        cfg = ScenarioConfig("ou-exp", OuParams(1.0), delta=0.05, n=20_000,
                             substeps=4, price_seed=9, vol_seed=8)
        sigma2 = np.full(20_000 * 4 + 1, s_const ** 2)
        series = simulate_price(sigma2, cfg)
        incr = np.diff(series.log_prices)
        target = s_const ** 2 * 0.05
        se = target * np.sqrt(2.0 / incr.size)
        assert series.log_prices[0] == 0.0
        assert abs(incr.var() - target) < 3 * se

    def test_price_constant_drift_mean(self):
        cfg = ScenarioConfig("ou-exp", OuParams(1.0), delta=0.05, n=20_000,
                             substeps=4, drift=0.8, price_seed=5, vol_seed=4)
        sigma2 = np.full(20_000 * 4 + 1, 0.25)
        series = simulate_price(sigma2, cfg)
        incr = np.diff(series.log_prices)
        se = 0.5 * np.sqrt(0.05) / np.sqrt(incr.size)
        assert abs(incr.mean() - 0.8 * 0.05) < 3 * se

    def test_price_path_length_mismatch(self):
        cfg = ScenarioConfig("ou-exp", OuParams(1.0), delta=0.1, n=10, substeps=2)
        with pytest.raises(DataError):
            simulate_price(np.ones(7), cfg)

    def test_seed_streams_are_uncorrelated(self):
        # sample cross-correlation of xi and the normalized increments near 0
        corrs = []
        for k in range(30):
            cfg = ScenarioConfig("ou-exp", OuParams(0.5), delta=0.05, n=500,
                                 substeps=4, vol_seed=1000 + 2 * k,
                                 price_seed=1001 + 2 * k)
            series, _ = simulate_scenario(cfg)
            corrs.append(np.corrcoef(series.xi, series.increments)[0, 1])
        corrs = np.array(corrs)
        assert abs(corrs.mean()) < 3 * corrs.std(ddof=1) / np.sqrt(corrs.size)

    def test_equal_seeds_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig("ou-exp", OuParams(1.0), delta=0.1, n=10,
                           vol_seed=3, price_seed=3)

    def test_reproducibility(self):
        cfg = ScenarioConfig("ou-exp", OuParams(0.5), delta=0.05, n=100, substeps=4)
        a, _ = simulate_scenario(cfg)
        b, _ = simulate_scenario(cfg)
        assert np.array_equal(a.log_prices, b.log_prices)

    @pytest.mark.parametrize("preset", ["ou-exp", "regime-switch"])
    def test_series_xi_is_the_simulated_log_volatility(self, preset):
        cfg = scenario_preset(preset, 500)
        series, vol = simulate_scenario(cfg)
        assert np.array_equal(series.xi, vol.log_sigma2[: cfg.n * cfg.substeps : cfg.substeps])

    def test_nonlinear_ar_scenario(self):
        cfg = ScenarioConfig("nonlinear-ar", ArParams("linear", slope=0.5),
                             delta=1.0, n=300, substeps=1)
        vol = simulate_volatility(cfg)
        assert vol.truth is not None
        # stationary variance 1/(1 - 0.25)
        xs = np.array([0.0])
        target = 1.0 / np.sqrt(2 * np.pi * (1 / 0.75))
        assert vol.truth(xs)[0] == pytest.approx(target, rel=1e-12)
        tanh_cfg = ScenarioConfig("nonlinear-ar", ArParams("tanh", scale=2.0),
                                  delta=1.0, n=50, substeps=1)
        assert simulate_volatility(tanh_cfg).truth is None


#: field -> a constructor call that sets only that field to the given value
NON_FINITE_SETTERS = {
    "mean_reversion": lambda v: OuParams(v),
    "x0": lambda v: OuParams(1.0, x0=v),
    "rate_01": lambda v: RegimeSwitchParams(OuParams(1.0), OuParams(2.0), v, 1.0),
    "slope": lambda v: ArParams("tanh", slope=v),
    "innovation_sd": lambda v: ArParams(innovation_sd=v),
    "drift": lambda v: ScenarioConfig("ou-exp", OuParams(1.0), delta=0.1, n=10, drift=v),
    "delta": lambda v: ObservationSeries(np.zeros(3), delta=v),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", NON_FINITE_SETTERS)
def test_non_finite_parameter_names_its_field(field, value):
    # `rate <= 0` is false for NaN and passes inf; the finite check names the field
    with pytest.raises(ParameterError, match=f"^{field} must be finite"):
        NON_FINITE_SETTERS[field](value)


_Y = np.random.default_rng(6).normal(size=50)
#: the integer options of a CLI run; the config is refused when built, before any file
_PIPELINE_INTS = [(field, value) for field in ("n", "seed", "grid_points", "kn", "level",
                                               "truncation") for value in (2.5, True)]


#: an integer option set to a float or a bool, or below its floor, raises the
#: error kind of that option's range check, rather than being truncated,
#: running or failing untyped later
@pytest.mark.parametrize("call, value, error", [
    (lambda v: select_and_estimate(_Y, levels=(v,)), 2.7, ConfigError),
    (lambda v: select_and_estimate(_Y, levels=(v,)), True, ConfigError),
    (lambda v: wavelet_estimate(_Y, level=v), 0.9, ParameterError),
    (lambda v: wavelet_estimate(_Y, truncation=v), 2.5, ParameterError),
    (lambda v: wavelet_coefficients(_Y, v, 3), 0.5, ParameterError),
    (lambda v: wavelet_coefficients(_Y, 0, v), 2.5, ParameterError),
    (lambda v: select_and_estimate(_Y, k_n=v), 2.5, ParameterError),
    (lambda v: ppe_coefficients(_Y, 1, v), 2.5, ParameterError),
    (lambda v: estimate_density(_Y, 0.5, grid_points=v), 100.5, ParameterError),
    (lambda v: wavelet_estimate(_Y, grid_points=v), 100.5, ParameterError),
    (lambda v: select_and_estimate(_Y, grid_points=v), 100.5, ParameterError),
    (lambda v: ScenarioConfig("ou-exp", OuParams(1.0), delta=0.1, n=v), 2.5, ParameterError),
    (lambda v: ScenarioConfig("ou-exp", OuParams(1.0), 0.1, 10, substeps=v), 1.5,
     ParameterError),
    (lambda v: ScenarioConfig("ou-exp", OuParams(1.0), 0.1, 10, substeps=v), True,
     ParameterError),
    # Philox keys 2.5 as 2: the two streams would be one, though the seeds differ
    (lambda v: ScenarioConfig("ou-exp", OuParams(1.0), 0.1, 10, vol_seed=v, price_seed=2), 2.5,
     ParameterError),
    (lambda v: ExperimentSpec(PureConvolution(), "wavelet", replications=v), 2.5, ParameterError),
    (lambda v: ExperimentSpec(PureConvolution(), "wavelet", replications=v), True, ParameterError),
    (lambda v: ExperimentSpec(PureConvolution(), "wavelet", grid_points=v), 100.5, ParameterError),
    (lambda v: ExperimentSpec(PureConvolution(), "wavelet", seed_base=v), 2.5, ParameterError),
    (lambda v: PureConvolution(n=v), 2.5, ParameterError),
    (lambda v: PureConvolution(n=v), True, ParameterError),
    (lambda v: PureConvolution(seed=v), 2.5, ParameterError),
    (lambda v: simulate_ou(OuParams(1.0), 10, 0.1, seed=v), 2.5, ParameterError),
    (lambda v: simulate_ou(OuParams(1.0), v, 0.1, seed=1), 2.5, ParameterError),
    (lambda v: simulate_markov2(1.0, 1.0, v, 0.1, seed=1), 2.5, ParameterError),
    (lambda v: simulate_ar_logvol(np.tanh, 1.0, v, 1), 2.5, ParameterError),
    (lambda v: simulate_ar_logvol(np.tanh, 1.0, v, 1), -1, ParameterError),
    (lambda v: default_bandwidth(v, 1.0), 2600.5, ParameterError),
    (lambda v: default_regression_bandwidth(v, 4.0), 2600.5, ParameterError),
    (lambda v: check_gamma_constraint(v, 0.01, 10.0), 100.5, ParameterError),
    (lambda v: penalty(1, v, 1.0), 10.5, ParameterError),
    (lambda v: default_level(v), 100.5, ParameterError),
    (lambda v: ExperimentSpec(PureConvolution(), "wavelet", grid_points=v), 3, ParameterError),
    (lambda v: ExperimentSpec(PureConvolution(), "wavelet", grid_points=v), -5, ParameterError),
    *[(lambda v, field=field: PipelineConfig("regression", "never-written", scenario="ou-exp",
                                             **{field: v}), value, ParameterError)
      for field, value in _PIPELINE_INTS],
], ids=["levels", "levels-bool", "level", "truncation", "wavelet_coefficients-m",
        "wavelet_coefficients-truncation", "k_n", "ppe_coefficients-k_n",
        "kernel-grid_points", "wavelet-grid_points", "ppe-grid_points", "scenario-n",
        "substeps", "substeps-bool", "vol_seed", "replications", "replications-bool",
        "experiment-grid_points", "seed_base", "pure-convolution-n", "pure-convolution-n-bool",
        "pure-convolution-seed", "simulate_ou-seed", "simulate_ou-steps",
        "simulate_markov2-steps", "simulate_ar_logvol-steps", "simulate_ar_logvol-steps-negative",
        "default_bandwidth-n", "default_regression_bandwidth-n", "gamma_constraint-n",
        "penalty-n", "default_level-n", "experiment-grid_points-3", "experiment-grid_points-neg",
        *[f"pipeline-{field}-{value}" for field, value in _PIPELINE_INTS]])
def test_integer_options_refuse_non_integers(call, value, error):
    with pytest.raises(error, match=f"must be (an integer|at least \\d+), got {value!r}"):
        call(value)


def test_numpy_integers_are_integers():
    est = wavelet_estimate(_Y, level=np.int64(0), truncation=np.int64(5),
                           grid_points=np.int32(16))
    assert (est.level, est.truncation, len(est.density)) == (0, 5, 16)
    assert select_and_estimate(_Y, k_n=np.int64(5), levels=(np.int64(1),)).k_n == 5


#: a seed outside Philox's key range [0, 2^128) is refused where it keys a
#: stream, not passed on to fail untyped; None is the CLI
@pytest.mark.parametrize("call", [
    lambda: PureConvolution(seed=-1).draw(),
    lambda: simulate_scenario(ScenarioConfig("ou-exp", OuParams(1.0), 0.1, 10, vol_seed=-3)),
    lambda: run_experiment(ExperimentSpec(PureConvolution(n=50), "wavelet", seed_base=-5)),
    lambda: run_experiment(ExperimentSpec(scenario_preset("ou-exp", 50), "wavelet",
                                          seed_base=-5)),
    lambda: simulate_ou(OuParams(1.0), 10, 0.1, seed=-1),
    lambda: simulate_ou(OuParams(1.0), 10, 0.1, seed=2 ** 128),
    None,
], ids=["pure-convolution", "vol_seed", "seed_base", "seed_base-scenario", "simulate_ou",
        "simulate_ou-2**128", "cli"])
def test_seeds_outside_the_key_range_are_refused(call, tmp_path, capsys):
    if call is None:  # a failed run exits 1 with a JSON error object, not a traceback
        argv = ["--scenario", "ou-exp", "--n", "300", "--seed", "-1", "--estimator", "kernel",
                "--out", str(tmp_path)]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "parameter"
    else:
        with pytest.raises(ParameterError, match=r"seed must lie in \[0, 2\*\*128\)"):
            call()


#: the bandwidth and penalty rules and the simulators refuse NaN and inf, which
#: `x <= 0` and the gamma constraint let through to a nan or inf result (a NaN
#: path, an all-zero chain) or a "satisfied"
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name, call", [
    ("delta", lambda v: check_gamma_constraint(1000, v, 5.0)),
    ("gamma", lambda v: check_gamma_constraint(1000, 0.01, v)),
    ("gamma", lambda v: default_bandwidth(100, v)),
    ("gamma", lambda v: default_regression_bandwidth(100, v)),
    ("kappa", lambda v: penalty(1, 10, v)),
    ("dt", lambda v: simulate_ou(OuParams(1.0), 10, v, seed=1)),
    ("rate_01", lambda v: simulate_markov2(v, 1.0, 10, 0.1, seed=1)),
    ("dt", lambda v: simulate_markov2(1.0, 1.0, 10, v, seed=1)),
    ("innovation_sd", lambda v: simulate_ar_logvol(np.tanh, v, 10, 1)),
], ids=["gamma_constraint-delta", "gamma_constraint-gamma", "default_bandwidth",
        "default_regression_bandwidth", "penalty", "simulate_ou-dt", "simulate_markov2-rate_01",
        "simulate_markov2-dt", "simulate_ar_logvol-innovation_sd"])
def test_rule_functions_refuse_non_finite(name, call, value):
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        call(value)


class TestObservationSeries:
    def test_increment_identity(self):
        s = np.array([0.0, 0.3, -0.1, 0.4])
        series = ObservationSeries(log_prices=s, delta=0.25)
        np.testing.assert_array_equal(series.increments, np.diff(s) / 0.5)
        assert series.n == 3

    def test_log_squared_values(self):
        series = ObservationSeries(log_prices=np.array([0.0, 1.0, -1.0, -1.0]),
                                   delta=1.0)
        y = series.log_squared
        assert y[0] == pytest.approx(0.0)            # X = 1
        assert y[1] == pytest.approx(np.log(4.0))    # X = -2, squaring kills the sign
        assert y[2] == pytest.approx(np.log(1e-300))  # exact-zero increment floored
        assert series.zero_increment_count == 1

    def test_transform_function_matches_property(self):
        series = ObservationSeries(log_prices=np.array([0.0, 0.5, 0.2]), delta=1.0)
        np.testing.assert_array_equal(log_squared_transform(series), series.log_squared)
        np.testing.assert_array_equal(log_squared_transform(np.array([1.0, -2.0])),
                                      np.array([0.0, np.log(4.0)]))

    def test_length_validation(self):
        with pytest.raises(DataError):
            ObservationSeries(log_prices=np.array([1.0]), delta=1.0)
        with pytest.raises(DataError):
            ObservationSeries(log_prices=np.zeros(5), delta=1.0, xi=np.zeros(3))



class TestScenarioSerialization:
    def test_kv_roundtrip_ou(self):
        cfg = ScenarioConfig("ou-exp", OuParams(0.5, -0.2, 1.3), delta=0.05, n=777,
                             substeps=8, drift=0.1, vol_seed=3, price_seed=4)
        assert ScenarioConfig.from_kv(cfg.to_kv()) == cfg

    def test_kv_roundtrip_regime_switch(self):
        params = RegimeSwitchParams(OuParams(2.0, -2.0, 1.0), OuParams(1.0, 2.0, 0.5),
                                    rate_01=0.3, rate_10=0.7)
        cfg = ScenarioConfig("regime-switch-exp", params, delta=0.1, n=100)
        assert ScenarioConfig.from_kv(cfg.to_kv()) == cfg

    def test_kv_roundtrip_ar(self):
        cfg = ScenarioConfig("nonlinear-ar", ArParams("tanh", scale=0.9), delta=1.0,
                             n=250, substeps=1)
        assert ScenarioConfig.from_kv(cfg.to_kv()) == cfg

    def test_kv_text_is_stable(self):
        cfg = ScenarioConfig("ou-exp", OuParams(0.5, x0=0.25), delta=0.05, n=10)
        assert cfg.to_kv() == ("model = ou-exp\ndelta = 0.05\nn = 10\nsubsteps = 16\n"
                               "drift = 0.0\nvol_seed = 1\nprice_seed = 2\n"
                               "ou.b = 0.5\nou.mu = 0.0\nou.a = 1.0\nou.x0 = 0.25\n")
        ar = ScenarioConfig("nonlinear-ar", ArParams("tanh"), delta=1.0, n=10)
        assert "ar.function = tanh\n" in ar.to_kv()

    def test_kv_defaults_come_from_the_dataclasses(self):
        cfg = ScenarioConfig.from_kv("model = nonlinear-ar\ndelta = 1.0\nn = 50\n")
        assert cfg == ScenarioConfig("nonlinear-ar", ArParams(), delta=1.0, n=50)

    def test_params_of_the_wrong_class_rejected(self):
        with pytest.raises(ConfigError, match="OuParams"):
            ScenarioConfig("ou-exp", ArParams(), delta=0.05, n=10)
        with pytest.raises(ConfigError, match="ArParams"):
            ScenarioConfig("nonlinear-ar", OuParams(0.5), delta=0.05, n=10)

    def test_kv_comments_and_errors(self):
        from voldens.svsim import parse_kv
        assert parse_kv("a = 1  # comment\n\n# full line\nb = x\n") == {"a": "1", "b": "x"}
        with pytest.raises(ConfigError):
            parse_kv("not a pair\n")


class TestInvariantDensity:
    def test_ou_matches_standard_normal(self):
        grid = np.linspace(-5, 5, 2001)
        d = invariant_density(lambda x: -0.5 * x, lambda x: 1.0, 0.0, grid)
        truth = np.exp(-grid ** 2 / 2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(d.values - truth)) < 1e-6
        assert not d.signed

    def test_normalized_by_construction(self):
        grid = np.linspace(-4, 6, 801)
        d = invariant_density(lambda x: -(x - 1.0), lambda x: 1.5, 1.0, grid)
        assert abs(d.integral() - 1.0) < 1e-9

    def test_general_ou_matches_shifted_normal(self):
        b, mu, a0 = 2.0, 1.0, 0.8
        var = a0 ** 2 / (2 * b)
        grid = np.linspace(mu - 6 * np.sqrt(var), mu + 6 * np.sqrt(var), 1501)
        d = invariant_density(lambda x: -b * (x - mu), lambda x: a0, mu, grid)
        truth = np.exp(-(grid - mu) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(d.values - truth)) < 1e-5

    def test_anchor_invariance(self):
        grid = np.linspace(-5, 5, 801)
        d1 = invariant_density(lambda x: -0.5 * x, lambda x: 1.0, 0.0, grid)
        d2 = invariant_density(lambda x: -0.5 * x, lambda x: 1.0, 2.5, grid)
        assert np.max(np.abs(d1.values - d2.values)) < 1e-8

    def test_vanishing_diffusion_raises(self):
        grid = np.linspace(-1, 1, 101)
        with pytest.raises(ParameterError):
            invariant_density(lambda x: -x, lambda x: x, 0.0, grid)


@pytest.mark.parametrize("estimate", [
    lambda y: estimate_density(y, 0.5),
    lambda y: regression_estimate(y, 0.5, np.linspace(-2.0, 2.0, 16)),
    wavelet_estimate,
    select_and_estimate,
], ids=["kernel", "regression", "wavelet", "ppe"])
@pytest.mark.parametrize("y", [np.zeros((10, 2)), np.array([])], ids=["2d", "empty"])
def test_estimators_reject_non_series_input(estimate, y):
    with pytest.raises(DataError):
        estimate(y)


@pytest.mark.parametrize("estimate", [
    lambda y: estimate_density(y, 0.5),
    lambda y: regression_estimate(y, 0.5, np.linspace(-2.0, 2.0, 16)),
    wavelet_estimate,
    select_and_estimate,
], ids=["kernel", "regression", "wavelet", "ppe"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_estimators_reject_non_finite_input(estimate, bad):
    # one bad value among 200, as an array and inside an ObservationSeries
    y = _philox(3).normal(size=200)
    y[57] = bad
    with pytest.raises(DataError, match="1 non-finite"):
        estimate(y)
    prices = np.cumsum(_philox(4).normal(size=201))
    prices[57] = bad
    with pytest.raises(DataError, match="non-finite"):
        estimate(ObservationSeries(prices, delta=1.0))
