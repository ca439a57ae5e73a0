"""Error metrics and a seeded Monte Carlo experiment harness.

The theory's MSE/MISE are population expectations; this module realizes
them as averages over seeded replications and always reports the Monte
Carlo standard error beside the mean.  Raw estimator output is never
altered: clipping at zero plus renormalization happens only inside
`normal_fit` and `mode_count`, which need a bona fide density to work on.

`run_experiment` is bit-reproducible for a fixed spec on one platform
(counter-based streams, deterministic aggregation order); across platforms
or BLAS builds the metric values can differ at the float-rounding level,
so 1e-10 is the right comparison tolerance for archived results.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, ParameterError
from .grids import DensityGrid
from .kerneldeconv import estimate_density
from .noisemodel import sample_noise
from .ppe import select_and_estimate
from .svsim import (ArParams, OuParams, RegimeSwitchParams, ScenarioConfig, _rng,
                    require_finite, require_int, simulate_scenario)
from .waveletdeconv import wavelet_estimate

THREADS_ENV = "VOLDENS_THREADS"


# --------------------------------------------------------------------------- metrics

def mise(estimate: DensityGrid, truth: DensityGrid) -> float:
    """Trapezoid integral of the squared difference over a common grid."""
    if not estimate.same_grid(truth):
        raise DataError("MISE needs both functions on the identical grid")
    diff = estimate.values - truth.values
    return float(np.trapezoid(diff * diff, estimate.x))


def _clipped_density(grid: DensityGrid) -> np.ndarray:
    clipped = np.maximum(grid.values, 0.0)
    mass = np.trapezoid(clipped, grid.x)
    if mass <= 0:
        raise DataError("estimate carries no positive mass")
    return clipped / mass


def mode_count(grid: DensityGrid, prominence: float = 0.05) -> int:
    """Number of strict local maxima with prominence above the floor.

    The input is clipped at zero and renormalized first, so the prominence
    floor refers to a probability density scale.  Peaks and prominences follow
    `scipy.signal.find_peaks(vals, prominence=...)` exactly: a peak is a run of
    equal values (a plateau, represented by its middle index) with a strictly
    lower run on each side; its prominence is its height minus the higher of
    the two minima between it and the nearest strictly higher sample (or the
    edge) on each side; a peak counts when its prominence is at least the floor.
    """
    if len(grid) < 3:
        raise DataError("mode counting needs at least 3 grid points")
    vals = _clipped_density(grid)
    starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    ends = np.r_[starts[1:] - 1, vals.size - 1]
    level = vals[starts]
    inner = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    count = 0
    for peak in (starts[1:-1][inner] + ends[1:-1][inner]) // 2:
        height = vals[peak]
        left, right = vals[:peak + 1], vals[peak:]
        lo = np.flatnonzero(left > height)
        hi = np.flatnonzero(right > height)
        left_min = left[lo[-1] + 1 if lo.size else 0:].min()
        right_min = right[:hi[0] if hi.size else right.size].min()
        count += bool(height - max(left_min, right_min) >= prominence)
    return count


def normal_fit(grid: DensityGrid) -> tuple[float, float, DensityGrid]:
    """Mean/variance of the (clipped, renormalized) estimate and the matched normal."""
    vals = _clipped_density(grid)
    mean = float(np.trapezoid(grid.x * vals, grid.x))
    second = float(np.trapezoid(grid.x ** 2 * vals, grid.x))
    var = second - mean * mean
    if var <= 0:
        raise DataError("degenerate variance in normal fit")
    fitted = np.exp(-(grid.x - mean) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    return mean, var, DensityGrid(grid.x, fitted, signed=False)


# --------------------------------------------------------------------------- scenarios

@dataclass(frozen=True)
class PureConvolution:
    """Y_i = xi_i + eps_i with xi i.i.d. N(mean, sd^2): the exact-convolution benchmark."""

    mean: float = 0.0
    sd: float = 1.0
    n: int = 1000
    seed: int = 1

    def __post_init__(self):
        require_finite(self, "mean", "sd")
        if self.sd <= 0:
            raise ParameterError("sd must be positive")
        if self.n < 1:
            raise ParameterError("n must be >= 1")

    def draw(self) -> np.ndarray:
        rng = _rng(self.seed)
        xi = self.mean + self.sd * rng.standard_normal(self.n)
        return xi + sample_noise(self.n, rng)

    def truth(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-(x - self.mean) ** 2 / (2 * self.sd ** 2)) / (
            self.sd * np.sqrt(2 * np.pi))


def scenario_preset(name: str, n: int, delta: float = 0.05) -> ScenarioConfig | PureConvolution:
    """The three shipped scenario presets, and the pure-convolution benchmark."""
    if name == "ou-exp":
        return ScenarioConfig("ou-exp", OuParams(0.5), delta, n)
    if name == "regime-switch":
        params = RegimeSwitchParams(OuParams(2.0, -2.0), OuParams(2.0, 2.0), 0.2, 0.2)
        return ScenarioConfig("regime-switch-exp", params, delta, n)
    if name == "nonlinear-ar":
        return ScenarioConfig("nonlinear-ar", ArParams(), delta, n)
    if name == "pure-convolution":
        return PureConvolution(n=n)
    raise ConfigError(f"unknown scenario preset {name!r}")


PRESET_NAMES = ("ou-exp", "regime-switch", "nonlinear-ar", "pure-convolution")


def _replicate_scenario(scenario, seed_base: int, rep: int):
    """Scenario copy with deterministically derived, distinct seeds."""
    if isinstance(scenario, PureConvolution):
        return replace(scenario, seed=seed_base + rep)
    return scenario.with_seeds(seed_base + 2 * rep, seed_base + 2 * rep + 1)


def _draw(scenario) -> tuple[np.ndarray, object]:
    """(Y series, truth-density callable or None) for one scenario realization."""
    if isinstance(scenario, PureConvolution):
        return scenario.draw(), scenario.truth
    series, vol = simulate_scenario(scenario)
    return series.log_squared, vol.truth


def default_evaluation_grid(scenario, points: int = 512) -> np.ndarray:
    """Six standard deviations past every component of the stationary law
    ([-10, 10] when the law has no closed form, as for the tanh AR)."""
    if isinstance(scenario, PureConvolution):
        lo, hi = scenario.mean - 6 * scenario.sd, scenario.mean + 6 * scenario.sd
    elif (law := scenario.params.stationary_law()) is None:
        lo, hi = -10.0, 10.0
    else:
        _, means, variances = law
        lo = min(mean - 6 * np.sqrt(var) for mean, var in zip(means, variances))
        hi = max(mean + 6 * np.sqrt(var) for mean, var in zip(means, variances))
    return np.linspace(lo, hi, points)


# --------------------------------------------------------------------------- harness

METRIC_NAMES = ("mise", "mse_at_point", "mode_count", "normal_fit_mean", "normal_fit_var")
#: harness estimator -> the name of its function as imported here; it is looked
#: up per call, so a wrapper set on this module's attribute is the one that runs
ESTIMATOR_FUNCTIONS = {"kernel": "estimate_density", "wavelet": "wavelet_estimate",
                       "ppe": "select_and_estimate"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One seeded Monte Carlo experiment.

    `scenario` is a ScenarioConfig or a PureConvolution; `run_experiment`
    raises ConfigError for a preset name, which `scenario_preset` resolves.
    Per-replication seeds derive deterministically from `seed_base`.
    """

    scenario: object
    estimator: str = "kernel"
    estimator_config: dict = field(default_factory=dict)
    replications: int = 20
    seed_base: int = 1000
    metrics: tuple[str, ...] = ("mise",)
    grid_points: int = 512
    mse_point: float = 0.0

    def __post_init__(self):
        require_finite(self, "mse_point")
        require_int(self, "replications", "grid_points")
        if self.replications < 1:
            raise ParameterError("need at least one replication")
        unknown = set(self.metrics) - set(METRIC_NAMES)
        if unknown:
            raise ConfigError(f"unknown metrics {sorted(unknown)}; expected {METRIC_NAMES}")
        if self.estimator not in ESTIMATOR_FUNCTIONS:
            raise ConfigError(f"harness supports density estimators, not {self.estimator!r}")


@dataclass(eq=False)
class ExperimentReport:
    """Per-replication rows plus aggregates with Monte Carlo standard errors."""

    spec: ExperimentSpec
    columns: tuple[str, ...]
    rows: list[dict]
    aggregate: dict[str, tuple[float, float]]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["replication", "seed", *self.columns])
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def summary(self) -> str:
        out = io.StringIO()
        out.write(f"estimator={self.spec.estimator} replications={self.spec.replications} "
                  f"seed_base={self.spec.seed_base}\n")
        width = max(len(c) for c in self.columns)
        out.write(f"{'metric'.ljust(width)}  {'mean':>14}  {'mc_se':>14}\n")
        for name in self.columns:
            mean, se = self.aggregate[name]
            out.write(f"{name.ljust(width)}  {mean:14.6g}  {se:14.6g}\n")
        return out.getvalue()


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run the replications (optionally threaded) and aggregate deterministically.

    Thread count comes from the VOLDENS_THREADS environment variable
    (default 1); results are keyed by replication index, so the aggregation
    order never depends on scheduling.
    """
    scenario = spec.scenario
    if isinstance(scenario, str):
        raise ConfigError("resolve preset names with scenario_preset(...) first")
    grid = default_evaluation_grid(scenario, spec.grid_points)

    def one(rep: int) -> dict:
        sc = _replicate_scenario(scenario, spec.seed_base, rep)
        y, truth = _draw(sc)
        estimate = globals()[ESTIMATOR_FUNCTIONS[spec.estimator]]
        est = estimate(y, grid=grid, **spec.estimator_config).density
        row: dict = {"replication": rep,
                     "seed": sc.seed if isinstance(sc, PureConvolution) else sc.vol_seed}
        true_grid = None if truth is None else DensityGrid(grid, truth(grid), signed=False)
        for name in spec.metrics:
            if name == "mise":
                if true_grid is None:
                    raise ConfigError("mise metric needs a scenario with a known truth")
                row["mise"] = mise(est, true_grid)
            elif name == "mse_at_point":
                if true_grid is None:
                    raise ConfigError("mse_at_point needs a scenario with a known truth")
                fhat = float(np.interp(spec.mse_point, est.x, est.values))
                f0 = float(np.interp(spec.mse_point, true_grid.x, true_grid.values))
                row["mse_at_point"] = (fhat - f0) ** 2
            elif name == "mode_count":
                row["mode_count"] = mode_count(est)
            elif name == "normal_fit_mean":
                row["normal_fit_mean"] = normal_fit(est)[0]
            elif name == "normal_fit_var":
                row["normal_fit_var"] = normal_fit(est)[1]
        return row

    workers = max(1, int(os.environ.get(THREADS_ENV, "1")))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, range(spec.replications)))
    else:
        rows = [one(rep) for rep in range(spec.replications)]
    rows.sort(key=lambda r: r["replication"])

    columns = tuple(spec.metrics)
    aggregate = {}
    for name in columns:
        vals = np.array([row[name] for row in rows], dtype=float)
        se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        aggregate[name] = (float(vals.mean()), se)
    return ExperimentReport(spec=spec, columns=columns, rows=rows, aggregate=aggregate)
