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
import inspect
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError
from .grids import MIN_GRID_POINTS, DensityGrid, uniform_grid
from .kerneldeconv import estimate_density
from .noisemodel import sample_noise
from .ppe import select_and_estimate
from .svsim import (ArParams, OuParams, RegimeSwitchParams, ScenarioConfig, _rng,
                    normal_mixture_density, require_finite, require_int, require_positive,
                    simulate_scenario)
from .waveletdeconv import wavelet_estimate


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
        require_finite(self, "mean")
        require_positive(self, "sd")
        require_int(self, "n", least=1)
        require_int(self, "seed")

    def stationary_law(self) -> tuple[tuple, tuple, tuple]:
        """(weights, means, variances) of the normal law of xi, as `ScenarioConfig` gives it."""
        return (1.0,), (self.mean,), (self.sd ** 2,)

    def draw(self) -> np.ndarray:
        rng = _rng(self.seed)
        xi = self.mean + self.sd * rng.standard_normal(self.n)
        return xi + sample_noise(self.n, rng)

    def truth(self, x: np.ndarray) -> np.ndarray:
        return normal_mixture_density(*self.stationary_law())(x)


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


def _replicate(scenario, seed_base: int, rep: int) -> tuple[np.ndarray, int]:
    """(Y series, seed) of replication `rep`, drawn with seeds derived from `seed_base`:
    seed_base + rep for a PureConvolution, else the two seeds from seed_base + 2 rep."""
    if isinstance(scenario, PureConvolution):
        seed = seed_base + rep
        return replace(scenario, seed=seed).draw(), seed
    seed = seed_base + 2 * rep
    series, _ = simulate_scenario(scenario.with_seeds(seed, seed + 1))
    return series.log_squared, seed


def default_evaluation_grid(scenario, points: int = 512) -> np.ndarray:
    """Six standard deviations past every component of the stationary law
    ([-10, 10] when the law has no closed form, as for the tanh AR)."""
    if (law := scenario.stationary_law()) is None:
        lo, hi = -10.0, 10.0
    else:
        _, means, variances = law
        lo = min(mean - 6 * np.sqrt(var) for mean, var in zip(means, variances))
        hi = max(mean + 6 * np.sqrt(var) for mean, var in zip(means, variances))
    return uniform_grid(lo, hi, points)


# --------------------------------------------------------------------------- harness

METRIC_NAMES = ("mise", "mse_at_point", "mode_count", "normal_fit_mean", "normal_fit_var")
#: harness estimator -> the name of its function as imported here; it is looked
#: up per call, so a wrapper set on this module's attribute is the one that runs
ESTIMATOR_FUNCTIONS = {"kernel": "estimate_density", "wavelet": "wavelet_estimate",
                       "ppe": "select_and_estimate"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One seeded Monte Carlo experiment.

    `scenario` is a ScenarioConfig or a PureConvolution; a preset name is
    refused with a ConfigError, since `scenario_preset` resolves it.
    Per-replication seeds derive deterministically from `seed_base`.
    """

    scenario: object
    estimator: str
    estimator_config: dict = field(default_factory=dict)
    replications: int = 20
    seed_base: int = 1000
    metrics: tuple[str, ...] = ("mise",)
    grid_points: int = 512
    mse_point: float = 0.0

    def __post_init__(self):
        if isinstance(self.scenario, str):
            raise ConfigError("resolve preset names with scenario_preset(...) first")
        require_finite(self, "mse_point")
        require_int(self, "replications", least=1)
        require_int(self, "grid_points", least=MIN_GRID_POINTS)
        require_int(self, "seed_base")
        unknown = set(self.metrics) - set(METRIC_NAMES)
        if unknown:
            raise ConfigError(f"unknown metrics {sorted(unknown)}; expected {METRIC_NAMES}")
        if self.estimator not in ESTIMATOR_FUNCTIONS:
            raise ConfigError(f"harness supports density estimators, not {self.estimator!r}")
        # the harness passes the series and the grid; the config gives the rest
        estimate = globals()[ESTIMATOR_FUNCTIONS[self.estimator]]
        try:
            inspect.signature(estimate).bind(None, grid=None, **self.estimator_config)
        except TypeError as exc:
            raise ConfigError(f"estimator_config for {self.estimator}: {exc}") from None


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
    """Run the replications in index order and aggregate them."""
    scenario = spec.scenario
    grid = default_evaluation_grid(scenario, spec.grid_points)
    law = scenario.stationary_law()
    if law is None and {"mise", "mse_at_point"} & set(spec.metrics):
        raise ConfigError("mise and mse_at_point need a scenario with a known truth")
    truth = None if law is None else DensityGrid(grid, normal_mixture_density(*law)(grid),
                                                 signed=False)

    estimate = globals()[ESTIMATOR_FUNCTIONS[spec.estimator]]
    rows = []
    for rep in range(spec.replications):
        y, seed = _replicate(scenario, spec.seed_base, rep)
        est = estimate(y, grid=grid, **spec.estimator_config).density
        row: dict = {"replication": rep, "seed": seed}
        for name in spec.metrics:
            if name == "mise":
                row["mise"] = mise(est, truth)
            elif name == "mse_at_point":
                fhat = float(np.interp(spec.mse_point, est.x, est.values))
                f0 = float(np.interp(spec.mse_point, truth.x, truth.values))
                row["mse_at_point"] = (fhat - f0) ** 2
            elif name == "mode_count":
                row["mode_count"] = mode_count(est)
            elif name == "normal_fit_mean":
                row["normal_fit_mean"] = normal_fit(est)[0]
            elif name == "normal_fit_var":
                row["normal_fit_var"] = normal_fit(est)[1]
        rows.append(row)

    columns = tuple(spec.metrics)
    aggregate = {}
    for name in columns:
        vals = np.array([row[name] for row in rows], dtype=float)
        se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        aggregate[name] = (float(vals.mean()), se)
    return ExperimentReport(spec=spec, columns=columns, rows=rows, aggregate=aggregate)
