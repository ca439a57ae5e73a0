"""End-user pipeline: ingest prices or simulate a scenario, estimate, write files.

Every run writes four artifacts into the output directory (five for the
wavelet estimator, which also dumps its coefficients):

    density.csv       x, fhat        (regression.csv for --estimator regression)
    diagnostics.csv   key, value     (per-level rows for the ppe estimator)
    run_config.txt    resolved configuration, reusable via --config
    plot.gp           a gnuplot script referencing the CSVs

Outputs are plain files and the run is deterministic for a fixed
configuration, so a rerun is byte-identical.  All failures exit nonzero
with a machine-readable JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .errors import ConfigError, DataError, ParameterError, VoldensError
from .grids import uniform_grid
from .kerneldeconv import (KernelSpec, check_gamma_constraint, default_bandwidth,
                           estimate_density)
from .ppe import PpeConfig, select_and_estimate
from .svsim import (ObservationSeries, ScenarioConfig, parse_kv, parse_value, require_finite,
                    simulate_scenario)
from .volreg import (DENOMINATOR_FLOOR, default_regression_bandwidth,
                     regression_estimate)
from .waveletdeconv import wavelet_estimate

DEFAULT_GAMMA_KERNEL = 1.0
DEFAULT_GAMMA_REGRESSION = 3.5
ESTIMATORS = ("kernel", "wavelet", "ppe", "regression")


#: config-file key (= argparse dest) -> (PipelineConfig field, parser), in
#: the order run_config.txt lists them
_CONFIG_KEYS = {
    "estimator": ("estimator", str), "out": ("out_dir", str),
    "input": ("input_csv", str), "scenario": ("scenario", str),
    "n": ("n", int), "delta": ("delta", float), "seed": ("seed", int),
    "demean": ("demean", lambda s: s.lower() in ("1", "true", "yes", "on")),
    "price_column": ("price_column", str),
    "bandwidth": ("bandwidth", float), "gamma": ("gamma", float),
    "grid_points": ("grid_points", int),
    "level": ("level", str), "truncation": ("truncation", str),
    "kappa": ("kappa", float), "kn": ("kn", int),
    "denominator_floor": ("denominator_floor", float),
}


@dataclass
class PipelineConfig:
    """Fully resolved pipeline run; exactly one of input_csv / scenario is set."""

    estimator: str
    out_dir: str
    input_csv: str | None = None
    scenario: str | None = None
    n: int = 2600
    delta: float = 1.0
    seed: int = 1
    demean: bool = False
    price_column: str | None = None
    bandwidth: float | None = None
    gamma: float | None = None
    grid_points: int = 512
    level: str = "auto"
    truncation: str = "auto"
    kappa: float = 1.0
    kn: int | None = None
    denominator_floor: float = DENOMINATOR_FLOOR

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown-estimator: {self.estimator!r} "
                              f"(expected one of {ESTIMATORS})")
        if (self.input_csv is None) == (self.scenario is None):
            raise ConfigError("exactly one input source required: --input or --scenario")
        require_finite(self, "delta", "bandwidth", "gamma", "kappa", "denominator_floor")
        if self.delta <= 0:
            raise ParameterError("delta must be positive")
        for key in ("level", "truncation"):
            value = str(getattr(self, key))
            if not re.fullmatch(r"auto|\s*[+-]?\d+\s*", value):
                raise ConfigError(f"{key} must be an integer or 'auto', got {value!r}")

    def to_kv(self) -> str:
        lines = []
        for key, (attr, _) in _CONFIG_KEYS.items():
            value = getattr(self, attr)
            if value is None:
                value = ""
            elif isinstance(value, bool):
                value = str(value).lower()
            lines.append(f"{key} = {value}\n")
        return "".join(lines)


def _loadtxt_prices(body: str, col: int) -> np.ndarray | None:
    """The price column of the rows after the header, parsed by numpy.

    None unless it yields at least 3 finite positive prices; the caller then
    parses the rows with `csv`, which names the offending line.  A quote
    character anywhere in the body also gives None: `csv` splits quoted
    cells differently from `loadtxt`, which could pick another column.  An
    empty body gives None before `loadtxt` can warn that it found no rows.
    """
    if '"' in body or not body.strip():
        return None
    try:
        prices = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", usecols=col,
                            comments=None, ndmin=1)
    except ValueError:
        return None
    if prices.size < 3 or not np.all(np.isfinite(prices) & (prices > 0)):
        return None
    return prices


def ingest_prices(path, delta: float = 1.0, demean: bool = False,
                  price_column: str | None = None) -> ObservationSeries:
    """Load a price CSV into an ObservationSeries of log prices.

    The file needs a header and strictly positive prices; the column is
    picked by name when given, otherwise the last column.  Uniform spacing
    is assumed with the gap `delta` supplied by the caller.  With `demean`,
    the sample mean of the log returns is subtracted (implemented as a
    linear detrend of the log prices, so the increment identity holds
    exactly and the demeaned returns average to zero up to rounding).

    Well-formed files are parsed by `np.loadtxt`, whose floats are bitwise
    those of `float()`; anything else goes through a `csv` row loop whose
    errors name the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV file") from None
        if price_column is not None:
            names = [h.strip() for h in header]
            if price_column not in names:
                raise DataError(f"price column {price_column!r} not in header {names}")
            col = names.index(price_column)
        else:
            col = len(header) - 1
        body = fh.read()
    prices = _loadtxt_prices(body, col)
    if prices is None:
        prices = _csv_prices(csv.reader(io.StringIO(body, newline="")), col)
    if np.any(prices <= 0):
        raise DataError("prices must be strictly positive to take logarithms")
    log_prices = np.log(prices)
    if demean:
        returns = np.diff(log_prices)
        trend = returns.mean() * np.arange(log_prices.size)
        log_prices = log_prices - trend
    return ObservationSeries(log_prices=log_prices, delta=delta)


def _csv_prices(rows, col: int) -> np.ndarray:
    """The price column of the csv rows after the header; DataError names the bad line."""
    prices = []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            prices.append(float(row[col]))
        except (ValueError, IndexError):
            raise DataError(f"non-numeric price cell at line {lineno}") from None
        if not np.isfinite(prices[-1]):
            raise DataError(f"non-finite price cell at line {lineno}")
    if len(prices) < 3:
        raise DataError("need at least 3 price rows")
    return np.asarray(prices, dtype=float)


# --------------------------------------------------------------------------- pipeline

def _resolve_scenario(config: PipelineConfig) -> ScenarioConfig:
    """The preset or scenario file that config.scenario names, seeded by config.seed."""
    name = config.scenario
    if name in metrics_mod.PRESET_NAMES and name != "pure-convolution":
        scenario = metrics_mod.scenario_preset(name, config.n, config.delta)
    elif Path(name).exists():
        scenario = ScenarioConfig.from_kv(Path(name).read_text())
    else:
        raise ConfigError(f"scenario {name!r} is neither a preset "
                          f"{metrics_mod.PRESET_NAMES[:-1]} nor a readable file")
    return scenario.with_seeds(config.seed * 2 + 1, config.seed * 2 + 2)


def _kernel_bandwidth(config: PipelineConfig, n: int) -> float:
    if config.bandwidth is not None:
        return config.bandwidth
    gamma = config.gamma if config.gamma is not None else DEFAULT_GAMMA_KERNEL
    check_gamma_constraint(n, config.delta, gamma)
    return default_bandwidth(n, gamma)


def run_pipeline(config: PipelineConfig) -> list[Path]:
    """Execute one run and return the list of files written."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.input_csv is not None:
        series = ingest_prices(config.input_csv, config.delta, config.demean,
                               config.price_column)
    else:
        scenario = _resolve_scenario(config)
        # a scenario file carries its own n and delta; report the ones simulated
        config = replace(config, n=scenario.n, delta=scenario.delta)
        series = simulate_scenario(scenario)[0]
    y = series.log_squared
    n = y.size
    written: list[Path] = []
    diag_rows: list[tuple[str, object]] = [
        ("estimator", config.estimator),
        ("n", n),
        ("delta", config.delta),
        ("zero_increment_count", series.zero_increment_count),
    ]

    if config.estimator == "kernel":
        h = _kernel_bandwidth(config, n)
        report = estimate_density(y, KernelSpec(bandwidth=h,
                                                grid_points=config.grid_points))
        density = report.density
        diag_rows += [("bandwidth", h),
                      ("grid_lo", density.x[0]), ("grid_hi", density.x[-1])]
        _append_shape_diagnostics(diag_rows, density)
        written.append(_write_density(out / "density.csv", density, "fhat"))
    elif config.estimator == "wavelet":
        level = None if config.level == "auto" else int(config.level)
        trunc = None if config.truncation == "auto" else int(config.truncation)
        est = wavelet_estimate(y, level=level, truncation=trunc,
                               grid_points=config.grid_points)
        density = est.density
        diag_rows += [("level", est.level), ("level_target", est.level_target),
                      ("truncation", est.truncation),
                      ("coefficient_norm", est.diagnostics["coefficient_norm"])]
        _append_shape_diagnostics(diag_rows, density)
        written.append(_write_density(out / "density.csv", density, "ghat"))
        coeff_path = out / "coefficients.csv"
        ls = np.arange(-est.truncation, est.truncation + 1)
        np.savetxt(coeff_path, np.column_stack([ls, est.coefficients]),
                   delimiter=",", header="l,a_hat", comments="")
        written.append(coeff_path)
    elif config.estimator == "ppe":
        est = select_and_estimate(y, PpeConfig(kappa=config.kappa, k_n=config.kn,
                                               grid_points=config.grid_points))
        density = est.density
        diag_rows += [("selected_level", est.selected_level), ("k_n", est.k_n)]
        for L in sorted(est.contrasts):
            diag_rows.append((f"contrast_L{L}", est.contrasts[L]))
            diag_rows.append((f"penalty_L{L}", est.penalties[L]))
            diag_rows.append((f"selected_L{L}", int(L == est.selected_level)))
        _append_shape_diagnostics(diag_rows, density)
        written.append(_write_density(out / "density.csv", density, "fhat"))
    else:  # regression
        if config.bandwidth is not None:
            h = config.bandwidth
        else:
            gamma = config.gamma if config.gamma is not None else DEFAULT_GAMMA_REGRESSION
            h = default_regression_bandwidth(n, gamma)
        grid = uniform_grid(np.quantile(y, 0.05), np.quantile(y, 0.95), config.grid_points)
        est = regression_estimate(y, h, grid, floor=config.denominator_floor)
        diag_rows += [("bandwidth", h), ("denominator_floor", config.denominator_floor),
                      ("masked_points", int(est.mask.sum()))]
        path = out / "regression.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "mhat", "fhat", "masked"])
            for i in range(grid.size):
                writer.writerow([repr(float(est.x[i])),
                                 "" if est.mask[i] else repr(float(est.m_hat[i])),
                                 repr(float(est.denominator[i])), int(est.mask[i])])
        written.append(path)

    diag_path = out / "diagnostics.csv"
    with open(diag_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for key, value in diag_rows:
            writer.writerow([key, value])
    written.append(diag_path)

    echo_path = out / "run_config.txt"
    echo_path.write_text(config.to_kv())
    written.append(echo_path)

    plot_path = out / "plot.gp"
    target = "regression.csv" if config.estimator == "regression" else "density.csv"
    plot_path.write_text(
        "set datafile separator ','\n"
        "set key off\n"
        f"plot '{target}' using 1:2 with lines\n")
    written.append(plot_path)
    return written


def _write_density(path: Path, density, value_name: str) -> Path:
    density.to_csv(path, value_name=value_name)
    return path


def _append_shape_diagnostics(rows: list, density) -> None:
    try:
        rows.append(("mode_count", metrics_mod.mode_count(density)))
        mean, var, _ = metrics_mod.normal_fit(density)
        rows.append(("normal_fit_mean", mean))
        rows.append(("normal_fit_var", var))
    except DataError:
        rows.append(("mode_count", "degenerate"))


# --------------------------------------------------------------------------- argument parsing

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="voldens",
        description="Estimate the invariant density of an unobserved volatility "
                    "process from sampled prices, by deconvolution.")
    src = p.add_argument_group("input (exactly one)")
    src.add_argument("--input", help="price CSV with a header row")
    src.add_argument("--scenario",
                     help="simulation preset (ou-exp, regime-switch, nonlinear-ar) "
                          "or a scenario key=value file")
    p.add_argument("--config", help="key=value file mirroring these flags; flags win")
    p.add_argument("--estimator", choices=ESTIMATORS, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--n", type=int, default=None, help="scenario sample count")
    p.add_argument("--delta", type=float, default=None,
                   help="sampling gap; for real data the time units are yours "
                        "(default 1.0 per observation)")
    p.add_argument("--seed", type=int, default=None, help="scenario seed")
    p.add_argument("--demean", action="store_true", default=None,
                   help="center the log returns before transforming")
    p.add_argument("--price-column", default=None)
    p.add_argument("--bandwidth", type=float, default=None,
                   help="kernel/regression bandwidth h (overrides --gamma)")
    p.add_argument("--gamma", type=float, default=None,
                   help=f"bandwidth constant: h = gamma*pi/log n for the kernel "
                        f"(default {DEFAULT_GAMMA_KERNEL}), h = gamma/log n for the "
                        f"regression (default {DEFAULT_GAMMA_REGRESSION})")
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--level", default=None, help="wavelet detail level m or 'auto'")
    p.add_argument("--truncation", default=None, help="wavelet truncation L or 'auto'")
    p.add_argument("--kappa", type=float, default=None, help="ppe penalty constant")
    p.add_argument("--kn", type=int, default=None, help="ppe coefficient truncation K_n")
    p.add_argument("--denominator-floor", type=float, default=None)
    return p


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge a --config file (if any) with command-line flags; flags win."""
    values: dict = {}
    if args.config:
        kv = parse_kv(Path(args.config).read_text())
        for key, raw in kv.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if raw == "":
                continue
            attr, conv = _CONFIG_KEYS[key]
            values[attr] = parse_value(key, raw, conv)
    for key, (attr, _) in _CONFIG_KEYS.items():
        flag = getattr(args, key)
        if flag is not None:
            values[attr] = flag
    if "estimator" not in values:
        raise ConfigError("an --estimator is required")
    if "out_dir" not in values:
        raise ConfigError("an --out directory is required")
    values.setdefault("demean", False)
    return PipelineConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        run_pipeline(config)
    except VoldensError as exc:
        kind = exc.kind
        message = str(exc)
        if message.startswith("unknown-estimator"):
            kind = "unknown-estimator"
        json.dump({"error": kind, "message": message}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if kind in ("config", "unknown-estimator") else 1
    except OSError as exc:
        json.dump({"error": "io", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except MemoryError as exc:
        json.dump({"error": "memory", "message": str(exc) or "out of memory"}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
