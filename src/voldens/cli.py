"""End-user pipeline: ingest prices or simulate a scenario, estimate, write files.

Every run writes four artifacts into the output directory (five for the
wavelet estimator, which also dumps its coefficients):

    density.csv       x, fhat        (regression.csv for --estimator regression)
    diagnostics.csv   key, value     (per-level rows for the ppe estimator)
    run_config.txt    resolved configuration, reusable via --config
    plot.gp           a gnuplot script referencing the CSVs

Outputs are plain files and the run is deterministic for a fixed
configuration, so a rerun is byte-identical.  A failure prints one JSON
error object on stderr and exits 2 for a configuration error (a bad flag
included) or 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .errors import ConfigError, DataError, UnknownEstimatorError, VoldensError
from .grids import uniform_grid
from .kerneldeconv import check_gamma_constraint, default_bandwidth, estimate_density
from .ppe import select_and_estimate
from .svsim import (ObservationSeries, ScenarioConfig, parse_kv, parse_value, require_int,
                    require_positive, simulate_scenario)
from .volreg import (DENOMINATOR_FLOOR, default_regression_bandwidth,
                     regression_estimate)
from .waveletdeconv import wavelet_estimate

DEFAULT_GAMMA_KERNEL = 1.0
DEFAULT_GAMMA_REGRESSION = 3.5
ESTIMATORS = ("kernel", "wavelet", "ppe", "regression")


def _boolean(raw: str) -> bool:
    """true/false, 1/0, yes/no or on/off, in any case; any other word is a ValueError."""
    if raw.lower() not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ValueError(raw)
    return raw.lower() in ("true", "1", "yes", "on")


def _int_or_auto(raw: str) -> int | None:
    """None for `auto`, the estimator's theory default."""
    return None if raw == "auto" else int(raw)


#: option key -> (PipelineConfig field, parser, --help text), in the order
#: run_config.txt lists them.  The key is the --config key and, with - for _,
#: the flag; a flag value and a file value are parsed alike, and
#: PipelineConfig checks each field by its parser's kind.
_OPTIONS = {
    "estimator": ("estimator", str, f"one of: {', '.join(ESTIMATORS)}"),
    "out": ("out_dir", str, "output directory"),
    "input": ("input_csv", str, "price CSV with a header row"),
    "scenario": ("scenario", str, "simulation preset (ou-exp, regime-switch, "
                                  "nonlinear-ar) or a scenario key=value file"),
    "n": ("n", int, "scenario sample count"),
    "delta": ("delta", float, "sampling gap; for real data the time units are yours "
                              "(default 1.0 per observation)"),
    "seed": ("seed", int, "scenario seed"),
    "demean": ("demean", _boolean, "center the log returns before transforming"),
    "price_column": ("price_column", str, None),
    "bandwidth": ("bandwidth", float, "kernel/regression bandwidth h (overrides --gamma)"),
    "gamma": ("gamma", float, f"bandwidth constant: h = gamma*pi/log n for the kernel "
                              f"(default {DEFAULT_GAMMA_KERNEL}), h = gamma/log n for the "
                              f"regression (default {DEFAULT_GAMMA_REGRESSION})"),
    "grid_points": ("grid_points", int, None),
    "level": ("level", _int_or_auto, "wavelet detail level m or 'auto'"),
    "truncation": ("truncation", _int_or_auto, "wavelet truncation L or 'auto'"),
    "kappa": ("kappa", float, "ppe penalty constant"),
    "kn": ("kn", int, "ppe coefficient truncation K_n"),
    "denominator_floor": ("denominator_floor", float,
                          f"regression: mask |fhat| below this floor, > 0 ({DENOMINATOR_FLOOR})"),
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
    level: int | None = None
    truncation: int | None = None
    kappa: float = 1.0
    kn: int | None = None
    denominator_floor: float = DENOMINATOR_FLOOR

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise UnknownEstimatorError(f"unknown-estimator: {self.estimator!r} "
                                        f"(expected one of {ESTIMATORS})")
        if (self.input_csv is None) == (self.scenario is None):
            raise ConfigError("exactly one input source required: --input or --scenario")
        for attr, parser, _ in _OPTIONS.values():
            if parser is float:
                require_positive(self, attr)
            elif parser in (int, _int_or_auto):
                require_int(self, attr)

    def to_kv(self) -> str:
        lines = []
        for key, (attr, parser, _) in _OPTIONS.items():
            value = getattr(self, attr)
            if value is None:
                value = "auto" if parser is _int_or_auto else ""
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
    target = "regression.csv" if config.estimator == "regression" else "density.csv"
    written = [out / target]
    diag_rows: list[tuple[str, object]] = [
        ("estimator", config.estimator),
        ("n", n),
        ("delta", config.delta),
        ("zero_increment_count", series.zero_increment_count),
    ]

    if config.estimator == "regression":
        if config.bandwidth is not None:
            h = config.bandwidth
        else:
            gamma = config.gamma if config.gamma is not None else DEFAULT_GAMMA_REGRESSION
            h = default_regression_bandwidth(n, gamma)
        grid = uniform_grid(np.quantile(y, 0.05), np.quantile(y, 0.95), config.grid_points)
        est = regression_estimate(y, h, grid, floor=config.denominator_floor)
        diag_rows += [("bandwidth", h), ("denominator_floor", config.denominator_floor),
                      ("masked_points", int(est.mask.sum()))]
        with open(written[0], "w", newline="") as fh:
            csv.writer(fh).writerows([("x", "mhat", "fhat", "masked")] + [
                (repr(float(x)), "" if masked else repr(float(m)), repr(float(f)), int(masked))
                for x, m, f, masked in zip(est.x, est.m_hat, est.denominator, est.mask)])
    else:
        if config.estimator == "kernel":
            h = _kernel_bandwidth(config, n)
            density = estimate_density(y, h, grid_points=config.grid_points).density
            diag_rows += [("bandwidth", h),
                          ("grid_lo", density.x[0]), ("grid_hi", density.x[-1])]
        elif config.estimator == "wavelet":
            est = wavelet_estimate(y, level=config.level, truncation=config.truncation,
                                   grid_points=config.grid_points)
            density = est.density
            diag_rows += [("level", est.level), ("level_target", est.level_target),
                          ("truncation", est.truncation),
                          ("coefficient_norm", est.diagnostics["coefficient_norm"])]
            written.append(out / "coefficients.csv")
            ls = np.arange(-est.truncation, est.truncation + 1)
            np.savetxt(written[-1], np.column_stack([ls, est.coefficients]),
                       delimiter=",", header="l,a_hat", comments="")
        else:  # ppe
            est = select_and_estimate(y, config.kappa, config.kn,
                                      grid_points=config.grid_points)
            density = est.density
            diag_rows += [("selected_level", est.selected_level), ("k_n", est.k_n)]
            for L in sorted(est.contrasts):
                diag_rows.append((f"contrast_L{L}", est.contrasts[L]))
                diag_rows.append((f"penalty_L{L}", est.penalties[L]))
                diag_rows.append((f"selected_L{L}", int(L == est.selected_level)))
        diag_rows += _shape_rows(density)
        density.to_csv(written[0], value_name="ghat" if config.estimator == "wavelet" else "fhat")

    with open(out / "diagnostics.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("key", "value"), *diag_rows])
    (out / "run_config.txt").write_text(config.to_kv())
    (out / "plot.gp").write_text("set datafile separator ','\n"
                                 "set key off\n"
                                 f"plot '{target}' using 1:2 with lines\n")
    return written + [out / "diagnostics.csv", out / "run_config.txt", out / "plot.gp"]


def _shape_rows(density) -> list[tuple[str, object]]:
    """The mode count and normal fit of an estimate, or one degenerate mode_count row."""
    try:
        modes = metrics_mod.mode_count(density)
        mean, var, _ = metrics_mod.normal_fit(density)
    except DataError:
        return [("mode_count", "degenerate")]
    return [("mode_count", modes), ("normal_fit_mean", mean), ("normal_fit_var", var)]


# --------------------------------------------------------------------------- argument parsing

class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ConfigError, so main prints it as JSON like any other."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="voldens",
        description="Estimate the invariant density of an unobserved volatility "
                    "process from sampled prices, by deconvolution.")
    src = p.add_argument_group("input (exactly one)")
    p.add_argument("--config", help="key=value file mirroring these flags; flags win")
    for key, (_, _, text) in _OPTIONS.items():
        group = src if key in ("input", "scenario") else p
        # --demean takes no value: it stands for `demean = true`
        flag = {"action": "store_const", "const": "true"} if key == "demean" else {}
        group.add_argument("--" + key.replace("_", "-"), help=text, **flag)
    return p


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge a --config file (if any) with command-line flags; flags win.  Each
    value is a string its option's parser reads once; an empty one is unset."""
    pairs = list(parse_kv(Path(args.config).read_text()).items()) if args.config else []
    pairs += [(key, getattr(args, key)) for key in _OPTIONS if getattr(args, key) is not None]
    values: dict = {}
    for key, raw in pairs:
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, parser, _ = _OPTIONS[key]
        if raw != "":
            values[attr] = parse_value(key, raw, parser)
    if "estimator" not in values:
        raise ConfigError("an --estimator is required")
    if "out_dir" not in values:
        raise ConfigError("an --out directory is required")
    return PipelineConfig(**values)


def main(argv=None) -> int:
    """Run the pipeline from the command line; return the exit code (0, 1 or 2)."""
    try:
        run_pipeline(resolve_config(build_parser().parse_args(argv)))
        return 0
    except VoldensError as exc:
        kind, message, code = exc.kind, str(exc), 2 if isinstance(exc, ConfigError) else 1
    except OSError as exc:
        kind, message, code = "io", str(exc), 1
    except MemoryError as exc:
        kind, message, code = "memory", str(exc) or "out of memory", 1
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
