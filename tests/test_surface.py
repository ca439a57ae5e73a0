"""The package's public surface: `voldens.__all__`, and no test-only code in `src/`.

Every public top-level name in `src/voldens` must either be exported through
`__all__` or be used somewhere else in `src/`.  Code that only the tests call
belongs in `tests/reference.py`.  The parameters of the entry points and the
fields of the option and result classes (and of `_tables.Band`) are pinned
too, and so are the CLI's option keys, so that a new option or flag is a
reviewed edit here.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import voldens
from voldens._tables import Band
from voldens.cli import _OPTIONS, PipelineConfig, build_parser, ingest_prices
from voldens.svsim import VolatilityPath, simulate_ar_logvol

SRC = Path(voldens.__file__).resolve().parent

EXPORTS = {
    "ConfigError", "DataError", "NumericsError", "ParameterError", "VoldensError",
    "DensityGrid",
    "EstimateReport", "default_bandwidth", "estimate_density",
    "wand_charfn", "wand_kernel",
    "ExperimentSpec", "PureConvolution", "mise", "mode_count", "normal_fit",
    "run_experiment", "scenario_preset",
    "inv_noise_charfn", "noise_charfn", "noise_density",
    "PpeEstimate", "contrast", "penalty", "phi_k_integral",
    "ppe_coefficients", "select_and_estimate",
    "ArParams", "ObservationSeries", "OuParams", "RegimeSwitchParams", "ScenarioConfig",
    "invariant_density", "log_squared_transform", "simulate_markov2", "simulate_ou",
    "simulate_price", "simulate_scenario", "simulate_volatility",
    "RegressionEstimate", "default_regression_bandwidth", "regression_estimate",
    "WaveletEstimate", "meyer_scaling_fourier", "wavelet_coefficients", "wavelet_estimate",
}

#: entry point -> its parameter names, in order
PARAMETERS = {
    voldens.estimate_density: ("y", "bandwidth", "grid", "grid_points"),
    voldens.regression_estimate: ("y", "h", "grid", "floor"),
    voldens.wavelet_estimate: ("y", "level", "truncation", "grid", "grid_points"),
    voldens.select_and_estimate: ("y", "kappa", "k_n", "levels", "grid", "grid_points"),
    voldens.run_experiment: ("spec",),
    voldens.simulate_ou: ("params", "steps", "dt", "seed"),
    voldens.simulate_markov2: ("rate_01", "rate_10", "steps", "dt", "seed"),
    simulate_ar_logvol: ("m", "innovation_sd", "steps", "seed"),
    voldens.simulate_price: ("sigma2_path", "config"),
    voldens.simulate_scenario: ("config",),
    ingest_prices: ("path", "delta", "demean", "price_column"),
}

#: option or result dataclass -> its field names, in order
FIELDS = {
    voldens.ExperimentSpec: ("scenario", "estimator", "estimator_config", "replications",
                             "seed_base", "metrics", "grid_points", "mse_point"),
    voldens.ScenarioConfig: ("model", "params", "delta", "n", "substeps", "drift",
                             "vol_seed", "price_seed"),
    voldens.OuParams: ("mean_reversion", "level", "diffusion", "x0"),
    voldens.RegimeSwitchParams: ("regime0", "regime1", "rate_01", "rate_10"),
    voldens.ArParams: ("function", "slope", "intercept", "scale", "innovation_sd"),
    PipelineConfig: ("estimator", "out_dir", "input_csv", "scenario", "n", "delta", "seed",
                     "demean", "price_column", "bandwidth", "gamma", "grid_points", "level",
                     "truncation", "kappa", "kn", "denominator_floor"),
    voldens.EstimateReport: ("density", "diagnostics"),
    VolatilityPath: ("sigma2", "log_sigma2", "truth"),
    # one description per transform: a second per-band description is an edit here
    Band: ("spectrum", "param", "s_max", "step", "bridged"),
}

#: the CLI's options in run_config.txt order: each is a --config key and,
#: with - for _, a flag
OPTION_KEYS = ("estimator", "out", "input", "scenario", "n", "delta", "seed", "demean",
               "price_column", "bandwidth", "gamma", "grid_points", "level", "truncation",
               "kappa", "kn", "denominator_floor")


def _defined(stmt: ast.stmt) -> list[str]:
    """Public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _used(node: ast.AST) -> set[str]:
    """Names a node reads, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_all_is_pinned():
    assert set(voldens.__all__) == EXPORTS
    assert len(voldens.__all__) == len(EXPORTS)
    assert all(hasattr(voldens, name) for name in voldens.__all__)


def test_every_public_name_is_exported_or_used_in_src():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # `__init__` only re-exports, so its imports are not uses
    stmts = [(name, stmt, _used(stmt)) for name, tree in modules.items()
             if name != "__init__.py" for stmt in tree.body]
    orphans = []
    for module, stmt, _ in stmts:
        for name in _defined(stmt):
            elsewhere = any(name in used for _, other, used in stmts if other is not stmt)
            if not elsewhere and name not in EXPORTS:
                orphans.append(f"{module}:{name}")
    assert not orphans, f"public names neither exported nor used in src/: {orphans}"


def test_every_import_is_read():
    # a name a module imports and never reads is a dead import.  A read is a
    # bare name or a string naming it (`metrics` looks its estimators up by
    # name per call); `__init__` only re-exports, and `__future__` imports are
    # directives
    dead = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {sub.id if isinstance(sub, ast.Name) else sub.value for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                or isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                dead += [f"{path.name}:{name}" for alias in stmt.names
                         if (name := alias.asname or alias.name.split(".")[0]) not in read]
    assert not dead, f"imported but never read: {dead}"


def test_entry_point_parameters_are_pinned():
    params = {f.__name__: tuple(inspect.signature(f).parameters) for f in PARAMETERS}
    assert params == {f.__name__: names for f, names in PARAMETERS.items()}
    fields = {c.__name__: tuple(f.name for f in dataclasses.fields(c)) for c in FIELDS}
    assert fields == {c.__name__: names for c, names in FIELDS.items()}


def test_cli_options_are_pinned():
    # one table row per PipelineConfig field, in field order, and one flag per row
    assert tuple(_OPTIONS) == OPTION_KEYS
    assert tuple(attr for attr, _, _ in _OPTIONS.values()) == tuple(
        f.name for f in dataclasses.fields(PipelineConfig))
    flags = {flag for action in build_parser()._actions for flag in action.option_strings}
    assert flags == {"-h", "--help", "--config"} | {
        "--" + key.replace("_", "-") for key in OPTION_KEYS}
