"""Tests for price ingestion and the end-user pipeline."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voldens.cli as cli
from voldens.cli import (ESTIMATORS, PipelineConfig, build_parser, ingest_prices, main,
                         resolve_config, run_pipeline)
from voldens.errors import ConfigError, DataError


def _write_prices(path, prices, header="date,price"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header.split(","))
        for i, p in enumerate(prices):
            writer.writerow([f"d{i}", p])


class TestIngestPrices:
    def test_log_returns(self, tmp_path):
        path = tmp_path / "p.csv"
        _write_prices(path, [1.0, np.e, np.e ** 2])
        series = ingest_prices(path, delta=1.0)
        np.testing.assert_allclose(series.increments, [1.0, 1.0], rtol=1e-14)

    def test_demean_centers_exactly(self, tmp_path):
        path = tmp_path / "p.csv"
        _write_prices(path, [1.0, np.e, np.e ** 2])
        series = ingest_prices(path, delta=1.0, demean=True)
        np.testing.assert_allclose(series.increments, [0.0, 0.0], atol=1e-15)

    def test_demean_mean_below_tolerance(self, tmp_path):
        rng = np.random.default_rng(1)
        prices = np.exp(np.cumsum(rng.normal(0.01, 0.05, 400)))
        path = tmp_path / "p.csv"
        _write_prices(path, prices)
        series = ingest_prices(path, delta=1.0, demean=True)
        returns = np.diff(series.log_prices)
        assert abs(returns.mean()) < 1e-12

    def test_demean_idempotent(self, tmp_path):
        rng = np.random.default_rng(2)
        prices = np.exp(np.cumsum(rng.normal(0.01, 0.05, 100)))
        path = tmp_path / "p.csv"
        _write_prices(path, prices)
        once = ingest_prices(path, delta=1.0, demean=True)
        # demeaning the already-demeaned series changes nothing
        returns = np.diff(once.log_prices)
        trend = returns.mean() * np.arange(once.log_prices.size)
        np.testing.assert_allclose(once.log_prices - trend, once.log_prices,
                                   atol=1e-12)

    def test_named_column(self, tmp_path):
        path = tmp_path / "p.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["close", "volume"])
            for p in (100.0, 101.0, 103.0, 99.0):
                writer.writerow([p, 1e6])
        series = ingest_prices(path, price_column="close")
        assert series.n == 3

    def test_rejects_bad_input(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_prices(path, [1.0, -2.0, 3.0])
        with pytest.raises(DataError):
            ingest_prices(path)
        _write_prices(path, [1.0, 2.0])
        with pytest.raises(DataError):
            ingest_prices(path)
        with open(path, "w") as fh:
            fh.write("date,price\nx,notanumber\ny,1.0\nz,2.0\n")
        with pytest.raises(DataError):
            ingest_prices(path)


# Loaded by scipy.signal, which a simulation must not import: each costs
# start-up time that a CLI run never uses.
HEAVY_SCIPY = {"scipy.signal", "scipy.stats", "scipy.integrate", "scipy.interpolate",
               "scipy.optimize", "scipy.linalg"}


def _modules_loaded_by(code):
    """The names in sys.modules after running `code` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import sys; {code}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return set(proc.stdout.split())


def _scipy_modules(loaded):
    return sorted(m for m in loaded if m.split(".")[0] == "scipy")


@pytest.mark.parametrize("module", ["voldens", "voldens.cli"])
def test_import_loads_no_heavy_scipy_module(module):
    # since start-up runs on numpy alone, every scipy module counts as heavy
    loaded = _modules_loaded_by(f"import {module}")
    assert {"numpy", "voldens._tables"} <= loaded
    assert not _scipy_modules(loaded)
    # the Monte Carlo harness runs its replications in one serial loop
    assert "concurrent.futures" not in loaded


@pytest.mark.parametrize("estimator", ["kernel", "wavelet", "ppe", "regression"])
def test_cli_run_loads_no_scipy_module(estimator, tmp_path):
    argv = ["--scenario", "nonlinear-ar", "--n", "400", "--estimator", estimator,
            "--out", str(tmp_path)]
    loaded = _modules_loaded_by(f"from voldens.cli import main; assert main({argv!r}) == 0")
    assert (tmp_path / ("regression.csv" if estimator == "regression" else "density.csv")).exists()
    assert not _scipy_modules(loaded)


@pytest.mark.parametrize("preset", ["ou-exp", "regime-switch"])
def test_simulation_loads_no_heavy_scipy_module(preset):
    loaded = _modules_loaded_by("from voldens import scenario_preset, simulate_scenario; "
                                f"simulate_scenario(scenario_preset({preset!r}, 300))")
    assert not loaded & HEAVY_SCIPY, sorted(loaded & HEAVY_SCIPY)


@pytest.fixture(params=["loadtxt", "csv-loop"])
def parser(request, monkeypatch):
    """Run a test once as is and once with `np.loadtxt` failing, which sends
    every file through the `csv` row loop."""
    if request.param == "csv-loop":
        def refuse(*args, **kwargs):
            raise ValueError("loadtxt disabled")
        monkeypatch.setattr(cli.np, "loadtxt", refuse)
    return request.param


def _loop_log_prices(path):
    """Log prices of the last column as `csv` plus `float()` read them: the reference."""
    with open(path, newline="") as fh:
        rows = [r for r in list(csv.reader(fh))[1:] if r and any(c.strip() for c in r)]
    return np.log(np.array([float(r[-1]) for r in rows]))


class TestIngestParsers:
    def test_repr_prices_bitwise_equal_to_float(self, tmp_path, parser):
        rng = np.random.default_rng(7)
        prices = np.exp(np.cumsum(rng.normal(0.0, 0.01, 10_000)) + 4.6)
        path = tmp_path / "p.csv"
        with open(path, "w") as fh:
            fh.write("t,price\n")
            fh.writelines(f"{i * 0.05!r},{p!r}\n" for i, p in enumerate(prices.tolist()))
        log_prices = ingest_prices(path, delta=0.05).log_prices
        assert log_prices.tobytes() == _loop_log_prices(path).tobytes()
        assert log_prices.tobytes() == np.log(prices).tobytes()

    def test_well_formed_file_is_parsed_by_loadtxt(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(cli.np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        monkeypatch.setattr(cli, "_csv_prices", None)  # the row loop must not run
        path = tmp_path / "p.csv"
        _write_prices(path, [100.0, 101.5, 99.25, 102.0])
        assert ingest_prices(path).n == 3
        assert calls == [1]

    @pytest.mark.parametrize("cell, line, message", [
        ("abc", 4, "non-numeric"), ("", 4, "non-numeric"), ("1.0#2", 4, "non-numeric"),
        ("nan", 4, "non-finite"), ("inf", 4, "non-finite"), ("-inf", 4, "non-finite"),
    ])
    def test_bad_cell_names_its_line(self, tmp_path, parser, cell, line, message):
        path = tmp_path / "p.csv"
        path.write_text(f"date,price\na,100.0\nb,101.0\nc,{cell}\nd,102.0\ne,103.0\n")
        with pytest.raises(DataError, match=f"{message} price cell at line {line}$"):
            ingest_prices(path)

    def test_short_row_names_its_line(self, tmp_path, parser):
        path = tmp_path / "p.csv"
        path.write_text("date,price\na,100.0\nb,101.0\nc,102.0\nd\ne,103.0\n")
        with pytest.raises(DataError, match="non-numeric price cell at line 5$"):
            ingest_prices(path)

    @pytest.mark.parametrize("body, expected", [
        ('a,"101.5"\nb,102\nc,103\n', [101.5, 102.0, 103.0]),
        ("a,1_000\nb,1_001.5\nc,999\n", [1000.0, 1001.5, 999.0]),
        ("a, 101.5 \nb,\t102\nc,103\n", [101.5, 102.0, 103.0]),
        ("a,101\r\nb,102\r\nc,103\r\n", [101.0, 102.0, 103.0]),
        ("a,101\rb,102\rc,103\r", [101.0, 102.0, 103.0]),
        ("a,101,7\nb,102\nc,103\n", [101.0, 102.0, 103.0]),
    ])
    def test_cells_float_accepts_parse_as_float_does(self, tmp_path, parser, body, expected):
        path = tmp_path / "p.csv"
        with open(path, "w", newline="") as fh:
            fh.write("date,price\n" + body)
        assert ingest_prices(path).log_prices.tobytes() == np.log(expected).tobytes()

    def test_quoted_comma_keeps_csv_columns(self, tmp_path, parser):
        # split at every comma, line 2 would put 9 in the price column
        path = tmp_path / "p.csv"
        path.write_text('a,b,price\n"q,7",9,10\nx,1,11\ny,2,12\n')
        np.testing.assert_array_equal(ingest_prices(path).log_prices, np.log([10.0, 11.0, 12.0]))

    def test_whitespace_rows_are_skipped(self, tmp_path, parser):
        path = tmp_path / "p.csv"
        path.write_text("date,price\na,100\n\n   \n , \nb,101\n\t\nc,102\n")
        np.testing.assert_array_equal(ingest_prices(path).log_prices, np.log([100.0, 101.0, 102.0]))

    def test_price_column_by_name(self, tmp_path, parser):
        path = tmp_path / "p.csv"
        path.write_text("date, close ,volume\na,100,5\nb,101,6\nc,102,7\nd,103,8\n")
        np.testing.assert_array_equal(ingest_prices(path, price_column="close").log_prices,
                                      np.log([100.0, 101.0, 102.0, 103.0]))
        np.testing.assert_array_equal(ingest_prices(path).log_prices, np.log([5.0, 6, 7, 8]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body, message", [
        ("", "need at least 3 price rows"),
        ("\n\r\n\n", "need at least 3 price rows"),
        ("a,100\nb,101\n", "need at least 3 price rows"),
        ("a,100\nb,0\nc,101\n", "strictly positive"),
        ("a,100\nb,-1\nc,101\n", "strictly positive"),
    ])
    def test_too_few_or_non_positive_prices(self, tmp_path, parser, body, message):
        path = tmp_path / "p.csv"
        path.write_text("date,price\n" + body)
        with pytest.raises(DataError, match=message):
            ingest_prices(path)


class TestPipeline:
    def test_scenario_kernel_writes_four_files(self, tmp_path):
        out = tmp_path / "run"
        cfg = PipelineConfig(estimator="kernel", out_dir=str(out),
                             scenario="ou-exp", n=400, delta=0.05, seed=3,
                             bandwidth=0.5, grid_points=128)
        written = run_pipeline(cfg)
        names = sorted(p.name for p in written)
        assert names == ["density.csv", "diagnostics.csv", "plot.gp",
                         "run_config.txt"]
        data = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
        assert data.shape == (128, 2)

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = PipelineConfig(estimator="kernel", out_dir=str(out),
                                 scenario="ou-exp", n=300, delta=0.05, seed=9,
                                 gamma=1.0, grid_points=64)
            run_pipeline(cfg)
            outs.append(out)
        for fname in ("density.csv", "diagnostics.csv", "plot.gp"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_wavelet_writes_coefficients(self, tmp_path):
        out = tmp_path / "w"
        cfg = PipelineConfig(estimator="wavelet", out_dir=str(out),
                             scenario="ou-exp", n=200, delta=0.05, seed=2,
                             truncation="100")
        run_pipeline(cfg)
        coeffs = np.loadtxt(out / "coefficients.csv", delimiter=",", skiprows=1)
        assert coeffs.shape == (201, 2)

    def test_ppe_diagnostics_per_level(self, tmp_path):
        out = tmp_path / "p"
        cfg = PipelineConfig(estimator="ppe", out_dir=str(out),
                             scenario="ou-exp", n=250, delta=0.05, seed=4, kn=80)
        run_pipeline(cfg)
        diag = (out / "diagnostics.csv").read_text()
        assert "selected_level" in diag
        assert "contrast_L1" in diag and "penalty_L1" in diag

    def test_regression_output_columns(self, tmp_path):
        out = tmp_path / "r"
        cfg = PipelineConfig(estimator="regression", out_dir=str(out),
                             scenario="nonlinear-ar", n=500, delta=1.0, seed=5,
                             grid_points=64)
        run_pipeline(cfg)
        header = (out / "regression.csv").read_text().splitlines()[0]
        assert header == "x,mhat,fhat,masked"
        assert (out / "plot.gp").read_text().count("regression.csv") == 1

    def test_aex_shaped_run_reports_mode_count(self, tmp_path):
        # synthetic stand-in for the daily-closing-values workflow: 2600
        # observations, kernel estimator, bandwidth 0.7 chosen by hand
        out = tmp_path / "aex"
        cfg = PipelineConfig(estimator="kernel", out_dir=str(out),
                             scenario="ou-exp", n=2600, delta=1.0, seed=7,
                             bandwidth=0.7)
        run_pipeline(cfg)
        rows = dict(csv.reader((out / "diagnostics.csv").read_text()
                               .strip().splitlines()[1:]))
        assert "mode_count" in rows
        assert int(rows["mode_count"]) >= 1
        assert "normal_fit_mean" in rows and "normal_fit_var" in rows

    def test_csv_input_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        prices = np.exp(np.cumsum(rng.normal(0.0, 0.1, 300)))
        path = tmp_path / "prices.csv"
        _write_prices(path, prices)
        out = tmp_path / "ingested"
        cfg = PipelineConfig(estimator="kernel", out_dir=str(out),
                             input_csv=str(path), demean=True, bandwidth=0.7)
        run_pipeline(cfg)
        assert (out / "density.csv").exists()

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig(estimator="magic", out_dir=str(tmp_path),
                           scenario="ou-exp")
        with pytest.raises(ConfigError):
            PipelineConfig(estimator="kernel", out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            PipelineConfig(estimator="kernel", out_dir=str(tmp_path),
                           scenario="ou-exp", input_csv="x.csv")


class TestMainEntry:
    def test_unknown_estimator_exit_code_and_error_kind(self, tmp_path, capsys):
        code = main(["--scenario", "ou-exp", "--estimator", "kernel",
                     "--out", str(tmp_path / "o"), "--n", "100"])
        assert code == 0
        code = main(["--scenario", "ou-exp", "--out", str(tmp_path / "o2")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config"

    def test_unknown_estimator_is_rejected_by_parser_or_config(self, tmp_path,
                                                               capsys):
        # argparse already rejects bad choices; the config-file path reaches
        # PipelineConfig and must produce the unknown-estimator kind
        cfg_file = tmp_path / "run.conf"
        cfg_file.write_text("estimator = magic\nscenario = ou-exp\n"
                            f"out = {tmp_path / 'o3'}\nn = 100\n")
        code = main(["--config", str(cfg_file)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "unknown-estimator"

    def test_config_file_flags_win(self, tmp_path):
        cfg_file = tmp_path / "run.conf"
        cfg_file.write_text("estimator = kernel\nscenario = ou-exp\nn = 120\n"
                            f"out = {tmp_path / 'base'}\nbandwidth = 0.5\n")
        args = build_parser().parse_args(["--config", str(cfg_file),
                                          "--out", str(tmp_path / "override")])
        cfg = resolve_config(args)
        assert cfg.out_dir == str(tmp_path / "override")  # flag wins
        assert cfg.bandwidth == 0.5                        # file value kept
        assert cfg.n == 120

    def test_scenario_file_input(self, tmp_path):
        from voldens.svsim import OuParams, ScenarioConfig
        doc = ScenarioConfig("ou-exp", OuParams(0.5, 0.0, 1.0), delta=0.05,
                             n=150, substeps=8).to_kv()
        sc_file = tmp_path / "scenario.conf"
        sc_file.write_text(doc)
        code = main(["--scenario", str(sc_file), "--estimator", "kernel",
                     "--out", str(tmp_path / "s"), "--bandwidth", "0.6"])
        assert code == 0

    def test_scenario_file_reports_its_own_n_and_delta(self, tmp_path):
        # the run simulates the file's n = 300 at Delta = 0.05, not the CLI
        # defaults, and its reports and its run_config.txt say so
        from voldens.metrics import scenario_preset
        sc_file = tmp_path / "scenario.conf"
        sc_file.write_text(scenario_preset("ou-exp", 300, 0.05).to_kv())
        first, second = tmp_path / "first", tmp_path / "second"
        with pytest.warns(UserWarning, match="for Delta = 0.05 at n = 300;"):
            assert main(["--scenario", str(sc_file), "--estimator", "kernel",
                         "--out", str(first)]) == 0
        with open(first / "diagnostics.csv", newline="") as fh:
            diag = dict(csv.reader(fh))
        assert (diag["n"], diag["delta"]) == ("300", "0.05")
        text = (first / "run_config.txt").read_text()
        assert "\nn = 300\n" in text and "\ndelta = 0.05\n" in text
        cfg_file = tmp_path / "again.conf"
        cfg_file.write_text(text.replace(f"out = {first}\n", f"out = {second}\n"))
        with pytest.warns(UserWarning, match="for Delta = 0.05 at n = 300;"):
            assert main(["--config", str(cfg_file)]) == 0
        for fname in ("density.csv", "diagnostics.csv", "plot.gp"):
            assert (first / fname).read_bytes() == (second / fname).read_bytes()
        assert (second / "run_config.txt").read_text() == cfg_file.read_text()

    def test_wavelet_honours_grid_points(self, tmp_path):
        out = tmp_path / "w"
        code = main(["--scenario", "ou-exp", "--n", "300", "--estimator", "wavelet",
                     "--truncation", "50", "--grid-points", "64", "--out", str(out)])
        assert code == 0
        data = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
        assert data.shape == (64, 2)

    @pytest.mark.parametrize("flag", ["--level", "--truncation"])
    def test_non_integer_level_or_truncation_is_a_config_error(self, tmp_path, capsys,
                                                               flag):
        code = main(["--scenario", "ou-exp", "--n", "300", "--estimator", "wavelet",
                     flag, "abc", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config"

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_grid_below_eight_points_is_a_parameter_error(self, tmp_path, capsys,
                                                          estimator):
        code = main(["--scenario", "ou-exp", "--n", "300", "--estimator", estimator,
                     "--grid-points", "3", "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parameter"

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_price_cell_is_a_data_error(self, tmp_path, capsys, estimator,
                                                   cell):
        rng = np.random.default_rng(17)
        prices = list(np.exp(np.cumsum(rng.normal(0.0, 0.1, 300))))
        prices[3] = cell  # line 5: the header is line 1
        path = tmp_path / "prices.csv"
        _write_prices(path, prices)
        code = main(["--input", str(path), "--estimator", estimator,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "data" and "line 5" in err["message"]

    @pytest.mark.parametrize("estimator, flags", [
        ("kernel", ["--demean", "--price-column", "price", "--delta", "0.5",
                    "--bandwidth", "0.7", "--grid-points", "96"]),
        ("wavelet", ["--level", "1", "--truncation", "60", "--grid-points", "80"]),
        ("ppe", ["--kappa", "2.0", "--kn", "40", "--grid-points", "72"]),
        ("regression", ["--gamma", "4.0", "--denominator-floor", "0.001",
                        "--grid-points", "48"]),
    ])
    def test_run_config_round_trip(self, tmp_path, estimator, flags):
        # run_config.txt fed back through --config, with only `out` changed,
        # reproduces the run byte for byte
        if estimator == "kernel":
            rng = np.random.default_rng(13)
            prices = tmp_path / "prices.csv"
            _write_prices(prices, np.exp(np.cumsum(rng.normal(0.01, 0.1, 300))))
            source = ["--input", str(prices)]
        else:
            source = ["--scenario", "ou-exp", "--n", "300", "--seed", "6"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(source + ["--estimator", estimator, "--out", str(first)] + flags) == 0
        text = (first / "run_config.txt").read_text()
        assert f"out = {first}\n" in text
        cfg_file = tmp_path / "again.conf"
        cfg_file.write_text(text.replace(f"out = {first}\n", f"out = {second}\n"))
        assert main(["--config", str(cfg_file)]) == 0
        data = "regression.csv" if estimator == "regression" else "density.csv"
        for fname in (data, "diagnostics.csv"):
            assert (first / fname).read_bytes() == (second / fname).read_bytes()
        assert (second / "run_config.txt").read_text() == cfg_file.read_text()

    def test_wavelet_level_above_the_cap_is_a_parameter_error(self, tmp_path, capsys):
        code = main(["--scenario", "ou-exp", "--n", "300", "--estimator", "wavelet",
                     "--level", "4", "--truncation", "20", "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parameter"

    @pytest.mark.parametrize("estimator, target", [("wavelet", "wavelet_estimate"),
                                                   ("ppe", "select_and_estimate")])
    def test_memory_error_is_a_json_error(self, tmp_path, capsys, monkeypatch, estimator,
                                          target):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 GiB")

        monkeypatch.setattr(cli, target, exhausted)
        code = main(["--scenario", "ou-exp", "--n", "300", "--estimator", estimator,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "memory", "message": "Unable to allocate 4.00 GiB"}

    @pytest.mark.parametrize("model, edit, kind, needle", [
        ("nonlinear-ar", ("ar.slope = 0.5", "ar.slope = 1.5"), "parameter", "stability"),
        ("ou-exp", ("delta = 0.05\n", ""), "config", "'delta'"),
        ("ou-exp", ("ou.b = 0.5", "ou.b = abc"), "config", "ou.b"),
        ("ou-exp", ("ou.b = 0.5", "ou.bb = 0.5"), "config", "ou.bb"),
        ("ou-exp", ("ou.b = 0.5\n", ""), "config", "'ou.b'"),
        ("ou-exp", ("n = 300", "n = 12.5"), "config", "n = '12.5'"),
        ("ou-exp", ("ou.b = 0.5", "ou.b = inf"), "parameter", "mean_reversion must be finite"),
        ("ou-exp", ("ou.b = 0.5", "ou.b = nan"), "parameter", "mean_reversion must be finite"),
        ("nonlinear-ar", ("ar.innovation_sd = 1.0", "ar.innovation_sd = nan"), "parameter",
         "innovation_sd must be finite"),
    ])
    def test_bad_scenario_file_is_a_json_error(self, tmp_path, capsys, model, edit,
                                               kind, needle):
        from voldens.metrics import scenario_preset
        text = scenario_preset(model, 300).to_kv()
        assert edit[0] in text
        sc_file = tmp_path / "scenario.conf"
        sc_file.write_text(text.replace(*edit))
        code = main(["--scenario", str(sc_file), "--estimator", "kernel",
                     "--out", str(tmp_path / "o")])
        assert code == (1 if kind == "parameter" else 2)
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == kind and needle in err["message"]

    @pytest.mark.parametrize("source, value", [("csv", "inf"), ("preset", "nan")])
    def test_non_finite_delta_is_a_parameter_error(self, tmp_path, capsys, source, value):
        # `delta <= 0` is false for NaN and passes inf: an infinite gap zeroes
        # every increment, and a NaN one was blamed on the data
        if source == "csv":
            path = tmp_path / "prices.csv"
            _write_prices(path, np.exp(np.cumsum(np.random.default_rng(5).normal(0, 0.1, 300))))
            args = ["--input", str(path)]
        else:
            args = ["--scenario", "ou-exp", "--n", "300"]
        code = main(args + ["--delta", value, "--estimator", "kernel",
                            "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parameter" and "delta must be finite" in err["message"]

    @pytest.mark.parametrize("estimator, flag, value", [
        ("kernel", "--bandwidth", "nan"), ("kernel", "--bandwidth", "inf"),
        ("regression", "--bandwidth", "nan"), ("regression", "--bandwidth", "inf"),
        ("kernel", "--gamma", "nan"), ("ppe", "--kappa", "nan"),
        ("regression", "--denominator-floor", "nan"),
    ])
    def test_non_finite_float_option_is_a_parameter_error(self, tmp_path, capsys, estimator,
                                                          flag, value):
        # `x <= 0` is false for NaN and passes inf, so each is checked for finiteness
        code = main(["--scenario", "ou-exp", "--n", "300", "--estimator", estimator,
                     flag, value, "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        name = flag[2:].replace("-", "_")
        assert err["error"] == "parameter" and f"{name} must be finite" in err["message"]

    @pytest.mark.parametrize("line, key", [("n = abc", "n"), ("grid_points = 12.5", "grid_points")])
    def test_unparsable_config_value_is_a_config_error(self, tmp_path, capsys, line, key):
        cfg_file = tmp_path / "run.conf"
        cfg_file.write_text(f"estimator = kernel\nscenario = ou-exp\n{line}\n"
                            f"out = {tmp_path / 'o'}\n")
        code = main(["--config", str(cfg_file)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and f"{key} = " in err["message"]
