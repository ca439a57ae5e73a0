"""The names that perfbench/worker.py patches must still be called.

The benchmark's per-layer metrics come from spans that the worker installs
by wrapping module attributes of the program.  A refactor that renames or
bypasses one of them leaves the benchmark running but its spans empty; these
tests run the worker itself, traced, and check that every layer reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
TABLE_AND_SIMULATION = {"tables.fourier_table", "tables.lookup", "svsim.simulate",
                        "svsim.transform"}


def _run_worker(tmp_path, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    report = tmp_path / "report.json"
    mode, rest = args[0], args[1:]
    proc = subprocess.run([sys.executable, str(WORKER), mode, "--trace", "1",
                           "--report", str(report), *rest],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    assert data["exit_code"] == 0
    return {span["name"] for span in data["spans"]}


@pytest.mark.parametrize("estimator, own", [
    ("kernel", {"kerneldeconv.estimate", "metrics.shape"}),
    ("regression", {"volreg.estimate"}),
    ("wavelet", {"waveletdeconv.coeff", "waveletdeconv.render", "metrics.shape"}),
    ("ppe", {"ppe.coeff", "ppe.render", "metrics.shape"}),
])
def test_cli_spans(tmp_path, estimator, own):
    names = _run_worker(tmp_path, ["cli", "--", "--scenario", "nonlinear-ar", "--n", "400",
                                   "--estimator", estimator, "--out", str(tmp_path / "out")])
    missing = (TABLE_AND_SIMULATION | own | {"cli.run_pipeline"}) - names
    assert not missing, f"spans never recorded: {sorted(missing)}"


def test_monte_carlo_spans(tmp_path):
    names = _run_worker(tmp_path, ["mc", "--seed-base", "5", "--rounds", "0"])
    wanted = TABLE_AND_SIMULATION | {"kerneldeconv.estimate", "waveletdeconv.coeff",
                                     "ppe.coeff", "metrics.replication", "metrics.mise",
                                     "metrics.shape"}
    missing = wanted - names
    assert not missing, f"spans never recorded: {sorted(missing)}"
