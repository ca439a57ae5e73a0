"""The discrete outputs of every estimator, pinned for seeds 0-99 at n = 300.

Changes to the tables or the lattice sums move the estimates by rounding,
and must leave these integers as they are: the PPE selected level, the mode
count of the kernel, wavelet and PPE densities, and the number of masked
regression points.  Each seed simulates one of the three scenario presets
(cycled); every estimator runs at its default settings on the scenario's
default evaluation grid, as in `run_experiment`.  The PPE level is also
selected at kappa = 0.1, where the choice varies with the data (levels 1, 2
and 4 over these seeds); at the default kappa = 1 it is level 1 for every
seed.

`discrete_outputs.json` beside this file is the record.  To rewrite it when
a change moves one of these values on purpose (name the seed and the reason
in CHANGES.md), run

    PYTHONPATH=src python tests/test_discrete_outputs.py
"""

import json
from pathlib import Path

from voldens.cli import DEFAULT_GAMMA_KERNEL, DEFAULT_GAMMA_REGRESSION
from voldens.kerneldeconv import KernelSpec, default_bandwidth, estimate_density
from voldens.metrics import default_evaluation_grid, mode_count, scenario_preset
from voldens.ppe import penalty, select_and_estimate
from voldens.svsim import simulate_scenario
from voldens.volreg import default_regression_bandwidth, regression_estimate
from voldens.waveletdeconv import wavelet_estimate

RECORD = Path(__file__).with_name("discrete_outputs.json")
PRESETS = ("ou-exp", "regime-switch", "nonlinear-ar")
N = 300
SEEDS = range(100)
#: a penalty weight at which the selected level depends on the data
LOW_KAPPA = 0.1


def discrete_outputs(seed: int) -> dict[str, int]:
    scenario = scenario_preset(PRESETS[seed % len(PRESETS)], N)
    y = simulate_scenario(scenario.with_seeds(2 * seed, 2 * seed + 1))[0].log_squared
    grid = default_evaluation_grid(scenario)
    kernel = estimate_density(y, KernelSpec(default_bandwidth(N, DEFAULT_GAMMA_KERNEL)), grid)
    ppe = select_and_estimate(y, grid=grid)
    regression = regression_estimate(y, default_regression_bandwidth(N, DEFAULT_GAMMA_REGRESSION),
                                     grid)
    return {
        "kernel_modes": mode_count(kernel.density),
        "wavelet_modes": mode_count(wavelet_estimate(y, grid=grid).density),
        "ppe_selected_level": ppe.selected_level,
        "ppe_selected_level_low_kappa": min(
            ppe.contrasts, key=lambda L: ppe.contrasts[L] + penalty(L, N, LOW_KAPPA)),
        "ppe_modes": mode_count(ppe.density),
        "regression_masked_points": int(regression.mask.sum()),
    }


def test_discrete_outputs_match_the_record():
    record = json.loads(RECORD.read_text())
    assert {int(seed): outputs for seed, outputs in record.items()} == {
        seed: discrete_outputs(seed) for seed in SEEDS}


if __name__ == "__main__":
    RECORD.write_text(json.dumps({seed: discrete_outputs(seed) for seed in SEEDS}, indent=1) + "\n")
