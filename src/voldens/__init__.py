"""voldens: nonparametric volatility density estimation by deconvolution.

Estimate the invariant density of an unobserved stochastic volatility
process from discretely sampled asset prices.  Three density estimators
(Fourier-kernel, Meyer-wavelet, penalized sinc-projection) and a regression
estimator for nonlinear AR log-volatility, checked against built-in
stochastic-volatility simulators with known ground-truth densities.
"""

from .errors import (ConfigError, DataError, NumericsError, ParameterError,
                     VoldensError)
from .grids import DensityGrid
from .kerneldeconv import (EstimateReport, default_bandwidth, estimate_density,
                           wand_charfn, wand_kernel)
from .metrics import (ExperimentSpec, PureConvolution, mise, mode_count,
                      normal_fit, run_experiment, scenario_preset)
from .noisemodel import inv_noise_charfn, noise_charfn, noise_density
from .ppe import (PpeEstimate, contrast, penalty, phi_k_integral, ppe_coefficients,
                  select_and_estimate)
from .svsim import (ArParams, ObservationSeries, OuParams, RegimeSwitchParams,
                    ScenarioConfig, invariant_density, log_squared_transform,
                    simulate_markov2, simulate_ou, simulate_price,
                    simulate_scenario, simulate_volatility)
from .volreg import (RegressionEstimate, default_regression_bandwidth,
                     regression_estimate)
from .waveletdeconv import (WaveletEstimate, meyer_scaling_fourier, wavelet_coefficients,
                            wavelet_estimate)

__all__ = [
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
]

__version__ = "0.1.0"
