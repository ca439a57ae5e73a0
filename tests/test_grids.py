"""Every estimator checks a caller's grid with `grids.as_grid` before it sizes anything."""

import numpy as np
import pytest

from voldens import (KernelSpec, PpeConfig, estimate_density, regression_estimate,
                     select_and_estimate, wavelet_estimate)
from voldens._tables import _cached_table
from voldens.errors import DataError

Y = np.random.default_rng(11).normal(-1.3, 2.0, 300)

ESTIMATORS = {
    "kernel": lambda grid: estimate_density(Y, KernelSpec(0.5), grid),
    "regression": lambda grid: regression_estimate(Y, 0.8, grid),
    "wavelet": lambda grid: wavelet_estimate(Y, grid=grid),
    "ppe": lambda grid: select_and_estimate(Y, PpeConfig(levels=(1, 2)), grid),
}

MALFORMED = {
    "nan": np.array([-1.0, np.nan, 1.0]),
    "inf": np.array([-1.0, 0.0, np.inf]),
    "2-d": np.linspace(-1.0, 1.0, 6).reshape(2, 3),
    "decreasing": np.array([1.0, 0.0, -1.0]),
    "one-point": np.array([0.5]),
}


@pytest.mark.parametrize("grid", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("estimator", ESTIMATORS.values(), ids=ESTIMATORS.keys())
def test_malformed_grid_refused_before_any_table(estimator, grid):
    # an inf grid used to size a table (ZeroDivisionError), NaN to fail in the
    # wavelet render, a 2-d grid to fail by broadcasting or indexing, and PPE
    # rendered an estimate at an infinite abscissa
    misses = _cached_table.cache_info().misses
    with pytest.raises(DataError):
        estimator(grid)
    assert _cached_table.cache_info().misses == misses
