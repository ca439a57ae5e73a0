"""Deconvolution Nadaraya-Watson estimator of the log-volatility autoregression.

The discrete-time model is X_t = sigma_t Z_t with

    log sigma_{t+1}^2 = m(log sigma_t^2) + eta_t,

eta i.i.d. centered Gaussian, under the stability condition
limsup_{|x| -> oo} |m(x)/x| < 1, which `svsim.ArParams` checks exactly.
The `nonlinear-ar` scenario with `substeps = 1` and `delta = 1` simulates
it.  With Y_t = log X_t^2 the regression function m is estimated by
mimicking Nadaraya-Watson with the deconvoluting kernel v_h of the kernel
module:

    m_nh(x) = [ (1/(n h)) sum_j v_h((x - Y_j)/h) Y_{j+1} ] / f_nh(x),

where f_nh is the same-kernel density estimate over the first coordinates.
Because the response Y_{j+1} carries the known noise mean E log Z^2, the
estimator subtracts it, so the quotient targets m itself rather than
m + E log Z^2; the raw quotient is m_hat + NOISE_MEAN.

Numerator and denominator are two `kerneldeconv.kernel_sums` over the same
v_h table, the numerator weighted by the responses; like the density
estimate they take any increasing grid.

Near-zero denominators are masked rather than divided through: ratios
against a vanishing density estimate are unbounded noise, and masking is
the honest report.  Exactly (numerator = m_hat * denominator) holds at
every unmasked point, and the error decomposition
m_nh(x) - m(x) = p_nh(x) / f_nh(x) with

    p_nh(x) = (1/(n h)) sum_j v_h((x - Y_j)/h) (Y_{j+1} - m(x))

is algebra on the same shared kernel evaluations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .grids import as_grid
from .kerneldeconv import _kernel_extent, deconv_kernel_table, kernel_sums
from .svsim import as_log_squared, require_finite

DENOMINATOR_FLOOR = 1e-4
#: E log Z^2 for standard normal Z: psi(1/2) + log 2 = -(euler_gamma + log 2).
#: The response Y_{j+1} carries this known constant; the estimator removes it
#: so that the quotient targets m itself (see `regression_estimate`).
NOISE_MEAN = -(np.euler_gamma + np.log(2.0))


def default_regression_bandwidth(n: int, gamma: float) -> float:
    """h = gamma / log n; the variance theory wants gamma > pi (warned below)."""
    if n < 3:
        raise ParameterError("bandwidth rule needs n >= 3")
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    if gamma <= np.pi:
        warnings.warn(
            f"regression bandwidth constant gamma = {gamma:g} is not above pi; "
            f"the variance of the estimator is not guaranteed to vanish",
            stacklevel=2)
    return gamma / math.log(n)


@dataclass(eq=False)
class RegressionEstimate:
    """Pointwise regression estimate with its quotient structure exposed.

    m_hat = numerator / denominator wherever `mask` is False; masked points
    (|denominator| below the floor) carry NaN.
    """

    x: np.ndarray
    m_hat: np.ndarray
    denominator: np.ndarray
    numerator: np.ndarray
    mask: np.ndarray
    bandwidth: float
    floor: float
    diagnostics: dict = field(default_factory=dict)


def regression_estimate(y, h: float, grid: np.ndarray,
                        floor: float = DENOMINATOR_FLOOR) -> RegressionEstimate:
    """Deconvolution Nadaraya-Watson estimate of m on the grid.

    Uses the n-1 transition pairs (Y_j, Y_{j+1}); numerator and denominator
    share one tabulated v_h, so the quotient structure is exact.  The grid
    is any increasing 1-d array.

    The response in the numerator is Y_{j+1} - NOISE_MEAN: the observed
    one-step-ahead value is m(xi_j) + eta_j + eps_{j+1}, and eps has the
    known nonzero mean E log Z^2 = -(euler_gamma + log 2).  Without removing
    it the quotient converges to m + E log Z^2 rather than m, so the raw
    uncorrected ratio is m_hat + NOISE_MEAN.  Raises when every grid point
    is masked.
    """
    y_arr = as_log_squared(y)
    if y_arr.size < 2:
        raise DataError("regression needs at least two observations")
    require_finite(h=h, floor=floor)
    if h <= 0:
        raise ParameterError("bandwidth must be positive")
    grid = as_grid(grid)
    y_now = y_arr[:-1]
    y_next = y_arr[1:] - NOISE_MEAN

    table = deconv_kernel_table(h, _kernel_extent(y_now, grid, h))
    denominator = kernel_sums(y_now, table, grid, h)
    numerator = kernel_sums(y_now, table, grid, h, weights=y_next)

    mask = np.abs(denominator) < floor
    if np.all(mask):
        raise DataError("density estimate below the floor everywhere; "
                        "no grid point admits a regression value")
    m_hat = np.full(grid.size, np.nan)
    m_hat[~mask] = numerator[~mask] / denominator[~mask]
    return RegressionEstimate(
        x=grid, m_hat=m_hat, denominator=denominator, numerator=numerator,
        mask=mask, bandwidth=h, floor=floor,
        diagnostics={"n_pairs": int(y_now.size), "masked_points": int(mask.sum())},
    )
