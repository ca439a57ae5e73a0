"""Fourier-type deconvolution kernel density estimator.

The estimator of the density f of log sigma^2 from log-squared normalized
increments Y_j is

    f_nh(x) = (1/(n h)) * sum_j v_h((x - Y_j) / h),

where the deconvolution kernel

    v_h(u) = (1/2pi) * int_{-1}^{1} phi_w(s) / phi_k(s/h) * e^{-isu} ds

divides out the noise characteristic function under the smoothing window
phi_w(t) = (1 - t^2)^3, |t| <= 1 (Wand's kernel w, rho = 3, A = 8).  The same
formula applies verbatim to discrete-time models, where the convolution
structure is exact rather than asymptotic.

v_h is described once, by `kernel_band(h)`: a `_tables.Band` tabulated at the
one step TABLE_STEP, whose FFT table (cached per bandwidth and range bucket,
and spanning the full argument range needed plus `_tables.GUARD`, so no tail
is truncated) feeds the lattice engine of `_tables`.  `kernel_sums` takes the
sums S(u_k) = (1/n) sum_j v_h(u_k - Y_j/h) on the table's own lattice
u_k = k TABLE_STEP, over the k that span grid/h, as one FFT correlation, and
reads f_nh(x) = S(x/h)/h at the grid through the table's stencil.  S
is band-limited like v_h, so that read is as accurate as the table's own, any
increasing grid works, and one table serves every grid and sample at a
bandwidth that fit its range bucket.
The tests check v_h against direct adaptive quadrature of the same `Band`
(`tests/reference.py::band_quad`).  Because phi_k is complex, v_h is real but
NOT symmetric in its argument: the noise has nonzero mean and skew, and the
kernel's asymmetry is what undoes them.  Wand's kernel itself is
48 j_3(|x|) / (pi |x|^3), through scipy's spherical Bessel function j_3;
`wand_kernel` is library-only, so it imports `scipy.special` when called
and no estimator or CLI run loads scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._tables import Band, Table1D, fourier_table, lattice_means
from .errors import ParameterError
from .grids import DensityGrid, estimator_grid
from .noisemodel import CHARFN_CUTOFF, inv_noise_charfn
from .svsim import ObservationSeries, as_log_squared, require_finite, require_int

# smallest usable bandwidth: 1/phi_k(s/h) must stay inside double range on |s| <= 1,
# so 1/h may not pass CHARFN_CUTOFF (at pi/700 itself it does, by one ulp)
MIN_BANDWIDTH = math.nextafter(np.pi / 700.0, 1.0)
#: v_h tabulation step in the scaled argument; v_h and the sums of its shifts
#: are band-limited to [-1, 1], 126 steps per Nyquist step pi, where the
#: stencil reads them to within rounding (1.5e-15 of max in the tests)
TABLE_STEP = 0.025
#: lattice nodes kept beyond the scaled grid on each side for the 8-point read stencil
_READ_REACH = 4


# --------------------------------------------------------------------------- Wand kernel

def wand_kernel(x) -> np.ndarray | float:
    """Wand's kernel w with characteristic function (1 - t^2)^3 on [-1, 1].

    w(x) = 48 j_3(|x|) / (pi |x|^3) to full precision, where the elementary
    form (48 x (x^2 - 15) cos x - 144 (2 x^2 - 5) sin x) / (pi x^7) cancels
    for |x| below about 1.  Below |x| = 1e-8, where j_3 underflows, w is its
    limit w(0) = 16/(35 pi).
    """
    from scipy.special import spherical_jn  # kept off the estimators' import path

    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.abs(np.atleast_1d(x))
    tiny = ax < 1e-8
    ax = np.where(tiny, 1.0, ax)
    out = np.where(tiny, 16.0 / (35.0 * np.pi), 48.0 * spherical_jn(3, ax) / (np.pi * ax ** 3))
    return float(out[0]) if scalar else out


def wand_charfn(t) -> np.ndarray | float:
    """phi_w(t) = (1 - t^2)^3 on [-1, 1], zero outside.

    Near the support edge, phi_w(1 - s) = 8 s^3 + o(s^3) (rho = 3, A = 8),
    the boundary behavior that drives the variance bounds.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.where(np.abs(t) <= 1.0, (1.0 - t * t) ** 3, 0.0)
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------- deconvolution kernel

def _kernel_spectrum(s, h):
    # v_h(u) = (1/2pi) int phi_w(s)/phi_k(s/h) e^{-isu} ds
    #        = (1/2pi) int phi_w(s) conj(1/phi_k(s/h)) e^{+isu} ds
    return wand_charfn(s) * np.conj(inv_noise_charfn(s / h))


def kernel_band(h: float) -> Band:
    """v_h as a `Band` on [-1, 1], tabulated at TABLE_STEP."""
    if not 0 < h < math.inf:
        raise ParameterError("bandwidth must be positive and finite")
    if 1.0 / h > CHARFN_CUTOFF:
        raise ParameterError(f"bandwidth below {MIN_BANDWIDTH:.5f} overflows 1/phi_k")
    return Band(_kernel_spectrum, float(h), 1.0, TABLE_STEP)


def deconv_kernel_table(h: float, extent: float) -> Table1D:
    """FFT tabulation of v_h covering |u| <= extent (cached)."""
    return kernel_band(h).table(extent, fourier_table)


def _kernel_extent(y: np.ndarray, grid: np.ndarray, h: float) -> float:
    """max |x - Y_j| / h over an `as_grid` grid: the v_h range `kernel_sums` reads."""
    return max(abs(float(grid[0] - np.max(y))), abs(float(grid[-1] - np.min(y)))) / h


def kernel_sums(y: np.ndarray, table: Table1D, grid: np.ndarray, h: float,
                weights: np.ndarray | None = None) -> np.ndarray:
    """(1/(n h)) sum_j w_j v_h((x - Y_j)/h) on the grid; table per `_kernel_extent`.

    The sums are taken at u_k = k table.dx for the k that span grid/h (one
    `lattice_means` call on the points u_lo - Y_j/h) and read at x/h through
    the table's stencil.
    """
    dx = table.dx
    k_lo = math.floor(grid[0] / (h * dx)) - _READ_REACH
    k_hi = math.ceil(grid[-1] / (h * dx)) + _READ_REACH
    sums = lattice_means(k_lo * dx - y / h, table, dx, k_lo - k_hi, 0, weights)
    return Table1D(k_lo * dx, dx, sums[::-1])(grid / h) / h


# --------------------------------------------------------------------------- estimator

@dataclass(eq=False)
class EstimateReport:
    """Estimator output bundle: the density grid plus diagnostics."""

    density: DensityGrid
    diagnostics: dict = field(default_factory=dict)


def default_bandwidth(n: int, gamma: float) -> float:
    """Theory bandwidth h = gamma * pi / log n for the deconvolution estimator."""
    require_finite(gamma=gamma)
    if n < 3:
        raise ParameterError("bandwidth rule needs n >= 3")
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    return gamma * np.pi / math.log(n)


def check_gamma_constraint(n: int, delta: float, gamma: float) -> bool:
    """Check gamma > 4/delta_exponent for Delta = n^{-delta_exponent}.

    Returns True when satisfied; emits a warning (and returns False)
    otherwise, including when Delta >= 1 so no valid exponent exists.
    """
    require_finite(delta=delta, gamma=gamma)
    if n < 3 or delta <= 0:
        raise ParameterError("need n >= 3 and delta > 0")
    if delta >= 1.0:
        warnings.warn(
            f"Delta = {delta:g} is not below 1, so no rate exponent with "
            f"Delta = n^-x exists and gamma > 4/x cannot hold; treat the run "
            f"as discrete-time data (where the same estimator applies exactly)",
            stacklevel=2)
        return False
    exponent = math.log(1.0 / delta) / math.log(n)
    if gamma <= 4.0 / exponent:
        warnings.warn(
            f"bandwidth constant gamma = {gamma:g} violates gamma > "
            f"{4.0 / exponent:.4g} for Delta = {delta:g} at n = {n}; "
            f"bias guarantees may not apply",
            stacklevel=2)
        return False
    return True


def estimate_density(y, bandwidth: float, grid: np.ndarray | None = None,
                     grid_points: int = 512) -> EstimateReport:
    """Deconvolution kernel density estimate on a grid, with Wand's kernel (rho = 3).

    Parameters
    ----------
    y : ObservationSeries or 1-d array
        Log-squared normalized increments.
    bandwidth : h > 0
    grid : optional increasing abscissae; default is `grid_points` uniform
        points spanning the data range with 3h padding.

    The estimator is linear in the empirical measure and can be negative;
    it is returned as is, a signed density.
    """
    require_finite(bandwidth=bandwidth)
    require_int(grid_points=grid_points)
    if bandwidth <= 0:
        raise ParameterError("bandwidth must be positive")
    y_arr = as_log_squared(y)
    grid = estimator_grid(grid, y_arr, 3.0 * bandwidth, grid_points)
    table = deconv_kernel_table(bandwidth, _kernel_extent(y_arr, grid, bandwidth))
    values = kernel_sums(y_arr, table, grid, bandwidth)
    return EstimateReport(density=DensityGrid(grid, values, signed=True), diagnostics={
        "bandwidth": bandwidth,
        "n": int(y_arr.size),
        "zero_increment_count": (y.zero_increment_count
                                 if isinstance(y, ObservationSeries) else 0),
        "grid_span": (float(grid[0]), float(grid[-1])),
    })

