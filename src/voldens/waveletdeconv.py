"""Meyer-type wavelet deconvolution estimator for the density of the
log of Delta-integrated squared volatility.

The multiresolution analysis is built from a symmetric probability measure
mu supported in [-pi/3, pi/3]: in the analysis convention
f~(omega) = int e^{-i omega x} f(x) dx, the scaling function and wavelet are

    phi~(omega) = ( mu(omega - pi, omega + pi] )^{1/2}
    psi~(omega) = e^{-i omega / 2} ( mu(|omega|/2 - pi, |omega| - pi] )^{1/2}

so supp phi~ = [-4pi/3, 4pi/3] and supp psi~ = +-[2pi/3, 8pi/3].  mu has the
classical smoothstep CDF (Daubechies, Ten Lectures, ch. 4) rescaled to
[-pi/3, pi/3],

    nu(u) = u^4 (35 - 84 u + 70 u^2 - 20 u^3),

and since mu is symmetric the window mass is one value of it:
phi~(omega)^2 = nu(2 - 3|omega|/2pi), the argument clipped to [0, 1].
Every table, oracle and estimate uses this one bump.  (The square root makes
phi~ only C^1 at the outer support edge; none of the identities used here
depend on more.)

Estimation works through the functions U_m with U_m~(omega) =
phi~(omega) / k~(-2^m omega), where k~(omega) = conj(phi_k(omega)) bridges
to the probabilist's convention used by the noise module.  Scaling
coefficients of the density g of Y-noise-removed are estimated by sample
means

    a_hat_{m,l} = (1/n) sum_i 2^{m/2} U_m(2^m Y_i - l),

and the estimator is g_hat(x) = sum_{|l| <= L} a_hat_{m,l} phi_{m,l}(x).

The two halves use the two engines of `_tables`.  The coefficients take the
band engine: a_hat_{m,l} = 2^{m/2} (1/2pi) int U_m~(omega) psi_n(omega)
e^{-i omega l} d omega with psi_n the empirical characteristic function of
the 2^m Y_i, so U_m is never tabulated (`um_table` returns U_m~ at the
nodes of `band_lattice`).  The render takes the table engine: phi is
tabulated at TABLE_STEP and summed over the coefficients by
`lattice_expansion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._tables import Band, Table1D, band_lattice, band_samples, fourier_table, lattice_expansion
from .errors import DataError, ParameterError
from .grids import DensityGrid, estimator_grid
from .noisemodel import inv_noise_charfn
from .svsim import as_log_squared, require_int

OMEGA_MAX = 4.0 * np.pi / 3.0
#: log n / (1 + 4 pi^2 / 3) is the theory's target for 2^{m_n}
LEVEL_DENOMINATOR = 1.0 + 4.0 * np.pi ** 2 / 3.0
#: highest detail level admitted.  1/phi_k reaches about e^{2 pi^2 2^m / 3} on supp
#: phi~, so the spread of a_hat_{m,l}, of order ||U_m||_2 / sqrt(n), is 5.4e19 / sqrt(n)
#: at m = 3 and 7.3e41 / sqrt(n) at m = 4; the level rule gives m = 3 only from n = 6e34.
#: The numerics are not the limit: U_m tables build at m = 4 and 5, and `band_lattice`
#: agrees with quadrature there within 2.9e-9 and 2.8e-8 (relative).
MAX_LEVEL = 3
#: tabulation step of phi (and of U_m, for the tests' tables): 24 steps per unit
#: shift, 18 per Nyquist step 3/4 of the band 4 pi/3, for the 8-point stencil
TABLE_STEP = 1.0 / 24.0


def meyer_scaling_fourier(omega) -> np.ndarray | float:
    """phi~(omega) = nu(u)^{1/2}, u = (4pi/3 - |omega|) / (2pi/3) clipped to [0, 1].

    nu(u) is the mu-mass of the window (omega - pi, omega + pi]: 1 on
    [-2pi/3, 2pi/3], 0 for |omega| >= 4pi/3, and the shifted squares sum to 1
    at every omega (nu(u) + nu(1 - u) = 1).  u is 2 - 3|omega|/2pi written so
    that it is exact at both band edges: the subtraction near 4pi/3, the
    division at 2pi/3.
    """
    omega = np.asarray(omega, dtype=float)
    u = np.clip((OMEGA_MAX - np.abs(omega)) / (0.5 * OMEGA_MAX), 0.0, 1.0)
    out = np.sqrt(u ** 4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u))))
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------- tabulated functions

def _scaling_spectrum(w, _):
    return meyer_scaling_fourier(w) + 0j


def _um_spectrum(w, m):
    return meyer_scaling_fourier(w) * inv_noise_charfn((2.0 ** m) * w)


#: the scaling function phi, band-limited to supp phi~
SCALING_BAND = Band(_scaling_spectrum, None, OMEGA_MAX, TABLE_STEP)


def _check_level(m: int) -> None:
    """Detail levels are the integers 0..MAX_LEVEL; checked before 2^m is formed."""
    require_int(level=m)
    if not 0 <= m <= MAX_LEVEL:
        raise ParameterError(f"detail level must be in [0, {MAX_LEVEL}], got {m!r}")


def um_band(m: int) -> Band:
    """U_m(x) = (1/2pi) int phi~(omega)/k~(-2^m omega) e^{i omega x} d omega, as a `Band`."""
    _check_level(m)
    return Band(_um_spectrum, int(m), OMEGA_MAX, TABLE_STEP)


def scaling_table(extent: float) -> Table1D:
    """Cached tabulation of phi covering |x| <= extent."""
    return SCALING_BAND.table(extent, fourier_table)


def um_table(m: int, extent: float) -> np.ndarray:
    """Cached spectrum samples of U_m for `band_lattice` over |x| <= extent."""
    return um_band(m).table(extent, band_samples)


# --------------------------------------------------------------------------- estimator

@dataclass(eq=False)
class WaveletEstimate:
    """Scaling-coefficient estimate at one detail level.

    coefficients[i] is a_hat_{m, l} for l = i - truncation (the index range
    is symmetric, |l| <= truncation).  level_target records the theory's
    non-integer 2^{m_n} before rounding.
    """

    level: int
    level_target: float
    truncation: int
    coefficients: np.ndarray
    density: DensityGrid
    diagnostics: dict = field(default_factory=dict)

    def coefficient(self, l: int) -> float:
        if abs(l) > self.truncation:
            raise DataError(f"coefficient index {l} outside |l| <= {self.truncation}")
        return float(self.coefficients[l + self.truncation])


def wavelet_coefficients(y, m: int, truncation: int) -> np.ndarray:
    """Estimated scaling coefficients a_hat_{m,l} for |l| <= truncation.

    Sample-mean structure: a_hat_{m,l} = (1/n) sum_i 2^{m/2} U_m(2^m Y_i - l),
    taken on the Fourier side by `band_lattice`: the band integral of U_m's
    spectrum times the empirical characteristic function of the 2^m Y_i.
    """
    y_arr = as_log_squared(y)
    _check_level(m)
    require_int(truncation=truncation, least=0)
    pts = (2.0 ** m) * y_arr
    samples = um_table(m, float(np.max(np.abs(pts))) + truncation)
    return (2.0 ** (m / 2.0)) * band_lattice(samples, pts, -truncation, truncation)


def default_level(n: int) -> tuple[int, float]:
    """Integer detail level from the theory target 2^{m_n} = log n / (1 + 4 pi^2/3).

    The target is below 1 for every practical n, so the rounded level floors
    at 0; both the target and the realized level are reported.
    """
    require_int(n=n, least=3)
    target = math.log(n) / LEVEL_DENOMINATOR
    level = max(0, round(math.log2(target)))
    return min(level, MAX_LEVEL), target


def wavelet_estimate(y, level: int | None = None, truncation: int | None = None,
                     grid: np.ndarray | None = None,
                     grid_points: int = 512) -> WaveletEstimate:
    """Linear wavelet density estimate g_hat(x) = sum_l a_hat_{m,l} phi_{m,l}(x).

    Defaults follow the theory: the detail level comes from `default_level`
    and the truncation is L = n (the all-orders-mixing variant); explicit
    `level`/`truncation` win.  Without a `grid` the estimate is rendered on
    `grid_points` uniform points spanning the data range padded by 3.
    """
    require_int(grid_points=grid_points)
    y_arr = as_log_squared(y)
    n = y_arr.size
    if n < 3:
        raise DataError("need at least 3 observations")
    if level is None:
        m, target = default_level(n)
    else:
        _check_level(level)
        m, target = level, float(2.0 ** level)
    truncation = n if truncation is None else truncation
    grid = estimator_grid(grid, y_arr, 3.0, grid_points)

    coeffs = wavelet_coefficients(y_arr, m, truncation)
    values = render_scaling_expansion(coeffs, m, grid)
    density = DensityGrid(grid, values, signed=True)
    return WaveletEstimate(
        level=m, level_target=target, truncation=truncation,
        coefficients=coeffs, density=density,
        diagnostics={"n": n, "coefficient_norm": float(np.sqrt(np.sum(coeffs ** 2)))},
    )


def render_scaling_expansion(coeffs: np.ndarray, m: int, grid: np.ndarray) -> np.ndarray:
    """sum_{|l| <= L} c_l 2^{m/2} phi(2^m x - l) on the grid, for 2L+1 coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size % 2 == 0:
        raise DataError("coefficient array must cover l in [-L, L]")
    pts = (2.0 ** m) * np.asarray(grid, dtype=float)
    table = scaling_table(float(np.max(np.abs(pts))) + coeffs.size // 2)
    return 2.0 ** (m / 2.0) * lattice_expansion(pts, table, 1.0, coeffs)
