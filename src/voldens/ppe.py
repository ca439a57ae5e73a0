"""Penalized projection (minimum-contrast) estimator on sinc spaces.

The projection space S_L is spanned by the Shannon basis
psi_{L,j}(x) = sqrt(L) sinc(L x - j), whose Fourier transforms are
indicators of [-pi L, pi L] with a phase.  Deconvolution enters through

    u_h(x) = (1/2pi) int e^{ixs} h~(-s) / phi_k(s) ds,

which satisfies E u_h(Y_i) = <h, g_Delta> for the density g_Delta of the
noise-free transform; the empirical contrast

    gamma_n(h) = ||h||_2^2 - (2/n) sum_i u_h(Y_i)

is therefore an unbiased estimate of ||h - g_Delta||^2 - ||g_Delta||^2, and
its minimizer over span{psi_{L,j} : |j| <= K_n} has coefficients

    a_hat_{L,j} = (1/n) sum_i u_{psi_{L,j}}(Y_i),

with plug-in contrast gamma_n(f_hat_L) = -sum_j a_hat_{L,j}^2.  The level is
selected by L_hat = argmin_L gamma_n(f_hat_L) + pen_n(L) with

    pen_n(L) = kappa (1 + L) Phi_k(L) / n,
    Phi_k(L) = int_{-pi L}^{pi L} |phi_k(s)|^{-2} ds = (2/pi) sinh(pi^2 L),

the closed form following from |phi_k(s)|^{-2} = cosh(pi s).  All
|phi_k|^{-1} work is done through cosh/sinh, never naive division; levels
are hard-capped where 1/phi_k overflows on the band edge pi L (L <= 70).

u_{psi_{L,j}}(y) = u_{psi_{L,0}}(y - j / L) (a pure shift), so one
tabulation of u_{psi_{L,0}} per level serves every coefficient.  Its `Band`
is declared bridged: the truncated 1/phi_k spectrum jumps at +-pi L, whose
1/z tails a bare FFT would alias, so `fourier_table` removes a cubic Hermite
bridge matched to the value and slope it reads from the spectrum there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._tables import Band, Table1D, fourier_table, lattice_means
from .errors import ConfigError, DataError, ParameterError
from .grids import DensityGrid, estimator_grid
from .noisemodel import CHARFN_CUTOFF, inv_noise_charfn
from .svsim import as_log_squared, require_int, require_positive

#: past this level the band edge pi L leaves the range where 1/phi_k is finite
MAX_LEVEL = math.floor(CHARFN_CUTOFF / math.pi)
#: table stride per basis spacing 1/L, which is the Nyquist step of u's band
#: pi L: the 8-point stencil reads u within about 2e-9 of its maximum there
TABLE_STRIDE = 16
#: `render_sinc_expansion` forms at most this many terms at once
RENDER_BLOCK = 1 << 20


# --------------------------------------------------------------------------- u functions

def _u_spectrum(s, L):
    return inv_noise_charfn(s) / math.sqrt(L)


def u_band(L: int) -> Band:
    """u_{psi_{L,0}} as a `Band`:

    u_{psi_{L,0}}(z) = (1/(2 pi sqrt(L))) int_{-pi L}^{pi L} e^{isz} / phi_k(s) ds.
    """
    _check_level(L)
    return Band(_u_spectrum, L, np.pi * L, 1.0 / (TABLE_STRIDE * L), bridged=True)


def _check_level(L: int, top: float = MAX_LEVEL) -> None:
    """Levels start at 1; beyond MAX_LEVEL, 1/phi_k overflows on the band edge."""
    require_int(level=L)
    if not 1 <= L <= top:
        raise ParameterError(f"level must be in [1, {top}] (got {L})")


def u_zero_table(L: int, extent: float) -> Table1D:
    """Cached tabulation of u_{psi_{L,0}} covering |z| <= extent."""
    return u_band(L).table(extent, fourier_table)


# --------------------------------------------------------------------------- coefficients and contrast

def ppe_coefficients(y, L: int, k_n: int) -> np.ndarray:
    """a_hat_{L,j} = (1/n) sum_i u_{psi_{L,j}}(Y_i) for |j| <= k_n.

    The shift structure makes this one lattice correlation against the
    tabulated u_{psi_{L,0}}; entry i corresponds to j = i - k_n.
    """
    y_arr = as_log_squared(y)
    require_int(k_n=k_n, least=0)
    _check_level(L)
    table = u_zero_table(L, float(np.max(np.abs(y_arr))) + k_n / L)
    return lattice_means(y_arr, table, step=1.0 / L, j_lo=-k_n, j_hi=k_n)


def contrast(coefficients: np.ndarray) -> float:
    """Plug-in contrast of the projection estimate: gamma_n(f_hat_L) = -sum a_hat^2."""
    c = np.asarray(coefficients, dtype=float)
    if not np.all(np.isfinite(c)):
        raise DataError("non-finite coefficients")
    return float(-np.sum(c * c))


def phi_k_integral(L: int) -> float:
    """Phi_k(L) = int_{-pi L}^{pi L} |phi_k(s)|^{-2} ds = (2/pi) sinh(pi^2 L)."""
    _check_level(L)
    return (2.0 / np.pi) * math.sinh(np.pi ** 2 * L)


def penalty(L: int, n: int, kappa: float) -> float:
    """pen_n(L) = kappa (1 + L) Phi_k(L) / n."""
    require_positive(kappa=kappa)
    require_int(n=n, least=1)
    return kappa * (1.0 + L) * phi_k_integral(L) / n


# --------------------------------------------------------------------------- selection

@dataclass(eq=False)
class PpeEstimate:
    """Per-level diagnostics plus the selected projection estimate.

    coefficients maps each candidate level to its a_hat array (index i is
    j = i - k_n); selected minimizes contrast + penalty, ties to smallest L.
    """

    selected_level: int
    k_n: int
    coefficients: dict[int, np.ndarray]
    contrasts: dict[int, float]
    penalties: dict[int, float]
    density: DensityGrid
    diagnostics: dict = field(default_factory=dict)


def render_sinc_expansion(coeffs: np.ndarray, L: int, grid: np.ndarray) -> np.ndarray:
    """sum_{|j| <= K_n} a_j psi_{L,j}(x) on the grid, exactly, for 2K_n+1 coefficients a_j.

    With z = L x and r = round(z), sinc(z - j) = (-1)^(r+j) sin(pi (z - r)) /
    (pi (z - j)): the phase is reduced to |z - r| <= 1/2 before the sine, the
    signs (-1)^j go into one signed copy of the coefficients, and each grid
    point costs one row of 2K_n+1 divisions.  Where z is an integer the sum
    is its one direct term, a_z.
    """
    _check_level(L, math.inf)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size % 2 == 0:
        raise DataError("coefficient array must cover j in [-K_n, K_n]")
    k_n = coeffs.size // 2
    js = np.arange(-k_n, k_n + 1)
    signed = np.where(js % 2 == 0, coeffs, -coeffs)
    z = L * np.asarray(grid, dtype=float)
    r = np.rint(z)
    out = np.zeros(z.shape)
    exact = z == r
    hit = exact & (np.abs(r) <= k_n)
    out[hit] = coeffs[(r[hit] + k_n).astype(np.int64)]
    off = np.flatnonzero(~exact)
    block = max(1, RENDER_BLOCK // coeffs.size)
    for start in range(0, off.size, block):
        i = off[start:start + block]
        sums = (1.0 / (z[i, None] - js)) @ signed
        out[i] = np.where(r[i] % 2 == 0, 1.0, -1.0) * np.sin(np.pi * (z[i] - r[i])) / np.pi * sums
    return math.sqrt(L) * out


def select_and_estimate(y, kappa: float = 1.0, k_n: int | None = None,
                        levels: tuple[int, ...] | None = None, grid: np.ndarray | None = None,
                        grid_points: int = 512) -> PpeEstimate:
    """Fit every candidate level, select by penalized contrast, render the winner.

    K_n defaults to n and the candidate levels to {1, ..., floor(log n)}.
    kappa = 1 is the shipped calibration (see README for the simulation
    sweep that fixed it).  Ties in the penalized contrast go to the smallest
    level (the smoothest model); the selected estimate is rendered on `grid`
    (default: `grid_points` uniform points over the data range padded by 3).
    """
    require_positive(kappa=kappa)
    require_int(grid_points=grid_points)
    require_int(k_n=k_n, least=1)
    if levels is not None:
        if len(levels) == 0:
            raise ConfigError("candidate level set must be nonempty")
        try:
            for L in levels:
                _check_level(L)
        except ParameterError as exc:
            raise ConfigError(f"candidate {exc}") from None
    y_arr = as_log_squared(y)
    n = y_arr.size
    if n < 3:
        raise DataError("need at least 3 observations")
    k_n = n if k_n is None else k_n
    levels = (tuple(range(1, max(1, math.floor(math.log(n))) + 1)) if levels is None
              else tuple(int(L) for L in levels))
    grid = estimator_grid(grid, y_arr, 3.0, grid_points)

    coefficients: dict[int, np.ndarray] = {}
    contrasts: dict[int, float] = {}
    penalties: dict[int, float] = {}
    for L in levels:
        a_hat = ppe_coefficients(y_arr, L, k_n)
        coefficients[L] = a_hat
        contrasts[L] = contrast(a_hat)
        penalties[L] = penalty(L, n, kappa)

    ordered = sorted(levels)
    scores = np.array([contrasts[L] + penalties[L] for L in ordered])
    selected = ordered[int(np.argmin(scores))]  # argmin returns the first of ties

    values = render_sinc_expansion(coefficients[selected], selected, grid)
    density = DensityGrid(grid, values, signed=True)
    return PpeEstimate(
        selected_level=selected, k_n=k_n,
        coefficients=coefficients, contrasts=contrasts, penalties=penalties,
        density=density,
        diagnostics={"n": n, "kappa": kappa, "levels": ordered},
    )
