"""Reference implementations that only the tests use.

Quadrature oracles for the program's Fourier tables, the basis functions
and identities the tests check the estimators against, a Fourier-side
recomputation of the penalized-projection coefficients, the two-state
chain as a plain loop, and the discrete-time AR model as the tests simulate
it.  None of this is on the
program's path.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np
from scipy.special import loggamma

from voldens._tables import Band, fourier_table
from voldens.errors import DataError, ParameterError
from voldens.ppe import u_band
from voldens.svsim import ArParams, ScenarioConfig, simulate_scenario
from voldens.volreg import RegressionEstimate


# --------------------------------------------------------------------------- quadrature oracle

def fourier_quad(q: Callable[[float], complex], s_max: float, x) -> np.ndarray | float:
    """G(x) = (1/2pi) * int_{-s_max}^{s_max} q(s) e^{isx} ds by adaptive quadrature, per point.

    The oracle for `fourier_table`: slow, but independent of the FFT path.
    q must be Hermitian (checked at a few nodes; DataError if not), so that
    G(x) = (1/pi) int_0^{s_max} Re(q(s) e^{isx}) ds, one real integral per point.
    """
    if not all(np.isclose(q(s), np.conj(q(-s)), rtol=1e-10, atol=0.0)
               for s in s_max * np.array([0.0, 0.13, 0.5, 0.77, 1.0])):
        raise DataError("spectrum is not Hermitian: q(-s) != conj(q(s))")
    from scipy.integrate import quad

    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0

    def one(xx: float) -> float:
        re, _ = quad(lambda s: (complex(q(s)) * np.exp(1j * s * xx)).real, 0.0, s_max,
                     epsabs=1e-12, epsrel=1e-10, limit=800)
        return re / np.pi

    out = np.array([one(float(xx)) for xx in np.atleast_1d(x)])
    return float(out[0]) if scalar else out


def band_quad(band: Band, x) -> np.ndarray | float:
    """The band's transform G at x by adaptive quadrature: the oracle for `Band.table`."""
    return fourier_quad(lambda s: band.spectrum(s, band.param), band.s_max, x)


def bessel_moments(theta) -> np.ndarray:
    """M_k(theta) = int_{-1}^{1} sigma^k e^{i theta sigma} d sigma for k <= 3, shape (4, n).

    The oracle for `_tables._osc_moments`.  Closed form from
    int_{-1}^{1} P_n(sigma) e^{i theta sigma} d sigma = 2 i^n j_n(theta)
    (DLMF 10.54.2) with sigma^2 = (2 P_2 + 1)/3 and sigma^3 = (2 P_3 + 3 P_1)/5.
    """
    from scipy.special import spherical_jn

    theta = np.asarray(theta, dtype=float)
    j0, j1, j2, j3 = (spherical_jn(n, theta) for n in range(4))
    return np.stack([2.0 * j0, 2j * j1, (2.0 * j0 - 4.0 * j2) / 3.0, 0.4j * (3.0 * j1 - 2.0 * j3)])


# --------------------------------------------------------------------------- PPE

def sinc_basis(L: int, j: int, x) -> np.ndarray | float:
    """Shannon basis function psi_{L,j}(x) = sqrt(L) sinc(L x - j).

    sinc is the normalized sin(pi z)/(pi z) with the removable singularity
    filled in; the family is orthonormal in L^2 for fixed L.
    """
    if L < 1:
        raise ParameterError(f"level must be >= 1 (got {L})")
    out = np.sqrt(L) * np.sinc(L * np.asarray(x, dtype=float) - j)
    return float(out) if out.ndim == 0 else out


def sinc_expansion_dense(coeffs: np.ndarray, L: int, grid) -> np.ndarray:
    """sum_{|j| <= K} a_j psi_{L,j}(x) for 2K+1 coefficients, one dense `np.sinc` row per x.

    The reference for `ppe.render_sinc_expansion`.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    js = np.arange(coeffs.size) - coeffs.size // 2
    return math.sqrt(L) * np.array([np.sinc(L * x - js) @ coeffs
                                    for x in np.asarray(grid, dtype=float)])


def u_basis(y, L: int, j: int) -> np.ndarray | float:
    """u_{psi_{L,j}}(y), via the tabulated u_{psi_{L,0}} and the shift identity."""
    band = u_band(L)  # checks the level before j / L is formed
    z = np.asarray(y, dtype=float) - j / L
    return band.table(float(np.max(np.abs(z), initial=0.0)), fourier_table)(z)


def empirical_contrast(coeffs: np.ndarray, a_hat: np.ndarray) -> float:
    """gamma_n(h) for h = sum_j c_j psi_{L,j}: ||c||^2 - 2 <c, a_hat>.

    Exact algebra given the coefficient estimates; minimized at c = a_hat,
    where it equals `ppe.contrast(a_hat)`.
    """
    c = np.asarray(coeffs, dtype=float)
    a = np.asarray(a_hat, dtype=float)
    if c.shape != a.shape:
        raise DataError("coefficient vectors must share a shape")
    return float(c @ c - 2.0 * (c @ a))


def inv_noise_cf(s: np.ndarray) -> np.ndarray:
    """1 / phi_k(s) = sqrt(pi) 2^{-is} / Gamma(1/2 + is), straight from scipy's log-gamma."""
    s = np.asarray(s, dtype=float)
    return np.sqrt(np.pi) * np.exp(-1j * s * math.log(2.0) - loggamma(0.5 + 1j * s))


#: Gauss-Legendre nodes per panel, and the widest panel, of the PPE oracle;
#: 32 nodes on panels half as wide move its coefficients by at most 2.2e-15
#: of their maximum (n = 200, K_n = 20, L <= 8)
PANEL_NODES, PANEL_WIDTH = 24, 0.25


def ppe_oracle_coefficients(y, L: int, k_n: int) -> np.ndarray:
    """a_{L,j} = (1/(2 pi sqrt L)) int_{-pi L}^{pi L} ECF(s) e^{-isj/L} / phi_k(s) ds, |j| <= k_n.

    The empirical characteristic function ECF(s) = (1/n) sum_i e^{isY_i} is
    summed directly at composite Gauss-Legendre nodes on [0, pi L]; the
    integrand at -s is the conjugate of that at s.  No FFT, no bridge and no
    table.
    """
    y = np.asarray(y, dtype=float)
    panels = math.ceil(np.pi * L / PANEL_WIDTH)
    base, weights = np.polynomial.legendre.leggauss(PANEL_NODES)
    half = 0.5 * np.pi * L / panels
    mids = half * (2.0 * np.arange(panels) + 1.0)
    s = (mids[:, None] + half * base).ravel()
    w = np.tile(half * weights, panels)
    ecf = np.exp(1j * np.outer(s, y)).mean(axis=1)
    js = np.arange(-k_n, k_n + 1)
    phase = np.exp(-1j * np.outer(js / L, s))
    return (phase @ (w * ecf * inv_noise_cf(s))).real / (np.pi * math.sqrt(L))


# --------------------------------------------------------------------------- wavelet

def _nu(u) -> np.ndarray:
    """nu(u) = u^4 (35 - 84 u + 70 u^2 - 20 u^3) for u clipped to [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return 35.0 * u ** 4 - 84.0 * u ** 5 + 70.0 * u ** 6 - 20.0 * u ** 7


def meyer_wavelet_fourier(omega) -> np.ndarray | complex:
    """psi~(omega) = e^{-i omega/2} ( nu(3|omega|/2pi - 1) nu(2 - 3|omega|/4pi) )^{1/2}.

    The mu-mass of the window (|omega|/2 - pi, |omega| - pi]: at every omega
    one of the two factors is 1.
    """
    omega = np.asarray(omega, dtype=float)
    a = 1.5 * np.abs(omega) / np.pi
    out = np.exp(-0.5j * omega) * np.sqrt(_nu(a - 1.0) * _nu(2.0 - 0.5 * a))
    return complex(out) if out.ndim == 0 else out


def sobolev_norm(t: np.ndarray, values: np.ndarray, alpha: float) -> float:
    """|| g ||_alpha = ( int |g~(omega)|^2 (omega^2 + 1)^alpha d omega )^{1/2}.

    `values` samples g~ on the increasing frequency grid `t`.  The integral is
    the trapezoid rule on that grid (no 1/2pi factor: at alpha = 0 the square
    equals 2 pi * int g^2 by Plancherel).  A warning is emitted when the
    endpoint integrand carries more than 1e-6 of the total, i.e. the grid's
    range truncates it.
    """
    if alpha < 0:
        raise ParameterError("alpha must be >= 0")
    t = np.asarray(t, dtype=float)
    w = np.abs(values) ** 2 * (t ** 2 + 1.0) ** alpha
    total = float(np.trapezoid(w, t))
    dt = np.diff(t)
    edge = float(w[0] * dt[0] + w[-1] * dt[-1])
    if total > 0 and edge > 1e-6 * total:
        warnings.warn(
            f"Sobolev integral looks truncation-dominated: edge contribution "
            f"{edge:.3e} vs total {total:.3e}; extend the frequency grid",
            stacklevel=2)
    return math.sqrt(total)


# --------------------------------------------------------------------------- simulation

def simulate_markov2_loop(rate_01: float, rate_10: float, steps: int, dt: float,
                          rng: np.random.Generator) -> np.ndarray:
    """`svsim.simulate_markov2` as a per-step loop over the same draws: the reference."""
    p_flip = (1.0 - np.exp(-rate_01 * dt), 1.0 - np.exp(-rate_10 * dt))
    state = int(rng.random() < rate_01 / (rate_01 + rate_10))
    u = rng.random(steps)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = state
    for k in range(steps):
        if u[k] < p_flip[state]:
            state = 1 - state
        path[k + 1] = state
    return path


# --------------------------------------------------------------------------- regression

def simulate_discrete_ar(params: ArParams, n: int, seed: int):
    """(series, vol) of the discrete-time model Y_t = xi_t + log Z_t^2 at n points.

    The nonlinear-ar scenario with one substep per unit gap; xi_1..xi_n is
    `vol.log_sigma2[:n]` and Y is `series.log_squared`.
    """
    return simulate_scenario(ScenarioConfig("nonlinear-ar", params, 1.0, n, substeps=1,
                                            vol_seed=seed, price_seed=seed + 1_000_003))


def regression_residual_field(estimate: RegressionEstimate,
                              m: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """p_nh(x) = numerator - m(x) * denominator, the error-decomposition numerator.

    Satisfies m_hat(x) - m(x) = p_nh(x) / f_nh(x) at unmasked points exactly.
    """
    return estimate.numerator - m(estimate.x) * estimate.denominator
