"""Independent Fourier-side recomputation of the estimators, for output checks.

The program tabulates inverse Fourier transforms by FFT and interpolates
them at every data point.  The functions here never build a table: they
form the empirical characteristic function of the data at Gauss-Legendre
nodes and integrate the estimator's spectrum against it directly.  They
share no code with the program, so an agreement within the tolerance in
``baseline.json`` checks the program's tables, lattice correlations, kernel
sums and renders at once.

Conventions follow the program's documentation: the noise log Z^2 has
characteristic function phi_k(t) = 2^{it} Gamma(1/2 + it) / sqrt(pi), and
E log Z^2 = -(euler_gamma + log 2).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import comb, loggamma

NOISE_MEAN = -(np.euler_gamma + math.log(2.0))
#: Meyer scaling spectrum support and its flat part
OMEGA_MAX = 4.0 * np.pi / 3.0
OMEGA_FLAT = 2.0 * np.pi / 3.0
# data points per block when forming empirical characteristic functions
_BLOCK = 4096


def inv_noise_cf(t: np.ndarray) -> np.ndarray:
    """1 / phi_k(t) from scipy's complex log-gamma."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(np.pi) * np.exp(-1j * t * math.log(2.0) - loggamma(0.5 + 1j * t))


@lru_cache(maxsize=None)
def _leggauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(q)


def gauss_legendre(a: float, b: float, q: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _leggauss(q)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * nodes, half * weights


def empirical_cf(points: np.ndarray, s: np.ndarray,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """(1/n) sum_i w_i exp(i s points_i) at every s, in blocks over the points."""
    points = np.asarray(points, dtype=float)
    out = np.zeros(s.size, dtype=complex)
    for start in range(0, points.size, _BLOCK):
        p = points[start:start + _BLOCK]
        e = np.exp(1j * np.outer(p, s))
        if weights is None:
            out += e.sum(axis=0)
        else:
            out += weights[start:start + _BLOCK] @ e
    return out / points.size


def wand_cf(s: np.ndarray) -> np.ndarray:
    return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3, 0.0)


def kernel_density(y: np.ndarray, h: float, grid: np.ndarray,
                   weights: np.ndarray | None = None, q: int = 384) -> np.ndarray:
    """(1/(n h)) sum_j w_j v_h((x - Y_j)/h), with v_h the Wand deconvoluting kernel.

    Fourier form: (1/(2 pi h)) int_{-1}^{1} phi_w(s) / phi_k(-s/h)
    e^{isx/h} psi(s) ds, psi(s) = (1/n) sum_j w_j e^{-isY_j/h}.  The
    integrand at -s is the conjugate of that at s, so only [0, 1] is needed.
    """
    s, w = gauss_legendre(0.0, 1.0, q)
    psi = empirical_cf(-np.asarray(y) / h, s, weights)
    spectrum = w * wand_cf(s) * inv_noise_cf(-s / h) * psi
    phase = np.exp(1j * np.outer(np.asarray(grid) / h, s))
    return (phase @ spectrum).real / (np.pi * h)


def regression(y: np.ndarray, h: float, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the deconvolution Nadaraya-Watson estimator."""
    y_now, y_next = y[:-1], y[1:] - NOISE_MEAN
    return (kernel_density(y_now, h, grid, weights=y_next),
            kernel_density(y_now, h, grid))


def _smoothstep(u: np.ndarray, k: int = 3) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    acc = sum(comb(k + j, j, exact=True) * comb(2 * k + 1, k - j, exact=True) * (-u) ** j
              for j in range(k + 1))
    return u ** (k + 1) * acc


def meyer_scaling_cf(omega: np.ndarray) -> np.ndarray:
    """Square root of the mass that the smoothstep measure on [-pi/3, pi/3] gives (omega-pi, omega+pi]."""
    def cdf(x):
        return _smoothstep((x + np.pi / 3.0) / (2.0 * np.pi / 3.0))

    mass = cdf(omega + np.pi) - cdf(omega - np.pi)
    return np.sqrt(np.clip(mass, 0.0, 1.0))


def _meyer_nodes(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on the three pieces where the Meyer spectrum is smooth."""
    cuts = (-OMEGA_MAX, -OMEGA_FLAT, OMEGA_FLAT, OMEGA_MAX)
    parts = [gauss_legendre(a, b, q) for a, b in zip(cuts[:-1], cuts[1:])]
    return (np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))


def wavelet(y: np.ndarray, level: int, grid: np.ndarray, ls: np.ndarray,
            q: int = 384) -> tuple[np.ndarray, np.ndarray]:
    """Scaling coefficients a_{m,l} for the given l, and the density on the grid.

    a_{m,l} = 2^{m/2} (1/2pi) int phi~(w) / phi_k(2^m w) e^{-iwl} psi(w) dw with
    psi(w) = (1/n) sum_i e^{iw 2^m Y_i}.  The density sums a_{m,l}
    phi_{m,l}(x) over every integer l; by Poisson summation that is
    (2^m/2pi) int phi~(w)/phi_k(2^m w) psi(w) sum_k phi~(w - 2pi k)
    e^{i(2pi k - w) 2^m x} dw, with k in {-1, 0, 1} on the support.  It
    matches the program's truncation |l| <= L when L is far beyond the data
    range, as it is at the default L = n.
    """
    scale = 2.0 ** level
    w, wt = _meyer_nodes(q)
    spec = wt * meyer_scaling_cf(w) * inv_noise_cf(scale * w) * empirical_cf(scale * np.asarray(y), w)
    coeffs = (np.exp(-1j * np.outer(ls, w)) @ spec).real * math.sqrt(scale) / (2.0 * np.pi)
    x = scale * np.asarray(grid, dtype=float)
    total = np.zeros(x.size, dtype=complex)
    for k in (-1, 0, 1):
        shift = 2.0 * np.pi * k
        total += np.exp(1j * np.outer(x, shift - w)) @ (spec * meyer_scaling_cf(w - shift))
    return coeffs, total.real * scale / (2.0 * np.pi)
