"""The log-squared Gaussian noise model.

If Z is standard normal, the noise variable is eps = log Z^2.  Its density
has the closed form

    k(x) = (1/sqrt(2 pi)) * exp(x/2) * exp(-exp(x)/2),

and its characteristic function is

    phi_k(t) = (1/sqrt(pi)) * 2^{it} * Gamma(1/2 + it).

phi_k decays exponentially, |phi_k(t)| ~ sqrt(2) * exp(-pi |t| / 2), which is
what makes every deconvolution estimator in this package logarithmic-rate.
Two identities are used throughout and exercised by the tests:

    |phi_k(t)|^2 = 1 / cosh(pi t)        (reflection formula for Gamma)
    1 / phi_k(t) = cosh(pi t) * conj(phi_k(t))

The complex log-gamma needed for phi_k is scipy's `loggamma`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, loggamma

from .errors import ParameterError

# Beyond this frequency |phi_k| < 1e-152 and downstream ratios are
# meaningless; phi_k returns exactly 0 there.
CHARFN_CUTOFF = 700.0 / np.pi


def noise_density(x) -> np.ndarray | float:
    """Density k of log Z^2 for standard normal Z.

    Maximal at x = 0 with value exp(-1/2)/sqrt(2 pi); the left tail decays
    like exp(x/2) and the right tail doubly exponentially.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.exp(0.5 * x - 0.5 * np.exp(x)) / np.sqrt(2.0 * np.pi)
    return float(out[0]) if scalar else out


def noise_charfn(t) -> np.ndarray | complex:
    """Characteristic function phi_k(t) = (1/sqrt(pi)) 2^{it} Gamma(1/2 + it).

    The unit-modulus factor 2^{it} is evaluated as exp(i t log 2), which
    avoids any branch ambiguity.  Hermitian symmetry phi_k(-t) =
    conj(phi_k(t)) holds exactly: negative frequencies are produced by
    conjugation of the positive branch.  For |t| > 700/pi the value has
    underflowed past any use and 0 is returned.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    ta = np.abs(t)
    out = np.zeros(t.shape, dtype=complex)
    ok = ta <= CHARFN_CUTOFF
    if np.any(ok):
        v = np.exp(1j * ta[ok] * np.log(2.0)
                   + loggamma(0.5 + 1j * ta[ok])) / np.sqrt(np.pi)
        out[ok] = v
    out = np.where(t < 0, np.conj(out), out)
    return complex(out[0]) if scalar else out


def inv_noise_charfn(t) -> np.ndarray | complex:
    """1 / phi_k(t), evaluated as cosh(pi t) * conj(phi_k(t)).

    The reflection identity makes this form stable: no near-zero division
    ever occurs (Gamma(1/2 + it) has no real-line zeros).  cosh overflows
    for |t| above ~225.5; callers bound their frequency ranges accordingly.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if np.any(np.abs(t) > CHARFN_CUTOFF):
        raise ParameterError(
            f"1/phi_k overflows for |t| > {CHARFN_CUTOFF:.1f}; got {np.max(np.abs(t)):.1f}")
    out = np.cosh(np.pi * t) * np.conj(noise_charfn(t))
    return complex(out[0]) if scalar else out


def inv_noise_charfn_derivative(t) -> np.ndarray | complex:
    """d(1/phi_k)/dt = -(1/phi_k(t)) * i * (log 2 + digamma(1/2 + it)).

    The penalized-projection tables need the boundary value and slope of
    1/phi_k to peel off its spectrum-edge discontinuity before an FFT.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    d = 1j * (np.log(2.0) + digamma(0.5 + 1j * t))
    out = -inv_noise_charfn(t) * d
    return complex(out[0]) if scalar else out


def sample_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n variates of log Z^2 (exact, via squaring standard normals)."""
    z = rng.standard_normal(n)
    return np.log(z * z)
