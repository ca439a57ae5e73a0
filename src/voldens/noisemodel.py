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

The first identity gives the modulus exactly, so the only special function
needed is the phase theta(t) = Im log Gamma(1/2 + it): the recurrence
Gamma(z + 1) = z Gamma(z) shifts the argument by SHIFT, where the Stirling
series (DLMF 5.11.1) is accurate to rounding, and the shift adds back
arctan2 terms.  This module loads numpy only.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# Beyond this frequency |phi_k| < 1e-152 and downstream ratios are
# meaningless; phi_k returns exactly 0 there.
CHARFN_CUTOFF = 700.0 / np.pi
#: the series below is summed at w = 1/2 + SHIFT + it, where |w| >= 8.5 puts
#: the first omitted term near 5e-15 (absolute) at t = 0 and lower elsewhere
SHIFT = 8
#: B_2m / (2m (2m - 1)), m = 1..6: the Stirling series of log Gamma(w) in powers of 1/w
_LOGGAMMA_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _phase(t: np.ndarray) -> np.ndarray:
    """arg phi_k(t) = t log 2 + Im log Gamma(1/2 + it), odd in t.

    With w = 1/2 + SHIFT + it, Stirling gives Im log Gamma(w) = SHIFT arg w +
    t (log|w| - 1) + Im sum_m B_2m / (2m (2m - 1) w^(2m-1)), and Im log of
    the shift factors 1/2 + k + it, k < SHIFT, is arctan2(t, k + 1/2).
    """
    a = 0.5 + SHIFT
    u = 1.0 / (a + 1j * t)
    u2 = u * u
    acc = _LOGGAMMA_SERIES[-1]
    for c in _LOGGAMMA_SERIES[-2::-1]:  # Horner's rule in 1/w^2
        acc = acc * u2 + c
    out = (SHIFT * np.arctan2(t, a) + t * (np.log(2.0) - 1.0 + 0.5 * np.log(a * a + t * t))
           + (u * acc).imag)
    for k in range(SHIFT):
        out -= np.arctan2(t, k + 0.5)
    return out


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

    Evaluated as (cos + i sin)(`_phase`(t)) / sqrt(cosh(pi t)), so its
    modulus is the exact sech(pi t)^(1/2) and only the phase carries error
    (within 6.8e-13 of the exact phase, which reaches about 1,140 at the
    cutoff, against mpmath on 3,000 points; scipy's `loggamma` is within
    4.5e-13 there).  Hermitian symmetry phi_k(-t) = conj(phi_k(t)) holds
    exactly: negative frequencies are produced by conjugation of the
    positive branch.  For |t| > 700/pi the value has underflowed past any
    use and 0 is returned.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    ta = np.abs(t)
    out = np.zeros(t.shape, dtype=complex)
    ok = ta <= CHARFN_CUTOFF
    if np.any(ok):
        phase, root = _phase(ta[ok]), np.sqrt(np.cosh(np.pi * ta[ok]))
        out.real[ok] = np.cos(phase) / root
        out.imag[ok] = np.sin(phase) / root
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


def sample_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n variates of log Z^2 (exact, via squaring standard normals)."""
    z = rng.standard_normal(n)
    return np.log(z * z)
