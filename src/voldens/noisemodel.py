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
arctan2 terms.  The derivative of 1/phi_k needs digamma(1/2 + it), whose
imaginary part is exactly (pi/2) tanh(pi t) (DLMF 5.4.17) and whose real
part comes from the same shift and asymptotic series (DLMF 5.11.2).  This
module loads numpy only.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# Beyond this frequency |phi_k| < 1e-152 and downstream ratios are
# meaningless; phi_k returns exactly 0 there.
CHARFN_CUTOFF = 700.0 / np.pi
#: the series below are summed at w = 1/2 + SHIFT + it, where |w| >= 8.5 puts
#: the first omitted term near 5e-15 (absolute) at t = 0 and lower elsewhere
SHIFT = 8
#: B_2m / (2m (2m - 1)) and B_2m / (2m), m = 1..6: the Stirling series of
#: log Gamma(w) and the asymptotic series of digamma(w), both in powers of 1/w
_LOGGAMMA_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)


def _series(t: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(u, sum_m coeffs[m-1] u^(2m-2)) at u = 1/w, w = 1/2 + SHIFT + it, by Horner's rule."""
    u = 1.0 / (0.5 + SHIFT + 1j * t)
    u2 = u * u
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u2 + c
    return u, acc


def _phase(t: np.ndarray) -> np.ndarray:
    """arg phi_k(t) = t log 2 + Im log Gamma(1/2 + it), odd in t.

    With w = 1/2 + SHIFT + it, Stirling gives Im log Gamma(w) = SHIFT arg w +
    t (log|w| - 1) + Im sum_m B_2m / (2m (2m - 1) w^(2m-1)), and Im log of
    the shift factors 1/2 + k + it, k < SHIFT, is arctan2(t, k + 1/2).
    """
    a = 0.5 + SHIFT
    u, acc = _series(t, _LOGGAMMA_SERIES)
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


def inv_noise_charfn_derivative(t) -> np.ndarray | complex:
    """d(1/phi_k)/dt = -(1/phi_k(t)) * i * (log 2 + digamma(1/2 + it)).

    The penalized-projection tables need the boundary value and slope of
    1/phi_k to peel off its spectrum-edge discontinuity before an FFT.
    Im digamma(1/2 + it) = (pi/2) tanh(pi t) exactly; the real part is
    log|w| - Re 1/(2w) - Re sum_m B_2m / (2m w^(2m)) at w = 1/2 + SHIFT + it,
    less the shift terms Re 1/(1/2 + k + it).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    a = 0.5 + SHIFT
    u, acc = _series(t, _DIGAMMA_SERIES)
    re = 0.5 * np.log(a * a + t * t) - 0.5 * u.real - (u * u * acc).real
    for k in range(SHIFT):
        b = k + 0.5
        re -= b / (b * b + t * t)
    d = 1j * (np.log(2.0) + re + 0.5j * np.pi * np.tanh(np.pi * t))
    out = -inv_noise_charfn(t) * d
    return complex(out[0]) if scalar else out


def sample_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n variates of log Z^2 (exact, via squaring standard normals)."""
    z = rng.standard_normal(n)
    return np.log(z * z)
