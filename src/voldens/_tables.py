"""Shared numerical infrastructure for the Fourier-domain estimators.

Every estimator in this package evaluates some inverse Fourier transform of a
compactly supported spectrum, correlated on a lattice twice: with the data,
to get coefficients, and with the coefficients, to render the estimate.  The
spectrum is Hermitian, so the transform is real: it is tabulated once on a
fine uniform grid by one real inverse FFT of the s >= 0 half band
(`fourier_table`, whose step is always exactly the one requested) and read
through one local 4-point cubic stencil (`_stencil`), which is linear in the
table values.
Because every shift is a whole number of table steps (`_stride`), a point's
stencil weights are the same for every shift, so both directions reduce to
sums over the table lattice: `lattice_means` (data to coefficients; the
kernel and regression sums on a uniform grid, and the wavelet and PPE
coefficients on integer shifts) bins the points and correlates them with the
table as one `scipy.fft` rfft product at the padded length that
`scipy.signal.fftconvolve` uses, and its transpose `lattice_expansion`
(coefficients to grid; the wavelet render) forms one strided dot product per
lattice index the grid touches.  `fourier_quad` imports `scipy.integrate`
when called, so importing this module loads only numpy, `scipy.special` and
`scipy.fft`.
Spectra that jump at the edges of their symmetric band [-s_max, s_max] get
a cubic bridge, removed before the FFT and added back in closed form.

Each tabulated transform is described once, by a frozen `Band`: its
spectrum (a module-level function of (s, param)), the band edge s_max, the
table step and, for spectra that jump at the edge, the edge values to
bridge.  `Band.table` is the FFT path, through the one table cache keyed
on the band, the range bucket and the build function; every table spans
GUARD beyond the extent its caller needs, so the transform has decayed
before the table ends.  `Band.quad` evaluates the same transform by direct
adaptive quadrature of its real half-band integral (`fourier_quad`), one
point at a time; it shares no code with the FFT path and serves as the
independent oracle for every table in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import spherical_jn

from .errors import DataError, NumericsError

# Relative anti-Hermitian spectrum bound above which an "is real" inverse
# transform is considered broken (a bug or overflow regime, never a data property).
IMAG_RESIDUE_RTOL = 1e-8
# Periodic images of a tabulated transform sit this many requested ranges away.
OVERSAMPLE = 2.0
# Minimum spectrum samples across the band of every table.  8192 would double
# the kernel table's FFT for steps below 0.0491 and buys nothing where the
# aliasing bound (OVERSAMPLE) already sets the frequency step.
SPECTRUM_SAMPLES = 4096
#: every table spans this much beyond the extent its caller needs
GUARD = 8.0


class Table1D:
    """Uniform-grid samples with local cubic (4-point Lagrange) interpolation.

    Evaluation outside the tabulated range returns 0; callers are expected to
    size the range so that the tabulated function has decayed there.
    """

    __slots__ = ("x0", "dx", "values")

    def __init__(self, x0: float, dx: float, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 8:
            raise ValueError("table needs a 1-d array of at least 8 samples")
        # two guard zeros each side so the 4-point stencil never runs off the end
        self.values = np.concatenate([[0.0, 0.0], values, [0.0, 0.0]])
        self.x0 = float(x0) - 2.0 * dx
        self.dx = float(dx)

    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(2, self.values.size - 2)

    def raw(self) -> np.ndarray:
        return self.values[2:-2]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx, w = _stencil(self, x)
        inside = (idx >= 1) & (idx <= self.values.size - 3)
        idx_c = np.clip(idx, 1, self.values.size - 3)
        out = np.where(inside, np.sum(w * self.values[idx_c + _TAPS[:, None]], axis=0), 0.0)
        return float(out[0]) if scalar else out


#: offsets of the 4-point stencil from its base index
_TAPS = np.arange(-1, 3)


def _stencil(table: Table1D, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base index idx of each x on the table lattice, and the (4, n) Lagrange
    cubic weights of the table values at idx + _TAPS, offset t in [0, 1)."""
    pos = (x - table.x0) / table.dx
    idx = np.floor(pos).astype(np.int64)
    t = pos - idx
    return idx, np.stack([-t * (t - 1.0) * (t - 2.0) / 6.0, (t * t - 1.0) * (t - 2.0) / 2.0,
                          -t * (t + 1.0) * (t - 2.0) / 2.0, t * (t * t - 1.0) / 6.0])


def _stride(table: Table1D, step: float) -> int:
    """Table steps per lattice shift; the shift step must be a whole number of them."""
    stride = round(step / table.dx)
    if not np.isclose(step, stride * table.dx, rtol=1e-12, atol=0.0):
        raise ValueError("lattice step must equal stride * table.dx")
    return stride


def range_bucket(x_half: float) -> float:
    """Round a requested table range up to a coarse bucket (improves cache reuse).

    At least 64, powers of two up to 512 and multiples of 512 above it: small
    tables stay small, large ones don't double wastefully.
    """
    x = max(float(x_half), 64.0)
    if x <= 512.0:
        return float(2.0 ** np.ceil(np.log2(x)))
    return float(512.0 * np.ceil(x / 512.0))


def fourier_table(
    spectrum: Callable[[np.ndarray], np.ndarray],
    s_max: float,
    dx: float,
    x_half: float,
    edge_derivatives: tuple[complex, complex, complex, complex] | None = None,
) -> Table1D:
    """Tabulate G(x) = (1/2pi) * int_{-s_max}^{s_max} q(s) e^{isx} ds by FFT.

    q must be Hermitian (q(-s) = conj(q(s))) so that G is real: the table is
    one real inverse FFT (`irfft`) of the s >= 0 half of the band-sampled
    Hermitian part (q(s) + conj(q(-s)))/2.  The L1 norm of the anti-Hermitian
    part it drops, (ds/2pi) sum_{s >= 0} |q(s) - conj(q(-s))|, bounds the
    imaginary part of the complex transform; above IMAG_RESIDUE_RTOL of the
    table's magnitude it raises NumericsError.

    For spectra that vanish (with a couple of derivatives) at +-s_max the
    plain trapezoid-FFT is accurate: the transform decays fast enough that
    periodic images are negligible at OVERSAMPLE times the requested range.
    Spectra with nonzero boundary values produce 1/x Gibbs tails; for those,
    pass `edge_derivatives` = (q(-s_max), q'(-s_max), q(s_max), q'(s_max)).
    A cubic Hermite bridge matching those values is removed before the FFT
    and its transform added back in closed form, which leaves a remainder
    decaying like 1/x^3.

    The output grid step is exactly the requested dx (`lattice_means` needs
    table steps that divide its shifts); the frequency lattice then no longer
    hits +-s_max exactly, which is harmless precisely when the
    (bridge-corrected) spectrum vanishes with its first derivative at the
    support edge: the unsampled sliver contributes O(ds^3).
    """
    if s_max <= 0 or dx <= 0 or x_half <= 0:
        raise ValueError("s_max, dx and x_half must be positive")
    ds_needed = min(np.pi / (OVERSAMPLE * x_half), 2.0 * s_max / SPECTRUM_SAMPLES)
    m = 1 << (int(np.ceil(2.0 * np.pi / (ds_needed * dx))) - 1).bit_length()  # power of 2
    ds = 2.0 * np.pi / (m * dx)
    n_half = int(np.floor(s_max / ds * (1.0 + 1e-12)))
    if n_half >= m // 2:
        raise ValueError("spectrum grid does not fit the FFT size; increase dx or reduce x_half")

    s = ds * np.arange(-n_half, n_half + 1)
    q = spectrum(s).astype(complex)
    if edge_derivatives is not None:
        beta = _bridge_coeffs(s_max, *edge_derivatives)
        q -= np.polyval(beta[::-1], s / s_max)
    q_pos, q_neg = q[n_half:], np.conj(q[n_half::-1])  # q(s) and conj(q(-s)), s >= 0

    # G(k dx) = (ds/2pi) sum_{|j| <= n_half} q_j e^{2 pi i jk/m}: an irfft of length m
    g = np.fft.irfft(0.5 * (q_pos + q_neg), m)
    k_half = int(np.floor(x_half / dx))
    g_slice = np.concatenate([g[m - k_half:], g[:k_half + 1]]) * (m * ds / (2.0 * np.pi))
    x0 = -k_half * dx

    if edge_derivatives is not None:
        g_slice += _bridge_transform(beta, s_max, x0 + dx * np.arange(g_slice.size)).real

    scale = np.max(np.abs(g_slice)) + 1e-300
    bound = ds / (2.0 * np.pi) * np.sum(np.abs(q_pos - q_neg))
    if bound > IMAG_RESIDUE_RTOL * scale + 1e-12:
        raise NumericsError(
            f"inverse transform expected real; anti-Hermitian spectrum bound {bound:.3e} "
            f"against magnitude {scale:.3e}"
        )
    return Table1D(x0, dx, g_slice)


def fourier_quad(q: Callable[[float], complex], s_max: float, x) -> np.ndarray | float:
    """G(x) = (1/2pi) * int_{-s_max}^{s_max} q(s) e^{isx} ds by adaptive quadrature, per point.

    The oracle for `fourier_table`: slow, but independent of the FFT path.
    q must be Hermitian (checked at a few nodes; DataError if not), so that
    G(x) = (1/pi) int_0^{s_max} Re(q(s) e^{isx}) ds, one real integral per point.
    """
    if not all(np.isclose(q(s), np.conj(q(-s)), rtol=1e-10, atol=0.0)
               for s in s_max * np.array([0.0, 0.13, 0.5, 0.77, 1.0])):
        raise DataError("spectrum is not Hermitian: q(-s) != conj(q(s))")
    from scipy.integrate import quad  # only the oracle needs it; kept off the import path

    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0

    def one(xx: float) -> float:
        re, _ = quad(lambda s: (complex(q(s)) * np.exp(1j * s * xx)).real, 0.0, s_max,
                     epsabs=1e-12, epsrel=1e-10, limit=800)
        return re / np.pi

    out = np.array([one(float(xx)) for xx in np.atleast_1d(x)])
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Band:
    """G(x) = (1/2pi) int_{-s_max}^{s_max} spectrum(s, param) e^{isx} ds, described once.

    `spectrum` and `edges` are module-level functions of (s, param) and
    (s_max, param), so equal Bands hash equal; `edges`, when given, returns
    the (q(-s_max), q'(-s_max), q(s_max), q'(s_max)) that `fourier_table`
    bridges.  `step` is the table step.
    """

    spectrum: Callable[[np.ndarray, object], np.ndarray]
    param: object
    s_max: float
    step: float
    edges: Callable[[float, object], tuple] | None = None

    def quad(self, x) -> np.ndarray | float:
        """G at x by adaptive quadrature: the oracle for `table`."""
        return fourier_quad(lambda s: self.spectrum(s, self.param), self.s_max, x)

    def table(self, extent: float, build: Callable[..., Table1D]) -> Table1D:
        """G tabulated by `build` (a `fourier_table`) over |x| <= extent + GUARD, cached."""
        return _cached_table(self, range_bucket(extent + GUARD), build)


@lru_cache(maxsize=128)
def _cached_table(band: Band, x_half: float, build: Callable[..., Table1D]) -> Table1D:
    edges = None if band.edges is None else band.edges(band.s_max, band.param)
    return build(lambda s: band.spectrum(s, band.param), s_max=band.s_max, dx=band.step,
                 x_half=x_half, edge_derivatives=edges)


def _bridge_coeffs(s_max, qa, dqa, qb, dqb):
    """Hermite cubic in sigma = s / s_max taking qa, qb (slopes dqa, dqb) at s = -+s_max."""
    # p(sigma) = b0 + b1 s + b2 s^2 + b3 s^3 with p(+-1), p'(+-1) prescribed
    va, vb = qa, qb
    da, db = dqa * s_max, dqb * s_max
    b0 = 0.5 * (va + vb) + 0.25 * (da - db)
    b1 = 0.75 * (vb - va) - 0.25 * (da + db)
    b2 = 0.25 * (db - da)
    b3 = 0.25 * (da + db) - 0.25 * (vb - va)
    return np.array([b0, b1, b2, b3], dtype=complex)


def _osc_moments(theta: np.ndarray) -> np.ndarray:
    """M_k(theta) = int_{-1}^{1} sigma^k e^{i theta sigma} d sigma for k <= 3.

    Returns array of shape (4, len(theta)), one row per power of the cubic
    bridge.  Closed form from int_{-1}^{1} P_n(sigma) e^{i theta sigma} d sigma
    = 2 i^n j_n(theta) (DLMF 10.54.2) with sigma^2 = (2 P_2 + 1)/3 and
    sigma^3 = (2 P_3 + 3 P_1)/5.
    """
    theta = np.asarray(theta, dtype=float)
    j0, j1, j2, j3 = (spherical_jn(n, theta) for n in range(4))
    return np.stack([2.0 * j0, 2j * j1, (2.0 * j0 - 4.0 * j2) / 3.0, 0.4j * (3.0 * j1 - 2.0 * j3)])


def _bridge_transform(beta, s_max, x: np.ndarray) -> np.ndarray:
    """(1/2pi) * int_{-s_max}^{s_max} p(s) e^{isx} ds for the bridge p, in closed form."""
    mom = _osc_moments(s_max * np.asarray(x, dtype=float))
    return (s_max / (2.0 * np.pi)) * sum(beta[k] * mom[k] for k in range(4))


def lattice_means(points: np.ndarray, table: Table1D, step: float, j_lo: int, j_hi: int,
                  weights: np.ndarray | None = None) -> np.ndarray:
    """c_j = (1/n) sum_i w_i table(points_i - j*step) for j in [j_lo, j_hi].

    The weights w_i default to 1 (plain means).  The stride round(step /
    table.dx) must be exact (callers build their tables that way), so that
    every shift lands on the table lattice.  With that alignment the per-point
    cubic interpolation weights are independent of j and the whole family of
    means collapses to one cross-correlation: one `scipy.fft` rfft product
    at `fftconvolve`'s padded length `next_fast_len(size, real)`, so the
    result is bit for bit `fftconvolve(binned, v[::-1])` without importing
    `scipy.signal`.
    """
    points = np.asarray(points, dtype=float)
    n = points.size
    if n == 0:
        raise ValueError("no data points")
    stride = _stride(table, step)
    if j_hi < j_lo:
        raise ValueError("empty shift range")

    v = table.values
    idx, taps = _stencil(table, points)
    if weights is not None:
        taps = taps * np.asarray(weights, dtype=float)
    tgt = (idx + _TAPS[:, None]).ravel()
    ok = (tgt >= 0) & (tgt < v.size)  # off-table taps contribute zero
    binned = np.bincount(tgt[ok], taps.ravel()[ok], minlength=v.size)
    # correlation R[s] = sum_m binned[m] v[m - s]; c_j = R[j*stride] / n
    size = binned.size + v.size - 1
    fast = next_fast_len(size, True)
    corr = irfft(rfft(binned, fast) * rfft(v[::-1], fast), fast)[:size]
    wanted = v.size - 1 + stride * np.arange(j_lo, j_hi + 1)
    if wanted.min() < 0 or wanted.max() >= corr.size:
        raise ValueError("table does not cover the requested shift range")
    return corr[wanted] / n


def lattice_expansion(points: np.ndarray, table: Table1D, step: float,
                      coeffs: np.ndarray) -> np.ndarray:
    """out_i = sum_j c_j table(points_i - j*step) for j = -K..K, 2K+1 coefficients.

    The transpose of `lattice_means`: each point reads the table lattice
    through its own cubic weights, and each lattice value it reads,
    D[t] = sum_j c_j table.values[t - j*stride], is one strided dot product,
    computed only at the (at most 4 per point) indices the points touch.
    """
    points = np.asarray(points, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    stride = _stride(table, step)
    reach = stride * (coeffs.size // 2)
    v = table.values
    idx, w = _stencil(table, points)
    touched, where = np.unique(idx + _TAPS[:, None], return_inverse=True)
    if touched.size and (touched[0] < reach or touched[-1] + reach >= v.size):
        raise ValueError("table does not cover the requested shift range")
    lattice = np.array([v[t - reach:t + reach + 1:stride] @ coeffs[::-1] for t in touched])
    return np.sum(w * lattice[where.reshape(w.shape)], axis=0)
