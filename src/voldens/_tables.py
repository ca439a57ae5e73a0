"""Shared numerical infrastructure for the Fourier-domain estimators.

Every estimator in this package evaluates some inverse Fourier transform of a
compactly supported spectrum, correlated on a lattice twice: with the data,
to get coefficients, and with the coefficients, to render the estimate.
There are two engines for that.

The table engine tabulates the transform once on a fine uniform grid by one
real inverse FFT of the s >= 0 half band (`fourier_table`, whose step is
always exactly the one requested) and reads it through one local 8-point
Lagrange stencil (`_stencil`), which is linear in the table values; in
every read a tap off the table reads zero.  At 16 table steps per Nyquist
step of the band its error is near 1e-9 of the transform's maximum, where
a 4-point cubic needs about 72 steps for that.  `Table1D` reads any
points in blocks of READ_BLOCK.  Because every shift is a whole
number of table steps (`_stride`), a point's stencil weights are the same
for every shift, so both directions reduce to sums over the table lattice:
`lattice_means` (data to coefficients: the kernel and regression sums on the
v_h table's own lattice, which `Table1D.__call__` then reads at the grid,
and the PPE coefficients on the shifts j/L) bins the points and correlates
them with the table in polyphase form: one batched `numpy.fft` rfft of the
binned rows, one row per residue of the table index modulo the stride,
times the table's row spectra (computed once per stride and length, and
kept on the table), and one irfft as long as the table's rows; and its
transpose `lattice_expansion` (coefficients to grid: the wavelet render)
takes one contiguous `np.convolve` per residue class of the touched table
indices modulo the stride.  Spectra that jump at the edges of their
band [-s_max, s_max] get a cubic bridge read off the spectrum at the edge
(`_bridge_coeffs`), removed before the FFT and added back in elementary
closed form (`_bridge_transform`: cos and sin times two polynomials in
1/(s_max x), with Taylor-series moments only near x = 0).

The band engine (the wavelet coefficients) builds no table: `band_lattice`
takes the means over integer shifts as the band integral of the spectrum
times the data's empirical characteristic function, by the trapezoid rule
on P nodes (`band_samples`, the spectrum there; P >= 4 times the reach of
points and shifts), with the characteristic function from a numpy type-1
NUFFT (`_ecf`, Gaussian gridding) and one inverse FFT of length P.  Its
spectra must vanish with their first derivative at the band edge.

Every spectrum is Hermitian, q(-s) = conj(q(s)), so both engines read it on
[0, s_max] only, through `_half_band`.  Importing this module loads numpy only.

Each transform is described once, by a frozen `Band`: its spectrum (a
module-level function of (s, param)), the band edge s_max, the table step
and whether the spectrum jumps at the edge, so that its table is bridged.
`Band.table` builds either a table (`fourier_table`) or the spectrum samples
(`band_samples`) through the one cache keyed on the band, the range bucket
and the build function; every table spans GUARD beyond the extent its
caller needs, so the transform has decayed before the table ends.  The tests
check every Band's table, and `band_lattice`, against direct adaptive
quadrature of the same spectrum, which shares no code with either engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft

from .errors import NumericsError

# Periodic images of a tabulated transform sit this many requested ranges away.
OVERSAMPLE = 2.0
# Minimum spectrum samples across the band of every table.  8192 would double
# the kernel table's FFT for steps below 0.0491 and buys nothing where the
# aliasing bound (OVERSAMPLE) already sets the frequency step.
SPECTRUM_SAMPLES = 4096
#: every table spans this much beyond the extent its caller needs
GUARD = 8.0
#: `_bridge_transform` uses the Taylor-series moments below this |s_max x| and
#: the elementary closed form from it on
BRIDGE_NEAR_THETA = 4.0
#: terms of `_osc_moments`'s series in theta^2; at |theta| = BRIDGE_NEAR_THETA
#: the first one left out is below 1e-20
OSC_TERMS = 20
#: `_bridge_coeffs` reads a spectrum at s_max - EDGE_STEP (0, 1, 2)
EDGE_STEP = 1e-5
#: `Table1D.__call__` reads its points in blocks of this many
READ_BLOCK = 16384
#: `band_lattice` takes at least this many frequency nodes
BAND_NODES = 65536
#: `_ecf` spreads each point to the 2 * SPREAD + 1 nearest nodes of its grid,
#: and the data in blocks of SPREAD_BLOCK points
SPREAD = 12
SPREAD_BLOCK = 8192


class Table1D:
    """Uniform-grid samples read by local 8-point Lagrange interpolation (`_stencil`).

    The samples are extended by zeros on both sides: a stencil tap off the
    table reads 0, so a point four steps or more outside the table reads
    0.  Callers size the range so that the tabulated function has decayed
    there.
    """

    __slots__ = ("x0", "dx", "values", "corr_spectrum")

    def __init__(self, x0: float, dx: float, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 8:
            raise ValueError("table needs a 1-d array of at least 8 samples")
        # zeros each side, so that a tap clipped into the array reads one
        self.values = np.pad(values, _PAD)
        self.x0 = float(x0) - _PAD * dx
        self.dx = float(dx)
        # `lattice_means`'s conjugate row spectra of the values, keyed by
        # (stride, FFT length), each computed by the first call that needs it
        self.corr_spectrum: dict[tuple[int, int], np.ndarray] = {}

    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(_PAD, self.values.size - _PAD)

    def raw(self) -> np.ndarray:
        return self.values[_PAD:-_PAD]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty(x.size)
        last = self.values.size - 1
        # the stencil's (8, block) temporaries are bounded by READ_BLOCK points
        for start in range(0, x.size, READ_BLOCK):
            idx, w = _stencil(self, x[start:start + READ_BLOCK])
            tap = idx + _TAPS[:, None]
            # a tap off the array reads the zero at the nearer end; a point
            # with no tap on the array (or no finite position) reads 0
            on = (tap[-1] >= 0) & (tap[0] <= last)
            read = np.einsum("ij,ij->j", w, np.take(self.values, tap, mode="clip"))
            out[start:start + READ_BLOCK] = np.where(on, read, 0.0)
        return float(out[0]) if scalar else out


#: offsets of the 8-point stencil from its base index floor(pos)
_TAPS = np.arange(-3, 5)
#: zeros `Table1D` pads on each side of its samples
_PAD = len(_TAPS) // 2
#: 1 / prod_{b != a} (a - b) over the taps b, for each tap a
_LAGRANGE_SCALE = np.array([1.0 / math.prod(int(a - b) for b in _TAPS if b != a)
                            for a in _TAPS])


def _stencil(table: Table1D, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base index idx of each x on the table lattice, and the (8, n) Lagrange
    weights of the table values at idx + _TAPS, offset t = pos - idx in [0, 1).

    Tap a weighs prod_{b != a} (t - b) / prod_{b != a} (a - b): the product
    of the prefix prod_{b < a} and the suffix prod_{b > a} of the differences
    t - b, so nothing divides by the t - a that vanishes at a node.
    """
    pos = (x - table.x0) / table.dx
    idx = np.floor(pos)
    diff = (pos - idx) - _TAPS[:, None]
    w = np.empty_like(diff)
    w[1] = diff[0]
    for a in range(2, len(_TAPS)):  # the prefixes
        np.multiply(w[a - 1], diff[a - 1], out=w[a])
    suffix = diff[-1].copy()
    for a in range(len(_TAPS) - 2, 0, -1):  # times the suffixes
        w[a] *= suffix
        suffix *= diff[a]
    w[0] = suffix
    w *= _LAGRANGE_SCALE[:, None]
    return idx.astype(np.int64), w


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


def fourier_table(spectrum: Callable[[np.ndarray], np.ndarray], s_max: float, dx: float,
                  x_half: float, bridged: bool = False) -> Table1D:
    """Tabulate G(x) = (1/2pi) * int_{-s_max}^{s_max} q(s) e^{isx} ds by FFT.

    q must be Hermitian (q(-s) = conj(q(s))), so that G is real: the table
    is one real inverse FFT (`irfft`) of q at s = k ds in [0, s_max].

    For spectra that vanish (with a couple of derivatives) at +-s_max the
    plain trapezoid-FFT is accurate: the transform decays fast enough that
    periodic images are negligible at OVERSAMPLE times the requested range.
    Spectra with nonzero boundary values produce 1/x Gibbs tails; for those,
    pass `bridged`.  A Hermitian cubic bridge matching q(s_max) and
    q'(s_max), both read from q itself (`_bridge_coeffs`), is removed
    before the FFT and its transform added back in closed form, which
    leaves a remainder decaying like 1/x^3.

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

    s = np.minimum(ds * np.arange(n_half + 1), s_max)
    q = _half_band(spectrum, s, s_max)
    if bridged:
        b0, b1, b2, b3 = beta = _bridge_coeffs(spectrum, s_max)
        sigma = s / s_max
        q.real -= b2 * sigma * sigma + b0
        q.imag -= (b3 * sigma * sigma + b1) * sigma

    # G(k dx) = (ds/2pi) sum_{|j| <= n_half} q_j e^{2 pi i jk/m}: an irfft of length m
    g = irfft(q, m)
    k_half = int(np.floor(x_half / dx))
    g_slice = np.concatenate([g[m - k_half:], g[:k_half + 1]]) * (m * ds / (2.0 * np.pi))
    x0 = -k_half * dx

    if bridged:
        g_slice += _bridge_transform(beta, s_max, x0 + dx * np.arange(g_slice.size))
    return Table1D(x0, dx, g_slice)


def _half_band(spectrum: Callable[[np.ndarray], np.ndarray], s: np.ndarray,
               s_max: float) -> np.ndarray:
    """spectrum(s) at nodes in [0, s_max], as a fresh complex array; NumericsError if not finite."""
    q = np.array(spectrum(s), dtype=complex)
    if not np.all(np.isfinite(q)):
        raise NumericsError(f"spectrum is not finite on its band [0, {s_max:.6g}]")
    return q


@dataclass(frozen=True)
class Band:
    """G(x) = (1/2pi) int_{-s_max}^{s_max} spectrum(s, param) e^{isx} ds, described once.

    `spectrum` is a module-level function of (s, param), so equal Bands
    hash equal.  It must be Hermitian and is only ever called at
    0 <= s <= s_max.  `step` is the table step.  `bridged` declares that
    the spectrum jumps at s_max, so that `fourier_table` bridges it with
    the value and slope it reads there and `band_samples` refuses it.
    """

    spectrum: Callable[[np.ndarray, object], np.ndarray]
    param: object
    s_max: float
    step: float
    bridged: bool = False

    def table(self, extent: float,
              build: Callable[..., Table1D | np.ndarray]) -> Table1D | np.ndarray:
        """G over |x| <= extent + GUARD, cached: a `fourier_table` or its `band_samples`."""
        return _cached_table(self, range_bucket(extent + GUARD), build)


@lru_cache(maxsize=128)
def _cached_table(band: Band, x_half: float,
                  build: Callable[..., Table1D | np.ndarray]) -> Table1D | np.ndarray:
    return build(lambda s: band.spectrum(s, band.param), s_max=band.s_max, dx=band.step,
                 x_half=x_half, bridged=band.bridged)


def _bridge_coeffs(spectrum: Callable[[np.ndarray], np.ndarray], s_max: float) -> np.ndarray:
    """Real b of the Hermitian cubic p = b0 + b2 sigma^2 + i (b1 sigma + b3 sigma^3),
    sigma = s / s_max, with the spectrum's value q and slope dq at s_max (so conj(q),
    -conj(dq) at -s_max): one `_half_band` read at s_max - EDGE_STEP (0, 1, 2) gives q
    and the one-sided second-order difference dq = (3 q0 - 4 q1 + q2) / (2 EDGE_STEP).
    """
    q, q1, q2 = _half_band(spectrum, s_max - EDGE_STEP * np.arange(3), s_max)
    d = (3.0 * q - 4.0 * q1 + q2) * (s_max / (2.0 * EDGE_STEP))
    return np.array([q.real - 0.5 * d.real, 1.5 * q.imag - 0.5 * d.imag,
                     0.5 * d.real, 0.5 * (d.imag - q.imag)])


#: _OSC_SERIES[k, m] = 2 / (n! (k + n + 1)) with n = 2m + (k mod 2)
_OSC_SERIES = np.array([[2.0 / (math.factorial(2 * m + k % 2) * (k + 2 * m + k % 2 + 1))
                         for m in range(OSC_TERMS)] for k in range(4)])


def _osc_moments(theta: np.ndarray) -> np.ndarray:
    """Rows (C0, S1, C2, S3) of the moments int_{-1}^{1} sigma^k e^{i theta sigma} d sigma
    = C_k (k even) or i S_k (k odd), for |theta| < BRIDGE_NEAR_THETA.

    Returns a real array of shape (4, len(theta)), one row per power of the
    cubic bridge.  Expanding the exponential gives the moment as
    sum_n (i theta)^n / n! * 2 / (k + n + 1) over the n with k + n even: a
    series in -theta^2 (times theta for odd k), summed by Horner's rule; its
    largest term is about 5, so it rounds to a few 1e-16.
    """
    theta = np.asarray(theta, dtype=float)
    t2 = -theta ** 2
    acc = np.broadcast_to(_OSC_SERIES[:, -1:], (4, t2.size))
    for m in range(OSC_TERMS - 2, -1, -1):
        acc = acc * t2 + _OSC_SERIES[:, m:m + 1]
    acc[1::2] *= theta
    return acc


def _bridge_transform(beta, s_max, x: np.ndarray) -> np.ndarray:
    """(1/2pi) * int_{-s_max}^{s_max} p(s) e^{isx} ds for the bridge p of `_bridge_coeffs`.

    With theta = s_max x and u = 1/theta, integrating the cubic p(sigma) by
    parts four times gives the exact
    int_{-1}^{1} p e^{i theta sigma} d sigma
    = [e^{i theta sigma} sum_{r<=3} (-1)^r p^(r)(sigma) / (i theta)^(r+1)]_{-1}^{1},
    which is real, cos(theta) A(u) - sin(theta) B(u) with
    A(u) = a1 u + a2 u^2 + a3 u^3 and B(u) = c1 u + c2 u^2 + a2 u^3 + a3 u^4.
    Below |theta| = BRIDGE_NEAR_THETA their high powers of u cancel badly, so
    those few points take the series moments of `_osc_moments`.
    """
    theta = s_max * np.asarray(x, dtype=float)
    b0, b1, b2, b3 = beta
    a1, a2, a3 = 2.0 * (b1 + b3), 4.0 * b2, -12.0 * b3
    c1, c2 = -2.0 * (b0 + b2), 2.0 * (b1 + 3.0 * b3)
    near = np.flatnonzero(np.abs(theta) < BRIDGE_NEAR_THETA)
    t = theta.copy()
    t[near] = BRIDGE_NEAR_THETA  # any value off zero; these points are overwritten below
    u = 1.0 / t
    out = np.cos(t) * (u * (a1 + u * (a2 + u * a3)))
    out -= np.sin(t) * (u * (c1 + u * (c2 + u * (a2 + u * a3))))
    c0, s1, c2, s3 = _osc_moments(theta[near])
    out[near] = b0 * c0 - b1 * s1 + b2 * c2 - b3 * s3
    return (s_max / (2.0 * np.pi)) * out


def _fast_len(size: int) -> int:
    """The smallest 2^a 3^b 5^c >= size, as `scipy.fft.next_fast_len(size, True)` gives."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= size
            best = min(best, p35 << (-(-size // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def lattice_means(points: np.ndarray, table: Table1D, step: float, j_lo: int, j_hi: int,
                  weights: np.ndarray | None = None) -> np.ndarray:
    """c_j = (1/n) sum_i w_i table(points_i - j*step) for j in [j_lo, j_hi].

    The weights w_i default to 1 (plain means).  The stride s = round(step /
    table.dx) must be exact (callers build their tables that way), so that
    every shift lands on the table lattice.  With that alignment the per-point
    stencil weights are independent of j, and the means are
    c_j = (1/n) sum_m b[m] v[m - s j] for the taps b binned on the table
    values v.  Only every s-th lag is read, so the correlation is taken in
    polyphase form (Vaidyanathan 1993): with m = s u + r, the rows
    b_r[u] = b[s u + r] and v_r[u] = v[s u + r] (nu = ceil(len(v) / s)) give
    c_j = (1/n) sum_r sum_u b_r[u] v_r[u - j]: one batched rfft of the s data
    rows (the columns of the taps binned as an (F, s) array, whose entry
    (u, r) is index s (u_lo + u) + r, from the lowest tap row u_lo) times
    the table's conjugate row spectra, summed over r, and one irfft of length
    F read at (j - u_lo) mod F.  A tap reads v[m - s j], zero off the table
    as in `Table1D.__call__`, so the taps that reach the table at no shift
    are dropped, and F spans every d = u - j of the call's taps and shifts
    together with [0, nu): a d off the table wraps onto zero padding and the
    circular correlation is the linear one.  In the estimators every d lies
    in [0, nu) and F = `_fast_len(nu)`.  The row spectra are computed once
    per (s, F) and kept in `table.corr_spectrum`.  The points, which must be
    finite, are binned in blocks of READ_BLOCK.
    """
    points = np.asarray(points, dtype=float)
    n = points.size
    if n == 0:
        raise ValueError("no data points")
    if weights is not None:
        weights = np.broadcast_to(np.asarray(weights, dtype=float), points.shape)
    stride = _stride(table, step)
    if j_hi < j_lo:
        raise ValueError("empty shift range")
    v = table.values
    if stride * max(-j_lo, j_hi) >= v.size:
        raise ValueError("table does not cover the requested shift range")

    pos = (points - table.x0) / table.dx
    if not np.all(np.isfinite(pos)):
        raise ValueError("points must be finite")
    # tap m reads v[m - s j], zero off the table: only the taps in [lo, hi) count
    lo, hi = stride * j_lo, v.size + stride * j_hi
    first = math.floor(pos.min()) + int(_TAPS[0])
    last = math.floor(pos.max()) + int(_TAPS[-1])
    drop = first < lo or last >= hi
    first, last = max(first, lo), min(last, hi - 1)
    if first > last:
        return np.zeros(j_hi - j_lo + 1)
    nu = -(-v.size // stride)
    u_lo, u_hi = first // stride, last // stride
    fast = _fast_len(max(u_hi - j_lo + 1, nu) - min(u_lo - j_hi, 0))
    spectra = table.corr_spectrum.get((stride, fast))
    if spectra is None:
        padded = np.zeros(fast * stride)
        padded[:v.size] = v
        spectra = np.conj(rfft(padded.reshape(fast, stride), axis=0))  # column r: v[s u + r]
        table.corr_spectrum[stride, fast] = spectra
    base = stride * u_lo  # tap m goes to entry m - base of the binned rows
    offsets = _TAPS[:, None] - base
    binned = np.zeros(fast * stride)
    # the stencil's (8, block) temporaries are bounded by READ_BLOCK points
    for start in range(0, n, READ_BLOCK):
        idx, taps = _stencil(table, points[start:start + READ_BLOCK])
        if weights is not None:
            taps *= weights[start:start + READ_BLOCK]
        tgt = idx + offsets
        if drop:
            ok = (tgt >= lo - base) & (tgt < hi - base)
            tgt, taps = tgt[ok], taps[ok]
        binned += np.bincount(tgt.ravel(), taps.ravel(), minlength=binned.size)
    corr = irfft(np.einsum("kr,kr->k", rfft(binned.reshape(fast, stride), axis=0), spectra),
                 fast)
    return corr[(np.arange(j_lo, j_hi + 1) - u_lo) % fast] / n


def lattice_expansion(points: np.ndarray, table: Table1D, step: float,
                      coeffs: np.ndarray) -> np.ndarray:
    """out_i = sum_j c_j table(points_i - j*step) for j = -K..K, 2K+1 coefficients.

    The transpose of `lattice_means`: each point reads the table lattice
    through its own stencil weights, and each lattice value it reads,
    D[t] = sum_j c_j table.values[t - j*stride], is needed only at the (at
    most 8 per point) indices the points touch.  Within one residue class
    r = t mod stride, D[r + stride*u] = sum_j c_j w[u - j] with w =
    values[r::stride], so the touched indices of each class take one
    contiguous `np.convolve` over the span of u they cover.
    """
    points = np.asarray(points, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    stride = _stride(table, step)
    k = coeffs.size // 2
    v = table.values
    idx, w = _stencil(table, points)
    touched, where = np.unique(idx + _TAPS[:, None], return_inverse=True)
    if touched.size and (touched[0] < stride * k or touched[-1] + stride * k >= v.size):
        raise ValueError("table does not cover the requested shift range")
    residue, u = touched % stride, touched // stride
    lattice = np.empty(touched.size)
    for r in np.unique(residue):
        sel = residue == r
        lo, hi = u[sel][0], u[sel][-1]  # touched is sorted, so u increases within a class
        lattice[sel] = np.convolve(v[r::stride][lo - k:hi + k + 1], coeffs,
                                   "valid")[u[sel] - lo]
    return np.sum(w * lattice[where.reshape(w.shape)], axis=0)


def band_samples(spectrum: Callable[[np.ndarray], np.ndarray], s_max: float, dx: float,
                 x_half: float, bridged: bool = False) -> np.ndarray:
    """The spectrum at the nodes of `band_lattice` for points and shifts within |x| <= x_half.

    Returns q(s_k) at s_k = 2 pi k / P for k = 0..P-1, zero from s_max on,
    with P the smallest power of two >= max(BAND_NODES, 4 x_half); the
    s < 0 half is the conjugate (q must be Hermitian).  It takes
    `fourier_table`'s arguments so that `Band.table` caches either; dx (the
    band's table step) is not read, because the lattice step is 1, and a
    `bridged` band is refused: its spectrum must vanish with its first
    derivative at s_max, where no node need fall.  The samples are taken by
    `_half_band`, so a non-finite one raises NumericsError.
    """
    if bridged:
        raise ValueError("band_lattice needs a spectrum that vanishes at its band edge")
    size = 1 << (int(np.ceil(max(BAND_NODES, 4.0 * x_half))) - 1).bit_length()
    s = 2.0 * np.pi / size * np.arange(size)
    inside = s < s_max
    samples = np.zeros(size, dtype=complex)
    samples[inside] = _half_band(spectrum, s[inside], s_max)
    return samples


def _ecf(points: np.ndarray, size: int) -> np.ndarray:
    """psi_k = (1/n) sum_i exp(2 pi i k points_i / size) for k = 0..size-1.

    A type-1 NUFFT with Gaussian gridding (Greengard & Lee 2004, SIAM Rev.
    46:443): the phases theta_i = 2 pi points_i / size are spread by
    g(theta) = exp(-theta^2 / (4 tau)) onto M = 4 size nodes (2x
    oversampling of the 2 size modes |k| <= size), whose spacing 2 pi / M
    puts theta_i at node 4 points_i.  With tau = pi / size^2 the
    weight at a node d nodes away is exp(-pi d^2 / 16) (5e-14 beyond
    SPREAD).  One rfft of the spread sum divided by g's Fourier coefficient,
    sqrt(tau / pi) exp(-k^2 tau), leaves the sums; the spreading is done in
    blocks of SPREAD_BLOCK points, so memory is O(size + block).
    """
    nodes = 4 * size
    offsets = np.arange(-SPREAD, SPREAD + 1)
    spread = np.zeros(nodes)
    for start in range(0, points.size, SPREAD_BLOCK):
        pos = 4.0 * points[start:start + SPREAD_BLOCK]
        base = np.rint(pos)
        dist = offsets - (pos - base)[:, None]
        where = (base.astype(np.int64)[:, None] + offsets) % nodes
        spread += np.bincount(where.ravel(), np.exp(-np.pi / 16.0 * dist * dist).ravel(),
                              minlength=nodes)
    k = np.arange(size)
    return np.conj(rfft(spread)[:size]) * (np.exp(np.pi * (k / size) ** 2) / (4.0 * points.size))


def band_lattice(samples: np.ndarray, points: np.ndarray, j_lo: int, j_hi: int) -> np.ndarray:
    """c_j = (1/n) sum_i G(points_i - j) for integer j in [j_lo, j_hi], from `band_samples`.

    G(x) = (1/2pi) int q(s) e^{isx} ds, so c_j = (1/2pi) int q(s) psi(s)
    e^{-isj} ds with the data's empirical characteristic function psi(s) =
    (1/n) sum_i e^{is points_i}.  The trapezoid rule at the P nodes s_k =
    2 pi k / P of the samples is, by Poisson summation, exactly sum_m
    c_{j + mP}: the images sit at least 3/4 P away from every point and
    shift, where G has decayed.  psi comes from `_ecf`; the band is wider
    than the integer lattice's Nyquist band pi, so q psi is folded mod P
    (k and k - P give the same e^{-isj}) and one inverse real FFT of length
    P gives every c_j.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise ValueError("no data points")
    if j_hi < j_lo:
        raise ValueError("empty shift range")
    size = samples.size
    reach = max(abs(j_lo), abs(j_hi)) + np.ceil(np.max(np.abs(points))) + GUARD
    if 4.0 * reach > size:
        raise ValueError("spectrum samples do not cover the requested shift range")
    prod = samples * _ecf(points, size)
    # fold mod P: node k takes k and k - P, the conjugate of node P - k
    folded = prod[:size // 2 + 1].copy()
    folded[1:] += np.conj(prod[:size // 2 - 1:-1])
    # irfft of conj(folded) at t is (1/P) sum_k folded_k e^{-2 pi i k t / P}, real
    return irfft(np.conj(folded), size)[np.arange(j_lo, j_hi + 1) % size]
