"""Tests for the shared table/FFT infrastructure."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.signal import fftconvolve

from reference import band_quad, bessel_moments, fourier_quad
import voldens
from voldens._tables import (_TAPS, BAND_NODES, BRIDGE_NEAR_THETA, GUARD, READ_BLOCK, Table1D,
                             _bridge_coeffs, _bridge_transform, _ecf, _fast_len, _osc_moments,
                             _stencil,
                             band_lattice, band_samples, fourier_table, lattice_expansion,
                             lattice_means, range_bucket)
from voldens.errors import DataError, NumericsError
from voldens.grids import uniform_grid
from voldens.kerneldeconv import MIN_BANDWIDTH, TABLE_STEP, deconv_kernel_table, kernel_band
from voldens.noisemodel import inv_noise_charfn
from voldens.ppe import TABLE_STRIDE, ppe_coefficients, u_band, u_zero_table
from voldens.waveletdeconv import SCALING_BAND, scaling_table, um_band, um_table


class TestTable1D:
    def test_interpolates_nodes_exactly(self):
        x0, dx = -2.0, 0.1
        vals = np.sin(x0 + dx * np.arange(64))
        table = Table1D(x0, dx, vals)
        np.testing.assert_allclose(table(table.grid()), vals, atol=1e-14)

    def test_cubic_accuracy_on_smooth_function(self):
        x0, dx = -4.0, 0.02
        grid = x0 + dx * np.arange(401)
        table = Table1D(x0, dx, np.exp(-grid ** 2))
        probe = np.linspace(-3.5, 3.5, 500)
        np.testing.assert_allclose(table(probe), np.exp(-probe ** 2), atol=2e-8)

    def test_outside_range_is_zero(self):
        table = Table1D(0.0, 0.5, np.ones(16))
        assert table(-1.0) == 0.0
        assert table(100.0) == 0.0

    def test_scalar_and_array_calls(self):
        table = Table1D(0.0, 0.5, np.arange(16, dtype=float))
        assert isinstance(table(1.0), float)
        assert table(np.array([1.0, 2.0])).shape == (2,)


def _unblocked_read(table, x):
    """`Table1D.__call__` over all of x at once, as it read before it read in blocks:
    a tap off the array reads 0, a tap on it its value."""
    idx, w = _stencil(table, x)
    tap = idx + _TAPS[:, None]
    on = (tap >= 0) & (tap < table.values.size)
    return np.sum(np.where(on, w * table.values[np.where(on, tap, 0)], 0.0), axis=0)


#: estimate_density on n = 2600 points, twice, on every `sys.argv[1]`-th point of
#: one 200,000-point grid; prints the process's peak RSS in KiB
_PEAK_RSS_SCRIPT = """
import resource, sys
import numpy as np
from voldens.kerneldeconv import KernelSpec, default_bandwidth, estimate_density
y = np.random.default_rng(3).normal(-1.2, 2.0, 2600)
grid = np.linspace(np.min(y) - 2.0, np.max(y) + 2.0, 200_000)[::int(sys.argv[1])]
spec = KernelSpec(bandwidth=default_bandwidth(y.size, 1.0))
estimate_density(y, spec, grid)
estimate_density(y, spec, grid)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


#: five warm `ppe_coefficients` calls at level 3 (n = K_n = 2600); prints the
#: minor page faults they add
_WARM_FAULTS_SCRIPT = """
import resource
import numpy as np
from voldens.ppe import ppe_coefficients
y = np.random.default_rng(3).normal(-1.2, 2.0, 2600)
ppe_coefficients(y, 3, 2600)  # the table, its row spectra and the heap the FFTs reuse
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    ppe_coefficients(y, 3, 2600)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _run_script(script, *args):
    """stdout of `script` run by a fresh interpreter that imports this checkout's voldens."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(voldens.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_warm_lattice_means_map_no_fresh_pages():
    # the warm calls' FFT arrays reuse heap that the first call mapped: 0
    # faults for the five calls here, where mapping them afresh took 20,680
    assert int(_run_script(_WARM_FAULTS_SCRIPT)) < 200


#: the 8-point stencil's largest error reading sinc(x/2)^2 (band pi, max 1)
#: at 16 and 24 table steps per Nyquist step 1, over 20,000 points
STENCIL_ERROR = {16: 5.2e-11, 24: 2.1e-12}


@pytest.mark.parametrize("per_step", [16, 24])
def test_stencil_error_on_a_band_limited_function(per_step):
    # exact samples, so what is left is the stencil's own error: 3x the
    # measured maximum (the 4-point cubic: 2.3e-6 at 16 steps, 5.6e-9 at 72)
    dx = 1.0 / per_step
    grid = -40.0 + dx * np.arange(80 * per_step + 1)
    table = Table1D(-40.0, dx, np.sinc(grid / 2) ** 2)
    x = np.random.default_rng(0).uniform(-30.0, 30.0, 20_000)
    assert np.max(np.abs(table(x) - np.sinc(x / 2) ** 2)) <= 3 * STENCIL_ERROR[per_step]


class TestBlockedRead:
    def test_bit_identical_to_one_pass(self):
        rng = np.random.default_rng(12)
        table = Table1D(-30.0, 0.025, rng.normal(size=2401))
        x = np.sort(rng.uniform(-32.0, 32.0, 2 * READ_BLOCK + 123))
        assert np.array_equal(table(x), _unblocked_read(table, x))

    def test_fine_grid_peak_is_that_of_a_coarse_grid(self):
        # both processes hold the 200,000-point grid, so what differs is the
        # read's own working set: about 13 MiB more at 200,000 points when the
        # read was one pass; identical runs differ by about 0.3 MiB
        def peak_kib(every):
            return int(_run_script(_PEAK_RSS_SCRIPT, every))

        assert peak_kib(1) <= peak_kib(10) + 1024


def _real_rows(mom):
    """The real (C0, S1, C2, S3) of complex moments (C0, i S1, C2, i S3)."""
    return np.stack([mom[0].real, mom[1].imag, mom[2].real, mom[3].imag])


class TestOscMoments:
    @pytest.mark.parametrize("theta", [0.01, 0.3, 0.5, 2.0, 0.0, 1e-9, -0.49])
    def test_against_quadrature(self, theta):
        mom = _osc_moments(np.array([theta]))
        for k in range(4):
            trig = np.sin if k % 2 else np.cos
            want, _ = quad(lambda s: s ** k * trig(theta * s), -1, 1, epsabs=1e-14)
            assert mom[k, 0] == pytest.approx(want, abs=1e-12)

    def test_against_bessel_moments_on_the_near_branch(self):
        # the series against the spherical-Bessel oracle, at 3x the largest
        # difference measured on these 3999 points (8.9e-16)
        theta = np.linspace(-BRIDGE_NEAR_THETA, BRIDGE_NEAR_THETA, 4001)[1:-1]
        np.testing.assert_allclose(_osc_moments(theta), _real_rows(bessel_moments(theta)),
                                   rtol=0.0, atol=2.7e-15)


class TestBridgeTransform:
    THETA = np.array([0.0, 1e-9, -1e-9, 3.999, -3.999, 4.0, -4.0, 4.001, -4.001, 41.7, 1e3, 1e5])

    @pytest.mark.parametrize("s_max", [1.0, 3.0 * np.pi])
    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_matches_bessel_moments(self, s_max, seed):
        # both sides of the |theta| = 4 branch against the spherical-Bessel form,
        # for the Hermitian bridge b0 + b2 sigma^2 + i (b1 sigma + b3 sigma^3).
        # Both round at the size of their terms, which (s_max/pi) sum |beta_k|
        # bounds at every theta, while the value itself may cancel to far less.
        rng = np.random.default_rng(seed)
        beta = rng.normal(size=4)
        x = self.THETA / s_max
        c0, s1, c2, s3 = _real_rows(bessel_moments(s_max * x))
        expect = s_max / (2.0 * np.pi) * (beta[0] * c0 - beta[1] * s1 + beta[2] * c2
                                          - beta[3] * s3)
        got = _bridge_transform(beta, s_max, x)
        assert got.dtype == float
        bound = s_max / np.pi * np.sum(np.abs(beta))
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=4e-16 * bound + 1e-300)


def test_bridge_reads_the_u_spectrum_slope_at_its_band_edge():
    # the PPE bridge of level L matches u_L's spectrum 1/(phi_k sqrt(L)) at
    # pi L, where d(1/phi_k)/ds = -(1/phi_k) i (log 2 + digamma(1/2 + is)).
    # The cubic's value is p(1) = b0 + b2 + i (b1 + b3) and its slope
    # p'(1) / s_max = (2 b2 + i (b1 + 3 b3)) / s_max.  Bounds: 3x the largest
    # relative differences measured for L = 1..70, 1.09e-8 for the slope
    # (at L = 66, the samples' rounding over 2 EDGE_STEP) and 5.9e-14 for the
    # value (at L = 57, the rounding of b0 + b2 against the slope term)
    value, slope, ref_value, ref_slope = (np.empty(70, dtype=complex) for _ in range(4))
    for i, L in enumerate(range(1, 71)):
        band = u_band(L)
        b0, b1, b2, b3 = _bridge_coeffs(lambda s: band.spectrum(s, L), band.s_max)
        value[i], slope[i] = b0 + b2 + 1j * (b1 + b3), (2 * b2 + 1j * (b1 + 3 * b3)) / band.s_max
        s = np.pi * L
        ref_value[i] = inv_noise_charfn(s) / np.sqrt(L)
        ref_slope[i] = -ref_value[i] * 1j * (np.log(2.0) + special.digamma(0.5 + 1j * s))
    assert np.max(np.abs(slope - ref_slope) / np.abs(ref_slope)) < 3.3e-8
    assert np.max(np.abs(value - ref_value) / np.abs(ref_value)) < 1.8e-13


class TestFourierTable:
    def test_gaussian_spectrum_roundtrip(self):
        # q(s) = exp(-s^2/2) on a wide support: G is the standard normal pdf
        table = fourier_table(lambda s: np.exp(-s * s / 2) + 0j, s_max=12.0,
                              dx=0.01, x_half=8.0)
        xs = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(table(xs), np.exp(-xs ** 2 / 2) / np.sqrt(2 * np.pi),
                                   atol=1e-10)

    def test_dx_exact_mode_pins_step(self):
        # the table step is always exactly the requested dx
        table = fourier_table(lambda s: np.exp(-s * s / 2) + 0j, s_max=12.0,
                              dx=0.015625, x_half=8.0)
        assert table.dx == 0.015625

    def test_edge_correction_handles_jump_spectrum(self):
        # q = 1 on [-pi, pi]: G(x) = sin(pi x)/(pi x), whose 1/x Gibbs tails a
        # bare trapezoid-FFT aliases badly
        table = fourier_table(lambda s: np.ones_like(s) + 0j, s_max=np.pi,
                              dx=0.01, x_half=50.0, bridged=True)
        xs = np.array([-20.3, -4.0, -0.5, 0.0, 0.5, 1.0, 7.7, 40.1])
        np.testing.assert_allclose(table(xs), np.sinc(xs), atol=1e-8)


def test_oracle_rejects_non_hermitian_spectrum():
    with pytest.raises(DataError):
        fourier_quad(lambda s: np.exp(-((s - 0.5) ** 2)), 6.0, 0.3)


@pytest.mark.parametrize("build", [fourier_table, band_samples],
                         ids=["fourier_table", "band_samples"])
def test_non_finite_spectrum_rejected(build):
    # both builds sample through `_half_band`; the table's former realness
    # bound let NaN through (nan > bound is False)
    with pytest.raises(NumericsError):
        build(lambda s: np.where(s < 1.0, 1.0, np.nan) + 0j, s_max=2.0, dx=1.0, x_half=64.0)


def _frequencies_read(build, s_max, bridged):
    """The arrays of s at which `build` calls a spy spectrum, one per call, in call order."""
    calls = []

    def spy(s):
        calls.append(np.array(s))
        return np.cos(0.375 * s) ** 2 + 0j

    build(spy, s_max=s_max, dx=0.01, x_half=64.0, bridged=bridged)
    return calls


@pytest.mark.parametrize("build, bridged", [(fourier_table, False), (fourier_table, True),
                                            (band_samples, False)],
                         ids=["fourier_table", "bridged", "band_samples"])
def test_spectrum_read_on_its_half_band_only(build, bridged):
    # every Band spectrum is Hermitian, so no build needs it at s < 0 (nor
    # past s_max, where 1/phi_k may overflow); a bridged table's three edge
    # samples are reads too.  The second build puts s_max one ulp below the
    # first's top node (the node spacing is the first call's), which the
    # table keeps within its 1e-12 slack and reads at s_max itself.
    first = _frequencies_read(build, np.pi, bridged)
    edge = np.nextafter((first[0].size - 1) * first[0][1], 0.0)
    second = _frequencies_read(build, edge, bridged)
    first, second = np.concatenate(first), np.concatenate(second)
    for s, s_max in ((first, np.pi), (second, edge)):
        assert s.min() == 0.0 and s.max() <= s_max
    if build is fourier_table:
        assert second.max() == edge


def _estimator_lattice(name):
    """(points, table, step, j_lo, j_hi): `name`'s own table at its estimator's shifts.

    U_0 is the table the wavelet coefficients read before they took `band_lattice`.
    """
    y = np.random.default_rng(3).normal(-1.3, 2.2, 400)
    if name == "U_0":  # a U_0 table on the wavelet's integer shifts
        return y, um_band(0).table(float(np.max(np.abs(y))) + 20, fourier_table), 1.0, -20, 20
    if name.startswith("u_L"):  # PPE coefficients at level L
        L = int(name[3:])
        return y, u_zero_table(L, float(np.max(np.abs(y))) + 40 / L), 1.0 / L, -40, 40
    h = 0.4  # v_h: the kernel sums on the table lattice under a 512-point grid
    grid = uniform_grid(np.min(y) - 3 * h, np.max(y) + 3 * h, 512)
    table = deconv_kernel_table(h, max(grid[-1] - np.min(y), np.max(y) - grid[0]) / h)
    k_lo = math.floor(grid[0] / (h * TABLE_STEP)) - 4
    k_hi = math.ceil(grid[-1] / (h * TABLE_STEP)) + 4
    return k_lo * TABLE_STEP - y / h, table, TABLE_STEP, k_lo - k_hi, 0


def _fftconvolve_means(points, table, step, j_lo, j_hi, weights=None):
    """`lattice_means` with its correlation taken by `scipy.signal.fftconvolve`:
    tap m reads v[m - stride j], zero off the table."""
    v = table.values
    idx, taps = _stencil(table, points)
    if weights is not None:
        taps = taps * weights
    tgt = (idx + _TAPS[:, None]).ravel()
    binned = np.bincount(tgt - tgt.min(), taps.ravel())
    # corr[v.size - 1 + k] = sum_m binned[m] v[m - k], with m = tap - tgt.min()
    corr = fftconvolve(binned, v[::-1])
    k = v.size - 1 + round(step / table.dx) * np.arange(j_lo, j_hi + 1) - tgt.min()
    inside = (k >= 0) & (k < corr.size)
    return np.where(inside, corr[np.clip(k, 0, corr.size - 1)], 0.0) / points.size


#: `lattice_means` against `_fftconvolve_means`: the largest difference over
#: the cases below, relative to sum |w taps| max|v| / n, was 1.2e-16
FFTCONVOLVE_TOL = 3.5e-16


def _assert_agrees_with_fftconvolve(out, points, table, step, j_lo, j_hi, weights=None):
    ref = _fftconvolve_means(points, table, step, j_lo, j_hi, weights)
    taps = _stencil(table, points)[1] * (1.0 if weights is None else weights)
    scale = np.sum(np.abs(taps)) * np.max(np.abs(table.values)) / points.size
    assert np.max(np.abs(out - ref)) <= FFTCONVOLVE_TOL * scale


class TestLatticeMeans:
    def test_dense_and_fft_paths_agree(self):
        # the FFT correlation against the pointwise definition on a larger case
        rng = np.random.default_rng(0)
        grid = -50.0 + 0.0125 * np.arange(8001)
        table = Table1D(-50.0, 0.0125, np.exp(-(grid / 8.0) ** 2) * np.cos(grid))
        pts = rng.normal(0.0, 5.0, 300)
        fft = lattice_means(pts, table, step=1.0, j_lo=-20, j_hi=20)
        dense = [np.mean(table(pts - j)) for j in range(-20, 21)]
        np.testing.assert_allclose(fft, dense, rtol=1e-10, atol=1e-13)

    def test_weighted_means_match_pointwise_definition(self):
        rng = np.random.default_rng(1)
        grid = -50.0 + 0.0125 * np.arange(8001)
        table = Table1D(-50.0, 0.0125, np.exp(-(grid / 8.0) ** 2) * np.cos(grid))
        pts = rng.normal(0.0, 5.0, 300)
        w = rng.normal(2.0, 1.0, 300)
        fft = lattice_means(pts, table, step=1.0, j_lo=-20, j_hi=20,
                            weights=w)
        dense = [np.mean(w * table(pts - j)) for j in range(-20, 21)]
        np.testing.assert_allclose(fft, dense, rtol=1e-10, atol=1e-13)

    def test_matches_pointwise_definition(self):
        grid = -10.0 + 0.01 * np.arange(2001)
        table = Table1D(-10.0, 0.01, np.sin(grid) * np.exp(-np.abs(grid)))
        pts = np.array([0.3, -1.2, 4.4])
        out = lattice_means(pts, table, step=0.5, j_lo=-3, j_hi=3)
        expect = [np.mean(table(pts - 0.5 * j)) for j in range(-3, 4)]
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    @pytest.mark.parametrize("name, stride", [("U_0", 24), ("u_L1", 16), ("u_L3", 16),
                                              ("v_h", 1)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_estimator_tables_at_their_strides(self, name, stride, weighted):
        pts, table, step, j_lo, j_hi = _estimator_lattice(name)
        assert round(step / table.dx) == stride
        w = np.random.default_rng(4).normal(2.0, 1.0, pts.size) if weighted else 1.0
        fft = lattice_means(pts, table, step, j_lo, j_hi, weights=w if weighted else None)
        dense = [np.mean(w * table(pts - j * step)) for j in range(j_lo, j_hi + 1)]
        np.testing.assert_allclose(fft, dense, rtol=1e-10, atol=1e-13)

    def test_bit_identical_to_fftconvolve_on_random_tables(self):
        rng = np.random.default_rng(11)
        for case in range(200):
            size = int(np.exp(rng.uniform(np.log(8), np.log(20000))))
            dx = rng.uniform(0.001, 0.5)
            table = Table1D(-0.5 * size * dx, dx, rng.normal(size=size))
            stride = int(rng.integers(1, 101))
            reach = (table.values.size - 1) // stride
            j_lo = int(rng.integers(-reach, reach + 1))
            j_hi = int(rng.integers(j_lo, reach + 1))
            pts = rng.uniform(-0.6, 0.6, int(rng.integers(1, 500))) * size * dx
            w = rng.normal(size=pts.size) if case % 2 else None
            out = lattice_means(pts, table, stride * dx, j_lo, j_hi, weights=w)
            _assert_agrees_with_fftconvolve(out, pts, table, stride * dx, j_lo, j_hi, w)

    @pytest.mark.parametrize("name", ["U_0", "u_L1", "u_L3", "v_h"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_fftconvolve_at_estimator_strides(self, name, weighted):
        pts, table, step, j_lo, j_hi = _estimator_lattice(name)
        w = np.random.default_rng(4).normal(2.0, 1.0, pts.size) if weighted else None
        out = lattice_means(pts, table, step, j_lo, j_hi, weights=w)
        _assert_agrees_with_fftconvolve(out, pts, table, step, j_lo, j_hi, w)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_correlation_spectrum_cached_per_table(self, weighted):
        # each (stride, length) gets its row spectra once: a call at another
        # stride adds its own, and a repeat of the first call reuses the first's
        rng = np.random.default_rng(5)
        table = Table1D(-40.0, 0.05, rng.normal(size=1601))
        assert table.corr_spectrum == {}
        calls = [(rng.uniform(-20.0, 20.0, 300), 1.0, -15, 15),
                 (rng.uniform(-5.0, 5.0, 50), 0.25, -60, 3)]
        for k, (pts, step, j_lo, j_hi) in enumerate(calls):
            w = rng.normal(size=pts.size) if weighted else None
            out = lattice_means(pts, table, step, j_lo, j_hi, weights=w)
            _assert_agrees_with_fftconvolve(out, pts, table, step, j_lo, j_hi, w)
            assert len(table.corr_spectrum) == k + 1
            if k == 0:
                (key, spectrum), = table.corr_spectrum.items()
        assert table.corr_spectrum[key] is spectrum
        pts, step, j_lo, j_hi = calls[0]
        lattice_means(pts, table, step, j_lo, j_hi)
        assert len(table.corr_spectrum) == 2 and table.corr_spectrum[key] is spectrum

    def test_shifts_off_the_table_on_both_sides_do_not_alias(self):
        # stride 50: the table's rows are nu = 41 long, but u - j spans
        # [-30, 70], more than a row-length FFT (45) could hold apart.  The
        # table ends in zeros, as production tables decay
        rng = np.random.default_rng(7)
        table = Table1D(-10.0, 0.01, np.pad(rng.normal(size=1985), 8))
        pts = np.concatenate([[-9.9, 9.9], rng.uniform(-10.0, 10.0, 200)])
        w = rng.normal(size=pts.size)
        rows = (_stencil(table, pts)[0] + _TAPS[:, None]) // 50
        nu = -(-table.values.size // 50)
        assert rows.min() - 30 < 0 and rows.max() + 30 >= nu
        assert rows.max() - rows.min() + 61 > _fast_len(nu)
        out = lattice_means(pts, table, 0.5, -30, 30, weights=w)
        dense = [np.mean(w * table(pts - 0.5 * j)) for j in range(-30, 31)]
        np.testing.assert_allclose(out, dense, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("stride", [1, 50])
    def test_taps_off_the_table_read_zero_in_both_reads(self, stride):
        # one rule for `Table1D` and the lattice: a tap off the zero-padded
        # array reads 0, a tap on it its value.  The tables do not end in
        # zeros, so points within four steps outside them read their edge
        # values; `Table1D(0.0, 1.0, np.ones(16))` once read 0.0 at -1.5
        # where the lattice gave -0.0625
        rng = np.random.default_rng(8)
        values = np.ones(16) if stride == 1 else 1.0 + rng.uniform(size=400)
        table = Table1D(0.0, 1.0, values)
        top = values.size - 1.0
        pts = np.array([-1.5, -0.3, -3.7, -4.2, -9.5, 7.25, top + 0.4, top + 2.5, top + 3.9])
        w = rng.normal(size=pts.size)
        reach = (table.values.size - 1) // stride
        out = lattice_means(pts, table, float(stride), -reach, reach, weights=w)
        dense = [np.mean(w * table(pts - j * stride)) for j in range(-reach, reach + 1)]
        assert table(-1.5) != 0.0 and table(top + 3.9) != 0.0
        np.testing.assert_allclose(out, dense, rtol=1e-10, atol=1e-13)

    def test_every_tap_off_the_table_gives_zeros(self):
        table = Table1D(-10.0, 0.01, np.ones(2001))
        out = lattice_means(np.array([-40.0, 25.0, 60.0]), table, 0.5, -5, 7)
        assert np.array_equal(out, np.zeros(13))

    def test_production_row_spectra_take_8_bytes_per_row_point(self):
        # the PPE table at L = 3, n = K_n = 2600 (TABLE_STRIDE table steps per
        # shift): F // 2 + 1 complex values per row, 8 bytes per point of the
        # stride x F rows; F rounds nu = 6145 up to 6250, so 8.14 bytes per
        # table point, where the full-length spectrum took 16.02
        y = np.random.default_rng(3).normal(-1.2, 2.0, 2600)
        ppe_coefficients(y, 3, 2600)
        table = u_zero_table(3, float(np.max(np.abs(y))) + 2600 / 3)
        nu = -(-table.values.size // TABLE_STRIDE)
        spectra = table.corr_spectrum[TABLE_STRIDE, _fast_len(nu)]
        assert spectra.nbytes <= 8 * TABLE_STRIDE * _fast_len(nu) + 16 * TABLE_STRIDE
        assert spectra.nbytes <= 8.2 * table.values.size

    def test_step_misaligned_with_table_rejected(self):
        table = Table1D(0.0, 0.1, np.ones(32))
        with pytest.raises(ValueError):
            lattice_means(np.array([1.0]), table, step=0.35, j_lo=0, j_hi=1)

    def test_expansion_is_the_adjoint_of_the_means(self):
        # sum_i w_i expansion(c)_i = n sum_j c_j means(w)_j on the same points
        rng = np.random.default_rng(2)
        grid = -50.0 + 0.0125 * np.arange(8001)
        table = Table1D(-50.0, 0.0125, np.exp(-(grid / 8.0) ** 2) * np.cos(grid))
        pts = rng.uniform(-20.0, 20.0, 300)
        w = rng.normal(size=300)
        c = rng.normal(size=41)
        lhs = w @ lattice_expansion(pts, table, 0.5, c)
        rhs = pts.size * (c @ lattice_means(pts, table, 0.5, -20, 20, weights=w))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_expansion_table_must_cover_the_shifts(self):
        grid = -10.0 + 0.01 * np.arange(2001)
        table = Table1D(-10.0, 0.01, np.sin(grid) * np.exp(-np.abs(grid)))
        pts = np.array([0.3, -1.2, 4.4])
        lattice_expansion(pts, table, 0.5, np.ones(9))
        with pytest.raises(ValueError):
            lattice_expansion(pts, table, 0.5, np.ones(41))


def test_fast_len_is_scipys_next_fast_len():
    from scipy.fft import next_fast_len

    sizes = [*range(1, 5000), *np.random.default_rng(6).integers(5000, 2 ** 31, 2000).tolist()]
    assert [_fast_len(n) for n in sizes] == [next_fast_len(n, True) for n in sizes]


def test_range_bucket():
    assert range_bucket(10.0) == 64.0
    assert range_bucket(513.0) == 1024.0
    assert range_bucket(512.0) == 512.0


# Every tabulated family against its quadrature oracle, over the ranges its
# estimator reads.  rtol is relative to max |oracle| and is three times the
# error measured when the case was added (U_3 last, so the seeds of the
# others stay as they were; the v_h bounds since v_h took its step TABLE_STEP).
ORACLE_SWEEP = [
    ("v_h0.2", kernel_band(0.2), -25.0, 25.0, 9.1e-9),
    ("v_h0.4", kernel_band(0.4), -25.0, 25.0, 1.3e-9),
    ("v_h0.9", kernel_band(0.9), -25.0, 25.0, 7.2e-10),
    ("U_0", um_band(0), -5.0, 8.0, 6.4e-8),
    ("U_1", um_band(1), -5.0, 8.0, 7.0e-8),
    ("U_2", um_band(2), -5.0, 8.0, 9.1e-8),
    ("phi", SCALING_BAND, -5.0, 8.0, 3.0e-8),
    *((f"u_L{L}", u_band(L), -9.0, 20.0, rtol) for L, rtol in enumerate(
        (1.6e-7, 2.0e-7, 1.4e-7, 1.2e-7, 2.8e-7, 4.6e-7, 4.4e-7, 5.4e-7, 7.6e-7), start=1)),
    ("U_3", um_band(3), -5.0, 8.0, 1.3e-6),
]


#: every production spectrum: v_h at five bandwidths, phi, U_0..U_3 and u_L for L = 1..70
PRODUCTION_BANDS = {
    **{f"v_h{h:.3g}": kernel_band(h) for h in (MIN_BANDWIDTH, 0.05, 0.27, 0.9, 2.0)},
    "phi": SCALING_BAND,
    **{f"U_{m}": um_band(m) for m in range(4)},
    **{f"u_L{L}": u_band(L) for L in range(1, 71)},
}


@pytest.mark.parametrize("name", PRODUCTION_BANDS)
def test_production_spectrum_is_hermitian_bit_for_bit(name):
    # the premise of reading [0, s_max] only: q(-s) = conj(q(s)) exactly
    band = PRODUCTION_BANDS[name]
    s = np.linspace(0.0, band.s_max, 20_001)
    assert np.array_equal(band.spectrum(-s, band.param), np.conj(band.spectrum(s, band.param)))


class TestBand:
    @pytest.mark.parametrize("case", range(len(ORACLE_SWEEP)),
                             ids=[name for name, *_ in ORACLE_SWEEP])
    def test_table_matches_oracle(self, case):
        _, band, lo, hi, rtol = ORACLE_SWEEP[case]
        # one point in each eighth of [lo, hi], seeded by the case: the range
        # is covered, and no point sits on the table lattice
        u = np.random.default_rng(case).uniform(size=8)
        xs = lo + (hi - lo) * (np.arange(8) + u) / 8
        oracle = band_quad(band, xs)
        table = band.table(max(-lo, hi), fourier_table)
        assert np.max(np.abs(table(xs) - oracle)) <= rtol * np.max(np.abs(oracle))

    def test_one_cache_keyed_on_band_bucket_and_build(self):
        r = 40.0

        def u0(extent):
            return um_band(0).table(extent, fourier_table)

        assert u0(r) is u0(r)
        assert u0(r) is not scaling_table(r)
        assert u_zero_table(1, r) is not u_zero_table(2, r)
        v = deconv_kernel_table(0.4, r)
        assert v is deconv_kernel_table(0.4, 1.0) and v.dx == TABLE_STEP
        assert v is not deconv_kernel_table(0.9, r)
        # extents up to 64 - GUARD share the 64 bucket; beyond it they need 128
        edge = 64.0 - GUARD
        assert u0(1.0) is u0(edge)
        above = u0(edge + 1e-9)
        assert above is not u0(edge)
        assert above.grid()[-1] > 127.0 > u0(edge).grid()[-1]
        # the wavelet's spectrum samples share that cache, keyed on their own build
        assert um_table(0, r) is um_table(0, edge) is not u0(r)
        assert um_table(0, edge + 1e-9) is not um_table(0, edge)


class TestBandLattice:
    def test_ecf_matches_direct_sums(self):
        # the Gaussian-gridding NUFFT against the sums it replaces, over more
        # points than one spreading block and out to |points| = P/2
        rng = np.random.default_rng(9)
        size = 4096
        pts = np.concatenate([rng.normal(0.0, 40.0, 9000), [-size / 2, size / 2 - 0.3]])
        k = np.arange(0, size, 37)
        direct = np.exp(2j * np.pi * np.outer(k, pts) / size).mean(axis=1)
        np.testing.assert_allclose(_ecf(pts, size)[k], direct, rtol=0.0, atol=1e-12)

    # 3x the error against quadrature measured with phi~ in closed form, on
    # the sample as given and translated so that |points| + |j| + GUARD sits
    # just under P/4, the nearest the periodic images may come
    @pytest.mark.parametrize("m", range(4))
    def test_matches_quadrature_sums(self, m):
        rtol = (2.4e-12, 1.3e-11, 6.1e-11, 5.3e-10)[m]
        pts = 2.0 ** m * np.array([-1.3, 0.45])
        js = np.arange(-2, 3)
        oracle = np.array([band_quad(um_band(m), pts - j).mean() for j in js])
        shift = BAND_NODES // 8 - 8
        for off in (0, shift):
            samples = um_table(m, np.max(np.abs(pts + off)) + off + 2)
            assert samples.size == BAND_NODES
            got = band_lattice(samples, pts + off, off - 2, off + 2)
            assert np.max(np.abs(got - oracle)) <= rtol * np.max(np.abs(oracle)), off
        reach = shift + 2 + np.ceil(np.max(np.abs(pts + shift))) + GUARD
        assert BAND_NODES - 4 * reach < 32

    def test_samples_must_cover_the_shifts(self):
        samples = band_samples(lambda s: np.cos(0.375 * s) ** 2 + 0j, s_max=4.0 / 3.0 * np.pi,
                               dx=1.0, x_half=64.0)
        # nodes 2 pi k / P run to the band edge 4 pi / 3 at k = 2P/3, past Nyquist
        top = 2 * BAND_NODES // 3
        assert samples.size == BAND_NODES and samples[top] != 0.0
        assert np.all(samples[top + 1:] == 0.0)
        band_lattice(samples, np.array([0.5, -3.0]), -100, 100)
        with pytest.raises(ValueError):
            band_lattice(samples, np.array([0.5, -3.0]), 0, BAND_NODES // 4)

    def test_bridged_spectrum_refused(self):
        with pytest.raises(ValueError):
            band_samples(lambda s: np.ones_like(s) + 0j, s_max=2.0, dx=1.0, x_half=64.0,
                         bridged=True)
