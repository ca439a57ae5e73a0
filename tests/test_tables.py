"""Tests for the shared table/FFT infrastructure."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import fftconvolve

from voldens._tables import (_TAPS, GUARD, Table1D, _osc_moments, _stencil, fourier_quad,
                             fourier_table, lattice_expansion, lattice_means, range_bucket)
from voldens.errors import DataError, NumericsError
from voldens.grids import uniform_grid, uniform_step
from voldens.kerneldeconv import TABLE_STEP, deconv_kernel_table, kernel_band, kernel_table_request
from voldens.ppe import u_band, u_zero_table
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


class TestOscMoments:
    @pytest.mark.parametrize("theta", [0.01, 0.3, 0.5, 2.0, 41.7, 0.0, 1e-9, -0.49, -7.3])
    def test_against_quadrature(self, theta):
        mom = _osc_moments(np.array([theta]))
        for k in range(4):
            re, _ = quad(lambda s: s ** k * np.cos(theta * s), -1, 1, epsabs=1e-14)
            im, _ = quad(lambda s: s ** k * np.sin(theta * s), -1, 1, epsabs=1e-14)
            assert mom[k, 0] == pytest.approx(re + 1j * im, abs=1e-12)


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
        edges = (1.0 + 0j, 0.0 + 0j, 1.0 + 0j, 0.0 + 0j)
        table = fourier_table(lambda s: np.ones_like(s) + 0j, s_max=np.pi,
                              dx=0.01, x_half=50.0, edge_derivatives=edges)
        xs = np.array([-20.3, -4.0, -0.5, 0.0, 0.5, 1.0, 7.7, 40.1])
        np.testing.assert_allclose(table(xs), np.sinc(xs), atol=1e-8)

    def test_non_hermitian_spectrum_rejected(self):
        with pytest.raises(NumericsError):
            fourier_table(lambda s: np.exp(-((s - 0.5) ** 2)) + 0j, s_max=6.0,
                          dx=0.02, x_half=8.0)


def test_oracle_rejects_non_hermitian_spectrum():
    with pytest.raises(DataError):
        fourier_quad(lambda s: np.exp(-((s - 0.5) ** 2)), 6.0, 0.3)


def _estimator_lattice(name):
    """(points, table, step, j_lo, j_hi): `name`'s own table, read as its estimator reads it."""
    y = np.random.default_rng(3).normal(-1.3, 2.2, 400)
    if name == "U_0":  # wavelet coefficients, m = 0
        return y, um_table(0, float(np.max(np.abs(y))) + 20), 1.0, -20, 20
    if name.startswith("u_L"):  # PPE coefficients at level L
        L = int(name[3:])
        return y, u_zero_table(L, float(np.max(np.abs(y))) + 40 / L), 1.0 / L, -40, 40
    h = 0.4  # v_h: the kernel sums on a 512-point grid
    grid = uniform_grid(np.min(y) - 3 * h, np.max(y) + 3 * h, 512)
    table = deconv_kernel_table(h, *kernel_table_request(y, grid, h))
    return (grid[0] - y) / h, table, uniform_step(grid) / h, 1 - grid.size, 0


def _fftconvolve_means(points, table, step, j_lo, j_hi, weights=None):
    """`lattice_means` with its correlation taken by `scipy.signal.fftconvolve`."""
    v = table.values
    idx, taps = _stencil(table, points)
    if weights is not None:
        taps = taps * weights
    tgt = (idx + _TAPS[:, None]).ravel()
    ok = (tgt >= 0) & (tgt < v.size)
    binned = np.bincount(tgt[ok], taps.ravel()[ok], minlength=v.size)
    corr = fftconvolve(binned, v[::-1])
    return corr[v.size - 1 + round(step / table.dx) * np.arange(j_lo, j_hi + 1)] / points.size


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

    @pytest.mark.parametrize("name, stride", [("U_0", 96), ("u_L1", 72), ("u_L3", 72),
                                              ("v_h", 2)])
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
            ref = _fftconvolve_means(pts, table, stride * dx, j_lo, j_hi, weights=w)
            assert np.array_equal(out, ref), (case, size, stride)

    @pytest.mark.parametrize("name", ["U_0", "u_L1", "u_L3", "v_h"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_fftconvolve_at_estimator_strides(self, name, weighted):
        pts, table, step, j_lo, j_hi = _estimator_lattice(name)
        w = np.random.default_rng(4).normal(2.0, 1.0, pts.size) if weighted else None
        assert np.array_equal(lattice_means(pts, table, step, j_lo, j_hi, weights=w),
                              _fftconvolve_means(pts, table, step, j_lo, j_hi, weights=w))

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


def test_range_bucket():
    assert range_bucket(10.0) == 64.0
    assert range_bucket(513.0) == 1024.0
    assert range_bucket(512.0) == 512.0


# Every tabulated family against its quadrature oracle, over the ranges its
# estimator reads.  rtol is relative to max |oracle| and is three times the
# error measured when the case was added (U_3 last, so the seeds of the
# others stay as they were).
ORACLE_SWEEP = [
    ("v_h0.2", kernel_band(0.2), -25.0, 25.0, 1.2e-7),
    ("v_h0.4", kernel_band(0.4), -25.0, 25.0, 3.9e-8),
    ("v_h0.9", kernel_band(0.9), -25.0, 25.0, 2.0e-8),
    ("U_0", um_band(0), -5.0, 8.0, 6.4e-8),
    ("U_1", um_band(1), -5.0, 8.0, 7.0e-8),
    ("U_2", um_band(2), -5.0, 8.0, 9.1e-8),
    ("phi", SCALING_BAND, -5.0, 8.0, 3.0e-8),
    *((f"u_L{L}", u_band(L), -9.0, 20.0, rtol) for L, rtol in enumerate(
        (1.6e-7, 2.0e-7, 1.4e-7, 1.2e-7, 2.8e-7, 4.6e-7, 4.4e-7, 5.4e-7, 7.6e-7), start=1)),
    ("U_3", um_band(3), -5.0, 8.0, 1.3e-6),
]


class TestBand:
    @pytest.mark.parametrize("case", range(len(ORACLE_SWEEP)),
                             ids=[name for name, *_ in ORACLE_SWEEP])
    def test_table_matches_oracle(self, case):
        _, band, lo, hi, rtol = ORACLE_SWEEP[case]
        # one point in each eighth of [lo, hi], seeded by the case: the range
        # is covered, and no point sits on the table lattice
        u = np.random.default_rng(case).uniform(size=8)
        xs = lo + (hi - lo) * (np.arange(8) + u) / 8
        oracle = band.quad(xs)
        table = band.table(max(-lo, hi), fourier_table)
        assert np.max(np.abs(table(xs) - oracle)) <= rtol * np.max(np.abs(oracle))

    def test_one_cache_keyed_on_band_bucket_and_build(self):
        r = 40.0
        assert um_table(0, r) is um_table(0, r)
        assert um_table(0, r) is not scaling_table(r)
        assert u_zero_table(1, r) is not u_zero_table(2, r)
        v = deconv_kernel_table(0.4, r)
        assert v is not deconv_kernel_table(0.4, r, TABLE_STEP / 2)
        assert v is not deconv_kernel_table(0.9, r)
        # extents up to 64 - GUARD share the 64 bucket; beyond it they need 128
        edge = 64.0 - GUARD
        assert um_table(0, 1.0) is um_table(0, edge)
        above = um_table(0, edge + 1e-9)
        assert above is not um_table(0, edge)
        assert above.grid()[-1] > 127.0 > um_table(0, edge).grid()[-1]
