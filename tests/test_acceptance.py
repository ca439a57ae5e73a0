"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Every tolerance here is pinned; the Monte Carlo checks run on fixed seed
sets that were chosen before the outcomes were inspected.  Run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines as they complete.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from reference import regression_residual_field, simulate_discrete_ar, sinc_basis, u_basis
from voldens.grids import DensityGrid
from voldens.kerneldeconv import estimate_density, wand_charfn, wand_kernel
from voldens.metrics import (PureConvolution, default_evaluation_grid, mise,
                             mode_count)
from voldens.noisemodel import noise_charfn
from voldens.ppe import phi_k_integral, render_sinc_expansion, select_and_estimate
from voldens.svsim import (ArParams, OuParams, RegimeSwitchParams, ScenarioConfig,
                           invariant_density, simulate_scenario)
from voldens.volreg import regression_estimate
from voldens.waveletdeconv import wavelet_coefficients, wavelet_estimate


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --------------------------------------------------------------------- 1

def test_criterion_01_noise_identity():
    start = time.time()
    t = np.arange(0.0, 10.0 + 1e-12, 0.01)
    dev = np.max(np.abs(np.abs(noise_charfn(t)) ** 2 - 1.0 / np.cosh(np.pi * t)))
    asym_target = np.sqrt(2.0) * np.exp(-10.0 * np.pi)
    asym_rel = abs(abs(noise_charfn(20.0)) - asym_target) / asym_target
    elapsed = time.time() - start
    ok = dev < 1e-10 and asym_rel < 0.01 and elapsed < 1.0
    _report("criterion 1 (noise identity)", ok,
            f"max | |phi_k|^2 - sech | = {dev:.2e} (< 1e-10), "
            f"asymptote rel dev at s=20 = {asym_rel:.2e} (< 1e-2), "
            f"elapsed {elapsed:.2f}s (< 1s)")


# --------------------------------------------------------------------- 2

def test_criterion_02_kernel_constants():
    start = time.time()
    # int w over R: smooth core plus the four oscillatory tail components
    # (w = [48x^3 cos - 720x cos - 288x^2 sin + 720 sin] / (pi x^7)) handled
    # by weighted infinite-range quadrature
    x1 = 5.0
    core = quad(lambda u: float(wand_kernel(u)), 0.0, x1, epsabs=1e-13,
                epsrel=1e-12, limit=200)[0]
    tails = 0.0
    for f, wgt in (
        (lambda u: 48 / (np.pi * u ** 4), "cos"),
        (lambda u: -720 / (np.pi * u ** 6), "cos"),
        (lambda u: -288 / (np.pi * u ** 5), "sin"),
        (lambda u: 720 / (np.pi * u ** 7), "sin"),
    ):
        tails += quad(f, x1, np.inf, weight=wgt, wvar=1.0)[0]
    total = 2.0 * (core + tails)

    core2 = quad(lambda u: u * u * float(wand_kernel(u)), 0.0, x1, epsabs=1e-13,
                 epsrel=1e-12, limit=200)[0]
    tails2 = 0.0
    for f, wgt in (
        (lambda u: 48 / (np.pi * u ** 2), "cos"),
        (lambda u: -720 / (np.pi * u ** 4), "cos"),
        (lambda u: -288 / (np.pi * u ** 3), "sin"),
        (lambda u: 720 / (np.pi * u ** 5), "sin"),
    ):
        tails2 += quad(f, x1, np.inf, weight=wgt, wvar=1.0)[0]
    second_moment = 2.0 * (core2 + tails2)

    s = 1e-3
    boundary_ratio = wand_charfn(1.0 - s) / s ** 3
    elapsed = time.time() - start
    ok = (abs(total - 1.0) < 1e-8 and abs(second_moment - 6.0) < 1e-6
          and abs(boundary_ratio - 8.0) / 8.0 < 0.01 and elapsed < 1.0)
    _report("criterion 2 (kernel constants)", ok,
            f"int w - 1 = {total - 1:.2e} (< 1e-8), "
            f"int u^2 w - 6 = {second_moment - 6:.2e} (< 1e-6), "
            f"phi_w(1-s)/s^3 = {boundary_ratio:.4f} (8 +- 1%), "
            f"elapsed {elapsed:.2f}s (< 1s)")


# --------------------------------------------------------------------- 3

def test_criterion_03_bias_expansion():
    # Second-order bias of the kernel estimator (Fan 1991):
    # E f_nh(x) - f(x) = (h^2/2) f''(x) int u^2 w(u) du + o(h^2), and for
    # xi ~ N(0,1) with int u^2 w = 6 the h^2 term at the mode is -3 h^2 f(0).
    # The estimator is linear in the data, so its exact expectation is
    # E f_nh(0) = (1/2pi) int_{|t|<1/h} (1 - t^2 h^2)^3 e^{-t^2/2} dt.
    #
    # The check once ran at h = 0.75, which no estimator can pass: the
    # integrand above is positive, so E f_nh(0) > 0 for every h, while a mean
    # bias within 25% of -3 h^2 f(0) = -0.67322 needs E f_nh(0) <= -0.106.
    # The exact bias there is -0.22200, a third of the h^2 term; h = 0.75 is
    # outside the range where the expansion describes the estimator.
    #
    # Quadrature puts the exact bias at 0.53, 0.77, 0.83 and 0.97 of the h^2
    # term for h = 0.5, 0.3, 0.25 and 0.1, so h = 0.25 is within the 25%
    # tolerance with a margin; the check re-derives that by quadrature.  The
    # standard error of the 200-replication mean shrinks as 1/sqrt(n): at
    # h = 0.25 it is about 3.5% of the target for n = 2000 and about 1.2% for
    # n = 2e4, small beside the 17% gap between the exact bias and the h^2
    # term.  The check also holds the Monte Carlo mean to the exact
    # expectation, so the report says whether the expansion or the estimator
    # is off.
    h, n = 0.25, 20_000
    f0 = 1.0 / np.sqrt(2.0 * np.pi)
    target = -3.0 * h * h * f0  # (h^2/2) f''(0) * 6
    exact, _ = quad(lambda t: (1 - (t * h) ** 2) ** 3 * np.exp(-t * t / 2)
                    / (2 * np.pi), -1 / h, 1 / h, epsabs=1e-13)
    exact_bias = exact - f0
    exact_dev = abs(exact_bias - target) / abs(target)

    biases = []
    for rep in range(200):
        pc = PureConvolution(0.0, 1.0, n, seed=31000 + rep)
        est = estimate_density(pc.draw(), h, np.array([-1.0, 0.0, 1.0]))
        biases.append(est.density.values[1] - f0)
    biases = np.array(biases)
    mean_bias = float(biases.mean())
    se = float(biases.std(ddof=1) / np.sqrt(biases.size))
    z = (mean_bias - exact_bias) / se
    rel_dev = abs(mean_bias - target) / abs(target)
    ok = exact_dev < 0.25 and abs(z) < 4.0 and rel_dev < 0.25
    _report("criterion 3 (bias expansion)", ok,
            f"h={h}, n={n}: h^2 target {target:.5f}; exact bias "
            f"{exact_bias:.5f} (quadrature), {exact_dev:.1%} off the target "
            f"(< 25%: the expansion holds at this h); Monte Carlo mean bias "
            f"{mean_bias:.5f} +- {se:.5f} (SE), {z:+.2f} SE from the exact "
            f"bias (|z| < 4: the estimator matches its expectation), "
            f"{rel_dev:.1%} off the target (< 25% required)")


# --------------------------------------------------------------------- 4

def test_criterion_04_invariant_density_oracles():
    grid = np.linspace(-5.0, 5.0, 2001)
    ou = invariant_density(lambda x: -0.5 * x, lambda x: 1.0, 0.0, grid)
    ou_dev = float(np.max(np.abs(ou.values - np.exp(-grid ** 2 / 2)
                                 / np.sqrt(2 * np.pi))))

    # CIR-type coefficients b(x) = kappa (theta - x), a(x) = c sqrt(x):
    # symbolic integration of the scale formula gives
    # Gamma(shape = 2 kappa theta / c^2, rate = 2 kappa / c^2)
    kappa, theta, c = 2.0, 1.5, 1.0
    shape, rate = 2 * kappa * theta / c ** 2, 2 * kappa / c ** 2
    pgrid = np.linspace(0.05, 8.0, 2001)
    cir = invariant_density(lambda x: kappa * (theta - x),
                            lambda x: c * np.sqrt(x), theta, pgrid)
    cir_dev = float(np.max(np.abs(cir.values
                                  - gamma_dist(a=shape, scale=1 / rate).pdf(pgrid))))
    ok = ou_dev < 1e-6 and cir_dev < 1e-5
    _report("criterion 4 (invariant density oracles)", ok,
            f"OU vs N(0,1) sup = {ou_dev:.2e} (< 1e-6), "
            f"CIR vs Gamma({shape:g}, rate {rate:g}) sup = {cir_dev:.2e} (< 1e-5)")


# --------------------------------------------------------------------- 5

def test_criterion_05_bimodality_detection():
    n, reps = 5000, 20
    params = RegimeSwitchParams(
        regime0=OuParams(2.0, -2.0, 1.0),   # stationary sd 0.5 around -2
        regime1=OuParams(2.0, 2.0, 1.0),    # stationary sd 0.5 around +2
        rate_01=0.2, rate_10=0.2)
    hits = 0
    for rep in range(reps):
        sc = ScenarioConfig("regime-switch-exp", params, delta=0.05, n=n,
                            substeps=16, vol_seed=5000 + 2 * rep,
                            price_seed=5001 + 2 * rep)
        series, _ = simulate_scenario(sc)
        est = estimate_density(series.log_squared, 0.35)
        hits += mode_count(est.density, prominence=0.05) == 2
    ok = hits >= int(np.ceil(0.9 * reps))
    _report("criterion 5 (bimodality detection)", ok,
            f"mode_count == 2 in {hits}/{reps} replications (>= 18 required)")


# --------------------------------------------------------------------- 6

@pytest.mark.slow
def test_criterion_06_wavelet_coefficients_unbiased():
    reps, n = 500, 1000
    levels = (0, 1)
    ls = range(-3, 4)

    def coefficient_truth(m, l):
        # a_{m,l} = <phi_{m,l}, g> for g = N(0,1), by frequency-domain
        # quadrature (independent of the x-space estimation route)
        from voldens.waveletdeconv import meyer_scaling_fourier
        scale = 2.0 ** m
        val, _ = quad(lambda w: meyer_scaling_fourier(w / scale)
                      * np.cos(w * l / scale) * np.exp(-w * w / 2),
                      0, scale * 4 * np.pi / 3, limit=400)
        return val * (2.0 ** (-m / 2.0)) / np.pi

    draws = {m: np.empty((reps, 7)) for m in levels}
    for rep in range(reps):
        pc = PureConvolution(0.0, 1.0, n, seed=6000 + rep)
        y = pc.draw()
        for m in levels:
            draws[m][rep] = wavelet_coefficients(y, m, 3)

    worst = 0.0
    detail = []
    ok = True
    for m in levels:
        for i, l in enumerate(ls):
            vals = draws[m][:, i]
            se = vals.std(ddof=1) / np.sqrt(reps)
            z = abs(vals.mean() - coefficient_truth(m, l)) / se
            worst = max(worst, z)
            if z >= 3.0:
                ok = False
                detail.append(f"(m={m}, l={l}): z={z:.2f}")
    _report("criterion 6 (wavelet coefficients unbiased)", ok,
            f"max |z| over m in {{0,1}}, |l| <= 3 is {worst:.2f} (< 3 MC SEs)"
            + (f"; violations: {detail}" if detail else ""))


# --------------------------------------------------------------------- 7

@pytest.mark.slow
def test_criterion_07_wavelet_mise_direction():
    reps = 20
    results = {100: [], 10_000: []}
    for rep in range(reps):
        for n in results:
            pc = PureConvolution(0.0, 1.0, n, seed=7000 + rep)
            grid = default_evaluation_grid(pc)
            truth = DensityGrid(grid, pc.truth(grid), signed=False)
            est = wavelet_estimate(pc.draw(), grid=grid)
            results[n].append(mise(est.density, truth))
    med_small = float(np.median(results[100]))
    med_big = float(np.median(results[10_000]))
    ratio = med_big / med_small
    wins = int(np.sum(np.array(results[10_000]) < np.array(results[100])))
    ok = med_big < med_small and ratio <= 0.7 and wins >= int(np.ceil(0.8 * reps))
    _report("criterion 7 (wavelet MISE direction)", ok,
            f"median MISE at n=1e4 is {med_big:.4f} vs {med_small:.4f} at n=1e2, "
            f"ratio {ratio:.4f} (<= 0.7 required), per-seed wins {wins}/{reps}")


# --------------------------------------------------------------------- 8

def test_criterion_08_ppe_contrast_identity():
    # E gamma_n(h) = ||h - g||^2 - ||g||^2 for the fixed element h = psi_{2,0}
    inner, _ = quad(lambda x: sinc_basis(2, 0, x) * np.exp(-x * x / 2)
                    / np.sqrt(2 * np.pi), -40, 40, limit=800)
    target = 1.0 - 2.0 * inner  # ||h||^2 = 1 and the cross term
    reps, n = 500, 500
    vals = []
    for rep in range(reps):
        pc = PureConvolution(0.0, 1.0, n, seed=8000 + rep)
        vals.append(1.0 - 2.0 * float(np.mean(u_basis(pc.draw(), 2, 0))))
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(reps)
    z = abs(vals.mean() - target) / se

    quad_rel = 0.0
    for L in range(1, 6):
        q, _ = quad(lambda s: np.cosh(np.pi * s), -np.pi * L, np.pi * L,
                    epsrel=1e-12, limit=400)
        quad_rel = max(quad_rel, abs(phi_k_integral(L) - q) / q)
    ok = z < 3.0 and quad_rel < 1e-8
    _report("criterion 8 (ppe contrast identity)", ok,
            f"E gamma_n(psi_2,0): z = {z:.2f} (< 3 MC SEs, target {target:.5f}), "
            f"Phi_k closed vs quadrature rel = {quad_rel:.2e} (< 1e-8, L <= 5)")


# --------------------------------------------------------------------- 9

@pytest.mark.slow
def test_criterion_09_ppe_adaptive_selection():
    reps, n = 20, 10_000
    wins = 0
    level_ok = True
    worst_ratio = 0.0
    l_max = int(np.floor(np.log(n)))
    for rep in range(reps):
        pc = PureConvolution(0.0, 1.0, n, seed=9100 + rep)
        grid = default_evaluation_grid(pc)
        truth = DensityGrid(grid, pc.truth(grid), signed=False)
        y = pc.draw()
        est = select_and_estimate(y, kappa=1.0, grid=grid)
        level_ok &= 1 <= est.selected_level <= l_max
        ises = {}
        for L, coeffs in est.coefficients.items():
            vals = render_sinc_expansion(coeffs, L, grid)
            ises[L] = mise(DensityGrid(grid, vals), truth)
        ratio = ises[est.selected_level] / min(ises.values())
        worst_ratio = max(worst_ratio, ratio)
        wins += ratio <= 1.5
    ok = wins >= int(np.ceil(0.8 * reps)) and level_ok
    _report("criterion 9 (ppe adaptive selection)", ok,
            f"ISE(selected) <= 1.5 x oracle in {wins}/{reps} seeds "
            f"(>= 16 required; worst ratio {worst_ratio:.3f}), "
            f"levels always in [1, {l_max}]: {level_ok}")


# --------------------------------------------------------------------- 10

def test_criterion_10_regression_direction_and_identity():
    # algebraic decomposition identity on arbitrary data
    rng = np.random.default_rng(99)
    y = rng.normal(size=300)
    g = np.linspace(-1.5, 1.5, 41)
    est = regression_estimate(y, 0.5, g)
    m_fn = lambda x: 0.5 * x
    p = regression_residual_field(est, m_fn)
    um = ~est.mask
    identity_dev = float(np.max(np.abs((est.m_hat[um] - m_fn(est.x[um]))
                                       - p[um] / est.denominator[um])))

    params = ArParams("linear", slope=0.5, intercept=0.0, innovation_sd=1.0)
    sd = 1.0 / np.sqrt(0.75)
    q = 0.6744897501960817 * sd  # interquartile half-width of the stationary law
    grid = np.linspace(-q, q, 81)
    reps = 20
    wins = 0
    for rep in range(reps):
        errs = {}
        for n in (2000, 20_000):
            series, _ = simulate_discrete_ar(params, n, 900 + rep)
            yv = series.log_squared
            est_n = regression_estimate(yv, 3.5 / np.log(n), grid)
            errs[n] = float(np.nanmax(np.abs(est_n.m_hat - 0.5 * grid)))
        wins += errs[20_000] < errs[2000]
    ok = identity_dev < 1e-12 and wins >= int(np.ceil(0.8 * reps))
    _report("criterion 10 (regression direction)", ok,
            f"decomposition identity residue {identity_dev:.2e} (< 1e-12), "
            f"central max error shrinks from n=2e3 to n=2e4 in {wins}/{reps} "
            f"seeds (>= 16 required)")


# --------------------------------------------------------------------- 11

def test_criterion_11_pipeline_reproducibility(tmp_path):
    from voldens.cli import PipelineConfig, ingest_prices, run_pipeline

    out = tmp_path / "run"
    cfg = PipelineConfig(estimator="kernel", out_dir=str(out),
                         scenario="ou-exp", n=500, delta=0.05, seed=17,
                         bandwidth=0.5, grid_points=256)
    files = ("density.csv", "diagnostics.csv", "run_config.txt", "plot.gp")
    run_pipeline(cfg)
    first = {f: (out / f).read_bytes() for f in files}
    run_pipeline(cfg)  # identical config, identical destination
    identical = all((out / f).read_bytes() == first[f] for f in files)

    rng = np.random.default_rng(123)
    prices = np.exp(np.cumsum(rng.normal(0.0005, 0.02, 2600)))
    csv_path = tmp_path / "prices.csv"
    np.savetxt(csv_path, np.column_stack([np.arange(prices.size), prices]),
               delimiter=",", header="i,price", comments="")
    series = ingest_prices(csv_path, delta=1.0, demean=True)
    demeaned_mean = abs(float(np.diff(series.log_prices).mean()))
    ok = identical and demeaned_mean < 1e-12
    _report("criterion 11 (pipeline reproducibility)", ok,
            f"reruns byte-identical: {identical}, "
            f"|mean of demeaned returns| = {demeaned_mean:.2e} (< 1e-12)")
