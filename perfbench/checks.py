"""Output checks for every benchmark operation.

Each check returns a list of problems; an empty list means the output is
correct.  Three kinds of evidence are used:

* structure: exit code 0, the exact file set, parseable CSVs, finite values,
  diagnostics consistent with the request (n, K_n, L, closed-form penalties,
  the penalized-contrast selection rule);
* the independent Fourier-side recomputation in `oracle.py` (kernel,
  regression and wavelet outputs, and the kernel and wavelet Monte Carlo
  replications), at the tolerances in ``baseline.json``;
* reference outputs recorded at the baseline commit (``references.json``),
  compared at the same tolerances when the seed was recorded.  This is the
  only value check for the penalized projection estimator, whose K_n = n
  coefficient sum has no cheap independent form.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.integrate import trapezoid
from scipy.signal import find_peaks

import oracle

DENSITY_FILES = {"density.csv", "diagnostics.csv", "run_config.txt", "plot.gp"}
EXPECTED_FILES = {
    "kernel": DENSITY_FILES,
    "ppe": DENSITY_FILES,
    "wavelet": DENSITY_FILES | {"coefficients.csv"},
    "regression": {"regression.csv", "diagnostics.csv", "run_config.txt", "plot.gp"},
}
INT_KEYS = {"n", "zero_increment_count", "selected_level", "k_n", "level", "truncation",
            "mode_count", "masked_points"}
LEVEL_DENOMINATOR = 1.0 + 4.0 * math.pi ** 2 / 3.0


class Tolerance:
    """|new - ref| <= atol + rtol * scale, scale = largest |ref| in the vector."""

    def __init__(self, spec: dict):
        self.rtol = float(spec["rtol"])
        self.atol = float(spec["atol"])

    def vector(self, name: str, new, ref, problems: list) -> None:
        new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
        if new.shape != ref.shape:
            problems.append(f"{name}: shape {new.shape} != {ref.shape}")
            return
        both = np.isfinite(ref)
        if not np.array_equal(both, np.isfinite(new)):
            problems.append(f"{name}: finite pattern differs")
            return
        if not both.any():
            return
        scale = float(np.max(np.abs(ref[both])))
        err = float(np.max(np.abs(new[both] - ref[both])))
        if err > self.atol + self.rtol * scale:
            problems.append(f"{name}: max error {err:.3e} vs scale {scale:.3e}")


# --------------------------------------------------------------------------- reading

def read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) if r[i] != "" else np.nan for r in body])
            for i, name in enumerate(header)}


def read_diagnostics(path: Path) -> dict[str, object]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    out: dict[str, object] = {}
    for key, value in rows:
        try:
            num = float(value)
        except ValueError:
            out[key] = value
            continue
        out[key] = int(num) if (key in INT_KEYS or key.startswith("selected_L")) else num
    return out


def _grid_problems(x: np.ndarray, points: int) -> list[str]:
    if x.size != points:
        return [f"grid has {x.size} points, expected {points}"]
    if not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
        return ["grid is not finite and increasing"]
    return []


# --------------------------------------------------------------------------- CLI outputs

def check_cli(op: dict, out: Path, exit_code: int, tol: Tolerance) -> list[str]:
    """Structure, diagnostics and oracle checks of one CLI run's output directory."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    est = op["estimator"]
    files = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if files != EXPECTED_FILES[est]:
        return [f"file set {sorted(files)} != {sorted(EXPECTED_FILES[est])}"]
    problems: list[str] = []
    diag = read_diagnostics(out / "diagnostics.csv")
    for key in ("n", "zero_increment_count"):
        if diag.get(key) != op[key]:
            problems.append(f"diagnostics {key} = {diag.get(key)!r}, expected {op[key]}")
    target = "regression.csv" if est == "regression" else "density.csv"
    if target not in (out / "plot.gp").read_text():
        problems.append("plot.gp does not plot " + target)
    if f"estimator = {est}\n" not in (out / "run_config.txt").read_text():
        problems.append("run_config.txt does not echo the estimator")
    problems += ESTIMATOR_CHECKS[est](op, out, diag, tol)
    return problems


def _density(out: Path, points: int, value: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    cols = read_columns(out / "density.csv")
    x, f = cols.get("x"), cols.get(value)
    if x is None or f is None:
        return np.empty(0), np.empty(0), [f"density.csv lacks columns x, {value}"]
    problems = _grid_problems(x, points)
    if not np.all(np.isfinite(f)):
        problems.append("density has non-finite values")
    return x, f, problems


def _check_kernel(op, out, diag, tol) -> list[str]:
    x, f, problems = _density(out, op["grid_points"], "fhat")
    if problems:
        return problems
    h = math.pi / math.log(op["n"])  # gamma = 1
    if not math.isclose(diag.get("bandwidth", float("nan")), h, rel_tol=1e-12):
        problems.append(f"bandwidth {diag.get('bandwidth')} != pi/log n = {h}")
    tol.vector("kernel density vs oracle", f, oracle.kernel_density(op["y"], h, x), problems)
    return problems


def _check_regression(op, out, diag, tol) -> list[str]:
    cols = read_columns(out / "regression.csv")
    x, mhat, fhat, masked = (cols.get(k) for k in ("x", "mhat", "fhat", "masked"))
    if any(c is None for c in (x, mhat, fhat, masked)):
        return ["regression.csv lacks columns x, mhat, fhat, masked"]
    problems = _grid_problems(x, op["grid_points"])
    if problems:
        return problems
    masked = masked.astype(bool)
    if not np.all(np.isfinite(fhat)) or not np.all(np.isfinite(mhat[~masked])):
        problems.append("non-finite regression values")
    if not np.array_equal(masked, np.abs(fhat) < op["floor"]) or np.isfinite(mhat[masked]).any():
        problems.append("masked points do not match |fhat| < floor")
    if diag.get("masked_points") != int(masked.sum()):
        problems.append("diagnostics masked_points disagrees with regression.csv")
    h = 3.5 / math.log(op["n"])  # gamma = 3.5
    if not math.isclose(diag.get("bandwidth", float("nan")), h, rel_tol=1e-12):
        problems.append(f"bandwidth {diag.get('bandwidth')} != 3.5/log n = {h}")
    num, den = oracle.regression(op["y"], h, x)
    tol.vector("regression denominator vs oracle", fhat, den, problems)
    numerator = np.where(masked, num, mhat * fhat)
    tol.vector("regression numerator vs oracle", numerator, num, problems)
    return problems


def theory_wavelet_level(n: int) -> int:
    """2^m ~ log n / (1 + 4 pi^2 / 3), rounded in log2, floored at 0, capped at 5."""
    return min(5, max(0, round(math.log2(math.log(n) / LEVEL_DENOMINATOR))))


def _check_wavelet(op, out, diag, tol) -> list[str]:
    x, g, problems = _density(out, op["grid_points"], "ghat")
    if problems:
        return problems
    n, level = op["n"], theory_wavelet_level(op["n"])
    if diag.get("level") != level or diag.get("truncation") != n:
        problems.append(f"level/truncation {diag.get('level')}/{diag.get('truncation')}, "
                        f"expected {level}/{n}")
        return problems
    cols = read_columns(out / "coefficients.csv")
    ls, coeffs = cols.get("l"), cols.get("a_hat")
    if ls is None or coeffs is None or not np.array_equal(ls, np.arange(-n, n + 1)):
        return problems + ["coefficients.csv does not list l = -L..L"]
    if not np.all(np.isfinite(coeffs)):
        problems.append("non-finite wavelet coefficients")
    near = np.arange(-64, 65)
    c_ref, g_ref = oracle.wavelet(op["y"], level, x, near)
    tol.vector("wavelet coefficients |l| <= 64 vs oracle", coeffs[near + n], c_ref, problems)
    tol.vector("wavelet density vs oracle", g, g_ref, problems)
    return problems


def ppe_penalty(level: int, n: int, kappa: float = 1.0) -> float:
    """kappa (1 + L) Phi_k(L) / n with Phi_k(L) = (2/pi) sinh(pi^2 L)."""
    return kappa * (1 + level) * (2.0 / math.pi) * math.sinh(math.pi ** 2 * level) / n


def _check_ppe(op, out, diag, tol) -> list[str]:
    x, f, problems = _density(out, op["grid_points"], "fhat")
    n = op["n"]
    levels = list(range(1, max(1, math.floor(math.log(n))) + 1))
    if diag.get("k_n") != n:
        problems.append(f"k_n = {diag.get('k_n')}, expected n = {n}")
    try:
        contrast = np.array([float(diag[f"contrast_L{L}"]) for L in levels])
        penalty = np.array([float(diag[f"penalty_L{L}"]) for L in levels])
        flags = [diag[f"selected_L{L}"] for L in levels]
    except KeyError as exc:
        return problems + [f"diagnostics lack {exc}"]
    if not np.all(np.isfinite(contrast)):
        problems.append("non-finite contrast")
    tol.vector("ppe penalties vs closed form", penalty,
               [ppe_penalty(L, n) for L in levels], problems)
    chosen = levels[int(np.argmin(contrast + penalty))]
    if diag.get("selected_level") != chosen or flags != [int(L == chosen) for L in levels]:
        problems.append(f"selected level {diag.get('selected_level')} is not the "
                        f"penalized-contrast minimizer {chosen}")
    return problems


ESTIMATOR_CHECKS = {"kernel": _check_kernel, "regression": _check_regression,
                    "wavelet": _check_wavelet, "ppe": _check_ppe}


# --------------------------------------------------------------------------- Monte Carlo replications

def shape_of(x: np.ndarray, f: np.ndarray) -> tuple[int, float]:
    """Mode count (prominence 0.05) and mean of the clipped, renormalized density."""
    clipped = np.maximum(f, 0.0)
    vals = clipped / trapezoid(clipped, x)
    return int(find_peaks(vals, prominence=0.05)[0].size), float(trapezoid(x * vals, x))


def check_replication(rep: dict, expect: dict, tol: Tolerance) -> list[str]:
    """Finite metrics, plus the oracle's ISE and shape for kernel and wavelet."""
    problems = []
    if not (math.isfinite(rep["mise"]) and rep["mise"] >= 0.0
            and math.isfinite(rep["normal_fit_mean"]) and int(rep["mode_count"]) >= 1):
        problems.append(f"implausible metrics {rep}")
    if rep["estimator"] == "ppe":
        return problems
    x, truth, y = expect["grid"], expect["truth"], expect["y"]
    if rep["estimator"] == "kernel":
        f = oracle.kernel_density(y, expect["bandwidth"], x)
    else:
        f = oracle.wavelet(y, theory_wavelet_level(y.size), x, np.arange(0))[1]
    ise = float(trapezoid((f - truth) ** 2, x))
    modes, mean = shape_of(x, f)
    tol.vector("ISE vs oracle", [rep["mise"]], [ise], problems)
    tol.vector("normal_fit_mean vs oracle", [rep["normal_fit_mean"]], [mean], problems)
    if int(rep["mode_count"]) != modes:
        problems.append(f"mode_count {rep['mode_count']} != oracle {modes}")
    return problems


# --------------------------------------------------------------------------- recorded references

def digest_cli(est: str, out: Path) -> dict:
    """A compact, order-stable summary of one CLI run's outputs."""
    diag = read_diagnostics(out / "diagnostics.csv")
    d: dict = {"diagnostics": {k: v for k, v in diag.items() if not isinstance(v, str)}}
    if est == "regression":
        cols = read_columns(out / "regression.csv")
        d["x"], d["fhat"], d["mhat"] = (cols[k][::32].tolist() for k in ("x", "fhat", "mhat"))
        d["mhat"] = [None if not math.isfinite(v) else v for v in d["mhat"]]
        d["fhat_sumsq"] = float(np.sum(cols["fhat"] ** 2))
        return d
    cols = read_columns(out / "density.csv")
    value = "ghat" if est == "wavelet" else "fhat"
    d["x"], d["f"] = cols["x"][::32].tolist(), cols[value][::32].tolist()
    d["f_sumsq"] = float(np.sum(cols[value] ** 2))
    if est == "wavelet":
        c = read_columns(out / "coefficients.csv")["a_hat"]
        mid = c.size // 2
        d["coef"] = c[mid - 16: mid + 17].tolist()
        d["coef_sumsq"] = float(np.sum(c * c))
    return d


def compare_digest(new: dict, ref: dict, tol: Tolerance, name: str = "") -> list[str]:
    """Every recorded value must be present and match; values added since are not compared."""
    missing = sorted(set(ref) - set(new))
    if missing:
        return [f"{name}: missing {missing}"]
    problems: list[str] = []
    for key in sorted(ref):
        a, b = new[key], ref[key]
        label = f"{name}.{key}" if name else key
        if isinstance(b, dict):
            problems += compare_digest(a, b, tol, label)
        elif isinstance(b, int) and not isinstance(b, bool):
            if a != b:
                problems.append(f"{label}: {a} != recorded {b}")
        elif isinstance(b, list):
            tol.vector(label, [np.nan if v is None else v for v in a],
                       [np.nan if v is None else v for v in b], problems)
        else:
            tol.vector(label, [a], [b], problems)
    return problems


def digest_input(y: np.ndarray) -> dict:
    """Size, sum and end samples of the series an operation estimates from.

    The series comes from the program's own simulator, so the oracle cannot
    tell a changed simulation from a correct one; on recorded seeds this can.
    """
    y = np.asarray(y, dtype=float)
    return {"n": int(y.size), "sum": float(np.sum(y)),
            "head": y[:4].tolist(), "tail": y[-4:].tolist()}


def digest_replication(rep: dict, y: np.ndarray) -> dict:
    return {"mise": rep["mise"], "mode_count": int(rep["mode_count"]),
            "normal_fit_mean": rep["normal_fit_mean"], "input": digest_input(y)}
