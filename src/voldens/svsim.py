"""Stochastic-volatility simulators and ground-truth invariant densities.

The simulated market is a log price dS_t = b_t dt + sigma_t dW_t, S_0 = 0,
observed on the grid 0, Delta, 2*Delta, ..., n*Delta.  The volatility factor
xi_t = log sigma_t^2 follows one of three models:

  * ou-exp             xi is an Ornstein-Uhlenbeck process,
  * regime-switch-exp  xi switches between two independent OU processes
                       driven by a two-state Markov chain,
  * nonlinear-ar       xi is a discrete-time nonlinear autoregression
                       (piecewise constant over each Delta interval).

The OU factor is sampled with its exact Gaussian transition (no
discretization bias in the ground truth), and its AR(1) recursion runs as a
numpy doubling scan, with no scipy import; only the price integral uses
Euler-Maruyama, on a fine grid of `substeps` intervals per Delta.  Random
numbers come from counter-based Philox streams keyed separately for the
volatility and price noise, so a ScenarioConfig reproduces its output
bit-for-bit.

Each model is described once, by the parameter class that `MODELS` maps its
tag to: defaults, validity checks (stability included) and the stationary
law that both the truth density and `metrics.default_evaluation_grid` read.
Scenario files go through one key table, `SCENARIO_KEYS`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, ParameterError
from .grids import DensityGrid, as_grid

LOG_FLOOR_DEFAULT = 1e-300
#: steps the nonlinear AR runs from xi = 0 before its first returned value
AR_BURN_IN = 1000


# --------------------------------------------------------------------------- parameters

def require_finite(owner=None, /, *names: str, **values) -> None:
    """ParameterError naming the first NaN or inf among the attributes `names` of
    `owner` and the keyword `values` (None passes); `x <= 0` misses both."""
    for name, value in [(name, getattr(owner, name)) for name in names] + [*values.items()]:
        if value is not None and not np.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")


def require_int(owner=None, /, *names: str, **values) -> None:
    """ParameterError naming the first value (picked as in `require_finite`) that
    is a float, even 2.0, or a bool where an integer belongs; None passes."""
    for name, value in [(name, getattr(owner, name)) for name in names] + [*values.items()]:
        if value is not None and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class OuParams:
    """Ornstein-Uhlenbeck factor dX = -b (X - mu) dt + a dB.

    The stationary law is N(mu, a^2 / (2b)).  `x0` fixes the initial value;
    None means a stationary draw.
    """

    mean_reversion: float
    level: float = 0.0
    diffusion: float = 1.0
    x0: float | None = None

    def __post_init__(self):
        require_finite(self, "mean_reversion", "level", "diffusion", "x0")
        if self.mean_reversion <= 0:
            raise ParameterError("mean reversion rate must be positive")
        if self.diffusion <= 0:
            raise ParameterError("diffusion coefficient must be positive")

    @property
    def stationary_variance(self) -> float:
        return self.diffusion ** 2 / (2.0 * self.mean_reversion)

    def stationary_law(self) -> tuple[tuple, tuple, tuple]:
        """(weights, means, variances) of the normal mixture that is the law of X."""
        return (1.0,), (self.level,), (self.stationary_variance,)


@dataclass(frozen=True)
class RegimeSwitchParams:
    """Two OU factors selected by a two-state Markov chain.

    rate_01 is the 0 -> 1 switching intensity, rate_10 the reverse; the
    stationary probability of state 1 is rate_01 / (rate_01 + rate_10), and
    the stationary law is the two-component normal mixture, regime 1 first.
    """

    regime0: OuParams
    regime1: OuParams
    rate_01: float
    rate_10: float

    def __post_init__(self):
        require_finite(self, "rate_01", "rate_10")
        if self.rate_01 <= 0 or self.rate_10 <= 0:
            raise ParameterError("switching rates must be positive")

    @property
    def stationary_prob_1(self) -> float:
        return self.rate_01 / (self.rate_01 + self.rate_10)

    def stationary_law(self) -> tuple[tuple, tuple, tuple]:
        pi1, r0, r1 = self.stationary_prob_1, self.regime0, self.regime1
        return ((pi1, 1.0 - pi1), (r1.level, r0.level),
                (r1.stationary_variance, r0.stationary_variance))


@dataclass(frozen=True)
class ArParams:
    """Nonlinear autoregression xi_{t+1} = m(xi_t) + eta_t at the Delta grid.

    `function` selects the regression shape: "linear" gives m(x) = slope*x +
    intercept, "tanh" the saturating m(x) = scale*tanh(x) + intercept.  The
    stability condition limsup_{|x| -> oo} |m(x)/x| < 1 is checked exactly:
    the limsup is |slope| for the linear map and 0 for the bounded tanh map.
    """

    function: str = "linear"
    slope: float = 0.5
    intercept: float = 0.0
    scale: float = 1.0
    innovation_sd: float = 1.0

    def __post_init__(self):
        if self.function not in ("linear", "tanh"):
            raise ParameterError(f"unknown regression function {self.function!r}")
        if self.function == "linear" and not abs(self.slope) < 1.0:
            raise ParameterError(f"slope {self.slope!r} breaks the stability condition |slope| < 1")
        require_finite(self, "slope", "intercept", "scale", "innovation_sd")
        if self.innovation_sd <= 0:
            raise ParameterError("innovation standard deviation must be positive")

    def regression(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.function == "linear":
            a, c = self.slope, self.intercept
            return lambda x: a * x + c
        s, c = self.scale, self.intercept
        return lambda x: s * np.tanh(x) + c

    def stationary_law(self) -> tuple[tuple, tuple, tuple] | None:
        """The stationary normal of the linear map; tanh has no closed form (None)."""
        if self.function == "tanh":
            return None
        return ((1.0,), (self.intercept / (1.0 - self.slope),),
                (self.innovation_sd ** 2 / (1.0 - self.slope ** 2),))


#: model tag -> the parameter class that describes it
MODELS = {"ou-exp": OuParams, "regime-switch-exp": RegimeSwitchParams,
          "nonlinear-ar": ArParams}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated scenario.

    The two seeds key independent Philox streams for the volatility factor
    and the price Brownian motion; they must differ, which is what makes the
    sigma-independent-of-W assumption hold in the simulation as well.
    """

    model: str
    params: OuParams | RegimeSwitchParams | ArParams
    delta: float
    n: int
    substeps: int = 16
    drift: float = 0.0
    vol_seed: int = 1
    price_seed: int = 2

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model tag {self.model!r}; expected one of {tuple(MODELS)}")
        if not isinstance(self.params, MODELS[self.model]):
            raise ConfigError(f"{self.model} needs {MODELS[self.model].__name__} parameters")
        require_finite(self, "delta", "drift")
        require_int(self, "n", "substeps", "vol_seed", "price_seed")
        if self.delta <= 0:
            raise ParameterError("sampling gap delta must be positive")
        if self.n < 2:
            raise ParameterError("need at least n = 2 observations")
        if self.substeps < 1:
            raise ParameterError("substeps must be a positive integer")
        if self.vol_seed == self.price_seed:
            raise ConfigError("volatility and price seeds must differ")

    def with_seeds(self, vol_seed: int, price_seed: int) -> "ScenarioConfig":
        return replace(self, vol_seed=vol_seed, price_seed=price_seed)

    # -- plain-text key = value serialization ------------------------------
    def to_kv(self) -> str:
        groups = [(self, "", COMMON_KEYS)] + [
            (self.params if nested is None else getattr(self.params, nested), prefix, keys)
            for prefix, nested, _, keys in SCENARIO_KEYS[self.model]]
        return "".join(f"{prefix}{key} = {repr(value) if conv is float else value}\n"
                       for obj, prefix, keys in groups for key, (name, conv) in keys.items()
                       if (value := getattr(obj, name)) is not None)

    @staticmethod
    def from_kv(text: str) -> "ScenarioConfig":
        kv = parse_kv(text)
        model = kv.get("model")
        if model not in MODELS:
            raise ConfigError(f"model = {model!r} is not one of {tuple(MODELS)}")
        groups = SCENARIO_KEYS[model]
        known = set(COMMON_KEYS) | {prefix + key for prefix, _, _, keys in groups for key in keys}
        if unknown := sorted(set(kv) - known):
            raise ConfigError(f"unknown key(s) {unknown} in {model} scenario document")
        params = {}
        for prefix, nested, cls, keys in groups:
            group = _read_group(kv, prefix, keys, cls)
            params.update(group if nested is None else {nested: cls(**group)})
        return ScenarioConfig(params=MODELS[model](**params),
                              **_read_group(kv, "", COMMON_KEYS, ScenarioConfig))


#: scenario-file keys in file order, {key: (field, parser)}: the common keys,
#: then per model tag its groups (key prefix, field of the parameter class
#: holding the group or None, class the group fills, keys).  Defaults live
#: on the dataclasses: a key left out takes its field's default.
COMMON_KEYS = {"model": ("model", str), "delta": ("delta", float), "n": ("n", int),
               "substeps": ("substeps", int), "drift": ("drift", float),
               "vol_seed": ("vol_seed", int), "price_seed": ("price_seed", int)}
_OU_KEYS = {"b": ("mean_reversion", float), "mu": ("level", float), "a": ("diffusion", float)}
SCENARIO_KEYS = {
    "ou-exp": (("ou.", None, OuParams, {**_OU_KEYS, "x0": ("x0", float)}),),
    "regime-switch-exp": (("regime0.", "regime0", OuParams, _OU_KEYS),
                          ("regime1.", "regime1", OuParams, _OU_KEYS),
                          ("", None, RegimeSwitchParams,
                           {"rate_01": ("rate_01", float), "rate_10": ("rate_10", float)})),
    "nonlinear-ar": (("ar.", None, ArParams, {"function": ("function", str), **{
        name: (name, float) for name in ("slope", "intercept", "scale", "innovation_sd")}}),),
}


def _read_group(kv: dict[str, str], prefix: str, keys: dict, cls) -> dict:
    """Parse the present keys of one group; name any missing required one."""
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    out = {}
    for suffix, (name, conv) in keys.items():
        key = prefix + suffix
        if key in kv:
            out[name] = parse_value(key, kv[key], conv)
        elif name in required:
            raise ConfigError(f"scenario document lacks the required key {key!r}")
    return out


def parse_value(key: str, raw: str, conv):
    """conv(raw), with a ConfigError naming the key when the value does not parse."""
    try:
        return conv(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {conv.__name__}") from None


def parse_kv(text: str) -> dict[str, str]:
    """Parse a plain-text 'key = value' document; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


# --------------------------------------------------------------------------- observation series

@dataclass(eq=False)
class ObservationSeries:
    """Log prices on a uniform grid and their derived transforms.

    increments are X_i = (S_{i Delta} - S_{(i-1) Delta}) / sqrt(Delta); the
    log-squared values Y_i = log(X_i^2 v LOG_FLOOR_DEFAULT) guard exact-zero
    increments (probability zero in the models, but real CSV files can
    contain ties).  `xi` carries the simulation ground truth
    log sigma^2 at the left endpoint of each increment interval and is absent
    for ingested data.
    """

    log_prices: np.ndarray
    delta: float
    xi: np.ndarray | None = None

    def __post_init__(self):
        self.log_prices = np.asarray(self.log_prices, dtype=float)
        if self.log_prices.ndim != 1 or self.log_prices.size < 2:
            raise DataError("need at least two price observations")
        require_finite(self, "delta")
        if self.delta <= 0:
            raise ParameterError("delta must be positive")
        if self.xi is not None:
            self.xi = np.asarray(self.xi, dtype=float)
            if self.xi.shape != (self.n,):
                raise DataError("ground-truth xi must have one value per increment")

    @property
    def n(self) -> int:
        return self.log_prices.size - 1

    @property
    def increments(self) -> np.ndarray:
        s = self.log_prices
        return (s[1:] - s[:-1]) / np.sqrt(self.delta)

    @property
    def zero_increment_count(self) -> int:
        return int(np.count_nonzero(self.increments == 0.0))

    @property
    def log_squared(self) -> np.ndarray:
        return log_squared_transform(self.increments)


def as_log_squared(y) -> np.ndarray:
    """Estimator input: the Y values of an ObservationSeries or a nonempty finite 1-d array."""
    arr = y.log_squared if isinstance(y, ObservationSeries) else np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DataError("need a nonempty 1-d series of log-squared values")
    bad = int(np.count_nonzero(~np.isfinite(arr)))
    if bad:
        raise DataError(f"{bad} non-finite log-squared value(s) in the series")
    return arr


def log_squared_transform(series) -> np.ndarray:
    """Y_i = log((X_i)^2 v floor) for an ObservationSeries or a raw increment array."""
    if isinstance(series, ObservationSeries):
        return series.log_squared
    x = np.asarray(series, dtype=float)
    if x.size < 1:
        raise DataError("empty increment series")
    return np.log(np.maximum(x * x, LOG_FLOOR_DEFAULT))


# --------------------------------------------------------------------------- path simulators

def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def simulate_ou(params: OuParams, steps: int, dt: float,
                seed: int | np.random.Generator) -> np.ndarray:
    """Sample an OU path at steps+1 points with the exact Gaussian transition.

    X_{t+dt} = mu + (X_t - mu) e^{-b dt} + N(0, a^2 (1 - e^{-2 b dt}) / (2b));
    the start is a stationary draw unless params.x0 is set.
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if steps < 1:
        raise ParameterError("need at least one step")
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    b, mu, a = params.mean_reversion, params.level, params.diffusion
    decay = np.exp(-b * dt)
    trans_sd = a * np.sqrt((1.0 - decay * decay) / (2.0 * b))
    path = np.empty(steps + 1)
    if params.x0 is None:
        path[0] = mu + np.sqrt(params.stationary_variance) * rng.standard_normal()
    else:
        path[0] = params.x0
    # AR(1) recursion x_{k+1} = decay * x_k + (mu (1 - decay) + shock_k), with
    # decay * x_0 folded into the first input, as a doubling scan: after the
    # pass at shift s every entry holds its inputs' decayed sum over a window
    # of 2s steps.  Stop once the window covers the path or decay^s < 1e-17.
    inputs = mu * (1.0 - decay) + trans_sd * rng.standard_normal(steps)
    inputs[0] += decay * path[0]
    shift = 1
    while shift < steps and (power := decay ** shift) > 1e-17:
        inputs[shift:] += power * inputs[:-shift]
        shift *= 2
    path[1:] = inputs
    return path


def simulate_markov2(rate_01: float, rate_10: float, steps: int, dt: float,
                     seed: int | np.random.Generator) -> np.ndarray:
    """Two-state chain sampled at steps+1 points.

    Per-substep flip probabilities are 1 - exp(-rate * dt), the first-order
    discretization of the continuous-time chain; the initial state is drawn
    from the stationary law (pi_0, pi_1).  With one uniform u per step, the
    step flips state 0 when u < p_01 and state 1 when u < p_10: where both
    hold it toggles the state, where exactly one does it sets the state to
    [u < p_01] whatever it was, and otherwise it holds.  So each state is the
    last set value (or the initial state) XOR the parity of the toggles since.
    """
    if rate_01 <= 0 or rate_10 <= 0:
        raise ParameterError("switching rates must be positive")
    if dt <= 0 or steps < 1:
        raise ParameterError("need positive dt and at least one step")
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    pi1 = rate_01 / (rate_01 + rate_10)
    state = int(rng.random() < pi1)
    u = rng.random(steps)
    from0, from1 = u < 1.0 - np.exp(-rate_01 * dt), u < 1.0 - np.exp(-rate_10 * dt)
    toggles = np.cumsum(from0 & from1)
    last = np.maximum.accumulate(np.where(from0 ^ from1, np.arange(steps), -1))
    was_set = last >= 0
    since = toggles - np.where(was_set, toggles[last], 0)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = state
    path[1:] = np.where(was_set, from0[last], state) ^ (since & 1)
    return path


def simulate_ar_logvol(m: Callable[[float], float], innovation_sd: float,
                       steps: int, seed: int | np.random.Generator) -> np.ndarray:
    """Iterate xi_{t+1} = m(xi_t) + eta_t from xi = 0; xi_0..xi_steps follow AR_BURN_IN steps."""
    if innovation_sd <= 0:
        raise ParameterError("innovation standard deviation must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    eta = innovation_sd * rng.standard_normal(AR_BURN_IN + steps)
    x = 0.0
    for k in range(AR_BURN_IN):
        x = float(m(x)) + eta[k]
    path = np.empty(steps + 1)
    path[0] = x
    for k in range(steps):
        x = float(m(x)) + eta[AR_BURN_IN + k]
        path[k + 1] = x
    return path


@dataclass(eq=False)
class VolatilityPath:
    """Fine-grid squared volatility plus the exact invariant density of log sigma^2.

    `truth` is None when the model has no closed-form invariant law (the
    tanh autoregression); otherwise it is a vectorized density callable.
    """

    sigma2: np.ndarray
    log_sigma2: np.ndarray
    truth: Callable[[np.ndarray], np.ndarray] | None


def _normal_pdf(x, mean, var):
    return np.exp(-(x - mean) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def normal_mixture_density(weights, means, variances) -> Callable[[np.ndarray], np.ndarray]:
    weights = np.asarray(weights, dtype=float)

    def f(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for w, m, v in zip(weights, means, variances):
            acc = acc + w * _normal_pdf(x, m, v)
        return acc

    return f


def simulate_volatility(config: ScenarioConfig) -> VolatilityPath:
    """Simulate the volatility factor on the fine grid of the scenario.

    Returns sigma_t^2 = exp(xi_t) at n*substeps + 1 points spaced
    delta/substeps apart, together with the exact invariant density of
    log sigma^2: the normal mixture of the parameters' `stationary_law`, or
    None for the tanh autoregression, which has no closed form.
    """
    fine_steps = config.n * config.substeps
    dt = config.delta / config.substeps
    p = config.params

    if config.model == "ou-exp":
        xi = simulate_ou(p, fine_steps, dt, config.vol_seed)
    elif config.model == "regime-switch-exp":
        rng = _rng(config.vol_seed)
        x0 = simulate_ou(p.regime0, fine_steps, dt, rng)
        x1 = simulate_ou(p.regime1, fine_steps, dt, rng)
        u = simulate_markov2(p.rate_01, p.rate_10, fine_steps, dt, rng)
        xi = np.where(u == 1, x1, x0)
    else:
        coarse = simulate_ar_logvol(p.regression(), p.innovation_sd, config.n, config.vol_seed)
        # piecewise constant over each Delta interval; the final fine point
        # replicates the last coarse value to keep the grid length uniform
        xi = np.concatenate([np.repeat(coarse[:-1], config.substeps), coarse[-1:]])

    law = p.stationary_law()
    truth = None if law is None else normal_mixture_density(*law)
    return VolatilityPath(sigma2=np.exp(xi), log_sigma2=xi, truth=truth)


def simulate_price(sigma2_path: np.ndarray, config: ScenarioConfig) -> ObservationSeries:
    """Euler-Maruyama price integral on the fine grid, sampled every Delta."""
    sigma2_path = np.asarray(sigma2_path, dtype=float)
    fine_steps = config.n * config.substeps
    if sigma2_path.shape != (fine_steps + 1,):
        raise DataError(
            f"sigma^2 path must have n*substeps + 1 = {fine_steps + 1} points, "
            f"got {sigma2_path.size}")
    dt = config.delta / config.substeps
    rng = _rng(config.price_seed)
    dw = np.sqrt(dt) * rng.standard_normal(fine_steps)
    increments = config.drift * dt + np.sqrt(sigma2_path[:-1]) * dw
    s_fine = np.concatenate([[0.0], np.cumsum(increments)])
    s = s_fine[:: config.substeps]
    xi = np.log(sigma2_path[: fine_steps : config.substeps])
    return ObservationSeries(log_prices=s, delta=config.delta, xi=xi)


def simulate_scenario(config: ScenarioConfig) -> tuple[ObservationSeries, VolatilityPath]:
    """Volatility factor plus observed prices for one scenario.

    The series' ground truth `xi` is the simulated log sigma^2 itself at the
    left end of each Delta interval, not the log of its exponential.
    """
    vol = simulate_volatility(config)
    series = simulate_price(vol.sigma2, config)
    xi = vol.log_sigma2[: config.n * config.substeps : config.substeps]
    return replace(series, xi=xi), vol


# --------------------------------------------------------------------------- invariant density

def invariant_density(drift: Callable[[float], float],
                      diffusion: Callable[[float], float],
                      x0: float,
                      grid: np.ndarray) -> DensityGrid:
    """Invariant density of dX = b(X) dt + a(X) dB on the given grid.

    Evaluates the scale/speed formula

        pi(x) ~ exp( 2 * int_{x0}^{x} b(y)/a^2(y) dy ) / a^2(x)

    by adaptive quadrature of the inner integral (to 1e-12, accumulated over grid
    segments, so the anchor x0 only shifts a constant), then normalizes the
    trapezoid integral over the grid to 1.  The anchor must lie inside the
    grid span and a() must not vanish on it.
    """
    from scipy.integrate import quad  # kept off the CLI's import path

    grid = as_grid(grid)
    if grid.size < 3:
        raise DataError("grid must have at least 3 points")
    if not (grid[0] <= x0 <= grid[-1]):
        raise ParameterError("anchor x0 must lie inside the grid span")

    a2 = np.array([diffusion(float(x)) for x in grid], dtype=float) ** 2
    if np.any(~np.isfinite(a2)) or np.any(a2 <= 0):
        raise ParameterError("diffusion coefficient vanishes or blows up on the grid")

    def ratio(y):
        a = diffusion(y)
        return drift(y) / (a * a)

    # cumulative integral along the grid, then shift to the x0 anchor
    seg = np.empty(grid.size)
    seg[0] = 0.0
    for k in range(1, grid.size):
        val, _ = quad(ratio, grid[k - 1], grid[k], epsabs=1e-12, epsrel=1e-12, limit=200)
        seg[k] = seg[k - 1] + val
    anchor, _ = quad(ratio, grid[0], x0, epsabs=1e-12, epsrel=1e-12, limit=200)
    exponent = 2.0 * (seg - anchor)

    exponent -= exponent.max()  # multiplicative constant is fixed by normalization
    values = np.exp(exponent) / a2
    mass = np.trapezoid(values, grid)
    if not np.isfinite(mass) or mass <= 0:
        raise ParameterError("invariant density integrates to a non-positive mass on this grid")
    return DensityGrid(grid, values / mass, signed=False)
