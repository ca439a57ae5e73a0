"""The evaluated-function container, the grid check and the default evaluation grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

#: fewest points of a default evaluation grid
MIN_GRID_POINTS = 8


def uniform_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """The default evaluation grid of every estimator: linspace(lo, hi, points)."""
    if points < MIN_GRID_POINTS:
        raise ParameterError(f"grid needs at least {MIN_GRID_POINTS} points")
    return np.linspace(lo, hi, points)


def as_grid(x) -> np.ndarray:
    """x as a float array, or DataError unless it is 1-d, finite, strictly
    increasing and at least 2 points long."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DataError("grid must be a 1-d array of at least two points")
    if not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
        raise DataError("grid must be finite and strictly increasing")
    return x


def estimator_grid(grid, y: np.ndarray, pad: float, points: int) -> np.ndarray:
    """`grid` through `as_grid`, or by default `uniform_grid` over y's range padded by pad."""
    if grid is None:
        return uniform_grid(float(np.min(y)) - pad, float(np.max(y)) + pad, points)
    return as_grid(grid)


@dataclass(eq=False)
class DensityGrid:
    """A function sampled on finite, strictly increasing abscissae (`as_grid`).

    This is the universal output of every estimator and ground-truth oracle.
    ``signed`` declares whether negative values are legitimate (raw
    deconvolution estimates can dip below zero); when False the constructor
    enforces nonnegativity.
    """

    x: np.ndarray
    values: np.ndarray
    signed: bool = True

    def __post_init__(self):
        self.x = as_grid(self.x)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.shape != self.values.shape:
            raise DataError("grid abscissae and values must be of equal length")
        if not self.signed and np.any(self.values < 0):
            raise DataError("negative values in a grid declared nonnegative")

    def __len__(self):
        return self.x.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.x[0]), float(self.x[-1])

    def integral(self) -> float:
        """Trapezoid integral of the values over the grid."""
        return float(np.trapezoid(self.values, self.x))

    def same_grid(self, other: "DensityGrid") -> bool:
        return self.x.shape == other.x.shape and bool(np.array_equal(self.x, other.x))

    def to_csv(self, path, value_name: str = "value"):
        arr = np.column_stack([self.x, self.values])
        np.savetxt(path, arr, delimiter=",", header=f"x,{value_name}", comments="")
