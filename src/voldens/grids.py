"""The evaluated-function container and the default evaluation grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError


def uniform_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """The default evaluation grid of every estimator: linspace(lo, hi, points)."""
    if points < 8:
        raise ParameterError("grid needs at least 8 points")
    return np.linspace(lo, hi, points)


@dataclass(eq=False)
class DensityGrid:
    """A function sampled on strictly increasing abscissae.

    This is the universal output of every estimator and ground-truth oracle.
    ``signed`` declares whether negative values are legitimate (raw
    deconvolution estimates can dip below zero); when False the constructor
    enforces nonnegativity.
    """

    x: np.ndarray
    values: np.ndarray
    signed: bool = True

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise DataError("grid abscissae and values must be 1-d arrays of equal length")
        if self.x.size < 2:
            raise DataError("grid needs at least two points")
        if not np.all(np.diff(self.x) > 0):
            raise DataError("grid abscissae must be strictly increasing")
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
