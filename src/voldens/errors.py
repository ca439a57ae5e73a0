"""Exception types shared across the package.

The CLI maps these onto machine-readable error kinds, so estimator and
simulator code should prefer raising one of these over bare ValueError
when the failure class is meaningful to a caller.
"""


class VoldensError(Exception):
    """Base class for all package errors."""

    kind = "error"


class ParameterError(VoldensError, ValueError):
    """Invalid model or estimator parameters (non-positive rates, h <= 0, ...)."""

    kind = "parameter"


class DataError(VoldensError, ValueError):
    """Unusable input data (empty series, grid mismatch, bad CSV cell)."""

    kind = "data"


class NumericsError(VoldensError, ArithmeticError):
    """A numerical routine failed its own accuracy contract.

    Raised e.g. when an inverse Fourier transform that must be real carries
    an imaginary residue above tolerance; this signals a bug or an overflow
    regime, not a data pathology.
    """

    kind = "numerics"


class ConfigError(VoldensError, ValueError):
    """Inconsistent run configuration (unknown estimator, empty level set)."""

    kind = "config"


class UnknownEstimatorError(ConfigError):
    """An estimator name the pipeline does not know."""

    kind = "unknown-estimator"
