"""Exception taxonomy shared across the package."""

from __future__ import annotations


class RidgebootError(Exception):
    """Base class for all package-specific errors."""


class InputError(RidgebootError, ValueError):
    """Malformed or out-of-contract inputs (shapes, signs, non-finite values)."""


class SingularSystemError(RidgebootError):
    """An unpenalized solve was requested on a rank-deficient design."""


class DegenerateContrastError(RidgebootError):
    """The contrast has zero variance, so its law cannot be bootstrapped."""


class UnestimableVarianceError(RidgebootError):
    """The noise variance cannot be estimated from least-squares residuals (p >= n)."""


class MomentConditionError(RidgebootError):
    """The requested noise family violates the finite-fourth-moment requirement."""


class DegenerateDataError(RidgebootError):
    """Data admits no meaningful selection (e.g. every CV score is infinite)."""


class ConfigError(RidgebootError):
    """Config file is missing required keys, has unknown keys, or bad values."""
