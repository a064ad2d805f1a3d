"""Exact Mallows-l2 (Wasserstein-2) distance between univariate empirical laws.

Every distribution in scope is a uniform discrete law, mass 1/m at each of m
atoms, passed as a plain float64 array.  For such pairs the optimal coupling
is the quantile coupling, so the distance is exact: the squared quantile
difference integrated over the merged probability grid, which
``_kernels.w2sq_sorted`` builds in O(m + k) from the sorted atoms.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import InputError


def _as_sample(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise InputError(f"{name} must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{name} must be finite")
    return values


def center_residuals(residuals: np.ndarray) -> np.ndarray:
    """Sorted atoms of the centered residual law: each e_i minus the mean."""
    residuals = _as_sample(residuals, "residuals")
    atoms = np.sort(residuals - residuals.mean())
    # Re-center against accumulated rounding; a constant shift keeps it sorted.
    return atoms - atoms.mean()


def d2_empirical(x: np.ndarray, y: np.ndarray) -> float:
    """Exact W2 distance between the uniform empirical laws of two samples."""
    x = np.sort(_as_sample(x, "x"))
    y = np.sort(_as_sample(y, "y"))
    return math.sqrt(max(_kernels.w2sq_sorted(x, y), 0.0))

