"""Exact Mallows-l2 (Wasserstein-2) distance between univariate empirical laws.

Every distribution in scope is a uniform discrete law, mass 1/m at each of m
atoms, passed as a plain float64 array.  For such pairs the optimal coupling
is the quantile coupling, so the distance is exact: the squared quantile
difference integrated over the merged probability grid, which
``_kernels.w2sq_sorted`` builds in O(m + k) from the sorted atoms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import _kernels
from .errors import InputError

# Sampler protocol: sampler(rng, size) -> 1-D float array of draws from F0.  The
# array must be fresh: the caller may sort it in place.
ReferenceSampler = Callable[[np.random.Generator, int], np.ndarray]


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


def d2_to_reference(
    atoms: np.ndarray,
    reference_sampler: ReferenceSampler,
    m_ref: int,
    rng: np.random.Generator,
) -> float:
    """Seeded large-sample proxy for the distance to a continuous reference law.

    ``atoms`` is a sorted, finite 1-D array, such as ``center_residuals``
    returns.  The sampler's array of m_ref draws is sorted in place and
    becomes the reference atoms.
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    if atoms.ndim != 1 or atoms.size == 0:
        raise InputError("atoms must be a nonempty 1-D sequence")
    if m_ref < 1:
        raise InputError("m_ref must be positive")
    draws = np.asarray(reference_sampler(rng, int(m_ref)), dtype=np.float64)
    if draws.ndim != 1 or draws.size != m_ref:
        raise InputError("reference sampler must return m_ref draws")
    draws.sort()
    return math.sqrt(max(_kernels.w2sq_sorted(atoms, draws), 0.0))
