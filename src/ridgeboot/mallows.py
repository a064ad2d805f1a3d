"""Exact Mallows-l2 (Wasserstein-2) distance between univariate empirical laws.

Every distribution in scope is a uniform discrete law: mass 1/m at each of m
atoms.  For such pairs the optimal coupling is the quantile coupling, so the
distance is exact: the squared quantile difference integrated over the merged
probability grid, which ``_kernels.w2sq_sorted`` builds in O(m + k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .errors import InputError

# Sampler protocol: sampler(rng, size) -> 1-D float array of draws from F0.  The
# array must be fresh: the caller may sort it in place.
ReferenceSampler = Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Uniform discrete distribution: mass 1/m at each sorted atom."""

    atoms: np.ndarray
    centered: bool = False

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=np.float64)
        if atoms.ndim != 1 or atoms.size == 0:
            raise InputError("atoms must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(atoms)):
            raise InputError("atoms must be finite")
        if np.any(np.diff(atoms) < 0):
            raise InputError("atoms must be sorted nondecreasing")
        if self.centered:
            tol = 1e-10 * (float(np.max(np.abs(atoms))) + 1.0)
            if abs(float(atoms.mean())) > tol:
                raise InputError("centered distribution must have zero-mean atoms")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_samples(cls, values: np.ndarray, centered: bool = False) -> "EmpiricalDistribution":
        """Build from unsorted draws; sorts a copy."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise InputError("values must be a nonempty 1-D sequence")
        return cls(atoms=np.sort(values), centered=centered)

    @property
    def size(self) -> int:
        return int(self.atoms.size)


def center_residuals(residuals: np.ndarray) -> EmpiricalDistribution:
    """Centered empirical law of residuals: mass 1/n at each e_i minus the mean."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.ndim != 1 or residuals.size == 0:
        raise InputError("residuals must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(residuals)):
        raise InputError("residuals must be finite")
    atoms = np.sort(residuals - residuals.mean())
    # Re-center against accumulated rounding; a constant shift keeps it sorted.
    atoms = atoms - atoms.mean()
    return EmpiricalDistribution(atoms=atoms, centered=True)


def d2_empirical(F: EmpiricalDistribution, G: EmpiricalDistribution) -> float:
    """Exact W2 distance between two uniform empirical distributions."""
    return math.sqrt(max(_kernels.w2sq_sorted(F.atoms, G.atoms), 0.0))


def d2_to_reference(
    F: EmpiricalDistribution,
    reference_sampler: ReferenceSampler,
    m_ref: int,
    rng: np.random.Generator,
) -> float:
    """Seeded large-sample proxy for the distance to a continuous reference law.

    The sampler's array of m_ref draws is sorted in place and becomes the
    reference atoms.
    """
    if m_ref < 1:
        raise InputError("m_ref must be positive")
    draws = np.asarray(reference_sampler(rng, int(m_ref)), dtype=np.float64)
    if draws.ndim != 1 or draws.size != m_ref:
        raise InputError("reference sampler must return m_ref draws")
    draws.sort()
    G = EmpiricalDistribution(atoms=draws)
    return d2_empirical(F, G)
