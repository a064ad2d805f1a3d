"""The two hot numerical kernels: the W2 distance and bootstrap contrast draws."""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; the kernels are plain numpy."""
    return "numpy"


def w2sq_sorted(x: np.ndarray, y: np.ndarray) -> float:
    """Squared Wasserstein-2 distance between uniform empiricals with sorted atoms.

    Integrates the squared quantile-function difference over the merged
    probability grid; exact up to floating-point summation.  Inputs must be
    1-D, sorted nondecreasing, and nonempty (enforced by callers).
    """
    # Quantile functions are step functions with jumps at i/m and j/k; walking
    # the merged grid in integer positions (units of 1/(m*k)) avoids float
    # comparisons of i/m against j/k.
    m, k = x.shape[0], y.shape[0]
    bx = np.arange(1, m + 1, dtype=np.int64) * k
    by = np.arange(1, k + 1, dtype=np.int64) * m
    edges = np.union1d(bx, by)
    widths = np.diff(edges, prepend=np.int64(0))
    ix = np.searchsorted(bx, edges, side="left")
    iy = np.searchsorted(by, edges, side="left")
    d = x[ix] - y[iy]
    return float(np.sum(widths * (d * d)) / (np.int64(m) * np.int64(k)))


def contrast_draws(atoms: np.ndarray, weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Bootstrap contrast values z_b = sum_i weights[i] * atoms[idx[b, i]].

    ``idx`` is a (B, n) int64 matrix of atom indices drawn by the caller.
    ``weights`` is one contrast, shape (n,), giving B values, or k contrasts
    as the columns of an (n, k) matrix, giving a (B, k) array.
    """
    return np.asarray(atoms[idx] @ weights, dtype=np.float64)
