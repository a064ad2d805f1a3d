"""The two hot numerical kernels: the W2 distance and bootstrap contrast draws."""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; the kernels are plain numpy."""
    return "numpy"


def w2sq_sorted(x: np.ndarray, y: np.ndarray) -> float:
    """Squared Wasserstein-2 distance between uniform empiricals with sorted atoms.

    Integrates the squared quantile-function difference over the merged
    probability grid, built by integer arithmetic in O(m + k); exact up to
    float summation.  Inputs must be 1-D, sorted and nonempty (callers check).
    """
    # The quantile functions jump at i*k and j*m in units of 1/(m*k).  Insert into the
    # longer progression the shorter one's points it lacks, each at point // step.
    m, k = x.shape[0], y.shape[0]
    lo, hi = sorted((m, k))
    edges = np.arange(1, hi + 1, dtype=np.int64) * lo
    extra = np.arange(1, lo + 1, dtype=np.int64) * hi
    extra = extra[extra % lo != 0]
    edges = np.insert(edges, extra // lo, extra)
    widths = np.diff(edges, prepend=np.int64(0))
    # On (e - width, e] x sits on step (e - 1) // k, its jumps below e; y likewise.
    edges -= 1
    d = x[edges // k] - y[edges // m]
    return float(np.sum(widths * (d * d)) / (np.int64(m) * np.int64(k)))


def contrast_draws(atoms: np.ndarray, weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Bootstrap contrast values z_b = sum_i weights[i] * atoms[idx[b, i]].

    ``idx`` is a (B, n) int64 matrix of atom indices drawn by the caller.
    ``weights`` is one contrast, shape (n,), giving B values, or k contrasts
    as the columns of an (n, k) matrix, giving a (B, k) array.
    """
    return np.asarray(atoms[idx] @ weights, dtype=np.float64)
