"""The two hot numerical kernels: the W2 distance and bootstrap contrast draws."""

from __future__ import annotations

import functools

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; the kernels are plain numpy."""
    return "numpy"


@functools.lru_cache(maxsize=1)
def _merge_plan(m: int, k: int) -> tuple:
    """Gather indices into x and y, and the float64 widths, of the merged grid.

    The plan depends only on the sizes (m, k), so it is built once and shared
    read-only by every call with those sizes.  Each check case makes all its
    calls with one pair (n, m_ref), so one plan (480 KB at m_ref = 20,000) is
    kept: a second would only add to the peak memory.
    """
    # The quantile functions jump at i*k and j*m in units of 1/(m*k).  Insert into the
    # longer progression the shorter one's points it lacks, each at point // step.
    lo, hi = sorted((m, k))
    edges = np.arange(1, hi + 1, dtype=np.int64) * lo
    extra = np.arange(1, lo + 1, dtype=np.int64) * hi
    extra = extra[extra % lo != 0]
    edges = np.insert(edges, extra // lo, extra)
    # Widths never exceed lo, so they are exact in float64.
    widths = np.diff(edges, prepend=np.int64(0)).astype(np.float64)
    # On (e - width, e] x sits on step (e - 1) // k, its jumps below e; y likewise.
    edges -= 1
    plan = (edges // k, edges // m, widths)
    for a in plan:
        a.flags.writeable = False
    return plan


def w2sq_sorted(x: np.ndarray, y: np.ndarray) -> float:
    """Squared Wasserstein-2 distance between uniform empiricals with sorted atoms.

    Integrates the squared quantile-function difference over the merged
    probability grid, built by integer arithmetic in O(m + k) once per pair of
    sizes; exact up to float summation.  Inputs must be 1-D, sorted and
    nonempty (callers check).
    """
    m, k = x.shape[0], y.shape[0]
    ix, iy, widths = _merge_plan(m, k)
    d = x[ix]
    d -= y[iy]
    d *= d
    d *= widths
    return float(np.sum(d) / (np.int64(m) * np.int64(k)))


def contrast_draws(atoms: np.ndarray, weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Bootstrap contrast values z_b = sum_i weights[i] * atoms[idx[b, i]].

    ``idx`` is a (B, n) int64 matrix of atom indices drawn by the caller.
    ``weights`` is one contrast, shape (n,), giving B values, or k contrasts
    as the columns of an (n, k) matrix, giving a (B, k) array.
    """
    return np.asarray(atoms[idx] @ weights, dtype=np.float64)
