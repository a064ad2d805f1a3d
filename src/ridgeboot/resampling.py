"""Two-stage residual bootstrap engine, the three feasible confidence-interval
constructions of the simulation study, and the quantile pivot that the
bootstrap intervals share with the oracle.

The two-stage scheme: a pilot ridge fit at penalty pilot_rho produces
residuals whose centered empirical law stands in for the noise distribution;
synthetic error vectors drawn from it are pushed through the inference-penalty
contrast map a = c^T (X^T X + rho I)^{-1} X^T, computed once per call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import DegenerateContrastError, InputError, UnestimableVarianceError
from .linmodel import Dataset, ridge_fit
from .mallows import center_residuals

# Draws run in chunks of at most 16,000 cells (bar the tail rule below), so
# that a chunk's int64 index array and its gathered float64 copy (125 KiB
# each) stay below glibc's default 128 KiB mmap threshold: they come from the
# reused heap rather than fresh pages that fault in on every call.  (16,384
# cells would reach the threshold exactly at n = 64, 128 and 256.)  Each z_b
# stays bit-identical to one unchunked ``atoms[idx] @ weights`` under two
# conditions: every chunk starts at a multiple of 64 rows, since OpenBLAS's
# gemv sums rows in blocks; and no chunk is a single row, which numpy sends to
# dot rather than gemv.  Successive ``rng.integers`` calls on one generator
# continue a single index stream.
_CHUNK_CELLS = 16_000
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ConfidenceInterval:
    method: str
    level: float
    lower: float
    upper: float
    estimate: float  # the point c^T b the interval is built around

    def __post_init__(self) -> None:
        if not (0.0 < self.level < 1.0):
            raise InputError("level must lie in (0,1)")
        if not (self.lower <= self.upper):
            raise InputError("lower must not exceed upper")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _draw_contrast_values(
    atoms: np.ndarray,
    weights: np.ndarray,
    B: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """z_j = weights^T atoms[indices_j] for B index rows drawn sequentially.

    ``weights`` of shape (n,) gives B values; an (n, k) matrix gives a (B, k)
    array, one GEMM per chunk, drawing the same indices as one column would.
    """
    n = weights.shape[0]
    out = np.empty((B,) + weights.shape[1:])
    chunk = max(1, _CHUNK_CELLS // n // _BLOCK_ROWS) * _BLOCK_ROWS
    done = 0
    while done < B:
        # The last chunk absorbs a tail shorter than one block, never one row alone.
        take = B - done if B - done < chunk + _BLOCK_ROWS else chunk
        idx = rng.integers(0, atoms.size, size=(take, n))
        out[done : done + take] = _kernels.contrast_draws(atoms, weights, idx)
        done += take
    return out


def rb_contrast_draws(
    data: Dataset,
    c: np.ndarray,
    rho: float,
    pilot_rho: float,
    B: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Steps 1-3 of the residual bootstrap: pilot fit, center, push B draws.

    The pilot fit runs at pilot_rho; each replicate draws n i.i.d. atoms from
    the centered residual law and maps them through the inference-penalty row
    vector a = c^T (X^T X + rho I)^{-1} X^T (computed once).  ``c`` is one
    contrast of shape (p,), giving the B contrast values z_j, or k contrasts
    as the rows of a (k, p) matrix, giving a (B, k) array whose column j is
    the law of contrast j, all from one set of B index draws.
    """
    if not (isinstance(B, (int, np.integer)) and B >= 1):
        raise InputError("B must be a positive integer")
    weights = data.fact.contrast_weights(np.asarray(c, dtype=np.float64).T, float(rho))
    if np.any(np.sum(weights * weights, axis=0) <= 0.0):
        raise DegenerateContrastError("contrast has zero variance at this penalty")
    pilot = ridge_fit(data, float(pilot_rho))
    atoms = center_residuals(pilot.residuals).atoms
    return _draw_contrast_values(atoms, weights, int(B), rng)


def quantile(values: np.ndarray, alpha: float) -> float:
    """Order-statistic quantile: sorted value at 1-based index ceil(alpha*B).

    The product alpha*B is nudged by -1e-9 before the ceiling so that decimal
    alphas whose product is an exact integer are not bumped up by float excess
    (0.05 * 100 = 5.000000000000001 must select the 5th order statistic).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise InputError("values must be a nonempty 1-D sequence")
    if not (0.0 <= alpha <= 1.0):
        raise InputError("alpha must lie in [0,1]")
    B = values.size
    k = int(math.ceil(alpha * B - 1e-9))
    k = min(max(k, 1), B)
    return float(np.sort(values)[k - 1])


def pivot_interval(
    method: str, draws: np.ndarray, point: float, level: float
) -> ConfidenceInterval:
    """Quantile pivot [point - q_hi, point - q_lo] from draws of the error law.

    q_lo and q_hi are the (1 - level)/2 and (1 + level)/2 quantiles of the
    draws: bootstrap contrasts for the resampling intervals, or realized
    contrast errors for the oracle.
    """
    q_hi = quantile(draws, (1.0 + level) / 2.0)
    q_lo = quantile(draws, (1.0 - level) / 2.0)
    return ConfidenceInterval(
        method=method, level=float(level), lower=point - q_hi, upper=point - q_lo, estimate=point
    )


def ci_ridge_rb(
    data: Dataset,
    c: np.ndarray,
    rho: float,
    pilot_rho: float,
    B: int,
    level: float,
    rng: np.random.Generator,
) -> ConfidenceInterval:
    """Ridge residual-bootstrap interval [c^T b_rho - q_hi, c^T b_rho - q_lo]."""
    if not (0.0 < level < 1.0):
        raise InputError("level must lie in (0,1)")
    if np.ndim(c) != 1:
        raise InputError("an interval takes one contrast vector")
    draws = rb_contrast_draws(data, c, rho, pilot_rho, B, rng)
    point = float(data.fact.contrast_weights(c, float(rho)) @ data.Y)
    return pivot_interval("ridge_rb", draws, point, level)


def ols_sigma_sq_hat(data: Dataset) -> float:
    """Unbiased noise-variance estimate ||Y - X b_LS||^2 / (n - p)."""
    if data.p >= data.n:
        raise UnestimableVarianceError("sigma^2 estimation requires p <= n - 1")
    fit = ridge_fit(data, 0.0)
    return float(fit.residuals @ fit.residuals) / (data.n - data.p)


@functools.lru_cache(maxsize=16)
def _normal_quantile(q: float) -> float:
    """Standard normal quantile; a run asks for a few levels, once per response.

    ``ndtri`` is bit for bit ``scipy.stats.norm.ppf``.  It is imported here, on
    the first call, because ``scipy.special`` takes about 0.4 s to import and
    only the normal interval needs it.
    """
    from scipy.special import ndtri

    return float(ndtri(q))


def ci_normal(
    data: Dataset,
    c: np.ndarray,
    rho: float,
    level: float,
) -> ConfidenceInterval:
    """Normal-approximation interval c^T b_rho +- z * tau_hat.

    tau_hat^2 = sigma_hat^2 ||c^T (X^T X + rho I)^{-1} X^T||^2 with sigma_hat^2
    the unbiased OLS residual variance; no fallback is applied near p = n.
    """
    if not (0.0 < level < 1.0):
        raise InputError("level must lie in (0,1)")
    if np.ndim(c) != 1:
        raise InputError("an interval takes one contrast vector")
    weights = data.fact.contrast_weights(c, float(rho))
    sigma_sq = ols_sigma_sq_hat(data)
    tau = math.sqrt(sigma_sq * float(weights @ weights))
    point = float(weights @ data.Y)
    z = _normal_quantile((1.0 + level) / 2.0)
    return ConfidenceInterval(method="normal", level=float(level), lower=point - z * tau,
                              upper=point + z * tau, estimate=point)


def ci_ols_rb(
    data: Dataset,
    c: np.ndarray,
    B: int,
    level: float,
    rng: np.random.Generator,
) -> ConfidenceInterval:
    """Least-squares residual bootstrap: the ridge pipeline at rho = pilot = 0."""
    return replace(ci_ridge_rb(data, c, 0.0, 0.0, B, level, rng), method="ols_rb")
