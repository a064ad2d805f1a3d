"""Two-stage residual bootstrap engine, the three feasible confidence-interval
constructions of the simulation study, and the quantile pivot that the
bootstrap intervals share with the oracle.

The two-stage scheme: a pilot ridge fit at penalty pilot_rho produces
residuals whose centered empirical law stands in for the noise distribution;
synthetic error vectors drawn from it are pushed through the inference-penalty
contrast map a = c^T (X^T X + rho I)^{-1} X^T, computed once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from . import _kernels
from .errors import DegenerateContrastError, InputError, UnestimableVarianceError
from .linmodel import Dataset, DesignFactorization, ridge_fit
from .mallows import center_residuals

# Index-draw chunk bound keeps the (chunk, n) scratch matrix around 32 MB.
_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class ConfidenceInterval:
    method: str
    level: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 < self.level < 1.0):
            raise InputError("level must lie in (0,1)")
        if not (self.lower <= self.upper):
            raise InputError("lower must not exceed upper")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _draw_contrast_values(
    atoms: np.ndarray,
    weights: np.ndarray,
    B: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """z_j = weights . atoms[indices_j] for B index rows drawn sequentially."""
    n = weights.size
    out = np.empty(B)
    chunk = max(1, _CHUNK_CELLS // max(n, 1))
    done = 0
    while done < B:
        take = min(chunk, B - done)
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
    fact: DesignFactorization | None = None,
) -> np.ndarray:
    """Steps 1-3 of the residual bootstrap: pilot fit, center, push B draws.

    The pilot fit runs at pilot_rho; each replicate draws n i.i.d. atoms from
    the centered residual law and maps them through the inference-penalty row
    vector a = c^T (X^T X + rho I)^{-1} X^T (computed once).  Returns the B
    contrast values z_j.
    """
    if not (isinstance(B, (int, np.integer)) and B >= 1):
        raise InputError("B must be a positive integer")
    c = np.asarray(c, dtype=np.float64)
    if fact is None:
        fact = DesignFactorization(data.X)
    if c.shape != (fact.p,) or not np.all(np.isfinite(c)):
        raise InputError("contrast must be a finite length-p vector")
    weights = fact.contrast_weights(c, float(rho))
    if float(weights @ weights) <= 0.0:
        raise DegenerateContrastError("contrast has zero variance at this penalty")
    pilot = ridge_fit(data, float(pilot_rho), fact=fact)
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
        method=method, level=float(level), lower=point - q_hi, upper=point - q_lo
    )


def ci_ridge_rb(
    data: Dataset,
    c: np.ndarray,
    rho: float,
    pilot_rho: float,
    B: int,
    level: float,
    rng: np.random.Generator,
    fact: DesignFactorization | None = None,
) -> ConfidenceInterval:
    """Ridge residual-bootstrap interval [c^T b_rho - q_hi, c^T b_rho - q_lo]."""
    if not (0.0 < level < 1.0):
        raise InputError("level must lie in (0,1)")
    if fact is None:
        fact = DesignFactorization(data.X)
    draws = rb_contrast_draws(data, c, rho, pilot_rho, B, rng, fact=fact)
    point = float(fact.contrast_weights(np.asarray(c, dtype=np.float64), float(rho)) @ data.Y)
    return pivot_interval("ridge_rb", draws, point, level)


def ols_sigma_sq_hat(data: Dataset, fact: DesignFactorization | None = None) -> float:
    """Unbiased noise-variance estimate ||Y - X b_LS||^2 / (n - p)."""
    if fact is None:
        fact = DesignFactorization(data.X)
    if data.p >= data.n:
        raise UnestimableVarianceError("sigma^2 estimation requires p <= n - 1")
    fit = ridge_fit(data, 0.0, fact=fact)
    return float(fit.residuals @ fit.residuals) / (data.n - data.p)


def ci_normal(
    data: Dataset,
    c: np.ndarray,
    rho: float,
    level: float,
    fact: DesignFactorization | None = None,
) -> ConfidenceInterval:
    """Normal-approximation interval c^T b_rho +- z * tau_hat.

    tau_hat^2 = sigma_hat^2 ||c^T (X^T X + rho I)^{-1} X^T||^2 with sigma_hat^2
    the unbiased OLS residual variance; no fallback is applied near p = n.
    """
    if not (0.0 < level < 1.0):
        raise InputError("level must lie in (0,1)")
    if fact is None:
        fact = DesignFactorization(data.X)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (fact.p,) or not np.all(np.isfinite(c)):
        raise InputError("contrast must be a finite length-p vector")
    sigma_sq = ols_sigma_sq_hat(data, fact=fact)
    weights = fact.contrast_weights(c, float(rho))
    tau = math.sqrt(sigma_sq * float(weights @ weights))
    point = float(weights @ data.Y)
    z = float(norm.ppf((1.0 + level) / 2.0))
    return ConfidenceInterval(
        method="normal", level=float(level), lower=point - z * tau, upper=point + z * tau
    )


def ci_ols_rb(
    data: Dataset,
    c: np.ndarray,
    B: int,
    level: float,
    rng: np.random.Generator,
    fact: DesignFactorization | None = None,
) -> ConfidenceInterval:
    """Least-squares residual bootstrap: the ridge pipeline at rho = pilot = 0."""
    if not (0.0 < level < 1.0):
        raise InputError("level must lie in (0,1)")
    if fact is None:
        fact = DesignFactorization(data.X)
    draws = rb_contrast_draws(data, c, 0.0, 0.0, B, rng, fact=fact)
    point = float(fact.contrast_weights(np.asarray(c, dtype=np.float64), 0.0) @ data.Y)
    return pivot_interval("ols_rb", draws, point, level)
