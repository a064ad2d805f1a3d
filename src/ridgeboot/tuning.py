"""Cross-validated selection of the base penalty r_hat and the prefactor
mapping (pilot, inference) = (5 r_hat, 0.1 r_hat), plus the exponent form
penalty = n^(1 - exponent) used by the theory checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InputError
from .linmodel import Dataset, DesignFactorization

PILOT_PREFACTOR = 5.0
INFERENCE_PREFACTOR = 0.1

# Default CV grid: 30 log-spaced raw penalties from 1e-4 n to 1e2 n.
DEFAULT_GRID_MIN_FACTOR = 1e-4
DEFAULT_GRID_MAX_FACTOR = 1e2
DEFAULT_GRID_SIZE = 30
DEFAULT_FOLDS = 5


@dataclass(frozen=True)
class PenaltyPlan:
    """Selected base penalty with its pilot/inference pair and the CV trace."""

    r_hat: float
    pilot_rho: float
    inference_rho: float
    grid: np.ndarray
    cv_scores: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        scores = np.asarray(self.cv_scores, dtype=np.float64)
        if grid.shape != scores.shape or grid.ndim != 1:
            raise InputError("grid and cv_scores must be matching 1-D sequences")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cv_scores", scores)
        if self.pilot_rho != PILOT_PREFACTOR * self.r_hat:
            raise InputError("pilot_rho must equal 5 * r_hat")
        if self.inference_rho != INFERENCE_PREFACTOR * self.r_hat:
            raise InputError("inference_rho must equal 0.1 * r_hat")


def default_grid(
    n: int,
    size: int = DEFAULT_GRID_SIZE,
    min_factor: float = DEFAULT_GRID_MIN_FACTOR,
    max_factor: float = DEFAULT_GRID_MAX_FACTOR,
) -> np.ndarray:
    """`size` logarithmically spaced raw penalties spanning min_factor n .. max_factor n.

    The defaults give 30 penalties from 1e-4 n to 1e2 n; a one-point grid
    is min_factor n alone.
    """
    if n < 1 or size < 1:
        raise InputError("n and size must be positive")
    if size == 1:
        return np.array([min_factor * n])
    return np.geomspace(min_factor * n, max_factor * n, size)


def penalty_pair(r_hat: float) -> tuple[float, float]:
    """(pilot, inference) = (5 r_hat, 0.1 r_hat)."""
    if not (np.isfinite(r_hat) and r_hat > 0):
        raise InputError("r_hat must be positive")
    return PILOT_PREFACTOR * r_hat, INFERENCE_PREFACTOR * r_hat


def exponent_to_penalty(n: int, exponent: float) -> float:
    """Raw penalty n * n^(-exponent) = n^(1-exponent)."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InputError("n must be a positive integer")
    if not (np.isfinite(exponent) and exponent > 0):
        raise InputError("exponent must be positive")
    return float(n) ** (1.0 - float(exponent))


def cv_select(
    data: Dataset,
    grid: np.ndarray | None = None,
    folds: int = DEFAULT_FOLDS,
    rng: np.random.Generator | None = None,
) -> PenaltyPlan:
    """K-fold cross-validated ridge penalty selection.

    Rows are permuted once (seeded) and cut into `folds` contiguous blocks;
    the last block absorbs the remainder.  For every grid value r the score is
    the mean over folds of ||Y_hold - X_hold beta_r(train)||^2 / n_hold, and
    r_hat is the argmin with ties broken toward the smaller penalty.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if grid is None:
        grid = default_grid(data.n)
    grid = np.sort(np.asarray(grid, dtype=np.float64))
    if grid.ndim != 1 or grid.size == 0:
        raise InputError("grid must be a nonempty 1-D sequence")
    if np.any(~np.isfinite(grid)) or np.any(grid <= 0):
        raise InputError("grid penalties must be positive finite reals")
    if folds < 2:
        raise InputError("folds must be at least 2")
    n = data.n
    if n < folds:
        raise InputError("need at least one row per fold")

    perm = rng.permutation(n)
    base = n // folds
    scores = np.zeros(grid.size)
    for f in range(folds):
        start = f * base
        stop = (f + 1) * base if f < folds - 1 else n
        hold = perm[start:stop]
        train = np.concatenate([perm[:start], perm[stop:]])
        fact = DesignFactorization(data.X[train])
        UtY = fact.U.T @ data.Y[train]
        X_hold, Y_hold = data.X[hold], data.Y[hold]
        for gi in range(grid.size):
            g = fact.s / (fact.s * fact.s + grid[gi])
            coef = fact.Vt.T @ (g * UtY)
            resid = Y_hold - X_hold @ coef
            scores[gi] += float(resid @ resid) / hold.size
    scores /= folds

    finite = np.isfinite(scores)
    if not np.any(finite):
        raise DegenerateDataError("every CV score is non-finite")
    # argmin over ascending grid: first minimum is the smallest penalty.
    masked = np.where(finite, scores, np.inf)
    best = int(np.argmin(masked))
    r_hat = float(grid[best])
    pilot, inference = penalty_pair(r_hat)
    return PenaltyPlan(
        r_hat=r_hat,
        pilot_rho=pilot,
        inference_rho=inference,
        grid=grid,
        cv_scores=scores,
    )
