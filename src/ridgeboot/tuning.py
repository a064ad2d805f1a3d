"""Cross-validated selection of the base penalty r_hat and the prefactor
mapping (pilot, inference) = (5 r_hat, 0.1 r_hat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InputError
from .linmodel import Dataset

PILOT_PREFACTOR = 5.0
INFERENCE_PREFACTOR = 0.1

# Default CV grid: 30 log-spaced raw penalties from 1e-4 n to 1e2 n.
DEFAULT_GRID_MIN_FACTOR = 1e-4
DEFAULT_GRID_MAX_FACTOR = 1e2
DEFAULT_GRID_SIZE = 30
DEFAULT_FOLDS = 5

# Penalties per batched held-out solve keep the (batch, h, k) scratch around 32 MB.
_BATCH_CELLS = 4_000_000


@dataclass(frozen=True)
class PenaltyPlan:
    """Selected base penalty r_hat and its CV trace; the (pilot, inference)
    pair is derived from r_hat by ``penalty_pair``."""

    r_hat: float
    grid: np.ndarray
    cv_scores: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        scores = np.asarray(self.cv_scores, dtype=np.float64)
        if grid.shape != scores.shape or grid.ndim != 1:
            raise InputError("grid and cv_scores must be matching 1-D sequences")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cv_scores", scores)

    @property
    def pilot_rho(self) -> float:
        return penalty_pair(self.r_hat)[0]

    @property
    def inference_rho(self) -> float:
        return penalty_pair(self.r_hat)[1]


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


def _held_out_residuals(
    U_h: np.ndarray, e_h: np.ndarray, shrink: np.ndarray, keep: np.ndarray, square: bool
) -> np.ndarray:
    """Held-out residuals (I - H_hh)^{-1} e_h of one block for a batch of penalties.

    U_h holds the block's rows of U, e_h (G, h) the full-data residuals on
    the block, and shrink/keep (G, k) the factors s^2/(s^2+r) and
    r/(s^2+r).  The batched system is solved on its smaller side.
    """
    h, k = U_h.shape
    if h <= k:
        # I - H_hh = (I - U_h U_h^T) + U_h diag(keep) U_h^T, one (h, h) system per penalty.
        M = (U_h * keep[:, None, :]) @ U_h.T
        if not square:
            M += np.eye(h) - U_h @ U_h.T
        return np.linalg.solve(M, e_h[..., None])[..., 0]
    # Push-through: (I - U_h D U_h^T)^{-1} = I + U_h D (I - U_h^T U_h D)^{-1} U_h^T with
    # D = diag(shrink) and I - U_h^T U_h D = (I - U_h^T U_h) + U_h^T U_h diag(keep).
    gram = U_h.T @ U_h
    M = (np.eye(k) - gram) + gram * keep[:, None, :]
    z = np.linalg.solve(M, (e_h @ U_h)[..., None])[..., 0]
    return e_h + (shrink * z) @ U_h.T


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

    No fold is refitted.  Ridge is a linear smoother with hat matrix
    H = U diag(s^2/(s^2+r)) U^T from the thin SVD X = U diag(s) V^T of the
    full design, and the held-out residual of block h is exactly
    (I - H_hh)^{-1} e_h, where e = Y - H Y is the full-data residual (the
    block form of the leave-one-out shortcut).  Both I - H and e are built
    from the complement factors r/(s^2+r), so small penalties lose no digits
    to cancellation.  Each block solves one batched system for all penalties
    on its smaller side: the (|h|, |h|) system I - H_hh when |h| <= k =
    len(s), else the (k, k) system of the push-through identity
    (I - U_h D U_h^T)^{-1} = I + U_h D (I_k - U_h^T U_h D)^{-1} U_h^T.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if grid is None:
        grid = default_grid(data.n)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise InputError("grid must be a nonempty 1-D sequence")
    if np.any(~np.isfinite(grid)) or np.any(grid <= 0):
        raise InputError("grid penalties must be positive finite reals")
    grid = np.sort(grid)
    if not (isinstance(folds, (int, np.integer)) and folds >= 2):
        raise InputError("folds must be an integer >= 2")
    n = data.n
    if n < folds:
        raise InputError("need at least one row per fold")

    U, s2 = data.fact.U, data.fact.s * data.fact.s
    k = s2.size
    shrink = s2 / (s2 + grid[:, None])
    keep = grid[:, None] / (s2 + grid[:, None])
    UtY = U.T @ data.Y
    # With k = n, U is orthogonal and I - U U^T vanishes exactly.
    square = k == n
    resid = (keep * UtY) @ U.T
    if not square:
        resid += data.Y - U @ UtY

    perm = rng.permutation(n)
    base = n // folds
    scores = np.zeros(grid.size)
    for f in range(folds):
        start = f * base
        stop = (f + 1) * base if f < folds - 1 else n
        hold = perm[start:stop]
        U_h = U[hold]
        step = max(1, _BATCH_CELLS // (hold.size * k))
        for lo in range(0, grid.size, step):
            batch = slice(lo, lo + step)
            cv_resid = _held_out_residuals(
                U_h, resid[batch][:, hold], shrink[batch], keep[batch], square
            )
            scores[batch] += np.einsum("gh,gh->g", cv_resid, cv_resid) / hold.size
    scores /= folds

    finite = np.isfinite(scores)
    if not np.any(finite):
        raise DegenerateDataError("every CV score is non-finite")
    # argmin over ascending grid: first minimum is the smallest penalty.
    masked = np.where(finite, scores, np.inf)
    best = int(np.argmin(masked))
    return PenaltyPlan(r_hat=float(grid[best]), grid=grid, cv_scores=scores)
