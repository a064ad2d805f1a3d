"""Two-stage residual bootstrap engine, the three feasible confidence-interval
constructions of the simulation study and their table ``INTERVALS``, and the
quantile pivot that the bootstrap intervals share with the oracle.

The two-stage scheme: a pilot ridge fit at penalty pilot_rho produces
residuals whose centered empirical law stands in for the noise distribution;
synthetic error vectors drawn from it are pushed through the inference-penalty
contrast map a = c^T (X^T X + rho I)^{-1} X^T, computed once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import DegenerateContrastError, InputError, UnestimableVarianceError
from .linmodel import Dataset
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
    atoms = center_residuals(data.fact.residuals(data.Y, float(pilot_rho)))
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
    resid = data.fact.residuals(data.Y, 0.0)
    return float(resid @ resid) / (data.n - data.p)


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), the routine behind scipy.special.ndtri and scipy.stats.norm.ppf.  The
# Q tables carry cephes' implied leading 1 (its p1evl): 1.0 * x + q is exactly
# x + q, so one Horner loop gives the same bits.
# P0/Q0: the central branch, |y - 1/2| < 1/2 - exp(-2).
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# P1/Q1: the tail with x = sqrt(-2 log y) in [2, 8), y down to exp(-32).
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# P2/Q2: the far tail, x >= 8.
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule over coef, highest power first, as cephes evaluates it."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _normal_quantile(q: float) -> float:
    """Standard normal quantile: a port of cephes ``ndtri``.

    Bit for bit ``scipy.special.ndtri`` (and so ``scipy.stats.norm.ppf``): the
    same branches, the same Horner order, and ``math.log``/``math.sqrt``, the
    libm calls the C code makes.  -inf at 0, inf at 1, nan outside [0, 1].
    """
    y = float(q)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


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


# Method -> function (data, c, rho, pilot_rho, B, level, rng), in draw order, ridge_rb
# first; each finds its constructor at call time, so a rebound name (a tracer) sees it.
INTERVALS = {
    "ridge_rb": lambda *args: ci_ridge_rb(*args),
    "normal": lambda data, c, rho, pilot_rho, B, level, rng: ci_normal(data, c, rho, level),
    "ols_rb": lambda data, c, rho, pilot_rho, B, level, rng: ci_ols_rb(data, c, B, level, rng),
}
# The intervals built on the least-squares fit, which needs p < n.
LEAST_SQUARES = ("normal", "ols_rb")
