"""Numerical stress tests for the distributional guarantees behind the bootstrap.

Every check here compares a Monte Carlo estimate of some left-hand side
against a computable right-hand side bound, or fits an empirical decay
rate against a target exponent.  Results come back as small report
objects so callers (tests, the ``check`` CLI subcommand) can render them
uniformly.  Nothing in this module is needed for plain interval
construction; it exists to let users re-verify the theory on their own
hardware at whatever scale they can afford.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import _kernels
from .designs import NoiseSpec, make_beta, sample_design, sample_noise
from .errors import DegenerateContrastError, InputError
from .linmodel import (Dataset, DesignFactorization, _as_vector, exponent_to_penalty, mspe_exact,
                       theta_rule)
from .mallows import center_residuals
from .resampling import rb_contrast_draws

__all__ = [
    "CheckReport",
    "RateEstimate",
    "check_theorem1",
    "check_mspe_link",
    "rate_mspe",
    "rate_d2_empirical",
    "check_design_events",
    "check_theorem4",
    "wishart_square",
    "check_wishart",
    "signed_svd",
    "check_signed_svd",
    "lm_tail_check",
]

# Monte Carlo sample sizes used when the caller does not override them.
# Large enough that sampling noise sits well below the slack applied to
# each inequality, small enough for single-core runs.
DEFAULT_M_BOOT = 20_000
DEFAULT_M_REF = 100_000

# Relative and absolute slack applied when asserting lhs <= rhs from
# finite samples.  The relative part absorbs constant-level looseness;
# the absolute part covers pure Monte Carlo jitter when both sides are
# near zero.
REL_SLACK = 0.05
ABS_SLACK = 5e-3

# Fixed shape of the random-design checks: p = n / 2 columns, unit noise
# variance in the exact prediction error, and the theorem-4 noise law.
_DESIGN_RATIO = 0.5
_SIGMA_SQ = 1.0
_THEOREM4_NOISE = NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0)
# Halfwidth of the slope band of the rate fits.
_BAND_HALFWIDTH = 0.15
# The design-event constants are this multiple of the worst calibration ratio.
_KAPPA_SAFETY = 1.1

# Cells per chunk of fresh noise in the theorem checks.  It does not follow
# the draw engine's chunk: the scaled-t sampler draws all its normals and then
# all its chi-square values, so this size fixes the RNG stream.
_PSI_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    ``holds`` records whether the check passed, as a rule of the check
    (``lhs <= rhs`` up to its slack for the inequalities); ``margin`` is
    positive when it passed comfortably.  ``config`` holds the parameters of
    the case; its ``n``, ``p``, ``eta``, ``gamma`` and ``theta`` entries are
    the columns of a report row.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lhs) and np.isfinite(self.rhs)):
            raise InputError("check produced non-finite lhs or rhs")

    @classmethod
    def bound(cls, name: str, lhs: float, rhs: float, config: dict,
              slack: float = 0.0) -> "CheckReport":
        """The inequality lhs <= rhs: margin rhs - lhs, and it holds iff
        lhs <= rhs + slack."""
        return cls(name, lhs, rhs, rhs - lhs, lhs <= rhs + slack, config)


@dataclass(frozen=True)
class RateEstimate:
    """Log-log slope fit of a positive sequence against a sample-size grid."""

    n_grid: tuple
    values: tuple
    fitted_slope: float
    target_slope: float
    band: tuple

    def __post_init__(self) -> None:
        if len(self.n_grid) != len(self.values):
            raise InputError("n_grid and values must have equal length")
        if len(self.n_grid) < 2:
            raise InputError("need at least two grid points to fit a slope")
        if any(not (v > 0 and np.isfinite(v)) for v in self.values):
            raise InputError("rate values must be positive and finite")

    @property
    def within_band(self) -> bool:
        lo, hi = self.band
        return lo <= self.fitted_slope <= hi

    @property
    def strictly_decreasing(self) -> bool:
        v = self.values
        return all(v[i + 1] < v[i] for i in range(len(v) - 1))

    def report(self, name: str, **config) -> CheckReport:
        """The slope fit as a check of the fitted slope against the target.

        A one-sided band (-inf, hi] reports margin hi - slope, a two-sided
        band its halfwidth minus the deviation from the target.
        """
        lo, hi = self.band
        if np.isfinite(lo):
            margin = (hi - lo) / 2.0 - abs(self.fitted_slope - self.target_slope)
        else:
            margin = hi - self.fitted_slope
        return CheckReport(name, self.fitted_slope, self.target_slope, margin, self.within_band, config)

    def trend_reports(self, name: str, **config) -> list:
        """One ``<name>_median`` check per grid point, that its value is below the
        previous one (the first holds trivially), and the ``<name>_trend``
        check that the sequence strictly decreases, with margin -slope."""
        reports = []
        prev = None
        for n, value in zip(self.n_grid, self.values):
            rhs = value if prev is None else prev
            reports.append(CheckReport(f"{name}_median", value, rhs, rhs - value,
                                       prev is None or value < rhs, {**config, "n": n}))
            prev = value
        reports.append(CheckReport(f"{name}_trend", self.fitted_slope, 0.0, -self.fitted_slope,
                                   self.strictly_decreasing, config))
        return reports


def _fit_rate(n_grid: tuple, values: list, target: float, band: tuple) -> RateEstimate:
    """The log-log slope fit of ``values`` against ``n_grid``."""
    logs_n = np.log(np.asarray(n_grid, dtype=np.float64))
    logs_v = np.log(np.asarray(values, dtype=np.float64))
    slope, _ = np.polyfit(logs_n, logs_v, 1)
    return RateEstimate(n_grid, tuple(values), float(slope), target, band)


def _as_grid(n: Union[int, Sequence[int]], trials: int, min_points: int = 2) -> tuple:
    """The sample sizes as a tuple (a scalar n is a one-point grid), once the
    grid has at least ``min_points`` sizes and ``trials`` is at least one."""
    grid = (int(n),) if np.isscalar(n) else tuple(int(v) for v in n)
    if len(grid) < min_points:
        raise InputError(f"sample-size grid has {len(grid)} points, needs at least {min_points}")
    if trials < 1:
        raise InputError("need at least one trial per sample size")
    return grid


def _check_sizes(**sizes: int) -> None:
    """Refuse a Monte Carlo sample size below one, before anything is drawn."""
    for name, size in sizes.items():
        if size < 1:
            raise InputError(f"{name} must be at least 1, got {size}")


def _ground_truth(data: Dataset, beta: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """The true coefficients as a finite length-p vector, once the noise
    scale is positive."""
    if not noise.sigma > 0:
        raise InputError("noise scale must be positive for this check")
    return _as_vector(beta, data.p, "beta")


def _draw_design(size: int, eta: float, gen: np.random.Generator) -> tuple:
    """Design with p = max(2, floor(size / 2)) columns drawn from the
    power-law covariance j^(-eta), and the unit-norm coefficient vector."""
    p = max(2, int(math.floor(_DESIGN_RATIO * size)))
    X = sample_design(size, p, eta, gen)
    return X, make_beta(p)


def _fresh_contrast_errors(noise: NoiseSpec, weights: np.ndarray, reps: int,
                           rng: np.random.Generator) -> np.ndarray:
    """eps @ weights for ``reps`` fresh noise vectors eps, drawn in chunks of
    about _PSI_CHUNK_CELLS cells: shape (reps,) for weights of shape (n,), or
    (reps, k) for the k columns of an (n, k) matrix."""
    n = weights.shape[0]
    out = np.empty((reps,) + weights.shape[1:])
    chunk = max(1, _PSI_CHUNK_CELLS // n)
    done = 0
    while done < reps:
        take = min(chunk, reps - done)
        out[done : done + take] = sample_noise(noise, take * n, rng).reshape(take, n) @ weights
        done += take
    return out


def _law_gap_sq(data: Dataset, beta: np.ndarray, noise: NoiseSpec, c: np.ndarray,
                rho: float, pilot_rho: float, reps: int, rng: np.random.Generator) -> tuple:
    """Squared W2 gap between the normalized fresh-noise law of a contrast error
    and its residual-bootstrap law, with the variance and squared bias that
    normalize it.

    ``c`` is one contrast, shape (p,), giving three scalars, or k contrasts as
    the columns of a (p, k) matrix, giving three length-k arrays.  The first
    law holds ``reps`` errors c^T(b - beta) of the ridge fit at rho under
    fresh noise, minus their mean (the bias) and over their sd; the second
    holds ``reps`` bootstrap contrast draws from the pilot fit at pilot_rho,
    over the same sd.  The fresh noise is drawn first, then the bootstrap
    indices, both on ``rng``.  Both laws being uniform on ``reps`` atoms, the
    squared distance is the mean squared gap of their order statistics.
    """
    weights = data.fact.contrast_weights(c, rho)
    var = float(noise.sigma) ** 2 * np.sum(weights * weights, axis=0)
    if np.any(var <= 0.0):
        raise DegenerateContrastError("contrast has zero variance at this penalty")
    shift = c.T @ data.fact.bias_vector(beta, rho)
    sd = np.sqrt(var)
    psi = np.sort((_fresh_contrast_errors(noise, weights, reps, rng) - shift) / sd, axis=0)
    phi = np.sort(rb_contrast_draws(data, c.T, rho, pilot_rho, reps, rng) / sd, axis=0)
    diff = psi - phi
    return np.sum(diff * diff, axis=0) / reps, var, shift * shift


def _noise_gap(atoms: np.ndarray, noise: NoiseSpec, m_ref: int,
               rng: np.random.Generator) -> float:
    """W2 distance from the uniform law on sorted ``atoms`` to the noise law,
    by its seeded proxy: the distance to a sorted m_ref-sample of the noise."""
    reference = sample_noise(noise, m_ref, rng)
    reference.sort()
    return math.sqrt(max(_kernels.w2sq_sorted(atoms, reference), 0.0))


def _raw_gap_sq(noise: NoiseSpec, n: int, m_ref: int, rng: np.random.Generator) -> float:
    """Squared W2 distance between a raw n-sample of the noise and the noise law."""
    gap = _noise_gap(np.sort(sample_noise(noise, n, rng)), noise, m_ref, rng)
    return gap * gap


def check_theorem1(
    data: Dataset,
    beta: np.ndarray,
    noise: NoiseSpec,
    c: np.ndarray,
    rho: float,
    pilot_rho: float,
    rng: np.random.Generator,
    m_boot: int = DEFAULT_M_BOOT,
    m_ref: int = DEFAULT_M_REF,
) -> CheckReport:
    """Compare the bootstrap law of a contrast error against its transfer bound.

    Left side: squared Mallows distance between the normalized sampling
    law of the contrast error and the normalized bootstrap law built
    from centered pilot residuals.  Right side: squared residual-law
    distance to the true noise law scaled by 1/sigma^2, plus the squared
    normalized ridge bias.  ``beta`` and ``noise`` are the true coefficients
    and noise law behind ``data``.  The inequality holds for every design, so
    a single seeded run is a meaningful check.
    """
    beta = _ground_truth(data, beta, noise)
    _check_sizes(m_boot=m_boot, m_ref=m_ref)
    sigma_sq = float(noise.sigma) ** 2
    lhs, v, bias_sq = _law_gap_sq(data, beta, noise, np.asarray(c, dtype=np.float64),
                                  rho, pilot_rho, m_boot, rng)

    fhat = center_residuals(data.fact.residuals(data.Y, float(pilot_rho)))
    resid_gap = _noise_gap(fhat, noise, m_ref, rng)
    rhs = float((resid_gap * resid_gap) / sigma_sq + bias_sq / v)
    return CheckReport.bound(
        "theorem1",
        float(lhs),
        rhs,
        {
            "n": data.n,
            "p": data.p,
            "rho": float(rho),
            "pilot_rho": float(pilot_rho),
            "m_boot": int(m_boot),
            "m_ref": int(m_ref),
        },
        slack=REL_SLACK * rhs + ABS_SLACK,
    )


def check_mspe_link(
    data: Dataset,
    beta: np.ndarray,
    noise: NoiseSpec,
    estimator: str,
    reps: int,
    rng: np.random.Generator,
    varrho: Optional[float] = None,
    m_ref: int = DEFAULT_M_REF,
) -> CheckReport:
    """Check that residual-law error is controlled by prediction error.

    Averages the squared distance between the centered residual law and
    the true noise law over fresh noise draws, and compares it against
    twice the exact conditional prediction error plus twice the mean
    squared distance of a raw n-sample of the noise plus ``2 sigma^2/n``.
    ``estimator`` selects how residuals are produced: ``"ridge"`` (pilot
    fit at ``varrho``, which it requires), ``"ols"`` (unpenalized fit), or
    ``"perfect"`` (true coefficients, so residuals equal the noise exactly).
    ``beta`` and ``noise`` are the true coefficients and noise law behind
    ``data``.
    """
    beta = _ground_truth(data, beta, noise)
    if estimator not in ("ridge", "ols", "perfect"):
        raise InputError("estimator must be one of ridge, ols, perfect")
    if reps < 1:
        raise InputError("need at least one repetition")
    _check_sizes(m_ref=m_ref)
    if estimator == "ridge" and varrho is None:
        raise InputError("the ridge estimator needs its pilot penalty varrho")
    sigma_sq = float(noise.sigma) ** 2
    n = data.n

    if estimator == "perfect":
        rho_used, mspe = float("nan"), 0.0
    else:
        if estimator == "ols":
            if not data.fact.full_column_rank:
                raise InputError("ols estimator needs a full-column-rank design")
            rho_used = 0.0
        else:
            rho_used = float(varrho)
        mspe = mspe_exact(data.fact, beta, rho_used, sigma_sq)

    signal = data.X @ beta
    lhs_acc = 0.0
    raw_acc = 0.0
    for _ in range(reps):
        eps = sample_noise(noise, n, rng)
        if estimator == "perfect":
            resid = eps
        else:
            y = signal + eps
            resid = data.fact.residuals(y, rho_used)
        gap = _noise_gap(center_residuals(resid), noise, m_ref, rng)
        lhs_acc += gap * gap
        raw_acc += _raw_gap_sq(noise, n, m_ref, rng)

    rhs = 2.0 * mspe + 2.0 * (raw_acc / reps) + 2.0 * sigma_sq / n
    return CheckReport.bound(
        f"mspe_link_{estimator}",
        lhs_acc / reps,
        rhs,
        {
            "n": n,
            "p": data.p,
            "estimator": estimator,
            "varrho": rho_used,
            "reps": int(reps),
            "m_ref": int(m_ref),
            "mspe": float(mspe),
        },
        slack=REL_SLACK * rhs + ABS_SLACK,
    )


def rate_mspe(
    nu: float,
    n_grid: Sequence[int],
    trials: int,
    rng: np.random.Generator,
) -> RateEstimate:
    """Measure how fast exact prediction error decays under the tuned penalty.

    For each n the design has p = floor(n / 2) columns with
    eigenvalue decay exponent ``nu``, the penalty is n^(1 - theta) with
    theta chosen by the standard rule, and the exact conditional
    prediction error is averaged over fresh designs.  The fitted log-log
    slope is compared against -2 nu / 3 for nu < 1/2 and -nu / (nu + 1)
    for nu > 1/2.
    """
    if nu <= 0:
        raise InputError("decay exponent must be positive")
    grid = _as_grid(n_grid, trials)
    theta = theta_rule(nu)
    values = []
    for n in grid:
        varrho = exponent_to_penalty(n, theta)
        acc = 0.0
        for _ in range(trials):
            X, beta = _draw_design(n, nu, rng)
            acc += mspe_exact(DesignFactorization(X), beta, varrho, _SIGMA_SQ)
        values.append(acc / trials)
    target = -theta
    return _fit_rate(grid, values, target, (target - _BAND_HALFWIDTH, target + _BAND_HALFWIDTH))


def rate_d2_empirical(
    noise: NoiseSpec,
    n_grid: Sequence[int],
    trials: int,
    rng: np.random.Generator,
    m_ref: int = DEFAULT_M_REF,
) -> RateEstimate:
    """Measure the decay of E d2^2(F_n, F) against the log(n) n^(-1/2) envelope.

    Averages the squared distance between a raw n-sample empirical law
    and the noise law over ``trials`` draws per grid point, divides out
    the log(n) factor, and fits the log-log slope against -1/2.

    The envelope is an upper bound under a finite fourth moment, not the
    rate that is attained: for normal noise E d2^2(F_n, F) decays like
    n^(-1) up to a log log n factor, and for t noise on nu degrees of
    freedom like n^(-(1 - 2/nu)), which is n^(-0.6) at nu = 5 (Bobkov &
    Ledoux 2019).  The band is therefore one-sided, (-inf, -1/2 +
    0.15]: the check holds when the distance decays at least
    about as fast as the envelope.  A sample law that differs from the
    noise law leaves E d2^2 at a positive floor, and the slope of
    E d2^2 / log n then tends to about -0.15, outside the band; on a
    grid of 100 to 10,000 a shift of 0.2 SD already fails, 0.1 SD not.

    The reference law is itself an ``m_ref``-sample, whose own error adds
    to every distance and flattens the fit; keep every grid point at
    n <= m_ref / 10 so that this bias stays small.
    """
    grid = _as_grid(n_grid, trials)
    _check_sizes(m_ref=m_ref)
    values = []
    for n in grid:
        acc = 0.0
        for _ in range(trials):
            acc += _raw_gap_sq(noise, n, m_ref, rng)
        mean_sq = acc / trials
        values.append(mean_sq / math.log(max(n, 2)))
    return _fit_rate(grid, values, -0.5, (float("-inf"), -0.5 + _BAND_HALFWIDTH))


def _event_rates(eta: float, gamma: float, theta: float) -> tuple:
    """Reference decay exponents of the variance and mspe events; the bias
    event has the explicit envelope 2 log(n+2) n^(-gamma) instead."""
    var_rate = 1.0 - gamma / eta if eta > 0 else float("-inf")
    pieces = [theta]
    if eta > 0:
        pieces.append(1.0 - theta / eta)
    if eta < 0.5:
        pieces.append(2.0 * (eta - theta))
    mspe_rate = max(min(pieces), 0.0)
    return var_rate, mspe_rate


def check_design_events(
    eta: float,
    gamma: float,
    theta: float,
    n: Union[int, Sequence[int]],
    trials: int,
    rng: np.random.Generator,
    threshold: float = 0.95,
) -> list:
    """Estimate how often random designs satisfy the high-probability events.

    Three events are tracked for each sample size, all at unit-norm
    coefficients and leverage-maximizing row contrasts:

    * bias: max_i (X delta)_i^2 <= 5 ||beta||^2 * 2 log(n+2) * n^(-gamma)
      with the penalty rho = n^(1-gamma); the constant is explicit, no
      calibration involved.
    * variance: max_i 1 / v_i <= kappa * n^(1 - gamma/eta); kappa is set
      to 1.1 times the worst observed ratio at the smallest grid
      size on an independent calibration batch, then frozen.
    * mspe: exact prediction error at varrho = n^(1-theta) stays below a
      calibrated multiple of its reference decay n^(-r), with r derived
      from the bias/variance trade-off at (theta, eta).

    Returns one report per (event, n), with ``lhs`` the required
    frequency ``threshold`` and ``rhs`` the observed frequency.
    """
    if eta <= 0:
        raise InputError("eta must be positive")
    if not (0.0 < gamma < min(eta, 1.0)):
        raise InputError("gamma must lie strictly between 0 and min(eta, 1)")
    grid = tuple(sorted(_as_grid(n, trials, min_points=1)))
    var_rate, mspe_rate = _event_rates(eta, gamma, theta)

    def stats(size: int, gen: np.random.Generator):
        X, beta = _draw_design(size, eta, gen)
        fact = DesignFactorization(X)
        rho = exponent_to_penalty(size, gamma)
        varrho = exponent_to_penalty(size, theta)
        bias_max = float(np.max((X @ fact.bias_vector(beta, rho)) ** 2))
        per_row = _SIGMA_SQ * np.sum((fact.U * (fact.s * fact.gain(rho))) ** 2, axis=1)
        inv_var_max = float(np.max(1.0 / per_row))
        mspe = mspe_exact(fact, beta, varrho, _SIGMA_SQ)
        norm_sq = float(beta @ beta)
        return bias_max, inv_var_max, mspe, norm_sq

    # Calibration pass at the smallest size fixes the two free constants.
    n0 = grid[0]
    var_ratios = []
    mspe_ratios = []
    for _ in range(trials):
        _, inv_var_max, mspe, _ = stats(n0, rng)
        var_ratios.append(inv_var_max / n0 ** var_rate)
        mspe_ratios.append(mspe / n0 ** (-mspe_rate))
    kappa_var = _KAPPA_SAFETY * max(var_ratios)
    kappa_mspe = _KAPPA_SAFETY * max(mspe_ratios)

    reports = []
    base_config = {
        "eta": float(eta),
        "gamma": float(gamma),
        "theta": float(theta),
        "trials": int(trials),
        "kappa_var": float(kappa_var),
        "kappa_mspe": float(kappa_mspe),
    }
    for size in grid:
        bias_bound_unit = 2.0 * math.log(size + 2.0) * size ** (-gamma)
        var_bound = kappa_var * size ** var_rate
        mspe_bound = kappa_mspe * size ** (-mspe_rate)
        hits = np.zeros(3, dtype=np.int64)
        for _ in range(trials):
            bias_max, inv_var_max, mspe, norm_sq = stats(size, rng)
            if bias_max <= 5.0 * norm_sq * bias_bound_unit:
                hits[0] += 1
            if inv_var_max <= var_bound:
                hits[1] += 1
            if mspe <= mspe_bound:
                hits[2] += 1
        freqs = hits / trials
        for label, freq in zip(("bias_event", "variance_event", "mspe_event"), freqs):
            reports.append(CheckReport.bound(label, float(threshold), float(freq),
                                             {**base_config, "n": int(size)}))
    return reports


def check_theorem4(
    eta: float,
    gamma: float,
    theta: float,
    n_grid: Sequence[int],
    design_trials: int,
    noise_reps: int,
    rng: np.random.Generator,
) -> RateEstimate:
    """Track the worst-row normalized bootstrap error across sample sizes.

    For each design the pilot fit at varrho = n^(1-theta) feeds the
    bootstrap at rho = n^(1-gamma); for every row contrast the squared
    Mallows distance between the normalized error law and its bootstrap
    counterpart is estimated with ``noise_reps`` draws per side, the row
    maximum is taken, and the median over ``design_trials`` designs is
    reported per sample size.  The claim under test is a decreasing
    trend, so the target slope is zero with a one-sided band: the fitted
    slope must be negative.

    Designs are drawn from child generators seeded once per (size,
    design) pair, so increasing ``noise_reps`` re-evaluates the same
    designs rather than drawing new ones.  All n row contrasts share one
    set of draws on the design's noise generator.  While noise_reps * n <=
    4,000,000, as under every default and reduced knob, the fresh noise is
    one chunk, so its stream equals one unchunked draw.
    """
    if not (eta / (1.0 + eta) < gamma < min(eta, 1.0)):
        raise InputError("gamma must lie strictly between eta/(1+eta) and min(eta, 1)")
    grid = _as_grid(n_grid, design_trials)
    if noise_reps < 2:
        raise InputError("need at least two noise draws")

    child_seeds = rng.integers(0, 2**63, size=(len(grid), design_trials, 2))

    medians = []
    for gi, size in enumerate(grid):
        rho = exponent_to_penalty(size, gamma)
        varrho = exponent_to_penalty(size, theta)
        worst = np.empty(design_trials, dtype=np.float64)
        for d in range(design_trials):
            gen_design = np.random.default_rng(child_seeds[gi, d, 0])
            gen_noise = np.random.default_rng(child_seeds[gi, d, 1])
            X, beta = _draw_design(size, eta, gen_design)
            data = Dataset(X, X @ beta + sample_noise(_THEOREM4_NOISE, size, gen_design))
            # Column i of X^T is the row contrast X_i.
            gaps, _, _ = _law_gap_sq(data, beta, _THEOREM4_NOISE, X.T, rho, varrho,
                                     noise_reps, gen_noise)
            worst[d] = float(np.max(gaps))
        medians.append(float(np.median(worst)))
    return _fit_rate(grid, medians, 0.0, (float("-inf"), 0.0))


def wishart_square(
    Sigma: np.ndarray,
    n: int,
    mc_samples: int,
    rng: np.random.Generator,
) -> tuple:
    """Return (closed form, Monte Carlo estimate) of E[Sigma_hat^2].

    Sigma_hat is the sample second-moment matrix of n Gaussian rows with
    covariance Sigma; the closed form is (1 + 1/n) Sigma^2 +
    (tr Sigma / n) Sigma.
    """
    Sigma = np.asarray(Sigma, dtype=np.float64)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise InputError("covariance must be a square matrix")
    if not np.allclose(Sigma, Sigma.T, atol=1e-10):
        raise InputError("covariance must be symmetric")
    if n < 1 or mc_samples < 1:
        raise InputError("need positive sample counts")
    p = Sigma.shape[0]
    closed = (1.0 + 1.0 / n) * (Sigma @ Sigma) + (np.trace(Sigma) / n) * Sigma

    eigval, eigvec = np.linalg.eigh(Sigma)
    if np.min(eigval) < -1e-10:
        raise InputError("covariance must be positive semidefinite")
    root = eigvec * np.sqrt(np.clip(eigval, 0.0, None)) @ eigvec.T
    acc = np.zeros((p, p), dtype=np.float64)
    for _ in range(mc_samples):
        Z = rng.standard_normal((n, p))
        X = Z @ root
        S = X.T @ X / n
        acc += S @ S
    return closed, acc / mc_samples


def check_wishart(mc_samples: int, rng: np.random.Generator) -> list:
    """Check the closed form of E[Sigma_hat^2].

    ``wishart_scalar``: in one dimension with n = 1 it is E[x^4] = 3.
    ``wishart_mc``: on a random 3 x 3 covariance at n = 5 it agrees with a
    ``mc_samples``-draw Monte Carlo estimate to 2% in Frobenius norm.
    """
    closed, _ = wishart_square(np.eye(1), 1, 1, rng)
    value = float(closed[0, 0])
    scalar = CheckReport("wishart_scalar", value, 3.0, 3.0 - value, abs(value - 3.0) < 1e-12,
                         {"n": 1, "p": 1})
    G = rng.standard_normal((3, 3))
    closed, mc = wishart_square(G @ G.T / 3.0, 5, mc_samples, rng)
    rel = float(np.linalg.norm(mc - closed) / np.linalg.norm(closed))
    agree = CheckReport.bound("wishart_mc", rel, 0.02,
                              {"n": 5, "p": 3, "mc_samples": int(mc_samples)})
    return [scalar, agree]


def signed_svd(Z: np.ndarray) -> tuple:
    """Thin SVD with a deterministic sign convention on the right factors.

    Each column of G whose leading entry is negative is flipped along
    with the matching column of H, so (H, L, G) is unique whenever the
    singular values are distinct and the first row of G has no zeros.
    L is returned as a diagonal matrix with nonincreasing positive
    entries on the diagonal.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise InputError("need a 2-D matrix")
    H, l, Gt = np.linalg.svd(Z, full_matrices=False)
    G = Gt.T
    signs = np.where(G[0, :] < 0.0, -1.0, 1.0)
    G = G * signs
    H = H * signs
    return H, np.diag(l), G


def check_signed_svd(matrices: int, rng: np.random.Generator) -> list:
    """Check the signed SVD on Gaussian matrices.

    ``signed_svd_reconstruct``: H L G^T rebuilds 50 matrices of 20 x 8 to a
    relative error of 1e-10.  ``signed_svd_row_mass``: over ``matrices``
    draws of 10 x 4, the mean squared norm of the first row of H is p/n = 0.4
    to within 0.01.
    """
    if matrices < 1:
        raise InputError(f"need at least one matrix, got {matrices}")
    worst = 0.0
    for _ in range(50):
        Z = rng.standard_normal((20, 8))
        H, L, G = signed_svd(Z)
        worst = max(worst, float(np.linalg.norm(H @ L @ G.T - Z) / np.linalg.norm(Z)))
    reconstruct = CheckReport.bound("signed_svd_reconstruct", worst, 1e-10, {"n": 20, "p": 8})
    total = 0.0
    for _ in range(matrices):
        H, _, _ = signed_svd(rng.standard_normal((10, 4)))
        total += float(H[0] @ H[0])
    dev = abs(total / matrices - 0.4)
    row_mass = CheckReport.bound("signed_svd_row_mass", dev, 0.01,
                                 {"n": 10, "p": 4, "matrices": int(matrices)})
    return [reconstruct, row_mass]


def lm_tail_check(
    A: np.ndarray,
    t_grid: Sequence[float],
    trials: int,
    rng: np.random.Generator,
) -> list:
    """Empirically validate Gaussian quadratic-form tail bounds.

    For q = z^T A z with standard normal z, the upper event
    q > tr(A) + 2 sqrt(tr(A^2) t) + 2 ||A|| t and the lower event
    q < tr(A) - 2 sqrt(tr(A^2) t) each have probability at most e^(-t).
    Observed frequencies are compared against e^(-t) plus three binomial
    standard errors.  Inequalities are strict, so a zero matrix yields
    zero frequency for both events.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("need a square matrix")
    if not np.allclose(A, A.T, atol=1e-10):
        raise InputError("matrix must be symmetric")
    if trials < 1:
        raise InputError("need at least one trial")
    eigval, eigvec = np.linalg.eigh(A)
    if np.min(eigval) < -1e-10:
        raise InputError("matrix must be positive semidefinite")
    lam = np.clip(eigval, 0.0, None)
    p = A.shape[0]
    tr = float(np.sum(lam))
    tr_sq = float(np.sum(lam * lam))
    op = float(np.max(lam)) if p else 0.0

    W = rng.standard_normal((trials, p))
    q = (W * W) @ lam

    reports = []
    for t in t_grid:
        t = float(t)
        if t <= 0:
            raise InputError("tail levels must be positive")
        upper = tr + 2.0 * math.sqrt(tr_sq * t) + 2.0 * op * t
        lower = tr - 2.0 * math.sqrt(tr_sq * t)
        bound = math.exp(-t)
        se = math.sqrt(bound * (1.0 - bound) / trials)
        freq_up = float(np.mean(q > upper))
        freq_lo = float(np.mean(q < lower))
        for label, freq in (("lm_upper_tail", freq_up), ("lm_lower_tail", freq_lo)):
            reports.append(CheckReport.bound(label, freq, bound,
                                             {"t": t, "trials": int(trials), "n": int(p), "se": se},
                                             slack=3.0 * se))
    return reports
