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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .designs import CovarianceModel, NoiseSpec, make_beta, make_covariance, sample_design
from .errors import DegenerateContrastError, InputError
from .linmodel import (
    Dataset,
    DesignFactorization,
    bias_vector,
    mspe_exact,
    ridge_fit,
    theta_rule,
)
from .mallows import EmpiricalDistribution, center_residuals, d2_empirical, d2_to_reference
from .tuning import cv_select, exponent_to_penalty

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
    "signed_svd",
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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    ``holds`` records whether ``lhs <= rhs`` up to the slack stored in
    ``config``; ``margin`` is ``rhs - lhs`` so positive means comfortable.
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


def _fit_slope(n_grid: Sequence[float], values: Sequence[float]) -> float:
    logs_n = np.log(np.asarray(n_grid, dtype=np.float64))
    logs_v = np.log(np.asarray(values, dtype=np.float64))
    slope, _ = np.polyfit(logs_n, logs_v, 1)
    return float(slope)


def _as_grid(n: Union[int, Sequence[int]]) -> tuple:
    if np.isscalar(n):
        return (int(n),)
    grid = tuple(int(v) for v in n)
    if not grid:
        raise InputError("empty sample-size grid")
    return grid


def _sorted_draw(sampler: Callable, rng: np.random.Generator, size: int) -> np.ndarray:
    values = np.asarray(sampler(rng, size), dtype=np.float64)
    values.sort()
    return values


def check_theorem1(
    data: Dataset,
    noise: NoiseSpec,
    c: np.ndarray,
    rho: float,
    pilot_rho: float,
    rng: np.random.Generator,
    m_boot: int = DEFAULT_M_BOOT,
    m_ref: int = DEFAULT_M_REF,
    rel_slack: float = REL_SLACK,
    abs_slack: float = ABS_SLACK,
) -> CheckReport:
    """Compare the bootstrap law of a contrast error against its transfer bound.

    Left side: squared Mallows distance between the normalized sampling
    law of the contrast error and the normalized bootstrap law built
    from centered pilot residuals.  Right side: squared residual-law
    distance to the true noise law scaled by 1/sigma^2, plus the squared
    normalized ridge bias.  The inequality holds for every design, so a
    single seeded run is a meaningful check.
    """
    if data.beta_true is None or data.sigma_true is None:
        raise InputError("theorem check needs a simulation-mode dataset")
    if noise.sigma <= 0:
        raise InputError("noise scale must be positive for this check")
    beta = data.beta_true
    sigma_sq = float(data.sigma_true) ** 2
    fact = DesignFactorization(data.X)

    a = fact.contrast_weights(np.asarray(c, dtype=np.float64), rho)
    v = sigma_sq * float(a @ a)
    if v <= 0.0:
        raise DegenerateContrastError("contrast has zero variance at this penalty")
    delta = bias_vector(fact, beta, rho)
    shift = float(np.asarray(c, dtype=np.float64) @ delta)
    bias_sq = shift * shift
    sd = math.sqrt(v)

    n = data.n
    # Fresh-noise law of the centered contrast error, normalized.
    sampler = noise.sampler()
    psi = np.empty(m_boot, dtype=np.float64)
    chunk = max(1, int(4_000_000 // max(n, 1)))
    done = 0
    while done < m_boot:
        take = min(chunk, m_boot - done)
        eps = sampler(rng, take * n).reshape(take, n)
        psi[done : done + take] = eps @ a
        done += take
    psi -= shift
    psi /= sd
    psi.sort()

    # Bootstrap law from centered pilot residuals, same normalization.
    pilot = ridge_fit(data, pilot_rho, fact=fact)
    fhat = center_residuals(pilot.residuals)
    idx = rng.integers(0, fhat.size, size=(m_boot, n))
    phi = _kernels.contrast_draws(fhat.atoms, a, idx) / sd
    phi.sort()

    lhs = d2_empirical(
        EmpiricalDistribution(atoms=psi, centered=False),
        EmpiricalDistribution(atoms=phi, centered=False),
    )
    lhs_sq = lhs * lhs

    resid_gap = d2_to_reference(fhat, sampler, m_ref, rng)
    rhs = (resid_gap * resid_gap) / sigma_sq + bias_sq / v

    tol = rel_slack * rhs + abs_slack
    return CheckReport(
        name="theorem1",
        lhs=lhs_sq,
        rhs=rhs,
        margin=rhs - lhs_sq,
        holds=lhs_sq <= rhs + tol,
        config={
            "n": n,
            "p": data.p,
            "rho": float(rho),
            "pilot_rho": float(pilot_rho),
            "m_boot": int(m_boot),
            "m_ref": int(m_ref),
            "rel_slack": float(rel_slack),
            "abs_slack": float(abs_slack),
        },
    )


def check_mspe_link(
    data: Dataset,
    noise: NoiseSpec,
    estimator: str,
    reps: int,
    rng: np.random.Generator,
    varrho: Optional[float] = None,
    m_ref: int = DEFAULT_M_REF,
    rel_slack: float = REL_SLACK,
    abs_slack: float = ABS_SLACK,
) -> CheckReport:
    """Check that residual-law error is controlled by prediction error.

    Averages the squared distance between the centered residual law and
    the true noise law over fresh noise draws, and compares it against
    twice the exact conditional prediction error plus twice the mean
    squared distance of a raw n-sample of the noise plus ``2 sigma^2/n``.
    ``estimator`` selects how residuals are produced: ``"ridge"`` (pilot
    fit at ``varrho``), ``"ols"`` (unpenalized fit), or ``"perfect"``
    (true coefficients, so residuals equal the noise exactly).
    """
    if data.beta_true is None or data.sigma_true is None:
        raise InputError("mspe link check needs a simulation-mode dataset")
    if estimator not in ("ridge", "ols", "perfect"):
        raise InputError("estimator must be one of ridge, ols, perfect")
    if reps < 1:
        raise InputError("need at least one repetition")
    X = data.X
    beta = data.beta_true
    sigma_sq = float(data.sigma_true) ** 2
    n = data.n
    fact = DesignFactorization(X)

    if estimator == "ridge":
        if varrho is None:
            varrho = cv_select(data, rng=rng).pilot_rho
        mspe = mspe_exact(X, beta, varrho, sigma_sq)
        coef_map = fact.coefficients
        rho_used = float(varrho)
    elif estimator == "ols":
        if not fact.full_column_rank or data.p > n:
            raise InputError("ols estimator needs a full-column-rank design")
        mspe = mspe_exact(X, beta, 0.0, sigma_sq)
        coef_map = fact.coefficients
        rho_used = 0.0
    else:
        mspe = 0.0
        coef_map = None
        rho_used = float("nan")

    signal = X @ beta
    sampler = noise.sampler()
    lhs_acc = 0.0
    raw_acc = 0.0
    for _ in range(reps):
        eps = sampler(rng, n)
        if coef_map is None:
            resid = eps
        else:
            y = signal + eps
            coef = coef_map(y, rho_used)
            resid = y - X @ coef
        gap = d2_to_reference(center_residuals(resid), sampler, m_ref, rng)
        lhs_acc += gap * gap

        raw = _sorted_draw(sampler, rng, n)
        raw_gap = d2_to_reference(
            EmpiricalDistribution(atoms=raw, centered=False), sampler, m_ref, rng
        )
        raw_acc += raw_gap * raw_gap

    lhs = lhs_acc / reps
    rhs = 2.0 * mspe + 2.0 * (raw_acc / reps) + 2.0 * sigma_sq / n
    tol = rel_slack * rhs + abs_slack
    return CheckReport(
        name=f"mspe_link_{estimator}",
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        holds=lhs <= rhs + tol,
        config={
            "n": n,
            "p": data.p,
            "estimator": estimator,
            "varrho": rho_used,
            "reps": int(reps),
            "m_ref": int(m_ref),
            "mspe": float(mspe),
            "rel_slack": float(rel_slack),
            "abs_slack": float(abs_slack),
        },
    )


def rate_mspe(
    nu: float,
    n_grid: Sequence[int],
    trials: int,
    rng: np.random.Generator,
    ratio: float = 0.5,
    sigma_sq: float = 1.0,
    band_halfwidth: float = 0.15,
) -> RateEstimate:
    """Measure how fast exact prediction error decays under the tuned penalty.

    For each n the design has p = floor(ratio * n) columns with
    eigenvalue decay exponent ``nu``, the penalty is n^(1 - theta) with
    theta chosen by the standard rule, and the exact conditional
    prediction error is averaged over fresh designs.  The fitted log-log
    slope is compared against -2 nu / 3 for nu < 1/2 and -nu / (nu + 1)
    for nu > 1/2.
    """
    if nu <= 0:
        raise InputError("decay exponent must be positive")
    grid = _as_grid(n_grid)
    if len(grid) < 2:
        raise InputError("rate fit needs at least two sample sizes")
    if trials < 1:
        raise InputError("need at least one trial per sample size")
    theta = theta_rule(nu)
    values = []
    for n in grid:
        p = max(2, int(math.floor(ratio * n)))
        varrho = exponent_to_penalty(n, theta)
        acc = 0.0
        for _ in range(trials):
            cov = make_covariance(p, nu, rng)
            X = sample_design(n, cov, rng)
            beta = make_beta(p)
            acc += mspe_exact(X, beta, varrho, sigma_sq)
        values.append(acc / trials)
    slope = _fit_slope(grid, values)
    if nu < 0.5:
        target = -2.0 * nu / 3.0
    elif nu > 0.5:
        target = -nu / (nu + 1.0)
    else:
        target = -1.0 / 3.0
    return RateEstimate(
        n_grid=grid,
        values=tuple(values),
        fitted_slope=slope,
        target_slope=target,
        band=(target - band_halfwidth, target + band_halfwidth),
    )


def rate_d2_empirical(
    noise: NoiseSpec,
    n_grid: Sequence[int],
    trials: int,
    rng: np.random.Generator,
    m_ref: int = DEFAULT_M_REF,
    band_halfwidth: float = 0.15,
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
    band_halfwidth]: the check holds when the distance decays at least
    about as fast as the envelope.  A sample law that differs from the
    noise law leaves E d2^2 at a positive floor, and the slope of
    E d2^2 / log n then tends to about -0.15, outside the band; on a
    grid of 100 to 10,000 a shift of 0.2 SD already fails, 0.1 SD not.

    The reference law is itself an ``m_ref``-sample, whose own error adds
    to every distance and flattens the fit; keep every grid point at
    n <= m_ref / 10 so that this bias stays small.
    """
    grid = _as_grid(n_grid)
    if len(grid) < 2:
        raise InputError("rate fit needs at least two sample sizes")
    if trials < 1:
        raise InputError("need at least one trial per sample size")
    sampler = noise.sampler()
    values = []
    for n in grid:
        acc = 0.0
        for _ in range(trials):
            raw = _sorted_draw(sampler, rng, n)
            gap = d2_to_reference(
                EmpiricalDistribution(atoms=raw, centered=False), sampler, m_ref, rng
            )
            acc += gap * gap
        mean_sq = acc / trials
        values.append(mean_sq / math.log(max(n, 2)))
    slope = _fit_slope(grid, values)
    target = -0.5
    return RateEstimate(
        n_grid=grid,
        values=tuple(values),
        fitted_slope=slope,
        target_slope=target,
        band=(float("-inf"), target + band_halfwidth),
    )


def _event_rates(eta: float, gamma: float, theta: float) -> tuple:
    """Reference decay exponents for the three per-design events."""
    bias_rate = gamma  # relative to the explicit 2 log(n+2) n^(-gamma) envelope
    var_rate = 1.0 - gamma / eta if eta > 0 else float("-inf")
    pieces = [theta]
    if eta > 0:
        pieces.append(1.0 - theta / eta)
    if eta < 0.5:
        pieces.append(2.0 * (eta - theta))
    mspe_rate = max(min(pieces), 0.0)
    return bias_rate, var_rate, mspe_rate


def check_design_events(
    eta: float,
    gamma: float,
    theta: float,
    n: Union[int, Sequence[int]],
    trials: int,
    rng: np.random.Generator,
    ratio: float = 0.5,
    sigma_sq: float = 1.0,
    safety: float = 1.1,
    threshold: float = 0.95,
) -> list:
    """Estimate how often random designs satisfy the high-probability events.

    Three events are tracked for each sample size, all at unit-norm
    coefficients and leverage-maximizing row contrasts:

    * bias: max_i (X delta)_i^2 <= 5 ||beta||^2 * 2 log(n+2) * n^(-gamma)
      with the penalty rho = n^(1-gamma); the constant is explicit, no
      calibration involved.
    * variance: max_i 1 / v_i <= kappa * n^(1 - gamma/eta); kappa is set
      to ``safety`` times the worst observed ratio at the smallest grid
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
    if trials < 1:
        raise InputError("need at least one design per sample size")
    grid = tuple(sorted(_as_grid(n)))
    _, var_rate, mspe_rate = _event_rates(eta, gamma, theta)

    def draw_case(size: int, gen: np.random.Generator):
        p = max(2, int(math.floor(ratio * size)))
        cov = make_covariance(p, eta, gen)
        X = sample_design(size, cov, gen)
        beta = make_beta(p)
        return X, beta

    def stats(size: int, gen: np.random.Generator):
        X, beta = draw_case(size, gen)
        fact = DesignFactorization(X)
        rho = exponent_to_penalty(size, gamma)
        varrho = exponent_to_penalty(size, theta)
        delta = bias_vector(fact, beta, rho)
        bias_max = float(np.max((X @ delta) ** 2))
        gain = fact.s / (fact.s * fact.s + rho)
        per_row = sigma_sq * np.sum((fact.U * (fact.s * gain)) ** 2, axis=1)
        inv_var_max = float(np.max(1.0 / per_row))
        mspe = mspe_exact(fact, beta, varrho, sigma_sq)
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
    kappa_var = safety * max(var_ratios)
    kappa_mspe = safety * max(mspe_ratios)

    reports = []
    base_config = {
        "eta": float(eta),
        "gamma": float(gamma),
        "theta": float(theta),
        "trials": int(trials),
        "ratio": float(ratio),
        "sigma_sq": float(sigma_sq),
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
            reports.append(
                CheckReport(
                    name=label,
                    lhs=float(threshold),
                    rhs=float(freq),
                    margin=float(freq) - float(threshold),
                    holds=float(threshold) <= float(freq),
                    config={**base_config, "n": int(size)},
                )
            )
    return reports


def check_theorem4(
    eta: float,
    gamma: float,
    theta: float,
    n_grid: Sequence[int],
    design_trials: int,
    noise_reps: int,
    rng: np.random.Generator,
    noise: Optional[NoiseSpec] = None,
    ratio: float = 0.5,
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
    designs rather than drawing new ones.
    """
    if not (eta / (1.0 + eta) < gamma < min(eta, 1.0)):
        raise InputError("gamma must lie strictly between eta/(1+eta) and min(eta, 1)")
    grid = _as_grid(n_grid)
    if len(grid) < 2:
        raise InputError("trend check needs at least two sample sizes")
    if design_trials < 1 or noise_reps < 2:
        raise InputError("need at least one design and two noise draws")
    if noise is None:
        noise = NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0)
    if noise.sigma <= 0:
        raise InputError("noise scale must be positive for this check")
    sampler = noise.sampler()
    sigma_sq = noise.sigma ** 2

    child_seeds = rng.integers(0, 2**63, size=(len(grid), design_trials, 2))

    medians = []
    for gi, size in enumerate(grid):
        p = max(2, int(math.floor(ratio * size)))
        rho = exponent_to_penalty(size, gamma)
        varrho = exponent_to_penalty(size, theta)
        worst = np.empty(design_trials, dtype=np.float64)
        for d in range(design_trials):
            gen_design = np.random.default_rng(child_seeds[gi, d, 0])
            gen_noise = np.random.default_rng(child_seeds[gi, d, 1])
            cov = make_covariance(p, eta, gen_design)
            X = sample_design(size, cov, gen_design)
            beta = make_beta(p)
            eps = sampler(gen_design, size)
            fact = DesignFactorization(X)

            # Smoother rows: row i of U diag(s^2/(s^2+rho)) U^T are the
            # contrast weights a_i for every row contrast at once.
            shrink = fact.s * fact.s / (fact.s * fact.s + rho)
            A = fact.U * shrink @ fact.U.T
            v = sigma_sq * np.sum(A * A, axis=1)
            delta = bias_vector(fact, beta, rho)
            shifts = X @ delta
            sd = np.sqrt(v)

            y = X @ beta + eps
            resid = y - X @ fact.coefficients(y, varrho)
            fhat = center_residuals(resid)

            fresh = sampler(gen_noise, noise_reps * size).reshape(noise_reps, size)
            psi = (fresh @ A.T - shifts) / sd
            idx = gen_noise.integers(0, fhat.size, size=(noise_reps, size))
            boot = fhat.atoms[idx]
            phi = (boot @ A.T) / sd
            psi = np.sort(psi, axis=0)
            phi = np.sort(phi, axis=0)
            row_d2sq = np.empty(size, dtype=np.float64)
            for i in range(size):
                diff = psi[:, i] - phi[:, i]
                row_d2sq[i] = float(diff @ diff) / noise_reps
            worst[d] = float(np.max(row_d2sq))
        medians.append(float(np.median(worst)))

    slope = _fit_slope(grid, medians)
    return RateEstimate(
        n_grid=grid,
        values=tuple(medians),
        fitted_slope=slope,
        target_slope=0.0,
        band=(float("-inf"), 0.0),
    )


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
            limit = bound + 3.0 * se
            reports.append(
                CheckReport(
                    name=label,
                    lhs=freq,
                    rhs=bound,
                    margin=bound - freq,
                    holds=freq <= limit,
                    config={"t": t, "trials": int(trials), "dim": int(p), "se": se},
                )
            )
    return reports
