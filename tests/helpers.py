"""Shared independent oracles for the test suite, and the reduced check knobs.

Every oracle here recomputes a target quantity by a route the library
never uses, so agreement is evidence rather than tautology.
"""

import math

import numpy as np
from scipy.optimize import linprog

from ridgeboot.designs import sample_noise
from ridgeboot.linmodel import DesignFactorization
from ridgeboot.mallows import center_residuals, d2_empirical
from ridgeboot.resampling import rb_contrast_draws
from ridgeboot.theory import _PSI_CHUNK_CELLS, _THEOREM4_NOISE, _draw_design, _noise_gap
from ridgeboot.tuning import exponent_to_penalty

# Knobs that run each check suite in about a second, for tests of the
# report plumbing and of rerun determinism.
REDUCED_KNOBS = {
    "theorem1": {"sweep": 8, "m_boot": 2000, "m_ref": 4000,
                 "settings_m": 2000, "include_settings": 0},
    "mspe-link": {"sweep": 6, "reps": 3, "m_ref": 4000},
    "rates": {"mspe_trials": 2, "d2_trials": 3, "d2_m_ref": 5000,
              "n_max": 128, "d2_n_max": 1000},
    "design-events": {"trials": 8, "n_min": 100, "n_max": 200},
    "theorem4": {"design_trials": 3, "noise_reps": 200, "n_min": 50, "n_max": 100},
    "appendix": {"wishart_mc": 500, "svd_matrices": 100, "lm_trials": 2000},
}


def w2sq_lp(x, y):
    """Squared Wasserstein-2 between empirical laws via the transport LP.

    Variables are the m*k coupling entries; marginals are uniform.
    Solved with HiGHS; exact up to LP tolerance on these tiny instances.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, k = x.size, y.size
    cost = ((x[:, None] - y[None, :]) ** 2).reshape(-1)
    A_eq = np.zeros((m + k, m * k))
    for i in range(m):
        A_eq[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        A_eq[m + j, j::k] = 1.0
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(k, 1.0 / k)])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def ridge_dense(X, Y, rho):
    """Ridge coefficients by an explicit dense normal-equation solve."""
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    return np.linalg.solve(X.T @ X + rho * np.eye(p), X.T @ np.asarray(Y, dtype=float))


def w2sq_merge_loop(x, y):
    """Squared Wasserstein-2 between sorted uniform empiricals by a two-pointer
    walk over the merged breakpoints i*k and j*m (integer units of 1/(m*k))."""
    m, k = len(x), len(y)
    i = j = pos = 0
    total = 0.0
    while i < m and j < k:
        nx, ny = (i + 1) * k, (j + 1) * m
        nxt = min(nx, ny)
        d = float(x[i]) - float(y[j])
        total += (nxt - pos) * d * d
        pos = nxt
        if nxt == nx:
            i += 1
        if nxt == ny:
            j += 1
    return total / (m * k)


def w2sq_union1d(x, y):
    """Squared Wasserstein-2 between sorted uniform empiricals, with the merged
    breakpoints built by ``np.union1d`` and the step indices by binary search.

    The kernel's earlier form, frozen: it evaluates the same integer grid and
    the same final sum, so the library kernel must match it bit for bit.
    """
    m, k = len(x), len(y)
    bx = np.arange(1, m + 1, dtype=np.int64) * k
    by = np.arange(1, k + 1, dtype=np.int64) * m
    edges = np.union1d(bx, by)
    widths = np.diff(edges, prepend=np.int64(0))
    ix = np.searchsorted(bx, edges, side="left")
    iy = np.searchsorted(by, edges, side="left")
    d = x[ix] - y[iy]
    return float(np.sum(widths * (d * d)) / (np.int64(m) * np.int64(k)))


def contrast_draws_loop(atoms, weights, idx):
    """Bootstrap contrasts z_b = sum_i weights[i] * atoms[idx[b, i]], one row at a time."""
    out = np.empty(len(idx))
    for b, row in enumerate(idx):
        acc = 0.0
        for i, j in enumerate(row):
            acc += float(weights[i]) * float(atoms[j])
        out[b] = acc
    return out


def design_two_step(n, p, eta, rng):
    """The design draw as two steps, frozen: first the covariance model (the
    spectrum j^(-eta) and the eigenbasis Q of a sign-fixed Gaussian QR), then
    the rows Z @ Q diag(sqrt(lam)) Q^T."""
    lam = np.arange(1, p + 1, dtype=np.float64) ** (-float(eta))
    G = rng.standard_normal((p, p))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Q = Q * signs
    Z = rng.standard_normal((int(n), p))
    return Z @ ((Q * np.sqrt(lam)) @ Q.T)


def theorem4_medians_loop(eta, gamma, theta, n_grid, design_trials, noise_reps, rng):
    """Per-size medians of the worst-row d2^2 of ``check_theorem4``, by its
    earlier form, frozen: the n x n smoother U diag(s^2/(s^2+rho)) U^T, the
    fresh noise and the bootstrap indices each in one draw, and a loop over
    rows.  The library now draws both laws through the (k, p) contrast engine.
    """
    sigma_sq = _THEOREM4_NOISE.sigma ** 2
    child_seeds = rng.integers(0, 2**63, size=(len(n_grid), design_trials, 2))
    medians = []
    for gi, size in enumerate(n_grid):
        rho = exponent_to_penalty(size, gamma)
        varrho = exponent_to_penalty(size, theta)
        worst = np.empty(design_trials)
        for d in range(design_trials):
            gen_design = np.random.default_rng(child_seeds[gi, d, 0])
            gen_noise = np.random.default_rng(child_seeds[gi, d, 1])
            X, beta = _draw_design(size, eta, gen_design)
            eps = sample_noise(_THEOREM4_NOISE, size, gen_design)
            fact = DesignFactorization(X)
            A = fact.U * fact.shrinkage_diag(rho) @ fact.U.T
            sd = np.sqrt(sigma_sq * np.sum(A * A, axis=1))
            shifts = X @ fact.bias_vector(beta, rho)
            y = X @ beta + eps
            fhat = center_residuals(y - X @ fact.coefficients(y, varrho))
            fresh = sample_noise(_THEOREM4_NOISE, noise_reps * size, gen_noise).reshape(noise_reps, size)
            psi = np.sort((fresh @ A.T - shifts) / sd, axis=0)
            idx = gen_noise.integers(0, fhat.size, size=(noise_reps, size))
            phi = np.sort((fhat[idx] @ A.T) / sd, axis=0)
            row_d2sq = np.empty(size)
            for i in range(size):
                diff = psi[:, i] - phi[:, i]
                row_d2sq[i] = float(diff @ diff) / noise_reps
            worst[d] = float(np.max(row_d2sq))
        medians.append(float(np.median(worst)))
    return medians


def theorem1_sides(data, beta, noise, c, rho, pilot_rho, rng, m_boot, m_ref):
    """(lhs, rhs) of ``check_theorem1`` by its earlier inline form, frozen: the
    variance a @ a, the shift c @ bias, the fresh noise in chunks of
    _PSI_CHUNK_CELLS cells, then the sorted bootstrap law, and the gap as a
    ``d2_empirical`` distance squared.  The library now takes the gap from the
    law-gap helper it shares with ``check_theorem4``.
    """
    sigma_sq = float(noise.sigma) ** 2
    c = np.asarray(c, dtype=float)
    a = data.fact.contrast_weights(c, rho)
    v = sigma_sq * float(a @ a)
    shift = float(c @ data.fact.bias_vector(beta, rho))
    sd = math.sqrt(v)
    n = data.n
    psi = np.empty(m_boot)
    chunk = max(1, _PSI_CHUNK_CELLS // n)
    done = 0
    while done < m_boot:
        take = min(chunk, m_boot - done)
        psi[done:done + take] = sample_noise(noise, take * n, rng).reshape(take, n) @ a
        done += take
    psi = np.sort((psi - shift) / sd)
    phi = np.sort(rb_contrast_draws(data, c, rho, pilot_rho, m_boot, rng) / sd)
    lhs = d2_empirical(psi, phi)
    fhat = center_residuals(data.fact.residuals(data.Y, float(pilot_rho)))
    resid_gap = _noise_gap(fhat, noise, m_ref, rng)
    return lhs * lhs, resid_gap * resid_gap / sigma_sq + shift * shift / v


def ridge_lstsq(X, Y, rho):
    """Ridge coefficients by least squares on the stacked system [X; sqrt(rho) I].

    No normal equations are formed, so penalties far below the squared
    singular values keep their digits.
    """
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    A = np.vstack([X, np.sqrt(rho) * np.eye(p)])
    b = np.concatenate([np.asarray(Y, dtype=float), np.zeros(p)])
    return np.linalg.lstsq(A, b, rcond=None)[0]


def cv_scores_refit(X, Y, grid, folds, perm, fit=ridge_dense):
    """K-fold CV scores by refitting every training fold with ``fit``
    (``ridge_dense`` by default).

    Blocks are the contiguous cuts of ``perm`` that ``cv_select`` uses (the
    last absorbs the remainder); each score is the mean over folds of the
    held-out mean squared error.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    base = n // folds
    scores = np.zeros(len(grid))
    for f in range(folds):
        stop = (f + 1) * base if f < folds - 1 else n
        hold = perm[f * base:stop]
        train = np.setdiff1d(np.arange(n), hold)
        for g, rho in enumerate(grid):
            resid = Y[hold] - X[hold] @ fit(X[train], Y[train], rho)
            scores[g] += resid @ resid / hold.size
    return scores / folds
