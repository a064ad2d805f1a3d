"""Shared independent oracles for the test suite.

Everything in here recomputes a target quantity by a route the library
never uses, so agreement is evidence rather than tautology.
"""

import numpy as np
from scipy.optimize import linprog


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


def contrast_draws_loop(atoms, weights, idx):
    """Bootstrap contrasts z_b = sum_i weights[i] * atoms[idx[b, i]], one row at a time."""
    out = np.empty(len(idx))
    for b, row in enumerate(idx):
        acc = 0.0
        for i, j in enumerate(row):
            acc += float(weights[i]) * float(atoms[j])
        out[b] = acc
    return out
