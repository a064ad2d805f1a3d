"""Synthetic near low-rank Gaussian designs, coefficient vectors, and noise laws.

Population covariance: eigenvalues j^(-eta) in a random orthogonal eigenbasis
(Q factor of a seeded Gaussian QR, sign-fixed so the R diagonal is nonnegative).
Noise families all satisfy the finite-fourth-moment requirement of the
empirical-law convergence rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, MomentConditionError
from .linmodel import Dataset

NOISE_FAMILIES = ("scaled_t", "normal", "two_point")


@dataclass(frozen=True)
class NoiseSpec:
    """Centered noise law with target standard deviation sigma.

    Families: "scaled_t" (t on `dof` degrees of freedom rescaled to SD sigma,
    dof > 4 so the fourth moment is finite), "normal", "two_point" (equal mass
    at +-sigma).
    """

    family: str = "scaled_t"
    sigma: float = 1.0
    dof: float = 5.0

    def __post_init__(self) -> None:
        if self.family not in NOISE_FAMILIES:
            raise InputError(f"noise family {self.family!r} is not one of {', '.join(NOISE_FAMILIES)}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise InputError("sigma must be a finite nonnegative real")
        if self.family == "scaled_t" and not self.dof > 4:
            raise MomentConditionError("t noise requires dof > 4 for a finite fourth moment")
        if not np.isfinite(self.dof):
            raise InputError("noise dof must be finite")


def covariance_root(p: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Sigma^(1/2) = Q diag(j^(-eta/2)) Q^T for a seeded random orthogonal Q."""
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise InputError("p must be a positive integer")
    if not (np.isfinite(eta) and eta >= 0):
        raise InputError("eta must be a finite nonnegative real")
    lam = np.arange(1, p + 1, dtype=np.float64) ** (-float(eta))
    G = rng.standard_normal((p, p))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Q = Q * signs
    return (Q * np.sqrt(lam)) @ Q.T


def sample_design(n: int, p: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. rows from N(0, Sigma): X = Z Sigma^(1/2).

    Stream order is fixed: the eigenbasis is drawn first, then the rows."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InputError("n must be a positive integer")
    root = covariance_root(p, eta, rng)
    return rng.standard_normal((int(n), root.shape[0])) @ root


def sample_noise(spec: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws with mean 0 and standard deviation spec.sigma, in a fresh array."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InputError("n must be a positive integer")
    n = int(n)
    # Scaled in place, so no n-length temporaries beyond the draws themselves.
    if spec.family == "scaled_t":
        # t draw = normal / sqrt(chi2/dof); Var(t_dof) = dof/(dof-2).
        z = rng.standard_normal(n)
        w = rng.chisquare(spec.dof, n)
        w /= spec.dof
        np.sqrt(w, out=w)
        z /= w
        z *= spec.sigma / np.sqrt(spec.dof / (spec.dof - 2.0))
        return z
    if spec.family == "normal":
        z = rng.standard_normal(n)
        z *= spec.sigma
        return z
    z = 2.0 * rng.integers(0, 2, n)
    z -= 1.0
    z *= spec.sigma
    return z


def make_beta(p: int) -> np.ndarray:
    """Coefficient vector: the all-ones direction at unit norm."""
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise InputError("p must be a positive integer")
    return np.full(int(p), 1.0 / np.sqrt(p))


def generate_dataset(
    n: int,
    eta: float,
    beta: np.ndarray,
    spec: NoiseSpec,
    rng: np.random.Generator,
) -> Dataset:
    """Dataset Y = X beta + eps with X and eps independent; sigma = 0 gives
    the noiseless response.

    Stream order is fixed: the design is drawn first, then the noise.
    """
    beta = np.asarray(beta, dtype=np.float64)
    X = sample_design(n, beta.size, eta, rng)
    eps = sample_noise(spec, n, rng)
    return Dataset(X=X, Y=X @ beta + eps)
