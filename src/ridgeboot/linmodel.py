"""Deterministic linear-model computations: ridge/OLS coefficients and
residuals, leverage scores, contrast weights, the ridge bias vector and the
exact prediction error.

Everything penalty-dependent is computed from one thin SVD of the design,
reused across penalties (the harness evaluates many penalties per design).
Penalties are always on the raw scale of (X^T X + rho I); the exponent form
rho = n^(1-gamma) is converted by ``exponent_to_penalty``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SingularSystemError

# Relative threshold under which a singular value is treated as zero.
_RANK_RTOL = 1e-12


def _as_matrix(X: np.ndarray, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InputError(f"{name} must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise InputError(f"{name} must be finite")
    return X


def _as_vector(v: np.ndarray, length: int | None, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InputError(f"{name} must be 1-D")
    if length is not None and v.size != length:
        raise InputError(f"{name} must have length {length}")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class Dataset:
    """Design/response pair.

    ``fact``, the SVD of X, is built on first use without a lock: threads that
    share one dataset may each build it, so build it before they start."""

    X: np.ndarray
    Y: np.ndarray
    _svd: DesignFactorization | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        X = _as_matrix(self.X)
        Y = _as_vector(self.Y, X.shape[0], "Y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def fact(self) -> DesignFactorization:
        """Thin SVD of X, shared across every penalty evaluated on this design."""
        if self._svd is None:
            object.__setattr__(self, "_svd", DesignFactorization(self.X))
        return self._svd

    def with_response(self, Y: np.ndarray) -> Dataset:
        """The same design with response Y, sharing this dataset's
        factorization (built here if it is not yet)."""
        other = Dataset(self.X, Y)
        object.__setattr__(other, "_svd", self.fact)
        return other


class DesignFactorization:
    """Thin SVD of a design, shared across every penalty evaluated on it."""

    def __init__(self, X: np.ndarray):
        X = _as_matrix(X)
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        self.X = X
        self.U = U
        self.s = s
        self.Vt = Vt
        self.n, self.p = X.shape

    @property
    def full_column_rank(self) -> bool:
        if self.p > self.n:
            return False
        return bool(self.s[-1] > _RANK_RTOL * max(self.s[0], 1e-300))

    def _check_rho(self, rho: float) -> None:
        """A penalty is finite and nonnegative; rho = 0 needs full column rank."""
        if not (np.isfinite(rho) and rho >= 0):
            raise InputError(f"rho must be a finite nonnegative real, got {rho}")
        if rho == 0.0 and not self.full_column_rank:
            raise SingularSystemError("rho = 0 requires a full-column-rank design with p <= n")

    def gain(self, rho: float) -> np.ndarray:
        """Ridge filter s_i / (s_i^2 + rho): the diagonal of (X^T X + rho I)^{-1} X^T."""
        self._check_rho(rho)
        if rho == 0.0:
            return 1.0 / self.s
        return self.s / (self.s * self.s + rho)

    def coefficients(self, Y: np.ndarray, rho: float) -> np.ndarray:
        """Solve (X^T X + rho I) beta = X^T Y."""
        g = self.gain(rho)
        return self.Vt.T @ (g * (self.U.T @ Y))

    def residuals(self, Y: np.ndarray, rho: float) -> np.ndarray:
        """Ridge (OLS at rho = 0) residuals Y - X beta_rho."""
        return Y - self.X @ self.coefficients(Y, rho)

    def contrast_weights(self, c: np.ndarray, rho: float) -> np.ndarray:
        """Row vector a = c^T (X^T X + rho I)^{-1} X^T as a length-n array.

        ``c`` is one contrast, shape (p,), or k contrasts as the columns of a
        (p, k) matrix, whose weights come back as the columns of an (n, k)
        matrix.  Any other shape, or a non-finite entry, is an InputError.
        """
        c = np.asarray(c, dtype=np.float64)
        shape_ok = c.ndim in (1, 2) and c.shape[0] == self.p and c.size > 0
        if not (shape_ok and np.all(np.isfinite(c))):
            raise InputError("contrast must be a finite length-p vector")
        g = self.gain(rho)
        if c.ndim == 2:
            g = g[:, None]
        return self.U @ (g * (self.Vt @ c))

    def shrinkage_diag(self, rho: float) -> np.ndarray:
        """Diagonal factors s_i^2 / (s_i^2 + rho) of the prediction smoother."""
        self._check_rho(rho)
        if rho == 0.0:
            return np.ones_like(self.s)
        return self.s * self.s / (self.s * self.s + rho)

    def bias_vector(self, beta: np.ndarray, rho: float) -> np.ndarray:
        """delta(X) = [I - (X^T X + rho I)^{-1} X^T X] beta."""
        shrink = self.shrinkage_diag(rho)
        return beta - self.Vt.T @ (shrink * (self.Vt @ beta))

    def leverage(self) -> np.ndarray:
        if not self.full_column_rank:
            cause = (f"p = {self.p} exceeds n = {self.n}" if self.p > self.n else
                     f"the design is numerically rank-deficient (singular values "
                     f"{self.s[-1]:.3g} to {self.s[0]:.3g})")
            raise SingularSystemError(f"leverage scores need full column rank: {cause}")
        return np.sum(self.U * self.U, axis=1)


def mspe_exact(
    fact: DesignFactorization, beta: np.ndarray, varrho: float, sigma_sq: float
) -> float:
    """Exact conditional MSPE of the ridge estimator at raw penalty varrho.

    (1/n)||X(E[beta_hat | X] - beta)||^2 + (sigma^2/n) * sum_i (l_i/(l_i + varrho/n))^2
    with l_i the eigenvalues of X^T X / n; the variance term carries sigma^2 so
    both terms have the units of a squared response.
    """
    beta = _as_vector(beta, fact.p, "beta")
    if not (np.isfinite(varrho) and varrho >= 0):
        raise InputError("varrho must be a finite nonnegative real")
    if not (np.isfinite(sigma_sq) and sigma_sq > 0):
        raise InputError("sigma_sq must be positive")
    n = fact.n
    shrink = fact.shrinkage_diag(float(varrho))  # l_i/(l_i + varrho/n) = s_i^2/(s_i^2 + varrho)
    if varrho == 0.0:
        bias_term = 0.0
    else:
        delta = fact.bias_vector(beta, float(varrho))
        xd = fact.X @ delta
        bias_term = float(xd @ xd) / n
    var_term = sigma_sq / n * float(shrink @ shrink)
    return bias_term + var_term


def exponent_to_penalty(n: int, exponent: float) -> float:
    """Raw penalty n * n^(-exponent) = n^(1-exponent)."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InputError("n must be a positive integer")
    if not (np.isfinite(exponent) and exponent > 0):
        raise InputError("exponent must be positive")
    return float(n) ** (1.0 - float(exponent))


def theta_rule(nu: float) -> float:
    """Pilot-penalty exponent theta as a function of the decay exponent nu."""
    if not (np.isfinite(nu) and nu > 0):
        raise InputError("nu must be positive")
    if nu < 0.5:
        return 2.0 * nu / 3.0
    if nu > 0.5:
        return nu / (nu + 1.0)
    return 1.0 / 3.0


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a headerless CSV of decimal floats as a 2-D array (rows = observations);
    a non-numeric cell or ragged rows are an InputError, a missing file an OSError."""
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"{path} is not a numeric CSV matrix: {exc}") from exc
    if arr.size == 0:
        raise InputError(f"{path} is empty")
    return arr


def read_vector_csv(path: str) -> np.ndarray:
    """Read a single-column (or single-row) CSV as a 1-D vector."""
    arr = read_matrix_csv(path)
    if 1 not in arr.shape:
        raise InputError(f"{path} does not hold a vector")
    return arr.reshape(-1)
