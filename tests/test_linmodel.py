"""Ridge/OLS coefficients and residuals, leverage, and the bias/variance/MSPE functionals."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import ridgeboot
from helpers import ridge_dense
from ridgeboot.errors import InputError, SingularSystemError
from ridgeboot.linmodel import (
    Dataset,
    DesignFactorization,
    mspe_exact,
    read_matrix_csv,
    read_vector_csv,
    theta_rule,
)


def make_data(n, p, seed, rho_for_beta=None):
    """(dataset, beta, eps) with Y = X beta + eps."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    eps = rng.standard_normal(n) * 0.5
    return Dataset(X, X @ beta + eps), beta, eps


# ---------------------------------------------------------------------------
# fits against dense oracles

def test_ridge_two_by_two_oracle():
    X = np.array([[1.0, 0.0], [1.0, 1.0]])
    Y = np.array([1.0, 2.0])
    coef = DesignFactorization(X).coefficients(Y, 0.5)
    np.testing.assert_allclose(coef, ridge_dense(X, Y, 0.5), rtol=1e-12)


def test_ols_identity_design():
    coef = DesignFactorization(np.eye(2)).coefficients(np.array([3.0, -1.0]), 0.0)
    np.testing.assert_allclose(coef, [3.0, -1.0], atol=1e-12)


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 3))
    Y = rng.standard_normal(6)
    coef = DesignFactorization(X).coefficients(Y, 0.0)
    want = np.linalg.solve(X.T @ X, X.T @ Y)
    np.testing.assert_allclose(coef, want, rtol=1e-9)


def test_fit_identities():
    data, beta, eps = make_data(12, 5, seed=3)
    for rho in (0.01, 1.0, 50.0):
        coef = data.fact.coefficients(data.Y, rho)
        resid = data.fact.residuals(data.Y, rho)
        np.testing.assert_allclose(data.X @ coef + resid, data.Y, rtol=1e-10)
        np.testing.assert_allclose(resid, data.Y - data.X @ coef, atol=1e-10)
        # residual identity e_hat - eps = X(beta - beta_hat)
        lhs = resid - eps
        rhs = data.X @ (beta - coef)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_coefficient_norm_shrinks_with_penalty():
    data, _, _ = make_data(15, 6, seed=9)
    rhos = (0.1, 1.0, 10.0, 100.0)
    norms = [np.linalg.norm(data.fact.coefficients(data.Y, rho)) for rho in rhos]
    assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))


def test_ridge_small_penalty_approaches_ols():
    data, _, _ = make_data(20, 4, seed=21)
    ridge = data.fact.coefficients(data.Y, 1e-10)
    ols = data.fact.coefficients(data.Y, 0.0)
    assert np.max(np.abs(ridge - ols)) <= 1e-6


def test_ridge_penalty_validation():
    data, _, _ = make_data(6, 2, seed=1)
    fact = DesignFactorization(data.X)
    for rho in (-1.0, np.inf, np.nan):
        for call in (lambda r: fact.residuals(data.Y, r), fact.gain, fact.shrinkage_diag):
            with pytest.raises(InputError):
                call(rho)
    # rho = 0 is OLS and demands full column rank, so p <= n
    with pytest.raises(SingularSystemError):
        DesignFactorization(np.ones((4, 2))).residuals(np.ones(4), 0.0)
    with pytest.raises(SingularSystemError):
        DesignFactorization(np.eye(2, 3)).residuals(np.ones(2), 0.0)
    np.testing.assert_allclose(
        DesignFactorization(np.eye(2)).coefficients(np.array([2.0, 4.0]), 1.0), [1.0, 2.0]
    )


# ---------------------------------------------------------------------------
# leverage

def leverage_and_argmax(X):
    scores = DesignFactorization(X).leverage()
    return scores, int(np.argmax(scores))


def test_leverage_matches_projector():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 3))
    scores, istar = leverage_and_argmax(X)
    H = X @ np.linalg.inv(X.T @ X) @ X.T
    np.testing.assert_allclose(scores, np.diag(H), atol=1e-10)
    assert scores.sum() == pytest.approx(3.0, abs=1e-9)
    assert istar == int(np.argmax(np.diag(H)))
    assert np.all(scores > 0) and np.all(scores <= 1 + 1e-12)


def test_leverage_requires_full_rank():
    X = np.ones((4, 2))  # rank 1
    with pytest.raises(SingularSystemError):
        DesignFactorization(X).leverage()


def test_leverage_argmax_ties_take_smallest_index():
    scores, istar = leverage_and_argmax(np.eye(3))
    np.testing.assert_allclose(scores, np.ones(3), atol=1e-12)
    assert istar == 0


# ---------------------------------------------------------------------------
# contrast variance sigma^2 ||a||^2 and bias c^T delta(X)

def contrast_variance(fact, c, rho, sigma_sq):
    a = fact.contrast_weights(c, rho)
    return sigma_sq * float(a @ a)


def contrast_bias_sq(fact, c, beta, rho):
    return float(c @ fact.bias_vector(beta, rho)) ** 2


def test_contrast_variance_zero_contrast():
    data, _, _ = make_data(5, 3, seed=2)
    assert contrast_variance(DesignFactorization(data.X), np.zeros(3), 1.0, 1.0) == 0.0


def test_contrast_variance_monte_carlo():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 3))
    c = rng.standard_normal(3)
    rho = 0.7
    a = np.linalg.solve(X.T @ X + rho * np.eye(3), c) @ X.T
    draws = rng.standard_normal((10 ** 6, 5)) @ a
    mc = draws.var()
    assert contrast_variance(DesignFactorization(X), c, rho, 1.0) == pytest.approx(mc, rel=0.01)


def test_contrast_variance_nonincreasing_in_rho():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((9, 4))
    c = rng.standard_normal(4)
    fact = DesignFactorization(X)
    values = [contrast_variance(fact, c, rho, 2.0) for rho in (0.1, 1.0, 5.0, 50.0)]
    assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))


def test_contrast_bias_zero_beta():
    data, _, _ = make_data(6, 4, seed=4)
    for c in (np.ones(4), np.arange(4.0)):
        assert contrast_bias_sq(DesignFactorization(data.X), c, np.zeros(4), 2.0) == 0.0


def test_contrast_bias_matrix_formula():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4))
    beta = rng.standard_normal(4)
    c = rng.standard_normal(4)
    rho = 1.3
    expected_coef = np.linalg.solve(X.T @ X + rho * np.eye(4), X.T @ X @ beta)
    want = float(c @ beta - c @ expected_coef) ** 2
    assert contrast_bias_sq(DesignFactorization(X), c, beta, rho) == pytest.approx(want, rel=1e-9)


def test_bias_vector_matches_definition():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((7, 3))
    beta = rng.standard_normal(3)
    rho = 0.9
    want = beta - np.linalg.solve(X.T @ X + rho * np.eye(3), X.T @ X @ beta)
    np.testing.assert_allclose(
        DesignFactorization(X).bias_vector(beta, rho), want, rtol=1e-9, atol=1e-12
    )


def test_diagnostics_ratio_identity():
    # b2 / v against the dense formulas for the squared bias and the variance
    rng = np.random.default_rng(12)
    X = rng.standard_normal((10, 4))
    beta = rng.standard_normal(4)
    c = rng.standard_normal(4)
    fact = DesignFactorization(X)
    for rho in (0.2, 2.0, 20.0):
        a = np.linalg.solve(X.T @ X + rho * np.eye(4), c) @ X.T
        bias = c @ beta - a @ (X @ beta)
        ratio = contrast_bias_sq(fact, c, beta, rho) / contrast_variance(fact, c, rho, 0.25)
        assert ratio * (0.25 * (a @ a)) == pytest.approx(bias ** 2, rel=1e-9)


def test_bias_variance_ratio_monotone_in_rho():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((10, 4))
    beta = rng.standard_normal(4)
    c = rng.standard_normal(4)
    rhos = (0.05, 0.5, 5.0, 50.0)
    fact = DesignFactorization(X)
    ratios = [contrast_bias_sq(fact, c, beta, r) / contrast_variance(fact, c, r, 1.0) for r in rhos]
    assert all(ratios[i] <= ratios[i + 1] + 1e-12 for i in range(len(ratios) - 1))


# ---------------------------------------------------------------------------
# exact MSPE

def test_mspe_identity_design_frozen():
    # X = I_n, varrho = 1: every shrinkage factor is 1/2, so the bias part
    # is ||beta||^2/(4n) and the variance part sigma^2/4.
    n = 4
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    sigma_sq = 0.36
    want = (np.sum(beta ** 2) / 4) / n + sigma_sq / 4
    assert mspe_exact(DesignFactorization(np.eye(n)), beta, 1.0, sigma_sq) == pytest.approx(
        want, rel=1e-12
    )


def test_mspe_zero_penalty_square_design():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((5, 5)) + np.eye(5) * 3
    beta = rng.standard_normal(5)
    assert mspe_exact(DesignFactorization(X), beta, 0.0, 2.0) == pytest.approx(
        2.0 * 5 / 5, rel=1e-12
    )


def test_mspe_monte_carlo():
    rng = np.random.default_rng(13)
    n, p = 10, 6
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    varrho = 2.5
    sigma = 0.8
    total = 0.0
    reps = 10 ** 5
    G = np.linalg.solve(X.T @ X + varrho * np.eye(p), X.T)
    eps = rng.standard_normal((reps, n)) * sigma
    coef = eps @ G.T + (G @ (X @ beta))
    diff = coef @ X.T - (X @ beta)
    total = np.mean(np.sum(diff ** 2, axis=1)) / n
    assert mspe_exact(DesignFactorization(X), beta, varrho, sigma ** 2) == pytest.approx(
        total, rel=0.01
    )


# ---------------------------------------------------------------------------
# theta rule, dataset validation, CSV round trip

def test_theta_rule_branches():
    assert theta_rule(0.3) == pytest.approx(0.2)
    assert theta_rule(1.0) == pytest.approx(0.5)
    assert theta_rule(2.0) == pytest.approx(2.0 / 3.0)
    assert theta_rule(0.5) == pytest.approx(1.0 / 3.0)


def test_dataset_validation():
    X = np.eye(3)
    with pytest.raises(InputError):
        Dataset(X, np.ones(2))  # length mismatch


def _count_factorizations(monkeypatch) -> list:
    built = []
    init = DesignFactorization.__init__

    def counting_init(self, X):
        built.append(np.shape(X))
        init(self, X)

    monkeypatch.setattr(DesignFactorization, "__init__", counting_init)
    return built


def test_dataset_builds_its_factorization_once(monkeypatch):
    data, _, _ = make_data(12, 3, seed=4)
    built = _count_factorizations(monkeypatch)
    assert data.fact is data.fact
    assert built == [(12, 3)]
    assert "DesignFactorization" not in repr(data)


def test_with_response_shares_the_factorization(monkeypatch):
    data, _, eps = make_data(12, 3, seed=5)
    data.fact
    built = _count_factorizations(monkeypatch)
    other = data.with_response(data.Y - eps)
    assert other.fact is data.fact
    assert built == []
    assert other.X is data.X
    np.testing.assert_array_equal(other.Y, data.Y - eps)
    with pytest.raises(InputError):
        data.with_response(np.ones(11))


def test_no_function_takes_an_optional_factorization():
    """A dataset's SVD is ``data.fact`` and nothing else: no public function or
    method takes a ``fact`` with a default, or a ``fact`` beside a ``data``.
    Functions without a dataset (``mspe_exact``) still take a factorization."""
    checked = 0
    for info in pkgutil.iter_modules(ridgeboot.__path__):
        module = importlib.import_module(f"ridgeboot.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in filter(inspect.isfunction, members):
                params = inspect.signature(fn).parameters
                checked += 1
                if "fact" in params:
                    assert params["fact"].default is inspect.Parameter.empty, fn.__qualname__
                    assert "data" not in params, fn.__qualname__
    assert checked > 50


def test_factorization_matches_direct_weights():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((9, 5))
    fact = DesignFactorization(X)
    c = rng.standard_normal(5)
    for rho in (0.3, 3.0):
        want = np.linalg.solve(X.T @ X + rho * np.eye(5), c) @ X.T
        np.testing.assert_allclose(fact.contrast_weights(c, rho), want, rtol=1e-9, atol=1e-12)
        # k contrasts as the columns of a (p, k) matrix give k weight columns
        C = np.stack([c, X[0], -2.0 * c], axis=1)
        cols = np.stack([fact.contrast_weights(C[:, j], rho) for j in range(3)], axis=1)
        np.testing.assert_allclose(fact.contrast_weights(C, rho), cols, rtol=1e-12, atol=1e-15)


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    arr = rng.standard_normal((6, 3))
    path = str(tmp_path / "m.csv")
    np.savetxt(path, arr, delimiter=",", fmt="%.17g")
    np.testing.assert_array_equal(read_matrix_csv(path), arr)
    vec = rng.standard_normal(5)
    vpath = str(tmp_path / "v.csv")
    np.savetxt(vpath, vec, delimiter=",", fmt="%.17g")
    np.testing.assert_array_equal(read_vector_csv(vpath), vec)
