"""Random designs, noise families, and the power-law covariance model."""

import numpy as np
import pytest

from ridgeboot.designs import (
    CovarianceModel,
    NoiseSpec,
    generate_dataset,
    make_beta,
    make_covariance,
    sample_design,
    sample_noise,
)
from ridgeboot.errors import InputError, MomentConditionError


# ---------------------------------------------------------------------------
# covariance model

def test_covariance_eta_zero_is_identity():
    cov = make_covariance(4, 0.0, np.random.default_rng(1))
    np.testing.assert_allclose(cov.covariance(), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(cov.eigenvalues, np.ones(4))


def test_covariance_power_law_eigenvalues():
    cov = make_covariance(6, 1.0, np.random.default_rng(2))
    np.testing.assert_allclose(cov.eigenvalues, 1.0 / np.arange(1, 7))
    assert cov.eigenvalues[0] == 1.0
    Q = cov.eigenbasis
    np.testing.assert_allclose(Q.T @ Q, np.eye(6), atol=1e-10)
    # operator norm 1 by construction
    assert np.linalg.norm(cov.covariance(), 2) == pytest.approx(1.0, rel=1e-9)


def test_covariance_sqrt_squares_back():
    cov = make_covariance(5, 0.7, np.random.default_rng(3))
    root = cov.sqrt()
    err = np.linalg.norm(root @ root - cov.covariance()) / np.linalg.norm(cov.covariance())
    assert err <= 1e-9


def test_covariance_seed_reproducible():
    a = make_covariance(4, 0.5, np.random.default_rng(9))
    b = make_covariance(4, 0.5, np.random.default_rng(9))
    np.testing.assert_array_equal(a.eigenbasis, b.eigenbasis)


def test_covariance_model_validation():
    with pytest.raises(InputError):
        CovarianceModel(2, 0.5, np.array([0.5, 1.0]), np.eye(2))  # increasing
    with pytest.raises(InputError):
        CovarianceModel(2, 0.5, np.array([1.0, 0.5]), np.ones((2, 2)))  # not orthonormal


# ---------------------------------------------------------------------------
# design sampling

def test_sample_covariance_converges():
    rng = np.random.default_rng(4)
    cov = make_covariance(3, 1.0, rng)
    X = sample_design(10 ** 5, cov, rng)
    S = X.T @ X / X.shape[0]
    rel = np.linalg.norm(S - cov.covariance()) / np.linalg.norm(cov.covariance())
    assert rel <= 0.02


def test_identity_covariance_marchenko_pastur_support():
    rng = np.random.default_rng(5)
    n, p = 2000, 200
    cov = make_covariance(p, 0.0, rng)
    X = sample_design(n, cov, rng)
    lam = np.linalg.eigvalsh(X.T @ X / n)
    ratio = p / n
    lo = (1 - np.sqrt(ratio)) ** 2
    hi = (1 + np.sqrt(ratio)) ** 2
    assert lam.min() == pytest.approx(lo, rel=0.05)
    assert lam.max() == pytest.approx(hi, rel=0.05)


def test_sample_design_seed_deterministic():
    cov = make_covariance(3, 0.5, np.random.default_rng(6))
    X1 = sample_design(8, cov, np.random.default_rng(10))
    X2 = sample_design(8, cov, np.random.default_rng(10))
    np.testing.assert_array_equal(X1, X2)


# ---------------------------------------------------------------------------
# noise families

def test_scaled_t_moments():
    rng = np.random.default_rng(7)
    spec = NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0)
    draws = sample_noise(spec, 10 ** 6, rng)
    assert abs(draws.mean()) <= 0.001
    assert draws.std() == pytest.approx(0.1, abs=0.002)


def test_normal_family_standard_moments():
    rng = np.random.default_rng(8)
    draws = sample_noise(NoiseSpec(family="normal", sigma=1.0), 10 ** 6, rng)
    assert abs(draws.mean()) <= 0.005
    assert draws.std() == pytest.approx(1.0, abs=0.005)


def test_two_point_family_exact_spread():
    rng = np.random.default_rng(9)
    draws = sample_noise(NoiseSpec(family="two_point", sigma=0.3), 10 ** 4, rng)
    assert set(np.round(np.unique(np.abs(draws)), 12)) == {0.3}


def test_t_family_requires_heavy_moment():
    with pytest.raises(MomentConditionError):
        NoiseSpec(family="scaled_t", sigma=1.0, dof=4.0)


def test_t_family_rejects_infinite_dof():
    """dof = inf would sample all-NaN noise."""
    with pytest.raises(InputError):
        NoiseSpec(family="scaled_t", sigma=1.0, dof=float("inf"))


@pytest.mark.parametrize("spec", [
    NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0),
    NoiseSpec(family="scaled_t", sigma=2.0, dof=7.5),
    NoiseSpec(family="normal", sigma=0.3),
    NoiseSpec(family="two_point", sigma=0.3),
    NoiseSpec(family="two_point", sigma=0.0),
])
def test_noise_matches_expression_forms(spec):
    """The in-place samplers give the bits and generator state of the
    expression forms they replaced."""
    def expression_form(rng, n):
        if spec.family == "scaled_t":
            z = rng.standard_normal(n)
            w = rng.chisquare(spec.dof, n)
            t = z / np.sqrt(w / spec.dof)
            return t * (spec.sigma / np.sqrt(spec.dof / (spec.dof - 2.0)))
        if spec.family == "normal":
            return spec.sigma * rng.standard_normal(n)
        return spec.sigma * (2.0 * rng.integers(0, 2, n) - 1.0)

    g, h = np.random.default_rng(12), np.random.default_rng(12)
    for n in (1, 7, 20_000):
        a, b = sample_noise(spec, n, g), expression_form(h, n)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert g.bit_generator.state == h.bit_generator.state


def test_noise_seed_deterministic():
    spec = NoiseSpec(family="scaled_t", sigma=1.0, dof=6.0)
    a = sample_noise(spec, 50, np.random.default_rng(11))
    b = sample_noise(spec, 50, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# coefficients and full datasets

def test_make_beta_unit_norm():
    for p in (1, 2, 17):
        beta = make_beta(p)
        assert np.linalg.norm(beta) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(make_beta(1), [1.0])


def test_generate_dataset_zero_noise_exact():
    rng = np.random.default_rng(12)
    cov = make_covariance(3, 0.5, rng)
    beta = make_beta(3)
    spec = NoiseSpec(family="normal", sigma=0.0)
    data = generate_dataset(10, cov, beta, spec, rng)
    np.testing.assert_allclose(data.Y, data.X @ beta, atol=1e-14)


def test_generate_dataset_seed_deterministic():
    cov = make_covariance(3, 0.5, np.random.default_rng(13))
    beta = make_beta(3)
    spec = NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0)
    d1 = generate_dataset(12, cov, beta, spec, np.random.default_rng(14))
    d2 = generate_dataset(12, cov, beta, spec, np.random.default_rng(14))
    np.testing.assert_array_equal(d1.X, d2.X)
    np.testing.assert_array_equal(d1.Y, d2.Y)


def test_ols_residuals_overfit_on_average():
    # residual SD < sigma systematically because OLS soaks up noise
    sigma = 0.5
    wins = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 10))
        eps = rng.standard_normal(30) * sigma
        coef = np.linalg.lstsq(X, eps, rcond=None)[0]
        resid = eps - X @ coef
        wins += resid.std() < sigma
    assert wins >= 180


# ---------------------------------------------------------------------------
# sample spectrum

def test_sample_eigenvalue_bracket_soft_check():
    # structural sanity from the generating assumptions: sample spectrum is
    # within a modest constant band of i^(-eta); reported, not load-bearing
    ok = 0
    trials = 20
    for seed in range(trials):
        rng = np.random.default_rng(200 + seed)
        for eta, p in ((0.5, 45), (1.0, 95)):
            cov = make_covariance(p, eta, rng)
            X = sample_design(100, cov, rng)
            lam = np.sort(np.linalg.eigvalsh(X.T @ X / 100))[::-1]
            idx = np.arange(1, p + 1, dtype=float)
            profile = idx ** (-eta)
            keep = lam > 1e-10
            ratios = lam[keep] / profile[keep]
            ok += (ratios.max() / ratios.min()) <= 200
    rate = ok / (2 * trials)
    print(f"eigenvalue bracket rate: {rate:.2f}")
    assert rate >= 0.5
