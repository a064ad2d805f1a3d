"""Random designs, noise families, and the power-law covariance root."""

import numpy as np
import pytest

from helpers import design_two_step
from ridgeboot.designs import (
    NoiseSpec,
    covariance_root,
    generate_dataset,
    make_beta,
    sample_design,
    sample_noise,
)
from ridgeboot.errors import InputError, MomentConditionError


# ---------------------------------------------------------------------------
# covariance root

def test_covariance_eta_zero_is_identity():
    root = covariance_root(4, 0.0, np.random.default_rng(1))
    np.testing.assert_allclose(root, np.eye(4), atol=1e-12)


def test_covariance_power_law_eigenvalues():
    root = covariance_root(6, 1.0, np.random.default_rng(2))
    cov = root @ root
    np.testing.assert_allclose(np.linalg.eigvalsh(cov)[::-1], 1.0 / np.arange(1, 7), atol=1e-12)
    np.testing.assert_allclose(root, root.T, atol=1e-12)
    # operator norm 1 by construction
    assert np.linalg.norm(cov, 2) == pytest.approx(1.0, rel=1e-9)


def test_covariance_sqrt_squares_back():
    """The root is symmetric with the square roots of j^(-eta) as eigenvalues."""
    root = covariance_root(5, 0.7, np.random.default_rng(3))
    np.testing.assert_allclose(root, root.T, atol=1e-12)
    lam = np.arange(1, 6, dtype=float) ** -0.7
    np.testing.assert_allclose(np.linalg.eigvalsh(root)[::-1], np.sqrt(lam), rtol=1e-9)


def test_covariance_seed_reproducible():
    a = covariance_root(4, 0.5, np.random.default_rng(9))
    b = covariance_root(4, 0.5, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# design sampling

def test_sample_covariance_converges():
    # The draw takes the root first, so the same seed gives the rows' root.
    root = covariance_root(3, 1.0, np.random.default_rng(4))
    X = sample_design(10 ** 5, 3, 1.0, np.random.default_rng(4))
    S = X.T @ X / X.shape[0]
    cov = root @ root
    rel = np.linalg.norm(S - cov) / np.linalg.norm(cov)
    assert rel <= 0.02


def test_identity_covariance_marchenko_pastur_support():
    rng = np.random.default_rng(5)
    n, p = 2000, 200
    X = sample_design(n, p, 0.0, rng)
    lam = np.linalg.eigvalsh(X.T @ X / n)
    ratio = p / n
    lo = (1 - np.sqrt(ratio)) ** 2
    hi = (1 + np.sqrt(ratio)) ** 2
    assert lam.min() == pytest.approx(lo, rel=0.05)
    assert lam.max() == pytest.approx(hi, rel=0.05)


def test_sample_design_seed_deterministic():
    X1 = sample_design(8, 3, 0.5, np.random.default_rng(10))
    X2 = sample_design(8, 3, 0.5, np.random.default_rng(10))
    np.testing.assert_array_equal(X1, X2)


@pytest.mark.parametrize("n, p, eta", [
    (1, 1, 0.5), (8, 1, 0.0), (5, 3, 0.0), (40, 12, 1.0), (100, 95, 0.5), (30, 36, 1.5),
])
def test_sample_design_matches_two_step_draw(n, p, eta):
    """One call gives the bits and generator state of the eigenbasis-then-rows
    draw it replaced."""
    g, h = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(2):
        a, b = sample_design(n, p, eta, g), design_two_step(n, p, eta, h)
        assert a.shape == (n, p) and a.tobytes() == b.tobytes()
    assert g.bit_generator.state == h.bit_generator.state


def test_design_arguments_validated():
    rng = np.random.default_rng(18)
    for p, eta in ((0, 0.5), (2.0, 0.5), (3, -0.1), (3, float("nan"))):
        with pytest.raises(InputError):
            covariance_root(p, eta, rng)
    with pytest.raises(InputError):
        sample_design(0, 3, 0.5, rng)


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
    beta = make_beta(3)
    spec = NoiseSpec(family="normal", sigma=0.0)
    data = generate_dataset(10, 0.5, beta, spec, rng)
    np.testing.assert_allclose(data.Y, data.X @ beta, atol=1e-14)


def test_generate_dataset_seed_deterministic():
    beta = make_beta(3)
    spec = NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0)
    d1 = generate_dataset(12, 0.5, beta, spec, np.random.default_rng(14))
    d2 = generate_dataset(12, 0.5, beta, spec, np.random.default_rng(14))
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
            X = sample_design(100, p, eta, rng)
            lam = np.sort(np.linalg.eigvalsh(X.T @ X / 100))[::-1]
            idx = np.arange(1, p + 1, dtype=float)
            profile = idx ** (-eta)
            keep = lam > 1e-10
            ratios = lam[keep] / profile[keep]
            ok += (ratios.max() / ratios.min()) <= 200
    rate = ok / (2 * trials)
    print(f"eigenvalue bracket rate: {rate:.2f}")
    assert rate >= 0.5
