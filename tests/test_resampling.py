"""Bootstrap contrast draws, quantiles, and the four interval constructions."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from ridgeboot.errors import (
    DegenerateContrastError,
    InputError,
    SingularSystemError,
    UnestimableVarianceError,
)
from ridgeboot.linmodel import Dataset, DesignFactorization
from ridgeboot.mallows import d2_empirical
from ridgeboot.resampling import (
    _CHUNK_CELLS,
    _BLOCK_ROWS,
    _draw_contrast_values,
    _normal_quantile,
    ci_normal,
    ci_ols_rb,
    ci_ridge_rb,
    ols_sigma_sq_hat,
    pivot_interval,
    quantile,
    rb_contrast_draws,
)


# ---------------------------------------------------------------------------
# quantile rule

def test_quantile_extremes():
    values = np.array([4.0, -2.0, 7.0, 0.0])
    assert quantile(values, 1.0) == 7.0
    assert quantile(values, 0.0) == -2.0


def test_quantile_ceil_index():
    assert quantile(np.array([3.0, 1.0, 2.0]), 0.5) == 2.0
    # exact products must not round up: 0.05 * 100 selects the 5th value
    values = np.arange(1.0, 101.0)
    assert quantile(values, 0.05) == 5.0
    assert quantile(values, 0.95) == 95.0


def test_pivot_interval_endpoints():
    # q_hi = 95 and q_lo = 5 of the draws 1..100 at level 0.9
    ci = pivot_interval("ridge_rb", np.arange(100.0, 0.0, -1.0), 10.0, 0.9)
    assert (ci.method, ci.level, ci.lower, ci.upper) == ("ridge_rb", 0.9, -85.0, 5.0)


def test_pivot_interval_reads_both_quantiles_from_one_sort():
    """The same endpoints as two ``quantile`` calls: on tied draws, on B = 1,
    and at levels where alpha * B is an integer (B = 100, 200, 1000 at 0.9)."""
    rng = np.random.default_rng(5)
    for B, level in itertools.product((1, 2, 7, 100, 200, 1000), (0.5, 0.8, 0.9, 0.95, 0.99)):
        for draws in (rng.integers(-3, 4, size=B).astype(np.float64), rng.standard_normal(B)):
            ci = pivot_interval("ridge_rb", draws, 0.25, level)
            assert ci.lower == 0.25 - quantile(draws, (1.0 + level) / 2.0)
            assert ci.upper == 0.25 - quantile(draws, (1.0 - level) / 2.0)


# ---------------------------------------------------------------------------
# plug-in draws

def two_atom_setup():
    # identity design, pilot penalty 1: residuals are Y/2, so Y = (-2, 2)
    # leaves centered residual atoms (-1, 1); a = c/(1 + rho) = (1/2, 0).
    X = np.eye(2)
    Y = np.array([-2.0, 2.0])
    return Dataset(X, Y), np.array([1.0, 0.0])


def test_two_atom_draw_law():
    data, c = two_atom_setup()
    draws = rb_contrast_draws(data, c, rho=1.0, pilot_rho=1.0, B=10 ** 5,
                              rng=np.random.default_rng(0))
    values = np.unique(draws)
    np.testing.assert_allclose(values, [-0.5, 0.5], atol=1e-12)
    freq = np.mean(draws == 0.5)
    assert freq == pytest.approx(0.5, abs=0.01)


def test_perfect_pilot_gives_zero_draws():
    # pilot rho 0 on an identity design interpolates: residuals vanish
    data, c = two_atom_setup()
    draws = rb_contrast_draws(data, c, rho=1.0, pilot_rho=0.0, B=100,
                              rng=np.random.default_rng(1))
    assert np.all(draws == 0.0)


def test_plugin_law_matches_enumeration():
    rng = np.random.default_rng(2)
    # residual atoms at the sigma = 0.1 noise scale of the simulation study;
    # the d2 tolerance is proportional to the atom spread
    atoms = np.array([-0.13, 0.02, 0.20])
    X = np.eye(3)
    Y = 2.0 * atoms  # pilot rho 1 halves Y into the residual atoms
    data = Dataset(X, Y)
    c = np.array([0.8, -0.4, 1.1])
    rho = 0.6
    draws = rb_contrast_draws(data, c, rho=rho, pilot_rho=1.0, B=10 ** 6, rng=rng)
    a = c / (1.0 + rho)
    centered = atoms - atoms.mean()
    exact = [float(a @ np.array(combo)) for combo in itertools.product(centered, repeat=3)]
    assert d2_empirical(draws, np.array(exact)) <= 3e-3


def test_draws_scale_equivariance():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    data, c = two_atom_setup()
    scaled = Dataset(data.X, 2.0 * data.Y)
    da = rb_contrast_draws(data, c, 1.0, 1.0, 500, rng_a)
    db = rb_contrast_draws(scaled, c, 1.0, 1.0, 500, rng_b)
    np.testing.assert_allclose(db, 2.0 * da, rtol=1e-12)


def _chunking_mismatches():
    """(n, B) cases where chunked draws differ from one unchunked draw."""
    bad = []
    for n in (1, 3, 10, 40, 95, 100, 240, 300, 1000, 1025):
        rng = np.random.default_rng(n)
        atoms = rng.standard_normal(n + 6)
        weights = rng.standard_normal(n)
        chunk = max(1, _CHUNK_CELLS // n // _BLOCK_ROWS) * _BLOCK_ROWS
        tails = {k * chunk + r for k in (1, 2) for r in (-1, 0, 1, 2, 63, 64, 65)}
        for B in sorted({1, 2, 500, 2000} | tails):
            g = np.random.default_rng([n, B])
            h = np.random.default_rng([n, B])
            z = _draw_contrast_values(atoms, weights, B, g)
            ref = atoms[h.integers(0, atoms.size, (B, n))] @ weights
            if not np.array_equal(z, ref) or g.bit_generator.state != h.bit_generator.state:
                bad.append((n, B))
    return bad


def test_draws_chunking_is_bit_identical():
    # Threaded BLAS splits a product's rows between threads, and the split
    # decides which gemv kernel sums each row, so the unchunked reference has
    # fixed bits only at a fixed thread count: compare at one BLAS thread.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = "from test_resampling import _chunking_mismatches as f; print(f())"
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_draws_scratch_is_bounded():
    # B * n = 2,000,000 cells: one unchunked draw holds two 16 MB matrices.
    rng = np.random.default_rng(4)
    data = Dataset(rng.standard_normal((100, 5)), rng.standard_normal(100))
    c = np.ones(5)
    tracemalloc.start()
    try:
        rb_contrast_draws(data, c, 1.0, 1.0, 20_000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 768 * 2 ** 10


def test_zero_contrast_refused():
    data, _ = two_atom_setup()
    with pytest.raises(DegenerateContrastError):
        rb_contrast_draws(data, np.zeros(2), 1.0, 1.0, 100, np.random.default_rng(0))
    # one zero-variance row among k contrasts refuses the whole matrix
    with pytest.raises(DegenerateContrastError):
        rb_contrast_draws(data, np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0, 1.0, 100,
                          np.random.default_rng(0))


@pytest.mark.parametrize("n, B", [(30, 500), (100, 2000), (200, 700)])
def test_contrast_matrix_columns_match_single_contrasts(n, B):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 8))
    data = Dataset(X, X @ rng.standard_normal(8) + rng.standard_normal(n))
    C = np.vstack([X[:5], rng.standard_normal((2, 8))])
    g = np.random.default_rng(B)
    z = rb_contrast_draws(data, C, 2.0, 5.0, B, g)
    assert z.shape == (B, C.shape[0])
    for j, c in enumerate(C):
        h = np.random.default_rng(B)
        np.testing.assert_allclose(z[:, j], rb_contrast_draws(data, c, 2.0, 5.0, B, h),
                                   rtol=1e-12, atol=1e-14)
        assert g.bit_generator.state == h.bit_generator.state
    one = rb_contrast_draws(data, C[:1], 2.0, 5.0, B, np.random.default_rng(B))
    assert one.shape == (B, 1)


def test_bad_contrast_refused_before_any_draw():
    data, _ = two_atom_setup()
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for bad in (np.ones((1, 1, 2)), np.ones(3), np.ones((2, 3)), np.array([1.0, np.nan]),
                np.array([[1.0, 0.0], [np.inf, 1.0]])):
        with pytest.raises(InputError, match="finite length-p vector"):
            rb_contrast_draws(data, bad, 1.0, 1.0, 100, rng)
    # the intervals take one contrast: a length-p vector, not a matrix
    for bad in (np.ones(3), np.array([np.nan, 1.0]), np.eye(2), np.ones((1, 2))):
        with pytest.raises(InputError):
            ci_normal(data, bad, 1.0, 0.9)
        with pytest.raises(InputError):
            ci_ridge_rb(data, bad, 1.0, 1.0, 100, 0.9, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# ridge-bootstrap interval

def test_ridge_interval_two_atom_endpoints():
    data, c = two_atom_setup()
    fact = DesignFactorization(data.X)
    ci = ci_ridge_rb(data, c, 1.0, 1.0, 10 ** 5, 0.9, np.random.default_rng(3))
    point = float(fact.contrast_weights(c, 1.0) @ data.Y)
    assert ci.lower == pytest.approx(point - 0.5, abs=1e-12)
    assert ci.upper == pytest.approx(point + 0.5, abs=1e-12)


def test_ridge_interval_degenerate_zero_width():
    data, c = two_atom_setup()
    fact = DesignFactorization(data.X)
    ci = ci_ridge_rb(data, c, 1.0, 0.0, 200, 0.9, np.random.default_rng(4))
    point = float(fact.contrast_weights(c, 1.0) @ data.Y)
    assert ci.lower == ci.upper == pytest.approx(point, abs=1e-12)
    assert ci.width == 0.0


def test_intervals_carry_their_point_estimate():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((30, 4))
    data = Dataset(X, X @ np.array([1.0, -1.0, 0.5, 0.0]) + rng.standard_normal(30))
    c = X[3]
    rho = 2.5
    ridge = ci_ridge_rb(data, c, rho, 10.0, 200, 0.9, rng)
    normal = ci_normal(data, c, rho, 0.9)
    ols = ci_ols_rb(data, c, 200, 0.9, rng)
    assert ridge.estimate == normal.estimate == float(data.fact.contrast_weights(c, rho) @ data.Y)
    assert ols.estimate == float(data.fact.contrast_weights(c, 0.0) @ data.Y)
    assert pivot_interval("oracle", np.arange(5.0), 1.5, 0.9).estimate == 1.5


def test_ridge_interval_seed_deterministic():
    data, c = two_atom_setup()
    a = ci_ridge_rb(data, c, 1.0, 1.0, 300, 0.9, np.random.default_rng(8))
    b = ci_ridge_rb(data, c, 1.0, 1.0, 300, 0.9, np.random.default_rng(8))
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_interval_levels_nested():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((25, 4))
    beta = rng.standard_normal(4)
    data = Dataset(X, X @ beta + rng.standard_normal(25) * 0.3)
    c = X[3].copy()
    wide = ci_ridge_rb(data, c, 2.0, 10.0, 400, 0.95, np.random.default_rng(5))
    narrow = ci_ridge_rb(data, c, 2.0, 10.0, 400, 0.8, np.random.default_rng(5))
    assert wide.lower <= narrow.lower and narrow.upper <= wide.upper


# ---------------------------------------------------------------------------
# normal-theory interval

def test_normal_interval_multiplier():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 5))
    beta = rng.standard_normal(5)
    data = Dataset(X, X @ beta + rng.standard_normal(40))
    c = rng.standard_normal(5)
    rho = 1.5
    ci = ci_normal(data, c, rho, 0.9)
    fact = DesignFactorization(X)
    a = fact.contrast_weights(c, rho)
    tau = np.sqrt(ols_sigma_sq_hat(data)) * np.linalg.norm(a)
    half = (ci.upper - ci.lower) / 2.0
    assert half / tau == pytest.approx(1.6449, abs=5e-5)
    assert half / tau == pytest.approx(norm.ppf(0.95), rel=1e-9)


def _ndtri_domain_sample() -> np.ndarray:
    """Arguments for the ndtri port: bulk, both tails, branch edges, specials."""
    rng = np.random.default_rng(11)
    edges = []
    for edge in (1.0 - np.exp(-2.0), np.exp(-2.0), np.exp(-32.0), 1.0 - np.exp(-32.0)):
        below = above = edge
        for _ in range(20):
            edges += [below, above]
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
    return np.concatenate([
        rng.uniform(0.0, 1.0, 120_000),  # both halves of (0, 1)
        10.0 ** -rng.uniform(0.0, 300.0, 20_000),  # lower tail, to 1e-300
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20_000),  # upper tail
        1.0 - 10.0 ** -np.arange(1.0, 17.0),  # 1 - 1e-k, k = 1..16
        edges,  # nextafter steps around each branch boundary
        [5e-324, 1e-300, 0.0, 1.0, -0.1, 1.1, np.nan, 0.5],
    ])


def test_normal_quantile_is_norm_ppf_bit_for_bit():
    # The port must reproduce scipy's cephes ndtri exactly, on every branch.
    qs = _ndtri_domain_sample()
    got = np.array([_normal_quantile(float(q)) for q in qs])
    want = ndtri(qs)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    mismatched = np.flatnonzero(got[finite].view(np.int64) != want[finite].view(np.int64))
    assert mismatched.size == 0, qs[finite][mismatched[:5]]
    levels = [(1.0 + level) / 2.0 for level in (0.8, 0.9, 0.95, 0.99)]
    assert [_normal_quantile(q) for q in levels] == norm.ppf(levels).tolist()


def test_normal_interval_zero_width_on_interpolation():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 3))
    beta = rng.standard_normal(3)
    data = Dataset(X, X @ beta)  # exactly in the column space, p < n
    ci = ci_normal(data, X[0].copy(), 0.5, 0.9)
    assert ci.width == pytest.approx(0.0, abs=1e-12)


def test_normal_interval_needs_df():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, 4))
    data = Dataset(X, rng.standard_normal(4))
    with pytest.raises(UnestimableVarianceError):
        ci_normal(data, X[0].copy(), 1.0, 0.9)


# ---------------------------------------------------------------------------
# least-squares bootstrap interval

def test_ols_rb_matches_textbook_mean_bootstrap():
    rng = np.random.default_rng(12)
    n = 60
    X = np.ones((n, 1))
    Y = rng.standard_normal(n) * 1.3 + 4.0
    data = Dataset(X, Y)
    c = np.array([1.0])
    B = 2000
    ci = ci_ols_rb(data, c, B, 0.9, np.random.default_rng(77))
    # textbook residual bootstrap for the mean, replayed on the same stream
    gen = np.random.default_rng(77)
    resid = Y - Y.mean()
    centered = np.sort(resid - resid.mean())
    idx = gen.integers(0, n, size=(B, n))
    z = np.sort(centered[idx].mean(axis=1))
    lo = z[int(np.ceil(0.05 * B)) - 1]
    hi = z[int(np.ceil(0.95 * B)) - 1]
    assert ci.lower == pytest.approx(Y.mean() - hi, abs=1e-10)
    assert ci.upper == pytest.approx(Y.mean() - lo, abs=1e-10)


def test_ols_rb_mean_coverage():
    level = 0.9
    cover = 0
    reps = 400
    for seed in range(reps):
        rng = np.random.default_rng(30000 + seed)
        Y = rng.standard_normal(80) * 2.0 + 1.0
        data = Dataset(np.ones((80, 1)), Y)
        ci = ci_ols_rb(data, np.array([1.0]), 400, level, rng)
        cover += ci.lower <= 1.0 <= ci.upper
    assert cover / reps == pytest.approx(level, abs=0.05)


def test_ols_rb_rejects_wide_designs():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((3, 5))
    data = Dataset(X, rng.standard_normal(3))
    with pytest.raises((UnestimableVarianceError, SingularSystemError, InputError)):
        ci_ols_rb(data, X[0].copy(), 100, 0.9, rng)


# ---------------------------------------------------------------------------
# oracle interval: the quantile pivot on a pool of realized contrast errors

def error_pool(X, beta, c, rho, sigma, N2, rng):
    """Errors c^T b_rho - c^T beta of N2 fresh responses with N(0, sigma^2) noise."""
    a = DesignFactorization(X).contrast_weights(c, rho)
    eps = rng.standard_normal((N2, X.shape[0])) * sigma
    return (X @ beta + eps) @ a - float(c @ beta)


def test_oracle_zero_noise_degenerate():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((12, 3))
    beta = rng.standard_normal(3)
    c = X[0].copy()
    errors = error_pool(X, beta, c, 1e-9, 0.0, 50, np.random.default_rng(15))
    point = float(c @ beta) + errors[0]
    ci = pivot_interval("oracle", errors, point, 0.9)
    assert ci.width <= 1e-6
    assert ci.lower == pytest.approx(float(c @ beta), abs=1e-6)


def test_oracle_self_calibration():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((30, 4))
    beta = rng.standard_normal(4)
    c = X[5].copy()
    target = float(c @ beta)
    rho = 2.0
    fact = DesignFactorization(X)
    # anchored at 0 the interval is [-q_hi, -q_lo] of the error pool
    errors = error_pool(X, beta, c, rho, 0.5, 800, np.random.default_rng(17))
    ci = pivot_interval("oracle", errors, 0.0, 0.9)
    q_lo, q_hi = -ci.upper, -ci.lower
    # fresh intervals anchored at new realizations cover the target exactly
    # when the new error lands between the pool quantiles
    check = np.random.default_rng(18)
    reps = 2000
    hits = 0
    for _ in range(reps):
        eps = check.standard_normal(30) * 0.5
        err = float(fact.contrast_weights(c, rho) @ (X @ beta + eps)) - target
        hits += q_lo <= err <= q_hi
    assert hits / reps == pytest.approx(0.9, abs=0.03)


# ---------------------------------------------------------------------------
# joint calibration of all four methods

def test_nominal_level_sanity_all_methods():
    level = 0.9
    n, p = 200, 2
    rng = np.random.default_rng(21)
    X = rng.standard_normal((n, p))
    beta = np.array([0.7, -0.2])
    c = X[int(np.argmax(np.sum(X ** 2, axis=1)))].copy()
    target = float(c @ beta)
    sigma = 0.4
    rho = pilot = 0.5
    design = Dataset(X, X @ beta)
    B = 300
    reps = 2000

    pool = error_pool(X, beta, c, rho, sigma, reps, np.random.default_rng(22))
    cover = {"oracle": 0, "ridge_rb": 0, "normal": 0, "ols_rb": 0}
    gen = np.random.default_rng(23)
    for _ in range(reps):
        eps = gen.standard_normal(n) * sigma
        data = design.with_response(X @ beta + eps)
        point = float(design.fact.contrast_weights(c, rho) @ data.Y)
        ci_p = pivot_interval("oracle", pool, point, level)
        cover["oracle"] += ci_p.lower <= target <= ci_p.upper
        ci_r = ci_ridge_rb(data, c, rho, pilot, B, level, gen)
        cover["ridge_rb"] += ci_r.lower <= target <= ci_r.upper
        ci_n = ci_normal(data, c, rho, level)
        cover["normal"] += ci_n.lower <= target <= ci_n.upper
        ci_o = ci_ols_rb(data, c, B, level, gen)
        cover["ols_rb"] += ci_o.lower <= target <= ci_o.upper
    for method, count in cover.items():
        assert count / reps == pytest.approx(level, abs=0.04), method
