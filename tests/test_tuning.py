"""Cross-validation penalty selection and the penalty conventions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgeboot import tuning
from ridgeboot.designs import NoiseSpec, make_beta, sample_design, sample_noise
from ridgeboot.errors import InputError
from ridgeboot.linmodel import Dataset, DesignFactorization, exponent_to_penalty
from ridgeboot.tuning import (
    INFERENCE_PREFACTOR,
    PILOT_PREFACTOR,
    cv_select,
    default_grid,
    penalty_pair,
)

from helpers import cv_scores_refit, ridge_lstsq


def noisy_data(seed, n=60, p=12, sigma=0.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    Y = X @ beta + rng.standard_normal(n) * sigma
    return Dataset(X, Y)


# ---------------------------------------------------------------------------
# conventions

def test_penalty_pair_frozen_example():
    assert penalty_pair(0.04) == (pytest.approx(0.2), pytest.approx(0.004))
    assert PILOT_PREFACTOR == 5.0
    assert INFERENCE_PREFACTOR == 0.1


def test_penalty_pair_preserves_order():
    small = penalty_pair(0.5)
    large = penalty_pair(2.0)
    assert large[0] > small[0] and large[1] > small[1]


def test_exponent_to_penalty():
    assert exponent_to_penalty(100, 0.5) == pytest.approx(10.0)
    # n^(1 - e) everywhere, including e > 1
    assert exponent_to_penalty(10 ** 4, 2.0) == pytest.approx(1e-4)
    assert exponent_to_penalty(10 ** 4, 0.5) == pytest.approx(100.0)
    with pytest.raises(InputError):
        exponent_to_penalty(100, 0.0)


def test_default_grid_shape():
    grid = default_grid(100)
    assert grid.size == 30
    assert grid[0] == pytest.approx(1e-4 * 100)
    assert grid[-1] == pytest.approx(1e2 * 100)
    assert np.all(np.diff(grid) > 0)


# ---------------------------------------------------------------------------
# cv selection

def test_cv_pure_noise_prefers_max_penalty():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 50))
        Y = rng.standard_normal(200)
        plan = cv_select(Dataset(X, Y), grid=np.array([1e-4, 1e6]), rng=rng)
        hits += plan.r_hat == 1e6
    assert hits >= 95


def test_cv_seed_deterministic():
    data = noisy_data(3)
    a = cv_select(data, rng=np.random.default_rng(5))
    b = cv_select(data, rng=np.random.default_rng(5))
    assert a.r_hat == b.r_hat
    np.testing.assert_array_equal(a.cv_scores, b.cv_scores)
    np.testing.assert_array_equal(a.grid, b.grid)


def test_cv_plan_consistency():
    plan = cv_select(noisy_data(11), rng=np.random.default_rng(1))
    assert plan.pilot_rho == pytest.approx(5.0 * plan.r_hat)
    assert plan.inference_rho == pytest.approx(0.1 * plan.r_hat)
    assert plan.r_hat in plan.grid
    assert plan.cv_scores.shape == plan.grid.shape


def test_cv_tie_break_smallest_penalty():
    # a grid with a repeated value cannot produce a larger selection
    data = noisy_data(17)
    grid = np.array([0.5, 0.5, 7.0])
    plan = cv_select(data, grid=grid, rng=np.random.default_rng(2))
    assert plan.r_hat in grid


def test_cv_rejects_bad_grid_and_folds():
    data = noisy_data(4)
    for kwargs in (
        dict(grid=5.0),
        dict(grid=[[1.0, 2.0]]),
        dict(grid=[]),
        dict(grid=[1.0, -2.0]),
        dict(folds=2.5),
        dict(folds=1),
        dict(folds=61),
    ):
        with pytest.raises(InputError):
            cv_select(data, rng=np.random.default_rng(0), **kwargs)


def _refit_case(n, p, seed, duplicate=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if duplicate:
        X = np.hstack([X, X[:, : p // 2]])
    Y = X @ rng.standard_normal(X.shape[1]) / np.sqrt(p) + 0.5 * rng.standard_normal(n)
    return Dataset(X, Y)


@pytest.mark.parametrize(
    "n, p, folds, duplicate",
    [
        (100, 95, 5, False),
        (100, 45, 5, False),
        (60, 90, 5, False),  # p > n
        (53, 8, 5, False),  # n not divisible by folds
        (25, 10, 25, False),  # leave-one-out
        (60, 20, 5, True),  # duplicated columns: rank 20 of 30
        (2000, 20, 5, False),  # tall: blocks of 400 rows > k = 20
    ],
)
def test_cv_scores_match_fold_refits(n, p, folds, duplicate):
    data = _refit_case(n, p, seed=n + p, duplicate=duplicate)
    grid = default_grid(n)
    plan = cv_select(data, grid=grid, folds=folds, rng=np.random.default_rng(9))
    perm = np.random.default_rng(9).permutation(n)
    want = cv_scores_refit(data.X, data.Y, grid, folds, perm)
    assert np.max(np.abs(plan.cv_scores - want) / want) <= 1e-9
    assert plan.r_hat == grid[int(np.argmin(want))]


def test_cv_small_penalties_keep_their_digits():
    """Penalties of 1e-10 n .. 1e-8 n on a wide design make I - H_hh and the
    residuals tiny.  Built from r/(s^2+r) rather than as differences from
    the identity they keep their digits: the difference form is off by
    2.9e-6 here, and a normal-equation refit (``ridge_dense``) by 5e-7."""
    data = _refit_case(60, 90, seed=5)
    grid = default_grid(60, 6, 1e-10, 1e-8)
    plan = cv_select(data, grid=grid, rng=np.random.default_rng(9))
    perm = np.random.default_rng(9).permutation(60)
    want = cv_scores_refit(data.X, data.Y, grid, 5, perm, fit=ridge_lstsq)
    assert np.max(np.abs(plan.cv_scores - want) / want) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 30),
    p=st.integers(1, 40),
    folds=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_cv_scores_match_fold_refits_property(n, p, folds, seed):
    folds = min(folds, n)
    data = _refit_case(n, p, seed)
    grid = default_grid(n, size=8)
    plan = cv_select(data, grid=grid, folds=folds, rng=np.random.default_rng(seed))
    perm = np.random.default_rng(seed).permutation(n)
    want = cv_scores_refit(data.X, data.Y, grid, folds, perm)
    assert np.max(np.abs(plan.cv_scores - want) / want) <= 1e-9
    # the selection is a refit minimizer (an exact tie could go either way)
    assert want[plan.grid == plan.r_hat][0] <= want.min() * (1 + 1e-9)


def test_cv_tall_design_solves_on_the_rank_side():
    """Blocks of 400 rows against k = 20: the (G, k, k) push-through system,
    not (G, 400, 400) held-out matrices (38 MB for the default 30 penalties)."""
    data = _refit_case(2000, 20, seed=6)
    data.fact  # built before tracing, so the peak measures CV alone
    tracemalloc.start()
    try:
        cv_select(data, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_cv_penalty_batches_do_not_change_scores(monkeypatch):
    data = _refit_case(100, 95, seed=3)
    whole = cv_select(data, rng=np.random.default_rng(1))
    monkeypatch.setattr(tuning, "_BATCH_CELLS", 1)  # one penalty per solve
    split = cv_select(data, rng=np.random.default_rng(1))
    np.testing.assert_allclose(split.cv_scores, whole.cv_scores, rtol=1e-12)
    assert split.r_hat == whole.r_hat


def test_cv_with_factorization_builds_none(monkeypatch):
    data = noisy_data(8)
    data.fact
    built = []
    init = DesignFactorization.__init__

    def counting_init(self, X):
        built.append(np.shape(X))
        init(self, X)

    monkeypatch.setattr(DesignFactorization, "__init__", counting_init)
    given_fact = cv_select(data, rng=np.random.default_rng(4))
    assert built == []
    own_fact = cv_select(Dataset(data.X, data.Y), rng=np.random.default_rng(4))
    assert built == [data.X.shape]
    np.testing.assert_array_equal(given_fact.cv_scores, own_fact.cv_scores)


@pytest.mark.xfail(
    strict=False,
    reason="under the pilot rule as specified (5 x the CV penalty), the pilot residual SD "
    "lies in [0.8, 1.3] sigma in 72/49/92/67 of 100 designs at (p, eta) = (45, 0.5), "
    "(95, 0.5), (45, 1.0), (95, 1.0); the band is missed from below (24 below at (45, 0.5)) "
    "and from above (26 above at (95, 0.5), 25 at (95, 1.0), median SD 1.10 sigma there)",
)
def test_pilot_residual_sd_guard():
    sigma = 0.1
    spec = NoiseSpec(family="scaled_t", sigma=sigma, dof=5.0)
    tally = {}
    for p, eta in ((45, 0.5), (95, 0.5), (45, 1.0), (95, 1.0)):
        sds = []
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            X = sample_design(100, p, eta, rng)
            beta = make_beta(p)
            data = Dataset(X, X @ beta + sample_noise(spec, 100, rng))
            plan = cv_select(data, rng=rng)
            sds.append(data.fact.residuals(data.Y, plan.pilot_rho).std())
        sds = np.array(sds)
        lo, hi = 0.8 * sigma, 1.3 * sigma
        tally[(p, eta)] = {"hits": int(np.sum((lo <= sds) & (sds <= hi))),
                           "below": int(np.sum(sds < lo)), "above": int(np.sum(sds > hi)),
                           "median": float(np.median(sds)) / sigma}
    detail = "; ".join(f"(p, eta) = {shape}: {t['hits']} hits, {t['below']} below, "
                       f"{t['above']} above, median SD {t['median']:.2f} sigma"
                       for shape, t in tally.items())
    assert all(t["hits"] >= 90 for t in tally.values()), (
        f"pilot SD in [0.8, 1.3] sigma in fewer than 90 of 100 designs: {detail}")
