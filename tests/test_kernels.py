"""The numpy kernels against pure-Python loop references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import contrast_draws_loop, w2sq_merge_loop, w2sq_union1d
from ridgeboot import _kernels
from ridgeboot._kernels import active_backend, contrast_draws, w2sq_sorted


def test_active_backend_is_consistent():
    assert active_backend() == "numpy"


def test_w2sq_hand_case_both_paths():
    x = np.array([0.0, 2.0])
    y = np.array([1.0])
    assert w2sq_sorted(x, y) == pytest.approx(1.0, abs=1e-15)
    assert w2sq_merge_loop(x, y) == pytest.approx(1.0, abs=1e-15)


def test_w2sq_singleton_reduces_to_mean_square():
    rng = np.random.default_rng(3)
    y = np.sort(rng.standard_normal(37))
    c = 0.4
    expected = float(np.mean((c - y) ** 2))
    assert w2sq_sorted(np.array([c]), y) == pytest.approx(expected, rel=1e-13)


def test_w2sq_backends_agree():
    rng = np.random.default_rng(17)
    for m, k in ((1, 1), (1, 7), (5, 3), (64, 64), (997, 1024), (3000, 2)):
        x = np.sort(rng.standard_normal(m))
        y = np.sort(rng.standard_normal(k) * 2.0 + 0.3)
        assert w2sq_sorted(x, y) == pytest.approx(w2sq_merge_loop(x, y), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "m, k",
    [(1, 1), (1, 7), (7, 1), (5, 3), (64, 64), (6, 4), (40, 20_000), (20_000, 40),
     (997, 1024), (10_000, 100_000)],
)
def test_w2sq_matches_union1d_bits(m, k):
    """The integer merge builds the same grid, indices and sum as union1d."""
    rng = np.random.default_rng(m * 100_003 + k)
    x = np.sort(rng.standard_normal(m))
    y = np.sort(rng.standard_normal(k) * 2.0 + 0.3)
    assert w2sq_sorted(x, y) == w2sq_union1d(x, y)
    assert w2sq_sorted(y, x) == w2sq_union1d(y, x)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 400), k=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_w2sq_matches_union1d_bits_property(m, k, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.standard_normal(m))
    y = np.sort(rng.standard_normal(k) * 2.0 + 0.3)
    assert w2sq_sorted(x, y) == w2sq_union1d(x, y)


def test_w2sq_reused_plans_match_union1d_bits():
    """Calls that reuse a cached plan on fresh samples stay bit-identical, in
    both argument orders and interleaved with calls at other sizes."""
    rng = np.random.default_rng(23)
    # (1, k) and (m, 1); m dividing k; coprime sizes; equal sizes.
    shapes = [(1, 50), (50, 1), (20, 4000), (997, 1024), (64, 64)]
    _kernels._merge_plan.cache_clear()
    for _ in range(2):
        for m, k in shapes:
            for swap in (False, True):
                for _ in range(3):  # fresh samples on one plan
                    x = np.sort(rng.standard_normal(m))
                    y = np.sort(rng.standard_normal(k) * 1.5 - 0.2)
                    if swap:
                        x, y = y, x
                    assert w2sq_sorted(x, y) == w2sq_union1d(x, y)
    assert _kernels._merge_plan.cache_info().hits >= 2 * 2 * len(shapes) * 2


def test_w2sq_plan_is_read_only_and_built_once_per_size_pair():
    _kernels._merge_plan.cache_clear()
    rng = np.random.default_rng(29)
    calls = 48  # the W2 calls of one mspe-link case, all at (n, m_ref)
    for _ in range(calls):
        w2sq_sorted(np.sort(rng.standard_normal(20)), np.sort(rng.standard_normal(20_000)))
    info = _kernels._merge_plan.cache_info()
    assert (info.misses, info.hits) == (1, calls - 1)
    for a in _kernels._merge_plan(20, 20_000):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    for m in range(1, 40):
        w2sq_sorted(np.sort(rng.standard_normal(m)), np.sort(rng.standard_normal(41)))
    info = _kernels._merge_plan.cache_info()
    assert info.currsize <= info.maxsize <= 2


def test_contrast_draws_backends_agree():
    rng = np.random.default_rng(19)
    for B, n, n_atoms in ((1, 1, 2), (40, 6, 6), (300, 25, 25)):
        atoms = rng.standard_normal(n_atoms)
        weights = rng.standard_normal(n)
        idx = rng.integers(0, n_atoms, size=(B, n))
        a = contrast_draws(atoms, weights, idx)
        b = contrast_draws_loop(atoms, weights, idx)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_contrast_draws_shape_and_dtype():
    atoms = np.array([1.0, -1.0, 0.5])
    weights = np.array([0.2, 0.8])
    idx = np.array([[0, 1], [2, 2], [1, 0]], dtype=np.int64)
    out = contrast_draws(atoms, weights, idx)
    assert out.shape == (3,)
    assert out.dtype == np.float64
    assert out[1] == pytest.approx(0.5)
