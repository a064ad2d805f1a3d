"""The numpy kernels against pure-Python loop references."""

import numpy as np
import pytest

from helpers import contrast_draws_loop, w2sq_merge_loop
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
