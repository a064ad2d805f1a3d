"""Mallows/Wasserstein-2 distance: LP oracle agreement, metric axioms, centering."""

import numpy as np
import pytest

from helpers import w2sq_lp
from ridgeboot import _kernels
from ridgeboot.errors import InputError
from ridgeboot.mallows import center_residuals, d2_empirical


# ---------------------------------------------------------------------------
# centering

def test_center_simple():
    assert np.array_equal(center_residuals(np.array([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0])


def test_center_ties():
    assert np.array_equal(center_residuals(np.array([5.0, 5.0])), [0.0, 0.0])


def test_center_hand_case():
    got = center_residuals(np.array([0.3, -1.1, 2.0, 0.8]))
    np.testing.assert_allclose(got, [-1.6, -0.2, 0.3, 1.5], atol=1e-12)


def test_center_rejects_nonfinite():
    with pytest.raises(InputError):
        center_residuals(np.array([1.0, np.nan]))


def test_center_residuals_sorted_and_centered():
    # The output is sorted and its mean is zero to 1e-10 of the atom scale,
    # also when the residuals sit far from zero.
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 100, 1000):
        for offset in (0.0, -3.5, 1e6):
            atoms = center_residuals(offset + rng.standard_normal(n) * rng.uniform(0.01, 10.0))
            assert atoms.shape == (n,)
            assert np.all(np.diff(atoms) >= 0.0)
            assert abs(float(atoms.mean())) <= 1e-10 * (float(np.max(np.abs(atoms))) + 1.0)


# ---------------------------------------------------------------------------
# distance vs the transport LP

def test_d2_matches_lp_on_spec_pair():
    # W2^2 between {0,1} and {0,0,3}: merged-grid arithmetic gives 3/2.
    f = np.array([0.0, 1.0])
    g = np.array([0.0, 0.0, 3.0])
    lp = w2sq_lp(f, g)
    assert lp == pytest.approx(1.5, abs=1e-9)
    assert d2_empirical(f, g) ** 2 == pytest.approx(lp, abs=1e-9)


def test_d2_matches_lp_exhaustive_small():
    rng = np.random.default_rng(42)
    for m in range(1, 7):
        for k in range(1, 7):
            for rep in range(4):
                if rep < 3:
                    x = rng.standard_normal(m) * (1 + rep)
                    y = rng.standard_normal(k) - rep
                else:
                    # tie-heavy integer atoms exercise the flat segments
                    x = rng.integers(-1, 2, size=m).astype(float)
                    y = rng.integers(-1, 2, size=k).astype(float)
                got = d2_empirical(x, y) ** 2
                want = w2sq_lp(x, y)
                assert got == pytest.approx(want, abs=1e-9), (m, k, rep)


def test_equal_count_matches_order_statistic_pairing():
    # At equal counts the quantile coupling pairs order statistics directly;
    # the merged grid must give that distance, at equal sizes and on the same
    # laws written with each atom repeated 2 and 3 times.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(1, 30))
        x = np.sort(rng.standard_normal(m))
        y = np.sort(rng.standard_normal(m))
        direct = float(np.sqrt(np.mean((x - y) ** 2)))
        assert d2_empirical(x, y) == pytest.approx(direct, abs=1e-12)
        general = d2_empirical(np.repeat(x, 2), np.repeat(y, 3))
        assert general == pytest.approx(direct, abs=1e-12)


def test_equal_sizes_take_the_kernel(monkeypatch):
    calls = []
    kernel = _kernels.w2sq_sorted

    def spy(x, y):
        calls.append((x.size, y.size))
        return kernel(x, y)

    monkeypatch.setattr(_kernels, "w2sq_sorted", spy)
    f = np.random.default_rng(8).standard_normal(25)
    assert d2_empirical(f, f) == 0.0
    assert d2_empirical(f, f + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert calls == [(25, 25), (25, 25)]


# ---------------------------------------------------------------------------
# metric axioms

def test_metric_axioms_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(300):
        f = rng.standard_normal(int(rng.integers(1, 51)))
        g = rng.standard_normal(int(rng.integers(1, 51)))
        h = rng.standard_normal(int(rng.integers(1, 51)))
        dfg = d2_empirical(f, g)
        dgf = d2_empirical(g, f)
        assert dfg == dgf
        assert d2_empirical(f, h) <= dfg + d2_empirical(g, h) + 1e-12
        assert d2_empirical(f, f) == 0.0


def test_identity_of_indiscernibles():
    f = np.array([0.0, 1.0, 2.0])
    g = np.array([0.0, 1.0, 2.00001])
    assert d2_empirical(f, g) > 0
    # same law through different sample sizes
    h = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    assert d2_empirical(f, h) == pytest.approx(0.0, abs=1e-15)


def test_second_moment_control():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = rng.standard_normal(int(rng.integers(1, 40))) * 2
        g = rng.standard_normal(int(rng.integers(1, 40)))
        mf, mg = np.mean(f ** 2), np.mean(g ** 2)
        gap = abs(mf - mg)
        bound = d2_empirical(f, g) * (np.sqrt(mf) + np.sqrt(mg))
        assert gap <= bound + 1e-10


def test_public_boundary_validation():
    good = np.array([0.0, 1.0])
    bad = (np.ones((2, 2)), np.array([]), np.array([0.0, np.inf]), np.array([np.nan, 1.0]))
    for sample in bad:
        with pytest.raises(InputError):
            center_residuals(sample)
        with pytest.raises(InputError):
            d2_empirical(sample, good)
        with pytest.raises(InputError):
            d2_empirical(good, sample)
