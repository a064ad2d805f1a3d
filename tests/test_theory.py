"""Checks for the inequality validators, rate fits, and matrix identities."""

import tracemalloc

import numpy as np
import pytest

from helpers import REDUCED_KNOBS, theorem1_sides, theorem4_medians_loop
from ridgeboot import theory
from ridgeboot.designs import (
    NoiseSpec,
    generate_dataset,
    make_beta,
    sample_design,
    sample_noise,
)
from ridgeboot.errors import InputError
from ridgeboot.harness import _setting_case, run_check_suite
from ridgeboot.linmodel import Dataset, DesignFactorization, theta_rule
from ridgeboot.mallows import center_residuals, d2_empirical
from ridgeboot.theory import (
    CheckReport,
    RateEstimate,
    _fresh_contrast_errors,
    _law_gap_sq,
    _noise_gap,
    check_design_events,
    check_mspe_link,
    check_signed_svd,
    check_theorem1,
    check_theorem4,
    lm_tail_check,
    rate_d2_empirical,
    rate_mspe,
    signed_svd,
    wishart_square,
)


# ---------------------------------------------------------------------------
# report containers

def test_check_report_rejects_nonfinite():
    with pytest.raises(InputError):
        CheckReport(name="x", lhs=float("inf"), rhs=1.0, margin=0.0, holds=False)
    with pytest.raises(InputError):
        CheckReport(name="x", lhs=0.0, rhs=float("nan"), margin=0.0, holds=False)


def test_check_report_bound_rule():
    rhs, slack = 0.3, 0.07
    edge = rhs + slack
    rep = CheckReport.bound("x", edge, rhs, {"n": 3}, slack=slack)
    assert rep.margin == rhs - edge
    assert rep.holds
    assert rep.config == {"n": 3}
    assert not CheckReport.bound("x", np.nextafter(edge, np.inf), rhs, {}, slack=slack).holds
    assert CheckReport.bound("x", rhs, rhs, {}).holds
    assert not CheckReport.bound("x", np.nextafter(rhs, np.inf), rhs, {}).holds


def test_rate_estimate_validation():
    with pytest.raises(InputError):
        RateEstimate(n_grid=(10, 20), values=(1.0,), fitted_slope=0.0,
                     target_slope=0.0, band=(-1.0, 1.0))
    with pytest.raises(InputError):
        RateEstimate(n_grid=(10,), values=(1.0,), fitted_slope=0.0,
                     target_slope=0.0, band=(-1.0, 1.0))
    with pytest.raises(InputError):
        RateEstimate(n_grid=(10, 20), values=(1.0, 0.0), fitted_slope=0.0,
                     target_slope=0.0, band=(-1.0, 1.0))


def test_rate_estimate_properties():
    est = RateEstimate(n_grid=(10, 20, 40), values=(4.0, 2.0, 1.0),
                       fitted_slope=-1.0, target_slope=-1.0, band=(-1.2, -0.8))
    assert est.within_band
    assert est.strictly_decreasing
    flat = RateEstimate(n_grid=(10, 20), values=(1.0, 1.0),
                        fitted_slope=0.0, target_slope=-1.0, band=(-1.2, -0.8))
    assert not flat.within_band
    assert not flat.strictly_decreasing


# ---------------------------------------------------------------------------
# bootstrap transfer bound

def test_theorem1_holds_with_injected_noise():
    """With beta = 0 and a huge pilot penalty the residuals are the raw noise,
    so the residual-law term dominates and the bound must hold comfortably."""
    rng = np.random.default_rng(21)
    X = sample_design(40, 10, 0.5, rng)
    noise = NoiseSpec(family="two_point", sigma=0.5)
    eps = sample_noise(noise, 40, rng)
    data = Dataset(X=X, Y=eps)
    rep = check_theorem1(data, np.zeros(10), noise, np.ones(10), rho=1.0, pilot_rho=1e12,
                         rng=rng, m_boot=4000, m_ref=20000)
    assert rep.name == "theorem1"
    assert rep.holds
    assert rep.lhs >= 0.0
    assert rep.margin == rep.rhs - rep.lhs
    assert rep.config["n"] == 40 and rep.config["p"] == 10


def test_theorem1_holds_on_fitted_pilot():
    rng = np.random.default_rng(33)
    beta = make_beta(12)
    noise = NoiseSpec(family="scaled_t", sigma=0.2, dof=5.0)
    data = generate_dataset(50, 1.0, beta, noise, rng)
    c = data.X[3]
    rep = check_theorem1(data, beta, noise, c, rho=2.0, pilot_rho=10.0,
                         rng=rng, m_boot=4000, m_ref=20000)
    assert rep.holds


@pytest.mark.parametrize("family", ["scaled_t", "normal", "two_point"])
def test_theorem1_matches_frozen_inline_form(family):
    rng = np.random.default_rng(35)
    noise = NoiseSpec(family=family, sigma=0.3, dof=6.0)
    beta = make_beta(12)
    data = generate_dataset(30, 0.8, beta, noise, rng)
    args = (data, beta, noise, data.X[2], 3.0, 8.0)
    rep = check_theorem1(*args, np.random.default_rng(5), m_boot=3000, m_ref=6000)
    lhs, rhs = theorem1_sides(*args, np.random.default_rng(5), 3000, 6000)
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)


def test_law_gap_of_contrast_matrix_matches_single_contrasts():
    rng = np.random.default_rng(36)
    noise = NoiseSpec(family="scaled_t", sigma=0.2, dof=5.0)
    beta = make_beta(15)
    data = generate_dataset(40, 1.0, beta, noise, rng)
    C = rng.standard_normal((15, 3))
    args = (data, beta, noise)
    g = np.random.default_rng(3)
    gaps, var, bias_sq = _law_gap_sq(*args, C, 2.0, 6.0, 500, g)
    assert gaps.shape == var.shape == bias_sq.shape == (3,)
    for j in range(3):
        h = np.random.default_rng(3)
        one = _law_gap_sq(*args, C[:, j], 2.0, 6.0, 500, h)
        np.testing.assert_allclose([gaps[j], var[j], bias_sq[j]], one, rtol=1e-12)
        assert h.bit_generator.state == g.bit_generator.state


@pytest.mark.parametrize("check, knob, value", [
    pytest.param("theorem1", "m_boot", -5, id="m_boot--5"),
    pytest.param("theorem1", "m_boot", 0, id="m_boot-0"),
    pytest.param("theorem1", "m_ref", 0, id="m_ref-0"),
    pytest.param("mspe_link", "m_ref", 0, id="mspe_link-m_ref-0"),
    pytest.param("rate_d2", "m_ref", 0, id="rate_d2-m_ref-0"),
])
def test_theorem1_rejects_empty_samples_before_any_draw(check, knob, value):
    """check_theorem1, check_mspe_link (whose ridge fit would first draw CV
    folds) and rate_d2_empirical refuse an empty sample before any draw."""
    rng = np.random.default_rng(37)
    noise = NoiseSpec(family="normal", sigma=0.2)
    beta = make_beta(5)
    data = generate_dataset(20, 1.0, beta, noise, rng)
    state = rng.bit_generator.state
    sizes = {"m_boot": 2000, "m_ref": 4000, knob: value}
    calls = {
        "theorem1": lambda: check_theorem1(data, beta, noise, np.ones(5), 2.0, 10.0, rng,
                                           **sizes),
        "mspe_link": lambda: check_mspe_link(data, beta, noise, "ridge", 2, rng,
                                             m_ref=sizes["m_ref"]),
        "rate_d2": lambda: rate_d2_empirical(noise, (10, 20), 2, rng, m_ref=sizes["m_ref"]),
    }
    with pytest.raises(InputError, match=f"{knob} must be at least 1"):
        calls[check]()
    assert rng.bit_generator.state == state


def test_theorem1_bootstrap_memory_is_chunked():
    # Setting 1 (n = 100) at 400,000 bootstrap draws: a single (m_boot, n)
    # index matrix and its gathered atoms would take 610 MiB.
    _, data, beta, noise, c, rho, pilot, gen = _setting_case(1)
    tracemalloc.start()
    try:
        check_theorem1(data, beta, noise, c, rho, pilot, gen, m_boot=400_000, m_ref=1_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 20


def test_theorem1_settings_factorize_once(monkeypatch):
    """The settings cases' leverage, CV and check share their dataset's SVD:
    one per case, where building another inside the check would make two.
    The count is taken in this process, so the suite runs without workers."""
    shapes = []
    init = DesignFactorization.__init__

    def counting_init(self, X):
        shapes.append(np.shape(X))
        init(self, X)

    monkeypatch.setattr(DesignFactorization, "__init__", counting_init)
    rows = run_check_suite("theorem1", 0, overrides={"sweep": 0, "settings_m": 2000}, workers=1)
    assert [row["name"] for row in rows] == [f"theorem1[setting{i}]" for i in (1, 2, 3, 4)]
    assert shapes == [(100, 45), (100, 95), (100, 45), (100, 95)]


def test_theorem1_bad_contrast_refused_before_any_draw():
    rng = np.random.default_rng(34)
    noise = NoiseSpec(family="scaled_t", sigma=0.2, dof=5.0)
    beta = make_beta(10)
    data = generate_dataset(40, 1.0, beta, noise, rng)
    state = rng.bit_generator.state
    for bad in (np.ones(11), np.r_[np.nan, np.ones(9)]):
        with pytest.raises(InputError, match="finite length-p vector"):
            check_theorem1(data, beta, noise, bad, 2.0, 10.0, rng, m_boot=2000, m_ref=4000)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("cells", [theory._PSI_CHUNK_CELLS, 1000])
def test_fresh_contrast_errors_match_inline_loop(monkeypatch, cells):
    # The chunked loop check_theorem1 ran inline, replayed on an equal seed.
    monkeypatch.setattr(theory, "_PSI_CHUNK_CELLS", cells)
    noise = NoiseSpec(family="scaled_t", sigma=0.2, dof=5.0)
    n, reps = 30, 1000
    a = np.random.default_rng(1).standard_normal(n)
    g, h = np.random.default_rng(2), np.random.default_rng(2)
    got = _fresh_contrast_errors(noise, a, reps, g)
    want = np.empty(reps)
    chunk = max(1, cells // n)
    done = 0
    while done < reps:
        take = min(chunk, reps - done)
        want[done:done + take] = sample_noise(noise, take * n, h).reshape(take, n) @ a
        done += take
    assert np.array_equal(got, want)
    assert g.bit_generator.state == h.bit_generator.state


def test_checks_refuse_bad_ground_truth_before_any_draw():
    """check_theorem1 and check_mspe_link refuse a beta that is not a finite
    length-p vector, and a noise law with sigma = 0, before any draw."""
    rng = np.random.default_rng(0)
    data = Dataset(X=np.eye(4), Y=np.arange(4.0))
    state = rng.bit_generator.state
    calls = (
        lambda beta, noise: check_theorem1(data, beta, noise, np.ones(4), rho=1.0,
                                           pilot_rho=1.0, rng=rng, m_boot=20_000,
                                           m_ref=100_000),
        lambda beta, noise: check_mspe_link(data, beta, noise, "ridge", reps=2, rng=rng,
                                            m_ref=100_000),
    )
    for call in calls:
        for bad in (np.ones(3), np.ones((4, 1)), np.r_[np.inf, np.ones(3)]):
            with pytest.raises(InputError, match="beta must"):
                call(bad, NoiseSpec())
        with pytest.raises(InputError, match="noise scale must be positive"):
            call(np.ones(4), NoiseSpec(family="normal", sigma=0.0))
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# residual-law / prediction-error link

def _link_dataset(seed):
    rng = np.random.default_rng(seed)
    beta = make_beta(15)
    noise = NoiseSpec(family="scaled_t", sigma=0.3, dof=6.0)
    return generate_dataset(60, 1.0, beta, noise, rng), beta, noise, rng


def test_mspe_link_holds_for_each_estimator():
    data, beta, noise, rng = _link_dataset(22)
    for estimator, varrho in (("perfect", None), ("ridge", 0.5), ("ols", None)):
        rep = check_mspe_link(data, beta, noise, estimator, reps=5, rng=rng,
                              varrho=varrho, m_ref=20000)
        assert rep.name == f"mspe_link_{estimator}"
        assert rep.holds


def test_mspe_link_factorizes_once(monkeypatch):
    data, beta, noise, rng = _link_dataset(26)
    shapes = []
    init = DesignFactorization.__init__

    def counting_init(self, X):
        shapes.append(np.shape(X))
        init(self, X)

    monkeypatch.setattr(DesignFactorization, "__init__", counting_init)
    for estimator, varrho in (("ridge", 0.5), ("ols", None)):
        check_mspe_link(data, beta, noise, estimator, reps=2, rng=rng, varrho=varrho,
                        m_ref=2000)
    # The ols check reuses the SVD the ridge check built on the same dataset.
    assert shapes == [data.X.shape]


def test_mspe_link_perfect_estimator_has_zero_mspe():
    data, beta, noise, rng = _link_dataset(23)
    rep = check_mspe_link(data, beta, noise, "perfect", reps=3, rng=rng, m_ref=20000)
    assert rep.config["mspe"] == 0.0


def test_mspe_link_ols_needs_tall_design():
    rng = np.random.default_rng(4)
    beta = make_beta(30)
    noise = NoiseSpec(sigma=0.3)
    data = generate_dataset(20, 0.5, beta, noise, rng)
    with pytest.raises(InputError):
        check_mspe_link(data, beta, noise, "ols", reps=2, rng=rng, m_ref=5000)


def test_mspe_link_validation():
    data, beta, noise, rng = _link_dataset(25)
    with pytest.raises(InputError):
        check_mspe_link(data, beta, noise, "bogus", reps=2, rng=rng, m_ref=100_000)
    with pytest.raises(InputError):
        check_mspe_link(data, beta, noise, "ridge", reps=0, rng=rng, varrho=1.0, m_ref=100_000)
    state = rng.bit_generator.state
    with pytest.raises(InputError, match="needs its pilot penalty varrho"):
        check_mspe_link(data, beta, noise, "ridge", reps=2, rng=rng, m_ref=100_000)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# reference-law proxy

def test_reference_self_distance_small():
    rng = np.random.default_rng(1)
    f = np.sort(rng.standard_normal(10 ** 5))
    value = _noise_gap(f, NoiseSpec(family="normal", sigma=1.0), 10 ** 5, rng)
    assert value <= 0.02


def test_reference_point_mass_against_normal():
    rng = np.random.default_rng(2)
    f = np.array([0.0])
    value = _noise_gap(f, NoiseSpec(family="normal", sigma=1.0), 10 ** 5, rng)
    # W2(delta_0, N(0,1))^2 = E[x^2] = 1
    assert value ** 2 == pytest.approx(1.0, rel=0.02)


def test_reference_sorted_in_place_matches_sorted_copy():
    """Sorting the fresh noise draws in place gives the distance, and leaves
    the generator in the state, of the earlier form that sorted a copy."""
    spec = NoiseSpec(family="scaled_t", sigma=0.5, dof=5.0)
    g, h = np.random.default_rng(31), np.random.default_rng(31)
    for n, m_ref in ((20, 20_000), (37, 1000), (1000, 1000)):
        f = center_residuals(sample_noise(spec, n, np.random.default_rng(n)))
        value = _noise_gap(f, spec, m_ref, g)
        frozen = d2_empirical(f, sample_noise(spec, m_ref, h))
        assert value == frozen
    assert g.bit_generator.state == h.bit_generator.state


# ---------------------------------------------------------------------------
# rate fits

def test_rate_mspe_decays_at_fast_spectrum():
    r = rate_mspe(2.0, (64, 128, 256), trials=4, rng=np.random.default_rng(5))
    assert r.strictly_decreasing
    assert r.within_band
    assert r.target_slope == pytest.approx(-2.0 / 3.0)


def test_rate_mspe_target_map():
    rng = np.random.default_rng(5)
    assert rate_mspe(0.3, (32, 64), trials=1, rng=rng).target_slope == pytest.approx(-0.2)
    assert rate_mspe(0.5, (32, 64), trials=1, rng=rng).target_slope == pytest.approx(-1.0 / 3.0)


def test_rate_mspe_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        rate_mspe(0.0, (32, 64), trials=1, rng=rng)
    with pytest.raises(InputError):
        rate_mspe(1.0, (32,), trials=1, rng=rng)
    with pytest.raises(InputError):
        rate_mspe(1.0, (32, 64), trials=0, rng=rng)


def test_rate_d2_slope_is_scale_invariant():
    """Scaling the noise by 2 multiplies every squared distance by exactly 4,
    which shifts the log-log fit without changing its slope."""
    r1 = rate_d2_empirical(NoiseSpec(family="normal", sigma=1.0), (100, 1000),
                           trials=5, rng=np.random.default_rng(3), m_ref=20000)
    r2 = rate_d2_empirical(NoiseSpec(family="normal", sigma=2.0), (100, 1000),
                           trials=5, rng=np.random.default_rng(3), m_ref=20000)
    assert abs(r1.fitted_slope - r2.fitted_slope) <= 1e-12
    assert np.allclose(np.array(r2.values) / np.array(r1.values), 4.0, rtol=1e-12)


def test_rate_d2_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        rate_d2_empirical(NoiseSpec(), (100,), trials=1, rng=rng, m_ref=100_000)
    with pytest.raises(InputError):
        rate_d2_empirical(NoiseSpec(), (100, 200), trials=0, rng=rng, m_ref=100_000)


# ---------------------------------------------------------------------------
# per-design events

def test_design_events_small_run():
    reps = check_design_events(1.0, 0.6, theta_rule(1.0), 200, trials=30,
                               rng=np.random.default_rng(9), threshold=0.9)
    assert [r.name for r in reps] == ["bias_event", "variance_event", "mspe_event"]
    for rep in reps:
        assert 0.0 <= rep.rhs <= 1.0
        assert rep.holds
        assert rep.config["n"] == 200


def test_design_events_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        check_design_events(0.0, 0.5, 0.5, 100, trials=1, rng=rng)
    with pytest.raises(InputError):
        check_design_events(1.0, 1.0, 0.5, 100, trials=1, rng=rng)
    with pytest.raises(InputError):
        check_design_events(1.0, 0.6, 0.5, 100, trials=0, rng=rng)


# ---------------------------------------------------------------------------
# worst-row trend

def test_theorem4_gamma_window():
    rng = np.random.default_rng(0)
    # eta = 1 admits gamma strictly inside (1/2, 1) only
    with pytest.raises(InputError):
        check_theorem4(1.0, 0.4, 0.5, (50, 100), 2, 10, rng)
    with pytest.raises(InputError):
        check_theorem4(1.0, 1.0, 0.5, (50, 100), 2, 10, rng)
    with pytest.raises(InputError):
        check_theorem4(1.0, 0.55, 0.5, (50,), 2, 10, rng)
    with pytest.raises(InputError):
        check_theorem4(1.0, 0.55, 0.5, (50, 100), 2, 1, rng)


def test_theorem4_reports_one_sided_band():
    est = check_theorem4(1.0, 0.55, 0.5, (50, 100), design_trials=3,
                         noise_reps=200, rng=np.random.default_rng(41))
    assert est.target_slope == 0.0
    assert est.band == (float("-inf"), 0.0)
    assert all(v > 0 for v in est.values)


def test_theorem4_factorizes_once_per_design(monkeypatch):
    shapes = []
    init = DesignFactorization.__init__

    def counting_init(self, X):
        shapes.append(np.shape(X))
        init(self, X)

    monkeypatch.setattr(DesignFactorization, "__init__", counting_init)
    check_theorem4(1.0, 0.55, 0.5, (50, 100), design_trials=2, noise_reps=10,
                   rng=np.random.default_rng(3))
    assert shapes == [(50, 25)] * 2 + [(100, 50)] * 2


def test_theorem4_matches_frozen_row_loop():
    knobs = REDUCED_KNOBS["theorem4"]
    args = (1.0, 0.55, theta_rule(1.0), (knobs["n_min"], knobs["n_max"]),
            knobs["design_trials"], knobs["noise_reps"])
    est = check_theorem4(*args, np.random.default_rng(41))
    want = theorem4_medians_loop(*args, np.random.default_rng(41))
    np.testing.assert_allclose(est.values, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# moment identity for sample second-moment matrices

def test_wishart_square_scalar_unit():
    closed, mc = wishart_square(np.eye(1), 1, 10_000, np.random.default_rng(7))
    # E[x^4] for standard normal x
    assert closed[0, 0] == 3.0
    assert abs(mc[0, 0] - 3.0) < 0.15


def test_wishart_square_diagonal_monte_carlo():
    D = np.diag([1.0, 0.5, 1.0 / 3.0])
    closed, mc = wishart_square(D, 50, 10_000, np.random.default_rng(8))
    expected = (1.0 + 1.0 / 50.0) * D @ D + (np.trace(D) / 50.0) * D
    assert np.allclose(closed, expected, atol=1e-12)
    assert np.max(np.abs(mc - closed)) < 0.01


def test_wishart_square_closed_form_homogeneity():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((4, 4))
    Sigma = A @ A.T
    c1, _ = wishart_square(Sigma, 9, 1, np.random.default_rng(0))
    c2, _ = wishart_square(2.0 * Sigma, 9, 1, np.random.default_rng(0))
    assert np.allclose(c2, 4.0 * c1, rtol=1e-12)


def test_wishart_square_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        wishart_square(np.ones((2, 3)), 5, 10, rng)
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InputError):
        wishart_square(bad, 5, 10, rng)
    with pytest.raises(InputError):
        wishart_square(-np.eye(2), 5, 10, rng)
    with pytest.raises(InputError):
        wishart_square(np.eye(2), 0, 10, rng)


# ---------------------------------------------------------------------------
# sign-resolved factorization

def test_signed_svd_recovers_canonical_factors():
    """Build Z from known factors already in canonical form; the resolved
    factorization must return exactly those factors."""
    rng = np.random.default_rng(11)
    H0, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    G0, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    signs = np.sign(G0[0, :])
    signs[signs == 0] = 1.0
    G0 = G0 * signs
    H0 = H0 * signs
    assert np.min(np.abs(G0[0, :])) > 1e-3  # uniqueness precondition
    Z = H0 @ np.diag([3.0, 2.0, 1.0]) @ G0.T
    H, L, G = signed_svd(Z)
    assert np.allclose(H, H0, atol=1e-10)
    assert np.allclose(np.diag(L), [3.0, 2.0, 1.0], atol=1e-10)
    assert np.allclose(G, G0, atol=1e-10)


def test_signed_svd_reconstruction_and_convention():
    rng = np.random.default_rng(14)
    for _ in range(20):
        Z = rng.standard_normal((8, 5))
        H, L, G = signed_svd(Z)
        assert np.all(G[0, :] >= 0.0)
        assert np.allclose(H @ L @ G.T, Z, atol=1e-10)
        assert np.allclose(H.T @ H, np.eye(5), atol=1e-10)
        assert np.allclose(G.T @ G, np.eye(5), atol=1e-10)
        diag = np.diag(L)
        assert np.allclose(L, np.diag(diag), atol=0.0)
        assert np.all(np.diff(diag) <= 0.0) and np.all(diag >= 0.0)


@pytest.mark.parametrize("matrices", [0, -3])
def test_check_signed_svd_needs_a_matrix(matrices):
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(InputError, match="at least one matrix"):
        check_signed_svd(matrices, rng)
    assert rng.bit_generator.state == state


def test_signed_svd_rejects_non_matrix():
    with pytest.raises(InputError):
        signed_svd(np.arange(4.0))


# ---------------------------------------------------------------------------
# quadratic-form tails

def test_lm_tail_zero_matrix_never_exceeds():
    reports = lm_tail_check(np.zeros((3, 3)), (1.0,), trials=500,
                            rng=np.random.default_rng(6))
    assert len(reports) == 2
    for rep in reports:
        assert rep.lhs == 0.0
        assert rep.holds


def test_lm_tail_identity_within_bound():
    reports = lm_tail_check(np.eye(5), (1.0,), trials=100_000,
                            rng=np.random.default_rng(16))
    by_name = {rep.name: rep for rep in reports}
    assert set(by_name) == {"lm_upper_tail", "lm_lower_tail"}
    for rep in reports:
        assert rep.rhs == pytest.approx(np.exp(-1.0))
        assert rep.lhs <= rep.rhs
        assert rep.holds


def test_lm_tail_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        lm_tail_check(np.ones((2, 3)), (1.0,), trials=10, rng=rng)
    with pytest.raises(InputError):
        lm_tail_check(np.array([[1.0, 0.5], [0.0, 1.0]]), (1.0,), trials=10, rng=rng)
    with pytest.raises(InputError):
        lm_tail_check(-np.eye(2), (1.0,), trials=10, rng=rng)
    with pytest.raises(InputError):
        lm_tail_check(np.eye(2), (0.0,), trials=10, rng=rng)
    with pytest.raises(InputError):
        lm_tail_check(np.eye(2), (1.0,), trials=0, rng=rng)
