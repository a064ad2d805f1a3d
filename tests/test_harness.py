"""Experiment driver: seeding, config files, aggregation, and suite plumbing."""

import ast
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ridgeboot
from helpers import REDUCED_KNOBS
from ridgeboot import harness
from ridgeboot.designs import sample_design, sample_noise
from ridgeboot.errors import ConfigError
from ridgeboot.harness import (
    CHECK_SUITES,
    FIELD_TYPES,
    METHODS,
    REPORT_COLUMNS,
    ExperimentConfig,
    MethodResult,
    Table1Result,
    preset_config,
    read_config,
    run_check_suite,
    run_table1,
    seed_split,
    write_config,
    write_report,
    write_results,
)
from ridgeboot.linmodel import DesignFactorization
from ridgeboot.resampling import quantile
from ridgeboot.theory import RateEstimate
from ridgeboot.tuning import default_grid, penalty_pair


# ---------------------------------------------------------------------------
# child-seed derivation

def test_seed_split_deterministic():
    assert seed_split(9, (2, 5)) == seed_split(9, (2, 5))
    assert seed_split(9, (2, 5)) != seed_split(9, (5, 2))
    assert seed_split(9, (2,)) != seed_split(9, (2, 0))
    assert seed_split(9, (2,)) != seed_split(10, (2,))
    assert 0 <= seed_split(123456789, (1, 2, 3)) < (1 << 64)


def test_seed_split_no_master_prefix_alias():
    """A path starting with the master seed must not collapse onto the
    master-0 stream for the remaining elements."""
    for master in (0, 7, 12345):
        for b in range(2000):
            assert seed_split(master, (master, b)) != seed_split(0, (b,))


def test_seed_split_mixed_shapes_distinct():
    seen = set()
    for i in range(50_000):
        seen.add(seed_split(0, (i,)))
    for k in range(50_000):
        seen.add(seed_split(0, (k // 331, k % 331)))
    for m in range(10_000):
        seen.add(seed_split(m, (3, 1, 4)))
    assert len(seen) == 110_000


# ---------------------------------------------------------------------------
# config files

def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        n=50, p=20, eta=1.0 / 3.0, N1=4, N2=7, B=100,
        level=0.95, sigma=0.125, noise_family="normal", noise_dof=7.5,
        grid_size=12, grid_min_factor=2e-4, grid_max_factor=50.0,
        folds=4, cv_per_design=1, seed=987654321, threads=2,
    )
    path = tmp_path / "exp.cfg"
    write_config(cfg, str(path))
    assert read_config(str(path)) == cfg


def test_config_file_errors(tmp_path):
    base = "n = 10\np = 3\neta = 0.5\nN1 = 2\nN2 = 4\nB = 50\n"
    cases = {
        "unknown.cfg": base + "bogus = 1\n",
        "duplicate.cfg": base + "n = 11\n",
        "badvalue.cfg": base.replace("B = 50", "B = fifty"),
        "noequals.cfg": base + "just some words\n",
        "missing.cfg": "n = 10\np = 3\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_config(str(path))


def test_config_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nn = 10\np = 3\neta = 0.5\nN1 = 2\nN2 = 4\nB = 50\n")
    cfg = read_config(str(path))
    assert (cfg.n, cfg.p, cfg.B) == (10, 3, 50)
    assert cfg.level == 0.9  # defaults fill unset fields


def test_config_validation():
    ok = dict(n=10, p=3, eta=0.5, N1=2, N2=4, B=50)
    ExperimentConfig(**ok)
    bad = [
        dict(ok, n=0),
        dict(ok, level=1.0),
        dict(ok, sigma=0.0),
        dict(ok, eta=-0.1),
        dict(ok, folds=1),
        dict(ok, folds=11),
        dict(ok, cv_per_design=2),
        dict(ok, seed=-1),
        dict(ok, seed=1 << 64),
        dict(ok, noise_family="custom_atoms"),
        dict(ok, noise_family="bogus"),
        dict(ok, grid_min_factor=10.0, grid_max_factor=1.0),
        dict(ok, grid_min_factor=0.0),
        dict(ok, p=10),  # p = n
        dict(ok, p=12),  # p > n
        dict(ok, noise_dof=4.0),  # t law without a finite fourth moment
        dict(ok, noise_dof=float("nan")),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


def test_method_result_validation():
    MethodResult(method="oracle", coverage=0.91, width=0.2, instances=100)
    with pytest.raises(ConfigError):
        MethodResult(method="oracle", coverage=0.905, width=0.2, instances=100)
    with pytest.raises(ConfigError):
        MethodResult(method="oracle", coverage=1.5, width=0.2, instances=100)
    with pytest.raises(ConfigError):
        MethodResult(method="oracle", coverage=0.5, width=-1.0, instances=100)
    with pytest.raises(ConfigError):
        MethodResult(method="oracle", coverage=0.5, width=0.2, instances=0)


# ---------------------------------------------------------------------------
# experiment driver

def _small_config(**overrides):
    kwargs = dict(n=30, p=5, eta=0.5, N1=2, N2=100, B=200, grid_size=8, seed=3)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_run_table1_shapes_and_counts():
    result = run_table1(_small_config())
    assert isinstance(result, Table1Result)
    assert tuple(m.method for m in result.methods) == METHODS
    assert result.skips == 0
    for m in result.methods:
        assert m.instances == 200
        count = m.coverage * m.instances
        assert abs(count - round(count)) < 1e-9
        assert m.width > 0.0


def test_run_table1_oracle_coverage_is_structural():
    """The benchmark interval is built from the same error pool it is scored
    on, so with no skips its coverage is a deterministic function of N2 and
    the level: (ceil(0.95 N2) - ceil(0.05 N2) + 1) / N2 per design."""
    config = _small_config()
    result = run_table1(config)
    n2 = config.N2
    expected = (math.ceil(0.95 * n2) - math.ceil(0.05 * n2) + 1) / n2
    assert result.by_method()["oracle"].coverage == pytest.approx(expected)
    assert expected == pytest.approx(0.91)


def test_run_table1_thread_count_does_not_change_output(tmp_path):
    res1 = run_table1(_small_config(threads=1))
    res4 = run_table1(_small_config(threads=4))
    p1 = tmp_path / "t1.csv"
    p4 = tmp_path / "t4.csv"
    write_results([("s", res1)], str(p1))
    write_results([("s", res4)], str(p4))
    assert p1.read_bytes() == p4.read_bytes()


def test_run_table1_seed_changes_output():
    r3 = run_table1(_small_config(N2=20))
    r4 = run_table1(_small_config(N2=20, seed=4))
    w3 = [m.width for m in r3.methods]
    w4 = [m.width for m in r4.methods]
    assert w3 != w4


def test_run_table1_shared_cv_plan_per_design():
    config = _small_config(N2=30, B=150, seed=5, cv_per_design=1)
    result = run_table1(config)
    assert result.skips == 0
    oracle = result.by_method()["oracle"]
    assert oracle.instances == 60
    expected = (math.ceil(0.95 * 30) - math.ceil(0.05 * 30) + 1) / 30
    assert oracle.coverage == pytest.approx(expected)


def test_run_table1_factorizes_each_design_once(monkeypatch):
    """CV for every response reuses the design's SVD: one factorization per
    design, where refitting the folds would add five per response."""
    config = _small_config(N1=1, N2=6, B=50)
    built = []
    init = DesignFactorization.__init__

    def counting_init(self, X):
        built.append(np.shape(X))
        init(self, X)

    monkeypatch.setattr(DesignFactorization, "__init__", counting_init)
    result = run_table1(config)
    assert result.skips == 0
    assert built == [(config.n, config.p)]


def test_preset_config_values():
    cfg = preset_config("setting2", scale="desk", seed=11, threads=3)
    assert (cfg.n, cfg.p, cfg.eta) == (100, 95, 0.5)
    assert (cfg.N1, cfg.N2, cfg.B) == (20, 500, 500)
    assert (cfg.seed, cfg.threads) == (11, 3)
    full = preset_config("setting3", scale="full")
    assert (full.n, full.p, full.eta) == (100, 45, 1.0)
    assert (full.N1, full.N2, full.B) == (100, 1000, 1000)
    with pytest.raises(ConfigError):
        preset_config("setting9")
    with pytest.raises(ConfigError):
        preset_config("setting1", scale="galactic")


def test_write_results_format(tmp_path):
    result = run_table1(_small_config(N2=20))
    path = tmp_path / "out.csv"
    write_results([("setting1", result), ("again", result)], str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "setting,method,coverage,width,instances,skips,seed"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 8
    assert [r[0] for r in rows[:4]] == ["setting1"] * 4
    assert [r[1] for r in rows[:4]] == list(METHODS)
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0
        assert float(r[3]) >= 0.0
        assert int(r[4]) == 20 * 2
        assert int(r[6]) == 3


def test_results_header_records_config(tmp_path):
    cfg = ExperimentConfig(
        n=50, p=20, eta=1.0 / 3.0, N1=4, N2=7, B=100,
        level=0.95, sigma=0.125, noise_family="normal", noise_dof=7.5,
        grid_size=12, grid_min_factor=2e-4, grid_max_factor=50.0,
        folds=4, cv_per_design=1, seed=987654321, threads=3,
    )
    methods = tuple(MethodResult(method=m, coverage=0.5, width=1.0, instances=2) for m in METHODS)
    path = tmp_path / "out.csv"
    write_results([("custom", Table1Result(methods=methods, skips=0, config=cfg))], str(path))
    header = path.read_text().splitlines()[0]
    assert header.startswith("# ")
    values = dict(cell.split("=", 1) for cell in header[2:].split())
    assert values.pop("version") == ridgeboot.__version__
    assert values.pop("blas_threads") == os.environ.get("OPENBLAS_NUM_THREADS", "default")
    assert "threads" not in values  # results do not depend on it
    parsed = ExperimentConfig(**{key: FIELD_TYPES[key](v) for key, v in values.items()})
    assert parsed == replace(cfg, threads=1)


# ---------------------------------------------------------------------------
# check-suite plumbing

def test_run_check_suite_rejects_unknowns():
    with pytest.raises(ConfigError):
        run_check_suite("bogus", 0)
    with pytest.raises(ConfigError):
        run_check_suite("appendix", 0, overrides={"bogus_knob": 1})
    # integer knobs take integer literals only: no truncation, no bare ValueError
    for value in ("abc", "1.7", 1.7):
        with pytest.raises(ConfigError):
            run_check_suite("mspe-link", 0, overrides={"sweep": value})


@pytest.mark.parametrize("suite, knobs", [
    ("theorem4", {"n_min": 0}),
    ("theorem4", {"n_min": -4}),
    ("design-events", {"n_min": 0}),
    ("mspe-link", {"sweep": -3}),
    ("theorem1", {"sweep": -1}),
    ("theorem1", {"sweep": 0, "include_settings": 7, "settings_m": 2000}),
])
def test_run_check_suite_rejects_empty_or_endless_knobs(suite, knobs):
    """A grid from 0 would double forever, a negative sweep would run no check
    and theorem1's include_settings is a 0/1 switch; each is a ConfigError
    before any work."""
    with pytest.raises(ConfigError):
        run_check_suite(suite, 0, overrides=knobs)


def test_readme_knob_table_matches_suites():
    """The README's table of check knobs lists every suite's knobs with their
    defaults, names and values, and nothing else."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| suite | knob | default | meaning |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        suite, knob, default = (cell.strip().strip("`") for cell in line.split("|")[1:4])
        table.setdefault(suite, {})[knob] = ast.literal_eval(default)
    assert table == {suite: defaults for suite, (_, defaults) in harness._SUITES.items()}


@pytest.mark.parametrize("suite", CHECK_SUITES)
def test_report_rows_schema(suite, tmp_path):
    rows = run_check_suite(suite, 0, overrides=REDUCED_KNOBS[suite])
    assert rows
    for row in rows:
        assert tuple(row) == REPORT_COLUMNS
        assert all(type(row[col]) is float for col in ("lhs", "rhs", "margin"))
        assert type(row["holds"]) is bool
        assert type(row["seed"]) is int
        assert all(type(row[col]) is int or row[col] == "" for col in ("n", "p"))
    path = tmp_path / "report.csv"
    write_report(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == len(rows) + 1
    holds_col = REPORT_COLUMNS.index("holds")
    for line in lines[1:]:
        assert line.split(",")[holds_col] in ("0", "1")


def test_suite_list_is_complete():
    assert CHECK_SUITES == (
        "theorem1", "mspe-link", "rates", "design-events", "theorem4", "appendix",
    )
    for suite in CHECK_SUITES:
        assert isinstance(suite, str)


def test_rate_rows_band_margin():
    """A rate report with a one-sided band (-inf, hi] holds at or below hi, fails
    above it and reports margin hi - slope for any hi, not only hi = 0; a
    two-sided band reports its halfwidth minus the deviation from the target."""
    inf = float("inf")
    cases = (
        ((-inf, -0.35), -1.0, True, 0.65),
        ((-inf, -0.35), -0.35, True, 0.0),
        ((-inf, -0.35), -0.2, False, -0.15),
        ((-0.65, -0.35), -0.6, True, 0.05),
        ((-0.65, -0.35), -0.8, False, -0.15),
    )
    for band, slope, holds, margin in cases:
        est = RateEstimate(
            n_grid=(100, 1000), values=(1.0, 0.5), fitted_slope=slope,
            target_slope=-0.5, band=band,
        )
        rep = est.report("rate_x")
        assert rep.holds is holds
        assert rep.margin == pytest.approx(margin)
        assert (rep.lhs, rep.rhs) == (slope, -0.5)


# ---------------------------------------------------------------------------
# the oracle benchmark

def test_oracle_width_is_the_error_law_range():
    """With one grid value the penalty is fixed, so the oracle width of a
    one-design run is the 0.05-0.95 quantile range of N2 draws of a^T eps,
    a = a(rho) the contrast weights of the rebuilt design."""
    config = ExperimentConfig(n=40, p=10, eta=0.5, N1=1, N2=2000, B=20,
                              grid_size=1, grid_min_factor=1.0, seed=21)
    oracle = run_table1(config).by_method()["oracle"]

    gen = np.random.default_rng(seed_split(config.seed, (0,)))
    X = sample_design(config.n, config.p, config.eta, gen)
    fact = DesignFactorization(X)
    c = X[int(np.argmax(fact.leverage()))]
    _, rho = penalty_pair(default_grid(config.n, config.grid_size, config.grid_min_factor)[0])
    a = fact.contrast_weights(c, rho)

    # Widths of fresh N2-draw pools, with the harness's quantile rule:
    # their mean is what the oracle width estimates, their SD its error.
    rng = np.random.default_rng(99)
    widths = []
    for _ in range(200):
        eps = sample_noise(config.noise_spec(), config.N2 * config.n, rng)
        pool = np.sort(eps.reshape(config.N2, config.n) @ a)
        widths.append(quantile(pool, 0.95) - quantile(pool, 0.05))
    widths = np.asarray(widths)
    assert abs(oracle.width - widths.mean()) <= 4.0 * widths.std()
    # The Monte Carlo error is small next to the width itself.
    assert widths.std() <= 0.03 * widths.mean()
