"""Simulation-study orchestration: coverage experiments, config files, seeding.

The coverage experiment draws N1 random designs, and for each design N2
responses; every response gets four competing 90% intervals for the mean
response at the highest-leverage row.  Results aggregate into one
(coverage, width) pair per method.  All randomness flows from a master
seed through ``seed_split`` so runs are reproducible and thread-count
independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from typing import Mapping, Optional, Sequence, get_type_hints

import numpy as np

from .designs import NoiseSpec, make_beta, make_covariance, sample_design, sample_noise
from .errors import ConfigError, DegenerateDataError, RidgebootError
from .linmodel import Dataset, DesignFactorization, theta_rule
from .resampling import ci_normal, ci_ols_rb, ci_ridge_rb, pivot_interval
from .theory import (
    check_design_events,
    check_mspe_link,
    check_theorem1,
    check_theorem4,
    lm_tail_check,
    rate_d2_empirical,
    rate_mspe,
    signed_svd,
    wishart_square,
)
from .tuning import cv_select, default_grid

__all__ = [
    "ExperimentConfig",
    "FIELD_TYPES",
    "REQUIRED_FIELDS",
    "MethodResult",
    "Table1Result",
    "METHODS",
    "seed_split",
    "run_table1",
    "read_config",
    "read_key_values",
    "write_config",
    "write_results",
    "preset_config",
    "run_check_suite",
    "write_report",
    "REPORT_COLUMNS",
    "CHECK_SUITES",
]

METHODS = ("oracle", "ridge_rb", "normal", "ols_rb")

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 avalanche; full 64-bit diffusion."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def seed_split(master: int, indices: Sequence[int]) -> int:
    """Deterministic child seed for the trial addressed by an index path.

    The master seed is mixed once, then each path element is absorbed by
    an avalanche round; the result is a plain integer in [0, 2^64) that
    depends on every element and on the path length.  The chain is pure
    integer arithmetic, so it is identical on every platform.

    Each round also folds in its 1-based position.  Without that, a
    path whose first element equals the master cancels the state back
    to the master-0 base, aliasing (m, rest...) under master m with
    (rest...) under master 0.
    """
    state = _splitmix64(int(master) & _MASK64)
    for pos, ix in enumerate(indices, start=1):
        salt = (pos * 0x9E3779B97F4A7C15) & _MASK64
        state = _splitmix64(state ^ _splitmix64(int(ix) & _MASK64) ^ salt)
    return state


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one coverage experiment."""

    n: int
    p: int
    eta: float
    N1: int
    N2: int
    B: int
    level: float = 0.9
    sigma: float = 0.1
    noise_family: str = "scaled_t"
    noise_dof: float = 5.0
    grid_size: int = 30
    grid_min_factor: float = 1e-4
    grid_max_factor: float = 1e2
    folds: int = 5
    cv_per_design: int = 0
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "p", "N1", "N2", "B", "grid_size", "threads"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1")
        if not (isinstance(self.folds, (int, np.integer)) and self.folds >= 2):
            raise ConfigError("folds must be an integer >= 2")
        if not (0.0 < self.level < 1.0):
            raise ConfigError("level must lie in (0,1)")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError("sigma must be positive")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ConfigError("eta must be a nonnegative real")
        for name in ("grid_min_factor", "grid_max_factor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive")
        if self.grid_min_factor >= self.grid_max_factor and self.grid_size > 1:
            raise ConfigError("grid_min_factor must be below grid_max_factor")
        if self.cv_per_design not in (0, 1):
            raise ConfigError("cv_per_design must be 0 or 1")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < (1 << 64)):
            raise ConfigError("seed must be a 64-bit nonnegative integer")
        if self.noise_family == "custom_atoms":
            raise ConfigError("custom_atoms noise is not representable in config files")
        # Validate the noise family/dof combination eagerly.
        self.noise_spec()

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(family=self.noise_family, sigma=self.sigma, dof=self.noise_dof)


# The type of every config field, read from its annotation: config files,
# write_config and the simulate flags all convert through this one table.
FIELD_TYPES = get_type_hints(ExperimentConfig)
REQUIRED_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


@dataclass(frozen=True)
class MethodResult:
    """Aggregate coverage and mean width for one interval method."""

    method: str
    coverage: float
    width: float
    instances: int

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ConfigError("instances must be >= 1")
        if not (0.0 <= self.coverage <= 1.0):
            raise ConfigError("coverage must lie in [0,1]")
        if not (np.isfinite(self.width) and self.width >= 0):
            raise ConfigError("width must be a nonnegative real")
        count = self.coverage * self.instances
        if abs(count - round(count)) > 1e-6:
            raise ConfigError("coverage * instances must be an integer count")


@dataclass(frozen=True)
class Table1Result:
    """One experiment's per-method results plus instance accounting."""

    methods: tuple
    skips: int
    seed: int

    def by_method(self) -> dict:
        return {m.method: m for m in self.methods}


def _design_trial(config: ExperimentConfig, design_index: int) -> dict:
    """All N2 responses for one design; returns raw counts for the reducer."""
    gen = np.random.default_rng(seed_split(config.seed, (design_index,)))
    noise = config.noise_spec()
    grid = default_grid(config.n, config.grid_size, config.grid_min_factor, config.grid_max_factor)

    cov = make_covariance(config.p, config.eta, gen)
    X = sample_design(config.n, cov, gen)
    beta = make_beta(config.p)
    fact = DesignFactorization(X)
    istar = int(np.argmax(fact.leverage()))
    c = X[istar].copy()
    target = float(c @ beta)
    signal = X @ beta

    cover = {m: 0 for m in METHODS}
    width_sum = {m: 0.0 for m in METHODS}
    errors = []
    skips = 0
    plan = None
    for _ in range(config.N2):
        eps = sample_noise(noise, config.n, gen)
        data = Dataset(X, signal + eps, beta_true=beta, sigma_true=config.sigma)
        try:
            if plan is None or not config.cv_per_design:
                plan = cv_select(data, grid=grid, folds=config.folds, rng=gen)
            rho, varrho = plan.inference_rho, plan.pilot_rho
            point = float(fact.contrast_weights(c, rho) @ data.Y)
            ridge = ci_ridge_rb(data, c, rho, varrho, config.B, config.level, gen, fact=fact)
            normal = ci_normal(data, c, rho, config.level, fact=fact)
            ols = ci_ols_rb(data, c, config.B, config.level, gen, fact=fact)
        except RidgebootError:
            skips += 1
            continue
        for tag, ci in (("ridge_rb", ridge), ("normal", normal), ("ols_rb", ols)):
            cover[tag] += int(ci.lower <= target <= ci.upper)
            width_sum[tag] += ci.width
        errors.append(point - target)

    # The infeasible benchmark: the quantile pivot on the realized error
    # pool of this design, shared by all its instances.  Anchored at 0 it
    # is [-q_hi, -q_lo], the offset of every instance's interval from its
    # own point, so an instance covers the target iff -error lies inside.
    if errors:
        pool = np.asarray(errors)
        oracle = pivot_interval("oracle", pool, 0.0, config.level)
        cover["oracle"] = int(np.sum((-pool >= oracle.lower) & (-pool <= oracle.upper)))
        width_sum["oracle"] = oracle.width * pool.size
    return {
        "cover": cover,
        "width_sum": width_sum,
        "instances": len(errors),
        "skips": skips,
    }


def run_table1(config: ExperimentConfig) -> Table1Result:
    """Run the full coverage experiment described by ``config``.

    Designs run independently (optionally on a thread pool); partial
    results are reduced in design-index order, so output is identical
    for any thread count.  Responses that fail numerically are skipped
    and counted; an experiment where every response fails raises.
    """
    indices = range(config.N1)
    if config.threads == 1:
        partials = [_design_trial(config, d) for d in indices]
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            partials = list(pool.map(lambda d: _design_trial(config, d), indices))

    cover = {m: 0 for m in METHODS}
    width_sum = {m: 0.0 for m in METHODS}
    instances = 0
    skips = 0
    for part in partials:
        for m in METHODS:
            cover[m] += part["cover"][m]
            width_sum[m] += part["width_sum"][m]
        instances += part["instances"]
        skips += part["skips"]
    if instances == 0:
        raise DegenerateDataError("every response failed; nothing to aggregate")

    methods = tuple(
        MethodResult(
            method=m,
            coverage=cover[m] / instances,
            width=width_sum[m] / instances,
            instances=instances,
        )
        for m in METHODS
    )
    return Table1Result(methods=methods, skips=skips, seed=config.seed)


def write_config(config: ExperimentConfig, path: str) -> None:
    """Write a flat key = value file with every config field."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, kind in FIELD_TYPES.items():
            value = getattr(config, name)
            if kind is float:
                fh.write(f"{name} = {float(value):.17g}\n")
            else:
                fh.write(f"{name} = {kind(value)}\n")


def read_key_values(path: str) -> dict:
    """Raw string values of a flat key = value file.

    Blank lines and lines starting with # are skipped; a line without
    '=' or a repeated key is an error.  ``read_config`` and the check
    suites' override files both read through here.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def _typed(values: Mapping, kinds: Mapping, what: str) -> dict:
    """``values`` converted to ``kinds[key]``.

    Unknown keys are errors rather than silently ignored, so a misspelled
    knob cannot fall back to a default.  An integer field takes only an
    integer or an integer literal: 1.7 is an error, never truncated to 1.
    """
    out = {}
    for key, value in values.items():
        if key not in kinds:
            raise ConfigError(f"unknown {what} {key!r}; valid: {sorted(kinds)}")
        kind = kinds[key]
        try:
            if kind is int and isinstance(value, float):
                raise ValueError(value)
            out[key] = kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return out


def read_config(path: str) -> ExperimentConfig:
    """Parse a flat key = value config file with the ExperimentConfig fields."""
    values = _typed(read_key_values(path), FIELD_TYPES, "config key")
    missing = sorted(set(REQUIRED_FIELDS) - set(values))
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    return ExperimentConfig(**values)


def write_results(results: Sequence, path: str) -> None:
    """Write experiment results as CSV.

    ``results`` is a sequence of (setting_label, Table1Result) pairs.
    The header comment records the fixed conventions so downstream
    readers need no other context; no timestamps, so reruns are
    byte-identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# quantiles: order statistic at ceil(alpha*B); cv grid: geomspace over [min_factor*n, max_factor*n]\n")
        fh.write("setting,method,coverage,width,instances,skips,seed\n")
        for label, result in results:
            for m in result.methods:
                fh.write(
                    f"{label},{m.method},{m.coverage:.17g},{m.width:.17g},"
                    f"{m.instances},{result.skips},{result.seed}\n"
                )


_SETTINGS = {
    "setting1": (100, 45, 0.5),
    "setting2": (100, 95, 0.5),
    "setting3": (100, 45, 1.0),
    "setting4": (100, 95, 1.0),
}

_SCALES = {
    "desk": (20, 500, 500),
    "full": (100, 1000, 1000),
}


def preset_config(
    name: str,
    scale: str = "desk",
    seed: int = 0,
    threads: int = 1,
) -> ExperimentConfig:
    """Named experiment presets at desk (minutes) or full (hours) scale."""
    if name not in _SETTINGS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_SETTINGS)}")
    if scale not in _SCALES:
        raise ConfigError(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}")
    n, p, eta = _SETTINGS[name]
    N1, N2, B = _SCALES[scale]
    return ExperimentConfig(n=n, p=p, eta=eta, N1=N1, N2=N2, B=B, seed=seed, threads=threads)


# ---------------------------------------------------------------------------
# Check suites: canned verification runs behind `ridgeboot check`.

REPORT_COLUMNS = ("name", "lhs", "rhs", "margin", "holds", "n", "p", "eta", "gamma", "theta", "seed")

CHECK_SUITES = ("theorem1", "mspe-link", "rates", "design-events", "theorem4", "appendix")


def _row(name, lhs, rhs, margin, holds, **extra) -> dict:
    row = {col: "" for col in REPORT_COLUMNS}
    row.update(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        holds=bool(holds),
    )
    for key, value in extra.items():
        if key not in REPORT_COLUMNS:
            raise ConfigError(f"unknown report column {key!r}")
        row[key] = value
    return row


def _report_rows(reports, **extra) -> list:
    rows = []
    for rep in reports:
        cfg = rep.config
        kwargs = {
            "n": cfg.get("n", ""),
            "p": cfg.get("p", ""),
            "eta": cfg.get("eta", ""),
            "gamma": cfg.get("gamma", ""),
            "theta": cfg.get("theta", ""),
        }
        kwargs.update(extra)
        rows.append(_row(rep.name, rep.lhs, rep.rhs, rep.margin, rep.holds, **kwargs))
    return rows


def write_report(rows: Sequence[Mapping], path: str) -> None:
    """Write check-suite rows as CSV with the fixed column schema."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in REPORT_COLUMNS:
                value = row.get(col, "")
                if isinstance(value, bool):
                    cells.append("1" if value else "0")
                elif isinstance(value, float):
                    cells.append(f"{value:.10g}")
                elif value == "":
                    cells.append("")
                else:
                    cells.append(str(value))
            fh.write(",".join(cells) + "\n")


def _sweep_cases(seed: int, count: int):
    """Randomized small-n problem instances shared by the bound suites."""
    for k in range(count):
        child = seed_split(seed, (101, k))
        gen = np.random.default_rng(child)
        n = int(gen.integers(10, 41))
        p = int(gen.integers(2, int(math.ceil(1.2 * n)) + 1))
        eta = float(gen.uniform(0.0, 1.5))
        sigma = float(gen.uniform(0.05, 1.0))
        family = ("scaled_t", "normal", "two_point")[int(gen.integers(0, 3))]
        dof = float(gen.uniform(4.5, 12.0)) if family == "scaled_t" else 5.0
        noise = NoiseSpec(family=family, sigma=sigma, dof=dof)
        cov = make_covariance(p, eta, gen)
        X = sample_design(n, cov, gen)
        beta = make_beta(p) * float(gen.uniform(0.0, 2.0))
        eps = sample_noise(noise, n, gen)
        data = Dataset(X, X @ beta + eps, beta_true=beta, sigma_true=sigma)
        rho = float(n) * 10.0 ** float(gen.uniform(-3.0, 1.0))
        pilot = float(n) * 10.0 ** float(gen.uniform(-3.0, 1.0))
        if gen.random() < 0.5:
            c = X[int(gen.integers(0, n))].copy()
        else:
            c = gen.standard_normal(p)
        yield k, child, data, noise, c, rho, pilot, gen


def _setting_case(index: int, seed: int = 1):
    """One seeded simulation-study design with CV-selected penalties."""
    name = f"setting{index}"
    n, p, eta = _SETTINGS[name]
    gen = np.random.default_rng(seed_split(seed, (index,)))
    noise = NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0)
    cov = make_covariance(p, eta, gen)
    X = sample_design(n, cov, gen)
    beta = make_beta(p)
    eps = sample_noise(noise, n, gen)
    data = Dataset(X, X @ beta + eps, beta_true=beta, sigma_true=0.1)
    fact = DesignFactorization(X)
    c = X[int(np.argmax(fact.leverage()))].copy()
    plan = cv_select(data, rng=gen)
    return name, data, noise, c, plan.inference_rho, plan.pilot_rho, gen


def _merge_overrides(defaults: dict, overrides: Optional[Mapping]) -> dict:
    kinds = {key: type(value) for key, value in defaults.items()}
    return {**defaults, **_typed(overrides or {}, kinds, "override")}


def _suite_theorem1(seed: int, overrides: Optional[Mapping]) -> list:
    knobs = _merge_overrides(
        {"sweep": 200, "m_boot": 20000, "m_ref": 50000, "settings_m": 400000, "include_settings": 1},
        overrides,
    )
    rows = []
    for k, child, data, noise, c, rho, pilot, gen in _sweep_cases(seed, knobs["sweep"]):
        rep = check_theorem1(
            data, noise, c, rho, pilot, gen, m_boot=knobs["m_boot"], m_ref=knobs["m_ref"]
        )
        rows.extend(_report_rows([rep], seed=child))
    if knobs["include_settings"]:
        for index in (1, 2, 3, 4):
            name, data, noise, c, rho, pilot, gen = _setting_case(index, seed=1)
            rep = check_theorem1(
                data, noise, c, rho, pilot, gen,
                m_boot=knobs["settings_m"], m_ref=knobs["settings_m"],
            )
            row = _report_rows([rep], seed=1)[0]
            row["name"] = f"theorem1[{name}]"
            rows.append(row)
    return rows


def _suite_mspe_link(seed: int, overrides: Optional[Mapping]) -> list:
    knobs = _merge_overrides({"sweep": 200, "reps": 12, "m_ref": 20000}, overrides)
    rows = []
    for k, child, data, noise, c, rho, pilot, gen in _sweep_cases(seed, knobs["sweep"]):
        estimators = ["ridge", "perfect"]
        if data.p < data.n:
            estimators.insert(1, "ols")
        for estimator in estimators:
            rep = check_mspe_link(
                data, noise, estimator, knobs["reps"], gen,
                varrho=pilot if estimator == "ridge" else None,
                m_ref=knobs["m_ref"],
            )
            rows.extend(_report_rows([rep], seed=child))
    return rows


def _rate_rows(name: str, est, **extra) -> list:
    """One report row for a slope fit; a one-sided band (-inf, hi] reports
    margin hi - slope, a two-sided band its halfwidth minus the deviation."""
    lo, hi = est.band
    if np.isfinite(lo):
        margin = (hi - lo) / 2.0 - abs(est.fitted_slope - est.target_slope)
    else:
        margin = hi - est.fitted_slope
    return [
        _row(
            name,
            est.fitted_slope,
            est.target_slope,
            margin,
            est.within_band,
            **extra,
        )
    ]


def _suite_rates(seed: int, overrides: Optional[Mapping]) -> list:
    knobs = _merge_overrides(
        {"mspe_trials": 20, "d2_trials": 30, "d2_m_ref": 100000, "n_max": 1024, "d2_n_max": 10000},
        overrides,
    )
    rows = []
    grid = [64]
    while grid[-1] < knobs["n_max"]:
        grid.append(grid[-1] * 2)
    for nu in (0.3, 1.0, 2.0):
        gen = np.random.default_rng(seed_split(seed, (201, int(nu * 10))))
        est = rate_mspe(nu, grid, knobs["mspe_trials"], gen)
        rows.extend(_rate_rows("rate_mspe", est, eta=nu, theta=theta_rule(nu), seed=seed))
    # The default d2 grid stops at d2_m_ref / 10, so the reference
    # sample's own error does not flatten the last decade of the fit.
    d2_grid = [100]
    while d2_grid[-1] < knobs["d2_n_max"]:
        d2_grid.append(d2_grid[-1] * 10)
    for pos, (label, noise) in enumerate(
        (
            ("normal", NoiseSpec(family="normal", sigma=1.0)),
            ("t5", NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0)),
        )
    ):
        gen = np.random.default_rng(seed_split(seed, (202, pos)))
        est = rate_d2_empirical(noise, d2_grid, knobs["d2_trials"], gen, m_ref=knobs["d2_m_ref"])
        rows.extend(_rate_rows(f"rate_d2_{label}", est, seed=seed))
    return rows


def _suite_design_events(seed: int, overrides: Optional[Mapping]) -> list:
    knobs = _merge_overrides({"trials": 100, "n_min": 200, "n_max": 800}, overrides)
    grid = [knobs["n_min"]]
    while grid[-1] < knobs["n_max"]:
        grid.append(grid[-1] * 2)
    gen = np.random.default_rng(seed_split(seed, (301,)))
    reports = check_design_events(1.0, 0.6, theta_rule(1.0), grid, knobs["trials"], gen)
    return _report_rows(reports, seed=seed)


def _suite_theorem4(seed: int, overrides: Optional[Mapping]) -> list:
    knobs = _merge_overrides({"design_trials": 15, "noise_reps": 2000, "n_min": 50, "n_max": 200}, overrides)
    grid = [knobs["n_min"]]
    while grid[-1] < knobs["n_max"]:
        grid.append(grid[-1] * 2)
    gen = np.random.default_rng(seed_split(seed, (401,)))
    eta, gamma = 1.0, 0.55
    est = check_theorem4(
        eta, gamma, theta_rule(eta), grid, knobs["design_trials"], knobs["noise_reps"], gen
    )
    rows = []
    prev = None
    for n, value in zip(est.n_grid, est.values):
        rhs = prev if prev is not None else value
        rows.append(
            _row(
                "theorem4_median",
                value,
                rhs,
                rhs - value,
                value < rhs or prev is None,
                n=n,
                eta=eta,
                gamma=gamma,
                theta=theta_rule(eta),
                seed=seed,
            )
        )
        prev = value
    rows.append(
        _row(
            "theorem4_trend",
            est.fitted_slope,
            0.0,
            -est.fitted_slope,
            est.strictly_decreasing,
            eta=eta,
            gamma=gamma,
            theta=theta_rule(eta),
            seed=seed,
        )
    )
    return rows


def _suite_appendix(seed: int, overrides: Optional[Mapping]) -> list:
    knobs = _merge_overrides(
        {"wishart_mc": 40000, "svd_matrices": 10000, "lm_trials": 100000},
        overrides,
    )
    rows = []
    gen = np.random.default_rng(seed_split(seed, (501,)))

    # Fourth-moment identity, scalar case: E[x^4] = 3 for standard normal.
    closed, _ = wishart_square(np.eye(1), 1, 1, gen)
    rows.append(
        _row("wishart_scalar", float(closed[0, 0]), 3.0, 3.0 - float(closed[0, 0]),
             abs(float(closed[0, 0]) - 3.0) < 1e-12, n=1, p=1, seed=seed)
    )
    # Monte Carlo agreement on a random covariance.
    G = gen.standard_normal((3, 3))
    Sigma = G @ G.T / 3.0
    closed, mc = wishart_square(Sigma, 5, knobs["wishart_mc"], gen)
    rel = float(np.linalg.norm(mc - closed) / np.linalg.norm(closed))
    rows.append(_row("wishart_mc", rel, 0.02, 0.02 - rel, rel <= 0.02, n=5, p=3, seed=seed))

    # Factorization reconstruction quality.
    worst = 0.0
    for _ in range(50):
        Z = gen.standard_normal((20, 8))
        H, L, Gf = signed_svd(Z)
        err = float(np.linalg.norm(H @ L @ Gf.T - Z) / np.linalg.norm(Z))
        worst = max(worst, err)
    rows.append(_row("signed_svd_reconstruct", worst, 1e-10, 1e-10 - worst, worst <= 1e-10,
                     n=20, p=8, seed=seed))

    # First-row mass of the left factor concentrates at p/n.
    total = 0.0
    reps = knobs["svd_matrices"]
    for _ in range(reps):
        Z = gen.standard_normal((10, 4))
        H, _, _ = signed_svd(Z)
        total += float(H[0] @ H[0])
    dev = abs(total / reps - 0.4)
    rows.append(_row("signed_svd_row_mass", dev, 0.01, 0.01 - dev, dev <= 0.01,
                     n=10, p=4, seed=seed))

    # Quadratic-form tail bounds.
    reports = lm_tail_check(np.eye(5), (1.0,), knobs["lm_trials"], gen)
    G = gen.standard_normal((8, 8))
    A = G @ G.T / 8.0
    reports += lm_tail_check(A, (0.5, 1.0, 2.0, 4.0), knobs["lm_trials"], gen)
    for rep in reports:
        row = _report_rows([rep], seed=seed)[0]
        row["name"] = f"{rep.name}[t={rep.config['t']:g}]"
        row["n"] = rep.config["dim"]
        rows.append(row)
    return rows


_SUITE_RUNNERS = {
    "theorem1": _suite_theorem1,
    "mspe-link": _suite_mspe_link,
    "rates": _suite_rates,
    "design-events": _suite_design_events,
    "theorem4": _suite_theorem4,
    "appendix": _suite_appendix,
}


def run_check_suite(suite: str, seed: int, overrides: Optional[Mapping] = None) -> list:
    """Run one named verification suite; returns report rows for the CSV."""
    if suite not in _SUITE_RUNNERS:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(_SUITE_RUNNERS)}")
    return _SUITE_RUNNERS[suite](int(seed), overrides)
