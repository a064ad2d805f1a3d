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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from typing import Mapping, Optional, Sequence, get_type_hints

import numpy as np

from . import __version__
from .designs import (
    NoiseSpec,
    generate_dataset,
    make_beta,
    sample_design,
    sample_noise,
)
from .errors import ConfigError, DegenerateDataError, RidgebootError
from .linmodel import Dataset, theta_rule
from .resampling import ci_normal, ci_ols_rb, ci_ridge_rb, pivot_interval
from .theory import (
    CheckReport,
    check_design_events,
    check_mspe_link,
    check_signed_svd,
    check_theorem1,
    check_theorem4,
    check_wishart,
    lm_tail_check,
    rate_d2_empirical,
    rate_mspe,
)
from .tuning import (DEFAULT_FOLDS, DEFAULT_GRID_MAX_FACTOR, DEFAULT_GRID_MIN_FACTOR,
                     DEFAULT_GRID_SIZE, cv_select, default_grid)

__all__ = [
    "ExperimentConfig",
    "FIELD_TYPES",
    "REQUIRED_FIELDS",
    "MethodResult",
    "Table1Result",
    "METHODS",
    "seed_split",
    "check_seed",
    "run_table1",
    "read_config",
    "read_key_values",
    "write_config",
    "write_results",
    "preset_config",
    "PRESETS",
    "SCALES",
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


def check_seed(seed) -> int:
    """The master seed as an int, or ConfigError unless it lies in [0, 2^64).

    ``seed_split`` keeps the low 64 bits, so a seed outside that range would
    silently alias one inside it (-1 runs as 2^64 - 1)."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < (1 << 64)):
        raise ConfigError("seed must be a 64-bit nonnegative integer")
    return int(seed)


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
    grid_size: int = DEFAULT_GRID_SIZE
    grid_min_factor: float = DEFAULT_GRID_MIN_FACTOR
    grid_max_factor: float = DEFAULT_GRID_MAX_FACTOR
    folds: int = DEFAULT_FOLDS
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
        if self.folds > self.n:
            raise ConfigError("folds must not exceed n")
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
        if self.p >= self.n:
            raise ConfigError(
                f"p = {self.p} must be below n = {self.n}: the max-leverage contrast row "
                "and the normal and ols_rb intervals need p < n"
            )
        check_seed(self.seed)
        try:
            self.noise_spec()
        except RidgebootError as exc:
            raise ConfigError(f"bad noise law: {exc}") from exc

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
    """One experiment's per-method results, instance accounting and config."""

    methods: tuple
    skips: int
    config: ExperimentConfig

    def by_method(self) -> dict:
        return {m.method: m for m in self.methods}


def _design_trial(config: ExperimentConfig, design_index: int) -> dict:
    """All N2 responses for one design; returns raw counts for the reducer."""
    gen = np.random.default_rng(seed_split(config.seed, (design_index,)))
    noise = config.noise_spec()
    grid = default_grid(config.n, config.grid_size, config.grid_min_factor, config.grid_max_factor)

    X = sample_design(config.n, config.p, config.eta, gen)
    beta = make_beta(config.p)
    signal = X @ beta
    design = Dataset(X, signal)
    c = X[int(np.argmax(design.fact.leverage()))].copy()
    target = float(c @ beta)

    cover = {m: 0 for m in METHODS}
    width_sum = {m: 0.0 for m in METHODS}
    errors = []
    skips = 0
    plan = None
    for _ in range(config.N2):
        data = design.with_response(signal + sample_noise(noise, config.n, gen))
        try:
            if plan is None or not config.cv_per_design:
                plan = cv_select(data, grid=grid, folds=config.folds, rng=gen)
            rho, varrho = plan.inference_rho, plan.pilot_rho
            ridge = ci_ridge_rb(data, c, rho, varrho, config.B, config.level, gen)
            normal = ci_normal(data, c, rho, config.level)
            ols = ci_ols_rb(data, c, config.B, config.level, gen)
        except RidgebootError:
            skips += 1
            continue
        for tag, ci in (("ridge_rb", ridge), ("normal", normal), ("ols_rb", ols)):
            cover[tag] += int(ci.lower <= target <= ci.upper)
            width_sum[tag] += ci.width
        errors.append(ridge.estimate - target)

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
    return Table1Result(methods=methods, skips=skips, config=config)


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


def _config_comment(config: ExperimentConfig) -> str:
    """``# version=... n=... p=... blas_threads=...``: the package version, every
    config field but ``threads``, which results do not depend on, and the BLAS
    thread count, which they do (``OPENBLAS_NUM_THREADS``, which the CLI sets
    to 1 before numpy loads unless the user set it; ``default`` if unset)."""
    cells = [f"version={__version__}"]
    cells += [f"{name}={kind(getattr(config, name))}" for name, kind in FIELD_TYPES.items()
              if name != "threads"]
    cells.append(f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'default')}")
    return "# " + " ".join(cells) + "\n"


def write_results(results: Sequence, path: str) -> None:
    """Write experiment results as CSV.

    ``results`` is a sequence of (setting_label, Table1Result) pairs.  One
    comment line per distinct configuration records it with the package
    version; no timestamps and no worker-thread count, so reruns with the same
    BLAS thread count are byte-identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(dict.fromkeys(_config_comment(result.config) for _, result in results))
        fh.write("setting,method,coverage,width,instances,skips,seed\n")
        for label, result in results:
            for m in result.methods:
                fh.write(
                    f"{label},{m.method},{m.coverage:.17g},{m.width:.17g},"
                    f"{m.instances},{result.skips},{result.config.seed}\n"
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
PRESETS = tuple(_SETTINGS)
SCALES = tuple(_SCALES)


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
# Check suites: canned verification runs behind `ridgeboot check`.  A suite is
# a table of default knobs and a generator of (CheckReport, seed) pairs; every
# pair becomes one report row.

_CASE_COLUMNS = ("n", "p", "eta", "gamma", "theta")
REPORT_COLUMNS = ("name", "lhs", "rhs", "margin", "holds", *_CASE_COLUMNS, "seed")


def _report_row(rep: CheckReport, seed: int) -> dict:
    """The check's outcome, its case's n/p/eta/gamma/theta from ``rep.config``
    (blank where the check has none), and the seed of the case."""
    row = {"name": rep.name, "lhs": float(rep.lhs), "rhs": float(rep.rhs),
           "margin": float(rep.margin), "holds": bool(rep.holds)}
    row.update((col, rep.config.get(col, "")) for col in _CASE_COLUMNS)
    row["seed"] = seed
    return row


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
    if count < 0:
        raise ConfigError("sweep must be >= 0")
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
        X = sample_design(n, p, eta, gen)
        beta = make_beta(p) * float(gen.uniform(0.0, 2.0))
        eps = sample_noise(noise, n, gen)
        data = Dataset(X, X @ beta + eps)
        rho = float(n) * 10.0 ** float(gen.uniform(-3.0, 1.0))
        pilot = float(n) * 10.0 ** float(gen.uniform(-3.0, 1.0))
        if gen.random() < 0.5:
            c = X[int(gen.integers(0, n))].copy()
        else:
            c = gen.standard_normal(p)
        yield child, data, beta, noise, c, rho, pilot, gen


def _setting_case(index: int, seed: int = 1):
    """One seeded simulation-study design with CV-selected penalties."""
    name = f"setting{index}"
    config = preset_config(name)
    gen = np.random.default_rng(seed_split(seed, (index,)))
    noise = config.noise_spec()
    beta = make_beta(config.p)
    data = generate_dataset(config.n, config.eta, beta, noise, gen)
    c = data.X[int(np.argmax(data.fact.leverage()))].copy()
    plan = cv_select(data, rng=gen)
    return name, data, beta, noise, c, plan.inference_rho, plan.pilot_rho, gen


def _geometric(lo: int, hi: int, factor: int) -> list:
    """lo, factor lo, factor^2 lo, ... up to the first value at or above hi."""
    if lo < 1:
        raise ConfigError(f"a sample-size grid must start at 1 or above, got {lo}")
    grid = [lo]
    while grid[-1] < hi:
        grid.append(grid[-1] * factor)
    return grid


def _suite_theorem1(seed: int, knobs: dict):
    if knobs["include_settings"] not in (0, 1):
        raise ConfigError("include_settings must be 0 or 1")
    for child, data, beta, noise, c, rho, pilot, gen in _sweep_cases(seed, knobs["sweep"]):
        yield check_theorem1(data, beta, noise, c, rho, pilot, gen,
                             m_boot=knobs["m_boot"], m_ref=knobs["m_ref"]), child
    if knobs["include_settings"]:
        for index in (1, 2, 3, 4):
            name, data, beta, noise, c, rho, pilot, gen = _setting_case(index, seed=1)
            rep = check_theorem1(data, beta, noise, c, rho, pilot, gen,
                                 m_boot=knobs["settings_m"], m_ref=knobs["settings_m"])
            yield replace(rep, name=f"theorem1[{name}]"), 1


def _suite_mspe_link(seed: int, knobs: dict):
    for child, data, beta, noise, c, rho, pilot, gen in _sweep_cases(seed, knobs["sweep"]):
        estimators = ("ridge", "ols", "perfect") if data.p < data.n else ("ridge", "perfect")
        for estimator in estimators:
            yield check_mspe_link(data, beta, noise, estimator, knobs["reps"], gen,
                                  varrho=pilot, m_ref=knobs["m_ref"]), child


def _suite_rates(seed: int, knobs: dict):
    grid = _geometric(64, knobs["n_max"], 2)
    for nu in (0.3, 1.0, 2.0):
        gen = np.random.default_rng(seed_split(seed, (201, int(nu * 10))))
        est = rate_mspe(nu, grid, knobs["mspe_trials"], gen)
        yield est.report("rate_mspe", eta=nu, theta=theta_rule(nu)), seed
    # The default d2 grid stops at d2_m_ref / 10, so the reference
    # sample's own error does not flatten the last decade of the fit.
    d2_grid = _geometric(100, knobs["d2_n_max"], 10)
    for pos, (label, noise) in enumerate(
        (
            ("normal", NoiseSpec(family="normal", sigma=1.0)),
            ("t5", NoiseSpec(family="scaled_t", sigma=0.1, dof=5.0)),
        )
    ):
        gen = np.random.default_rng(seed_split(seed, (202, pos)))
        est = rate_d2_empirical(noise, d2_grid, knobs["d2_trials"], gen, m_ref=knobs["d2_m_ref"])
        yield est.report(f"rate_d2_{label}"), seed


def _suite_design_events(seed: int, knobs: dict):
    grid = _geometric(knobs["n_min"], knobs["n_max"], 2)
    gen = np.random.default_rng(seed_split(seed, (301,)))
    for rep in check_design_events(1.0, 0.6, theta_rule(1.0), grid, knobs["trials"], gen):
        yield rep, seed


def _suite_theorem4(seed: int, knobs: dict):
    grid = _geometric(knobs["n_min"], knobs["n_max"], 2)
    gen = np.random.default_rng(seed_split(seed, (401,)))
    eta, gamma, theta = 1.0, 0.55, theta_rule(1.0)
    est = check_theorem4(eta, gamma, theta, grid, knobs["design_trials"], knobs["noise_reps"], gen)
    for rep in est.trend_reports("theorem4", eta=eta, gamma=gamma, theta=theta):
        yield rep, seed


def _suite_appendix(seed: int, knobs: dict):
    gen = np.random.default_rng(seed_split(seed, (501,)))
    reports = check_wishart(knobs["wishart_mc"], gen)
    reports += check_signed_svd(knobs["svd_matrices"], gen)
    tails = lm_tail_check(np.eye(5), (1.0,), knobs["lm_trials"], gen)
    G = gen.standard_normal((8, 8))
    tails += lm_tail_check(G @ G.T / 8.0, (0.5, 1.0, 2.0, 4.0), knobs["lm_trials"], gen)
    reports += [replace(rep, name=f"{rep.name}[t={rep.config['t']:g}]") for rep in tails]
    for rep in reports:
        yield rep, seed


_SUITES = {
    "theorem1": (_suite_theorem1, {"sweep": 200, "m_boot": 20000, "m_ref": 50000,
                                   "settings_m": 400000, "include_settings": 1}),
    "mspe-link": (_suite_mspe_link, {"sweep": 200, "reps": 12, "m_ref": 20000}),
    "rates": (_suite_rates, {"mspe_trials": 20, "d2_trials": 30, "d2_m_ref": 100000,
                             "n_max": 1024, "d2_n_max": 10000}),
    "design-events": (_suite_design_events, {"trials": 100, "n_min": 200, "n_max": 800}),
    "theorem4": (_suite_theorem4, {"design_trials": 15, "noise_reps": 2000,
                                   "n_min": 50, "n_max": 200}),
    "appendix": (_suite_appendix, {"wishart_mc": 40000, "svd_matrices": 10000,
                                   "lm_trials": 100000}),
}
CHECK_SUITES = tuple(_SUITES)


def run_check_suite(suite: str, seed: int, overrides: Optional[Mapping] = None) -> list:
    """Run one named verification suite; returns report rows for the CSV."""
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    runner, defaults = _SUITES[suite]
    kinds = {key: type(value) for key, value in defaults.items()}
    knobs = {**defaults, **_typed(overrides or {}, kinds, "override")}
    return [_report_row(rep, row_seed) for rep, row_seed in runner(check_seed(seed), knobs)]
