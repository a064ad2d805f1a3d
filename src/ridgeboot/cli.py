"""Command line front end.

Three subcommands: ``ci`` builds one confidence interval from CSV data,
``simulate`` runs a coverage experiment and writes the results table,
``check`` runs a named verification suite and writes its report.  All
output files are plain CSV so downstream tooling needs no Python.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

# One BLAS thread unless the user set one, before numpy loads: threaded BLAS
# splits products and the SVD by thread, so with the default thread count a
# results file would change with the machine's core count.  Once numpy has
# loaded (a library caller imported it first) the variables no longer change
# its BLAS, so they are left as they are: the results header and the check
# suites' default worker count read them.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from .errors import ConfigError, InputError, RidgebootError  # noqa: E402
from .harness import (  # noqa: E402
    CHECK_SUITES,
    FIELD_TYPES,
    PRESETS,
    REQUIRED_FIELDS,
    SCALES,
    ExperimentConfig,
    check_seed,
    preset_config,
    read_config,
    read_key_values,
    run_check_suite,
    run_table1,
    seed_split,
    write_report,
    write_results,
)
from .linmodel import Dataset, read_matrix_csv, read_vector_csv  # noqa: E402
from .resampling import INTERVALS, LEAST_SQUARES  # noqa: E402
from .tuning import cv_select  # noqa: E402


# One parser per process: building one takes over a millisecond, a tenth of a
# small ``ci`` call, and ``parse_args`` leaves it unchanged.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgeboot",
        description="Residual-bootstrap confidence intervals for ridge contrasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="interval for one design/response pair")
    ci.add_argument("--design", required=True, help="headerless CSV, rows = observations")
    ci.add_argument("--response", required=True, help="single-column CSV")
    ci.add_argument("--contrast", required=True, help="row:<i> or file:<path>")
    ci.add_argument("--method", choices=tuple(INTERVALS), default=next(iter(INTERVALS)))
    ci.add_argument("--level", type=float, default=0.9)
    ci.add_argument("--B", type=int, default=1000)
    ci.add_argument("--rho", type=float, default=None, help="default: 0.1 * cv penalty")
    ci.add_argument("--pilot-rho", type=float, default=None, dest="pilot_rho",
                    help="default: 5 * cv penalty")
    ci.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="coverage experiment over random designs")
    sim.add_argument("--config", default=None, help="flat key = value file")
    sim.add_argument("--preset", default=None, choices=PRESETS)
    sim.add_argument("--scale", default="desk", choices=SCALES)
    sim.add_argument("--out", required=True, help="results CSV path")
    for name, kind in FIELD_TYPES.items():
        if name != "cv_per_design":
            sim.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)
    sim.add_argument("--cv-per-design", dest="cv_per_design", action="store_const",
                     const=1, default=None,
                     help="tune penalties once per design instead of per response")

    chk = sub.add_parser("check", help="run a verification suite")
    chk.add_argument("--suite", required=True, choices=CHECK_SUITES)
    chk.add_argument("--config", default=None, help="flat key = value override file")
    chk.add_argument("--out", required=True, help="report CSV path")
    chk.add_argument("--seed", type=int, default=0)
    return parser


def _parse_contrast(spec: str, X: np.ndarray) -> np.ndarray:
    if spec.startswith("row:"):
        body = spec[len("row:"):]
        try:
            i = int(body)
        except ValueError as exc:
            raise InputError(f"bad row index {body!r}") from exc
        if not 0 <= i < X.shape[0]:
            raise InputError(f"row index {i} outside 0..{X.shape[0] - 1}")
        return X[i].copy()
    if spec.startswith("file:"):
        c = read_vector_csv(spec[len("file:"):])
        if c.size != X.shape[1]:
            raise InputError(f"contrast length {c.size} does not match p = {X.shape[1]}")
        return c
    raise InputError("contrast must be row:<i> or file:<path>")


def _cmd_ci(args: argparse.Namespace) -> int:
    seed = check_seed(args.seed)
    for flag, value in (("--rho", args.rho), ("--pilot-rho", args.pilot_rho)):
        if value is not None and not (np.isfinite(value) and value >= 0):
            raise InputError(f"{flag} must be a finite nonnegative real, got {value}")
    X = read_matrix_csv(args.design)
    Y = read_vector_csv(args.response)
    data = Dataset(X, Y)
    c = _parse_contrast(args.contrast, X)
    if args.method in LEAST_SQUARES and data.p >= data.n:
        raise InputError(f"--method {args.method} fits least squares, which needs p < n; "
                         f"the design has p = {data.p}, n = {data.n}")
    gen = np.random.default_rng(seed_split(seed, (0,)))

    rho = args.rho
    pilot = args.pilot_rho
    if rho is None or (args.method == "ridge_rb" and pilot is None):
        plan = cv_select(data, rng=gen)
        if rho is None:
            rho = plan.inference_rho
        if pilot is None:
            pilot = plan.pilot_rho

    interval = INTERVALS[args.method](data, c, rho, pilot, args.B, args.level, gen)

    print("method,level,lower,upper,estimate")
    print(
        f"{args.method},{args.level:g},{interval.lower:.17g},"
        f"{interval.upper:.17g},{interval.estimate:.17g}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        base = asdict(read_config(args.config))
    elif args.preset:
        base = asdict(preset_config(args.preset, scale=args.scale))
    else:
        base = {}
    flags = {k: v for k, v in vars(args).items() if k in FIELD_TYPES and v is not None}
    values = {**base, **flags}
    missing = sorted(set(REQUIRED_FIELDS) - set(values))
    if missing:
        raise ConfigError(
            f"without --config or --preset, flags are required for: {', '.join(missing)}"
        )
    config = ExperimentConfig(**values)
    label = args.preset or "custom"

    result = run_table1(config)
    write_results(label, result, args.out)
    total = result.methods[0].instances
    print(f"{label}: {total} instances, {result.skips} skips -> {args.out}")
    for m in result.methods:
        print(f"  {m.method}: coverage={m.coverage:.3f} width={m.width:.4f}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    overrides = read_key_values(args.config) if args.config else None
    rows = run_check_suite(args.suite, args.seed, overrides)
    write_report(rows, args.out)
    failing = sum(1 for row in rows if not row["holds"])
    print(f"{args.suite}: {len(rows)} checks, {failing} failing -> {args.out}")
    return 0


_DISPATCH = {"ci": _cmd_ci, "simulate": _cmd_simulate, "check": _cmd_check}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, InputError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RidgebootError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
