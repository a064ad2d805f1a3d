"""ridgeboot benchmark: one workload per process, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sim-wide-cv --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's operations for ``--seconds`` of wall time,
with fresh-process samples spread between them, and prints the end-to-end
metrics.  ``--trace 1`` alternates one untraced and one traced cycle within
``--seconds`` and prints the per-layer metrics per cycle.  Every operation's
output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md here.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads; the harness runs with threads = 1.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
# Set-up samples per run: this process and SETUP_SAMPLES - 1 fresh ones.
SETUP_SAMPLES = 3
COLD_SAMPLES = 7
CHILD_TIMEOUT_S = 120
# Relative tolerance for floats against the reference.  Counts, flags and
# names must match exactly; floats only to this tolerance because the BLAS
# thread count and summation order move their last digits.
REL_TOL = 1e-9

END_TO_END = {
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cold_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "linmodel.self_s": "s",
    "linmodel.factorize_calls": "count",
    "linmodel.factorize_s": "s",
    "linmodel.read_csv_s": "s",
    "designs.sample_s": "s",
    "designs.noise_draws": "count",
    "tuning.cv_select_calls": "count",
    "tuning.cv_select_self_s": "s",
    "resampling.self_s": "s",
    "resampling.draws_calls": "count",
    "resampling.draws_self_s": "s",
    "resampling.draw_cells": "count",
    "resampling.quantile_s": "s",
    "resampling.ci_normal_s": "s",
    "kernels.contrast_draws_s": "s",
    "kernels.contrast_draws_bytes": "bytes",
    "kernels.w2sq_calls": "count",
    "kernels.w2sq_s": "s",
    "kernels.w2sq_grid_points": "count",
    "mallows.self_s": "s",
    "mallows.d2_calls": "count",
    "mallows.d2_self_s": "s",
    "mallows.d2_kernel_frac": "ratio",
    "theory.self_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "bench.unattributed_s": "s",
}


def compare(expected, actual, path: str = "") -> list:
    """Differences between a reference summary and a fresh one.

    Floats compare to ``REL_TOL``; everything else must be equal.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in compare(e, a, f"{path}/{i}")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=REL_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rel tol {REL_TOL:g})"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


class Checker:
    """Checks every operation's output and counts attempted and failed units.

    A failed operation fails all its units; a skipped response fails one.
    """

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, i: int, output, error) -> int:
        """Check operation ``i``'s output; returns the work it completed."""
        units = self.workload.units
        self.attempted += units
        problems = []
        if error is not None:
            problems.append(f"raised {error!r}")
        else:
            try:
                summary = self.workload.summary(output)
                problems += self.workload.problems(summary)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if not problems:
            # The same inputs must give the same outputs on every cycle.
            problems += compare(self.first.setdefault(i, summary), summary, "repeat")
            if self.reference is not None:
                problems += compare(self.reference[i], summary, "reference")
        if problems:
            self.failed += units
            self.problems += [f"op {i}: {p}" for p in problems]
            return 0
        self.failed += self.workload.skipped(summary)
        return self.workload.work(summary)

    def record_cold(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"cold start: {detail}")


def run_op(workload, checker, i: int) -> tuple:
    """Run and check operation ``i``: (latency in s, work done)."""
    output = error = None
    t0 = time.perf_counter()
    try:
        output = workload.run(i)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        error = exc
    latency = time.perf_counter() - t0
    return latency, checker.record(i, output, error)


def run_cycle(workload, checker) -> tuple:
    """One pass over the workload's operations: (latencies in s, work done)."""
    latencies, work = [], 0
    for i in range(workload.cycle):
        latency, done = run_op(workload, checker, i)
        latencies.append(latency)
        work += done
    return latencies, work


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cold_start(workload, seed: int, checker) -> float:
    """Wall time of one fresh ``python -m ridgeboot.cli`` process."""
    argv = [sys.executable, "-m", "ridgeboot.cli", *workload.cold_argv(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    ok = proc.returncode == 0 and workload.cold_ok(proc.stdout)
    checker.record_cold(ok, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return wall


def setup_sample(args) -> float:
    """Set-up time reported by a fresh benchmark process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_run(workload, args, checker, setup_s: float) -> dict:
    """Operations and fresh-process samples, interleaved over ``--seconds`` of wall time.

    The host's speed drifts over seconds, so the cold-start and set-up
    samples are spread evenly over the run rather than taken in a block:
    every metric then averages over the same stretch of time.  Operations
    run in order, round the cycle, between the samples; the run ends once
    ``--seconds`` have passed, every sample is taken and every operation of
    the cycle has run at least once.
    """
    cold, setups = [], [setup_s]
    samples = [lambda: cold.append(cold_start(workload, args.seed, checker))] * COLD_SAMPLES
    for k in range(1, SETUP_SAMPLES):
        samples.insert(k * len(samples) // SETUP_SAMPLES, lambda: setups.append(setup_sample(args)))
    latencies, work, taken = [], 0, 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if taken < len(samples) and elapsed >= (taken + 0.5) * args.seconds / len(samples):
            samples[taken]()
            taken += 1
            continue
        if taken == len(samples) and elapsed >= args.seconds and len(latencies) >= workload.cycle:
            break
        latency, done = run_op(workload, checker, len(latencies) % workload.cycle)
        latencies.append(latency)
        work += done
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    return {
        "work_per_s": work / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        # The mean: with the host switching between speed levels, the median
        # of a few samples jumps from one level to the next.
        "cold_s": statistics.fmean(cold),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(workload, args, checker, env: dict) -> dict:
    """Pairs of one untraced and one traced cycle within ``--seconds`` (at least one pair)."""
    tracer = Tracer()
    traced = untraced = 0.0
    cycles = 0
    t0 = time.perf_counter()
    pair_s = 0.0
    while cycles == 0 or time.perf_counter() - t0 + pair_s <= args.seconds:
        start = time.perf_counter()
        untraced += sum(run_cycle(workload, checker)[0])
        tracer.install()
        try:
            traced += sum(run_cycle(workload, checker)[0])
        finally:
            tracer.uninstall()
        cycles += 1
        pair_s = time.perf_counter() - start
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", dict(env, cycles=cycles))
    return summarize(tracer.spans, tracer.counters, cycles, traced, untraced)


def blas_threads(numpy):
    """Thread count in effect in numpy's bundled OpenBLAS, when it can be asked."""
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    from ridgeboot import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "backend": _kernels.active_backend(),
        "src_lines": lines,
    }


def load_reference(name: str, seed: int):
    """Reference summaries for the default seed; None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]


def write_reference(workload) -> None:
    checker = Checker(workload, None)
    summaries = []
    for i in range(workload.cycle):
        output = workload.run(i)
        checker.record(i, output, None)
        summaries.append(workload.summary(output))
    if checker.problems:
        raise SystemExit("reference outputs fail their own checks:\n" + "\n".join(checker.problems))
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    if REFERENCE.exists():
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    data["workloads"][workload.name] = summaries
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ridgeboot benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this workload's default-seed outputs in reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ridgeboot" / "__init__.py").is_file():
        print(f"error: no ridgeboot source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ridgeboot
    from workloads import WORKLOADS

    if Path(ridgeboot.__file__).resolve().parent != SRC / "ridgeboot":
        print(f"error: ridgeboot imported from {ridgeboot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.write_reference:
            if args.seed != DEFAULT_SEED:
                print(f"error: the reference is for seed {DEFAULT_SEED}", file=sys.stderr)
                return 2
            write_reference(workload)
            return 0
        env = environment(args)
        print(json.dumps({"env": env}))
        checker = Checker(workload, load_reference(args.workload, args.seed))
        if args.trace:
            values, units = traced_run(workload, args, checker, env), PER_LAYER
        else:
            values, units = timed_run(workload, args, checker, setup_s), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    frac = checker.failed / checker.attempted
    print(f"{args.workload} seed={args.seed}: failed_frac={frac:.6g} ({checker.failed}/{checker.attempted})")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
