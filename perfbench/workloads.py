"""The benchmark's workloads: inputs from the seed, one operation, output checks.

Each workload owns a cycle of distinct operations built from the workload
seed in ``setup``; the benchmark runs them in order, round the cycle.  Cycles
are odd, so the median latency falls inside one operation's spread of times
rather than on the gap between two.  ``summary`` turns one operation's
output into plain JSON values; ``problems`` checks a summary against
invariants that hold for every seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from ridgeboot import cli, harness


def child_seeds(seed: int, count: int) -> list:
    """``count`` independent 64-bit seeds derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


class SimWorkload:
    """``harness.run_table1`` on one preset shape; work is counted in responses."""

    cycle = 9

    def __init__(self, name: str, **fields):
        self.name = name
        self.fields = fields
        self.units = fields["N1"] * fields["N2"]

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.configs = [
            harness.ExperimentConfig(seed=s, threads=1, **self.fields)
            for s in child_seeds(seed, self.cycle)
        ]
        tiny = dict(self.fields, N1=1, N2=1)
        harness.run_table1(harness.ExperimentConfig(seed=seed, **tiny))

    def run(self, i: int):
        return harness.run_table1(self.configs[i])

    def summary(self, result) -> dict:
        return {
            "instances": result.methods[0].instances,
            "skips": result.skips,
            "methods": {
                m.method: {"cover": round(m.coverage * m.instances), "width": m.width}
                for m in result.methods
            },
        }

    def work(self, summary: dict) -> int:
        return self.units

    def skipped(self, summary: dict) -> int:
        return summary["skips"]

    def problems(self, summary: dict) -> list:
        out = []
        attempted = self.work(summary)
        if summary["instances"] + summary["skips"] != attempted:
            out.append(f"instances + skips != {attempted} responses")
        for method, row in summary["methods"].items():
            coverage = row["cover"] / max(summary["instances"], 1)
            if not 0 <= row["cover"] <= summary["instances"]:
                out.append(f"{method}: cover count outside 0..instances")
            if abs(coverage * summary["instances"] - row["cover"]) > 1e-6:
                out.append(f"{method}: coverage * instances is not an integer")
            if not (math.isfinite(row["width"]) and row["width"] >= 0):
                out.append(f"{method}: width not a nonnegative real")
        return out

    def cold_argv(self, seed: int) -> list:
        f = self.fields
        argv = ["simulate", "--n", f["n"], "--p", f["p"], "--eta", f["eta"], "--N1", 1, "--N2", 2,
                "--B", f["B"], "--seed", seed, "--out", os.path.join(self.workdir, "cold.csv")]
        if f.get("cv_per_design"):
            argv.append("--cv-per-design")
        return [str(a) for a in argv]

    def cold_ok(self, stdout: str) -> bool:
        with open(os.path.join(self.workdir, "cold.csv"), encoding="utf-8") as fh:
            return len([line for line in fh if not line.startswith("#")]) == 1 + len(harness.METHODS)


class CheckWorkload:
    """``harness.run_check_suite("mspe-link")`` at distinct seeds; work is counted in report rows."""

    units = 1
    estimators = ("mspe_link_ridge", "mspe_link_ols", "mspe_link_perfect")

    def __init__(self, name: str, sweep: int, cycle: int):
        self.name = name
        self.sweep = sweep
        self.cycle = cycle

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.seeds = child_seeds(seed, self.cycle)
        harness.run_check_suite("mspe-link", seed, {"sweep": 1})

    def run(self, i: int):
        return harness.run_check_suite("mspe-link", self.seeds[i], {"sweep": self.sweep})

    def summary(self, rows) -> dict:
        keys = ("name", "lhs", "rhs", "margin", "holds", "n", "p")
        return {"rows": [{k: row[k] for k in keys} for row in rows]}

    def work(self, summary: dict) -> int:
        return len(summary["rows"])

    def skipped(self, summary: dict) -> int:
        return 0

    def problems(self, summary: dict) -> list:
        out = []
        rows = summary["rows"]
        if not 2 * self.sweep <= len(rows) <= 3 * self.sweep:
            out.append(f"{len(rows)} rows for {self.sweep} cases")
        for row in rows:
            if row["name"] not in self.estimators:
                out.append(f"unknown row {row['name']!r}")
            if not (math.isfinite(row["lhs"]) and math.isfinite(row["rhs"]) and row["lhs"] >= 0):
                out.append(f"{row['name']}: lhs/rhs not finite")
            elif row["margin"] != row["rhs"] - row["lhs"]:
                out.append(f"{row['name']}: margin != rhs - lhs")
            if not isinstance(row["holds"], bool):
                out.append(f"{row['name']}: holds is not a flag")
        return out

    def cold_argv(self, seed: int) -> list:
        config = os.path.join(self.workdir, "cold.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("sweep = 1\n")
        return ["check", "--suite", "mspe-link", "--config", config,
                "--out", os.path.join(self.workdir, "cold.csv"), "--seed", str(seed)]

    def cold_ok(self, stdout: str) -> bool:
        with open(os.path.join(self.workdir, "cold.csv"), encoding="utf-8") as fh:
            return 1 + 2 <= len(fh.readlines()) <= 1 + 3


class CiWorkload:
    """In-process ``cli.main(["ci", ...])`` on CSV files; work is counted in calls."""

    shapes = ((100, 95), (100, 45), (300, 240))
    methods = ("ridge_rb", "normal", "ols_rb")
    cycle = len(shapes) * len(methods)
    units = 1
    B = 2000

    def __init__(self, name: str):
        self.name = name

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.argvs = []
        for k, (n, p) in enumerate(self.shapes):
            # Near low-rank design with power-law column scales, as in the study.
            X = rng.standard_normal((n, p)) * np.arange(1, p + 1) ** -0.25
            Y = X @ np.full(p, p ** -0.5) + 0.1 * rng.standard_normal(n)
            design = os.path.join(workdir, f"design{k}.csv")
            response = os.path.join(workdir, f"response{k}.csv")
            np.savetxt(design, X, delimiter=",", fmt="%.17g")
            np.savetxt(response, Y, delimiter=",", fmt="%.17g")
            row = int(rng.integers(0, n))
            call_seed = int(rng.integers(0, 2**31))
            for method in self.methods:
                self.argvs.append([
                    "ci", "--design", design, "--response", response, "--contrast", f"row:{row}",
                    "--method", method, "--B", str(self.B), "--seed", str(call_seed),
                ])
        for i in range(self.cycle):
            self.run(i)

    def run(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argvs[i])
        return code, out.getvalue()

    def summary(self, result) -> dict:
        code, stdout = result
        fields = stdout.strip().splitlines()[-1].split(",") if stdout.strip() else []
        if code != 0 or len(fields) != 5:
            return {"exit": code, "line": fields}
        method, _, lower, upper, estimate = fields
        return {"exit": code, "method": method, "lower": float(lower),
                "upper": float(upper), "estimate": float(estimate)}

    def work(self, summary: dict) -> int:
        return 1

    def skipped(self, summary: dict) -> int:
        return 0

    def problems(self, summary: dict) -> list:
        if summary["exit"] != 0 or "method" not in summary:
            return [f"ci exited {summary['exit']} with output {summary.get('line')}"]
        lo, hi, est = summary["lower"], summary["upper"], summary["estimate"]
        if not all(map(math.isfinite, (lo, hi, est))) or not lo < hi:
            return [f"{summary['method']}: bad interval [{lo}, {hi}]"]
        if summary["method"] == "normal" and not math.isclose((lo + hi) / 2, est, rel_tol=1e-9, abs_tol=1e-12):
            return ["normal: interval not centred on the estimate"]
        return []

    def cold_argv(self, seed: int) -> list:
        return self.argvs[0]

    def cold_ok(self, stdout: str) -> bool:
        return not self.problems(self.summary((0, stdout)))


WORKLOADS = {
    w.name: w
    for w in (
        # Setting 2's shape, CV for every response: tuning and its fold SVDs dominate.
        SimWorkload("sim-wide-cv", n=100, p=95, eta=0.5, N1=2, N2=10, B=500),
        # Setting 1's shape, CV once per design: bootstrap draws dominate.
        SimWorkload("sim-tall-boot", n=100, p=45, eta=0.5, N1=1, N2=25, B=2000, cv_per_design=1),
        # No CV and no draws: the W2 kernel and noise sampling dominate.  Five
        # 4-case suites rather than one 20-case suite, so a run times several operations.
        CheckWorkload("check-mspe-link", sweep=4, cycle=5),
        # The CLI path: argparse, CSV readers, CV, one interval per call.
        CiWorkload("ci-latency"),
    )
}
