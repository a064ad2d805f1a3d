"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench -q"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["workloads"]

# harness.run_table1 [0, 10] calls tuning.cv_select [1, 5], which builds a
# DesignFactorization [2, 4]; the harness then calls resampling.quantile [6, 7].
SPANS = [
    ["harness.run_table1", -1, 0.0, 10.0],
    ["tuning.cv_select", 0, 1.0, 5.0],
    ["linmodel.factorize", 1, 2.0, 4.0],
    ["resampling.quantile", 0, 6.0, 7.0],
]


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(SPANS) == [5.0, 2.0, 2.0, 1.0]


def test_summarize_per_cycle_and_unattributed_time():
    m = tracing.summarize(SPANS, {"draw_cells": 4}, cycles=2, traced_s=12.0, untraced_s=10.0)
    assert m.keys() == run.PER_LAYER.keys()
    assert m["harness.self_s"] == 2.5
    assert m["tuning.cv_select_self_s"] == 1.0
    assert m["tuning.cv_select_calls"] == 0.5
    assert m["linmodel.factorize_s"] == 1.0
    assert m["linmodel.self_s"] == 1.0
    assert m["resampling.quantile_s"] == 0.5
    assert m["resampling.draw_cells"] == 2
    assert m["bench.unattributed_s"] == 1.0
    assert m["trace.overhead_frac"] == pytest.approx(0.2)


def test_tracer_wraps_every_binding_and_restores_them():
    from ridgeboot import cli, harness, theory, tuning
    from ridgeboot.linmodel import DesignFactorization

    original = tuning.cv_select
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tuning.cv_select is harness.cv_select is cli.cv_select is theory.cv_select
        assert tuning.cv_select.__wrapped__ is original
        DesignFactorization([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    finally:
        tracer.uninstall()
    assert tuning.cv_select is harness.cv_select is original
    assert [span[0] for span in tracer.spans] == ["linmodel.factorize"]


def _perturbations(summary):
    """Yield (description, copy with one value changed) for each scalar."""
    stack = [((), summary)]
    while stack:
        path, node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, (dict, list)):
                stack.append((path + (key,), value))
                continue
            bad = copy.deepcopy(summary)
            target = bad
            for step in path:
                target = target[step]
            if isinstance(value, bool):
                target[key] = not value
            elif isinstance(value, int):
                target[key] = value + 1
            elif isinstance(value, float):
                target[key] = value * (1 + 1e-6) if value else 1e-300
            else:
                target[key] = value + "x"
            yield f"{path + (key,)}", bad


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_output_check_rejects_every_perturbed_value(name):
    stored = REFERENCE[name][0]
    assert run.compare(stored, copy.deepcopy(stored)) == []
    count = 0
    for where, bad in _perturbations(stored):
        assert run.compare(stored, bad), f"perturbing {where} went unnoticed"
        count += 1
    assert count >= 4


def test_float_tolerance_admits_last_digit_noise():
    stored = REFERENCE["sim-wide-cv"][0]
    close = copy.deepcopy(stored)
    close["methods"]["ridge_rb"]["width"] *= 1 + 1e-12
    assert run.compare(stored, close) == []


def test_structural_checks_flag_inconsistent_outputs():
    sim = workloads.WORKLOADS["sim-wide-cv"]
    summary = copy.deepcopy(REFERENCE["sim-wide-cv"][0])
    assert sim.problems(summary) == []
    summary["instances"] -= 1
    assert sim.problems(summary)

    check = workloads.WORKLOADS["check-mspe-link"]
    summary = copy.deepcopy(REFERENCE["check-mspe-link"][0])
    assert check.problems(summary) == []
    summary["rows"][0]["margin"] += 1.0
    assert check.problems(summary)

    ci = workloads.WORKLOADS["ci-latency"]
    summary = copy.deepcopy(REFERENCE["ci-latency"][1])
    assert summary["method"] == "normal" and ci.problems(summary) == []
    summary["estimate"] = summary["upper"]
    assert ci.problems(summary)


def test_metric_tables_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(REFERENCE) == sorted(workloads.WORKLOADS)


class _FakeWorkload:
    """Three free operations of one unit each; every output is correct."""

    name = "fake"
    cycle = 3
    units = 1

    def __init__(self, events=None):
        self.events = [] if events is None else events

    def run(self, i):
        self.events.append("op")
        return i

    def summary(self, output):
        return {"op": output}

    def problems(self, summary):
        return []

    def work(self, summary):
        return 1

    def skipped(self, summary):
        return 0


def test_timed_run_spreads_samples_over_the_run(monkeypatch):
    events = []
    monkeypatch.setattr(run, "cold_start", lambda *a: events.append("cold") or 2.0)
    monkeypatch.setattr(run, "setup_sample", lambda *a: events.append("setup") or 3.0)
    workload = _FakeWorkload(events)
    checker = run.Checker(workload, None)
    args = run.parse_args(["--workload", "fake", "--seconds", "1"])
    metrics = run.timed_run(workload, args, checker, setup_s=1.0)
    assert metrics.keys() == run.END_TO_END.keys()
    assert events.count("cold") == run.COLD_SAMPLES
    assert events.count("setup") == run.SETUP_SAMPLES - 1
    assert metrics["cold_s"] == 2.0 and metrics["setup_s"] == 3.0
    assert checker.failed == 0 and checker.attempted == events.count("op")
    # Operations ran between every two samples, not only before or after them.
    samples = [k for k, event in enumerate(events) if event != "op"]
    assert all(b - a > 1 for a, b in zip(samples, samples[1:]))


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_appear_in_benchmark_json(trace, section):
    proc = _run(["--workload", "sim-tall-boot", "--seed", "3", "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "ci-latency", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
