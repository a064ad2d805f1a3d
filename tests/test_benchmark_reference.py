"""The benchmark's pinned outputs: one cycle of every workload in
``perfbench/workloads.py`` at the reference seed, against
``perfbench/reference.json``, plain and under ``perfbench/tracing.py``'s
tracer.  A change that moves them, or that renames what the tracer wraps or
reads, fails here, before the benchmark's own output check fails on it."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))



def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Only the workload and tracer modules are loaded: importing perfbench/run.py
# would pin the BLAS thread count for every test after this one.
workloads = _load("workloads")
tracing = _load("tracing")


def differences(expected, actual, path=""):
    """Where ``actual`` departs from ``expected``: counts, flags and names must
    be equal, floats equal to a relative 1e-9 as in the benchmark."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in differences(expected[k], actual[k], f"{path}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, pair in enumerate(zip(expected, actual))
                for d in differences(*pair, f"{path}/{i}")]
    if isinstance(expected, float) and isinstance(actual, float):
        return [] if math.isclose(actual, expected, rel_tol=1e-9) else [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def cycle_summaries(name, workdir):
    workload = workloads.WORKLOADS[name]
    workload.setup(REFERENCE["seed"], str(workdir))
    return [workload.summary(workload.run(i)) for i in range(workload.cycle)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(name, tmp_path):
    assert differences(REFERENCE["workloads"][name], cycle_summaries(name, tmp_path)) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_matches_reference(name, tmp_path):
    """The tracer wraps every layer function and reads its hooks' argument
    names on each call, as ``perfbench/run.py --trace 1`` does."""
    from ridgeboot import harness, tuning

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.cv_select is tuning.cv_select and hasattr(tuning.cv_select, "__wrapped__")
        summaries = cycle_summaries(name, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert differences(REFERENCE["workloads"][name], summaries) == []
