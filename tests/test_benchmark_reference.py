"""The benchmark's pinned outputs: one cycle of every workload in
``perfbench/workloads.py`` at the reference seed, against
``perfbench/reference.json``.  A change that moves them fails here, before
the benchmark's own output check fails on it."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))

# Only the workload module is loaded: importing perfbench/run.py would pin the
# BLAS thread count for every test after this one.
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    workload.setup(REFERENCE["seed"], str(tmp_path))
    summaries = [workload.summary(workload.run(i)) for i in range(workload.cycle)]
    assert differences(REFERENCE["workloads"][name], summaries) == []
