"""Packaging: numpy is the one runtime dependency, every hard dependency in
pyproject.toml imports, and the CLI runs every subcommand without scipy."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import REDUCED_KNOBS

tomllib = pytest.importorskip("tomllib")
PROJECT = tomllib.loads(
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
)["project"]


def _names(specs):
    return [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in specs]


def test_runtime_dependency_is_numpy_alone():
    # scipy serves only the tests (scipy.stats references, the transport LP).
    assert _names(PROJECT["dependencies"]) == ["numpy"]
    assert "scipy" in _names(PROJECT["optional-dependencies"]["test"])


def test_every_dependency_imports():
    dependencies = PROJECT["dependencies"]
    assert dependencies
    for name in _names(dependencies):
        importlib.import_module(name.replace("-", "_"))


# Runs in a fresh interpreter: every subcommand in-process through cli.main,
# then the names of any scipy modules loaded on the way.
_NO_SCIPY_CHILD = """
import json, sys
from ridgeboot.cli import main
argvs = json.loads(sys.argv[1])
codes = [main(argv) for argv in argvs]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_cli_runs_without_scipy(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 3))
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "Y.csv", X @ np.ones(3) + rng.standard_normal(20), delimiter=",")
    argvs = [["simulate", "--n", "20", "--p", "4", "--eta", "0.5", "--N1", "1", "--N2", "3",
              "--B", "50", "--grid-size", "4", "--out", str(tmp_path / "sim.csv")]]
    argvs += [["ci", "--design", str(tmp_path / "X.csv"), "--response", str(tmp_path / "Y.csv"),
               "--contrast", "row:0", "--method", method, "--B", "50"]
              for method in ("normal", "ridge_rb", "ols_rb")]
    for suite, knobs in REDUCED_KNOBS.items():
        config = tmp_path / f"{suite}.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in knobs.items()))
        argvs.append(["check", "--suite", suite, "--config", str(config),
                      "--out", str(tmp_path / f"{suite}.csv")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, json.dumps(argvs)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    codes, scipy_modules = json.loads(child.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs), child.stderr
    assert scipy_modules == []
