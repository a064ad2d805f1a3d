"""Packaging: every hard dependency in pyproject.toml must be importable, and
the CLI must start without the slow scipy submodules."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_every_dependency_imports():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert dependencies
    for spec in dependencies:
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_cli_import_skips_scipy_stats_and_special():
    # scipy.stats takes about 1 s to import and scipy.special about 0.4 s; the
    # CLI loads scipy.special only for the first normal-interval quantile.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys, ridgeboot.cli; "
            "print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
