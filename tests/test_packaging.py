"""Packaging: every hard dependency in pyproject.toml must be importable."""

import importlib
import re
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
