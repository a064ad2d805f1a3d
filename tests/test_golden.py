"""Byte identity: today's outputs against the committed golden outputs.

``tests/golden/regenerate.py`` runs every golden case in one child process at
one BLAS thread; ``--write`` regenerates ``tests/golden/outputs.json``.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# A number as the outputs print it: %.17g, repr or %g, or a special value.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")
REL_TOL = 1e-9


def _close_text(expected: str, actual: str) -> bool:
    """Same text outside the numbers, and every number within REL_TOL."""
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return False
    for pos, (a, b) in enumerate(zip(want, got)):
        if pos % 2 == 0:
            if a != b:
                return False
        elif not (a == b or math.isclose(float(a), float(b), rel_tol=REL_TOL)):
            return False
    return True


def _mismatches(expected: dict, actual: dict, exact: bool) -> list:
    same = (lambda a, b: a == b) if exact else _close_text
    out = []
    for name in sorted(set(expected) | set(actual)):
        want, got = expected.get(name), actual.get(name)
        if want is None or got is None:
            out.append(f"{name}: {'missing' if got is None else 'not in the golden file'}")
        elif len(want) != len(got):
            out.append(f"{name}: {len(got)} lines, golden has {len(want)}")
        else:
            for line, (a, b) in enumerate(zip(want, got)):
                if not same(a, b):
                    out.append(f"{name} line {line}: {b!r} != golden {a!r}")
                    break
    return out


def test_close_text_compares_numbers_by_tolerance():
    assert _close_text("x,0.25,1e-3,3", "x,0.25,1e-3,3")
    assert _close_text("x,0.25", "x,0.25000000000001")
    assert not _close_text("x,0.25", "x,0.2500001")
    assert not _close_text("x,0.25", "y,0.25")
    assert not _close_text("x,0.25", "x,0.25,1")


def test_outputs_match_golden():
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **dict.fromkeys(blas_vars, "1"))
    child = subprocess.run([sys.executable, str(GOLDEN_DIR / "regenerate.py")], env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    actual = json.loads(child.stdout)
    golden = json.loads((GOLDEN_DIR / "outputs.json").read_text(encoding="utf-8"))
    # Bit for bit on the numpy and BLAS build that wrote the file; another
    # build may round differently, so there numbers compare at REL_TOL.
    exact = actual["build"] == golden["build"]
    assert _mismatches(golden["entries"], actual["entries"], exact) == []
