"""Golden outputs: the exact text the program produces for a fixed set of runs.

    python tests/golden/regenerate.py           # print the outputs as JSON
    python tests/golden/regenerate.py --write   # overwrite tests/golden/outputs.json

The runs cover ``simulate`` on the four preset shapes with and without
``--cv-per-design``, the ``repr`` of every row of the six check suites at
reduced knobs, ``ci`` on two shapes for each method, penalty rule and level,
and the printout of the README's library quick-start.  Everything runs in
this one process at one BLAS thread.

``tests/test_golden.py`` runs this script in a child process and compares its
output with ``outputs.json``: exactly when the numpy version and the BLAS
recorded there match the running ones, otherwise every number at a relative
1e-9 (as ``perfbench`` compares its reference) and all other text exactly.
Regenerate only in a change that means to move outputs, and list every entry
that moved.
"""

from __future__ import annotations

import os

# Before numpy loads: threaded BLAS moves the last bits of the 95-column runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "outputs.json"
sys.path.insert(0, str(HERE.parent))

from helpers import REDUCED_KNOBS  # noqa: E402
from ridgeboot.cli import main  # noqa: E402
from ridgeboot.harness import PRESETS, run_check_suite  # noqa: E402

SUITE_SEEDS = (0, 5)
CI_SHAPES = {"tall": (40, 8), "wide": (60, 50)}
# ci's penalty rule: cross validation runs unless --rho, and for ridge_rb also
# --pilot-rho, is given.
CI_PENALTIES = {"cv": [], "rho": ["--rho", "0.5"],
                "rho+pilot": ["--rho", "0.5", "--pilot-rho", "2.0"]}
CI_LEVELS = ("0.5", "0.8", "0.9", "0.95")


def blas() -> str:
    """numpy's BLAS: its name, version and build line, and, for OpenBLAS, the
    core its dynamic dispatch picked on this CPU, which can change the bits."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    text = f"{info.get('name')} {info.get('version')} ({info.get('openblas configuration', '')})"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return f"{text} core={fn().decode()}"
    return text


def _run_cli(argv) -> list:
    """Exit code and stdout lines of one in-process ``cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [f"exit {code}", *out.getvalue().splitlines()]


def simulate_entries(tmp: Path) -> dict:
    entries = {}
    for preset in PRESETS:
        for per_design in (False, True):
            path = tmp / f"{preset}-{int(per_design)}.csv"
            argv = ["simulate", "--preset", preset, "--N1", "2", "--N2", "20", "--B", "200",
                    "--seed", "0", "--out", str(path)]
            argv += ["--cv-per-design"] if per_design else []
            stdout = [line.replace(str(path), "<out>") for line in _run_cli(argv)]
            name = f"simulate/{preset}" + ("/cv-per-design" if per_design else "")
            entries[name] = stdout + path.read_text(encoding="utf-8").splitlines()
    return entries


def check_entries() -> dict:
    """``repr`` of every row: the report CSV's %.10g would hide a 1-ulp move."""
    entries = {}
    for suite, knobs in REDUCED_KNOBS.items():
        for seed in SUITE_SEEDS:
            rows = run_check_suite(suite, seed, knobs)
            entries[f"check/{suite}/seed{seed}"] = [repr(row) for row in rows]
    rows = run_check_suite("theorem1", 0, dict(REDUCED_KNOBS["theorem1"], include_settings=1))
    entries["check/theorem1/include_settings/seed0"] = [repr(row) for row in rows]
    return entries


def ci_entries(tmp: Path) -> dict:
    entries = {}
    for label, (n, p) in CI_SHAPES.items():
        rng = np.random.default_rng(n * 1000 + p)
        X = rng.standard_normal((n, p))
        Y = X @ (rng.standard_normal(p) / p) + 0.3 * rng.standard_normal(n)
        design, response = tmp / f"{label}-X.csv", tmp / f"{label}-Y.csv"
        np.savetxt(design, X, delimiter=",", fmt="%.17g")
        np.savetxt(response, Y.reshape(-1, 1), delimiter=",", fmt="%.17g")
        lines = []
        for method in ("ridge_rb", "normal", "ols_rb"):
            for penalty, flags in CI_PENALTIES.items():
                for level in CI_LEVELS:
                    argv = ["ci", "--design", str(design), "--response", str(response),
                            "--contrast", "row:1", "--method", method, "--level", level,
                            "--B", "300", "--seed", "3", *flags]
                    code, *stdout = _run_cli(argv)
                    lines += [f"{method} {penalty} level={level}: {code}", *stdout]
        entries[f"ci/{label}"] = lines
    return entries


def quickstart_entries() -> dict:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {})
    return {"readme/quickstart": out.getvalue().splitlines()}


def collect() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        entries = {**simulate_entries(Path(tmp)), **check_entries(), **ci_entries(Path(tmp)),
                   **quickstart_entries()}
    return {"build": {"numpy": np.__version__, "blas": blas()}, "entries": entries}


if __name__ == "__main__":
    text = json.dumps(collect(), indent=1) + "\n"
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(text, encoding="utf-8")
    elif sys.argv[1:]:
        sys.exit("usage: regenerate.py [--write]")
    else:
        sys.stdout.write(text)
