"""Worker processes: the designs of a coverage experiment and the cases of the
theorem1, mspe-link and rates suites run on a fork-based process pool.  The
outputs are those of a serial run, errors reach the caller as a serial run
raises them, the pool starts no more workers than tasks or CPUs, and no child
process outlives a call."""

import importlib.util
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import process
from pathlib import Path

import pytest

from helpers import REDUCED_KNOBS
from ridgeboot import harness
from ridgeboot.cli import main
from ridgeboot.errors import InputError
from ridgeboot.harness import ExperimentConfig, run_check_suite, run_table1


@pytest.fixture
def three_cpus(monkeypatch):
    """Let a pool take up to three workers on any machine, so each worker
    count below starts the workers it names."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every process pool started, in order."""
    started = []

    class Recording(process.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Recording)
    return started


def _pool_knobs(suite):
    """The reduced knobs, with theorem1's settings cases, which run as a second map."""
    return {**REDUCED_KNOBS[suite], "include_settings": 1} if suite == "theorem1" \
        else REDUCED_KNOBS[suite]


def _small_config(**overrides):
    fields = dict(n=30, p=5, eta=0.5, N1=3, N2=2, B=50, grid_size=4)
    return ExperimentConfig(**{**fields, **overrides})


@pytest.mark.parametrize("seed", (0, 5))
@pytest.mark.parametrize("suite", ("theorem1", "mspe-link", "rates"))
def test_rows_do_not_depend_on_worker_count(suite, seed, three_cpus, pools):
    rows = [repr(run_check_suite(suite, seed, _pool_knobs(suite), workers=workers))
            for workers in (1, 2, 3)]
    assert rows[1] == rows[0]
    assert rows[2] == rows[0]
    assert max(pools) == 3
    assert multiprocessing.active_children() == []


def test_pool_runs_under_the_benchmark_tracer(three_cpus, pools):
    """``perfbench/tracing.py`` rebinds every public layer function to a
    closure, which cannot be pickled; the pool is handed private functions
    only, so a traced run on workers gives the serial rows."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    suites = ("theorem1", "mspe-link", "rates")
    want = [repr(run_check_suite(suite, 0, _pool_knobs(suite), workers=1)) for suite in suites]
    want.append(repr(run_table1(_small_config(threads=1)).methods))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = [repr(harness.run_check_suite(suite, 0, _pool_knobs(suite), workers=2))
               for suite in suites]
        got.append(repr(harness.run_table1(_small_config(threads=2)).methods))
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert got == want
    assert pools and set(pools) == {2}


def test_simulate_results_do_not_depend_on_worker_count(tmp_path, three_cpus, pools):
    blobs = []
    for threads in (1, 2, 3):
        out = tmp_path / f"threads{threads}.csv"
        argv = ["simulate", "--n", "30", "--p", "5", "--eta", "0.5", "--N1", "4", "--N2", "20",
                "--B", "100", "--grid-size", "6", "--seed", "11", "--threads", str(threads),
                "--out", str(out)]
        assert main(argv) == 0
        blobs.append(out.read_bytes())
    assert blobs[1] == blobs[0]
    assert blobs[2] == blobs[0]
    assert pools == [2, 3]
    assert multiprocessing.active_children() == []


def test_worker_error_exits_as_a_serial_run(tmp_path, capsys, monkeypatch, three_cpus, pools):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    config = tmp_path / "bad.cfg"
    config.write_text("m_ref = 0\nsweep = 4\n")
    out = tmp_path / "report.csv"
    assert main(["check", "--suite", "mspe-link", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: InputError: m_ref must be at least 1, got 0\n"
    assert pools == [3]
    assert not out.exists()
    assert multiprocessing.active_children() == []


def _fail_at_one_and_three(item: int) -> int:
    if item == 1:
        time.sleep(0.2)  # item 3 fails first in time
        raise InputError("item 1")
    if item == 3:
        raise InputError("item 3")
    return item


def test_first_error_in_item_order_is_raised(three_cpus):
    with pytest.raises(InputError, match="item 1"):
        harness._ordered_map(_fail_at_one_and_three, range(5), 3)
    assert multiprocessing.active_children() == []


def test_unpicklable_task_raises_before_any_worker_starts(three_cpus, pools):
    with pytest.raises((pickle.PicklingError, AttributeError)):
        harness._ordered_map(lambda item: item, range(3), 3)
    assert pools == []
    assert multiprocessing.active_children() == []


def test_design_error_in_a_worker_reaches_the_caller(monkeypatch, three_cpus, pools):
    def broken_beta(p):
        raise InputError("no coefficients")

    # Patched before the fork, so the workers inherit it.
    monkeypatch.setattr(harness, "make_beta", broken_beta)
    with pytest.raises(InputError, match="no coefficients"):
        run_table1(_small_config(threads=3))
    assert pools == [3]
    assert multiprocessing.active_children() == []


def test_pool_is_capped_by_tasks_and_cpus(monkeypatch, pools):
    config = _small_config(threads=8)
    for cpus, started in ((1, []), (2, [2]), (4, [3])):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        pools.clear()
        run_table1(config)
        assert pools == started
    # One case is one task, so it runs here whatever the worker count.
    pools.clear()
    run_check_suite("mspe-link", 0, {"sweep": 1, "reps": 2, "m_ref": 500}, workers=8)
    assert pools == []


@pytest.mark.parametrize("blas, started", [
    ({"OPENBLAS_NUM_THREADS": "1"}, [3]),
    ({"OMP_NUM_THREADS": "1"}, [3]),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"}, [3]),
    ({"OPENBLAS_NUM_THREADS": "2"}, []),
    ({}, []),  # BLAS takes one thread per CPU
])
def test_check_default_leaves_the_blas_threads_their_cpus(blas, started, monkeypatch, three_cpus,
                                                          pools):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    run_check_suite("mspe-link", 0, REDUCED_KNOBS["mspe-link"])
    assert pools == started


def test_usable_cpus_reads_the_affinity_mask():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no affinity mask on this platform")
    assert harness._usable_cpus() == len(os.sched_getaffinity(0))


def test_serial_where_fork_is_unavailable(monkeypatch, three_cpus, pools):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert harness._ordered_map(abs, [-1, 2, -3], 3) == [1, 2, 3]
    assert pools == []


# Runs in a fresh interpreter: serial runs through cli.main, then which of the
# pool's modules were imported on the way.
_IMPORTS_CHILD = """
import json, sys
from ridgeboot.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
pool_modules = ("multiprocessing", "concurrent.futures.process")
print(json.dumps([codes, [name for name in pool_modules if name in sys.modules]]))
"""


def test_serial_runs_do_not_import_the_pool(tmp_path):
    """One worker, or one task, starts no pool and pays for none of its imports."""
    config = tmp_path / "one.cfg"
    config.write_text("sweep = 1\n")
    argvs = [["simulate", "--n", "20", "--p", "4", "--eta", "0.5", "--N1", "2", "--N2", "3",
              "--B", "50", "--grid-size", "4", "--out", str(tmp_path / "sim.csv")],
             ["check", "--suite", "mspe-link", "--config", str(config),
              "--out", str(tmp_path / "check.csv")]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", _IMPORTS_CHILD, json.dumps(argvs)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    codes, pool_modules = json.loads(child.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert pool_modules == []
