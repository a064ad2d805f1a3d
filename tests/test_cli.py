"""Command line behavior: outputs, exit codes, and error reporting."""

import os
import subprocess
import sys

import numpy as np
import pytest

from ridgeboot.cli import main
from ridgeboot.harness import REPORT_COLUMNS, ExperimentConfig, write_config


@pytest.fixture()
def ci_files(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 3))
    beta = np.array([1.0, -0.5, 0.25])
    Y = X @ beta + 0.1 * rng.standard_normal(20)
    design = tmp_path / "X.csv"
    response = tmp_path / "Y.csv"
    np.savetxt(design, X, delimiter=",")
    np.savetxt(response, Y.reshape(-1, 1), delimiter=",")
    return str(design), str(response)


def _ci_args(design, response, **kw):
    args = ["ci", "--design", design, "--response", response,
            "--contrast", kw.pop("contrast", "row:0")]
    for key, value in kw.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


# ---------------------------------------------------------------------------
# ci subcommand

def test_ci_ridge_output_and_determinism(ci_files, capsys):
    design, response = ci_files
    args = _ci_args(design, response, method="ridge_rb", rho=0.5,
                    pilot_rho=2.0, B=200, seed=7)
    assert main(args) == 0
    first = capsys.readouterr().out
    lines = first.splitlines()
    assert lines[0] == "method,level,lower,upper,estimate"
    cells = lines[1].split(",")
    assert cells[0] == "ridge_rb"
    assert cells[1] == "0.9"
    lower, upper, estimate = map(float, cells[2:])
    assert lower < upper
    assert lower < estimate < upper
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_ci_method_variants(ci_files, capsys):
    design, response = ci_files
    rows = {}
    for method in ("ridge_rb", "normal", "ols_rb"):
        assert main(_ci_args(design, response, method=method, rho=0.5,
                             pilot_rho=2.0, B=200, seed=7)) == 0
        rows[method] = capsys.readouterr().out.splitlines()[1].split(",")
    assert {r[0] for r in rows.values()} == {"ridge_rb", "normal", "ols_rb"}
    # unpenalized point estimate differs from the ridge one
    assert float(rows["ols_rb"][4]) != float(rows["ridge_rb"][4])


def test_ci_contrast_from_file(ci_files, tmp_path, capsys):
    design, response = ci_files
    cpath = tmp_path / "c.csv"
    np.savetxt(cpath, np.array([[1.0], [0.0], [-1.0]]), delimiter=",")
    assert main(_ci_args(design, response, contrast=f"file:{cpath}",
                         rho=0.5, pilot_rho=2.0, B=100, seed=1)) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split(",")[0] == "ridge_rb"


def test_ci_cv_fallback_when_penalties_omitted(ci_files, capsys):
    design, response = ci_files
    assert main(_ci_args(design, response, B=100, seed=2)) == 0
    lower, upper = map(float, capsys.readouterr().out.splitlines()[1].split(",")[2:4])
    assert lower < upper


def test_ci_input_errors(ci_files, tmp_path, capsys):
    design, response = ci_files
    assert main(_ci_args(design, response, contrast="row:99")) == 2
    assert "InputError" in capsys.readouterr().err
    assert main(_ci_args(design, response, contrast="col:3")) == 2
    assert "row:<i> or file:<path>" in capsys.readouterr().err
    short = tmp_path / "short.csv"
    np.savetxt(short, np.ones((2, 1)), delimiter=",")
    assert main(_ci_args(design, response, contrast=f"file:{short}")) == 2
    assert "does not match" in capsys.readouterr().err
    for rho in ("inf", "nan"):
        for method in ("normal", "ridge_rb"):
            assert main(_ci_args(design, response, method=method, rho=rho, pilot_rho=1.0)) == 2
            assert "rho must be a finite nonnegative real" in capsys.readouterr().err


_MALFORMED = {"cell": ("1,2,3\n4,x,6\n", "1\nx\n3\n"), "ragged": ("1,2,3\n4,5\n", "1\n2,3\n4\n")}


@pytest.mark.parametrize("role", ["design", "response", "contrast"])
@pytest.mark.parametrize("fault", sorted(_MALFORMED))
def test_ci_malformed_csv_is_an_input_error(ci_files, tmp_path, capsys, role, fault):
    """A non-numeric cell or ragged rows exit 2 with an InputError naming the
    file, in any of the three CSV inputs."""
    design, response = ci_files
    matrix, vector = _MALFORMED[fault]
    bad = tmp_path / "bad.csv"
    bad.write_text(matrix if role == "design" else vector)
    contrast = f"file:{bad}" if role == "contrast" else "row:0"
    design = str(bad) if role == "design" else design
    response = str(bad) if role == "response" else response
    assert main(_ci_args(design, response, contrast=contrast, rho=0.5, pilot_rho=2.0,
                         B=50)) == 2
    err = capsys.readouterr().err
    assert "InputError" in err and str(bad) in err


def test_ci_missing_file_exit_code(ci_files, capsys):
    _, response = ci_files
    code = main(["ci", "--design", "/nonexistent/X.csv", "--response", response,
                 "--contrast", "row:0"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate subcommand

def test_simulate_bare_flags(tmp_path, capsys):
    out = tmp_path / "res.csv"
    args = ["simulate", "--out", str(out), "--n", "20", "--p", "4", "--eta", "0.5",
            "--N1", "2", "--N2", "10", "--B", "100", "--grid-size", "6", "--seed", "3"]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "custom: 20 instances" in text
    lines = out.read_text().splitlines()
    assert lines[1] == "setting,method,coverage,width,instances,skips,seed"
    assert len(lines) == 6
    assert all(line.startswith("custom,") for line in lines[2:])


def test_simulate_preset_with_overrides(tmp_path, capsys):
    out = tmp_path / "res.csv"
    args = ["simulate", "--preset", "setting1", "--out", str(out),
            "--N1", "1", "--N2", "8", "--B", "100", "--grid-size", "6", "--seed", "3"]
    assert main(args) == 0
    assert "setting1:" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[0] for r in rows] == ["setting1"] * 4
    assert all(int(r[6]) == 3 for r in rows)


def test_simulate_requires_core_fields(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "required" in err


def test_simulate_rejects_more_folds_than_rows(tmp_path, capsys):
    args = ["simulate", "--out", str(tmp_path / "x.csv"), "--n", "4", "--p", "2",
            "--eta", "0.5", "--N1", "1", "--N2", "2", "--B", "10", "--folds", "5"]
    assert main(args) == 2
    assert "folds must not exceed n" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("p", ["30", "40"], ids=["p-eq-n", "p-gt-n"])
def test_simulate_rejects_p_not_below_n(tmp_path, capsys, p):
    # The max-leverage contrast row and the normal and ols_rb intervals need
    # p < n: the run is refused before any design is drawn.
    out = tmp_path / "x.csv"
    args = ["simulate", "--out", str(out), "--n", "30", "--p", p, "--eta", "0.5",
            "--N1", "1", "--N2", "3", "--B", "50"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "need p < n" in err
    assert not out.exists()


@pytest.mark.parametrize("dof", ["3", "nan"])
def test_simulate_rejects_bad_noise_law(tmp_path, capsys, dof):
    # A t law without a finite fourth moment is a bad argument (exit 2), not a
    # numerical failure (exit 3), and is refused before any design is drawn.
    out = tmp_path / "x.csv"
    args = ["simulate", "--out", str(out), "--n", "20", "--p", "5", "--eta", "0.5",
            "--N1", "1", "--N2", "2", "--B", "50", "--noise-dof", dof]
    assert main(args) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_config_and_preset_conflict(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    write_config(ExperimentConfig(n=10, p=2, eta=0.5, N1=1, N2=4, B=50), str(cfg))
    code = main(["simulate", "--config", str(cfg), "--preset", "setting1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_simulate_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    write_config(
        ExperimentConfig(n=15, p=3, eta=0.5, N1=2, N2=6, B=80, grid_size=5, seed=9),
        str(cfg),
    )
    out = tmp_path / "res.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 4 and all(r[0] == "custom" for r in rows)


def test_simulate_pins_blas_threads(tmp_path):
    """A p = 95 run writes the same file with the BLAS thread variables unset
    as with them set to 1: the CLI pins one thread before numpy loads.  With
    the default thread count the 95x95 products and the SVD change their last
    bits, but only on a machine with more than one CPU; on one CPU the two runs
    match even without the pin, so there this test cannot fail."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in blas_vars}
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    outputs = []
    for pinned in (False, True):
        env = dict(base, **dict.fromkeys(blas_vars, "1")) if pinned else base
        out = tmp_path / f"pinned{int(pinned)}.csv"
        argv = ["simulate", "--n", "100", "--p", "95", "--eta", "0.5", "--N1", "1",
                "--N2", "4", "--B", "100", "--seed", "0", "--out", str(out)]
        child = subprocess.run([sys.executable, "-m", "ridgeboot.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b" blas_threads=1\n" in outputs[0]


def test_simulate_unwritable_out(tmp_path, capsys):
    args = ["simulate", "--out", "/nonexistent/dir/res.csv", "--n", "10", "--p", "2",
            "--eta", "0.5", "--N1", "1", "--N2", "4", "--B", "50", "--grid-size", "4"]
    assert main(args) == 4
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check subcommand

def test_check_suite_writes_report(tmp_path, capsys):
    ovr = tmp_path / "knobs.cfg"
    ovr.write_text("wishart_mc = 40000\nsvd_matrices = 200\nlm_trials = 5000\n")
    out = tmp_path / "report.csv"
    assert main(["check", "--suite", "appendix", "--config", str(ovr),
                 "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert msg.startswith("appendix:") and "0 failing" in msg
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) > 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("bogus_knob = 1\n", "unknown override"),
        # integer knobs take integer literals only: 1.7 is refused, not run as 1
        ("sweep = 1.7\n", "bad value for 'sweep'"),
        ("reps = 2.9\n", "bad value for 'reps'"),
        ("sweep = abc\n", "bad value for 'sweep'"),
    ],
    ids=["unknown-key", "float-sweep", "float-reps", "word-sweep"],
)
def test_check_unknown_override_key(tmp_path, capsys, text, message):
    ovr = tmp_path / "knobs.cfg"
    ovr.write_text(text)
    out = tmp_path / "r.csv"
    code = main(["check", "--suite", "mspe-link", "--config", str(ovr), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "suite, text, message",
    [
        ("theorem1", "m_boot = 0\n", "m_boot must be at least 1"),
        ("theorem1", "m_boot = -5\n", "m_boot must be at least 1"),
        ("appendix", "svd_matrices = 0\n", "at least one matrix"),
        ("appendix", "svd_matrices = -3\n", "at least one matrix"),
    ],
    ids=["m_boot-0", "m_boot-neg", "svd-0", "svd-neg"],
)
def test_check_rejects_empty_sample_knobs(tmp_path, capsys, suite, text, message):
    ovr = tmp_path / "knobs.cfg"
    ovr.write_text(text + ("wishart_mc = 10\nlm_trials = 10\n" if suite == "appendix" else ""))
    out = tmp_path / "r.csv"
    code = main(["check", "--suite", suite, "--config", str(ovr), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)], ids=["minus-one", "two-to-64"])
def test_seed_outside_64_bits_is_rejected(ci_files, tmp_path, capsys, seed):
    # seed_split keeps the low 64 bits, so -1 would alias 2^64 - 1.
    design, response = ci_files
    for method in ("ridge_rb", "normal"):
        assert main(_ci_args(design, response, method=method, rho=0.5, pilot_rho=2.0,
                             B=50, seed=seed)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be a 64-bit nonnegative integer" in captured.err
    ovr = tmp_path / "knobs.cfg"
    ovr.write_text("sweep = 1\n")
    out = tmp_path / "r.csv"
    code = main(["check", "--suite", "mspe-link", "--config", str(ovr), "--out", str(out),
                 "--seed", seed])
    assert code == 2
    assert "seed must be a 64-bit nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


def test_check_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["check", "--suite", "bogus", "--out", "/tmp/x.csv"])
