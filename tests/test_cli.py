"""Command line behavior: outputs, exit codes, and error reporting."""

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


def test_check_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["check", "--suite", "bogus", "--out", "/tmp/x.csv"])
