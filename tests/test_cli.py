"""Exit codes and plumbing of the console entry point (in-process, but for
``python -m blochfem``)."""

import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from blochfem.cli import main
from blochfem.trace import CSV_HEADER

REPO = pathlib.Path(__file__).resolve().parent.parent

FAST_LINEAR = """\
[run]
experiment = linear
steps_per_mesh = 3
max_level = 1
tol = 1e-8

[model]
kind = constant
eps2 = 8.0
"""


def test_run_writes_csv_and_exits_zero(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_LINEAR)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) > 5
    assert "lambda =" in capsys.readouterr().out


def test_nonconvergence_exits_two_with_partial_trace(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_LINEAR.replace("tol = 1e-8", "tol = 1e-13\nmax_fine_steps = 3"))
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 2
    # one line on stderr, as the exit-code contract promises
    assert capsys.readouterr().err == (
        "blochfem run: dual residual did not reach 1e-13 within 3 steps\n")
    # header + 3 coarse steps + the 3-step fine budget, without a reference
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    rel_err = lines[0].split(",").index("rel_err")
    assert all(line.split(",")[rel_err] == "nan" for line in lines[1:])


def test_missed_gmres_tolerance_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    from blochfem import linalg

    monkeypatch.setattr(linalg, "GMRES_MAX_ITER", 1)
    ini = tmp_path / "run.ini"
    ini.write_text((REPO / "configs" / "experiment3.ini").read_text()
                   .replace("max_level = 3", "max_level = 1"))
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("blochfem run: GMRES left a relative residual of ")
    assert err.count("\n") == 1 and err.endswith("\n")
    # the partial trace: header, the three L0 rows, and the L1 rows before
    # the solve that failed
    lines = out.read_text().splitlines()
    assert 4 <= len(lines) < 7
    assert [line.split(",")[1] for line in lines[1:4]] == ["0", "0", "0"]


def test_near_gamma_newton_runs_meet_tol(tmp_path, capsys):
    # next to Gamma sigma, the coarse lambda, sits by the finer level's
    # smallest eigenvalue, so T(sigma) is nearly singular; with T(lam) u
    # summed from the products K u, M1 u and M2 u the refined levels still
    # meet tol, and the run exits 0
    residual = CSV_HEADER.split(",").index("residual_dual")
    for kx, ky in (("1e-3", "0.0"), ("0.0", "1e-3"), ("1e-4", "0.0")):
        text = ((REPO / "configs" / "experiment3.ini").read_text()
                .replace("kx = 1.5707963267948966", "kx = " + kx)
                .replace("ky = 3.141592653589793", "ky = " + ky))
        assert "kx = " + kx in text and "ky = " + ky in text
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        out = tmp_path / "trace.csv"
        code = main(["run", "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0, (kx, ky, err)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) > 1
        assert float(lines[-1].split(",")[residual]) <= 1e-12, (kx, ky)


def test_module_runs_from_a_checkout(tmp_path):
    # ``python -m blochfem`` with the source tree on the path, not installed
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_LINEAR)
    out = tmp_path / "trace.csv"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "blochfem", "run", "--config", str(ini),
         "--out", str(out), "--threads", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "lambda =" in done.stdout
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_bad_config_key_exits_one(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nexperiment = linear\nwibble = 1\n")
    assert main(["run", "--config", str(ini)]) == 1
    assert "wibble" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run"])  # --config is required
    assert info.value.code == 1


def test_reference_prints_value(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_LINEAR.replace("max_level = 1", "max_level = 0"))
    assert main(["reference", "--config", str(ini)]) == 0
    assert "mu =" in capsys.readouterr().out


def test_sweep_writes_csv(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text(
        "[run]\nexperiment = k_sweep\nsteps_per_mesh = 5\nmax_level = 0\n"
        "tol = 1e-8\n\n[model]\nkind = constant\neps2 = 1.0\n\n"
        "[sweep]\nfrom_kx = 0.0\nfrom_ky = 0.0\nto_kx = 1.0\nto_ky = 0.0\npoints = 3\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kx,ky,lambda1"
    assert len(lines) == 4


def test_check_passes(capsys):
    assert main(["check"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_seed_override(tmp_path):
    # the [run] seed key is still read (old configs carry it)
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_LINEAR)
    from blochfem.driver import RunConfig

    assert RunConfig.from_ini(ini).seed == 0
    ini.write_text(FAST_LINEAR.replace("[run]\n", "[run]\nseed = 7\n"))
    assert RunConfig.from_ini(ini).seed == 7


def test_reference_failure_exits_two_without_traceback(tmp_path, capsys, monkeypatch):
    from blochfem import driver
    from blochfem.errors import NonConvergenceError

    def stalled(cfg, final=None):
        raise NonConvergenceError("dual residual did not reach 1e-12 within 2000 steps")

    monkeypatch.setattr(driver, "compute_reference", stalled)
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_LINEAR.replace("tol = 1e-8", "tol = 1e-8\nuse_reference = true"))
    out = tmp_path / "trace.csv"
    for command in ("run", "reference"):
        assert main([command, "--config", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "blochfem %s: dual residual did not reach 1e-12 within 2000 steps\n" % command
        if command == "run":
            # run still writes its schedule's trace, without a reference
            lines = out.read_text().splitlines()
            rel_err = lines[0].split(",").index("rel_err")
            assert len(lines) > 1
            assert all(line.split(",")[rel_err] == "nan" for line in lines[1:])


def test_run_with_reference_runs_the_schedule_once(tmp_path, monkeypatch):
    from blochfem import driver

    calls = []
    run_schedule = driver.run_schedule

    def counted(*args, **kwargs):
        calls.append(args)
        return run_schedule(*args, **kwargs)

    ini = tmp_path / "run.ini"
    ini.write_text(FAST_LINEAR.replace("tol = 1e-8", "tol = 1e-8\nuse_reference = true"))
    out = tmp_path / "trace.csv"
    monkeypatch.setattr(driver, "run_schedule", counted)
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    mu_ref = driver.compute_reference(driver.RunConfig.from_ini(ini)).mu_ref
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row in rows:
        mu, rel_err = float(row[3]), float(row[5])
        assert rel_err == pytest.approx(abs(mu - mu_ref) / mu_ref, rel=1e-12, abs=1e-300)


def test_run_prints_the_measured_wall_time(tmp_path, monkeypatch, capsys):
    # the summary's seconds cover the reference too, not only the trace rows
    from blochfem import driver

    compute_reference = driver.compute_reference

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return compute_reference(*args, **kwargs)

    ini = tmp_path / "run.ini"
    ini.write_text(FAST_LINEAR.replace("tol = 1e-8", "tol = 1e-8\nuse_reference = true"))
    monkeypatch.setattr(driver, "compute_reference", slow)
    assert main(["run", "--config", str(ini)]) == 0
    seconds = re.search(r"residual \S+, ([0-9.]+)s\)", capsys.readouterr().out)
    assert float(seconds.group(1)) >= 0.3


@pytest.mark.parametrize("model", [
    "kind = constant\neps2 = 8.0\n",
    "kind = real_dl\nalpha = 1.143\nxi2 = 416.6166\neta2 = 92.1086\ngamma = 2.782\n",
])
def test_linearized_needs_the_simplified_model(tmp_path, capsys, model):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nexperiment = dl_linearized\nmax_level = 0\n\n[model]\n" + model)
    assert main(["run", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err == "blochfem: bad configuration: experiment 'dl_linearized' needs a simplified_dl model\n"
