import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from tumorctrl.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def small_config(tmp_path, **overrides):
    d = {
        "domain": {"L": math.pi, "n_points": 8},
        "operators": {"rho": 0.75, "sigma": 0.6, "tau": 0.5},
        "potential": {"kind": "regular"},
        "proliferation": {"p0": 0.5, "p1": 0.1},
        "initial_data": {"phi0": {"preset": "sine", "amplitude": 0.3},
                         "S0": {"preset": "constant", "value": 0.4}},
        "time": {"T": 0.05, "n_steps": 20},
        "cost": {"kappas": [1.0, 0.0, 1.0, 0.0, 1.0],
                 "bounds": {"u_min": -1.0, "u_max": 1.0}},
        "control": {"preset": "constant", "value": 0.2},
        "optimizer": {"max_iters": 3, "tol": 1e-10},
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    d.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(d))
    return path


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    assert (out / "trajectory.npz").exists()
    assert (out / "summary.json").exists()
    assert (out / "config.yaml").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_steps"] == 20
    assert np.isfinite(summary["final_energy"])
    assert "simulate" in capsys.readouterr().out


def test_simulate_quiet_silences_stdout(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_dt_override_changes_step_count(tmp_path):
    cfg_path = small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path),
                 "--dt-override", "0.005"]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_steps"] == 10


def test_package_runs_without_scipy(tmp_path):
    # importing scipy costs most of the package's start-up time and memory;
    # other test modules import scipy.linalg, hence the fresh interpreter
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tumorctrl; "
            "from tumorctrl.cli import main; "
            "tumorctrl.separation_interval(tumorctrl.Potential.logarithmic(2.0), "
            "10.0, -0.5, 0.5); "
            "code = main(['simulate', '--config', sys.argv[2], '--quiet']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC),
                           str(small_config(tmp_path))],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == f"{EXIT_OK} []"


def test_out_override(tmp_path):
    cfg_path = small_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(other)]) == EXIT_OK
    assert (other / "trajectory.npz").exists()


def test_missing_config_exits_with_config_code(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.yaml")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_config_exits_with_config_code(tmp_path, capsys):
    cfg_path = small_config(tmp_path, time={"T": -1.0, "n_steps": 20})
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("section, value, key_path", [
    ("solver", {"damping": 1.5}, "solver.damping"),
    ("proliferation", {"p0": "abc", "p1": 0.1}, "proliferation.p0"),
    ("potential", "regular", "potential"),
    ("control", {"preset": "constant", "value": float("nan")}, "control"),
    # the mode count is no longer a setting (every basis keeps n_points), so
    # even the value it always had is an unknown key
    ("operators", {"rho": 0.75, "sigma": 0.6, "tau": 0.5, "n_modes": 8},
     "operators.n_modes"),
    # non-finite numbers: ints that overflow and floats that must be finite
    ("seed", math.inf, "seed"),
    ("solver", {"newton_max_iter": math.inf}, "solver.newton_max_iter"),
    ("optimizer", {"max_iters": math.inf}, "optimizer.max_iters"),
    ("initial_data", {"phi0": {"preset": "sine", "mode": math.inf}},
     "initial_data.phi0.mode"),
    ("domain", {"L": math.inf, "n_points": 8}, "domain.L"),
    ("time", {"T": math.inf, "n_steps": 20}, "time.T"),
    ("operators", {"rho": math.inf, "sigma": 0.6, "tau": 0.5}, "operators.rho"),
    ("operators", {"rho": 0.75, "sigma": 0.6, "tau": math.nan}, "operators.tau"),
    ("potential", {"kind": "logarithmic", "c1": math.inf}, "potential.c1"),
    ("proliferation", {"p0": 0.5, "p1": math.inf}, "proliferation.p1"),
    ("cost", {"kappas": [math.inf, 0.0, 1.0, 0.0, 1.0]}, "cost.kappas"),
    # tolerances must be finite: an infinite one accepts a frozen trajectory
    ("solver", {"newton_tol": math.inf}, "solver.newton_tol"),
    ("solver", {"newton_tol": -1.0}, "solver.newton_tol"),
    ("optimizer", {"tol": math.inf}, "optimizer.tol"),
    ("optimizer", {"tol": -1.0}, "optimizer.tol"),
    ("optimizer", {"tol": math.nan}, "optimizer.tol"),
    # misspelt keys and non-boolean switches are not silently ignored
    ("solver", {"newton_tols": 1e-3}, "solver.newton_tols"),
    ("optimizer", {"max_backtracks": 5}, "optimizer.max_backtracks"),
    ("solver", {"split_f2_explicit": "false"}, "solver.split_f2_explicit"),
    ("solver", {"split_f2_explicit": 1}, "solver.split_f2_explicit"),
    # integer fields take neither booleans nor non-integral floats
    ("domain", {"L": math.pi, "n_points": True}, "domain.n_points"),
    ("domain", {"L": math.pi, "n_points": 8.5}, "domain.n_points"),
    ("time", {"T": 0.05, "n_steps": True}, "time.n_steps"),
    ("time", {"T": 0.05, "n_steps": 20.5}, "time.n_steps"),
    ("control", {"preset": "sine", "mode": True}, "control.mode"),
    ("control", {"preset": "sine", "mode": 1.5}, "control.mode"),
    ("initial_data", {"phi0": {"preset": "sine", "mode": True}},
     "initial_data.phi0.mode"),
    ("initial_data", {"phi0": {"preset": "sine", "mode": 1.5}},
     "initial_data.phi0.mode"),
    ("seed", True, "seed"),
    ("seed", 1.9, "seed"),
    ("solver", {"newton_max_iter": True}, "solver.newton_max_iter"),
    ("solver", {"newton_max_iter": 2.7}, "solver.newton_max_iter"),
    ("optimizer", {"max_iters": False}, "optimizer.max_iters"),
    ("optimizer", {"max_iters": 0.5}, "optimizer.max_iters"),
    # float fields take no booleans
    ("domain", {"L": True, "n_points": 8}, "domain.L"),
    ("operators", {"rho": True, "sigma": 0.6, "tau": 0.5}, "operators.rho"),
    ("solver", {"damping": True}, "solver.damping"),
    ("cost", {"bounds": {"u_min": False, "u_max": True}}, "cost.bounds.u_max"),
    ("cost", {"kappas": [True, 0, 1, 0, 1]}, "cost.kappas"),
    ("control", {"preset": "constant", "value": True}, "control.value"),
    # unknown keys at the top level, in a section and in a preset
    ("solvers", {"damping": 0.5}, "solvers"),
    ("potential", {"kinds": "logarithmic"}, "potential.kinds"),
    ("cost", {"bounds": {"umin": 5}}, "cost.bounds.umin"),
    ("domain", {"L": math.pi, "n_points": 8, "Lx": 3}, "domain.Lx"),
    ("proliferation", {"p0": 0.5, "p1": 0.1, "p2": 3}, "proliferation.p2"),
    ("initial_data", {"phi0": {"preset": "constant", "value": 0.25, "amplitde": 3}},
     "initial_data.phi0.amplitde"),
    ("control", {"preset": "constant", "amplitude": 3}, "control.amplitude"),
    ("cost", {"targets": {"phi_q": {"preset": "zero"}}}, "cost.targets.phi_q"),
    # presets are evaluated when the config is read
    ("control", {"preset": "values", "values": [0.1] * 7}, "control.values"),
    # an infinite first step takes no step and reports the initial cost as final
    ("optimizer", {"step0": math.inf}, "optimizer.step0"),
    # the builders need each eigenvalue (j pi / L)^2 to be a normal float
    ("domain", {"L": 5e-324, "n_points": 8}, "domain.L"),
    ("domain", {"L": 1e300, "n_points": 8}, "domain.L"),
    # the operators are dense N x N matrices
    ("domain", {"L": math.pi, "n_points": 2**20}, "domain.n_points"),
    # negative counts and seeds
    ("optimizer", {"max_iters": -1}, "optimizer.max_iters"),
    ("seed", -1, "seed"),
])
def test_malformed_config_exits_with_config_code(tmp_path, capsys, section,
                                                 value, key_path):
    cfg_path = small_config(tmp_path, **{section: value})
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert f"config error: {key_path}" in capsys.readouterr().err


def test_negative_seed_override_rejected(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    assert main(["verify", "--config", str(cfg_path), "--seed", "-1"]) == EXIT_CONFIG
    assert "config error: seed" in capsys.readouterr().err


def test_negative_dt_override_rejected(tmp_path):
    cfg_path = small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path),
                 "--dt-override", "-0.1"]) == EXIT_CONFIG


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_non_finite_dt_override_rejected(tmp_path, capsys, dt):
    cfg_path = small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path),
                 "--dt-override", dt]) == EXIT_CONFIG
    assert "config error: --dt-override" in capsys.readouterr().err


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg_path = small_config(
        tmp_path, solver={"newton_tol": 1e-10, "newton_max_iter": 0})
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_optimize_writes_report(tmp_path):
    cfg_path = small_config(tmp_path)
    assert main(["optimize", "--config", str(cfg_path), "--quiet"]) == EXIT_OK
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["status"] in ("converged", "max_iters", "stalled")
    assert report["costs"][-1] <= report["costs"][0]
    assert (out / "control_final.csv").exists()
    assert (out / "state_final.npz").exists()
    # one row per iterate, the returned control's last
    rows = np.loadtxt(out / "iterations.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == report["iterations"] + 1
    assert rows[-1, 3] == report["final_stationarity"]


def test_optimization_demo_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_optimization.py"),
                           "--config", str(ROOT / "configs" / "default.yaml"),
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "status:" in proc.stdout
    assert (tmp_path / "control_final.csv").exists()


def test_adjoint_check_passes(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    assert main(["adjoint-check", "--config", str(cfg_path)]) == EXIT_OK
    sweep = np.loadtxt(tmp_path / "out" / "viscosity_sweep.csv",
                       delimiter=",", skiprows=1)
    assert np.all(np.diff(sweep[:, 1]) < 0)
    assert sweep[-1, 1] <= 1e-3
    assert "adjoint-check" in capsys.readouterr().out


@pytest.mark.slow
def test_linearize_check_passes(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    assert main(["linearize-check", "--config", str(cfg_path)]) == EXIT_OK
    probe = json.loads((tmp_path / "out" / "frechet_probe.json").read_text())
    assert 1.8 <= probe["slope"] <= 2.2


@pytest.mark.slow
def test_verify_deterministic_and_green(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    assert main(["verify", "--config", str(cfg_path), "--quiet",
                 "--out", str(tmp_path / "v1")]) == EXIT_OK
    assert main(["verify", "--config", str(cfg_path), "--quiet",
                 "--out", str(tmp_path / "v2")]) == EXIT_OK
    first = (tmp_path / "v1" / "verify.json").read_text()
    second = (tmp_path / "v2" / "verify.json").read_text()
    assert first == second
    results = json.loads(first)
    assert len(results) == 12
    assert all(r["passed"] for r in results)
