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


def _case(tag, section, value, key_path):
    # a fixed tag per case, so that removing a case renames no other
    return pytest.param(section, value, key_path, id=f"{section}-{tag}-{key_path}")


MALFORMED_CONFIGS = [
    _case("value0", "solver", {"damping": 1.5}, "solver.damping"),
    _case("value1", "proliferation", {"p0": "abc", "p1": 0.1}, "proliferation.p0"),
    _case("regular", "potential", "regular", "potential"),
    _case("value3", "control", {"preset": "constant", "value": float("nan")},
          "control"),
    # the mode count is no longer a setting (every basis keeps n_points), so
    # even the value it always had is an unknown key
    _case("value4", "operators", {"rho": 0.75, "sigma": 0.6, "tau": 0.5, "n_modes": 8},
          "operators.n_modes"),
    # non-finite numbers: ints that overflow and floats that must be finite
    _case("inf", "seed", math.inf, "seed"),
    _case("value6", "solver", {"newton_max_iter": math.inf}, "solver.newton_max_iter"),
    _case("value7", "optimizer", {"max_iters": math.inf}, "optimizer.max_iters"),
    _case("value8", "initial_data", {"phi0": {"preset": "sine", "mode": math.inf}},
          "initial_data.phi0.mode"),
    _case("value9", "domain", {"L": math.inf, "n_points": 8}, "domain.L"),
    _case("value10", "time", {"T": math.inf, "n_steps": 20}, "time.T"),
    _case("value11", "operators", {"rho": math.inf, "sigma": 0.6, "tau": 0.5},
          "operators.rho"),
    _case("value12", "operators", {"rho": 0.75, "sigma": 0.6, "tau": math.nan},
          "operators.tau"),
    _case("value13", "potential", {"kind": "logarithmic", "c1": math.inf},
          "potential.c1"),
    _case("value14", "proliferation", {"p0": 0.5, "p1": math.inf}, "proliferation.p1"),
    _case("value15", "cost", {"kappas": [math.inf, 0.0, 1.0, 0.0, 1.0]}, "cost.kappas"),
    # tolerances must be finite: an infinite one accepts a frozen trajectory
    _case("value16", "solver", {"newton_tol": math.inf}, "solver.newton_tol"),
    _case("value17", "solver", {"newton_tol": -1.0}, "solver.newton_tol"),
    _case("value18", "optimizer", {"tol": math.inf}, "optimizer.tol"),
    _case("value19", "optimizer", {"tol": -1.0}, "optimizer.tol"),
    _case("value20", "optimizer", {"tol": math.nan}, "optimizer.tol"),
    # misspelt keys and non-boolean switches are not silently ignored
    _case("value21", "solver", {"newton_tols": 1e-3}, "solver.newton_tols"),
    _case("value22", "optimizer", {"max_backtracks": 5}, "optimizer.max_backtracks"),
    _case("value23", "solver", {"split_f2_explicit": "false"},
          "solver.split_f2_explicit"),
    _case("value24", "solver", {"split_f2_explicit": 1}, "solver.split_f2_explicit"),
    # integer fields take neither booleans nor non-integral floats
    _case("value25", "domain", {"L": math.pi, "n_points": True}, "domain.n_points"),
    _case("value26", "domain", {"L": math.pi, "n_points": 8.5}, "domain.n_points"),
    _case("value27", "time", {"T": 0.05, "n_steps": True}, "time.n_steps"),
    _case("value28", "time", {"T": 0.05, "n_steps": 20.5}, "time.n_steps"),
    _case("value29", "control", {"preset": "sine", "mode": True}, "control.mode"),
    _case("value30", "control", {"preset": "sine", "mode": 1.5}, "control.mode"),
    _case("value31", "initial_data", {"phi0": {"preset": "sine", "mode": True}},
          "initial_data.phi0.mode"),
    _case("value32", "initial_data", {"phi0": {"preset": "sine", "mode": 1.5}},
          "initial_data.phi0.mode"),
    _case("True", "seed", True, "seed"),
    _case("1.9", "seed", 1.9, "seed"),
    _case("value35", "solver", {"newton_max_iter": True}, "solver.newton_max_iter"),
    _case("value36", "solver", {"newton_max_iter": 2.7}, "solver.newton_max_iter"),
    _case("value37", "optimizer", {"max_iters": False}, "optimizer.max_iters"),
    _case("value38", "optimizer", {"max_iters": 0.5}, "optimizer.max_iters"),
    # float fields take no booleans
    _case("value39", "domain", {"L": True, "n_points": 8}, "domain.L"),
    _case("value40", "operators", {"rho": True, "sigma": 0.6, "tau": 0.5},
          "operators.rho"),
    _case("value41", "solver", {"damping": True}, "solver.damping"),
    _case("value42", "cost", {"bounds": {"u_min": False, "u_max": True}},
          "cost.bounds.u_max"),
    _case("value43", "cost", {"kappas": [True, 0, 1, 0, 1]}, "cost.kappas"),
    _case("value44", "control", {"preset": "constant", "value": True}, "control.value"),
    # unknown keys at the top level, in a section and in a preset
    _case("value45", "solvers", {"damping": 0.5}, "solvers"),
    _case("value46", "potential", {"kinds": "logarithmic"}, "potential.kinds"),
    _case("value47", "cost", {"bounds": {"umin": 5}}, "cost.bounds.umin"),
    _case("value48", "domain", {"L": math.pi, "n_points": 8, "Lx": 3}, "domain.Lx"),
    _case("value49", "proliferation", {"p0": 0.5, "p1": 0.1, "p2": 3},
          "proliferation.p2"),
    _case("value50", "initial_data",
          {"phi0": {"preset": "constant", "value": 0.25, "amplitde": 3}},
          "initial_data.phi0.amplitde"),
    _case("value51", "control", {"preset": "constant", "amplitude": 3},
          "control.amplitude"),
    _case("value52", "cost", {"targets": {"phi_q": {"preset": "zero"}}},
          "cost.targets.phi_q"),
    # presets are evaluated when the config is read
    _case("value53", "control", {"preset": "values", "values": [0.1] * 7},
          "control.values"),
    # an infinite first step takes no step and reports the initial cost as final
    _case("value54", "optimizer", {"step0": math.inf}, "optimizer.step0"),
    # the builders need each eigenvalue (j pi / L)^2 to be a normal float
    _case("value55", "domain", {"L": 5e-324, "n_points": 8}, "domain.L"),
    _case("value56", "domain", {"L": 1e300, "n_points": 8}, "domain.L"),
    # the operators are dense N x N matrices
    _case("value57", "domain", {"L": math.pi, "n_points": 2**20}, "domain.n_points"),
    # negative counts and seeds
    _case("value58", "optimizer", {"max_iters": -1}, "optimizer.max_iters"),
    _case("-1", "seed", -1, "seed"),
    _case("value59", "potential", {"kind": "regular", "c1": math.nan}, "potential.c1"),
    _case("value60", "potential", {"kind": "regular", "c1": -5.0}, "potential.c1"),
]


def test_malformed_config_ids_are_unique():
    ids = [case.id for case in MALFORMED_CONFIGS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("section, value, key_path", MALFORMED_CONFIGS)
def test_malformed_config_exits_with_config_code(tmp_path, capsys, section,
                                                 value, key_path):
    cfg_path = small_config(tmp_path, **{section: value})
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert f"config error: {key_path}" in capsys.readouterr().err


@pytest.mark.parametrize("value, code", [(1.0 - 1e-13, EXIT_CONFIG),
                                         (-1.0 + 1e-13, EXIT_CONFIG), (0.999, EXIT_OK)])
def test_logarithmic_phi0_must_be_evaluable(tmp_path, capsys, value, code):
    # 1 - 1e-13 lies in (-1, 1) but inside the potential's endpoint guard
    phi0 = [0.3] * 8
    phi0[3] = value
    cfg_path = small_config(
        tmp_path, potential={"kind": "logarithmic", "c1": 2.0},
        initial_data={"phi0": {"preset": "values", "values": phi0},
                      "S0": {"preset": "constant", "value": 0.4}})
    assert main(["simulate", "--config", str(cfg_path), "--quiet"]) == code
    if code == EXIT_CONFIG:
        assert "config error: initial_data.phi0: " in capsys.readouterr().err


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
