import json
import math

import numpy as np
import pytest
import yaml

from tumorctrl.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main)


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
    # non-finite numbers: ints that overflow and floats that must be finite
    ("operators", {"rho": 0.75, "sigma": 0.6, "tau": 0.5, "n_modes": math.inf},
     "operators.n_modes"),
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
])
def test_malformed_config_exits_with_config_code(tmp_path, capsys, section,
                                                 value, key_path):
    cfg_path = small_config(tmp_path, **{section: value})
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert f"config error: {key_path}" in capsys.readouterr().err


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
    assert (out / "iterations.csv").exists()
    assert (out / "control_final.csv").exists()
    assert (out / "state_final.npz").exists()


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
