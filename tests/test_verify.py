from pathlib import Path

from tumorctrl import control, parse_config, verify
from tumorctrl.reference import SingleModeReduction
from tumorctrl.state import solve_forward

OTHER_CHECKS = ("operator_algebra", "energy_identity", "energy_dissipation",
                "frechet_slope", "gradient_consistency", "gradient_quadratic",
                "viscosity_sweep", "stationarity", "separation")


def test_single_mode_state_reference_solved_once_per_run(monkeypatch):
    calls = []
    solve_state = SingleModeReduction.solve_state

    def counted(self, *args, **kwargs):
        calls.append(args)
        return solve_state(self, *args, **kwargs)

    monkeypatch.setattr(SingleModeReduction, "solve_state", counted)
    for name in OTHER_CHECKS:
        monkeypatch.setattr(verify, f"check_{name}",
                            lambda *a, **k: verify.CheckResult("stub", True, 0.0, 0.0))
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    first = verify.run_verification(cfg)
    assert len(calls) == 1
    second = verify.run_verification(cfg)
    assert len(calls) == 2
    assert first == second
    assert [r.name for r in first[1:4]] == ["single_mode_state", "single_mode_linearized",
                                           "single_mode_adjoint"]
    assert all(r.passed for r in first)


def test_generic_run_solved_once_for_gradient_and_viscosity_checks(monkeypatch):
    # one shared run and the two perturbed runs of each gradient check
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].n_steps)
        return solve_forward(*args, **kwargs)

    for module in (verify, control):
        monkeypatch.setattr(module, "solve_forward", counted)
    shared = ("gradient_consistency", "gradient_quadratic", "viscosity_sweep")
    for name in OTHER_CHECKS + ("single_mode_state", "single_mode_linearized",
                                "single_mode_adjoint"):
        if name not in shared:
            monkeypatch.setattr(verify, f"check_{name}",
                                lambda *a, **k: verify.CheckResult("stub", True, 0.0, 0.0))
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    results = verify.run_verification(cfg)
    assert calls == [cfg.n_steps] * 5
    assert [r.name for r in results[7:10]] == list(shared)
    assert all(r.passed for r in results)
