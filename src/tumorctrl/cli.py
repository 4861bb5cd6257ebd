"""Command-line front end: simulate, optimize, verify, and derivative checks.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .adjoint import VISCOSITY_LEVELS, viscosity_sweep
from .config import ExperimentConfig, parse_config, serialize_config
from .control import project_admissible, projected_gradient_descent
from .errors import ConfigError, TumorCtrlError
from .state import (discrete_energy, export_trajectory_csv, max_mu_inf,
                    save_trajectory, solve_forward)
from .verify import (frechet_probe_for_config, frechet_slope_result,
                     run_verification, viscosity_sweep_result)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.dt_override is not None:
        if not 0.0 < args.dt_override < np.inf:
            raise ConfigError("--dt-override must be finite and positive")
        overrides["n_steps"] = max(1, int(round(cfg.T / args.dt_override)))
    try:
        return dataclasses.replace(cfg, **overrides) if overrides else cfg
    except ValueError as exc:  # the field's own check, e.g. a negative --seed
        raise ConfigError(str(exc)) from exc


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _problem(args):
    """Config, system, time grid and initial data of a run."""
    cfg = _load_config(args)
    system = cfg.build_system()
    tg = cfg.build_time_grid()
    return (cfg, system, tg) + cfg.build_initial_data(system)


def cmd_simulate(args) -> int:
    cfg, system, tg, phi0, S0 = _problem(args)
    u = cfg.build_control(system)
    traj = solve_forward(system, tg, u, phi0, S0, cfg.build_solver_config())

    out = _out_dir(cfg)
    save_trajectory(traj, out / "trajectory.npz")
    export_trajectory_csv(traj, out)
    energy = discrete_energy(system, traj)
    _write_json(out / "summary.json", {
        "final_energy": float(energy[-1]),
        "initial_energy": float(energy[0]),
        "max_mu_inf": max_mu_inf(traj),
        "newton_iterations_total": int(np.sum(traj.newton_iterations)),
        "n_steps": tg.n_steps,
    })
    (out / "config.yaml").write_text(serialize_config(cfg))
    _say(args, f"simulate: wrote trajectory and summary to {out}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg, system, tg, phi0, S0 = _problem(args)
    spec = cfg.build_problem_spec(system)
    u0 = project_admissible(cfg.build_control(system), spec)
    report = projected_gradient_descent(system, tg, u0, phi0, S0, spec,
                                        cfg.build_optimizer_options(),
                                        cfg.build_solver_config())

    out = _out_dir(cfg)
    rows = np.column_stack([
        np.arange(len(report.costs)),
        report.costs, report.gradient_norms, report.stationarity,
    ])
    np.savetxt(out / "iterations.csv", rows, delimiter=",",
               header="k,cost,grad_norm,stationarity", comments="")
    np.savetxt(out / "control_final.csv", report.u_final, delimiter=",")
    save_trajectory(report.state_final, out / "state_final.npz")
    _write_json(out / "report.json", {
        "status": report.status,
        "iterations": report.n_iterations,
        "final_cost": float(report.costs[-1]),
        "final_stationarity": float(report.stationarity[-1]),
        "costs": [float(c) for c in report.costs],
        "step_sizes": [float(g) for g in report.step_sizes],
    })
    _say(args, f"optimize: status={report.status} "
               f"final_cost={report.costs[-1]:.6e} -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    results = run_verification(cfg)
    out = _out_dir(cfg)
    _write_json(out / "verify.json", [r.to_dict() for r in results])
    for r in results:
        _say(args, f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: "
                   f"value={r.value:.6e} threshold={r.threshold:.1e} ({r.detail})")
    all_pass = all(r.passed for r in results)
    _say(args, f"verify: {'all checks passed' if all_pass else 'FAILURES detected'}")
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_linearize_check(args) -> int:
    cfg = _load_config(args)
    system = cfg.build_system()
    scales, remainders, slope = frechet_probe_for_config(cfg, system, cfg.seed)

    out = _out_dir(cfg)
    np.savetxt(out / "frechet_probe.csv",
               np.column_stack([scales, remainders]), delimiter=",",
               header="eps,remainder", comments="")
    _write_json(out / "frechet_probe.json",
                {"slope": slope, "eps": list(scales),
                 "remainder": list(remainders)})
    ok = frechet_slope_result(slope).passed
    _say(args, f"linearize-check: slope={slope:.4f} "
               f"({'within' if ok else 'OUTSIDE'} [1.8, 2.2])")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_adjoint_check(args) -> int:
    cfg, system, tg, phi0, S0 = _problem(args)
    spec = cfg.build_problem_spec(system)
    u = cfg.build_control(system)
    traj = solve_forward(system, tg, u, phi0, S0, cfg.build_solver_config())
    sweep = viscosity_sweep(system, tg, traj, spec)

    out = _out_dir(cfg)
    np.savetxt(out / "viscosity_sweep.csv",
               np.column_stack([np.asarray(VISCOSITY_LEVELS, dtype=float), sweep]),
               delimiter=",", header="n_viscosity,discrepancy", comments="")
    result = viscosity_sweep_result(sweep)
    _say(args, f"adjoint-check: final={result.value:.3e}, {result.detail} "
               f"({'pass' if result.passed else 'FAIL'})")
    return EXIT_OK if result.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tumorctrl",
        description="Spectral solver and optimal-control toolkit for a "
                    "three-field fractional phase-field tumor model.")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "simulate": cmd_simulate,
        "optimize": cmd_optimize,
        "verify": cmd_verify,
        "linearize-check": cmd_linearize_check,
        "adjoint-check": cmd_adjoint_check,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the YAML config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--dt-override", type=float, default=None,
                       help="replace the configured time step")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TumorCtrlError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
