"""Self-verification battery: operator algebra, oracle comparisons, energy,
derivative, adjoint, and optimality checks, all deterministic for a fixed
seed.  Returns machine-readable results; the command-line front end turns
them into a report and an exit status.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .adjoint import solve_adjoint, viscosity_sweep
from .config import ExperimentConfig
from .control import (OptimizerOptions, fd_gradient_check,
                      projected_gradient_descent)
from .linearized import frechet_remainder_probe, solve_linearized
from .model import Potential, Proliferation, separation_interval
from .problem import ControlProblemSpec
from .reference import SingleModeReduction, single_mode_system
from .spectral import solve_power_plus_mult
from .state import (FULLY_IMPLICIT, SolverConfig, TimeGrid,
                    discrete_energy, energy_identity_residual, max_mu_inf,
                    solve_forward)
from .system import TumorSystem

ALGEBRA_FIELDS = 100  # random fields the operator-algebra check draws


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _zero_spec(n_steps, N, u_min=-10.0, u_max=10.0, kappas=(1, 0, 1, 0, 1)):
    return ControlProblemSpec(
        kappas=np.asarray(kappas, dtype=float),
        phi_Q=np.zeros((n_steps + 1, N)), S_Q=np.zeros((n_steps + 1, N)),
        phi_Omega=np.zeros(N), S_Omega=np.zeros(N),
        u_min=np.full(N, u_min), u_max=np.full(N, u_max),
    )


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------

def check_operator_algebra(system: TumorSystem, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    N, w = system.n_points, system.grid.weights
    norm = lambda v: float(np.sqrt(np.sum(w * v**2)))
    worst = 0.0
    for _ in range(ALGEBRA_FIELDS):
        raw = rng.standard_normal(N)
        for op in (system.op_A, system.op_B, system.op_C):
            E = op.basis.eigvecs
            v = E @ (E.T @ (w * raw))  # E E^T W = I up to rounding
            scale = max(norm(v), 1e-12)
            comp = op.half.matrix @ (op.half.matrix @ v)
            worst = max(worst, norm(comp - op.matrix @ v) / scale)
            u2 = E @ (E.T @ (w * rng.standard_normal(N)))
            sym = abs(np.sum(w * (op.matrix @ v) * u2)
                      - np.sum(w * v * (op.matrix @ u2)))
            worst = max(worst, sym / max(scale * norm(u2), 1e-12))
        # coercivity of the half power of the first operator
        v = system.op_A.basis.eigvecs @ (system.op_A.basis.eigvecs.T @ (w * raw))
        lam1 = system.op_A.basis.eigenvalues[0] ** system.op_A.half.exponent
        lhs = norm(system.op_A.half.matrix @ v)
        gap = lam1 * norm(v) - lhs
        worst = max(worst, gap / max(lhs, 1e-12))
        # inverse consistency of the shifted solve
        m = np.abs(rng.standard_normal(N))
        rhs = rng.standard_normal(N)
        sol = solve_power_plus_mult(system.op_A, m, rhs)
        res = system.op_A.matrix @ sol + m * sol - rhs
        worst = max(worst, norm(res) / max(norm(rhs), 1e-12))
    return CheckResult("operator_algebra", worst <= 1e-9, worst, 1e-9,
                       f"max relative defect over {ALGEBRA_FIELDS} random fields")


def _single_mode_control(t):
    return 0.3 * math.cos(2.0 * t)


@dataclass(frozen=True)
class SingleModeSetup:
    """The single-mode system, its ODE reduction, the RK4 reference state over
    [0, T] and the default-scheme run, shared by one battery's three checks."""

    system: TumorSystem
    reduction: SingleModeReduction
    T: float
    state: tuple

    @cached_property
    def run(self) -> tuple:  # (time grid, trajectory), made where first needed
        return _single_mode_run(self.system, self.T)


def _single_mode_setup(cfg: ExperimentConfig, system: TumorSystem,
                       T: float = 0.5) -> SingleModeSetup:
    """The operators are the eigenvalues 1.2, 0.9, 0.7 raised to the configured
    exponents; potential and proliferation are the configured system's."""
    system, red = single_mode_system(1.2 ** (2 * cfg.rho), 0.9 ** (2 * cfg.sigma),
                                     0.7 ** (2 * cfg.tau), system.potential,
                                     system.proliferation)
    return SingleModeSetup(system, red, T,
                           red.solve_state(0.2, 0.4, _single_mode_control, T))


def _single_mode_run(system: TumorSystem, T: float, scfg: SolverConfig | None = None):
    """Forward run of the single-mode system at dt = 1e-3; returns (time grid, trajectory)."""
    tg = TimeGrid(T, int(round(T / 1e-3)))
    u = np.array([[_single_mode_control(t)] for t in tg.times[1:]])
    return tg, solve_forward(system, tg, u, np.array([0.2]), np.array([0.4]), scfg)


def _single_mode_result(name: str, tg: TimeGrid, ref_t: np.ndarray, pairs) -> CheckResult:
    """Largest relative error of node values against the interpolated references."""
    err = 0.0
    for num, ref in pairs:
        ref_nodes = np.interp(tg.times, ref_t, ref)
        err = max(err, float(np.max(np.abs(num - ref_nodes))
                             / max(np.max(np.abs(ref_nodes)), 1e-12)))
    return CheckResult(name, err <= 2e-2, err, 2e-2,
                       f"max relative error vs RK4 reference at dt={tg.dt}")


def check_single_mode_state(setup: SingleModeSetup) -> CheckResult:
    tg, traj = setup.run
    ref_t, ref_mu, ref_phi, ref_S = setup.state
    return _single_mode_result("single_mode_state", tg, ref_t, (
        (traj.mu[:, 0], ref_mu), (traj.phi[:, 0], ref_phi), (traj.S[:, 0], ref_S)))


def check_single_mode_linearized(setup: SingleModeSetup) -> CheckResult:
    tg, traj = _single_mode_run(setup.system, setup.T, SolverConfig(scheme=FULLY_IMPLICIT))
    h_fn = lambda t: np.sin(t) + 0.5
    h = h_fn(tg.times[1:])[:, None]
    lin = solve_linearized(setup.system, tg, traj, h)
    ref_t, _, ref_xi, ref_zeta = setup.reduction.solve_linearized(setup.state, h_fn,
                                                                   setup.T)
    return _single_mode_result("single_mode_linearized", tg, ref_t, (
        (lin.xi[:, 0], ref_xi), (lin.zeta[:, 0], ref_zeta)))


def check_single_mode_adjoint(setup: SingleModeSetup) -> CheckResult:
    tg, traj = setup.run
    spec = _zero_spec(tg.n_steps, 1, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    adj = solve_adjoint(setup.system, tg, traj, spec)
    ref_t, _, ref_phi, ref_S = setup.state
    adj_t, ref_q, ref_p, ref_r = setup.reduction.solve_adjoint(
        setup.state, lambda t: np.interp(t, ref_t, ref_phi),
        lambda t: np.interp(t, ref_t, ref_S),
        0.5 * float(ref_phi[-1]), 0.5 * float(ref_S[-1]), setup.T)
    return _single_mode_result("single_mode_adjoint", tg, adj_t, (
        (adj.q[:, 0], ref_q), (adj.p[:, 0], ref_p), (adj.r[:, 0], ref_r)))


def _generic_run_data(system: TumorSystem, n_steps: int, T: float):
    x = system.grid.points
    L = system.grid.L
    phi0 = 0.3 * np.sin(math.pi * x / L)
    S0 = 0.4 + 0.1 * np.cos(math.pi * x / L)
    tg = TimeGrid(T, n_steps)
    u = 0.2 * np.ones((n_steps, system.n_points))
    return tg, u, phi0, S0


def check_energy_identity(cfg: ExperimentConfig, system: TumorSystem) -> CheckResult:
    tg, u, phi0, S0 = _generic_run_data(system, cfg.n_steps, cfg.T)
    traj = solve_forward(system, tg, u, phi0, S0)
    res_coarse = float(np.max(energy_identity_residual(system, traj, u)))
    tg2, u2, _, _ = _generic_run_data(system, 2 * cfg.n_steps, cfg.T)
    traj2 = solve_forward(system, tg2, u2, phi0, S0)
    res_fine = float(np.max(energy_identity_residual(system, traj2, u2)))
    ratio = res_coarse / max(res_fine, 1e-300)
    return CheckResult("energy_identity_rate", 1.6 <= ratio <= 2.4, ratio, 2.4,
                       f"residual ratio under dt halving ({res_coarse:.3e} -> {res_fine:.3e})")


def check_energy_dissipation(cfg: ExperimentConfig, system: TumorSystem) -> CheckResult:
    quiet = replace(system, proliferation=Proliferation.zero())
    tg, _, phi0, S0 = _generic_run_data(quiet, cfg.n_steps, cfg.T)
    traj = solve_forward(quiet, tg, np.zeros((cfg.n_steps, quiet.n_points)),
                         phi0, S0)
    energy = discrete_energy(quiet, traj)
    worst_rise = float(np.max(np.diff(energy)))
    return CheckResult("energy_dissipation", worst_rise <= 1e-12, worst_rise, 1e-12,
                       "largest energy increase with no control and no proliferation")


def smooth_probe_controls(tg: TimeGrid, x: np.ndarray, L: float,
                          rng: np.random.Generator):
    """A smooth base control and perturbation direction with random phases."""
    t = tg.times[1:]
    th = rng.uniform(0.0, 2.0 * math.pi, size=4)
    sx, cx = np.sin(math.pi * x / L), np.cos(math.pi * x / L)
    u_bar = 1.0 + 0.5 * np.outer(np.sin(3.0 * t + th[0]), cx)
    h = 2.0 * (np.outer(np.sin(2.0 * t + th[1]) + 1.2, sx)
               + np.outer(np.cos(5.0 * t + th[2]), cx))
    return u_bar, h


def frechet_probe_for_config(cfg: ExperimentConfig, system: TumorSystem,
                             seed: int):
    """Derivative-remainder sweep on a well-conditioned probe problem.

    Strong proliferation coupling and smooth low-mode control profiles keep
    the quadratic remainder well above the Newton noise floor across the
    whole epsilon sweep; spatially rough directions are crushed by the
    diffusion operators and would bury the signal.
    """
    probe_sys = replace(system, proliferation=Proliferation(p0=2.0, p1=0.5))
    rng = np.random.default_rng(seed + 1)
    tg = TimeGrid(1.0, 500)
    x = system.grid.points
    phi0 = 0.8 * np.sin(math.pi * x / cfg.L)
    S0 = 2.0 + 0.5 * np.cos(math.pi * x / cfg.L)
    u_bar, h = smooth_probe_controls(tg, x, cfg.L, rng)
    scfg = SolverConfig(newton_tol=1e-12, scheme=FULLY_IMPLICIT)
    return frechet_remainder_probe(probe_sys, tg, u_bar, h, phi0, S0, cfg=scfg)


def frechet_slope_result(slope: float) -> CheckResult:
    """Pass rule of the derivative probe: the remainder slope lies in [1.8, 2.2]."""
    return CheckResult("frechet_slope", 1.8 <= slope <= 2.2, slope, 2.2,
                       "log-log slope of the derivative remainder")


def check_frechet_slope(cfg: ExperimentConfig, system: TumorSystem,
                        seed: int) -> CheckResult:
    _, _, slope = frechet_probe_for_config(cfg, system, seed)
    return frechet_slope_result(slope)


def _gradient_gap(run: tuple, seed: int, kappas, eps: float) -> float:
    """Relative gap between a central difference of the reduced cost and the
    adjoint gradient along a random direction, around the generic run."""
    system, tg, u, traj = run
    rng = np.random.default_rng(seed)
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=kappas)
    h = rng.standard_normal(u.shape).clip(-1, 1)
    _, errors = fd_gradient_check(system, tg, u, h, traj, spec, eps_list=(eps,))
    return float(errors[0])


def check_gradient_consistency(run: tuple, seed: int) -> CheckResult:
    err = _gradient_gap(run, seed + 2, (1, 1, 1, 1, 1), 1e-3)
    return CheckResult("gradient_consistency", err <= 1e-2, err, 1e-2,
                       "relative gap between central differences and the adjoint gradient")


def check_gradient_quadratic(run: tuple, seed: int) -> CheckResult:
    err = _gradient_gap(run, seed + 3, (0, 0, 0, 0, 1.0), 1e-2)
    return CheckResult("gradient_quadratic", err <= 1e-8, err, 1e-8,
                       "purely quadratic cost: central differences are exact")


def viscosity_sweep_result(sweep: np.ndarray) -> CheckResult:
    """Pass rule of the viscosity sweep: strictly decreasing discrepancies
    that end at or below 1e-3."""
    monotone = bool(np.all(np.diff(sweep) < 0.0))
    final = float(sweep[-1])
    return CheckResult("viscosity_sweep", monotone and final <= 1e-3, final, 1e-3,
                       f"discrepancies {np.array2string(sweep, precision=3)}; "
                       f"monotone={monotone}")


def check_viscosity_sweep(run: tuple) -> CheckResult:
    system, tg, _, traj = run
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=(1, 0, 1, 0, 1))
    return viscosity_sweep_result(viscosity_sweep(system, tg, traj, spec))


def check_stationarity(cfg: ExperimentConfig, system: TumorSystem) -> CheckResult:
    tg, _, phi0, S0 = _generic_run_data(system, cfg.n_steps, cfg.T)
    n, N = cfg.n_steps, system.n_points
    spec = _zero_spec(n, N, u_min=-1.0, u_max=1.0, kappas=(0, 0, 0, 0, 1.0))
    report = projected_gradient_descent(
        system, tg, 0.5 * np.ones((n, N)), phi0, S0, spec,
        OptimizerOptions(max_iters=20, tol=1e-8))
    stat = report.stationarity[-1]
    passed = stat <= 1e-8 and report.status == "converged"
    return CheckResult("stationarity", passed, stat, 1e-8,
                       f"projected gradient status={report.status}, "
                       f"iterations={report.n_iterations}")


def check_separation(cfg: ExperimentConfig, system: TumorSystem) -> CheckResult:
    potential = Potential.logarithmic(c1=2.0)
    system = replace(system, potential=potential, proliferation=Proliferation())
    tg, _, _, S0 = _generic_run_data(system, cfg.n_steps, cfg.T)
    phi0 = 0.5 * np.sin(math.pi * system.grid.points / cfg.L)
    u = 0.3 * np.ones((cfg.n_steps, cfg.n_points))
    traj = solve_forward(system, tg, u, phi0, S0)
    margin = float(min(np.min(1.0 - traj.phi), np.min(traj.phi + 1.0)))
    M = max_mu_inf(traj) + 1.0
    a0, b0 = float(np.min(phi0)), float(np.max(phi0))
    interval = separation_interval(potential, M, a0, b0)
    confined = bool(np.all(traj.phi >= interval.a_M)
                    and np.all(traj.phi <= interval.b_M))
    passed = margin >= 1e-3 and confined
    return CheckResult("separation", passed, margin, 1e-3,
                       f"phase field confined to [{interval.a_M:.4f}, "
                       f"{interval.b_M:.4f}] = {confined}")


def run_verification(cfg: ExperimentConfig) -> list:
    """Run the full battery on the configured problem; deterministic per seed.
    The gradient checks and the viscosity sweep share one generic run, solved
    after the derivative probe so that it stays out of the probe's memory peak."""
    system = cfg.build_system()
    single_mode = _single_mode_setup(cfg, system)
    results = [
        check_operator_algebra(system, cfg.seed),
        check_single_mode_state(single_mode),
        check_single_mode_linearized(single_mode),
        check_single_mode_adjoint(single_mode),
        check_energy_identity(cfg, system),
        check_energy_dissipation(cfg, system),
        check_frechet_slope(cfg, system, cfg.seed),
    ]
    tg, u, phi0, S0 = _generic_run_data(system, cfg.n_steps, cfg.T)
    run = (system, tg, u, solve_forward(system, tg, u, phi0, S0))
    return results + [
        check_gradient_consistency(run, cfg.seed),
        check_gradient_quadratic(run, cfg.seed),
        check_viscosity_sweep(run),
        check_stationarity(cfg, system),
        check_separation(cfg, system),
    ]
