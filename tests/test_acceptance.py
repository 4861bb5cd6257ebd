"""End-to-end acceptance suite at desk scale.

Unless a criterion says otherwise, runs use Omega = (0, pi), N = 64 grid
points/modes, and dt = 1e-3.  Each test prints one PASS/FAIL line for its
criterion (written to the real stdout so the lines survive pytest capture).
"""

import json
import math
import sys

import numpy as np
import pytest

from tumorctrl import (FULLY_IMPLICIT, FractionalPower,
                       OptimizerOptions, Potential, Proliferation,
                       SolverConfig, TimeGrid, TumorSystem,
                       build_basis, config_from_dict, control_norm,
                       discrete_energy, energy_identity_residual,
                       fd_gradient_check, frechet_remainder_probe,
                       max_mu_inf, midpoint_grid,
                       project_admissible, projected_gradient_descent,
                       sample_variational_inequality, separation_interval,
                       solve_forward, solve_linearized, solve_power_plus_mult,
                       stationarity_residual, viscosity_sweep, y_norm)
from tumorctrl.adjoint import solve_adjoint
from tumorctrl.problem import ControlProblemSpec
from tumorctrl.reference import single_mode_system
from tumorctrl.verify import run_verification, smooth_probe_controls

pytestmark = pytest.mark.acceptance

N_DESK = 64
L = math.pi


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def desk_system(potential=None, proliferation=None) -> TumorSystem:
    grid = midpoint_grid(N_DESK, L)
    return TumorSystem(
        grid=grid,
        op_A=FractionalPower(build_basis("dirichlet_laplace", N_DESK, grid), 1.5),
        op_B=FractionalPower(build_basis("neumann_laplace", N_DESK, grid), 1.2),
        op_C=FractionalPower(build_basis("neumann_laplace", N_DESK, grid), 1.0),
        potential=potential or Potential.regular(),
        proliferation=proliferation or Proliferation(p0=0.5, p1=0.1),
    )


def make_spec(n_steps, kappas, u_min=-10.0, u_max=10.0,
              phi_Q=None, S_Q=None) -> ControlProblemSpec:
    zeros_t = np.zeros((n_steps + 1, N_DESK))
    return ControlProblemSpec(
        kappas=np.asarray(kappas, dtype=float),
        phi_Q=zeros_t if phi_Q is None else phi_Q,
        S_Q=zeros_t if S_Q is None else S_Q,
        phi_Omega=np.zeros(N_DESK), S_Omega=np.zeros(N_DESK),
        u_min=np.full(N_DESK, u_min), u_max=np.full(N_DESK, u_max),
    )


@pytest.fixture(scope="module")
def system():
    return desk_system()


@pytest.fixture(scope="module")
def desk_run(system):
    x = system.grid.points
    tg = TimeGrid(1.0, 1000)
    phi0 = 0.3 * np.sin(x)
    S0 = 0.4 + 0.1 * np.cos(x)
    u = 0.2 * np.ones((tg.n_steps, N_DESK))
    traj = solve_forward(system, tg, u, phi0, S0)
    return tg, u, phi0, S0, traj


def test_criterion_01_operator_algebra(system):
    rng = np.random.default_rng(1)
    weights = system.grid.weights
    inner = lambda a, b: float(np.sum(weights * a * b))
    norm = lambda a: float(np.sqrt(np.sum(weights * a**2)))
    worst = 0.0
    for _ in range(100):
        fp = system.op_A if rng.random() < 0.5 else system.op_B
        basis = fp.basis
        v = basis.eigvecs @ rng.standard_normal(basis.n_modes)
        w = basis.eigvecs @ rng.standard_normal(basis.n_modes)
        p, q = rng.uniform(0.2, 1.0, size=2)
        Ap = FractionalPower(basis, p).matrix

        two = Ap @ (FractionalPower(basis, q).matrix @ v)
        one = FractionalPower(basis, p + q).matrix @ v
        scale = max(norm(one), 1e-12)
        worst = max(worst, norm(two - one) / scale)

        Apv, Apw = Ap @ v, Ap @ w
        sym = abs(inner(Apv, w) - inner(v, Apw))
        worst = max(worst, sym / max(norm(Apv) * norm(w), 1e-12))

        if basis.eigenvalues[0] > 0:
            lam1p = basis.eigenvalues[0] ** p
            coercive = norm(Apv) + 1e-12 >= lam1p * norm(v) * (1 - 1e-9)
            worst = max(worst, 0.0 if coercive else 1.0)
            m = np.abs(rng.standard_normal(N_DESK))
            sol = solve_power_plus_mult(FractionalPower(basis, p), m, v)
            res = Ap @ sol + m * sol - v
            worst = max(worst, norm(res) / max(norm(v), 1e-12))
    report(1, "operator_algebra", worst <= 1e-9,
           f"max relative defect {worst:.3e} over 100 random fields")


def _single_mode_errors(dt: float):
    system, red = single_mode_system(1.2, 0.9, 0.7, Potential.regular(),
                                     Proliferation())
    T = 1.0
    tg = TimeGrid(T, int(round(T / dt)))
    u_fn = lambda t: 0.3 * math.cos(2.0 * t)
    h_fn = lambda t: np.sin(t) + 0.5
    u = np.array([[u_fn(t)] for t in tg.times[1:]])
    h = np.array([[h_fn(t)] for t in tg.times[1:]])

    cfg = SolverConfig(scheme=FULLY_IMPLICIT, newton_tol=1e-12)
    traj = solve_forward(system, tg, u, np.array([0.2]), np.array([0.4]), cfg)
    lin = solve_linearized(system, tg, traj, h)
    spec = ControlProblemSpec(
        kappas=np.array([1.0, 0.5, 1.0, 0.5, 1.0]),
        phi_Q=np.zeros((tg.n_steps + 1, 1)), S_Q=np.zeros((tg.n_steps + 1, 1)),
        phi_Omega=np.zeros(1), S_Omega=np.zeros(1),
        u_min=np.full(1, -10.0), u_max=np.full(1, 10.0))
    adj = solve_adjoint(system, tg, traj, spec)

    state_ref = red.solve_state(0.2, 0.4, u_fn, T)
    ref_t, ref_mu, ref_phi, ref_S = state_ref
    _, ref_eta, ref_xi, ref_zeta = red.solve_linearized(state_ref, h_fn, T)
    g1_fn = lambda t: np.interp(t, ref_t, ref_phi)
    g3_fn = lambda t: np.interp(t, ref_t, ref_S)
    adj_t, ref_q, ref_p, ref_r = red.solve_adjoint(
        state_ref, g1_fn, g3_fn, 0.5 * float(ref_phi[-1]),
        0.5 * float(ref_S[-1]), T)

    def rel(num, t_ref, ref):
        nodes = np.interp(tg.times, t_ref, ref)
        return float(np.max(np.abs(num - nodes))
                     / max(np.max(np.abs(nodes)), 1e-12))

    state_err = max(rel(traj.mu[:, 0], ref_t, ref_mu),
                    rel(traj.phi[:, 0], ref_t, ref_phi),
                    rel(traj.S[:, 0], ref_t, ref_S))
    lin_err = max(rel(lin.eta[:, 0], ref_t, ref_eta),
                  rel(lin.xi[:, 0], ref_t, ref_xi),
                  rel(lin.zeta[:, 0], ref_t, ref_zeta))
    adj_err = max(rel(adj.q[:, 0], adj_t, ref_q),
                  rel(adj.p[:, 0], adj_t, ref_p),
                  rel(adj.r[:, 0], adj_t, ref_r))
    return state_err, lin_err, adj_err


def test_criterion_02_single_mode_oracles():
    coarse = _single_mode_errors(1e-3)
    fine = _single_mode_errors(5e-4)
    rate = math.log2(coarse[0] / fine[0])
    ok = (max(coarse) <= 2e-2 and max(fine) <= 1e-2 and 0.8 <= rate <= 1.2)
    report(2, "single_mode_oracles", ok,
           f"errors at dt=1e-3 {tuple(f'{e:.2e}' for e in coarse)}, "
           f"at dt=5e-4 {tuple(f'{e:.2e}' for e in fine)}, rate {rate:.3f}")


def test_criterion_03_separation():
    pot = Potential.logarithmic(c1=2.0)
    system = desk_system(potential=pot)
    x = system.grid.points
    tg = TimeGrid(1.0, 1000)
    phi0 = 0.5 * np.sin(x)
    S0 = 0.4 + 0.1 * np.cos(x)
    u = 0.3 * np.ones((tg.n_steps, N_DESK))
    traj = solve_forward(system, tg, u, phi0, S0)
    margin = float(min(np.min(1.0 - traj.phi), np.min(traj.phi + 1.0)))
    M = max_mu_inf(traj) + 1.0
    interval = separation_interval(pot, M, float(np.min(phi0)),
                                   float(np.max(phi0)))
    confined = bool(np.all(traj.phi >= interval.a_M)
                    and np.all(traj.phi <= interval.b_M))
    report(3, "separation", margin >= 1e-3 and confined,
           f"margin {margin:.3e}, confined to "
           f"[{interval.a_M:.4f}, {interval.b_M:.4f}] = {confined}")


def test_criterion_04_energy_identity(system, desk_run):
    # pre-relax the initial data so the identity residual is measured away
    # from the incompatible-data transient, where first-order quadrature
    # error dominates
    tg, u, phi0_raw, S0_raw, pre = desk_run
    phi0, S0 = pre.phi[-1], pre.S[-1]
    residuals = []
    for n in (1000, 2000):
        tg_n = TimeGrid(1.0, n)
        u_n = 0.2 * (1.0 + 0.5 * np.sin(3.0 * tg_n.times[1:]))[:, None] \
            * np.ones((n, N_DESK))
        traj_n = solve_forward(system, tg_n, u_n, phi0, S0)
        residuals.append(
            float(np.max(energy_identity_residual(system, traj_n, u_n))))
    ratio = residuals[0] / residuals[1]

    free = desk_system(proliferation=Proliferation.zero())
    x = free.grid.points
    traj0 = solve_forward(free, tg, np.zeros((tg.n_steps, N_DESK)),
                          0.4 * np.sin(x), 0.3 * np.ones(N_DESK))
    max_rise = float(np.max(np.diff(discrete_energy(free, traj0))))
    ok = 1.6 <= ratio <= 2.4 and max_rise <= 1e-12
    report(4, "energy_identity", ok,
           f"residual halving ratio {ratio:.3f}, "
           f"max energy rise without sources {max_rise:.2e}")


def test_criterion_05_frechet_differentiability():
    probe = desk_system(proliferation=Proliferation(p0=2.0, p1=0.5))
    x = probe.grid.points
    tg = TimeGrid(1.0, 1000)
    phi0 = 0.8 * np.sin(x)
    S0 = 2.0 + 0.5 * np.cos(x)
    cfg = SolverConfig(scheme=FULLY_IMPLICIT, newton_tol=1e-12)
    slopes = []
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        u_bar, h = smooth_probe_controls(tg, x, L, rng)
        _, _, slope = frechet_remainder_probe(probe, tg, u_bar, h, phi0, S0,
                                              cfg=cfg)
        slopes.append(slope)
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    report(5, "frechet_differentiability", ok,
           "slopes " + ", ".join(f"{s:.4f}" for s in slopes))


def test_criterion_06_gradient_consistency(system, desk_run):
    tg, u, phi0, S0, traj = desk_run
    x = system.grid.points
    h = np.outer(np.sin(5.0 * tg.times[1:]) + 1.1, np.sin(x) + 0.5)
    gaps = []
    for n in (1000, 2000):
        tg_n = TimeGrid(1.0, n)
        u_n = 0.2 * np.ones((n, N_DESK))
        h_n = np.outer(np.sin(5.0 * tg_n.times[1:]) + 1.1, np.sin(x) + 0.5)
        spec = make_spec(n, (1.0, 0.5, 1.0, 0.5, 1.0))
        _, errors = fd_gradient_check(system, tg_n, u_n, h_n, phi0, S0, spec,
                                      eps_list=(1e-3,),
                                      cfg=SolverConfig(newton_tol=1e-12))
        gaps.append(float(errors[0]))
    rate = math.log2(gaps[0] / gaps[1])

    quad_spec = make_spec(tg.n_steps, (0, 0, 0, 0, 1.0))
    _, q_err = fd_gradient_check(system, tg, u, h, phi0, S0, quad_spec,
                                 eps_list=(1e-2,))
    ok = gaps[0] <= 1e-2 and 0.8 <= rate <= 1.2 and float(q_err[0]) <= 1e-8
    report(6, "gradient_consistency", ok,
           f"gap {gaps[0]:.3e} at dt=1e-3, halving rate {rate:.3f}, "
           f"quadratic case {float(q_err[0]):.3e}")


def test_criterion_07_viscosity_cross_check(system, desk_run):
    tg, u, phi0, S0, traj = desk_run
    spec = make_spec(tg.n_steps, (1.0, 0.0, 1.0, 0.0, 1.0))
    sweep = viscosity_sweep(system, tg, traj, spec,
                            n_values=(10, 100, 1000, 10000))
    monotone = bool(np.all(np.diff(sweep) < 0.0))
    ok = monotone and float(sweep[-1]) <= 1e-3
    report(7, "viscosity_cross_check", ok,
           f"discrepancies {np.array2string(sweep, precision=3)}, "
           f"monotone={monotone}")


def test_criterion_08_optimality(system):
    x = system.grid.points
    tg = TimeGrid(0.2, 200)
    n = tg.n_steps
    phi0 = 0.3 * np.sin(x)
    S0 = 0.4 + 0.1 * np.cos(x)
    u_true = np.tile(0.3 * np.sin(x), (n, 1))
    target = solve_forward(system, tg, u_true, phi0, S0)
    spec = make_spec(n, (1.0, 0.0, 1.0, 0.0, 1.0), u_min=-0.75, u_max=0.75,
                     phi_Q=target.phi, S_Q=target.S)

    report_pg = projected_gradient_descent(
        system, tg, np.zeros((n, N_DESK)), phi0, S0, spec,
        OptimizerOptions(max_iters=60, tol=1e-6))
    u_star = report_pg.u_final
    adj = report_pg.adjoint_final
    stat = stationarity_residual(system, tg, u_star, adj, spec)
    projection = control_norm(
        system, tg, u_star - project_admissible(-adj.r[1:] / spec.kappas[4],
                                                spec))
    vi = sample_variational_inequality(system, tg, u_star, adj, spec,
                                       n_samples=100,
                                       rng=np.random.default_rng(42))
    ok = stat <= 1e-5 and projection <= 1e-5 and bool(np.all(vi >= -1e-4))
    report(8, "optimality", ok,
           f"stationarity {stat:.3e}, projection defect {projection:.3e}, "
           f"min sampled inequality value {float(np.min(vi)):.3e} "
           f"({report_pg.status} in {report_pg.n_iterations} iterations)")


def test_criterion_09_continuous_dependence(system):
    x = system.grid.points
    tg = TimeGrid(0.25, 250)
    n = tg.n_steps
    phi0 = 0.3 * np.sin(x)
    S0 = 0.4 + 0.1 * np.cos(x)
    rng = np.random.default_rng(9)

    def random_control():
        t = tg.times[1:]
        coeffs = rng.uniform(-0.5, 0.5, size=3)
        u = (coeffs[0]
             + coeffs[1] * np.outer(np.sin(2 * t), np.cos(x))
             + coeffs[2] * np.outer(np.cos(3 * t), np.sin(x)))
        return np.clip(u, -1.0, 1.0)

    ratios = []
    for _ in range(20):
        u1, u2 = random_control(), random_control()
        t1 = solve_forward(system, tg, u1, phi0, S0)
        t2 = solve_forward(system, tg, u2, phi0, S0)
        num = y_norm(system, tg, t1.phi - t2.phi, t1.S - t2.S)
        den = control_norm(system, tg, u1 - u2)
        ratios.append(num / den)
    ratios = np.asarray(ratios)
    median = float(np.median(ratios))
    ok = bool(np.all(np.isfinite(ratios)) and np.max(ratios) <= 10.0 * median)
    report(9, "continuous_dependence", ok,
           f"Lipschitz ratios: max {float(np.max(ratios)):.3f}, "
           f"median {median:.3f} over 20 control pairs")


def test_criterion_10_determinism():
    cfg = config_from_dict({
        "domain": {"L": L, "n_points": 16},
        "operators": {"rho": 0.75, "sigma": 0.6, "tau": 0.5},
        "potential": {"kind": "regular"},
        "proliferation": {"p0": 0.5, "p1": 0.1},
        "initial_data": {"phi0": {"preset": "sine", "amplitude": 0.3},
                         "S0": {"preset": "constant", "value": 0.4}},
        "time": {"T": 0.1, "n_steps": 100},
        "cost": {"kappas": [1.0, 0.0, 1.0, 0.0, 1.0]},
        "control": {"preset": "constant", "value": 0.2},
        "output_dir": "runs/acceptance",
        "seed": 1234,
    })
    first = json.dumps([r.to_dict() for r in run_verification(cfg)],
                       sort_keys=True)
    second = json.dumps([r.to_dict() for r in run_verification(cfg)],
                        sort_keys=True)
    all_green = all(r["passed"] for r in json.loads(first))
    ok = first == second and all_green
    report(10, "determinism", ok,
           f"repeated verification byte-identical={first == second}, "
           f"all 12 checks green={all_green}")
