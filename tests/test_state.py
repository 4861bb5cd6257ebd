import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tumorctrl import (FULLY_IMPLICIT, SEMI_IMPLICIT_P, DegenerateSystemError,
                       DomainViolationError, Potential, Proliferation, SolverConfig,
                       StepFailureError, TimeGrid, discrete_energy,
                       energy_identity_residual, initial_mu, load_trajectory,
                       max_mu_inf, parse_config, pde_residuals, save_trajectory,
                       solve_forward, state, verify)
from conftest import (backward_error, build_system, dense_step_matrix, grid_norm,
                      logarithmic_run, single_mode_system)

U = np.finfo(float).eps / 2


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(T=-1.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, n_steps=0)
    tg = TimeGrid(T=1.0, n_steps=4)
    assert tg.dt == 0.25
    assert np.allclose(tg.times, [0, 0.25, 0.5, 0.75, 1.0])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(scheme="trapezoid")


def test_initial_mu_examples():
    system = build_system(proliferation=Proliferation.zero())
    N = system.n_points
    mu0 = initial_mu(system, np.zeros(N), np.ones(N))
    assert np.max(np.abs(mu0)) <= 1e-12

    system = build_system(proliferation=Proliferation(p0=0.0, p1=1.0))
    e1 = system.op_A.basis.eigvecs[:, 0]  # lambda_1 = 1, exponent 2*rho = 1
    mu0 = initial_mu(system, np.zeros(system.n_points), e1)
    assert np.max(np.abs(mu0 - e1 / 2.0)) <= 1e-9

    mu0 = initial_mu(system, np.zeros(system.n_points), np.zeros(system.n_points))
    assert np.max(np.abs(mu0)) <= 1e-12


def test_initial_mu_norm_bound():
    system = build_system(rho=0.7)
    rng = np.random.default_rng(5)
    phi0 = 0.4 * np.sin(system.grid.points)
    S0 = rng.standard_normal(system.n_points)
    mu0 = initial_mu(system, phi0, S0)
    lam1 = system.op_A.basis.eigenvalues[0]
    P0 = system.proliferation(phi0)
    bound = lam1 ** (-1.4) * grid_norm(system.grid, P0 * S0)
    assert grid_norm(system.grid, mu0) <= bound + 1e-12


def test_zero_equilibrium():
    system = build_system(proliferation=Proliferation.zero())
    tg = TimeGrid(0.1, 20)
    traj = solve_forward(system, tg, np.zeros((20, system.n_points)),
                         np.zeros(system.n_points), np.zeros(system.n_points))
    assert np.max(np.abs(traj.mu)) <= 1e-12
    assert np.max(np.abs(traj.phi)) <= 1e-12
    assert np.max(np.abs(traj.S)) <= 1e-12


@pytest.mark.parametrize("scheme", ["semi_implicit_P", FULLY_IMPLICIT])
def test_single_mode_matches_rk4(scheme):
    system, red = single_mode_system()
    T, n = 0.5, 500
    tg = TimeGrid(T, n)
    u_fn = lambda t: 0.3 * math.cos(2.0 * t)
    u = np.array([[u_fn(t)] for t in tg.times[1:]])
    cfg = SolverConfig(scheme=scheme)
    traj = solve_forward(system, tg, u, np.array([0.2]), np.array([0.4]), cfg)
    ref_t, ref_mu, ref_phi, ref_S = red.solve_state(0.2, 0.4, u_fn, T)
    for num, ref in ((traj.mu[:, 0], ref_mu), (traj.phi[:, 0], ref_phi),
                     (traj.S[:, 0], ref_S)):
        ref_nodes = np.interp(tg.times, ref_t, ref)
        rel = np.max(np.abs(num - ref_nodes)) / max(np.max(np.abs(ref_nodes)), 1e-12)
        assert rel <= 2e-2


def test_single_step_matches_rk4_first_order():
    system, red = single_mode_system()
    tg = TimeGrid(1e-3, 1)
    u = np.array([[0.3]])
    traj = solve_forward(system, tg, u, np.array([0.2]), np.array([0.4]))
    ref_t, ref_mu, ref_phi, ref_S = red.solve_state(0.2, 0.4, lambda t: 0.3,
                                                    1e-3, dt=1e-5)
    for num, ref in ((traj.mu[1, 0], ref_mu[-1]), (traj.phi[1, 0], ref_phi[-1]),
                     (traj.S[1, 0], ref_S[-1])):
        assert abs(num - ref) / max(abs(ref), 1e-12) <= 1e-3


def test_newton_iteration_budget():
    system = build_system(n_points=32)
    tg = TimeGrid(0.02, 20)  # dt = 1e-3
    x = system.grid.points
    traj = solve_forward(system, tg, 0.2 * np.ones((20, 32)),
                         0.3 * np.sin(x), 0.4 + 0.1 * np.cos(x))
    assert np.max(traj.newton_iterations) <= 5


def test_pde_residuals_and_sensitivity(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    res = pde_residuals(system, traj, u)
    assert np.max(res) <= 1e-10

    corrupted = traj.phi.copy()
    corrupted[5:] += 1e-3
    bad = replace(traj, phi=corrupted)
    assert np.max(pde_residuals(system, bad, u)) >= 1e-5


def test_energy_identity_zero_and_rate():
    system = build_system()
    x = system.grid.points
    phi0, S0 = 0.3 * np.sin(x), 0.4 + 0.1 * np.cos(x)

    zero_traj = solve_forward(build_system(proliferation=Proliferation.zero()),
                              TimeGrid(0.05, 10), np.zeros((10, 16)),
                              np.zeros(16), np.zeros(16))
    assert np.max(energy_identity_residual(
        build_system(proliferation=Proliferation.zero()), zero_traj,
        np.zeros((10, 16)))) <= 1e-12

    residuals = []
    for n in (50, 100):
        tg = TimeGrid(0.1, n)
        u = 0.2 * np.ones((n, 16))
        traj = solve_forward(system, tg, u, phi0, S0)
        residuals.append(np.max(energy_identity_residual(system, traj, u)))
    ratio = residuals[0] / residuals[1]
    assert 1.6 <= ratio <= 2.4


def test_energy_dissipation_without_sources():
    system = build_system(proliferation=Proliferation.zero())
    x = system.grid.points
    tg = TimeGrid(0.2, 100)
    traj = solve_forward(system, tg, np.zeros((100, 16)),
                         0.4 * np.sin(x), 0.3 * np.ones(16))
    energy = discrete_energy(system, traj)
    assert np.all(np.diff(energy) <= 1e-12)


def test_logarithmic_separation_margin():
    system = build_system(potential=Potential.logarithmic(c1=2.0))
    x = system.grid.points
    tg = TimeGrid(0.2, 200)
    traj = solve_forward(system, tg, 0.3 * np.ones((200, 16)),
                         0.5 * np.sin(x), 0.4 * np.ones(16))
    margin = min(np.min(1.0 - traj.phi), np.min(traj.phi + 1.0))
    assert margin >= 1e-3
    assert np.isfinite(max_mu_inf(traj))


def test_step_failure_reports_index():
    system = build_system()
    x = system.grid.points
    cfg = SolverConfig(newton_tol=1e-10, newton_max_iter=0)
    with pytest.raises(StepFailureError) as exc:
        solve_forward(system, TimeGrid(0.01, 10), 0.2 * np.ones((10, 16)),
                      0.3 * np.sin(x), 0.4 * np.ones(16), cfg)
    assert exc.value.step_index == 1


@pytest.mark.parametrize("name", ["u", "phi0", "S0"])
def test_non_finite_input_rejected_before_newton(monkeypatch, name):
    system = build_system()
    x = system.grid.points
    inputs = {"u": 0.2 * np.ones((10, 16)), "phi0": 0.3 * np.sin(x),
              "S0": 0.4 * np.ones(16)}
    inputs[name][3] = np.nan

    def no_step(*args, **kwargs):
        raise AssertionError("a Newton step ran on non-finite input")

    monkeypatch.setattr(state, "step", no_step)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        solve_forward(system, TimeGrid(0.01, 10), inputs["u"], inputs["phi0"],
                      inputs["S0"])


def test_split_scheme_close_to_plain(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    cfg = SolverConfig(split_f2_explicit=True)
    split_traj = solve_forward(system, tg, u, phi0, S0, cfg)
    assert np.max(np.abs(split_traj.phi - traj.phi)) <= 5 * tg.dt


def test_save_load_round_trip(tmp_path, generic_run):
    _, _, _, _, _, traj = generic_run
    path = tmp_path / "traj.npz"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.mu, traj.mu)
    assert np.array_equal(back.phi, traj.phi)
    assert np.array_equal(back.S, traj.S)
    assert back.scheme == traj.scheme


@pytest.mark.parametrize("split_f2_explicit", [False, True])
@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT_P, FULLY_IMPLICIT])
def test_newton_solve_matches_dense_oracle(scheme, split_f2_explicit):
    system, tg, u, traj = logarithmic_run(scheme, split_f2_explicit)
    pot, P_fun = system.potential, system.proliferation
    mu, phi, S = traj.mu[25], traj.phi[25], traj.S[25]
    # the system of Newton's first iteration, started from the previous state
    P = P_fun(phi)
    D = None if scheme == SEMI_IMPLICIT_P else P_fun.d1(phi) * (S - mu)
    df = pot.df1(phi) if split_f2_explicit else pot.df(phi)
    b = -np.concatenate([system.MA @ mu - P * (S - mu),
                         system.MB @ phi + pot.f(phi) - mu,
                         system.MC @ S + P * (S - mu) - u[25]])
    J = dense_step_matrix(system, tg.dt, P, df, D)
    op = state.StepOperator(system, tg.dt, P, D)
    delta = op.solve(df, b)
    exact = np.linalg.solve(J, b)
    assert np.max(np.abs(delta - exact)) <= 1e-11 * np.max(np.abs(exact))
    # the elimination alone is not backward stable; corrected once by the
    # stacked residual, as Newton's next iteration corrects it, it is
    corrected = delta + op.solve(df, b - J @ delta)
    assert backward_error(J, corrected, b) <= 10 * U


def test_split_pde_residuals_recompute_newton_stop(monkeypatch):
    last, stopped = [], []
    step_residuals, step = state._step_residuals, state.step

    def record_residuals(*args):
        last[:] = step_residuals(*args)
        return last

    def record_stop(*args, **kwargs):
        out = step(*args, **kwargs)
        stopped.append(list(last))
        return out

    monkeypatch.setattr(state, "_step_residuals", record_residuals)
    monkeypatch.setattr(state, "step", record_stop)
    # phi beyond the regular potential's convex threshold 1/sqrt(3), where
    # f1(phi+) + (f(phi) - f1(phi)) and f1(phi+) + f(phi) - f1(phi) round apart
    system = build_system(proliferation=Proliferation(p0=2.0, p1=0.5))
    x = system.grid.points
    tg = TimeGrid(0.05, 50)
    u = np.broadcast_to(1.0 + 0.5 * np.cos(x), (tg.n_steps, system.n_points))
    traj = solve_forward(system, tg, u, 1.2 * np.sin(x), 2.0 + 0.5 * np.cos(x),
                         SolverConfig(split_f2_explicit=True))
    monkeypatch.undo()
    w = system.grid.weights
    newton = np.array([np.sqrt(np.sum(w * (r1 * r1 + r2 * r2 + r3 * r3)))
                       for r1, r2, r3 in stopped])
    combined = np.sqrt(np.sum(pde_residuals(system, traj, u) ** 2, axis=1))
    assert newton.size == tg.n_steps
    # equal up to the rounding of the norms themselves
    assert np.all(combined <= newton * (1.0 + 1e-13))


@pytest.mark.parametrize("factorization", ["inv", "solve"])
def test_singular_step_matrix_names_the_step(monkeypatch, factorization):
    system = build_system()
    x = system.grid.points

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    phi, S = 0.3 * np.sin(x), 0.4 * np.ones(16)
    prev = (initial_mu(system, phi, S), phi, S)
    monkeypatch.setattr(np.linalg, factorization, singular)
    with pytest.raises(DegenerateSystemError, match="singular step matrix at step 7$"):
        state.step(system, SolverConfig(), 0.01, prev, 0.2 * np.ones(16), step_index=7)


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT_P, FULLY_IMPLICIT])
def test_guess_outside_domain_falls_back_to_previous_state(scheme):
    system, tg, u, traj = logarithmic_run(scheme, False)
    cfg = SolverConfig(scheme=scheme)
    prev = (traj.mu[24], traj.phi[24], traj.S[24])
    guess = (traj.mu[24], 2.0 * traj.phi[24] / np.max(np.abs(traj.phi[24])), traj.S[24])
    assert np.max(np.abs(guess[1])) >= 1.0
    from_guess = state.step(system, cfg, tg.dt, prev, u[24], step_index=25, guess=guess)
    from_prev = state.step(system, cfg, tg.dt, prev, u[24], step_index=25)
    for a, b in zip(from_guess, from_prev):
        assert np.array_equal(a, b)
    assert np.max(np.abs(from_guess[1] - traj.phi[25])) <= 1e-9


@pytest.mark.parametrize("split_f2_explicit", [False, True])
def test_previous_state_outside_domain_raises_without_guess(split_f2_explicit):
    system = build_system(potential=Potential.logarithmic(c1=2.0))
    x = system.grid.points
    phi, S = 1.2 * np.sin(x), 0.4 * np.ones(16)
    cfg = SolverConfig(split_f2_explicit=split_f2_explicit)
    with pytest.raises(DomainViolationError):
        state.step(system, cfg, 0.01, (np.zeros(16), phi, S), 0.2 * np.ones(16),
                   step_index=7)


def test_extrapolated_start_takes_one_newton_iteration():
    # the default physics, reduced to N = 16 and 500 steps of the default dt
    default = parse_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    cfg = replace(default, n_points=16, T=0.5, n_steps=500)
    system = cfg.build_system()
    phi0, S0 = cfg.build_initial_data(system)
    traj = solve_forward(system, cfg.build_time_grid(), cfg.build_control(system),
                         phi0, S0, cfg.build_solver_config())
    assert np.mean(traj.newton_iterations[1:] == 1) >= 0.9


def test_fully_implicit_run_matches_tight_reference():
    # inexact Newton stops just under newton_tol; the state it accepts stays
    # within that level of one solved to the round-off floor
    system = build_system(n_points=64, potential=Potential.logarithmic(c1=2.0),
                          proliferation=Proliferation(p0=2.0, p1=0.5))
    x = system.grid.points
    tg = TimeGrid(1.0, 100)
    u = np.broadcast_to(1.0 + 0.5 * np.cos(x), (tg.n_steps, system.n_points))
    phi0, S0 = 0.9 * np.sin(x), 2.0 + 0.5 * np.cos(x)
    traj, ref = (solve_forward(system, tg, u, phi0, S0,
                               SolverConfig(scheme=FULLY_IMPLICIT, newton_tol=tol))
                 for tol in (1e-10, 1e-13))
    for num, exact in ((traj.mu, ref.mu), (traj.phi, ref.phi), (traj.S, ref.S)):
        assert np.max(np.abs(num - exact)) <= 1e-9 * np.max(np.abs(exact))


def _frechet_probe_run(newton_tol):
    """verify's Frechet probe physics (N = 32, fully implicit, P = (2.0, 0.5),
    the seed-0 controls), cut to its first 50 steps."""
    default = parse_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    system = replace(default.build_system(), proliferation=Proliferation(p0=2.0, p1=0.5))
    tg = TimeGrid(0.1, 50)
    x = system.grid.points
    u, _ = verify.smooth_probe_controls(tg, x, default.L, np.random.default_rng(1))
    return solve_forward(system, tg, u, 0.8 * np.sin(x), 2.0 + 0.5 * np.cos(x),
                         SolverConfig(newton_tol=newton_tol, scheme=FULLY_IMPLICIT))


def test_newton_accepts_at_round_off_floor():
    # newton_tol = 1e-12 lies under this problem's round-off floor, where Newton
    # used to iterate until the residual stopped falling (3.3 iterations a step)
    traj = _frechet_probe_run(1e-12)
    assert np.mean(traj.newton_iterations[1:]) <= 2.1
    # any target under the floor gives the same steps
    tighter = _frechet_probe_run(1e-13)
    assert np.array_equal(tighter.newton_iterations, traj.newton_iterations)
    assert np.array_equal(tighter.phi, traj.phi)


def test_newton_tol_above_floor_is_met():
    # the default physics at N = 16, where newton_tol lies above the floor
    default = parse_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    cfg = replace(default, n_points=16, T=0.1, n_steps=100)
    system = cfg.build_system()
    phi0, S0 = cfg.build_initial_data(system)
    u = np.broadcast_to(cfg.build_control(system), (cfg.n_steps, 16))
    solver = cfg.build_solver_config()
    traj = solve_forward(system, cfg.build_time_grid(), u, phi0, S0, solver)
    dt = traj.times[1] - traj.times[0]
    floors = [state._round_off_floor(system, dt, (traj.mu[k - 1], traj.phi[k - 1],
                                                  traj.S[k - 1]),
                                     (traj.mu[k], traj.phi[k], traj.S[k]), u[k - 1])
              for k in range(1, cfg.n_steps + 1)]
    assert max(floors) < solver.newton_tol
    # Newton's residual, recomputed, up to the rounding of the norms
    newton = np.sqrt(np.sum(pde_residuals(system, traj, u) ** 2, axis=1))
    assert np.all(newton <= solver.newton_tol * (1.0 + 1e-13))
