import math

import numpy as np
import pytest

from tumorctrl import (ControlProblemSpec, Field, Proliferation, TimeGrid,
                       adjoint_residuals, build_adjoint_data, solve_adjoint,
                       solve_adjoint_viscous_galerkin, solve_forward,
                       solve_q_algebraic, viscosity_sweep)
from tumorctrl.verify import _zero_spec

from conftest import single_mode_system


def test_zero_weights_give_zero_adjoint(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=(0, 0, 0, 0, 1))
    adj = solve_adjoint(system, tg, traj, spec)
    assert not np.any(adj.q)
    assert not np.any(adj.p)
    assert not np.any(adj.r)


def test_adjoint_data_shapes_and_broadcast_guard(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points)
    data = build_adjoint_data(traj, spec)
    assert data.g1.shape == traj.phi.shape
    assert data.g2.shape == (system.n_points,)
    bad = ControlProblemSpec(
        kappas=spec.kappas,
        phi_Q=np.zeros((tg.n_steps + 3, system.n_points)),
        S_Q=spec.S_Q, phi_Omega=spec.phi_Omega, S_Omega=spec.S_Omega,
        u_min=spec.u_min, u_max=spec.u_max)
    with pytest.raises(ValueError):
        build_adjoint_data(traj, bad)


def test_problem_spec_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        _zero_spec(4, 2, kappas=(1, -1, 0, 0, 0))
    with pytest.raises(ValueError, match="u_min"):
        _zero_spec(4, 2, u_min=1.0, u_max=-1.0)


def test_q_algebraic_relation_holds(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points,
                      kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    adj = solve_adjoint(system, tg, traj, spec)
    grid = system.grid
    for k in (0, tg.n_steps // 2, tg.n_steps):
        P = Field(system.proliferation(traj.phi[k]), grid)
        q = solve_q_algebraic(system.op_A, P, Field(adj.p[k], grid),
                              Field(adj.r[k], grid))
        assert np.max(np.abs(q.values - adj.q[k])) <= 1e-9


def test_residuals_small_then_detect_corruption(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points,
                      kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    adj = solve_adjoint(system, tg, traj, spec)
    res = adjoint_residuals(system, tg, adj, traj, spec)
    assert np.max(res) <= 1e-9

    from dataclasses import replace
    bad_p = adj.p.copy()
    bad_p[3] += 1e-4
    bad = replace(adj, p=bad_p)
    assert np.max(adjoint_residuals(system, tg, bad, traj, spec)) >= 1e-6


def test_single_mode_adjoint_matches_rk4():
    system, red = single_mode_system()
    T, dt = 0.5, 1e-3
    tg = TimeGrid(T, int(round(T / dt)))
    u_fn = lambda t: 0.3 * math.cos(2.0 * t)
    u = np.array([[u_fn(t)] for t in tg.times[1:]])
    traj = solve_forward(system, tg, u, np.array([0.2]), np.array([0.4]))
    spec = _zero_spec(tg.n_steps, 1, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    adj = solve_adjoint(system, tg, traj, spec)

    state_ref = red.solve_state(0.2, 0.4, u_fn, T)
    ref_t, _, ref_phi, ref_S = state_ref
    g1_fn = lambda t: float(np.interp(t, ref_t, ref_phi))
    g3_fn = lambda t: float(np.interp(t, ref_t, ref_S))
    adj_t, ref_q, ref_p, ref_r = red.solve_adjoint(
        state_ref, g1_fn, g3_fn, 0.5 * float(ref_phi[-1]),
        0.5 * float(ref_S[-1]), T)
    for num, ref in ((adj.q[:, 0], ref_q), (adj.p[:, 0], ref_p),
                     (adj.r[:, 0], ref_r)):
        ref_nodes = np.interp(tg.times, adj_t, ref)
        rel = np.max(np.abs(num - ref_nodes)) / max(np.max(np.abs(ref_nodes)), 1e-12)
        assert rel <= 2e-2


def exponential_integral_r(c: float, g3_fn, T: float, times: np.ndarray,
                           quad_n: int = 2000) -> np.ndarray:
    """r(t) = int_t^T exp(-c (s - t)) g3(s) ds by the trapezoid rule on
    quad_n intervals per node; g3_fn is evaluated on all of a node's points at once."""
    out = np.empty(times.size)
    for i, t in enumerate(times):
        s = np.linspace(t, T, quad_n + 1)
        out[i] = np.trapezoid(np.exp(-c * (s - t)) * g3_fn(s), s)
    return out


def test_decoupled_nutrient_exponential_oracle():
    # with zero proliferation and only the nutrient running weight, the
    # r-equation decouples into -r' + c r = g3 with r(T) = 0
    system, red = single_mode_system(proliferation=Proliferation.zero())
    T, dt = 0.5, 1e-3
    tg = TimeGrid(T, int(round(T / dt)))
    u_fn = lambda t: 0.3 * math.cos(2.0 * t)
    u = np.array([[u_fn(t)] for t in tg.times[1:]])
    traj = solve_forward(system, tg, u, np.array([0.0]), np.array([0.4]))
    spec = _zero_spec(tg.n_steps, 1, kappas=(0.0, 0.0, 1.0, 0.0, 1.0))
    adj = solve_adjoint(system, tg, traj, spec)
    assert np.max(np.abs(adj.p)) <= 1e-12
    assert np.max(np.abs(adj.q)) <= 1e-12

    g3_fn = lambda t: np.interp(t, tg.times, traj.S[:, 0])
    ref_r = exponential_integral_r(red.c, g3_fn, T, tg.times)
    rel = np.max(np.abs(adj.r[:, 0] - ref_r)) / np.max(np.abs(ref_r))
    assert rel <= 2e-2


def test_viscous_terminal_condition(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points,
                      kappas=(1.0, 0.0, 1.0, 0.0, 1.0))
    visc = solve_adjoint_viscous_galerkin(system, tg, traj, spec, 100)
    assert np.max(np.abs(visc.q[-1])) <= 1e-12


def test_viscosity_sweep_monotone(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points,
                      kappas=(1.0, 0.0, 1.0, 0.0, 1.0))
    gaps = viscosity_sweep(system, tg, traj, spec,
                           n_values=(10, 100, 1000, 10000))
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] <= 1e-3


def test_step_count_mismatch_rejected(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps + 1, system.n_points)
    with pytest.raises(ValueError):
        solve_adjoint(system, TimeGrid(tg.T, tg.n_steps + 1), traj, spec)
