import math

import numpy as np
import pytest
from scipy.linalg import eigh

from tumorctrl import (FULLY_IMPLICIT, SEMI_IMPLICIT_P, ControlProblemSpec,
                       DegenerateSystemError, FractionalPower, Potential, Proliferation,
                       QuadratureGrid, SolverConfig, SpectralBasis, TimeGrid, TumorSystem,
                       adjoint_residuals, build_adjoint_data, solve_adjoint,
                       solve_adjoint_viscous_galerkin, solve_forward, viscosity_sweep)
from tumorctrl.state import StepOperator
from tumorctrl.verify import _zero_spec

from conftest import (backward_error, dense_step_matrix, logarithmic_run,
                      single_mode_system)

U = np.finfo(float).eps / 2


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
    for k in (0, tg.n_steps // 2, tg.n_steps):
        P = system.proliferation(traj.phi[k])
        q = np.linalg.solve(system.MA + np.diag(P), adj.p[k] + P * adj.r[k])
        assert np.max(np.abs(q - adj.q[k])) <= 1e-9


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
    g1_fn = lambda t: np.interp(t, ref_t, ref_phi)
    g3_fn = lambda t: np.interp(t, ref_t, ref_S)
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


def viscous_3n_oracle(system, tg, traj, spec, n_viscosity):
    """The viscous Galerkin adjoint by its stacked 3N x 3N modal step, as the
    cross-check solved it before it eliminated p^: the oracle for its 2N solve."""
    w, dt, n = system.grid.weights, tg.dt, tg.n_steps
    data = build_adjoint_data(traj, spec)
    EA, EB, EC = (op.basis.eigvecs for op in (system.op_A, system.op_B, system.op_C))
    LA, LB, LC = (np.diag(op.scaled_eigenvalues)
                  for op in (system.op_A, system.op_B, system.op_C))
    X_AB = EA.T @ (w[:, None] * EB)
    I, Z = np.eye(system.n_points), np.zeros_like(X_AB)
    E = np.block([[I / n_viscosity, Z, Z], [X_AB.T, I, Z], [Z, Z, I]])
    gram = lambda f, Ea, Eb: Ea.T @ ((w * f)[:, None] * Eb)
    y = np.zeros((n + 1, 3 * system.n_points))
    y[n] = np.concatenate([np.zeros(system.n_points), EB.T @ (w * data.g2),
                           EC.T @ (w * data.g4)])
    for k in range(n - 1, -1, -1):
        phi = traj.phi[k]
        P = system.proliferation(phi)
        D = system.proliferation.d1(phi) * (traj.S[k] - traj.mu[k])
        df = system.potential.df(phi)
        M = np.block([
            [LA + gram(P, EA, EA), -X_AB, -gram(P, EA, EC)],
            [-gram(D, EB, EA), LB + gram(df, EB, EB), gram(D, EB, EC)],
            [-gram(P, EC, EA), Z, LC + gram(P, EC, EC)]])
        b = np.concatenate([np.zeros(system.n_points), EB.T @ (w * data.g1[k]),
                            EC.T @ (w * data.g3[k])])
        y[k] = np.linalg.solve(E / dt + M, E @ y[k + 1] / dt + b)
    return [part @ E.T for part, E in zip(np.split(y, 3, axis=1), (EA, EB, EC))]


@pytest.mark.parametrize("n_viscosity", [10, 10**4])
@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT_P, FULLY_IMPLICIT])
def test_viscous_node_solve_matches_3n_oracle(scheme, n_viscosity):
    system, tg, _, traj = logarithmic_run(scheme, False, n_steps=20, n_points=32)
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    visc = solve_adjoint_viscous_galerkin(system, tg, traj, spec, n_viscosity)
    oracle = viscous_3n_oracle(system, tg, traj, spec, n_viscosity)
    for num, ref in zip((visc.q, visc.p, visc.r), oracle):
        assert np.max(np.abs(num - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_viscosity", [10, 10**4])
def test_viscous_node_refinement_matches_3n_oracle_at_n128(n_viscosity):
    # at N = 128 the s^ elimination alone is about 1e-11 off the oracle in p;
    # its refinement sweep brings it to round-off
    system, tg, _, traj = logarithmic_run(FULLY_IMPLICIT, False, n_steps=10, n_points=128)
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    visc = solve_adjoint_viscous_galerkin(system, tg, traj, spec, n_viscosity)
    oracle = viscous_3n_oracle(system, tg, traj, spec, n_viscosity)
    for num, ref in zip((visc.q, visc.p, visc.r), oracle):
        assert np.max(np.abs(num - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_viscous_node_makes_two_n_by_n_solves(monkeypatch, generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    solve, shapes = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: shapes.append(a.shape) or solve(a, b))
    solve_adjoint_viscous_galerkin(system, tg, traj, spec, 100)
    assert shapes == [(system.n_points, system.n_points)] * (2 * tg.n_steps)


def test_singular_viscous_node_names_the_node(monkeypatch, generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    # the node's own factorization meets an exactly singular matrix
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(np.zeros_like(a), b))
    with pytest.raises(DegenerateSystemError,
                       match=f"failed at node {tg.n_steps - 1}$"):
        solve_adjoint_viscous_galerkin(system, tg, traj, spec, 100)


def test_viscosity_sweep_monotone(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points,
                      kappas=(1.0, 0.0, 1.0, 0.0, 1.0))
    gaps = viscosity_sweep(system, tg, traj, spec)
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] <= 1e-3


def test_step_count_mismatch_rejected(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps + 1, system.n_points)
    with pytest.raises(ValueError):
        solve_adjoint(system, TimeGrid(tg.T, tg.n_steps + 1), traj, spec)


def block_step_adjoint(system, tg, traj, spec):
    """The adjoint by the earlier direct solver, kept as an oracle: each backward
    step eliminates q through the algebraic relation and solves the 2N x 2N
    system in (p, r)."""
    n, N, dt = tg.n_steps, system.n_points, tg.dt
    data = build_adjoint_data(traj, spec)
    P_fun, I = system.proliferation, np.eye(N)
    q, p, r = (np.zeros((n + 1, N)) for _ in range(3))
    P_T = P_fun(traj.phi[-1])
    r[n] = data.g4
    q[n] = np.linalg.solve(I + system.MA + np.diag(P_T), data.g2 + P_T * data.g4)
    p[n] = data.g2 - q[n]
    for k in range(n - 1, -1, -1):
        P_k = P_fun(traj.phi[k])
        D_k = P_fun.d1(traj.phi[k]) * (traj.S[k] - traj.mu[k])
        Qp = np.linalg.inv(system.MA + np.diag(P_k))
        Qr = Qp * P_k[None, :]
        A11 = ((I + Qp) / dt + system.MB + np.diag(system.potential.df(traj.phi[k]))
               - D_k[:, None] * Qp)
        A12 = Qr / dt - D_k[:, None] * Qr + np.diag(D_k)
        A21 = -P_k[:, None] * Qp
        A22 = I / dt + system.MC + np.diag(P_k) - P_k[:, None] * Qr
        sol = np.linalg.solve(np.block([[A11, A12], [A21, A22]]), np.concatenate([
            data.g1[k] + (q[k + 1] + p[k + 1]) / dt, data.g3[k] + r[k + 1] / dt]))
        p[k], r[k] = sol[:N], sol[N:]
        q[k] = Qp @ p[k] + Qr @ r[k]
    return q, p, r


@pytest.mark.parametrize("split_f2_explicit", [False, True])
@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT_P, FULLY_IMPLICIT])
def test_adjoint_matches_block_step_oracle(scheme, split_f2_explicit):
    system, tg, _, traj = logarithmic_run(scheme, split_f2_explicit)
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    adj = solve_adjoint(system, tg, traj, spec)
    for num, ref in zip((adj.q, adj.p, adj.r), block_step_adjoint(system, tg, traj, spec)):
        assert np.max(np.abs(num - ref)) <= 1e-9 * np.max(np.abs(ref))


def assert_adjoint_steps_backward_stable(system, tg, traj):
    """Every backward step solves J* x = b to a backward error of at most 10 u,
    where J* = W^{-1} J^T W is the adjoint, in the grid inner product with
    weights W, of the stacked forward step matrix at the node's coefficients."""
    N = system.n_points
    spec = _zero_spec(tg.n_steps, N, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
    adj = solve_adjoint(system, tg, traj, spec)
    data = build_adjoint_data(traj, spec)
    w = np.tile(system.grid.weights, 3)
    P_fun, dt = system.proliferation, tg.dt
    for k in range(tg.n_steps):
        phi = traj.phi[k]
        J = dense_step_matrix(system, dt, P_fun(phi), system.potential.df(phi),
                              P_fun.d1(phi) * (traj.S[k] - traj.mu[k]))
        b = np.concatenate([np.zeros(N), data.g1[k] + (adj.q[k + 1] + adj.p[k + 1]) / dt,
                            data.g3[k] + adj.r[k + 1] / dt])
        sol = np.concatenate([adj.q[k], adj.p[k], adj.r[k]])
        assert backward_error(J.T * w / w[:, None], sol, b) <= 10 * U


@pytest.mark.parametrize("n_points", [32, 128, 256])
def test_adjoint_steps_solve_dense_oracle(n_points):
    system, tg, _, traj = logarithmic_run(FULLY_IMPLICIT, False, n_steps=5,
                                          n_points=n_points)
    assert_adjoint_steps_backward_stable(system, tg, traj)


def test_adjoint_steps_solve_dense_oracle_on_graded_grid():
    # non-uniform weights make the operator matrices self-adjoint in the grid
    # inner product but not symmetric, so J* differs from J^T
    N, L = 12, math.pi
    edges = L * np.linspace(0.0, 1.0, N + 1) ** 1.5
    grid = QuadratureGrid(0.5 * (edges[1:] + edges[:-1]), np.diff(edges), L)
    dirichlet = 2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
    neumann = dirichlet.copy()
    neumann[0, 0] = neumann[-1, -1] = 1.0

    def power(M, exponent):
        lam, vecs = eigh(M, np.diag(grid.weights))
        return FractionalPower(SpectralBasis(np.maximum(lam, 0.0), vecs, grid), exponent)

    system = TumorSystem(grid, power(dirichlet, 1.0), power(neumann, 1.2),
                         power(neumann, 1.0), Potential.logarithmic(c1=2.0),
                         Proliferation(p0=2.0, p1=0.5))
    assert not np.allclose(system.MA, system.MA.T)
    x = grid.points
    tg = TimeGrid(0.005, 5)
    u = np.broadcast_to(1.0 + 0.5 * np.cos(x), (tg.n_steps, N))
    traj = solve_forward(system, tg, u, 0.8 * np.sin(x), 2.0 + 0.5 * np.cos(x),
                         SolverConfig(scheme=FULLY_IMPLICIT))
    assert_adjoint_steps_backward_stable(system, tg, traj)


def test_singular_adjoint_step_names_the_node(monkeypatch, generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    spec = _zero_spec(tg.n_steps, system.n_points, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))

    # the step's own factorization meets an exactly singular matrix
    N = system.n_points
    monkeypatch.setattr(StepOperator, "matrix", lambda self, P, D, df: np.zeros((N, N)))
    with pytest.raises(DegenerateSystemError,
                       match=f"singular adjoint step matrix at node {tg.n_steps - 1}$"):
        solve_adjoint(system, tg, traj, spec)
