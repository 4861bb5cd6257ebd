from dataclasses import replace

import numpy as np
import pytest

from tumorctrl import (ControlProblemSpec, OptimizerOptions, SolverConfig,
                       TimeGrid, control_inner, control_norm, cost_eval,
                       fd_gradient_check, project_admissible,
                       projected_gradient_descent, reduced_gradient,
                       sample_variational_inequality, solve_adjoint,
                       solve_forward, solve_linearized, stationarity_residual)
from tumorctrl.verify import _zero_spec

from conftest import build_system


@pytest.fixture(scope="module")
def setup():
    system = build_system()
    tg = TimeGrid(0.2, 100)
    x = system.grid.points
    phi0 = 0.3 * np.sin(x)
    S0 = 0.4 + 0.1 * np.cos(x)
    spec = _zero_spec(tg.n_steps, system.n_points,
                      kappas=(1.0, 0.5, 1.0, 0.5, 1.0), u_min=-2.0, u_max=2.0)
    u = 0.2 * np.ones((tg.n_steps, system.n_points))
    traj = solve_forward(system, tg, u, phi0, S0)
    return system, tg, u, phi0, S0, spec, traj


def test_cost_zero_at_targets(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    matched = ControlProblemSpec(
        kappas=spec.kappas, phi_Q=traj.phi, S_Q=traj.S,
        phi_Omega=traj.phi[-1], S_Omega=traj.S[-1],
        u_min=spec.u_min, u_max=spec.u_max)
    J = cost_eval(system, tg, np.zeros_like(u), traj, matched)
    assert J <= 1e-14


def test_cost_control_term_quadrature(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    only_u = ControlProblemSpec(
        kappas=(0, 0, 0, 0, 2.0), phi_Q=spec.phi_Q, S_Q=spec.S_Q,
        phi_Omega=spec.phi_Omega, S_Omega=spec.S_Omega,
        u_min=spec.u_min, u_max=spec.u_max)
    J = cost_eval(system, tg, u, traj, only_u)
    # 0.5 * 2 * ||0.2||^2 over (0, T) x (0, pi)
    expected = 0.04 * tg.T * np.pi
    assert abs(J - expected) <= 1e-12


def _poisoned(a, value):
    a = np.array(a, dtype=float)
    a.flat[a.size // 2] = value
    return a


@pytest.mark.parametrize("case", ["h_nan", "phi_Q_inf", "u_nan", "kappa_nan",
                                  "u_max_nan", "bounds_inf"])
def test_non_finite_data_rejected(setup, case):
    system, tg, u, phi0, S0, spec, traj = setup
    if case == "bounds_inf":  # infinite bounds are valid: the control is free
        free = replace(spec, u_min=-np.inf, u_max=np.inf)
        assert np.array_equal(project_admissible(10.0 * u, free), 10.0 * u)
        assert np.isfinite(cost_eval(system, tg, u, traj, free))
        return
    bad = {
        "h_nan": lambda: solve_linearized(system, tg, traj, _poisoned(u, np.nan)),
        "phi_Q_inf": lambda: solve_adjoint(
            system, tg, traj, replace(spec, phi_Q=_poisoned(spec.phi_Q, np.inf))),
        "u_nan": lambda: cost_eval(system, tg, _poisoned(u, np.nan), traj, spec),
        "kappa_nan": lambda: replace(spec, kappas=_poisoned(spec.kappas, np.nan)),
        "u_max_nan": lambda: replace(spec, u_max=_poisoned(spec.u_max, np.nan)),
    }[case]
    with pytest.raises(ValueError):
        bad()


def test_project_admissible_clamps(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    v = np.array([[-5.0, 0.3, 7.0]])
    small = _zero_spec(1, 3, u_min=-2.0, u_max=2.0)
    out = project_admissible(v, small)
    assert np.allclose(out, [[-2.0, 0.3, 2.0]])


def test_control_norm_inner_consistency(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    rng = np.random.default_rng(2)
    a = rng.standard_normal(u.shape)
    b = rng.standard_normal(u.shape)
    assert abs(control_inner(system, tg, a, b)
               - control_inner(system, tg, b, a)) <= 1e-12
    assert abs(control_norm(system, tg, a) ** 2
               - control_inner(system, tg, a, a)) <= 1e-10


def test_gradient_matches_finite_differences(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    rng = np.random.default_rng(3)
    h = rng.standard_normal(u.shape)
    eps, errors = fd_gradient_check(system, tg, u, h, phi0, S0, spec)
    assert errors[np.argmin(np.abs(eps - 1e-3))] <= 1e-2


def test_gradient_exact_for_control_only_cost(setup):
    # with kappa5 the only nonzero weight, the reduced cost is a quadratic
    # in u whose gradient the adjoint reproduces to roundoff
    system, tg, u, phi0, S0, spec, traj = setup
    quad = _zero_spec(tg.n_steps, system.n_points, kappas=(0, 0, 0, 0, 1.0))
    rng = np.random.default_rng(6)
    h = rng.standard_normal(u.shape)
    eps, errors = fd_gradient_check(system, tg, u, h, phi0, S0, quad,
                                    eps_list=(1e-3,))
    assert errors[0] <= 1e-8


def test_gradient_gap_shrinks_with_dt():
    # the continuous-adjoint gradient gap is first order in the step size
    system = build_system()
    x = system.grid.points
    phi0, S0 = 0.3 * np.sin(x), 0.4 + 0.1 * np.cos(x)
    rng = np.random.default_rng(8)
    gaps = []
    for n in (100, 200):
        tg = TimeGrid(0.2, n)
        u = 0.2 * np.ones((n, system.n_points))
        h = np.outer(np.sin(tg.times[1:] * 5.0) + 1.1, np.cos(x))
        spec = _zero_spec(n, system.n_points, kappas=(1.0, 0.5, 1.0, 0.5, 1.0))
        eps, errors = fd_gradient_check(system, tg, u, h, phi0, S0, spec,
                                        eps_list=(1e-3,),
                                        cfg=SolverConfig(newton_tol=1e-12))
        gaps.append(errors[0])
    rate = np.log2(gaps[0] / gaps[1])
    assert 0.8 <= rate <= 1.2


def test_zero_probe_direction_rejected(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    with pytest.raises(ValueError):
        fd_gradient_check(system, tg, u, np.zeros_like(u), phi0, S0, spec)


def test_stationarity_zero_at_clamped_solution(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    adj = solve_adjoint(system, tg, traj, spec)
    u_star = project_admissible(-adj.r[1:] / spec.kappas[4], spec)
    assert stationarity_residual(system, tg, u_star, adj, spec) <= 1e-14
    assert stationarity_residual(system, tg, u, adj, spec) > 1e-3


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(step0=-1.0)
    with pytest.raises(ValueError):
        OptimizerOptions(armijo_c=1.5)


def test_projected_gradient_converges_on_quadratic(setup):
    # control-only cost: unique minimizer u = 0, reachable in one exact step
    system, tg, u, phi0, S0, spec, traj = setup
    quad = _zero_spec(tg.n_steps, system.n_points, kappas=(0, 0, 0, 0, 1.0),
                      u_min=-2.0, u_max=2.0)
    opts = OptimizerOptions(tol=1e-8, max_iters=50)
    report = projected_gradient_descent(system, tg, u, phi0, S0, quad, opts)
    assert report.status == "converged"
    assert control_norm(system, tg, report.u_final) <= 1e-7
    assert report.costs[-1] <= report.costs[0]
    assert np.all(np.diff(report.costs) <= 0)


def test_projected_gradient_descends_on_tracking(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    opts = OptimizerOptions(tol=1e-10, max_iters=5)
    report = projected_gradient_descent(system, tg, u, phi0, S0, spec, opts)
    assert report.status in ("max_iters", "converged")
    assert report.costs[-1] < report.costs[0]
    assert np.all(np.diff(report.costs) <= 0)
    # iterates stay inside the box
    assert np.all(report.u_final >= -2.0 - 1e-15)
    assert np.all(report.u_final <= 2.0 + 1e-15)
    # Armijo condition held on every accepted step
    for k, (gamma, gn) in enumerate(zip(report.step_sizes,
                                        report.gradient_norms)):
        assert report.costs[k + 1] <= report.costs[k] - 1e-4 * gamma * gn**2 + 1e-14


def test_report_ends_on_the_returned_control(setup):
    # a run cut by max_iters reports the stationarity of the control it returns
    system, tg, u, phi0, S0, spec, traj = setup
    report = projected_gradient_descent(system, tg, u, phi0, S0, spec,
                                        OptimizerOptions(tol=1e-12, max_iters=2))
    assert report.status == "max_iters"
    assert report.n_iterations == 2
    for entries in (report.costs, report.gradient_norms, report.stationarity):
        assert len(entries) == report.n_iterations + 1
    assert report.stationarity[-1] == stationarity_residual(
        system, tg, report.u_final, report.adjoint_final, spec)


def test_stationary_start_converges_without_steps(setup):
    # u = 0 minimizes the control-only cost, where the adjoint vanishes
    system, tg, u, phi0, S0, spec, traj = setup
    quad = _zero_spec(tg.n_steps, system.n_points, kappas=(0, 0, 0, 0, 1.0))
    report = projected_gradient_descent(system, tg, np.zeros_like(u), phi0, S0, quad,
                                        OptimizerOptions(tol=1e-8, max_iters=0))
    assert report.status == "converged"
    assert report.n_iterations == 0
    assert report.stationarity == [0.0]


def test_variational_inequality_at_optimum(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    quad = _zero_spec(tg.n_steps, system.n_points, kappas=(0, 0, 0, 0, 1.0),
                      u_min=-2.0, u_max=2.0)
    report = projected_gradient_descent(
        system, tg, u, phi0, S0, quad, OptimizerOptions(tol=1e-10))
    vals = sample_variational_inequality(
        system, tg, report.u_final, report.adjoint_final, quad,
        n_samples=100, rng=np.random.default_rng(12))
    assert np.all(vals >= -1e-6)


def test_gradient_shape_guard(setup):
    system, tg, u, phi0, S0, spec, traj = setup
    adj = solve_adjoint(system, tg, traj, spec)
    with pytest.raises(ValueError):
        reduced_gradient(np.ones((tg.n_steps + 2, system.n_points)), adj, spec)
