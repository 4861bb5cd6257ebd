import math

import numpy as np
import pytest

from tumorctrl import (FULLY_IMPLICIT, SEMI_IMPLICIT_P, DegenerateSystemError,
                       Proliferation, SolverConfig, TimeGrid, frechet_remainder_probe,
                       solve_forward, solve_linearized, y_norm)
from tumorctrl.verify import smooth_probe_controls

from conftest import (backward_error, build_system, dense_step_matrix, logarithmic_run,
                      single_mode_system)

U = np.finfo(float).eps / 2


def test_zero_direction_gives_zero(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    lin = solve_linearized(system, tg, traj, np.zeros((tg.n_steps, system.n_points)))
    assert not np.any(lin.eta)
    assert not np.any(lin.xi)
    assert not np.any(lin.zeta)


def test_linearity_in_direction(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    rng = np.random.default_rng(0)
    h1 = rng.standard_normal((tg.n_steps, system.n_points))
    h2 = rng.standard_normal((tg.n_steps, system.n_points))
    a, b = 1.7, -0.4
    lin1 = solve_linearized(system, tg, traj, h1)
    lin2 = solve_linearized(system, tg, traj, h2)
    lin12 = solve_linearized(system, tg, traj, a * h1 + b * h2)
    for comb, parts in ((lin12.xi, (lin1.xi, lin2.xi)),
                        (lin12.zeta, (lin1.zeta, lin2.zeta)),
                        (lin12.eta, (lin1.eta, lin2.eta))):
        expected = a * parts[0] + b * parts[1]
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(comb - expected)) <= 1e-9 * scale


def test_step_count_mismatch_rejected(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    with pytest.raises(ValueError):
        solve_linearized(system, TimeGrid(tg.T, tg.n_steps + 1), traj,
                         np.zeros((tg.n_steps + 1, system.n_points)))


def test_single_mode_linearized_matches_rk4():
    system, red = single_mode_system()
    T, n = 0.5, 500
    tg = TimeGrid(T, n)
    u_fn = lambda t: 0.3 * math.cos(2.0 * t)
    h_fn = lambda t: np.sin(t) + 0.5
    u = np.array([[u_fn(t)] for t in tg.times[1:]])
    h = np.array([[h_fn(t)] for t in tg.times[1:]])
    cfg = SolverConfig(scheme=FULLY_IMPLICIT, newton_tol=1e-12)
    traj = solve_forward(system, tg, u, np.array([0.2]), np.array([0.4]), cfg)
    lin = solve_linearized(system, tg, traj, h)
    ref_state = red.solve_state(0.2, 0.4, u_fn, T)
    ref_t, ref_eta, ref_xi, ref_zeta = red.solve_linearized(ref_state, h_fn, T)
    for num, ref in ((lin.eta[:, 0], ref_eta), (lin.xi[:, 0], ref_xi),
                     (lin.zeta[:, 0], ref_zeta)):
        ref_nodes = np.interp(tg.times, ref_t, ref)
        rel = np.max(np.abs(num - ref_nodes)) / max(np.max(np.abs(ref_nodes)), 1e-12)
        assert rel <= 2e-2


@pytest.mark.parametrize("split_f2_explicit", [False, True])
@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT_P, FULLY_IMPLICIT])
def test_finite_difference_of_forward_map(scheme, split_f2_explicit):
    # the linearized solve is the exact derivative of the discrete step, so a
    # centered difference of the forward map converges to it.  The run couples
    # strongly (P = (2.0, 0.5), phi near +-0.8, so P', D and both parts of f
    # are live): a dropped or sign-flipped coupling moves xi by 0.5% or more.
    # Newton stops the step residual, which scales like 1/dt, under newton_tol,
    # so its noise in the difference is about dt * newton_tol / eps = 1e-13.
    system, tg, u, traj = logarithmic_run(scheme, split_f2_explicit)
    h = np.random.default_rng(4).standard_normal(u.shape)
    lin = solve_linearized(system, tg, traj, h)
    eps = 1e-3
    cfg = SolverConfig(scheme=scheme, split_f2_explicit=split_f2_explicit, newton_tol=1e-13)
    plus, minus = (solve_forward(system, tg, u + s * eps * h, traj.phi[0], traj.S[0], cfg)
                   for s in (1.0, -1.0))
    for fd, exact in (((plus.phi - minus.phi) / (2 * eps), lin.xi),
                      ((plus.S - minus.S) / (2 * eps), lin.zeta)):
        assert np.max(np.abs(fd - exact)) <= 1e-6 * np.max(np.abs(exact))


def assert_linearized_steps_backward_stable(system, tg, traj):
    # every step of the linearized solve, as the stacked system derived from
    # the discrete step
    h = np.random.default_rng(3).standard_normal((tg.n_steps, system.n_points))
    lin = solve_linearized(system, tg, traj, h)
    pot, P_fun, dt = system.potential, system.proliferation, tg.dt
    semi, split_f2_explicit = traj.scheme == SEMI_IMPLICIT_P, traj.split_f2_explicit
    for k in range(1, tg.n_steps + 1):
        phi_star = traj.phi[k - 1] if semi else traj.phi[k]
        dP_drive = P_fun.d1(phi_star) * (traj.S[k] - traj.mu[k])
        df = pot.df1(traj.phi[k]) if split_f2_explicit else pot.df(traj.phi[k])
        J = dense_step_matrix(system, dt, P_fun(phi_star), df, 0.0 if semi else dP_drive)
        xi, zeta = lin.xi[k - 1], lin.zeta[k - 1]
        carried = dP_drive * xi if semi else 0.0
        explicit = pot.df2(traj.phi[k - 1]) * xi if split_f2_explicit else 0.0
        b = np.concatenate([xi / dt + carried, xi / dt - explicit,
                            zeta / dt + h[k - 1] - carried])
        sol = np.concatenate([lin.eta[k], lin.xi[k], lin.zeta[k]])
        assert backward_error(J, sol, b) <= 10 * U


@pytest.mark.parametrize("split_f2_explicit", [False, True])
@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT_P, FULLY_IMPLICIT])
def test_linearized_steps_solve_dense_oracle(scheme, split_f2_explicit):
    system, tg, _, traj = logarithmic_run(scheme, split_f2_explicit)
    assert_linearized_steps_backward_stable(system, tg, traj)


@pytest.mark.parametrize("n_points", [128, 256])
def test_linearized_steps_solve_dense_oracle_at_large_n(n_points):
    # the bare elimination is not backward stable once N is large: this is
    # where the refinement sweep of the shared refined solve is needed
    system, tg, _, traj = logarithmic_run(FULLY_IMPLICIT, False, n_steps=5,
                                          n_points=n_points)
    assert_linearized_steps_backward_stable(system, tg, traj)


def test_singular_linearized_step_names_the_step(monkeypatch, generic_run):
    system, tg, u, phi0, S0, traj = generic_run

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(DegenerateSystemError,
                       match="singular linearized step matrix at step 1$"):
        solve_linearized(system, tg, traj, u)


def test_y_norm_properties(small_system):
    tg = TimeGrid(0.2, 50)
    shape = (tg.n_steps + 1, small_system.n_points)
    zeros = np.zeros(shape)
    assert y_norm(small_system, tg, zeros, zeros) == 0.0
    rng = np.random.default_rng(9)
    xi = rng.standard_normal(shape)
    zeta = rng.standard_normal(shape)
    val = y_norm(small_system, tg, xi, zeta)
    assert val > 0
    assert abs(y_norm(small_system, tg, 2 * xi, 2 * zeta) - 2 * val) <= 1e-10 * val


def test_probe_rejects_zero_direction(generic_run):
    system, tg, u, phi0, S0, traj = generic_run
    with pytest.raises(ValueError):
        frechet_remainder_probe(system, tg, u, np.zeros_like(u), phi0, S0)


def test_frechet_slope_quadratic():
    system = build_system(n_points=32,
                          proliferation=Proliferation(p0=2.0, p1=0.5))
    tg = TimeGrid(1.0, 500)
    x = system.grid.points
    rng = np.random.default_rng(17)
    u_bar, h = smooth_probe_controls(tg, x, system.grid.L, rng)
    phi0 = 0.8 * np.sin(x)
    S0 = 2.0 + 0.5 * np.cos(x)
    cfg = SolverConfig(scheme=FULLY_IMPLICIT, newton_tol=1e-12)
    scales, remainders, slope = frechet_remainder_probe(
        system, tg, u_bar, h, phi0, S0, cfg=cfg)
    assert 1.8 <= slope <= 2.2
    # each decade in eps buys two decades in the remainder
    ratios = remainders[:-1] / remainders[1:]
    assert np.all(ratios > 30.0)
