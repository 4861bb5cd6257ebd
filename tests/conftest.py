import math

import numpy as np
import pytest

from tumorctrl import (FractionalPower, Potential, Proliferation, TumorSystem,
                       build_basis, midpoint_grid, reference)


def build_system(n_points=16, L=math.pi, rho=0.5, sigma=0.6, tau=0.5,
                 potential=None, proliferation=None):
    grid = midpoint_grid(n_points, L)
    return TumorSystem(
        grid=grid,
        op_A=FractionalPower(build_basis("dirichlet_laplace", grid), 2 * rho),
        op_B=FractionalPower(build_basis("neumann_laplace", grid), 2 * sigma),
        op_C=FractionalPower(build_basis("neumann_laplace", grid), 2 * tau),
        potential=potential or Potential.regular(),
        proliferation=proliferation or Proliferation(),
    )


def single_mode_system(proliferation=None):
    """The single-mode system with operators 1.2, 0.9, 0.7 and the regular potential."""
    return reference.single_mode_system(1.2, 0.9, 0.7, Potential.regular(),
                                        proliferation or Proliferation())


@pytest.fixture(scope="session")
def small_system():
    return build_system()


@pytest.fixture(scope="session")
def generic_run(small_system):
    """A converged moderate forward run shared by several test modules."""
    from tumorctrl import TimeGrid, solve_forward

    system = small_system
    x = system.grid.points
    tg = TimeGrid(0.2, 100)
    phi0 = 0.3 * np.sin(x)
    S0 = 0.4 + 0.1 * np.cos(x)
    u = 0.2 * np.ones((tg.n_steps, system.n_points))
    traj = solve_forward(system, tg, u, phi0, S0)
    return system, tg, u, phi0, S0, traj


def logarithmic_run(scheme, split_f2_explicit, n_steps=50, n_points=16):
    """A forward run with the logarithmic potential, P' != 0 and phi beyond the
    potential's convex threshold, so every coupling and both parts of f are live."""
    from tumorctrl import SolverConfig, TimeGrid, solve_forward

    system = build_system(n_points=n_points, potential=Potential.logarithmic(c1=2.0),
                          proliferation=Proliferation(p0=2.0, p1=0.5))
    x = system.grid.points
    tg = TimeGrid(0.001 * n_steps, n_steps)
    u = np.broadcast_to(1.0 + 0.5 * np.cos(x), (n_steps, system.n_points))
    cfg = SolverConfig(scheme=scheme, split_f2_explicit=split_f2_explicit)
    traj = solve_forward(system, tg, u, 0.8 * np.sin(x), 2.0 + 0.5 * np.cos(x), cfg)
    return system, tg, u, traj


def dense_step_matrix(system, dt, P, df, D=0.0):
    """The stacked 3N x 3N implicit Euler step matrix in (mu, phi, S), assembled
    block by block: the oracle for ``state.StepOperator``."""
    N = system.n_points
    I_dt = np.eye(N) / dt
    D = np.broadcast_to(D, (N,))
    return np.block([
        [system.MA + np.diag(P), I_dt - np.diag(D), -np.diag(P)],
        [-np.eye(N), I_dt + system.MB + np.diag(df), np.zeros((N, N))],
        [-np.diag(P), np.diag(D), I_dt + system.MC + np.diag(P)],
    ])


def backward_error(J, x, b):
    """Normwise backward error ||b - J x|| / (||J|| ||x|| + ||b||) in the max norm."""
    r = b - J @ x
    return np.linalg.norm(r, np.inf) / (np.linalg.norm(J, np.inf) * np.linalg.norm(x, np.inf)
                                        + np.linalg.norm(b, np.inf))


def grid_norm(grid, v):
    """L2 norm of grid values v in the grid quadrature."""
    return float(np.sqrt(np.sum(grid.weights * v**2)))
