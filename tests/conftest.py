import math

import numpy as np
import pytest

from tumorctrl import (FractionalPower, Potential, Proliferation, TumorSystem,
                       build_basis, midpoint_grid, reference)


def build_system(n_points=16, L=math.pi, rho=0.5, sigma=0.6, tau=0.5,
                 potential=None, proliferation=None, n_modes=None):
    grid = midpoint_grid(n_points, L)
    n_modes = n_modes or n_points
    return TumorSystem(
        grid=grid,
        op_A=FractionalPower(build_basis("dirichlet_laplace", n_modes, grid), 2 * rho),
        op_B=FractionalPower(build_basis("neumann_laplace", n_modes, grid), 2 * sigma),
        op_C=FractionalPower(build_basis("neumann_laplace", n_modes, grid), 2 * tau),
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
