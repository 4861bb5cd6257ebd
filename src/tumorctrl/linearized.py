"""Linearized solves along a stored state trajectory and the derivative probe.

The linearized step is the exact derivative of the discrete forward step for
the trajectory's scheme, so the directional-derivative remainder measured by
the probe is purely quadratic in the perturbation size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError
from .state import (SEMI_IMPLICIT_P, SolverConfig, StateTrajectory, TimeGrid,
                    make_step_matrix, solve_forward)
from .system import TumorSystem


@dataclass(frozen=True)
class LinearizedTrajectory:
    eta: np.ndarray  # shape (n_steps + 1, n_points)
    xi: np.ndarray
    zeta: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.eta.shape[0] - 1


def solve_linearized(system: TumorSystem, time_grid: TimeGrid,
                     traj: StateTrajectory, h: np.ndarray) -> LinearizedTrajectory:
    """Solve the linearized system for the control variation h (nodes t_1..t_n).

    The scheme and the potential splitting are the trajectory's own.
    """
    n, N = time_grid.n_steps, system.n_points
    if traj.n_steps != n:
        raise ValueError("trajectory and time grid disagree on the step count")
    h = np.broadcast_to(np.asarray(h, dtype=float), (n, N))
    dt = time_grid.dt
    pot, P_fun = system.potential, system.proliferation
    semi = traj.scheme == SEMI_IMPLICIT_P

    eta = np.zeros((n + 1, N))
    xi = np.zeros((n + 1, N))
    zeta = np.zeros((n + 1, N))

    step_matrix = make_step_matrix(system, dt)

    for k in range(1, n + 1):
        phi_new, phi_old = traj.phi[k], traj.phi[k - 1]
        drive = traj.S[k] - traj.mu[k]
        Pv = P_fun(phi_old) if semi else P_fun(phi_new)
        if traj.split_f2_explicit:
            df_new = pot.df1(phi_new)
            df_old_expl = pot.df2(phi_old)
        else:
            df_new = pot.df(phi_new)
            df_old_expl = np.zeros(N)

        J = step_matrix(Pv, df_new, None if semi else P_fun.d1(phi_new) * drive)

        rhs1 = xi[k - 1] / dt
        rhs2 = xi[k - 1] / dt - df_old_expl * xi[k - 1]
        rhs3 = zeta[k - 1] / dt + h[k - 1]
        if semi:
            carried = P_fun.d1(phi_old) * xi[k - 1] * drive
            rhs1 = rhs1 + carried
            rhs3 = rhs3 - carried

        try:
            sol = np.linalg.solve(J, np.concatenate([rhs1, rhs2, rhs3]))
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(f"singular linearized step matrix at step {k}") from exc
        eta[k] = sol[0:N]
        xi[k] = sol[N:2 * N]
        zeta[k] = sol[2 * N:]

    return LinearizedTrajectory(eta=eta, xi=xi, zeta=zeta)


def y_norm(system: TumorSystem, time_grid: TimeGrid,
           xi: np.ndarray, zeta: np.ndarray) -> float:
    """Discrete norm of Y = [H1(0,T;H) cap Linf(0,T;V_B)] x [C0([0,T];H) cap L2(0,T;V_C)].

    H1 part by difference quotients, sup parts by node maxima, L2 parts by
    step quadrature at the implicit nodes; the two component norms add.
    """
    w = system.grid.weights
    dt = time_grid.dt

    dxi = (xi[1:] - xi[:-1]) / dt
    h1_part = np.sqrt(dt * np.sum(w * dxi * dxi))
    Bxi = xi @ system.MB_half.T
    graph_B = np.sqrt(np.sum(w * xi * xi, axis=1) + np.sum(w * Bxi * Bxi, axis=1))
    norm_xi = float(h1_part + np.max(graph_B))

    sup_part = float(np.max(np.sqrt(np.sum(w * zeta * zeta, axis=1))))
    Cz = zeta[1:] @ system.MC_half.T
    l2_graph = np.sqrt(
        dt * np.sum(w * zeta[1:] * zeta[1:]) + dt * np.sum(w * Cz * Cz)
    )
    norm_zeta = sup_part + float(l2_graph)
    return norm_xi + norm_zeta


def frechet_remainder_probe(system: TumorSystem, time_grid: TimeGrid,
                            u_bar: np.ndarray, h: np.ndarray,
                            phi0: np.ndarray, S0: np.ndarray,
                            scales=None, cfg: SolverConfig | None = None):
    """Remainder ||S(u+eps*h) - S(u) - eps*(xi,zeta)||_Y over a sweep of eps.

    Returns (eps_array, remainders, fitted log-log slope).
    """
    if scales is None:
        scales = np.logspace(-1, -4, 4)
    scales = np.asarray(scales, dtype=float)
    h = np.asarray(h, dtype=float)
    if not np.any(h):
        raise ValueError("zero variation direction is degenerate")
    cfg = cfg or SolverConfig()

    base = solve_forward(system, time_grid, u_bar, phi0, S0, cfg)
    lin = solve_linearized(system, time_grid, base, h)

    remainders = np.empty(scales.size)
    for i, eps in enumerate(scales):
        pert = solve_forward(system, time_grid, u_bar + eps * h, phi0, S0, cfg)
        rem_xi = pert.phi - base.phi - eps * lin.xi
        rem_zeta = pert.S - base.S - eps * lin.zeta
        remainders[i] = y_norm(system, time_grid, rem_xi, rem_zeta)
    slope = float(np.polyfit(np.log(scales), np.log(remainders), 1)[0])
    return scales, remainders, slope
