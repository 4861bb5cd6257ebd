"""Linearized solves along a stored state trajectory and the derivative probe.

The linearized step is the exact derivative of the discrete forward step for
the trajectory's scheme, so the directional-derivative remainder measured by
the probe is purely quadratic in the perturbation size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError
from .state import (SEMI_IMPLICIT_P, SolverConfig, StateTrajectory, StepOperator,
                    TimeGrid, _step_residuals, solve_forward)
from .system import TumorSystem

PROBE_SCALES = np.logspace(-1, -4, 4)  # the perturbation sizes eps of the remainder probe


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
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    dt = time_grid.dt
    pot, P_fun = system.potential, system.proliferation
    semi, split = traj.scheme == SEMI_IMPLICIT_P, traj.split_f2_explicit

    eta, xi, zeta = (np.zeros((n + 1, N)) for _ in range(3))
    op = StepOperator(system, dt)
    for k in range(1, n + 1):
        phi_new, phi_old, xi_old = traj.phi[k], traj.phi[k - 1], xi[k - 1]
        prev, h_k = (0.0, xi_old, zeta[k - 1]), h[k - 1]
        drive = traj.S[k] - traj.mu[k]
        df_new = pot.df1(phi_new) if split else pot.df(phi_new)
        # the split scheme's f2 is explicit; the semi-implicit P(phi_old) is carried
        f_old = pot.df2(phi_old) * xi_old if split else 0.0
        P = P_fun(phi_old) if semi else P_fun(phi_new)
        D = 0.0 if semi else P_fun.d1(phi_new) * drive
        carried = P_fun.d1(phi_old) * xi_old * drive if semi else 0.0

        def residual(x):  # the forward step residual, linearized, at x = (eta, xi, zeta)
            x_mu, x_phi, x_S = x
            react = P * (x_S - x_mu) + (carried if semi else D * x_phi)
            return _step_residuals(system, dt, prev, x, h_k, react, df_new * x_phi + f_old)

        try:
            eta[k], xi[k], zeta[k] = op.solve_refined(P, D, df_new, residual)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(f"singular linearized step matrix at step {k}") from exc

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
    Bxi = system.op_B.half.apply(xi)
    graph_B = np.sqrt(np.sum(w * xi * xi, axis=1) + np.sum(w * Bxi * Bxi, axis=1))
    norm_xi = float(h1_part + np.max(graph_B))

    sup_part = float(np.max(np.sqrt(np.sum(w * zeta * zeta, axis=1))))
    Cz = system.op_C.half.apply(zeta[1:])
    l2_graph = np.sqrt(
        dt * np.sum(w * zeta[1:] * zeta[1:]) + dt * np.sum(w * Cz * Cz)
    )
    norm_zeta = sup_part + float(l2_graph)
    return norm_xi + norm_zeta


def frechet_remainder_probe(system: TumorSystem, time_grid: TimeGrid,
                            u_bar: np.ndarray, h: np.ndarray,
                            phi0: np.ndarray, S0: np.ndarray,
                            cfg: SolverConfig | None = None):
    """Remainder ||S(u+eps*h) - S(u) - eps*(xi,zeta)||_Y over a sweep of eps.

    Returns (eps_array, remainders, fitted log-log slope).
    """
    h = np.asarray(h, dtype=float)
    if not np.any(h):
        raise ValueError("zero variation direction is degenerate")
    cfg = cfg or SolverConfig()

    base = solve_forward(system, time_grid, u_bar, phi0, S0, cfg)
    lin = solve_linearized(system, time_grid, base, h)

    def remainder(eps):  # a perturbed run lives only while its remainder is formed
        pert = solve_forward(system, time_grid, u_bar + eps * h, phi0, S0, cfg)
        return y_norm(system, time_grid, pert.phi - base.phi - eps * lin.xi,
                      pert.S - base.S - eps * lin.zeta)

    remainders = np.array([remainder(eps) for eps in PROBE_SCALES])
    slope = float(np.polyfit(np.log(PROBE_SCALES), np.log(remainders), 1)[0])
    return PROBE_SCALES.copy(), remainders, slope
