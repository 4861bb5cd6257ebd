"""Tracking cost, reduced gradient, and projected-gradient optimization.

The reduced cost J~(u) = J(u, S(u)) is minimized over the box of admissible
controls.  Its gradient has the Riesz representative r + kappa5 * u, where r
is the third adjoint variable; stationary points satisfy the pointwise
projection formula u = clamp(-r / kappa5, u_min, u_max).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint
from .problem import ControlProblemSpec
from .state import SolverConfig, StateTrajectory, TimeGrid, solve_forward
from .system import TumorSystem

MAX_BACKTRACKS = 50  # step reductions per Armijo search before it reports a stall


def cost_eval(system: TumorSystem, time_grid: TimeGrid, u: np.ndarray,
              traj: StateTrajectory, spec: ControlProblemSpec) -> float:
    """Five-term tracking cost.

    Space-time integrals use the grid quadrature in space and the
    left-endpoint rule in time for the tracking terms; the control term sums
    over the steps the piecewise-constant control actually covers.
    """
    n, N = time_grid.n_steps, system.n_points
    if traj.n_steps != n:
        raise ValueError("trajectory and time grid disagree on the step count")
    u = np.broadcast_to(np.asarray(u, dtype=float), (n, N))
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    w = system.grid.weights
    k1, k2, k3, k4, k5 = spec.kappas

    phi_gap = traj.phi - spec.phi_Q
    S_gap = traj.S - spec.S_Q
    phiT_gap = traj.phi[-1] - spec.phi_Omega
    ST_gap = traj.S[-1] - spec.S_Omega
    return (
        0.5 * k1 * control_inner(system, time_grid, phi_gap[:-1], phi_gap[:-1])
        + 0.5 * k2 * float(np.sum(w * phiT_gap * phiT_gap))
        + 0.5 * k3 * control_inner(system, time_grid, S_gap[:-1], S_gap[:-1])
        + 0.5 * k4 * float(np.sum(w * ST_gap * ST_gap))
        + 0.5 * k5 * control_inner(system, time_grid, u, u)
    )


def project_admissible(u: np.ndarray, spec: ControlProblemSpec) -> np.ndarray:
    return np.minimum(spec.u_max, np.maximum(spec.u_min, u))


def reduced_gradient(u: np.ndarray, adj: AdjointTrajectory,
                     spec: ControlProblemSpec) -> np.ndarray:
    """Gradient representative r + kappa5 u on the control's step nodes."""
    r_steps = adj.r[1:]
    if np.broadcast_shapes(np.shape(u), r_steps.shape) != r_steps.shape:
        raise ValueError("control and adjoint live on different grids")
    return r_steps + spec.kappas[4] * np.asarray(u, dtype=float)


def control_inner(system: TumorSystem, time_grid: TimeGrid,
                  a: np.ndarray, b: np.ndarray) -> float:
    """L2(Q) pairing of two step-wise control fields."""
    return float(time_grid.dt * np.sum(system.grid.weights * a * b))


def control_norm(system: TumorSystem, time_grid: TimeGrid, a: np.ndarray) -> float:
    return float(np.sqrt(control_inner(system, time_grid, a, a)))


def stationarity_residual(system: TumorSystem, time_grid: TimeGrid,
                          u: np.ndarray, adj: AdjointTrajectory,
                          spec: ControlProblemSpec) -> float:
    """L2(Q) violation of the first-order optimality characterization.

    For kappa5 > 0 this is ||u - clamp(-r/kappa5)||; for kappa5 = 0 the
    projected fixed-point residual ||u - clamp(u - grad)|| with unit step.
    """
    k5 = spec.kappas[4]
    r_steps = adj.r[1:]
    if k5 > 0.0:
        target = project_admissible(-r_steps / k5, spec)
    else:
        target = project_admissible(u - r_steps, spec)
    return control_norm(system, time_grid, u - target)


def fd_gradient_check(system: TumorSystem, time_grid: TimeGrid, u: np.ndarray,
                      h: np.ndarray, phi0: np.ndarray, S0: np.ndarray,
                      spec: ControlProblemSpec, eps_list=(1e-2, 1e-3, 1e-4),
                      cfg: SolverConfig | None = None):
    """Central differences of the reduced cost against the adjoint gradient.

    Returns (eps array, relative errors); the reference is the pairing
    <r + kappa5 u, h> in L2(Q).
    """
    h = np.asarray(h, dtype=float)
    if not np.any(h):
        raise ValueError("zero probe direction is degenerate")
    n, N = time_grid.n_steps, system.n_points
    u = np.broadcast_to(np.asarray(u, dtype=float), (n, N))

    traj = solve_forward(system, time_grid, u, phi0, S0, cfg)
    adj = solve_adjoint(system, time_grid, traj, spec)
    pairing = control_inner(system, time_grid, reduced_gradient(u, adj, spec), h)

    eps_arr = np.asarray(eps_list, dtype=float)
    errors = np.empty(eps_arr.size)
    for i, eps in enumerate(eps_arr):
        plus = solve_forward(system, time_grid, u + eps * h, phi0, S0, cfg)
        minus = solve_forward(system, time_grid, u - eps * h, phi0, S0, cfg)
        fd = (cost_eval(system, time_grid, u + eps * h, plus, spec)
              - cost_eval(system, time_grid, u - eps * h, minus, spec)) / (2 * eps)
        scale = max(abs(fd), abs(pairing), 1e-14)
        errors[i] = abs(fd - pairing) / scale
    return eps_arr, errors


@dataclass(frozen=True)
class OptimizerOptions:
    step0: float = 1.0
    armijo_c: float = 1e-4
    shrink: float = 0.5
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        # each message starts with the offending field's name
        for name, ok in (("step0", 0 < self.step0 < np.inf),
                         ("armijo_c", 0 < self.armijo_c < 1),
                         ("shrink", 0 < self.shrink < 1)):
            if not ok:
                raise ValueError(f"{name}: invalid line-search parameter")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError("tol: must be finite and nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters: must be nonnegative")


@dataclass
class OptimizationReport:
    """One entry of costs, gradient_norms and stationarity per iterate, the
    returned u_final last; one step size per accepted step."""

    costs: list
    gradient_norms: list
    stationarity: list
    step_sizes: list
    status: str
    u_final: np.ndarray
    state_final: StateTrajectory
    adjoint_final: AdjointTrajectory

    @property
    def n_iterations(self) -> int:
        return len(self.step_sizes)


def projected_gradient_descent(system: TumorSystem, time_grid: TimeGrid,
                               u0: np.ndarray, phi0: np.ndarray, S0: np.ndarray,
                               spec: ControlProblemSpec,
                               opts: OptimizerOptions | None = None,
                               cfg: SolverConfig | None = None) -> OptimizationReport:
    """Projected gradient with Armijo backtracking on the reduced cost.

    Accepted steps satisfy J(u+) <= J(u) - c * gamma * ||grad||^2.  Each pass
    records the iterate it has reached, then stops on stationarity_residual
    <= tol, on max_iters accepted steps, or on a stalled search.
    """
    opts = opts or OptimizerOptions()
    n, N = time_grid.n_steps, system.n_points
    u = project_admissible(np.broadcast_to(np.asarray(u0, dtype=float), (n, N)), spec)
    costs, gradient_norms, stationarity, step_sizes = [], [], [], []

    traj = solve_forward(system, time_grid, u, phi0, S0, cfg)
    J = cost_eval(system, time_grid, u, traj, spec)
    while True:
        adj = solve_adjoint(system, time_grid, traj, spec)
        grad = reduced_gradient(u, adj, spec)
        gnorm = control_norm(system, time_grid, grad)
        costs.append(J)
        gradient_norms.append(gnorm)
        stationarity.append(stationarity_residual(system, time_grid, u, adj, spec))
        if stationarity[-1] <= opts.tol:
            status = "converged"
            break
        if len(step_sizes) == opts.max_iters:
            status = "max_iters"
            break

        gamma = opts.step0
        for _ in range(MAX_BACKTRACKS + 1):
            u_trial = project_admissible(u - gamma * grad, spec)
            traj_trial = solve_forward(system, time_grid, u_trial, phi0, S0, cfg)
            J_trial = cost_eval(system, time_grid, u_trial, traj_trial, spec)
            if J_trial <= J - opts.armijo_c * gamma * gnorm**2:
                break
            gamma *= opts.shrink
        else:
            status = "stalled"
            break
        u, traj, J = u_trial, traj_trial, J_trial
        step_sizes.append(gamma)

    return OptimizationReport(costs, gradient_norms, stationarity, step_sizes,
                              status, u, traj, adj)


def sample_variational_inequality(system: TumorSystem, time_grid: TimeGrid,
                                  u: np.ndarray, adj: AdjointTrajectory,
                                  spec: ControlProblemSpec, n_samples: int = 100,
                                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Values of <r + kappa5 u, v - u> / ||v - u|| over random admissible v.

    At a stationary point every value is >= -tol for a small tolerance.
    """
    rng = rng or np.random.default_rng(0)
    grad = reduced_gradient(u, adj, spec)
    n, N = time_grid.n_steps, system.n_points
    lo = np.broadcast_to(spec.u_min, (n, N))
    hi = np.broadcast_to(spec.u_max, (n, N))
    out = np.empty(n_samples)
    for i in range(n_samples):
        v = lo + (hi - lo) * rng.random((n, N))
        diff = v - u
        denom = max(control_norm(system, time_grid, diff), 1e-14)
        out[i] = control_inner(system, time_grid, grad, diff) / denom
    return out
