"""Backward-in-time adjoint solves along a stored state trajectory.

The adjoint triple (q, p, r) satisfies an algebraic equation for q,

    A^{2rho} q - p + P(phi)(q - r) = 0,

plus backward evolution equations for p + q and r with terminal data
(q+p)(T) = g2, r(T) = g4.  The direct solver's backward Euler step is J*,
the adjoint of the forward step matrix at node k's P, P'(phi)(S - mu) and f',
solved by ``state.StepOperator.solve_refined``: the transposed elimination
plus one sweep of iterative refinement.  A vanishing-viscosity Galerkin solver
(extra -(1/n) dq/dt term, integrated in modal coordinates) is kept as an
independent cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError
from .problem import ControlProblemSpec
from .spectral import solve_power_plus_mult
from .state import StateTrajectory, StepOperator, TimeGrid, _adjoint_step_residuals
from .system import TumorSystem

VISCOSITY_LEVELS = (10, 100, 1000, 10000)  # the n of the viscosity 1/n, coarse to fine


@dataclass(frozen=True)
class AdjointData:
    """Source and terminal fields of the adjoint system.

    g1 = kappa1 (phi - phi_Q) and g3 = kappa3 (S - S_Q) on all nodes,
    g2 = kappa2 (phi(T) - phi_Omega) and g4 = kappa4 (S(T) - S_Omega).
    """

    g1: np.ndarray  # shape (n_steps + 1, n_points)
    g2: np.ndarray  # shape (n_points,)
    g3: np.ndarray
    g4: np.ndarray


@dataclass(frozen=True)
class AdjointTrajectory:
    q: np.ndarray  # shape (n_steps + 1, n_points)
    p: np.ndarray
    r: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.q.shape[0] - 1


def build_adjoint_data(traj: StateTrajectory, spec: ControlProblemSpec) -> AdjointData:
    shape = traj.phi.shape
    for target in (spec.phi_Q, spec.S_Q):
        if np.broadcast_shapes(np.shape(target), shape) != shape:
            raise ValueError("running targets must broadcast to the trajectory shape")
    k1, k2, k3, k4, _ = spec.kappas
    return AdjointData(
        g1=k1 * (traj.phi - spec.phi_Q),
        g2=k2 * (traj.phi[-1] - spec.phi_Omega),
        g3=k3 * (traj.S - spec.S_Q),
        g4=k4 * (traj.S[-1] - spec.S_Omega),
    )


def solve_adjoint(system: TumorSystem, time_grid: TimeGrid,
                  traj: StateTrajectory, spec: ControlProblemSpec) -> AdjointTrajectory:
    """Backward Euler from T to 0, each step the adjoint of the forward step."""
    n, N = time_grid.n_steps, system.n_points
    if traj.n_steps != n:
        raise ValueError("trajectory and time grid disagree on the step count")
    dt = time_grid.dt
    data = build_adjoint_data(traj, spec)
    P_fun, pot = system.proliferation, system.potential
    q, p, r = (np.zeros((n + 1, N)) for _ in range(3))

    # terminal node: r(T) = g4, (q+p)(T) = g2, and the algebraic relation fixes
    # the split, (I + A^{2rho} + diag P) q = g2 + P g4
    P_T = P_fun(traj.phi[-1])
    r[n] = data.g4
    q[n] = solve_power_plus_mult(system.op_A, 1.0 + P_T, data.g2 + P_T * data.g4)
    p[n] = data.g2 - q[n]

    for k in range(n - 1, -1, -1):
        P_k = P_fun(traj.phi[k])
        D_k = P_fun.d1(traj.phi[k]) * (traj.S[k] - traj.mu[k])
        df_k = pot.df(traj.phi[k])
        nxt = (q[k + 1], p[k + 1], r[k + 1])
        try:
            op = StepOperator(system, dt, P_k, D_k)
            q[k], p[k], r[k] = op.solve_refined(df_k, lambda x: _adjoint_step_residuals(
                system, dt, nxt, x, data.g1[k], data.g3[k], P_k, D_k, df_k), transposed=True)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(f"singular adjoint step matrix at node {k}") from exc

    return AdjointTrajectory(q=q, p=p, r=r)


def adjoint_residuals(system: TumorSystem, time_grid: TimeGrid,
                      adj: AdjointTrajectory, traj: StateTrajectory,
                      spec: ControlProblemSpec) -> np.ndarray:
    """Weighted residual norms, shape (n_steps + 1, 3).

    Column 0: algebraic q-equation at every node.  Columns 1 and 2: the
    backward difference equations for q + p and r at nodes 0 .. n-1; row n
    carries the terminal-condition mismatches instead.
    """
    dt = time_grid.dt
    w = system.grid.weights
    data = build_adjoint_data(traj, spec)
    P = system.proliferation(traj.phi)
    D = system.proliferation.d1(traj.phi) * (traj.S - traj.mu)
    df = system.potential.df(traj.phi)
    cur = (adj.q, adj.p, adj.r)
    steps = _adjoint_step_residuals(system, dt, [v[1:] for v in cur], [v[:-1] for v in cur],
                                    data.g1[:-1], data.g3[:-1], P[:-1], D[:-1], df[:-1])
    # node n: the algebraic q-equation (the first step residual, whose value
    # does not depend on the next node) and the two terminal conditions
    last = [v[-1] for v in cur]
    terminal = (_adjoint_step_residuals(system, dt, last, last, 0.0, 0.0, P[-1], D[-1], df[-1])[0],
                adj.q[-1] + adj.p[-1] - data.g2, adj.r[-1] - data.g4)
    norms = [[np.sqrt(np.sum(w * v * v, axis=-1)) for v in res] for res in (steps, terminal)]
    return np.vstack([np.stack(norms[0], axis=1), norms[1]])


# ---------------------------------------------------------------------------
# vanishing-viscosity Galerkin cross-check
# ---------------------------------------------------------------------------

def _weighted_gram(coeff: np.ndarray, Ea: np.ndarray, w: np.ndarray,
                   Eb: np.ndarray) -> np.ndarray:
    """Matrix of (coeff * eb_j, ea_i) in the grid quadrature."""
    return Ea.T @ ((w * coeff)[:, None] * Eb)


def solve_adjoint_viscous_galerkin(system: TumorSystem, time_grid: TimeGrid,
                                   traj: StateTrajectory, spec: ControlProblemSpec,
                                   n_viscosity: int) -> AdjointTrajectory:
    """Backward modal integration of the viscous system -E y' + M(t) y = b(t).

    The q-equation gains a -(1/n_viscosity) dq/dt term, making the stacked
    modal unknowns y = (q^, p^, r^) a linear ODE.  Terminal data: q^(T) = 0,
    p^ and r^ start from the projections of g2 and g4.  Each backward Euler
    step from node k+1 to node k takes its coefficients at node k.
    """
    if n_viscosity < 1:
        raise ValueError("n_viscosity must be >= 1")
    n, N = time_grid.n_steps, system.n_points
    if traj.n_steps != n:
        raise ValueError("trajectory and time grid disagree on the step count")
    dt = time_grid.dt
    w = system.grid.weights
    data = build_adjoint_data(traj, spec)
    EA, EB, EC = (system.op_A.basis.eigvecs, system.op_B.basis.eigvecs,
                  system.op_C.basis.eigvecs)
    nA, nB, nC = EA.shape[1], EB.shape[1], EC.shape[1]
    LamA = system.op_A.scaled_eigenvalues
    LamB = system.op_B.scaled_eigenvalues
    LamC = system.op_C.scaled_eigenvalues
    X_AB = EA.T @ (w[:, None] * EB)
    X_BA = X_AB.T

    g4_modal = EC.T @ (w * data.g4)
    proj_defect = data.g4 - EC @ g4_modal
    defect = np.sqrt(np.sum(w * proj_defect * proj_defect))
    if defect > 1e-6 * max(1.0, np.sqrt(np.sum(w * data.g4 * data.g4))):
        warnings.warn(
            f"terminal nutrient target is poorly represented in the retained "
            f"modes (projection residual {defect:.3e})", stacklevel=2)

    E_mat = np.zeros((nA + nB + nC, nA + nB + nC))
    E_mat[:nA, :nA] = np.eye(nA) / n_viscosity
    E_mat[nA:nA + nB, :nA] = X_BA
    E_mat[nA:nA + nB, nA:nA + nB] = np.eye(nB)
    E_mat[nA + nB:, nA + nB:] = np.eye(nC)

    # one buffer for M(t): the -X_AB block is constant and the (r, p) block
    # zero; each node refills the rest in place and then adds E / dt
    M = np.zeros_like(E_mat)
    M[:nA, nA:nA + nB] = -X_AB
    E_dt = E_mat / dt

    def assemble(phi, S, mu, g1, g3):
        P = system.proliferation(phi)
        D = system.proliferation.d1(phi) * (S - mu)
        df = system.potential.df(phi)
        M[:nA, :nA] = np.diag(LamA) + _weighted_gram(P, EA, w, EA)
        M[:nA, nA + nB:] = -_weighted_gram(P, EA, w, EC)
        M[nA:nA + nB, :nA] = -_weighted_gram(D, EB, w, EA)
        M[nA:nA + nB, nA:nA + nB] = np.diag(LamB) + _weighted_gram(df, EB, w, EB)
        M[nA:nA + nB, nA + nB:] = _weighted_gram(D, EB, w, EC)
        M[nA + nB:, :nA] = -_weighted_gram(P, EC, w, EA)
        M[nA + nB:, nA + nB:] = np.diag(LamC) + _weighted_gram(P, EC, w, EC)
        return np.concatenate([np.zeros(nA), EB.T @ (w * g1), EC.T @ (w * g3)])

    y_nodes = np.zeros((n + 1, nA + nB + nC))
    y = np.concatenate([np.zeros(nA), EB.T @ (w * data.g2), g4_modal])
    y_nodes[n] = y

    for k in range(n - 1, -1, -1):
        b = assemble(traj.phi[k], traj.S[k], traj.mu[k], data.g1[k], data.g3[k])
        try:
            y = np.linalg.solve(np.add(E_dt, M, out=M), E_mat @ y / dt + b)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(
                f"viscous backward integrator failed at node {k}") from exc
        y_nodes[k] = y

    return AdjointTrajectory(
        q=y_nodes[:, :nA] @ EA.T,
        p=y_nodes[:, nA:nA + nB] @ EB.T,
        r=y_nodes[:, nA + nB:] @ EC.T,
    )


def viscosity_sweep(system: TumorSystem, time_grid: TimeGrid,
                    traj: StateTrajectory, spec: ControlProblemSpec) -> np.ndarray:
    """Max node-norm discrepancy between viscous and direct adjoints, one per
    entry of VISCOSITY_LEVELS."""
    direct = solve_adjoint(system, time_grid, traj, spec)
    w = system.grid.weights
    out = np.empty(len(VISCOSITY_LEVELS))
    for i, n_visc in enumerate(VISCOSITY_LEVELS):
        visc = solve_adjoint_viscous_galerkin(system, time_grid, traj, spec, n_visc)
        diff2 = (np.sum(w * (visc.q - direct.q) ** 2, axis=1)
                 + np.sum(w * (visc.p - direct.p) ** 2, axis=1)
                 + np.sum(w * (visc.r - direct.r) ** 2, axis=1))
        out[i] = float(np.sqrt(np.max(diff2)))
    return out
