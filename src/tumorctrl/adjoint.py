"""Backward-in-time adjoint solves along a stored state trajectory.

The adjoint triple (q, p, r) satisfies an algebraic equation for q,

    A^{2rho} q - p + P(phi)(q - r) = 0,

plus backward evolution equations for p + q and r with terminal data
(q+p)(T) = g2, r(T) = g4.  The direct solver's backward Euler step is J*,
the adjoint of the forward step matrix at node k's P, P'(phi)(S - mu) and f',
solved by ``state.StepOperator.solve_refined``: the transposed elimination,
which solves one N x N system for s = r - q and makes q, p and r explicit,
plus one sweep of iterative refinement.  One operator serves the whole
backward solve.  A vanishing-viscosity Galerkin solver (extra -(1/n) dq/dt
term, integrated in modal coordinates) is kept as an independent
cross-check, with its own modal unknowns and Gram matrices.  At each node it
eliminates the p-modes through the q-equation and writes the rest in
s^ = X_AC r^ - q^, the A-modes of r - q, in which the r-equation is diagonal
in r^.  So a node solves one N x N system for s^ and makes r^, q^ and p^
explicit, plus one sweep of iterative refinement against the residual of its
(q^, r^) system.
"""

from __future__ import annotations

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

    op = StepOperator(system, dt)
    for k in range(n - 1, -1, -1):
        P_k = P_fun(traj.phi[k])
        D_k = P_fun.d1(traj.phi[k]) * (traj.S[k] - traj.mu[k])
        df_k = pot.df(traj.phi[k])
        nxt = (q[k + 1], p[k + 1], r[k + 1])

        def residual(x):
            return _adjoint_step_residuals(system, dt, nxt, x, data.g1[k], data.g3[k],
                                           P_k, D_k, df_k)

        try:
            q[k], p[k], r[k] = op.solve_refined(P_k, D_k, df_k, residual, transposed=True)
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

def solve_adjoint_viscous_galerkin(system: TumorSystem, time_grid: TimeGrid,
                                   traj: StateTrajectory, spec: ControlProblemSpec,
                                   n_viscosity: int) -> AdjointTrajectory:
    """Backward modal integration of the viscous system -E y' + M(t) y = b(t).

    The q-equation gains a -(1/n_viscosity) dq/dt term, making the stacked
    modal unknowns y = (q^, p^, r^) a linear ODE.  Terminal data: q^(T) = 0,
    p^ and r^ start from the modal coefficients of g2 and g4.  Each backward
    Euler step from node k+1 to node k takes its coefficients at node k.

    Write G_f^{XY} = (f e^Y_j, e^X_i) and X_XY = G_1^{XY}.  Every basis is
    complete, so X_AB is orthogonal, and a product of two Gram matrices
    through A or B is one Gram matrix, G_f^{XA} G_g^{AY} = G_{fg}^{XY}.
    In a step, p^ enters the q-equation only as -X_AB p^, so the q-equation
    gives p^ = X_BA (T q^ - G_P^{AC} r^ - c_q), with T = diag(cA) + G_P^{AA}
    its q^ block and c_q its data, and the p-equation plus H X_BA times the
    q-equation (H its p^ block) has no p^.  In the A-modes s^ = X_AC r^ - q^
    of r - q, G_P^{CA} X_AC = G_P^{CC} makes the r-equation diagonal in r^,

        D_C r^ + G_P^{CA} s^ = b_r,   D_C = diag(1/dt + LamC),

    so r^ = D_C^{-1} (b_r - G_P^{CA} s^), and the p-equation leaves one N x N
    system for s^; q^ = X_AC r^ - s^.  The elimination alone is not backward
    stable, so each node refines once (Skeel, Math. Comp. 35, 1980) against
    the residual of its (q^, r^) system, formed without the matrix: two N x N
    solves per node.
    """
    if n_viscosity < 1:
        raise ValueError("n_viscosity must be >= 1")
    n, N = time_grid.n_steps, system.n_points
    if traj.n_steps != n:
        raise ValueError("trajectory and time grid disagree on the step count")
    EA, EB, EC = (system.op_A.basis.eigvecs, system.op_B.basis.eigvecs,
                  system.op_C.basis.eigvecs)
    dt = time_grid.dt
    w = system.grid.weights
    data = build_adjoint_data(traj, spec)
    LamB, LamC = system.op_B.scaled_eigenvalues, system.op_C.scaled_eigenvalues
    X_BA = EB.T @ (w[:, None] * EA)
    X_AC = EA.T @ (w[:, None] * EC)

    # With V = P/dt + f' P - D, and H = diag(hB) + G_f'^{BB} the p-equation's p^
    # block, the p-equation plus H X_BA times the q-equation and the r-equation are
    #   [ Q, -G_V^{BC} - diag(LamB) G_P^{BC} ] [q^]   [b_p]
    #   [ -G_P^{CA},   D_C + G_P^{CC}        ] [r^] = [b_r],
    #   Q = X_qq + G_V^{BA} + G_f'^{BA} diag(cA) + diag(LamB) G_P^{BA}.
    # In s^ the first row is -Q s^ + Y r^, Y = (X_qq + G_f'^{BA} diag(cA)) X_AC, so
    #   M_s s^ = Y D_C^{-1} b_r - b_p,   M_s = Q + Y D_C^{-1} G_P^{CA}
    #   = X_qq + E_B^T (diag(wV) E_A + diag(wf') (E_A diag(cA) + K diag(wP) E_A))
    #     + Y0 diag(wP) E_A,
    # with Y0 = Y_q E_C^T + diag(LamB) E_B^T and K = K_a E_C^T fixed for the solve,
    # Y_q = X_qq X_AC D_C^{-1} and K_a = E_A diag(cA) X_AC D_C^{-1}.
    nu = 1.0 / (n_viscosity * dt)
    cA = nu + system.op_A.scaled_eigenvalues
    hB = 1.0 / dt + LamB
    DC = 1.0 / dt + LamC
    X_qq = X_BA * (1.0 / dt + hB[:, None] * cA)  # X_BA / dt + diag(hB) X_BA diag(cA)
    X_p = 1.0 / dt + nu * hB  # b_p's weight on X_BA q^(k+1)
    EA_cA = EA * cA
    Y_q, K_a = X_qq @ (X_AC / DC), EA_cA @ (X_AC / DC)
    K = K_a @ EC.T
    Y0 = Y_q @ EC.T
    Y0 += LamB[:, None] * EB.T
    # M_s - X_qq is one product: [E_B^T  Y0] times the stack of
    # diag(wV) E_A + diag(wf') (E_A diag(cA) + K diag(wP) E_A) over diag(wP) E_A
    EB_Y0 = np.hstack([EB.T, Y0])
    stack, M_s = np.empty((2 * N, N)), np.empty((N, N))

    def eliminate(M_s, wP, wf, b_p, b_r):
        """(q^, r^) that solve a node's system M_s for the data (b_p, b_r)."""
        # Y D_C^{-1} b_r = Y_q b_r + E_B^T diag(wf') K_a b_r
        s = np.linalg.solve(M_s, Y_q @ b_r + EB.T @ (wf * (K_a @ b_r)) - b_p)
        r = (b_r - EC.T @ (wP * (EA @ s))) / DC
        return X_AC @ r - s, r

    def residual(wP, wV, wf, b_p, b_r, q, r):
        """A node's data (b_p, b_r) minus its system applied to (q^, r^)."""
        d = EA @ q - EC @ r  # q - r on the grid
        Pd = wP * d
        return (b_p - X_qq @ q - EB.T @ (wV * d + wf * (EA_cA @ q)) - LamB * (EB.T @ Pd),
                b_r - DC * r + EC.T @ Pd)

    q_hat, p_hat, r_hat = (np.zeros((n + 1, N)) for _ in range(3))
    p_hat[n] = EB.T @ (w * data.g2)
    r_hat[n] = EC.T @ (w * data.g4)

    for k in range(n - 1, -1, -1):
        phi = traj.phi[k]
        P = system.proliferation(phi)
        D = system.proliferation.d1(phi) * (traj.S[k] - traj.mu[k])
        df = system.potential.df(phi)
        wP, wV, wf = w * P, w * (P / dt + df * P - D), w * df
        stack[N:] = wP[:, None] * EA
        stack[:N] = wV[:, None] * EA + wf[:, None] * (EA_cA + K @ stack[N:])
        np.matmul(EB_Y0, stack, out=M_s)
        M_s += X_qq

        # the q-equation's data is c_q; H X_BA c_q = hB X_BA c_q + G_f'^{BA} c_q
        c_q = nu * q_hat[k + 1]
        b_p = (X_p * (X_BA @ q_hat[k + 1]) + p_hat[k + 1] / dt
               + EB.T @ (w * data.g1[k] + wf * (EA @ c_q)))
        b_r = r_hat[k + 1] / dt + EC.T @ (w * data.g3[k])
        try:
            q, r = eliminate(M_s, wP, wf, b_p, b_r)
            dq, dr = eliminate(M_s, wP, wf, *residual(wP, wV, wf, b_p, b_r, q, r))
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(
                f"viscous backward integrator failed at node {k}") from exc
        q_hat[k], r_hat[k] = q + dq, r + dr
        # p^ = X_BA (T q^ - G_P^{AC} r^ - c_q) = X_BA (cA q^ - c_q) + E_B^T (wP (q - r))
        p_hat[k] = (X_BA @ (cA * q_hat[k] - c_q)
                    + EB.T @ (wP * (EA @ q_hat[k] - EC @ r_hat[k])))

    return AdjointTrajectory(q=q_hat @ EA.T, p=p_hat @ EB.T, r=r_hat @ EC.T)


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
