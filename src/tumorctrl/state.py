"""Forward solve of the three-field state system by implicit Euler + Newton.

Each step solves, for the stacked unknowns (mu, phi, S) at the new node,

    (phi+ - phi)/dt + A^{2rho} mu+          = P(phi*) (S+ - mu+)
    (phi+ - phi)/dt + B^{2sigma} phi+ + f(phi+) = mu+
    (S+ - S)/dt     + C^{2tau} S+ + P(phi*) (S+ - mu+) = u_k

with phi* = old phi (semi_implicit_P, default) or phi* = phi+ (fully
implicit).  Newton starts at the extrapolated guess 2 x_1 - x_0 at the second
step and at 3 x_{k-1} - 3 x_{k-2} + x_{k-3} from the third on, or at x_{k-1}
when the potential does not admit the guess's phi.  Newton updates are damped
so phi iterates stay inside Potential.bounds (fraction-to-the-boundary rule),
except on the whole line (the regular potential), where f itself rejects a
non-finite or NaN phi.  A solve builds one ``StepOperator``, which holds the
dt-constant inverse (I/dt + C^{2tau})^{-1} and three products with it; every
Newton iteration assembles its exact Jacobian's N x N phi block from them in
O(N^2), factors it and recovers mu and S as rows: no step stacks or inverts.

Newton accepts a step when its residual reaches newton_tol or, where that lies
higher, the step's round-off floor (Kelley's accept-at-floor rule)

    c sqrt(N) u (|K| max(|mu|, |phi|, |S|) + (|phi| + |S| + |phi_p| + |S_p|)/dt + |u_k|)

in the grid norm, with u the unit round-off and |K| the largest scaled
eigenvalue of the three operators.  The bracket scales the floor like a
normwise backward error; sqrt(N) is the growth of the rounding error of an
N-term inner product (Higham & Mary, SIAM J. Sci. Comput. 41, 2019), which the
residual where Newton stagnates follows from N = 32 to 1024.  With c = 1/8
the floor is 0.7 u (scale) at N = 32 and 4 u (scale) at N = 1024.  It is
computed once, only when the first Newton iterate misses newton_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSystemError, StepFailureError
from .spectral import UNIT_ROUNDOFF, solve_power_plus_mult
from .system import TumorSystem

SEMI_IMPLICIT_P = "semi_implicit_P"
FULLY_IMPLICIT = "fully_implicit"
_FLOOR_C = 0.125  # c of the Newton floor c sqrt(N) u (scale), module docstring


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on (0, T) with nodes t_0 = 0 ... t_n = T."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (self.T > 0.0 and self.n_steps >= 1):
            raise ValueError("need T > 0 and n_steps >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    damping: float = 0.95
    scheme: str = SEMI_IMPLICIT_P
    split_f2_explicit: bool = False  # stabilized variant: f1 implicit, f2 explicit

    def __post_init__(self):
        # each message starts with the offending field's name
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError("newton_tol: must be finite and positive")
        if self.newton_max_iter < 0:
            raise ValueError("newton_max_iter: must be nonnegative")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping: must lie in (0, 1]")
        if self.scheme not in (SEMI_IMPLICIT_P, FULLY_IMPLICIT):
            raise ValueError(f"scheme: unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class StateTrajectory:
    times: np.ndarray
    mu: np.ndarray   # shape (n_steps + 1, n_points)
    phi: np.ndarray
    S: np.ndarray
    newton_iterations: np.ndarray
    scheme: str = SEMI_IMPLICIT_P
    split_f2_explicit: bool = False

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def initial_mu(system: TumorSystem, phi0: np.ndarray, S0: np.ndarray) -> np.ndarray:
    """Solve (A^{2rho} + P(phi0)) mu(0) = P(phi0) S0."""
    system.potential.f(phi0)  # raises DomainViolationError where it does not admit phi0
    P0 = system.proliferation(phi0)
    return solve_power_plus_mult(system.op_A, P0, P0 * S0)


def _step_f(pot, split, phi_new, f2_old):
    """f of the step: f1(phi+) + f2(phi_old) for the split scheme, f(phi+) otherwise."""
    return pot.f1(phi_new) + f2_old if split else pot.f(phi_new)


def _step_residuals(system, dt, prev, new, u_k, react, f_val):
    """Residuals of the three step equations at (mu, phi, S) = new, given the
    reaction term P(phi*) (S - mu) and the step's f; with the linearized data,
    reaction and f, the residuals of the linearized step."""
    mu_p, phi_p, S_p = prev
    mu, phi, S = new
    dphi = (phi - phi_p) / dt
    return (dphi + system.op_A.apply(mu) - react,
            dphi + system.op_B.apply(phi) + f_val - mu,
            (S - S_p) / dt + system.op_C.apply(S) + react - u_k)


def _adjoint_step_residuals(system, dt, nxt, cur, g1, g3, P, D, df):
    """Residuals of the three adjoint step equations at (q, p, r) = cur, given the
    next node's (q, p, r); the fields may stack several nodes as rows."""
    q_n, p_n, r_n = nxt
    q, p, r = cur
    drive = q - r
    return (system.op_A.apply(q) - p + P * drive,
            ((q + p) - (q_n + p_n)) / dt + system.op_B.apply(p) + df * p - D * drive - g1,
            (r - r_n) / dt + system.op_C.apply(r) - P * drive - g3)


def _round_off_floor(system, dt, prev, new, u_k) -> float:
    """The step residual that rounding alone leaves at new (module docstring)."""
    w = system.grid.weights
    norm = lambda v: math.sqrt(np.sum(w * v * v))
    mu, phi, S = map(norm, new)
    rate = (phi + S + norm(prev[1]) + norm(prev[2])) / dt
    return (_FLOOR_C * math.sqrt(w.size) * UNIT_ROUNDOFF
            * (system.op_norm * max(mu, phi, S) + rate + norm(u_k)))


def _boundary_step_fraction(system, cfg, phi, dphi) -> float:
    """Damped fraction of dphi that keeps phi, which the potential admits, in its bounds."""
    a, b = system.potential.bounds
    alpha = 1.0
    up = dphi > 0.0
    if np.any(up):
        alpha = min(alpha, cfg.damping * np.min((b - phi[up]) / dphi[up]))
    dn = dphi < 0.0
    if np.any(dn):
        alpha = min(alpha, cfg.damping * np.min((phi[dn] - a) / (-dphi[dn])))
    return alpha


class StepOperator:
    """The implicit Euler step matrix in the unknowns (mu, phi, S),

            [ A + P   I/dt - D   -P ]
        J = [ -I      L           0 ],   L = I/dt + B^{2sigma} + diag f',
            [ -P      D           K ]    K = I/dt + C^{2tau} + diag P,

    for the couplings P and D, D = P'(phi)(S - mu) in the fully implicit scheme
    and 0 in the semi-implicit one.  It is the Newton Jacobian of the forward
    step and the linearized step operator; its adjoint J* in the grid inner
    product is the adjoint step operator in (q, p, r).  The sum of the first
    and third rows has no P and no D, A mu + phi/dt + (I/dt + C^{2tau}) S =
    b1 + b3, so S comes from R = (I/dt + C^{2tau})^{-1} and mu = L phi - b2
    from the second row, and the first row leaves one N x N system for phi,

        M x_phi = b1 + (A + P) b2 + P R (b1 + b3 + A b2),
        M = (A + P) L + I/dt - D + P R (A L + I/dt).

    ``solve_transposed`` writes J* x = b in s = r - q, for which p and q are
    explicit: M* s = (I/dt + L A) R b3 - b2 - L b1, with M* the adjoint of M.

    R, R A and the products Q1 = A (B + I/dt) and Q0 = B + R A (B + I/dt) + R/dt
    depend on dt alone, so one operator serves a whole solve, and ``matrix``
    assembles M from them and a step's P, D and f' in O(N^2).  Neither
    elimination alone is backward stable, so the linear steps go through
    ``solve_refined``, which refines once against their three-row step residual.
    """

    def __init__(self, system: TumorSystem, dt: float):
        self.system, self.dt = system, dt
        A, B = system.op_A.matrix, system.op_B.matrix
        I_dt = np.eye(system.n_points) / dt
        self.R = np.linalg.inv(system.op_C.matrix + I_dt)
        self.RA = self.R @ A
        self.Q1 = A @ (B + I_dt)
        self.Q0 = self.RA @ (B + I_dt) + self.R / dt
        self.Q0 += B

    def matrix(self, P, D, df) -> np.ndarray:
        """The phi block M = Q1 + diag(P) Q0 + (A + diag(P) R A) diag f'
        + diag((1 + P)/dt + P f' - D), assembled without a matrix product."""
        M = P[:, None] * self.Q0
        M += self.Q1
        T = P[:, None] * self.RA
        T += self.system.op_A.matrix
        T *= df
        M += T
        M.reshape(-1)[::P.size + 1] += (1.0 + P) / self.dt + P * df - D
        return M

    def solve(self, P, df, M: np.ndarray, b) -> tuple:
        """The rows (mu, phi, S) of x with J x = b for the rows b = (b1, b2, b3),
        where M is the phi block ``matrix(P, D, df)``."""
        b1, b2, b3 = b
        op_A, R, dt = self.system.op_A, self.R, self.dt
        A_b2 = op_A.apply(b2)
        b13 = b1 + b3
        rhs = b1 + A_b2 + P * (b2 + R @ (b13 + A_b2))
        x_phi = np.linalg.solve(M, rhs)
        phi_dt = x_phi / dt
        x_mu = phi_dt + self.system.op_B.apply(x_phi) + df * x_phi - b2
        return x_mu, x_phi, R @ (b13 - op_A.apply(x_mu) - phi_dt)

    def solve_transposed(self, P, df, M: np.ndarray, b) -> tuple:
        """The rows (q, p, r) of x with J* x = b for the rows b; M as in ``solve``."""
        b1, b2, b3 = b
        op_A, R, dt = self.system.op_A, self.R, self.dt
        R_b3 = R @ b3
        c = op_A.apply(R_b3) - b1
        rhs = R_b3 / dt + c / dt + self.system.op_B.apply(c) + df * c - b2
        # M* = W^{-1} M^T W: the operators are self-adjoint in the grid weights W
        w = self.system.grid.weights
        s = np.linalg.solve(M.T, w * rhs) / w
        r = R @ (b3 - P * s)
        q = r - s
        return q, op_A.apply(q) - P * s - b1, r

    def solve_refined(self, P, D, df, residual, transposed: bool = False) -> tuple:
        """Rows (mu, phi, S), or (q, p, r) when transposed, that zero an affine
        step residual of J (of J*): two corrections from zero, the elimination
        and then one sweep of iterative refinement, which makes it backward stable.
        Both corrections use one assembly of M.  The first residual is taken at
        the scalar zero (0, 0, 0), where the residuals' matrix products vanish
        without being formed."""
        solve = self.solve_transposed if transposed else self.solve
        M = self.matrix(P, D, df)
        x = [-v for v in solve(P, df, M, residual((0.0, 0.0, 0.0)))]
        return tuple(v - d for v, d in zip(x, solve(P, df, M, residual(x))))


def step(op: StepOperator, cfg: SolverConfig, prev: tuple, u_k: np.ndarray,
         step_index: int = 0, guess: Optional[tuple] = None) -> tuple:
    """One implicit Euler step of op's system and dt from prev, with Newton
    started at guess when the potential admits its phi;
    returns (mu, phi, S, newton_iterations)."""
    system, dt = op.system, op.dt
    prev = tuple(np.asarray(v, dtype=float) for v in prev)
    phi_p = prev[1]
    w = system.grid.weights
    pot, P_fun = system.potential, system.proliferation
    split = cfg.split_f2_explicit
    semi = cfg.scheme == SEMI_IMPLICIT_P
    P_old = P_fun(phi_p) if semi else None
    f2_old = pot.split_f(phi_p)[1] if split else None
    bounded = any(map(math.isfinite, pot.bounds))  # the whole line has no boundary

    # without a usable guess Newton starts at the previous state, so the first
    # evaluation of f checks that the potential admits phi_p
    if guess is not None and (not bounded or pot.admits(guess[1])):
        mu, phi, S = (np.asarray(v, dtype=float) for v in guess)
    else:
        mu, phi, S = prev
    tol = cfg.newton_tol
    for it in range(cfg.newton_max_iter + 1):
        Pv = P_old if semi else P_fun(phi)
        r1, r2, r3 = _step_residuals(system, dt, prev, (mu, phi, S), u_k, Pv * (S - mu),
                                     _step_f(pot, split, phi, f2_old))
        res_norm = math.sqrt((w * (r1 * r1 + r2 * r2 + r3 * r3)).sum())
        # accept at newton_tol, or at the step's round-off floor where that lies
        # higher; the floor is computed once, when the first Newton iterate
        # misses newton_tol, so a step that meets it pays nothing
        if it == 1 and res_norm > tol:
            tol = max(tol, _round_off_floor(system, dt, prev, (mu, phi, S), u_k))
        if res_norm <= tol:
            return mu, phi, S, it
        if it == cfg.newton_max_iter:
            raise StepFailureError(step_index, res_norm, it)

        df_val = pot.df1(phi) if split else pot.df(phi)
        D = 0.0 if semi else P_fun.d1(phi) * (S - mu)
        try:
            d_mu, d_phi, d_S = op.solve(Pv, df_val, op.matrix(Pv, D, df_val),
                                        (-r1, -r2, -r3))
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(f"singular step matrix at step {step_index}") from exc
        if bounded:
            alpha = _boundary_step_fraction(system, cfg, phi, d_phi)
            d_mu, d_phi, d_S = alpha * d_mu, alpha * d_phi, alpha * d_S
        mu, phi, S = mu + d_mu, phi + d_phi, S + d_S


def solve_forward(system: TumorSystem, time_grid: TimeGrid, u: np.ndarray,
                  phi0: np.ndarray, S0: np.ndarray,
                  cfg: Optional[SolverConfig] = None) -> StateTrajectory:
    """Solve the state system for a control given at nodes t_1 ... t_n."""
    cfg = cfg or SolverConfig()
    n, N = time_grid.n_steps, system.n_points
    u = np.broadcast_to(np.asarray(u, dtype=float), (n, N))
    phi0 = np.asarray(phi0, dtype=float)
    S0 = np.asarray(S0, dtype=float)
    for name, value in (("u", u), ("phi0", phi0), ("S0", S0)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")

    mu = np.empty((n + 1, N))
    phi = np.empty((n + 1, N))
    S = np.empty((n + 1, N))
    iters = np.zeros(n + 1, dtype=int)
    mu[0] = initial_mu(system, phi0, S0)
    phi[0], S[0] = phi0, S0

    op = StepOperator(system, time_grid.dt)
    guess = None
    for k in range(1, n + 1):
        if k >= 2:  # the predictor, written into the output rows
            guess = (mu[k], phi[k], S[k])
            for x, g in zip((mu, phi, S), guess):
                if k >= 3:  # third order: 3 (x_{k-1} - x_{k-2}) + x_{k-3}
                    np.subtract(x[k - 1], x[k - 2], out=g)
                    g *= 3.0
                    g += x[k - 3]
                else:  # second order: 2 x_{k-1} - x_{k-2}
                    np.multiply(x[k - 1], 2.0, out=g)
                    g -= x[k - 2]
        mu[k], phi[k], S[k], iters[k] = step(
            op, cfg, (mu[k - 1], phi[k - 1], S[k - 1]), u[k - 1],
            step_index=k, guess=guess,
        )
    return StateTrajectory(
        times=time_grid.times, mu=mu, phi=phi, S=S, newton_iterations=iters,
        scheme=cfg.scheme, split_f2_explicit=cfg.split_f2_explicit,
    )


def _scheme_P_values(system, traj):
    """P(phi*) at each step k = 1..n per the trajectory's scheme."""
    src = traj.phi[:-1] if traj.scheme == SEMI_IMPLICIT_P else traj.phi[1:]
    return system.proliferation(src)


def pde_residuals(system: TumorSystem, traj: StateTrajectory, u: np.ndarray) -> np.ndarray:
    """Weighted residual norms of the three discrete equations, per step,
    recomputed the way Newton computed them."""
    n = traj.n_steps
    u = np.broadcast_to(np.asarray(u, dtype=float), (n, system.n_points))
    dt = float(traj.times[1] - traj.times[0])
    w, pot, split = system.grid.weights, system.potential, traj.split_f2_explicit
    Pv = _scheme_P_values(system, traj)
    out = np.empty((n, 3))
    for k in range(1, n + 1):
        prev = (traj.mu[k - 1], traj.phi[k - 1], traj.S[k - 1])
        mu, phi, S = new = (traj.mu[k], traj.phi[k], traj.S[k])
        f_val = _step_f(pot, split, phi, pot.split_f(prev[1])[1] if split else None)
        r = _step_residuals(system, dt, prev, new, u[k - 1], Pv[k - 1] * (S - mu), f_val)
        out[k - 1] = [np.sqrt(np.sum(w * ri * ri)) for ri in r]
    return out


def discrete_energy(system: TumorSystem, traj: StateTrajectory) -> np.ndarray:
    """(1/2)||B^sigma phi||^2 + int F(phi) + (1/2)||S||^2 at every node."""
    w = system.grid.weights
    Bphi = system.op_B.half.apply(traj.phi)
    return (
        0.5 * np.sum(w * Bphi * Bphi, axis=1)
        + np.sum(w * system.potential.F(traj.phi), axis=1)
        + 0.5 * np.sum(w * traj.S * traj.S, axis=1)
    )


def energy_identity_residual(system: TumorSystem, traj: StateTrajectory,
                             u: np.ndarray) -> np.ndarray:
    """|LHS - RHS| of the first energy identity at every node.

    Time integrals use the scheme's implicit-node quadrature (value at the
    step's new node times dt); the residual shrinks at rate O(dt).
    """
    n, N = traj.n_steps, system.n_points
    u = np.broadcast_to(np.asarray(u, dtype=float), (n, N))
    dt = float(traj.times[1] - traj.times[0])
    w = system.grid.weights

    Amu = system.op_A.half.apply(traj.mu[1:])
    CS = system.op_C.half.apply(traj.S[1:])
    dphi = (traj.phi[1:] - traj.phi[:-1]) / dt
    Pv = _scheme_P_values(system, traj)
    diff = traj.S[1:] - traj.mu[1:]

    increments = dt * (
        np.sum(w * Amu * Amu, axis=1)
        + np.sum(w * dphi * dphi, axis=1)
        + np.sum(w * CS * CS, axis=1)
        + np.sum(w * Pv * diff * diff, axis=1)
    )
    work = dt * np.sum(w * u * traj.S[1:], axis=1)

    energy = discrete_energy(system, traj)
    lhs = energy.copy()
    lhs[1:] += np.cumsum(increments)
    rhs = np.full(n + 1, energy[0])
    rhs[1:] += np.cumsum(work)
    return np.abs(lhs - rhs)


def max_mu_inf(traj: StateTrajectory) -> float:
    return float(np.max(np.abs(traj.mu)))


def save_trajectory(traj: StateTrajectory, path) -> None:
    np.savez(
        path, times=traj.times, mu=traj.mu, phi=traj.phi, S=traj.S,
        newton_iterations=traj.newton_iterations,
        scheme=np.array(traj.scheme),
        split_f2_explicit=np.array(traj.split_f2_explicit),
    )


def load_trajectory(path) -> StateTrajectory:
    with np.load(path) as data:
        return StateTrajectory(
            times=data["times"], mu=data["mu"], phi=data["phi"], S=data["S"],
            newton_iterations=data["newton_iterations"],
            scheme=str(data["scheme"]),
            split_f2_explicit=bool(data["split_f2_explicit"]),
        )


def export_trajectory_csv(traj: StateTrajectory, directory) -> None:
    """Per-field CSVs with a time column followed by grid values."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, arr in (("mu", traj.mu), ("phi", traj.phi), ("S", traj.S)):
        table = np.column_stack([traj.times, arr])
        header = "t," + ",".join(f"x{i}" for i in range(arr.shape[1]))
        np.savetxt(directory / f"{name}.csv", table, delimiter=",",
                   header=header, comments="")
