"""Independent single-mode references for cross-checking the PDE solvers.

On a one-point grid every basis has one mode, so every operator is a
scalar, the chemical-potential equation becomes algebraic, and
the state, linearized, and adjoint systems reduce to two-dimensional ODE
systems.  These are integrated here with classic fixed-step RK4 at a much
finer step, giving reference trajectories accurate far beyond the implicit
Euler error being measured.

The state ODE is nonlinear and is stepped by ``rk4`` with a right-hand side
on Python floats.  The linearized and adjoint ODEs are linear, y' = M(t) y +
g(t), with coefficients taken from the interpolated reference state.  Their
M and g are sampled as arrays at the 2n + 1 RK4 stage points (the nodes and
the step midpoints), one block of steps at a time, and the source
callbacks take a block's stage times as one array.  One RK4 step of a linear
ODE is exactly the affine map y -> R_i y + s_i built from M and g at the
step's node, midpoint and end, so ``rk4_linear`` forms a block's maps with
batched 2x2 products and only the recurrence runs step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Potential, Proliferation
from .spectral import FractionalPower, SpectralBasis, midpoint_grid
from .system import TumorSystem


def rk4(rhs, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Fixed-step RK4 over the given time nodes; returns (len(times), dim)."""
    y = np.asarray(y0, dtype=float)
    out = np.empty((times.size, y.size))
    out[0] = y
    for i in range(times.size - 1):
        t, dt = times[i], times[i + 1] - times[i]
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = y
    return out


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (A @ x[..., None])[..., 0]


def rk4_linear(M: np.ndarray, g: np.ndarray, y0: np.ndarray, h: float) -> np.ndarray:
    """Fixed-step RK4 for y' = M(t) y + g(t); returns (n + 1, dim).

    M (2n + 1, dim, dim) and g (2n + 1, dim) are sampled at the stage points
    t0 + j h / 2: even j are the nodes, odd j the step midpoints.  Each stage
    is affine in the step's initial value, k_j = A_j y + b_j, so the step is
    y -> R_i y + s_i with R_i = I + h/6 (A1 + 2 A2 + 2 A3 + A4) and s_i the
    same combination of the b_j.
    """
    A1, Mh, M1 = M[:-1:2], M[1::2], M[2::2]
    b1, gh, g1 = g[:-1:2], g[1::2], g[2::2]
    eye = np.eye(M.shape[-1])
    A2, b2 = Mh @ (eye + h / 2 * A1), _matvec(Mh, h / 2 * b1) + gh
    A3, b3 = Mh @ (eye + h / 2 * A2), _matvec(Mh, h / 2 * b2) + gh
    A4, b4 = M1 @ (eye + h * A3), _matvec(M1, h * b3) + g1
    R = eye + h / 6 * (A1 + 2 * A2 + 2 * A3 + A4)
    s = h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
    out = np.empty((R.shape[0] + 1, eye.shape[0]))
    y = out[0] = np.asarray(y0, dtype=float)
    for i in range(R.shape[0]):
        y = out[i + 1] = R[i] @ y + s[i]
    return out


# Steps per block of the linear references: one block's stage samples and
# affine maps take tens of kilobytes, so the references need little more
# memory than their outputs.
_BLOCK_STEPS = 256


def _blocks(n: int):
    """Step ranges [i0, i1) of at most _BLOCK_STEPS steps covering n steps."""
    return ((i0, min(i0 + _BLOCK_STEPS, n)) for i0 in range(0, n, _BLOCK_STEPS))


def _matrices(m00, m01, m10, m11) -> np.ndarray:
    """Stack entry arrays of equal length K into K 2x2 matrices."""
    return np.array([[m00, m01], [m10, m11]]).transpose(2, 0, 1)


@dataclass(frozen=True)
class SingleModeReduction:
    """Scalar coefficients a, b, c of the three operators plus nonlinearities."""

    a: float
    b: float
    c: float
    potential: Potential
    proliferation: Proliferation

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def _mu(self, phi, S, P, f):
        return (self.b * phi + f + P * S) / (1.0 + self.a + P)

    def mu_algebraic(self, phi, S):
        """mu = (b phi + f(phi) + P(phi) S) / (1 + a + P(phi))."""
        return self._mu(phi, S, self.proliferation(phi), self.potential.f(phi))

    def initial_mu(self, phi0, S0):
        P = self.proliferation(phi0)
        return P * S0 / (self.a + P)

    def solve_state(self, phi0: float, S0: float, u_fn, T: float,
                    dt: float = 1e-4):
        """Returns (times, mu, phi, S) on a uniform fine grid."""
        n = int(round(T / dt))
        times = np.linspace(0.0, T, n + 1)

        def rhs(t, y):  # on Python floats, the same operations as on arrays
            phi, S = y.tolist()
            P = float(self.proliferation(phi))
            f = float(self.potential.f(phi))
            mu = self._mu(phi, S, P, f)
            dphi = mu - self.b * phi - f
            dS = -self.c * S - P * (S - mu) + u_fn(t)
            return np.array([dphi, dS])

        sol = rk4(rhs, np.array([phi0, S0]), times)
        phi, S = sol[:, 0], sol[:, 1]
        mu = self.mu_algebraic(phi, S)
        mu[0] = self.initial_mu(phi0, S0)
        return times, mu, phi, S

    def _coefficients(self, state, t: np.ndarray):
        """S - mu, P, P' and b + f' along the reference state interpolated at t."""
        st_times, st_mu, st_phi, st_S = state
        phi = np.interp(t, st_times, st_phi)
        drive = np.interp(t, st_times, st_S) - np.interp(t, st_times, st_mu)
        return (drive, self.proliferation(phi), self.proliferation.d1(phi),
                self.b + self.potential.df(phi))

    # ------------------------------------------------------------------
    # linearized system along an interpolated reference state
    # ------------------------------------------------------------------

    def solve_linearized(self, state, h_fn, T: float, dt: float = 1e-4):
        """state = (times, mu, phi, S) arrays, h_fn maps an array of times to
        the control variation there; returns (times, eta, xi, zeta)."""
        n = int(round(T / dt))
        stages = np.linspace(0.0, T, 2 * n + 1)
        y = np.zeros((n + 1, 2))
        eta = np.empty(n + 1)
        for i0, i1 in _blocks(n):
            t = stages[2 * i0:2 * i1 + 1]
            drive, P, dP, lin = self._coefficients(state, t)
            den = 1.0 + self.a + P
            # eta = (P zeta + P' (S - mu) xi + (b + f') xi) / (1 + a + P)
            eta_xi, eta_zeta = (dP * drive + lin) / den, P / den
            M = _matrices(eta_xi - lin, eta_zeta,
                          P * eta_xi - dP * drive, P * eta_zeta - P - self.c)
            g = np.zeros((t.size, 2))
            g[:, 1] = h_fn(t)
            y[i0:i1 + 1] = block = rk4_linear(M, g, y[i0], T / n)
            eta[i0:i1 + 1] = eta_xi[::2] * block[:, 0] + eta_zeta[::2] * block[:, 1]
        return np.linspace(0.0, T, n + 1), eta, y[:, 0], y[:, 1]

    # ------------------------------------------------------------------
    # adjoint system, integrated backward in the variable s = T - t
    # ------------------------------------------------------------------

    def solve_adjoint(self, state, g1_fn, g3_fn, g2: float, g4: float,
                      T: float, dt: float = 1e-4):
        """Returns (times, q, p, r) with terminal data (q+p)(T)=g2, r(T)=g4;
        g1_fn and g3_fn map an array of times to the sources there."""
        n = int(round(T / dt))
        t_stages = T - np.linspace(0.0, T, 2 * n + 1)
        y = np.empty((n + 1, 2))  # (z, r) with z = q + p, at s = 0, h, ..., T
        y[0] = g2, g4
        q = np.empty(n + 1)
        for i0, i1 in _blocks(n):
            t = t_stages[2 * i0:2 * i1 + 1]
            drive, P, dP, lin = self._coefficients(state, t)
            den = 1.0 + self.a + P
            # q = (z + P r) / (1 + a + P) = q_z z + q_r r, and
            #   dz/dt = (b + f') p - P' (S - mu) (q - r) - g1
            #   dr/dt = c r - P (q - r) - g3,
            # sign-flipped by the s = T - t substitution
            q_z, q_r = 1.0 / den, P / den
            c_drive = dP * drive
            M = _matrices(c_drive * q_z - lin * (1.0 - q_z),
                          lin * q_r + c_drive * (q_r - 1.0),
                          P * q_z, P * (q_r - 1.0) - self.c)
            g = np.stack(np.broadcast_arrays(g1_fn(t), g3_fn(t)), axis=1)
            y[i0:i1 + 1] = block = rk4_linear(M, g, y[i0], T / n)
            q[i0:i1 + 1] = q_z[::2] * block[:, 0] + q_r[::2] * block[:, 1]
        z, r, q = y[::-1, 0], y[::-1, 1], q[::-1]
        return T - np.linspace(0.0, T, n + 1)[::-1], q, z - q, r


def single_mode_system(a: float, b: float, c: float, potential: Potential,
                       proliferation: Proliferation):
    """One-point system whose operators are multiplication by a, b, c, paired
    with the SingleModeReduction that integrates it as an ODE system."""
    grid = midpoint_grid(1, math.pi)
    vec = np.array([[1.0 / math.sqrt(math.pi)]])

    def op(lam):
        return FractionalPower(SpectralBasis(np.array([lam]), vec, grid), 1.0)

    system = TumorSystem(grid=grid, op_A=op(a), op_B=op(b), op_C=op(c),
                         potential=potential, proliferation=proliferation)
    return system, SingleModeReduction(a=a, b=b, c=c, potential=potential,
                                       proliferation=proliferation)

