"""Independent single-mode references for cross-checking the PDE solvers.

With one retained mode per operator (realized on a one-point grid) every
operator is a scalar, the chemical-potential equation becomes algebraic, and
the state, linearized, and adjoint systems reduce to small ODE systems.
These are integrated here with classic fixed-step RK4 at a much finer step,
giving reference trajectories accurate far beyond the implicit Euler error
being measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Potential, Proliferation
from .spectral import FractionalPower, build_basis, midpoint_grid
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

    def mu_algebraic(self, phi, S):
        """mu = (b phi + f(phi) + P(phi) S) / (1 + a + P(phi))."""
        P = self.proliferation(phi)
        return (self.b * phi + self.potential.f(phi) + P * S) / (1.0 + self.a + P)

    def initial_mu(self, phi0, S0):
        P = self.proliferation(phi0)
        return P * S0 / (self.a + P)

    def solve_state(self, phi0: float, S0: float, u_fn, T: float,
                    dt: float = 1e-4):
        """Returns (times, mu, phi, S) on a uniform fine grid."""
        n = int(round(T / dt))
        times = np.linspace(0.0, T, n + 1)

        def rhs(t, y):
            phi, S = y
            mu = self.mu_algebraic(phi, S)
            P = self.proliferation(phi)
            dphi = mu - self.b * phi - self.potential.f(phi)
            dS = -self.c * S - P * (S - mu) + u_fn(t)
            return np.array([dphi, dS])

        sol = rk4(rhs, np.array([phi0, S0]), times)
        phi, S = sol[:, 0], sol[:, 1]
        mu = self.mu_algebraic(phi, S)
        mu[0] = self.initial_mu(phi0, S0)
        return times, mu, phi, S

    # ------------------------------------------------------------------
    # linearized system along an interpolated reference state
    # ------------------------------------------------------------------

    def solve_linearized(self, state, h_fn, T: float, dt: float = 1e-4):
        """state = (times, mu, phi, S) arrays; returns (times, eta, xi, zeta)."""
        st_times, st_mu, st_phi, st_S = state
        n = int(round(T / dt))
        times = np.linspace(0.0, T, n + 1)
        pot, P_fun = self.potential, self.proliferation

        def coeffs(t):
            phi = np.interp(t, st_times, st_phi)
            drive = np.interp(t, st_times, st_S) - np.interp(t, st_times, st_mu)
            return phi, drive

        def eta_algebraic(t, xi, zeta):
            phi, drive = coeffs(t)
            P = P_fun(phi)
            lin = pot.df(phi) + self.b
            return (P * zeta + P_fun.d1(phi) * xi * drive + lin * xi) / (1.0 + self.a + P)

        def rhs(t, y):
            xi, zeta = y
            phi, drive = coeffs(t)
            P = P_fun(phi)
            eta = eta_algebraic(t, xi, zeta)
            dxi = eta - (self.b + pot.df(phi)) * xi
            dzeta = (-self.c * zeta - P * (zeta - eta)
                     - P_fun.d1(phi) * xi * drive + h_fn(t))
            return np.array([dxi, dzeta])

        sol = rk4(rhs, np.zeros(2), times)
        xi, zeta = sol[:, 0], sol[:, 1]
        eta = np.array([eta_algebraic(t, x, z) for t, x, z in zip(times, xi, zeta)])
        return times, eta, xi, zeta

    # ------------------------------------------------------------------
    # adjoint system, integrated backward in the variable s = T - t
    # ------------------------------------------------------------------

    def solve_adjoint(self, state, g1_fn, g3_fn, g2: float, g4: float,
                      T: float, dt: float = 1e-4):
        """Returns (times, q, p, r) with terminal data (q+p)(T)=g2, r(T)=g4."""
        st_times, st_mu, st_phi, st_S = state
        n = int(round(T / dt))
        s_nodes = np.linspace(0.0, T, n + 1)
        pot, P_fun = self.potential, self.proliferation

        def q_algebraic(t, z, r):
            phi = np.interp(t, st_times, st_phi)
            P = P_fun(phi)
            return (z + P * r) / (1.0 + self.a + P)

        def rhs(s, y):
            t = T - s
            z, r = y
            phi = np.interp(t, st_times, st_phi)
            drive = np.interp(t, st_times, st_S) - np.interp(t, st_times, st_mu)
            P = P_fun(phi)
            q = q_algebraic(t, z, r)
            p = z - q
            # backward equations, sign-flipped by the s = T - t substitution
            dz_dt = (self.b + pot.df(phi)) * p - P_fun.d1(phi) * drive * (q - r) - g1_fn(t)
            dr_dt = self.c * r - P * (q - r) - g3_fn(t)
            return np.array([-dz_dt, -dr_dt])

        sol = rk4(rhs, np.array([g2, g4]), s_nodes)
        times = T - s_nodes[::-1]
        z = sol[::-1, 0]
        r = sol[::-1, 1]
        q = np.array([q_algebraic(t, zv, rv) for t, zv, rv in zip(times, z, r)])
        return times, q, z - q, r


def single_mode_system(a: float, b: float, c: float, potential: Potential,
                       proliferation: Proliferation):
    """One-point system whose operators are multiplication by a, b, c, paired
    with the SingleModeReduction that integrates it as an ODE system."""
    grid = midpoint_grid(1, math.pi)
    vec = np.array([[1.0 / math.sqrt(math.pi)]])

    def op(lam):
        basis = build_basis("custom", 1, grid, eigenvalues=np.array([lam]),
                            eigvecs=vec)
        return FractionalPower(basis, 1.0)

    system = TumorSystem(grid=grid, op_A=op(a), op_B=op(b), op_C=op(c),
                         potential=potential, proliferation=proliferation)
    return system, SingleModeReduction(a=a, b=b, c=c, potential=potential,
                                       proliferation=proliferation)


def exponential_integral_r(c: float, g3_fn, T: float, times: np.ndarray,
                           quad_n: int = 2000) -> np.ndarray:
    """r(t) = int_t^T exp(-c (s - t)) g3(s) ds for the decoupled nutrient adjoint."""
    out = np.empty(times.size)
    for i, t in enumerate(times):
        s = np.linspace(t, T, quad_n + 1)
        vals = np.exp(-c * (s - t)) * np.asarray([g3_fn(sv) for sv in s])
        out[i] = np.trapezoid(vals, s)
    return out
