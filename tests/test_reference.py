import math

import numpy as np
import pytest
from scipy.linalg import expm

from tumorctrl import Potential, Proliferation
from tumorctrl.reference import SingleModeReduction, rk4, rk4_linear


def _stage_samples(M_fn, g_fn, T, n):
    stages = np.linspace(0.0, T, 2 * n + 1)
    return (np.array([M_fn(t) for t in stages]), np.array([g_fn(t) for t in stages]))


def test_rk4_linear_matches_rk4_on_time_varying_system():
    M_fn = lambda t: np.array([[-1.0 + math.sin(t), math.cos(2.0 * t)],
                               [0.3 * t, -0.5]])
    g_fn = lambda t: np.array([math.sin(3.0 * t), 1.0 + t * t])
    T, n, y0 = 2.0, 200, np.array([0.4, -1.1])
    M, g = _stage_samples(M_fn, g_fn, T, n)
    got = rk4_linear(M, g, y0, T / n)
    want = rk4(lambda t, y: M_fn(t) @ y + g_fn(t), y0, np.linspace(0.0, T, n + 1))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rk4_linear_is_fourth_order_against_expm():
    M0 = np.array([[-1.0, 2.0], [-0.5, -0.3]])
    g0 = np.array([0.3, -0.2])
    T, y0 = 1.0, np.array([1.0, 0.5])
    # y' = M y + g is the top block of the homogeneous system for (y, 1)
    aug = np.zeros((3, 3))
    aug[:2, :2], aug[:2, 2] = M0, g0
    exact = (expm(T * aug) @ np.append(y0, 1.0))[:2]

    def error(n):
        M, g = _stage_samples(lambda t: M0, lambda t: g0, T, n)
        return np.max(np.abs(rk4_linear(M, g, y0, T / n)[-1] - exact))

    ratio = error(20) / error(40)
    assert 14.0 <= ratio <= 18.0


# The references as first written: a Python right-hand side for the general
# ``rk4``, with every coefficient interpolated and evaluated inside each stage.

def _rk4_state(red, phi0, S0, u_fn, T, dt):
    times = np.linspace(0.0, T, int(round(T / dt)) + 1)

    def rhs(t, y):
        phi, S = y
        mu = red.mu_algebraic(phi, S)
        P = red.proliferation(phi)
        dphi = mu - red.b * phi - red.potential.f(phi)
        dS = -red.c * S - P * (S - mu) + u_fn(t)
        return np.array([dphi, dS])

    sol = rk4(rhs, np.array([phi0, S0]), times)
    phi, S = sol[:, 0], sol[:, 1]
    mu = red.mu_algebraic(phi, S)
    mu[0] = red.initial_mu(phi0, S0)
    return times, mu, phi, S


def _rk4_linearized(red, state, h_fn, T, dt):
    st_times, st_mu, st_phi, st_S = state
    times = np.linspace(0.0, T, int(round(T / dt)) + 1)
    pot, P_fun = red.potential, red.proliferation

    def coeffs(t):
        phi = np.interp(t, st_times, st_phi)
        drive = np.interp(t, st_times, st_S) - np.interp(t, st_times, st_mu)
        return phi, drive

    def eta_algebraic(t, xi, zeta):
        phi, drive = coeffs(t)
        P = P_fun(phi)
        lin = pot.df(phi) + red.b
        return (P * zeta + P_fun.d1(phi) * xi * drive + lin * xi) / (1.0 + red.a + P)

    def rhs(t, y):
        xi, zeta = y
        phi, drive = coeffs(t)
        P = P_fun(phi)
        eta = eta_algebraic(t, xi, zeta)
        dxi = eta - (red.b + pot.df(phi)) * xi
        dzeta = (-red.c * zeta - P * (zeta - eta)
                 - P_fun.d1(phi) * xi * drive + h_fn(t))
        return np.array([dxi, dzeta])

    sol = rk4(rhs, np.zeros(2), times)
    xi, zeta = sol[:, 0], sol[:, 1]
    eta = np.array([eta_algebraic(t, x, z) for t, x, z in zip(times, xi, zeta)])
    return times, eta, xi, zeta


def _rk4_adjoint(red, state, g1_fn, g3_fn, g2, g4, T, dt):
    st_times, st_mu, st_phi, st_S = state
    s_nodes = np.linspace(0.0, T, int(round(T / dt)) + 1)
    pot, P_fun = red.potential, red.proliferation

    def q_algebraic(t, z, r):
        P = P_fun(np.interp(t, st_times, st_phi))
        return (z + P * r) / (1.0 + red.a + P)

    def rhs(s, y):
        t = T - s
        z, r = y
        phi = np.interp(t, st_times, st_phi)
        drive = np.interp(t, st_times, st_S) - np.interp(t, st_times, st_mu)
        P = P_fun(phi)
        q = q_algebraic(t, z, r)
        p = z - q
        dz_dt = (red.b + pot.df(phi)) * p - P_fun.d1(phi) * drive * (q - r) - g1_fn(t)
        dr_dt = red.c * r - P * (q - r) - g3_fn(t)
        return np.array([-dz_dt, -dr_dt])

    sol = rk4(rhs, np.array([g2, g4]), s_nodes)
    times = T - s_nodes[::-1]
    z, r = sol[::-1, 0], sol[::-1, 1]
    q = np.array([q_algebraic(t, zv, rv) for t, zv, rv in zip(times, z, r)])
    return times, q, z - q, r


_MODELS = {
    "regular": (Potential.regular(), Proliferation()),
    "logarithmic": (Potential.logarithmic(c1=2.0), Proliferation(p0=2.0, p1=0.5)),
}


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_single_mode_references_match_rk4_formulation(model):
    red = SingleModeReduction(1.2, 0.9, 0.7, *_MODELS[model])
    T, dt = 0.5, 1e-3
    u_fn = lambda t: 0.3 * math.cos(2.0 * t)
    state = red.solve_state(0.2, 0.4, u_fn, T, dt)
    for got, want in zip(state, _rk4_state(red, 0.2, 0.4, u_fn, T, dt)):
        np.testing.assert_array_equal(got, want)

    ref_t, _, ref_phi, ref_S = state
    h_fn = lambda t: np.sin(t) + 0.5
    g1_fn = lambda t: np.interp(t, ref_t, ref_phi)
    g3_fn = lambda t: np.interp(t, ref_t, ref_S)
    terminal = (0.5 * float(ref_phi[-1]), 0.5 * float(ref_S[-1]))
    pairs = ((red.solve_linearized(state, h_fn, T, dt),
              _rk4_linearized(red, state, h_fn, T, dt)),
             (red.solve_adjoint(state, g1_fn, g3_fn, *terminal, T, dt),
              _rk4_adjoint(red, state, g1_fn, g3_fn, *terminal, T, dt)))
    for got, want in pairs:
        np.testing.assert_array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
