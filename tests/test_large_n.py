"""Forward and adjoint solves of the default physics at N = 256, 512 and 1024.

The residuals recomputed from the stored solutions stay under scale-aware
bounds of the form perfbench's output checks use,

    c u (|K| max(|x_k|) + (|phi_k| + |phi_{k-1}| + |S_k| + |S_{k-1}|) / dt + |data_k|),

with |K| the largest scaled eigenvalue of the three operators, so that no fixed
1e-8 or 1e-9 caps the grid size.
"""

from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from tumorctrl import (FULLY_IMPLICIT, SEMI_IMPLICIT_P, DegenerateSystemError,
                       adjoint_residuals, initial_mu, parse_config, pde_residuals,
                       solve_adjoint, solve_forward)

U = np.finfo(float).eps / 2
SIZES = (256, 512, 1024)
N_STEPS = 8


def _wnorm(w, a):
    return np.sqrt(np.sum(w * a * a, axis=-1))


@lru_cache(maxsize=None)
def _setup(N):
    default = parse_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    cfg = replace(default, n_points=N, T=N_STEPS * 1e-3, n_steps=N_STEPS)
    system = cfg.build_system()
    phi0, S0 = cfg.build_initial_data(system)
    u = np.broadcast_to(cfg.build_control(system), (N_STEPS, N))
    return cfg, system, phi0, S0, u


@lru_cache(maxsize=None)
def _forward(N, scheme):
    cfg, system, phi0, S0, u = _setup(N)
    solver = replace(cfg.build_solver_config(), scheme=scheme)
    return solve_forward(system, cfg.build_time_grid(), u, phi0, S0, solver), solver


@pytest.fixture(scope="module", autouse=True)
def _release_large_runs():
    yield
    _setup.cache_clear()
    _forward.cache_clear()


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT_P, FULLY_IMPLICIT])
@pytest.mark.parametrize("N", SIZES)
def test_forward_residuals_under_scale_aware_bound(N, scheme):
    _, system, _, _, u = _setup(N)
    traj, solver = _forward(N, scheme)
    w, dt = system.grid.weights, float(traj.times[1] - traj.times[0])
    size = np.maximum.reduce([_wnorm(w, traj.mu[1:]), _wnorm(w, traj.phi[1:]),
                              _wnorm(w, traj.S[1:])])
    rate = (_wnorm(w, traj.phi[1:]) + _wnorm(w, traj.phi[:-1])
            + _wnorm(w, traj.S[1:]) + _wnorm(w, traj.S[:-1])) / dt
    # at least twice the round-off floor at which Newton accepts a step
    bound = solver.newton_tol + 8 * U * (system.op_norm * size + rate + _wnorm(w, u))
    assert np.all(pde_residuals(system, traj, u) <= bound[:, None])
    assert np.max(traj.newton_iterations) <= 4


@pytest.mark.parametrize("N", [
    256, 512,
    pytest.param(1024, marks=pytest.mark.xfail(strict=True, reason=(
        "one refinement sweep of the adjoint step leaves its q + p equation "
        "at about 553 u of the scale"))),
])
def test_adjoint_residuals_under_scale_aware_bound(N):
    cfg, system, _, _, _ = _setup(N)
    traj, _ = _forward(N, SEMI_IMPLICIT_P)
    tg, spec = cfg.build_time_grid(), cfg.build_problem_spec(system)
    adj = solve_adjoint(system, tg, traj, spec)
    w = system.grid.weights
    size = np.maximum.reduce([_wnorm(w, adj.q), _wnorm(w, adj.p), _wnorm(w, adj.r)])
    zp = _wnorm(w, adj.q + adj.p) + _wnorm(w, adj.r)
    rate = np.append(zp[:-1] + zp[1:], zp[-1]) / tg.dt
    k = spec.kappas
    data = (k[0] * _wnorm(w, traj.phi - spec.phi_Q) + k[2] * _wnorm(w, traj.S - spec.S_Q)
            + k[1] * _wnorm(w, traj.phi[-1] - spec.phi_Omega)
            + k[3] * _wnorm(w, traj.S[-1] - spec.S_Omega))
    # the benchmark's adjoint output check: 100 eps = 200 u
    bound = 1e-13 + 200 * U * (system.op_norm * size + rate + data)
    assert np.all(adjoint_residuals(system, tg, adj, traj, spec) <= bound[:, None])


@pytest.mark.parametrize("N", SIZES)
def test_corrupted_power_plus_mult_solution_rejected(N, monkeypatch):
    _, system, phi0, S0, _ = _setup(N)
    initial_mu(system, phi0, S0)  # the true solution passes
    solve = np.linalg.solve

    def corrupted(K, b):
        x = solve(K, b)
        x[N // 3] += 1e-9 * np.max(np.abs(x))
        return x

    monkeypatch.setattr(np.linalg, "solve", corrupted)
    with pytest.raises(DegenerateSystemError, match="residual check"):
        initial_mu(system, phi0, S0)
