"""Workloads of the tumorctrl benchmark: inputs, operations and output checks.

Input generation (``make_inputs``) uses only numpy and yaml, so run.py's
own process never imports tumorctrl.  Everything else runs inside a worker
process that has imported tumorctrl from the checkout's ``src``.

Each workload turns a seed into a config file (plus a control array file for
the library workload).  The program sees only those files.  One operation is one
CLI call or one library chain; its outputs are checked after the timer stops.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import yaml

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Frozen copy of configs/default.yaml as it was when the benchmark was
# defined, so that later edits to the example config do not move the inputs.
BASE_CONFIG = {
    "domain": {"L": math.pi, "n_points": 32},
    "operators": {"rho": 0.75, "sigma": 0.6, "tau": 0.5,
                  "kind_A": "dirichlet_laplace", "kind_B": "neumann_laplace",
                  "kind_C": "neumann_laplace"},
    "potential": {"kind": "regular"},
    "proliferation": {"p0": 0.5, "p1": 0.1},
    "initial_data": {"phi0": {"preset": "sine", "amplitude": 0.3, "mode": 1},
                     "S0": {"preset": "constant", "value": 0.4}},
    "time": {"T": 0.25, "n_steps": 250},
    "solver": {"newton_tol": 1.0e-10, "newton_max_iter": 50, "damping": 0.95,
               "scheme": "semi_implicit_P", "split_f2_explicit": False},
    "cost": {"kappas": [1.0, 0.0, 1.0, 0.0, 1.0],
             "targets": {k: {"preset": "zero"}
                         for k in ("phi_Q", "S_Q", "phi_Omega", "S_Omega")},
             "bounds": {"u_min": -1.0, "u_max": 1.0}},
    "control": {"preset": "constant", "value": 0.2},
    "optimizer": {"step0": 1.0, "armijo_c": 1.0e-4, "shrink": 0.5,
                  "max_iters": 50, "tol": 1.0e-6},
    "output_dir": "runs/default",
    "seed": 0,
}

VERIFY_CHECKS = ("operator_algebra", "single_mode_state", "single_mode_linearized",
                 "single_mode_adjoint", "energy_identity", "energy_dissipation",
                 "frechet_slope", "gradient_consistency", "gradient_quadratic",
                 "viscosity_sweep", "stationarity", "separation")
VERIFY_RESULT_NAMES = ("operator_algebra", "single_mode_state", "single_mode_linearized",
                       "single_mode_adjoint", "energy_identity_rate",
                       "energy_dissipation", "frechet_slope", "gradient_consistency",
                       "gradient_quadratic", "viscosity_sweep", "stationarity",
                       "separation")

EPS = float(np.finfo(float).eps)
# The state solver accepts a Newton step at or below this residual when it
# stagnates at round-off (state.step's floor rule).
NEWTON_FLOOR = 1e-8
# Multiple of the unit round-off times the problem's scale that a residual
# recomputed from stored outputs may reach.
RESIDUAL_C = 100.0
VISCOUS_GAP_MAX = 1e-3
DUALITY_RTOL = 1e-9
VISCOSITY = 10**4


def _grid_points(n_points: int, L: float) -> np.ndarray:
    return (np.arange(n_points) + 0.5) * (L / n_points)


def _smooth_profile(rng: np.random.Generator, x: np.ndarray, L: float) -> list:
    """0.2 plus three low cosine modes with amplitudes drawn from the seed."""
    amps = rng.uniform(-0.1, 0.1, size=3)
    u = 0.2 + sum(a * np.cos((m + 1) * math.pi * x / L) for m, a in enumerate(amps))
    return [float(v) for v in u]


def _probe_controls(rng: np.random.Generator, times: np.ndarray, x: np.ndarray,
                    L: float):
    """Smooth base control u and direction h with phases drawn from the seed."""
    t = times[1:]
    th = rng.uniform(0.0, 2.0 * math.pi, size=4)
    sx, cx = np.sin(math.pi * x / L), np.cos(math.pi * x / L)
    u = 1.0 + 0.5 * np.outer(np.sin(3.0 * t + th[0]), cx)
    h = 2.0 * (np.outer(np.sin(2.0 * t + th[1]) + 1.2, sx)
               + np.outer(np.cos(5.0 * t + th[2]), cx))
    return u, h


# Sizes per workload: the full size the benchmark measures and a tiny size
# the self-test uses.  (n_points, T, n_steps)
SIZES = {
    "simulate-n64": {"full": (64, 1.0, 1000), "tiny": (8, 0.05, 20)},
    "sensitivity-n128": {"full": (128, 1.0, 200), "tiny": (8, 0.1, 20)},
    "verify-n32": {"full": (32, 0.25, 250), "tiny": (8, 0.25, 250)},
}


def make_inputs(workload: str, seed: int, size: str, directory: Path) -> dict:
    """Write the workload's input files; same seed and size, same bytes."""
    n_points, T, n_steps = SIZES[workload][size]
    rng = np.random.default_rng(seed)
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["domain"]["n_points"] = n_points
    cfg["time"] = {"T": T, "n_steps": n_steps}
    L = cfg["domain"]["L"]
    x = _grid_points(n_points, L)
    directory.mkdir(parents=True, exist_ok=True)
    files = {"config": directory / "config.yaml"}

    if workload == "simulate-n64":
        cfg["control"] = {"preset": "values", "values": _smooth_profile(rng, x, L)}
    elif workload == "sensitivity-n128":
        cfg["potential"] = {"kind": "logarithmic", "c1": 2.0}
        cfg["proliferation"] = {"p0": 2.0, "p1": 0.5}
        cfg["initial_data"] = {
            "phi0": {"preset": "values",
                     "values": [float(v) for v in 0.9 * np.sin(math.pi * x / L)]},
            "S0": {"preset": "values",
                   "values": [float(v) for v in 2.0 + 0.5 * np.cos(math.pi * x / L)]},
        }
        cfg["solver"]["scheme"] = "fully_implicit"
        u, h = _probe_controls(rng, np.linspace(0.0, T, n_steps + 1), x, L)
        # .npy rather than .npz: a zip archive stamps the time of writing
        files["controls"] = directory / "controls.npy"
        np.save(files["controls"], np.stack([u, h]))
    elif workload == "verify-n32":
        cfg["seed"] = seed
    else:
        raise KeyError(workload)
    files["config"].write_text(yaml.safe_dump(cfg, sort_keys=True))
    return {k: str(v) for k, v in files.items()}


def inputs_digest(files: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(files):
        digest.update(key.encode())
        digest.update(Path(files[key]).read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# worker side: everything below imports tumorctrl
# ----------------------------------------------------------------------

def _wnorm(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(w * a * a, axis=-1))


def _op_norm(system) -> float:
    return float(max(np.max(op.scaled_eigenvalues)
                     for op in (system.op_A, system.op_B, system.op_C)))


def state_residual_bound(system, traj, u) -> np.ndarray:
    """Per-step bound on pde_residuals: Newton floor plus c u (|K| |x| + |b|)."""
    w = system.grid.weights
    dt = float(traj.times[1] - traj.times[0])
    size = np.maximum.reduce([_wnorm(w, traj.mu[1:]), _wnorm(w, traj.phi[1:]),
                              _wnorm(w, traj.S[1:])])
    rate = (_wnorm(w, traj.phi[1:]) + _wnorm(w, traj.phi[:-1])
            + _wnorm(w, traj.S[1:]) + _wnorm(w, traj.S[:-1])) / dt
    return NEWTON_FLOOR + RESIDUAL_C * EPS * (_op_norm(system) * size + rate
                                              + _wnorm(w, u))


def adjoint_residual_bound(system, tg, adj, traj, spec) -> np.ndarray:
    """Per-node bound on adjoint_residuals for the linear backward solve."""
    w = system.grid.weights
    size = np.maximum.reduce([_wnorm(w, adj.q), _wnorm(w, adj.p), _wnorm(w, adj.r)])
    zp = _wnorm(w, adj.q + adj.p) + _wnorm(w, adj.r)
    rate = np.append(zp[:-1] + zp[1:], zp[-1]) / tg.dt
    k = spec.kappas
    data = (k[0] * _wnorm(w, traj.phi - spec.phi_Q) + k[2] * _wnorm(w, traj.S - spec.S_Q)
            + k[1] * _wnorm(w, traj.phi[-1] - spec.phi_Omega)
            + k[3] * _wnorm(w, traj.S[-1] - spec.S_Omega))
    return 1e-13 + RESIDUAL_C * EPS * (_op_norm(system) * size + rate + data)


class Context:
    """What one worker builds once (timed as set-up) and its operations reuse."""

    def __init__(self, workload: str, files: dict):
        import tumorctrl

        self.workload = workload
        self.files = files
        self.cfg = tumorctrl.parse_config(files["config"])
        self.system = self.cfg.build_system()
        for matrix in ("MA", "MB", "MC", "MA_half", "MB_half", "MC_half"):
            getattr(self.system, matrix)
        self.tg = self.cfg.build_time_grid()
        self.phi0, self.S0 = self.cfg.build_initial_data(self.system)
        self.spec = self.cfg.build_problem_spec(self.system)
        if "controls" in files:
            self.u, self.h = np.load(files["controls"])
        else:
            self.u = self.cfg.build_control(self.system)


def run_op(ctx: Context, out_dir: Path):
    """One operation of the workload; returns what check_op inspects."""
    import tumorctrl
    from tumorctrl import cli

    if ctx.workload == "sensitivity-n128":
        traj = tumorctrl.solve_forward(ctx.system, ctx.tg, ctx.u, ctx.phi0, ctx.S0,
                                       ctx.cfg.build_solver_config())
        lin = tumorctrl.solve_linearized(ctx.system, ctx.tg, traj, ctx.h)
        adj = tumorctrl.solve_adjoint(ctx.system, ctx.tg, traj, ctx.spec)
        visc = tumorctrl.solve_adjoint_viscous_galerkin(ctx.system, ctx.tg, traj,
                                                        ctx.spec, VISCOSITY)
        return {"traj": traj, "lin": lin, "adj": adj, "visc": visc}
    command = ctx.workload.split("-")[0]
    argv = [command, "--config", ctx.files["config"], "--out", str(out_dir), "--quiet"]
    return {"rc": cli.main(argv), "out": out_dir}


def check_op(ctx: Context, result) -> tuple:
    """Return (failure messages, summary values compared with the reference)."""
    checker = {"simulate-n64": _check_simulate, "sensitivity-n128": _check_sensitivity,
               "verify-n32": _check_verify}[ctx.workload]
    failures, summary = [], {}
    if result.get("rc", 0) != 0:
        return [f"exit code {result['rc']}"], summary
    checker(ctx, result, failures, summary)
    return failures, summary


def _check_residuals(ctx, traj, u, failures):
    import tumorctrl

    res = tumorctrl.pde_residuals(ctx.system, traj, u)
    bound = state_residual_bound(ctx.system, traj, u)
    if not np.all(np.isfinite(res)) or np.any(res > bound[:, None]):
        k = int(np.argmax(np.max(res, axis=1) / bound))
        failures.append(f"pde residual {np.max(res[k]):.3e} above bound "
                        f"{bound[k]:.3e} at step {k + 1}")


def _final_norms(ctx, traj, summary):
    w = ctx.system.grid.weights
    for name in ("phi", "S", "mu"):
        summary[f"{name}_T_norm"] = float(_wnorm(w, getattr(traj, name)[-1]))


def _check_simulate(ctx, result, failures, summary):
    import tumorctrl

    out = result["out"]
    traj = tumorctrl.load_trajectory(out / "trajectory.npz")
    if traj.n_steps != ctx.tg.n_steps:
        failures.append(f"trajectory has {traj.n_steps} steps")
        return
    _check_residuals(ctx, traj, ctx.u, failures)
    for name in ("mu", "phi", "S"):
        lines = (out / f"{name}.csv").read_text().splitlines()
        last = np.array([float(v) for v in lines[-1].split(",")])
        if (len(lines) != ctx.tg.n_steps + 2
                or not np.array_equal(last[1:], getattr(traj, name)[-1])):
            failures.append(f"{name}.csv disagrees with trajectory.npz")
    report = json.loads((out / "summary.json").read_text())
    energy = tumorctrl.discrete_energy(ctx.system, traj)
    if (report["n_steps"] != ctx.tg.n_steps
            or report["newton_iterations_total"] != int(np.sum(traj.newton_iterations))
            or not math.isclose(report["final_energy"], float(energy[-1]),
                                rel_tol=1e-12)):
        failures.append("summary.json disagrees with trajectory.npz")
    _final_norms(ctx, traj, summary)
    summary["final_energy"] = float(energy[-1])
    summary["max_mu_inf"] = float(report["max_mu_inf"])


def _check_sensitivity(ctx, result, failures, summary):
    import tumorctrl

    traj, lin, adj, visc = result["traj"], result["lin"], result["adj"], result["visc"]
    system, tg, spec = ctx.system, ctx.tg, ctx.spec
    w = system.grid.weights
    _check_residuals(ctx, traj, ctx.u, failures)
    res = tumorctrl.adjoint_residuals(system, tg, adj, traj, spec)
    bound = adjoint_residual_bound(system, tg, adj, traj, spec)
    if not np.all(np.isfinite(res)) or np.any(res > bound[:, None]):
        k = int(np.argmax(np.max(res, axis=1) / bound))
        failures.append(f"adjoint residual {np.max(res[k]):.3e} above bound "
                        f"{bound[k]:.3e} at node {k}")
    gap = float(np.sqrt(np.max(_wnorm(w, visc.q - adj.q) ** 2
                               + _wnorm(w, visc.p - adj.p) ** 2
                               + _wnorm(w, visc.r - adj.r) ** 2)))
    if not gap <= VISCOUS_GAP_MAX:
        failures.append(f"viscous-direct adjoint gap {gap:.3e} > {VISCOUS_GAP_MAX:.0e}")
    # The directional derivative of the cost along h, once through the
    # linearized state and once through the adjoint gradient.
    k1, k2, k3, k4, k5 = spec.kappas
    dt = tg.dt
    via_lin = (dt * np.sum(w * (k1 * (traj.phi[:-1] - spec.phi_Q[:-1]) * lin.xi[:-1]
                                + k3 * (traj.S[:-1] - spec.S_Q[:-1]) * lin.zeta[:-1]))
               + k2 * np.sum(w * (traj.phi[-1] - spec.phi_Omega) * lin.xi[-1])
               + k4 * np.sum(w * (traj.S[-1] - spec.S_Omega) * lin.zeta[-1])
               + k5 * dt * np.sum(w * ctx.u * ctx.h))
    via_adj = tumorctrl.control_inner(system, tg,
                                      tumorctrl.reduced_gradient(ctx.u, adj, spec), ctx.h)
    if not abs(via_lin - via_adj) <= DUALITY_RTOL * max(abs(via_adj), 1e-300):
        failures.append(f"linearized derivative {float(via_lin)!r} disagrees with "
                        f"the adjoint gradient pairing {via_adj!r}")
    _final_norms(ctx, traj, summary)
    summary["xi_T_norm"] = float(_wnorm(w, lin.xi[-1]))
    summary["zeta_T_norm"] = float(_wnorm(w, lin.zeta[-1]))
    summary["p0_norm"] = float(_wnorm(w, adj.p[0]))
    summary["r0_norm"] = float(_wnorm(w, adj.r[0]))
    summary["derivative"] = float(via_adj)
    summary["viscous_gap"] = gap


def _check_verify(ctx, result, failures, summary):
    records = json.loads((result["out"] / "verify.json").read_text())
    names = tuple(r["name"] for r in records)
    if names != VERIFY_RESULT_NAMES:
        failures.append(f"verify.json lists checks {names}")
    for r in records:
        if not r["passed"]:
            failures.append(f"verify check {r['name']} failed (value {r['value']:.3e})")
        if r["name"] in REFERENCE_VERIFY_VALUES:
            summary[r["name"]] = float(r["value"])


# Values compared with the reference at the default seed, with their relative
# tolerance.  Loose enough for reformulated linear algebra that moves the
# trajectories by about 1e-12, tight enough to catch a wrong solver.
# Round-off-level verify values (operator algebra, dissipation, quadratic
# gradient, stationarity) are left out: they carry no signal at this level.
REFERENCE_VERIFY_VALUES = ("single_mode_state", "single_mode_linearized",
                           "single_mode_adjoint", "energy_identity_rate",
                           "frechet_slope", "gradient_consistency",
                           "viscosity_sweep", "separation")
REFERENCE_RTOL = {"sensitivity-n128": {"viscous_gap": 1e-4},
                  "verify-n32": {name: 1e-3 for name in REFERENCE_VERIFY_VALUES}}
DEFAULT_RTOL = 1e-7


def load_reference(workload: str) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


def compare_reference(workload: str, summary: dict, reference: dict) -> list:
    failures = []
    rtols = REFERENCE_RTOL.get(workload, {})
    for key, expected in sorted(reference.items()):
        got = summary.get(key)
        rtol = rtols.get(key, DEFAULT_RTOL)
        if got is None or not math.isclose(got, expected, rel_tol=rtol, abs_tol=1e-300):
            failures.append(f"{key} = {got!r} differs from the reference {expected!r} "
                            f"by more than {rtol:.0e}")
    return failures
