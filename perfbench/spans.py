"""Spans for the benchmark's traced run, recorded around tumorctrl's layers.

``install`` replaces the public functions of each tumorctrl module (and
``numpy.linalg.solve``/``inv``, ``numpy.savetxt``) with wrappers that record
one span per call: name, start, end, parent span and operation id.  Nothing
inside ``src/`` changes; the wrappers exist only in a traced worker process.
Spans stay in memory in flat arrays, are written out when the run ends, and
``per_layer_metrics`` derives self times and the per-layer metrics from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from functools import cached_property

import numpy as np

from workloads import VERIFY_CHECKS

LAYERS = ("config", "spectral", "model", "state", "linalg", "linearized",
          "adjoint", "control", "verify", "reference", "cli")

# Every per-layer metric of the traced run, with its unit.  A layer a
# workload does not exercise reports 0.
PER_LAYER_UNITS = {
    "config.load_s": "s", "config.build_system_s": "s", "spectral.matrix_s": "s",
    "spectral.shifted_solve_calls": "count", "spectral.shifted_solve_s": "s",
    "state.forward_solves": "count", "state.steps": "count",
    "state.step_ms_p50": "ms", "state.step_ms_p99": "ms",
    "state.newton_iters_per_step": "count", "state.steps_per_s": "1/s",
    "linalg.solve_calls": "count", "linalg.solve_s": "s",
    "linalg.inv_calls": "count", "linalg.inv_s": "s",
    "linalg.flop_computed": "flop", "linalg.share": "ratio",
    "linearized.solves": "count", "linearized.step_ms": "ms",
    "adjoint.solves": "count", "adjoint.step_ms": "ms",
    "adjoint.viscous_solves": "count", "adjoint.viscous_step_ms": "ms",
    "control.iterations": "count", "control.trial_solves": "count",
    "control.accept_ratio": "ratio", "control.forward_share": "ratio",
    "control.adjoint_share": "ratio",
    "model.potential_calls": "count", "model.potential_s": "s",
    "model.proliferation_calls": "count", "model.proliferation_s": "s",
    "reference.rk4_s": "s",
    **{f"verify.check_s.{check}": "s" for check in VERIFY_CHECKS},
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio", "ops_failed_frac": "ratio",
}


class Tracer:
    """Span store.  Recording is on only while ``op_id`` is non-negative."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")  # a count the span carries, e.g. Newton iterations
        self._stack: list[int] = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, extra=None):
        """Return fn recording a span per call; extra(result, args) -> float."""
        nid = self.name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.extra.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if extra is not None:
                self.extra[sid] = extra(out, args)
            return out

        return traced

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "extra": np.frombuffer(self.extra, dtype=float)}

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(json.dumps(self.names)), **self.arrays())


def _solve_flop(out, args) -> float:
    n = np.shape(args[0])[-1]
    b = np.asarray(args[1])
    k = 1 if b.ndim == 1 else b.shape[-1]
    return 2.0 * n**3 / 3.0 + 2.0 * n * n * k


def _inv_flop(out, args) -> float:
    return 2.0 * float(np.shape(args[0])[-1]) ** 3


def _n_steps(out, args) -> float:
    return float(out.n_steps)


def install(tracer: Tracer) -> None:
    """Replace tumorctrl's layer entry points by span-recording wrappers."""
    from tumorctrl import (adjoint, cli, config, control, linearized, model,
                           reference, spectral, state, verify)

    modules = [m for name, m in sys.modules.items()
               if name == "tumorctrl" or name.startswith("tumorctrl.")]

    def function(owner, attr, name, extra=None):
        """Wrap owner.attr and every tumorctrl module's reference to it."""
        orig = getattr(owner, attr)
        new = tracer.wrap(name, orig, extra)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, new)

    def method(cls, attr, name):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    function(config, "parse_config", "config.load")
    method(config.ExperimentConfig, "build_system", "config.build_system")
    for attr in ("build_time_grid", "build_initial_data", "build_problem_spec",
                 "build_control", "build_solver_config", "build_optimizer_options"):
        method(config.ExperimentConfig, attr, "config.build")

    function(spectral, "build_basis", "spectral.build_basis")
    function(spectral, "solve_power_plus_mult", "spectral.shifted_solve")
    matrix = cached_property(tracer.wrap("spectral.matrix",
                                         spectral.FractionalPower.matrix.func))
    matrix.__set_name__(spectral.FractionalPower, "matrix")
    spectral.FractionalPower.matrix = matrix

    for attr in ("F", "f", "df", "d2f", "f1", "df1", "df2", "split_f"):
        method(model.Potential, attr, "model.potential")
    for attr in ("__call__", "d1", "d2"):
        method(model.Proliferation, attr, "model.proliferation")

    function(state, "solve_forward", "state.forward")
    function(state, "step", "state.step", extra=lambda out, args: float(out[3]))
    for attr in ("pde_residuals", "discrete_energy", "energy_identity_residual"):
        function(state, attr, "state.diagnostics")

    function(linearized, "solve_linearized", "linearized.solve", extra=_n_steps)
    function(linearized, "frechet_remainder_probe", "linearized.probe")

    function(adjoint, "solve_adjoint", "adjoint.solve", extra=_n_steps)
    function(adjoint, "solve_adjoint_viscous_galerkin", "adjoint.viscous", extra=_n_steps)
    function(adjoint, "viscosity_sweep", "adjoint.sweep")

    function(control, "projected_gradient_descent", "control.optimize",
             extra=lambda out, args: float(out.n_iterations))
    function(control, "cost_eval", "control.cost")
    function(control, "fd_gradient_check", "control.fd_check")

    function(verify, "run_verification", "verify.run")
    for check in VERIFY_CHECKS:
        function(verify, f"check_{check}", f"verify.check.{check}")

    function(reference, "rk4", "reference.rk4")

    function(cli, "main", "cli.main")
    for attr in ("save_trajectory", "export_trajectory_csv", "_write_json"):
        function(cli, attr, "cli.write")
    np.savetxt = tracer.wrap("cli.write", np.savetxt)

    np.linalg.solve = tracer.wrap("linalg.solve", np.linalg.solve, extra=_solve_flop)
    np.linalg.inv = tracer.wrap("linalg.inv", np.linalg.inv, extra=_inv_flop)


def per_layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from the set-up spans (op 0) and n_ops traced operations
    (op ids >= 1)."""
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_time = dur - child
    layer = np.array([n.split(".")[0] for n in tracer.names] or [""])[a["name"]]
    in_op = a["op"] >= 1
    in_setup = a["op"] == 0
    parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)

    def mask(name, where=in_op):
        return where & (a["name"] == ids.get(name, -1))

    def per_op(values):
        return float(np.sum(values)) / n_ops

    def share(part, whole):
        return part / whole if whole > 0 else 0.0

    m = {}
    m["config.load_s"] = float(np.sum(dur[mask("config.load", in_setup)]))
    m["config.build_system_s"] = float(np.sum(dur[mask("config.build_system", in_setup)]))
    m["spectral.matrix_s"] = float(np.sum(dur[mask("spectral.matrix", in_setup)]))
    m["spectral.shifted_solve_calls"] = per_op(mask("spectral.shifted_solve"))
    m["spectral.shifted_solve_s"] = per_op(dur[mask("spectral.shifted_solve")])

    steps = mask("state.step")
    step_ms = 1e3 * dur[steps]
    m["state.forward_solves"] = per_op(mask("state.forward"))
    m["state.steps"] = per_op(steps)
    m["state.step_ms_p50"] = float(np.percentile(step_ms, 50)) if step_ms.size else 0.0
    m["state.step_ms_p99"] = float(np.percentile(step_ms, 99)) if step_ms.size else 0.0
    m["state.newton_iters_per_step"] = share(float(np.sum(a["extra"][steps])),
                                             float(step_ms.size))
    m["state.steps_per_s"] = share(float(step_ms.size), float(np.sum(dur[steps])))

    op_time = float(np.sum(dur[mask("bench.op")]))
    linalg_time = 0.0
    flop = 0.0
    for kind in ("solve", "inv"):
        sel = mask(f"linalg.{kind}")
        m[f"linalg.{kind}_calls"] = per_op(sel)
        m[f"linalg.{kind}_s"] = per_op(dur[sel])
        linalg_time += float(np.sum(dur[sel]))
        flop += float(np.sum(a["extra"][sel]))
    m["linalg.flop_computed"] = round(flop / n_ops)
    m["linalg.share"] = share(linalg_time, op_time)

    for name, calls_key, ms_key in (
            ("linearized.solve", "linearized.solves", "linearized.step_ms"),
            ("adjoint.solve", "adjoint.solves", "adjoint.step_ms"),
            ("adjoint.viscous", "adjoint.viscous_solves", "adjoint.viscous_step_ms")):
        sel = mask(name)
        m[calls_key] = per_op(sel)
        # span time over the time steps the solves covered
        m[ms_key] = share(1e3 * float(np.sum(dur[sel])), float(np.sum(a["extra"][sel])))

    opt = mask("control.optimize")
    under_opt = in_op & (parent_name == ids.get("control.optimize", -2))
    forward_in_opt = under_opt & (a["name"] == ids.get("state.forward", -1))
    adjoint_in_opt = under_opt & (a["name"] == ids.get("adjoint.solve", -1))
    opt_time = float(np.sum(dur[opt]))
    iterations = float(np.sum(a["extra"][opt]))
    trials = float(np.sum(forward_in_opt)) - float(np.sum(opt))
    m["control.iterations"] = iterations / n_ops
    m["control.trial_solves"] = trials / n_ops
    m["control.accept_ratio"] = share(iterations, trials)
    m["control.forward_share"] = share(float(np.sum(dur[forward_in_opt])), opt_time)
    m["control.adjoint_share"] = share(float(np.sum(dur[adjoint_in_opt])), opt_time)

    for kind in ("potential", "proliferation"):
        sel = mask(f"model.{kind}")
        m[f"model.{kind}_calls"] = per_op(sel)
        m[f"model.{kind}_s"] = per_op(self_time[sel])
    m["reference.rk4_s"] = per_op(dur[mask("reference.rk4")])
    for check in VERIFY_CHECKS:
        m[f"verify.check_s.{check}"] = per_op(dur[mask(f"verify.check.{check}")])

    write_id = ids.get("cli.write", -1)
    outer_write = mask("cli.write") & (parent_name != write_id)
    m["cli.write_s"] = per_op(dur[outer_write])
    for name in LAYERS:
        m[f"{name}.self_s"] = per_op(self_time[in_op & (layer == name)])
    return m
