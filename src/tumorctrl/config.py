"""Experiment configuration: YAML schema, validation, and object builders.

Every run is described by one YAML file.  Validation errors carry the key
path of the offending entry and name the violated model requirement (for
example nonnegative cost weights, ordered control bounds, or initial data
inside the potential domain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .control import OptimizerOptions
from .errors import ConfigError
from .model import Potential, Proliferation
from .problem import ControlProblemSpec
from .spectral import FractionalPower, build_basis, midpoint_grid
from .state import SolverConfig, TimeGrid
from .system import TumorSystem

_OPERATOR_KINDS = ("dirichlet_laplace", "neumann_laplace")
_FIELD_PRESETS = ("zero", "constant", "sine", "cosine", "values")


@dataclass(frozen=True)
class ExperimentConfig:
    L: float
    n_points: int
    n_modes: int
    rho: float
    sigma: float
    tau: float
    kind_A: str
    kind_B: str
    kind_C: str
    potential: dict
    proliferation: dict
    phi0_spec: dict
    S0_spec: dict
    T: float
    n_steps: int
    solver: dict
    kappas: tuple
    targets: dict
    u_min: float
    u_max: float
    control_spec: dict
    optimizer: dict
    output_dir: str
    seed: int

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def build_system(self) -> TumorSystem:
        grid = midpoint_grid(self.n_points, self.L)
        op = {}
        for name, kind, expo in (("A", self.kind_A, 2 * self.rho),
                                 ("B", self.kind_B, 2 * self.sigma),
                                 ("C", self.kind_C, 2 * self.tau)):
            basis = build_basis(kind, self.n_modes, grid)
            op[name] = FractionalPower(basis, expo)
        if self.potential.get("kind", "regular") == "regular":
            potential = Potential.regular()
        else:
            potential = Potential.logarithmic(c1=float(self.potential.get("c1", 2.0)))
        prolif = Proliferation(p0=float(self.proliferation.get("p0", 0.5)),
                               p1=float(self.proliferation.get("p1", 0.1)))
        return TumorSystem(grid=grid, op_A=op["A"], op_B=op["B"], op_C=op["C"],
                           potential=potential, proliferation=prolif)

    def build_time_grid(self) -> TimeGrid:
        return TimeGrid(T=self.T, n_steps=self.n_steps)

    def build_solver_config(self) -> SolverConfig:
        return _settings("solver", SolverConfig, self.solver)

    def build_initial_data(self, system: TumorSystem):
        x = system.grid.points
        phi0 = _eval_preset(self.phi0_spec, x, self.L, "initial_data.phi0")
        S0 = _eval_preset(self.S0_spec, x, self.L, "initial_data.S0")
        a, b = system.potential.domain
        if np.any(phi0 <= a) or np.any(phi0 >= b):
            raise ConfigError(
                "initial_data.phi0: values must lie in a compact subinterval of "
                f"the potential domain ({a}, {b})")
        return phi0, S0

    def build_problem_spec(self, system: TumorSystem) -> ControlProblemSpec:
        x = system.grid.points
        tg = self.targets

        def spatial(key):
            return _eval_preset(tg.get(key, {"preset": "zero"}), x, self.L,
                                f"cost.targets.{key}")

        phi_Q = spatial("phi_Q")
        S_Q = spatial("S_Q")
        return ControlProblemSpec(
            kappas=np.asarray(self.kappas, dtype=float),
            phi_Q=np.broadcast_to(phi_Q, (self.n_steps + 1, self.n_points)),
            S_Q=np.broadcast_to(S_Q, (self.n_steps + 1, self.n_points)),
            phi_Omega=spatial("phi_Omega"),
            S_Omega=spatial("S_Omega"),
            u_min=np.full(self.n_points, self.u_min),
            u_max=np.full(self.n_points, self.u_max),
        )

    def build_control(self, system: TumorSystem) -> np.ndarray:
        """Initial/simulation control: a spatial profile held constant in time."""
        profile = _eval_preset(self.control_spec, system.grid.points, self.L,
                               "control")
        return np.tile(profile, (self.n_steps, 1))

    def build_optimizer_options(self) -> OptimizerOptions:
        return _settings("optimizer", OptimizerOptions, self.optimizer)


def _settings(section: str, cls, given: dict):
    """cls from the keys the YAML gives, each converted like its field's default
    (the defaults live in cls alone); a key that names no field, a value of the
    wrong kind and cls's ValueError ("<field>: ...") are ConfigErrors at section."""
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, val in given.items():
        if key not in defaults:
            raise ConfigError(f"{section}.{key}: unknown key")
        kind = type(defaults[key])
        if kind is bool and not isinstance(val, bool):
            raise ConfigError(f"{section}.{key}: expected true or false, got {val!r}")
        if kind is int:
            val = _integer(given, key, section)
        elif kind is float:
            val = _number(given, key, section, None)
        kwargs[key] = val
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _eval_preset(spec: dict, x: np.ndarray, L: float, path: str) -> np.ndarray:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'preset' key")
    preset = spec.get("preset", "zero")
    if preset not in _FIELD_PRESETS:
        raise ConfigError(f"{path}.preset: unknown preset {preset!r}")
    if preset == "zero":
        vals = np.zeros_like(x)
    elif preset == "constant":
        vals = np.full_like(x, _number(spec, "value", path, 0.0))
    elif preset == "values":
        try:
            vals = np.asarray(spec.get("values", []), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.values: expected a list of numbers") from exc
        if vals.shape != x.shape:
            raise ConfigError(f"{path}.values: expected {x.size} entries")
    else:
        amp = _number(spec, "amplitude", path, 1.0)
        mode = _integer(spec, "mode", path, 1)
        arg = mode * math.pi * x / L
        vals = amp * (np.sin(arg) if preset == "sine" else np.cos(arg))
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{path}: values must be finite")
    return vals


# ----------------------------------------------------------------------
# parsing / serialization
# ----------------------------------------------------------------------

def _require(mapping, key, path, types, default=None):
    where = f"{path}.{key}".lstrip(".")
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing required key")
    val = mapping[key]
    if not isinstance(val, types):
        raise ConfigError(f"{where}: expected {types}, got {type(val).__name__}")
    return val


def _number(mapping, key, path, default):
    """mapping[key] converted to float, default when absent."""
    where = f"{path}.{key}".lstrip(".")
    val = mapping.get(key, default)
    try:
        return float(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected a number, got {val!r}") from exc


def _integer(mapping, key, path, default=None):
    """mapping[key] as an int: an integer or an integral float, never a boolean;
    default when absent, and a required key when default is None."""
    where = f"{path}.{key}".lstrip(".")
    if key not in mapping and default is None:
        raise ConfigError(f"{where}: missing required key")
    val = mapping.get(key, default)
    if isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}: expected an integer, got {val!r}")
    return val


def _finite(mapping, key, path, default=None):
    """mapping[key] as a finite float; a required int or float when default is None."""
    if default is None:
        _require(mapping, key, path, (int, float))
    val = _number(mapping, key, path, default)
    if not math.isfinite(val):
        raise ConfigError(f"{path}.{key}: must be finite, got {val!r}")
    return val


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")

    dom = _require(raw, "domain", "", dict)
    L = _finite(dom, "L", "domain")
    n_points = _integer(dom, "n_points", "domain")
    if not L > 0 or n_points < 1:
        raise ConfigError("domain: need L > 0 and n_points >= 1")

    ops = _require(raw, "operators", "", dict)
    rho, sigma, tau = (_finite(ops, k, "operators") for k in ("rho", "sigma", "tau"))
    if not min(rho, sigma, tau) > 0:
        raise ConfigError("operators: exponents rho, sigma, tau must be positive")
    n_modes = _integer(ops, "n_modes", "operators", n_points)
    if not 1 <= n_modes <= n_points:
        raise ConfigError("operators.n_modes: must be between 1 and n_points")
    kinds = {}
    for name in ("A", "B", "C"):
        kind = ops.get(f"kind_{name}",
                       "dirichlet_laplace" if name == "A" else "neumann_laplace")
        if kind not in _OPERATOR_KINDS:
            raise ConfigError(f"operators.kind_{name}: unknown kind {kind!r}")
        kinds[name] = kind
    if kinds["A"] == "neumann_laplace":
        raise ConfigError(
            "operators.kind_A: the first operator needs a strictly positive "
            "first eigenvalue (lambda_1 > 0); the constant Neumann mode breaks this")

    pot = _require(raw, "potential", "", dict, {"kind": "regular"})
    pot_kind = _require(pot, "kind", "potential", str, default="regular")
    if pot_kind not in ("regular", "logarithmic"):
        raise ConfigError(f"potential.kind: unknown kind {pot_kind!r}")
    if pot_kind == "logarithmic" and not _finite(pot, "c1", "potential", 2.0) > 1.0:
        raise ConfigError("potential.c1: the logarithmic potential requires c1 > 1")

    prolif = _require(raw, "proliferation", "", dict, {})
    if not (_finite(prolif, "p0", "proliferation", 0.5) >= 0
            and _finite(prolif, "p1", "proliferation", 0.1) >= 0):
        raise ConfigError(
            "proliferation: requires a nonnegative bounded rate (p0, p1 >= 0)")

    init = _require(raw, "initial_data", "", dict, {})
    phi0_spec = _require(init, "phi0", "initial_data", dict, {"preset": "zero"})
    S0_spec = _require(init, "S0", "initial_data", dict, {"preset": "zero"})

    tsec = _require(raw, "time", "", dict)
    T = _finite(tsec, "T", "time")
    n_steps = _integer(tsec, "n_steps", "time")
    if not T > 0 or n_steps < 1:
        raise ConfigError("time: need T > 0 and n_steps >= 1")

    cost = _require(raw, "cost", "", dict, {})
    try:
        kappas = tuple(float(k) for k in cost.get("kappas", (0, 0, 0, 0, 1.0)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("cost.kappas: expected a list of numbers") from exc
    if len(kappas) != 5:
        raise ConfigError("cost.kappas: expected exactly five weights")
    if not all(0 <= k < math.inf for k in kappas):
        raise ConfigError("cost.kappas: the weights must be finite and satisfy kappa_i >= 0")
    targets = _require(cost, "targets", "cost", dict, {})
    bounds = _require(cost, "bounds", "cost", dict, {})
    u_min = _number(bounds, "u_min", "cost.bounds", -1.0)
    u_max = _number(bounds, "u_max", "cost.bounds", 1.0)
    if not u_min <= u_max:
        raise ConfigError("cost.bounds: admissibility requires u_min <= u_max")

    cfg = ExperimentConfig(
        L=L, n_points=n_points, n_modes=n_modes, rho=rho, sigma=sigma, tau=tau,
        kind_A=kinds["A"], kind_B=kinds["B"], kind_C=kinds["C"],
        potential=dict(pot), proliferation=dict(prolif),
        phi0_spec=dict(phi0_spec), S0_spec=dict(S0_spec),
        T=T, n_steps=n_steps, solver=dict(_require(raw, "solver", "", dict, {})),
        kappas=kappas, targets={k: dict(_require(targets, k, "cost.targets", dict))
                                for k in targets},
        u_min=u_min, u_max=u_max,
        control_spec=dict(_require(raw, "control", "", dict, {"preset": "zero"})),
        optimizer=dict(_require(raw, "optimizer", "", dict, {})),
        output_dir=str(raw.get("output_dir", "runs/out")),
        seed=_integer(raw, "seed", "", 0),
    )
    # the solver and optimizer settings are checked by the objects they build
    cfg.build_solver_config()
    cfg.build_optimizer_options()
    return cfg


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "domain": {"L": cfg.L, "n_points": cfg.n_points},
        "operators": {"rho": cfg.rho, "sigma": cfg.sigma, "tau": cfg.tau,
                      "n_modes": cfg.n_modes, "kind_A": cfg.kind_A,
                      "kind_B": cfg.kind_B, "kind_C": cfg.kind_C},
        "potential": cfg.potential or {"kind": "regular"},
        "proliferation": cfg.proliferation,
        "initial_data": {"phi0": cfg.phi0_spec, "S0": cfg.S0_spec},
        "time": {"T": cfg.T, "n_steps": cfg.n_steps},
        "solver": cfg.solver,
        "cost": {"kappas": list(cfg.kappas), "targets": cfg.targets,
                 "bounds": {"u_min": cfg.u_min, "u_max": cfg.u_max}},
        "control": cfg.control_spec,
        "optimizer": cfg.optimizer,
        "output_dir": cfg.output_dir,
        "seed": cfg.seed,
    }


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
