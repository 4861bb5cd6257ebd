"""Experiment configuration: the YAML file read once into typed objects.

Every run is described by one YAML file.  The keys of a section are the
fields of the class it builds: Potential, Proliferation, SolverConfig,
OptimizerOptions, a Preset per spatial field, and ExperimentConfig's own
flat fields, which _PATHS places in the file.  Each default and each
requirement lives in its class alone.  One reader converts every value by
its field's type, so an unknown key, a boolean in a numeric field and a
class's ValueError ("<field>: ...") are all ConfigErrors at the key path.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from typing import get_type_hints

import numpy as np
import yaml

from .control import OptimizerOptions
from .errors import ConfigError
from .model import Potential, Proliferation
from .problem import ControlProblemSpec
from .spectral import FractionalPower, QuadratureGrid, build_basis, midpoint_grid
from .state import SolverConfig, TimeGrid
from .system import TumorSystem

_OPERATOR_KINDS = ("dirichlet_laplace", "neumann_laplace")
# the operators are dense N x N matrices, 2 GB each at this many points
_MAX_POINTS = 2**14
# the keys each preset reads, with their defaults
_PRESETS = {"zero": {}, "constant": {"value": 0.0},
            "sine": {"amplitude": 1.0, "mode": 1},
            "cosine": {"amplitude": 1.0, "mode": 1}, "values": {"values": ()}}


@dataclass(frozen=True)
class Preset:
    """A spatial profile: the preset's name and only the keys that preset reads."""

    preset: str = "zero"
    value: float = None
    amplitude: float = None
    mode: int = None
    values: tuple = None

    def __post_init__(self):
        # each message starts with the offending field's name
        if self.preset not in _PRESETS:
            raise ValueError(f"preset: unknown preset {self.preset!r}")
        reads = _PRESETS[self.preset]
        for name in ("value", "amplitude", "mode", "values"):
            if name in reads and getattr(self, name) is None:
                object.__setattr__(self, name, reads[name])
            elif name not in reads and getattr(self, name) is not None:
                raise ValueError(f"{name}: unknown key for preset {self.preset!r}")

    def on(self, grid: QuadratureGrid) -> np.ndarray:
        """The profile at the grid points."""
        x = grid.points
        if self.preset in ("sine", "cosine"):
            wave = np.sin if self.preset == "sine" else np.cos
            return self.amplitude * wave(self.mode * math.pi * x / grid.L)
        if self.preset == "values":
            return np.array(self.values, dtype=float)
        return np.zeros_like(x) if self.preset == "zero" else np.full_like(x, self.value)


@dataclass(frozen=True)
class Targets:
    """The tracking targets of the cost functional."""

    phi_Q: Preset = Preset()
    S_Q: Preset = Preset()
    phi_Omega: Preset = Preset()
    S_Omega: Preset = Preset()


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A run's settings; _PATHS gives each field's key path in the YAML file."""

    L: float
    n_points: int
    rho: float
    sigma: float
    tau: float
    kind_A: str = "dirichlet_laplace"
    kind_B: str = "neumann_laplace"
    kind_C: str = "neumann_laplace"
    potential: Potential = Potential()
    proliferation: Proliferation = Proliferation()
    phi0_spec: Preset = Preset()
    S0_spec: Preset = Preset()
    T: float
    n_steps: int
    solver: SolverConfig = SolverConfig()
    kappas: tuple = (0.0, 0.0, 0.0, 0.0, 1.0)
    targets: Targets = Targets()
    u_min: float = -1.0
    u_max: float = 1.0
    control_spec: Preset = Preset()
    optimizer: OptimizerOptions = OptimizerOptions()
    output_dir: str = "runs/out"
    seed: int = 0

    def __post_init__(self):
        # each message starts with the offending field's name
        if not 1e-100 <= self.L <= 1e100:  # keeps each (j pi / L)^2 a normal float
            raise ValueError("L: must lie between 1e-100 and 1e100")
        for name in ("rho", "sigma", "tau", "T"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be finite and positive")
        if not 1 <= self.n_points <= _MAX_POINTS:
            raise ValueError(f"n_points: must be between 1 and {_MAX_POINTS}")
        if self.n_steps < 1:
            raise ValueError("n_steps: must be at least 1")
        if self.seed < 0:
            raise ValueError("seed: must be nonnegative")
        for name in ("kind_A", "kind_B", "kind_C"):
            if getattr(self, name) not in _OPERATOR_KINDS:
                raise ValueError(f"{name}: unknown kind {getattr(self, name)!r}")
        if self.kind_A == "neumann_laplace":
            raise ValueError(
                "kind_A: the first operator needs a strictly positive first "
                "eigenvalue (lambda_1 > 0); the constant Neumann mode breaks this")
        if len(self.kappas) != 5 or not all(0.0 <= k < math.inf for k in self.kappas):
            raise ValueError("kappas: expected five finite weights kappa_i >= 0")
        if not self.u_min <= self.u_max:
            raise ValueError("u_min: admissibility requires u_min <= u_max")
        grid = midpoint_grid(self.n_points, self.L)
        for name, preset in self._presets():
            with np.errstate(all="ignore"):
                vals = preset.on(grid)
            if vals.shape != grid.points.shape:
                raise ValueError(f"{name}.values: expected {self.n_points} entries")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name}: values must be finite")
            if name == "phi0_spec" and not self.potential.admits(vals):
                raise ValueError(f"{name}: values must lie in the open interval "
                                 f"{self.potential.bounds} that the potential evaluates")

    def _presets(self):
        yield from (("phi0_spec", self.phi0_spec), ("S0_spec", self.S0_spec),
                    ("control_spec", self.control_spec))
        for f in fields(Targets):
            yield f"targets.{f.name}", getattr(self.targets, f.name)

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def build_system(self) -> TumorSystem:
        grid = midpoint_grid(self.n_points, self.L)
        op = {}
        for name, kind, expo in (("A", self.kind_A, 2 * self.rho),
                                 ("B", self.kind_B, 2 * self.sigma),
                                 ("C", self.kind_C, 2 * self.tau)):
            basis = build_basis(kind, grid)
            op[name] = FractionalPower(basis, expo)
        return TumorSystem(grid=grid, op_A=op["A"], op_B=op["B"], op_C=op["C"],
                           potential=self.potential, proliferation=self.proliferation)

    def build_time_grid(self) -> TimeGrid:
        return TimeGrid(T=self.T, n_steps=self.n_steps)

    def build_solver_config(self) -> SolverConfig:
        return self.solver

    def build_initial_data(self, system: TumorSystem):
        return self.phi0_spec.on(system.grid), self.S0_spec.on(system.grid)

    def build_problem_spec(self, system: TumorSystem) -> ControlProblemSpec:
        grid, tg = system.grid, self.targets
        shape = (self.n_steps + 1, self.n_points)
        return ControlProblemSpec(
            kappas=np.asarray(self.kappas, dtype=float),
            phi_Q=np.broadcast_to(tg.phi_Q.on(grid), shape),
            S_Q=np.broadcast_to(tg.S_Q.on(grid), shape),
            phi_Omega=tg.phi_Omega.on(grid),
            S_Omega=tg.S_Omega.on(grid),
            u_min=np.full(self.n_points, self.u_min),
            u_max=np.full(self.n_points, self.u_max),
        )

    def build_control(self, system: TumorSystem) -> np.ndarray:
        """Initial/simulation control: a spatial profile held constant in time."""
        return np.tile(self.control_spec.on(system.grid), (self.n_steps, 1))

    def build_optimizer_options(self) -> OptimizerOptions:
        return self.optimizer


# where each ExperimentConfig field sits in the YAML file
_PATHS = {name: tuple(path.split(".")) for name, path in {
    "L": "domain.L", "n_points": "domain.n_points", "rho": "operators.rho",
    "sigma": "operators.sigma", "tau": "operators.tau",
    "kind_A": "operators.kind_A", "kind_B": "operators.kind_B",
    "kind_C": "operators.kind_C", "potential": "potential",
    "proliferation": "proliferation", "phi0_spec": "initial_data.phi0",
    "S0_spec": "initial_data.S0", "T": "time.T", "n_steps": "time.n_steps",
    "solver": "solver", "kappas": "cost.kappas", "targets": "cost.targets",
    "u_min": "cost.bounds.u_min", "u_max": "cost.bounds.u_max",
    "control_spec": "control", "optimizer": "optimizer",
    "output_dir": "output_dir", "seed": "seed"}.items()}
_FIELD_AT = {path: name for name, path in _PATHS.items()}
_SECTIONS = {path[:i] for path in _PATHS.values() for i in range(len(path))}
_EXPECTED = {float: "a number", int: "an integer", bool: "true or false",
             str: "a string", tuple: "a list of numbers"}


# the config keys of a class: its fields, with their types
_settings = cache(get_type_hints)


def _build(cls, given: dict, path_of):
    """cls from the raw values given, each converted by its field's type (the
    defaults live in cls alone).  A key that names no field, a value of the
    wrong type and cls's ValueError ("<field>: ...") are ConfigErrors at
    path_of(field)."""
    kinds = _settings(cls)
    kwargs = {}
    for key, val in given.items():
        if key not in kinds:
            raise ConfigError(f"{path_of(key)}: unknown key")
        kwargs[key] = _convert(kinds[key], val, path_of(key))
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING:
            raise ConfigError(f"{path_of(f.name)}: missing required key")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        head, colon, rest = str(exc).partition(":")
        name, dot, sub = head.partition(".")
        raise ConfigError(f"{path_of(name)}{dot}{sub}{colon}{rest}") from exc


def _convert(kind, val, path: str):
    """val as a value of the field type kind; a boolean only where kind is bool."""
    if is_dataclass(kind):
        if isinstance(val, dict):
            return _build(kind, val, lambda key: f"{path}.{key}")
    elif kind is tuple:
        if isinstance(val, (list, tuple)):
            return tuple(_convert(float, v, path) for v in val)
    elif isinstance(val, bool) != (kind is bool):
        pass
    elif kind in (int, float):
        with suppress(TypeError, ValueError, OverflowError):
            num = float(val)  # an int too large for a float overflows
            if kind is float:
                return num
            if num.is_integer() and not isinstance(val, str):
                return int(val)
    elif isinstance(val, kind):
        return val
    raise ConfigError(f"{path}: expected {_EXPECTED.get(kind, 'a mapping')}, got {val!r}")


def _gather(node, path: tuple, out: dict) -> dict:
    """out[field] = the raw value at each field's key path under node."""
    if not isinstance(node, dict):
        raise ConfigError(f"{'.'.join(path) or 'top level'}: expected a mapping")
    for key, val in node.items():
        where = path + (key,)
        if where in _FIELD_AT:
            out[_FIELD_AT[where]] = val
        elif where in _SECTIONS:
            _gather(val, where, out)
        else:
            raise ConfigError(f"{'.'.join(map(str, where))}: unknown key")
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, _gather(raw, (), {}),
                  lambda name: ".".join(_PATHS[name]))


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return config_from_dict(raw)


def _dump(value):
    """value as YAML data: a dataclass as the mapping of its set config keys."""
    if is_dataclass(value):
        return {name: _dump(getattr(value, name)) for name in _settings(type(value))
                if getattr(value, name) is not None}
    return list(value) if isinstance(value, tuple) else value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for name, (*sections, key) in _PATHS.items():
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = _dump(getattr(cfg, name))
    return out


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
