import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumorctrl import (ConfigError, config_from_dict, parse_config,
                       serialize_config)
from tumorctrl.config import config_to_dict

import yaml

BASE = {
    "domain": {"L": math.pi, "n_points": 8},
    "operators": {"rho": 0.75, "sigma": 0.6, "tau": 0.5,
                  "kind_A": "dirichlet_laplace",
                  "kind_B": "neumann_laplace",
                  "kind_C": "neumann_laplace"},
    "potential": {"kind": "regular"},
    "proliferation": {"p0": 0.5, "p1": 0.1},
    "initial_data": {"phi0": {"preset": "sine", "amplitude": 0.3, "mode": 1},
                     "S0": {"preset": "constant", "value": 0.4}},
    "time": {"T": 0.05, "n_steps": 20},
    "solver": {"newton_tol": 1e-10, "newton_max_iter": 50, "damping": 0.95,
               "scheme": "semi_implicit_P", "split_f2_explicit": False},
    "cost": {"kappas": [1.0, 0.0, 1.0, 0.0, 1.0],
             "targets": {"phi_Q": {"preset": "zero"}, "S_Q": {"preset": "zero"},
                         "phi_Omega": {"preset": "zero"},
                         "S_Omega": {"preset": "zero"}},
             "bounds": {"u_min": -1.0, "u_max": 1.0}},
    "control": {"preset": "constant", "value": 0.2},
    "optimizer": {"step0": 1.0, "armijo_c": 1e-4, "shrink": 0.5,
                  "max_iters": 10, "tol": 1e-6},
    "output_dir": "runs/test",
    "seed": 0,
}


def deep(overrides):
    import copy
    d = copy.deepcopy(BASE)
    for path, value in overrides.items():
        parts = path.split(".")
        node = d
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    return d


def test_round_trip_is_exact(tmp_path):
    cfg = config_from_dict(BASE)
    text = serialize_config(cfg)
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    again = parse_config(path)
    assert config_to_dict(again) == config_to_dict(cfg)
    assert again == cfg


def test_builders_produce_consistent_objects():
    cfg = config_from_dict(BASE)
    system = cfg.build_system()
    assert system.n_points == 8
    assert abs(system.grid.L - math.pi) <= 1e-15
    tg = cfg.build_time_grid()
    assert tg.n_steps == 20 and abs(tg.dt - 0.0025) <= 1e-15
    phi0, S0 = cfg.build_initial_data(system)
    assert np.max(np.abs(phi0 - 0.3 * np.sin(system.grid.points))) <= 1e-12
    assert np.allclose(S0, 0.4)
    u = cfg.build_control(system)
    assert u.shape == (20, 8)
    assert np.allclose(u, 0.2)
    spec = cfg.build_problem_spec(system)
    assert spec.kappas[0] == 1.0 and spec.kappas[4] == 1.0


def test_negative_kappa_rejected_with_path():
    with pytest.raises(ConfigError, match="cost.kappas"):
        config_from_dict(deep({"cost.kappas": [1.0, -0.5, 1.0, 0.0, 1.0]}))


def test_neumann_rejected_for_invertible_operator():
    with pytest.raises(ConfigError, match="kind_A"):
        config_from_dict(deep({"operators.kind_A": "neumann_laplace"}))


def test_bad_exponent_rejected():
    with pytest.raises(ConfigError, match="rho"):
        config_from_dict(deep({"operators.rho": -0.3}))


def test_bounds_ordering_enforced():
    with pytest.raises(ConfigError, match="bounds"):
        config_from_dict(deep({"cost.bounds": {"u_min": 1.0, "u_max": -1.0}}))


def test_missing_section_reports_key():
    bad = deep({})
    del bad["time"]
    with pytest.raises(ConfigError, match="time"):
        config_from_dict(bad)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="^initial_data.phi0.preset: "):
        config_from_dict(deep({"initial_data.phi0": {"preset": "sawtooth"}}))


def test_initial_data_outside_potential_domain_rejected():
    with pytest.raises(ConfigError, match="^initial_data.phi0: "):
        config_from_dict(deep({
            "potential": {"kind": "logarithmic", "c1": 2.0},
            "initial_data.phi0": {"preset": "constant", "value": 1.5},
        }))


def test_yaml_precision_preserved(tmp_path):
    # decimals survive text round trips at full double precision
    d = deep({"solver.newton_tol": 3.141592653589793e-11})
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(d))
    cfg = parse_config(path)
    assert cfg.solver.newton_tol == 3.141592653589793e-11


def _at(node, path):
    for part in path:
        node = node[part]
    return node


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_DELETE = object()
_SCALARS = st.one_of(st.floats(), st.integers(), st.just(10**400), st.none(),
                     st.booleans(), st.text(max_size=4))
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


_BUILDERS = ("build_time_grid", "build_solver_config", "build_optimizer_options")
_SYSTEM_BUILDERS = ("build_initial_data", "build_problem_spec", "build_control")
# every mapping of BASE, the top level first, so that an edit can add a key to it
_SECTIONS = [()] + sorted(p for p in _key_paths(BASE) if isinstance(_at(BASE, p), dict))
_INSERTED = st.tuples(st.sampled_from(_SECTIONS), st.text(max_size=4)).map(
    lambda sk: sk[0] + (sk[1],))


@settings(deadline=None, max_examples=1000)
@given(edits=st.lists(st.tuples(st.one_of(st.sampled_from(sorted(_key_paths(BASE))),
                                          _INSERTED),
                                st.one_of(_SCALARS, _VALUES, st.just(_DELETE))),
                      min_size=1, max_size=3))
def test_fuzzed_config_raises_only_config_error(edits):
    # replaces, deletes or inserts entries of a valid config; config_from_dict
    # evaluates the presets on at most 2**14 points, and what it accepts at a
    # small size every builder builds
    raw = copy.deepcopy(BASE)
    for path, value in edits:
        node = raw
        for part in path[:-1]:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if value is _DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    if cfg.n_points <= 64 and cfg.n_steps <= 200:
        system = cfg.build_system()
        for name in _BUILDERS:
            getattr(cfg, name)()
        for name in _SYSTEM_BUILDERS:
            getattr(cfg, name)(system)


@pytest.mark.parametrize("section", _SECTIONS, ids=lambda p: ".".join(p) or "top")
def test_unknown_key_rejected_in_every_section(section):
    raw = copy.deepcopy(BASE)
    _at(raw, section)["bogus"] = 1
    where = ".".join(section + ("bogus",))
    with pytest.raises(ConfigError, match="^" + re.escape(where) + ": unknown key"):
        config_from_dict(raw)


_FLOAT_FIELDS = (("domain", "L"), ("operators", "rho"), ("operators", "sigma"),
                 ("operators", "tau"), ("potential", "c1"), ("proliferation", "p0"),
                 ("proliferation", "p1"), ("initial_data", "phi0", "amplitude"),
                 ("initial_data", "S0", "value"), ("time", "T"),
                 ("solver", "newton_tol"), ("solver", "damping"),
                 ("cost", "bounds", "u_min"), ("cost", "bounds", "u_max"),
                 ("control", "value"), ("optimizer", "step0"),
                 ("optimizer", "armijo_c"), ("optimizer", "shrink"), ("optimizer", "tol"))


@settings(deadline=None, max_examples=300)
@given(path=st.sampled_from(_FLOAT_FIELDS + (("cost", "kappas"),)), value=st.booleans(),
       index=st.integers(0, 4))
def test_float_fields_reject_booleans(path, value, index):
    raw = copy.deepcopy(BASE)
    if path[-1] == "kappas":  # each weight is a float field
        value = [value if i == index else 0.0 for i in range(5)]
    _at(raw, path[:-1])[path[-1]] = value
    with pytest.raises(ConfigError, match="^" + re.escape(".".join(path)) + ": "):
        config_from_dict(raw)


_INSIDE = st.floats(-0.9, 0.9)  # inside every potential's domain


def _presets(n_points, inside=_INSIDE):
    """Preset mappings with values in `inside`."""
    return st.one_of(
        st.just({"preset": "zero"}),
        st.builds(lambda v: {"preset": "constant", "value": v}, inside),
        st.builds(lambda p, a, m: {"preset": p, "amplitude": a, "mode": m},
                  st.sampled_from(["sine", "cosine"]), inside, st.integers(0, 9)),
        st.builds(lambda v: {"preset": "values", "values": v},
                  st.lists(inside, min_size=n_points, max_size=n_points)))


@st.composite
def _valid_configs(draw):
    n = draw(st.integers(1, 12))
    weight = st.floats(0.0, 10.0)
    lo, hi = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2)))
    raw = {
        "domain": {"L": draw(st.floats(0.5, 10.0)), "n_points": n},
        "operators": {"rho": draw(st.floats(0.1, 2.0)), "sigma": draw(st.floats(0.1, 2.0)),
                      "tau": draw(st.floats(0.1, 2.0)), "n_modes": draw(st.integers(1, n))},
        "potential": draw(st.one_of(
            st.just({"kind": "regular"}),
            st.builds(lambda c1: {"kind": "logarithmic", "c1": c1}, st.floats(1.01, 5.0)))),
        "proliferation": {"p0": draw(weight), "p1": draw(weight)},
        "initial_data": {"phi0": draw(_presets(n)), "S0": draw(_presets(n, weight))},
        "time": {"T": draw(st.floats(0.01, 2.0)), "n_steps": draw(st.integers(1, 50))},
        "solver": {"newton_tol": draw(st.floats(1e-14, 1e-6)),
                   "damping": draw(st.floats(0.1, 1.0)),
                   "scheme": draw(st.sampled_from(["semi_implicit_P", "fully_implicit"])),
                   "split_f2_explicit": draw(st.booleans())},
        "cost": {"kappas": draw(st.lists(weight, min_size=5, max_size=5)),
                 "targets": {k: draw(_presets(n)) for k in
                             draw(st.sets(st.sampled_from(["phi_Q", "S_Q", "phi_Omega",
                                                           "S_Omega"])))},
                 "bounds": {"u_min": lo, "u_max": hi}},
        "control": draw(_presets(n)),
        "optimizer": {"step0": draw(st.floats(0.01, 10.0)),
                      "max_iters": draw(st.integers(0, 100))},
        "output_dir": draw(st.text("abc/_.0", min_size=1, max_size=8)),
        "seed": draw(st.integers(0, 2**32)),
    }
    return config_from_dict(raw)


@settings(deadline=None, max_examples=100)
@given(cfg=_valid_configs())
def test_config_round_trip(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict(yaml.safe_load(serialize_config(cfg))) == cfg


_INTEGER_FIELDS = (("domain", "n_points"), ("operators", "n_modes"),
                   ("initial_data", "phi0", "mode"), ("time", "n_steps"), ("seed",),
                   ("solver", "newton_max_iter"), ("optimizer", "max_iters"))


@settings(deadline=None, max_examples=300)
@given(path=st.sampled_from(_INTEGER_FIELDS),
       value=st.one_of(st.booleans(), st.floats().filter(lambda v: not v.is_integer())))
def test_integer_fields_reject_booleans_and_fractions(path, value):
    raw = copy.deepcopy(BASE)
    node = raw
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    with pytest.raises(ConfigError, match="^" + re.escape(".".join(path)) + ": "):
        config_from_dict(raw)


def test_integral_floats_are_integers():
    cfg = config_from_dict(deep({"seed": 3.0, "solver.newton_max_iter": 7.0}))
    assert cfg.seed == 3 and type(cfg.seed) is int
    assert cfg.build_solver_config().newton_max_iter == 7
