import copy
import math

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
    cfg = config_from_dict(deep({"initial_data.phi0": {"preset": "sawtooth"}}))
    with pytest.raises(ConfigError, match="preset"):
        cfg.build_initial_data(cfg.build_system())


def test_initial_data_outside_potential_domain_rejected():
    with pytest.raises(ConfigError):
        cfg = config_from_dict(deep({
            "potential": {"kind": "logarithmic", "c1": 2.0},
            "initial_data.phi0": {"preset": "constant", "value": 1.5},
        }))
        cfg.build_initial_data(cfg.build_system())


def test_yaml_precision_preserved(tmp_path):
    # decimals survive text round trips at full double precision
    d = deep({"solver.newton_tol": 3.141592653589793e-11})
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(d))
    cfg = parse_config(path)
    assert cfg.solver["newton_tol"] == 3.141592653589793e-11


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


@settings(deadline=None, max_examples=1000)
@given(edits=st.lists(st.tuples(st.sampled_from(sorted(_key_paths(BASE))),
                                st.one_of(_SCALARS, _VALUES, st.just(_DELETE))),
                      min_size=1, max_size=3))
def test_fuzzed_config_raises_only_config_error(edits):
    # replaces or deletes entries of a valid config; config_from_dict only
    # validates, so no fuzzed size allocates anything
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
        config_from_dict(raw)
    except ConfigError:
        pass
