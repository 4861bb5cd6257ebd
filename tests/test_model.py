import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumorctrl import (DomainViolationError, Potential, Proliferation,
                       separation_interval)


@pytest.fixture(scope="module")
def reg():
    return Potential.regular()


@pytest.fixture(scope="module")
def log_pot():
    return Potential.logarithmic(c1=2.0)


def test_regular_values(reg):
    assert abs(reg.F(0.0) - 0.25) <= 1e-15
    assert reg.f(1.0) == 0.0
    assert reg.f(0.0) == 0.0
    assert reg.df(0.0) == -1.0


def test_logarithmic_values(log_pot):
    assert abs(log_pot.F(0.0)) <= 1e-15
    assert abs(log_pot.f(0.0)) <= 1e-15


_POTENTIALS = {
    "regular": Potential.regular(),
    "logarithmic": Potential.logarithmic(c1=2.0),
    "regular_finite": Potential(kind="regular", domain=(-2.0, 1.5)),
}
_ARGUMENTS = [0.0, 0.5, -0.999, 1.0, -1.0, 1.0 - 1e-12, 1.0 - 2e-12, -1.0 + 1e-13,
              1.5, -2.0, 1.5 - 1e-15, 3.0, math.inf, -math.inf, math.nan,
              np.array([]), np.array([0.1, -0.2, 0.3]), np.array([0.1, 1.5]),
              np.array([[0.0, math.nan], [-0.5, 0.2]]), np.array([[0.0, 2.5]]),
              np.array([0.0, -math.inf]), np.array([-2.0, 0.0])]


def _rejected_by_two_any_calls(potential, s):
    """The domain predicate of the original guard: two module-level np.any
    calls for the regular kind, one on |s| for the logarithmic kind."""
    s = np.asarray(s, dtype=float)
    a, b = potential.domain
    if potential.kind == "logarithmic":
        return bool(np.any(np.abs(s) >= 1.0 - 1e-12))
    return bool(np.any(s <= a) or np.any(s >= b))


@pytest.mark.parametrize("s", _ARGUMENTS,
                         ids=lambda s: str(np.asarray(s).tolist()).replace(" ", ""))
@pytest.mark.parametrize("name", sorted(_POTENTIALS))
def test_domain_check_matches_two_any_predicate(name, s):
    potential = _POTENTIALS[name]
    if _rejected_by_two_any_calls(potential, s):
        with pytest.raises(DomainViolationError):
            potential._check(s)
    else:
        out = potential._check(s)
        np.testing.assert_array_equal(out, np.asarray(s, dtype=float))


def test_logarithmic_domain_guard(log_pot):
    with pytest.raises(DomainViolationError):
        log_pot.f(1.0 - 1e-13)
    with pytest.raises(DomainViolationError):
        log_pot.F(np.array([0.0, -1.0]))
    # comfortably interior points evaluate fine
    assert np.isfinite(log_pot.f(0.999))


@pytest.mark.parametrize("pot_name", ["reg", "log_pot"])
def test_derivatives_match_finite_differences(pot_name, request):
    pot = request.getfixturevalue(pot_name)
    pts = np.linspace(-0.85, 0.85, 11)
    h = 1e-6
    df_fd = (pot.f(pts + h) - pot.f(pts - h)) / (2 * h)
    assert np.max(np.abs(df_fd - pot.df(pts)) / np.maximum(np.abs(pot.df(pts)), 1)) <= 1e-5
    d2f_fd = (pot.df(pts + h) - pot.df(pts - h)) / (2 * h)
    assert np.max(np.abs(d2f_fd - pot.d2f(pts)) / np.maximum(np.abs(pot.d2f(pts)), 1)) <= 1e-5


def test_split_values(reg):
    f1, f2 = reg.split_f(0.0)
    assert f1 == 0.0 and f2 == 0.0
    f1, f2 = reg.split_f(1.0)
    expected = 2.0 / (3.0 * math.sqrt(3.0))
    assert abs(f1 - expected) <= 1e-10
    assert abs(f2 + expected) <= 1e-10
    assert abs(expected - 0.3849002) < 1e-7


@pytest.mark.parametrize("pot_name", ["reg", "log_pot"])
def test_split_reconstruction_and_monotonicity(pot_name, request):
    pot = request.getfixturevalue(pot_name)
    pts = np.linspace(-0.9, 0.9, 1000)
    f1, f2 = pot.split_f(pts)
    assert np.max(np.abs(f1 + f2 - pot.f(pts))) <= 1e-10
    assert np.all(np.diff(f1) >= -1e-12)  # f1 nondecreasing
    # f2 has bounded slope (Lipschitz part)
    slopes = np.diff(f2) / np.diff(pts)
    assert np.max(np.abs(slopes)) < 10.0


def test_regular_quadratic_lower_bound(reg):
    s = np.linspace(-5, 5, 2001)
    assert np.all(reg.F(s) >= 0.125 * s * s - 1.0)


def test_proliferation_defaults():
    P = Proliferation(p0=0.5, p1=0.1)
    assert abs(P(0.0) - 0.6) <= 1e-15
    assert P.d1(0.0) == 0.0
    s = np.linspace(-10, 10, 401)
    assert np.all(P(s) >= 0.0)
    assert np.all(P(s) <= 0.6 + 1e-15)


@settings(deadline=None, max_examples=30)
@given(st.floats(-10, 10))
def test_proliferation_derivative_consistency(s):
    P = Proliferation(p0=0.7, p1=0.2)
    h = 1e-6
    fd = (P(s + h) - P(s - h)) / (2 * h)
    assert abs(fd - P.d1(s)) <= 1e-5 * max(1.0, abs(P.d1(s)))


def test_proliferation_validation():
    with pytest.raises(ValueError):
        Proliferation(p0=-1.0, p1=0.0)


def test_separation_regular_exact_root():
    # z^3 - z = 6 has the exact real root z = 2
    reg = Potential.regular()
    interval = separation_interval(reg, 6.0, -0.9, 0.9)
    assert abs(interval.b_M - 2.0) <= 1e-9
    assert abs(interval.a_M + 2.0) <= 1e-9
    assert abs(reg.f(interval.b_M) - 6.0) <= 1e-8


def test_separation_logarithmic_stays_inside():
    log_pot = Potential.logarithmic(c1=2.0)
    interval = separation_interval(log_pot, 10.0, -0.5, 0.5)
    assert interval.b_M < 1.0
    assert interval.a_M > -1.0
    # beyond b_M the derivative really exceeds the level
    zs = np.linspace(interval.b_M + 1e-8, 1.0 - 1e-9, 50)
    assert np.all(log_pot.f(zs) >= 10.0 - 1e-6)


def test_separation_interval_already_sufficient():
    reg = Potential.regular()
    interval = separation_interval(reg, 6.0, -2.5, 2.5)  # f(2.5) = 13.125 > 6
    assert interval.b_M == 2.5
    assert interval.a_M == -2.5


def test_separation_requires_positive_level():
    with pytest.raises(ValueError):
        separation_interval(Potential.regular(), 0.0, -0.5, 0.5)
