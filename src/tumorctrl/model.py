"""Double-well potentials, proliferation rates, and the separation interval.

The regular potential F(r) = (r^2 - 1)^2 / 4 lives on the whole line; the
logarithmic one, (1+r)ln(1+r) + (1-r)ln(1-r) - c1 r^2 with c1 > 1, on (-1, 1)
with f = F' blowing up at the endpoints.  f splits as f1 + f2 with
f1(s) = int_0^s (f')^+ monotone nondecreasing and f2 Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainViolationError, NoSeparationIntervalError

_LOG_GUARD = 1e-12


@dataclass(frozen=True)
class Potential:
    """Local free energy F with derivative f on an open interval (a, b)."""

    kind: str
    domain: tuple
    c1: float = 2.0

    def __post_init__(self):
        a, b = self.domain
        if self.kind not in ("regular", "logarithmic"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not a < 0.0 < b:
            raise ValueError("the potential domain must contain 0")
        if self.kind == "logarithmic" and not self.c1 > 1.0:
            raise ValueError("the logarithmic potential requires c1 > 1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def regular(cls) -> "Potential":
        return cls(kind="regular", domain=(-math.inf, math.inf))

    @classmethod
    def logarithmic(cls, c1: float = 2.0) -> "Potential":
        return cls(kind="logarithmic", domain=(-1.0, 1.0), c1=c1)

    # -- evaluation ---------------------------------------------------------

    def _check(self, s):
        s = np.asarray(s, dtype=float)
        a, b = self.domain
        if self.kind == "logarithmic":
            if (np.abs(s) >= 1.0 - _LOG_GUARD).any():
                raise DomainViolationError("argument too close to the endpoints of (-1, 1)")
        elif ((s <= a) | (s >= b)).any():
            raise DomainViolationError(f"argument outside the potential domain ({a}, {b})")
        return s

    def F(self, s):
        s = self._check(s)
        if self.kind == "regular":
            return 0.25 * (s * s - 1.0) ** 2
        return (1.0 + s) * np.log1p(s) + (1.0 - s) * np.log1p(-s) - self.c1 * s * s

    def f(self, s):
        s = self._check(s)
        if self.kind == "regular":
            return s**3 - s
        return np.log1p(s) - np.log1p(-s) - 2.0 * self.c1 * s

    def df(self, s):
        s = self._check(s)
        if self.kind == "regular":
            return 3.0 * s * s - 1.0
        return 2.0 / (1.0 - s * s) - 2.0 * self.c1

    def d2f(self, s):
        s = self._check(s)
        if self.kind == "regular":
            return 6.0 * s
        return 4.0 * s / (1.0 - s * s) ** 2

    # -- monotone / Lipschitz splitting -------------------------------------

    def f1(self, s):
        """Monotone part: integral of (f')^+ from 0, in closed form."""
        s = self._check(s)
        if self.kind == "regular":
            star = 1.0 / math.sqrt(3.0)
            shift = 2.0 / (3.0 * math.sqrt(3.0))
            return np.where(
                s > star, s**3 - s + shift,
                np.where(s < -star, s**3 - s - shift, 0.0),
            )
        # logarithmic: f' > 0 exactly for |s| > s* = sqrt(1 - 1/c1); f is odd
        star = math.sqrt(1.0 - 1.0 / self.c1)
        f_star = math.log1p(star) - math.log1p(-star) - 2.0 * self.c1 * star
        fs = self.f(s)
        return np.where(s > star, fs - f_star, np.where(s < -star, fs + f_star, 0.0))

    def split_f(self, s):
        """Return (f1(s), f2(s)) with f1 + f2 = f."""
        f1 = self.f1(s)
        return f1, self.f(s) - f1

    def df1(self, s):
        return np.maximum(self.df(s), 0.0)

    def df2(self, s):
        return -np.maximum(-self.df(s), 0.0)


@dataclass(frozen=True)
class Proliferation:
    """Nonnegative bounded Lipschitz proliferation rate, C^2 on the real line.

    Closed form: P(s) = p0 / (1 + s^2) + p1 with p0, p1 >= 0.
    """

    p0: float = 0.5
    p1: float = 0.1

    def __post_init__(self):
        if self.p0 < 0.0 or self.p1 < 0.0:
            raise ValueError("p0 and p1 must be nonnegative")

    @classmethod
    def zero(cls) -> "Proliferation":
        return cls(p0=0.0, p1=0.0)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return self.p0 / (1.0 + s * s) + self.p1

    def d1(self, s):
        s = np.asarray(s, dtype=float)
        return -2.0 * self.p0 * s / (1.0 + s * s) ** 2

    def d2(self, s):
        s = np.asarray(s, dtype=float)
        return self.p0 * (6.0 * s * s - 2.0) / (1.0 + s * s) ** 3


@dataclass(frozen=True)
class SeparationInterval:
    """Compact interval [a_M, b_M] confining the phase field (f beyond +-M outside)."""

    a_M: float
    b_M: float


def separation_interval(potential: Potential, M: float, a0: float, b0: float,
                        tol: float = 1e-10) -> SeparationInterval:
    """Smallest [a_M, b_M] containing [a0, b0] with f < -M left of a_M, f > M right of b_M."""
    if not M > 0.0:
        raise ValueError("M must be positive")
    a, b = potential.domain
    if not (a < a0 <= b0 < b):
        raise ValueError("[a0, b0] must be a compact subinterval of (a, b)")
    b_M = _threshold_root(potential, M, b0, upper=True, tol=tol)
    a_M = _threshold_root(potential, M, a0, upper=False, tol=tol)
    return SeparationInterval(a_M=a_M, b_M=b_M)


def _threshold_root(potential: Potential, M: float, s0: float, upper: bool,
                    tol: float) -> float:
    """Bisection for f(z) = +-M toward the relevant domain endpoint."""
    a, b = potential.domain
    target = M if upper else -M
    g = lambda z: float(potential.f(z)) - target
    sign = 1.0 if upper else -1.0
    if sign * g(s0) > 0.0:
        return s0
    # bracket by walking toward the endpoint
    end = b if upper else a
    if math.isfinite(end):
        far = s0 + sign * (1.0 - 1e-10) * abs(end - s0)
        if sign * g(far) <= 0.0:
            raise NoSeparationIntervalError("f does not pass the level inside the domain")
    else:
        step = max(1.0, abs(s0))
        far = s0
        for _ in range(200):
            far = far + sign * step
            step *= 2.0
            if sign * g(far) > 0.0:
                break
        else:
            raise NoSeparationIntervalError("f never exceeds the requested level")
    lo, hi = (s0, far) if upper else (far, s0)
    root = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16)
    assert abs(g(root)) <= max(tol, 1e-8 * abs(target))
    return float(root)
