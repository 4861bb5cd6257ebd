"""Double-well potentials, proliferation rates, and the separation interval.

The regular potential F(r) = (r^2 - 1)^2 / 4 lives on the whole line; the
logarithmic one, (1+r)ln(1+r) + (1-r)ln(1-r) - c1 r^2 with c1 > 1, on (-1, 1)
with f = F' blowing up at the endpoints, less a 1e-12 guard at each end
(``Potential.bounds``).  NaN lies in neither interval.  f splits as f1 + f2 with
f1(s) = int_0^s (f')^+ monotone nondecreasing and f2 Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolationError, NoSeparationIntervalError

_LOG_GUARD = 1e-12
SEPARATION_TOL = 1e-10  # |f - level| that a separation threshold root must reach


# the open interval that evaluation admits: the whole line, or (-1, 1) with
# the logarithmic potential kept out of the endpoint guard
_BOUNDS = {"regular": (-math.inf, math.inf),
           "logarithmic": (_LOG_GUARD - 1.0, 1.0 - _LOG_GUARD)}


@dataclass(frozen=True)
class Potential:
    """Local free energy F with derivative f on its kind's open interval (a, b)."""

    kind: str = "regular"
    c1: float = 2.0

    def __post_init__(self):
        # each message starts with the offending field's name
        if self.kind not in _BOUNDS:
            raise ValueError(f"kind: unknown potential kind {self.kind!r}")
        if not 1.0 < self.c1 < math.inf:
            raise ValueError("c1: must be finite and greater than 1")

    @property
    def bounds(self) -> tuple:
        """The open interval (a, b) that evaluation admits."""
        return _BOUNDS[self.kind]

    def admits(self, s) -> bool:
        """Whether every entry of s lies in the open interval that evaluation
        admits; NaN lies in no interval."""
        a, b = _BOUNDS[self.kind]
        # minimum/maximum propagate NaN, and a NaN fails both comparisons
        return (a < np.minimum.reduce(s, None, initial=b)
                and np.maximum.reduce(s, None, initial=a) < b)

    # -- constructors -------------------------------------------------------

    @classmethod
    def regular(cls) -> "Potential":
        return cls(kind="regular")

    @classmethod
    def logarithmic(cls, c1: float) -> "Potential":
        return cls(kind="logarithmic", c1=c1)

    # -- evaluation ---------------------------------------------------------

    def _check(self, s):
        s = np.asarray(s, dtype=float)
        if not self.admits(s):
            raise DomainViolationError(f"argument NaN or outside the open interval {self.bounds}")
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
        # each message starts with the offending field's name
        for name in ("p0", "p1"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be finite and nonnegative")

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


def separation_interval(potential: Potential, M: float, a0: float,
                        b0: float) -> SeparationInterval:
    """Smallest [a_M, b_M] containing [a0, b0] with f < -M left of a_M, f > M right of b_M."""
    if not M > 0.0:
        raise ValueError("M must be positive")
    if not (a0 <= b0 and potential.admits([a0, b0])):
        raise ValueError(f"[a0, b0] must be a compact subinterval of {potential.bounds}")
    b_M = _threshold_root(potential, M, b0, upper=True)
    a_M = _threshold_root(potential, M, a0, upper=False)
    return SeparationInterval(a_M=a_M, b_M=b_M)


def _threshold_root(potential: Potential, M: float, s0: float, upper: bool) -> float:
    """Bisection for f(z) = +-M toward the relevant domain endpoint.

    The bracket is halved down to two adjacent floats, and the end beyond the
    level is returned, so f(b_M) > M and f(a_M) < -M hold exactly.
    """
    a, b = potential.bounds
    target = M if upper else -M
    sign = 1.0 if upper else -1.0
    beyond = lambda z: sign * (float(potential.f(z)) - target) > 0.0
    if beyond(s0):
        return s0
    # bracket by walking toward the endpoint
    end = b if upper else a
    if math.isfinite(end):
        far = math.nextafter(end, s0)  # the last point the potential evaluates
        if not beyond(far):
            raise NoSeparationIntervalError(
                f"f does not pass the level {target:g} inside the domain (M = {M:g})")
    else:
        step = max(1.0, abs(s0))
        far = s0
        for _ in range(200):
            far = far + sign * step
            step *= 2.0
            if beyond(far):
                break
        else:
            raise NoSeparationIntervalError(
                f"f never exceeds the requested level (M = {M:g})")
    near = s0
    while True:
        mid = 0.5 * (near + far)
        if mid == near or mid == far:
            break
        if beyond(mid):
            far = mid
        else:
            near = mid
    gap = abs(float(potential.f(far)) - target)
    bound = max(SEPARATION_TOL, 1e-8 * M)
    if not gap <= bound:
        raise NoSeparationIntervalError(
            f"f jumps past the level {target:g} (M = {M:g}) between adjacent "
            f"floats: |f - level| = {gap:.3e} exceeds {bound:.3e}")
    return far
