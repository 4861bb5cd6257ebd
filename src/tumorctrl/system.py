"""Bundled problem setup: grid, operator powers, potential, proliferation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Potential, Proliferation
from .spectral import FractionalPower, QuadratureGrid


@dataclass(frozen=True)
class TumorSystem:
    """The three-field system's spatial ingredients.

    op_A, op_B, op_C carry the full exponents 2*rho, 2*sigma, 2*tau as they
    appear in the evolution equations; their ``half`` powers give the energies
    and graph norms.  Every product with an operator goes through its
    ``apply``.
    """

    grid: QuadratureGrid
    op_A: FractionalPower
    op_B: FractionalPower
    op_C: FractionalPower
    potential: Potential
    proliferation: Proliferation

    def __post_init__(self):
        if self.op_A.basis.eigenvalues[0] <= 0.0:
            raise ValueError("the first eigenvalue of A must be strictly positive")
        for op in (self.op_A, self.op_B, self.op_C):
            if op.basis.grid is not self.grid:
                raise ValueError("all bases must share the system grid")

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @cached_property
    def op_norm(self) -> float:
        """The largest scaled eigenvalue of the three operators: a bound on
        their norms in the grid inner product."""
        return float(max(np.max(op.scaled_eigenvalues)
                         for op in (self.op_A, self.op_B, self.op_C)))

    # the dense matrices by name, kept because the benchmark's set-up reads them
    MA = cached_property(lambda self: self.op_A.matrix)
    MB = cached_property(lambda self: self.op_B.matrix)
    MC = cached_property(lambda self: self.op_C.matrix)
    MA_half = cached_property(lambda self: self.op_A.half.matrix)
    MB_half = cached_property(lambda self: self.op_B.half.matrix)
    MC_half = cached_property(lambda self: self.op_C.half.matrix)
