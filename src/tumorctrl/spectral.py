"""Quadrature grids, spectral eigenbases, and fractional operator powers.

All three diffusion operators of the model are realized through their
eigenpairs on a shared midpoint-collocation grid, where both the sine
(Dirichlet) and cosine (Neumann) families are discretely orthogonal.
Fractional powers act by scaling modal coefficients by lambda_j**p, with
the continuous extension 0**p = 0 for a zero eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateSystemError, GridMismatchError


class BasisKind(str, Enum):
    DIRICHLET_LAPLACE = "dirichlet_laplace"
    NEUMANN_LAPLACE = "neumann_laplace"
    CUSTOM = "custom"


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint-style quadrature on the interval (0, L)."""

    points: np.ndarray
    weights: np.ndarray
    L: float

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.points.ndim != 1 or self.points.shape != self.weights.shape:
            raise ValueError("points and weights must be 1-d arrays of equal length")
        if not np.all(self.weights > 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(self.weights.sum() - self.L) > 1e-12 * self.L:
            raise ValueError("quadrature weights must sum to the domain length")
        if not np.all(np.diff(self.points) > 0.0):
            raise ValueError("quadrature points must be strictly increasing")
        if self.points[0] <= 0.0 or self.points[-1] >= self.L:
            raise ValueError("quadrature points must lie inside (0, L)")

    @property
    def n_points(self) -> int:
        return self.points.size


def midpoint_grid(n_points: int, L: float) -> QuadratureGrid:
    """Uniform midpoint rule x_i = (i - 1/2) L / N with weights L / N."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    h = L / n_points
    x = (np.arange(n_points) + 0.5) * h
    w = np.full(n_points, h)
    return QuadratureGrid(points=x, weights=w, L=L)


@dataclass(frozen=True)
class Field:
    """Real spatial function as grid values with the quadrature inner product."""

    values: np.ndarray
    grid: QuadratureGrid

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != self.grid.points.shape:
            raise ValueError("field values must match the grid size")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def _check_same_grid(u: Field, v: Field):
    if u.grid is not v.grid and not (
        u.grid.L == v.grid.L and np.array_equal(u.grid.points, v.grid.points)
    ):
        raise GridMismatchError("fields live on different grids")


def inner_product(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    return float(np.sum(u.grid.weights * u.values * v.values))


def norm(v: Field) -> float:
    return float(np.sqrt(np.sum(v.grid.weights * v.values**2)))


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenvalues and eigenfunction values, discretely orthonormal on the grid."""

    kind: BasisKind
    eigenvalues: np.ndarray
    eigvecs: np.ndarray  # shape (n_points, n_modes), column j = e_j on the grid
    grid: QuadratureGrid

    _GRAM_TOL = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigvecs", np.asarray(self.eigvecs, dtype=float))
        if self.eigvecs.shape != (self.grid.n_points, self.eigenvalues.size):
            raise ValueError("eigvecs must have shape (n_points, n_modes)")
        if np.any(self.eigenvalues < 0.0) or np.any(np.diff(self.eigenvalues) < 0.0):
            raise ValueError("eigenvalues must be nonnegative and nondecreasing")
        gram = self.eigvecs.T @ (self.grid.weights[:, None] * self.eigvecs)
        defect = np.max(np.abs(gram - np.eye(self.n_modes)))
        if defect > self._GRAM_TOL:
            raise ValueError(
                f"eigenvectors are not orthonormal under the grid quadrature "
                f"(Gram deviation {defect:.3e})"
            )

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def build_basis(kind, n_modes: int, grid: QuadratureGrid, *,
                eigenvalues=None, eigvecs=None) -> SpectralBasis:
    """Construct a built-in Laplacian eigenbasis or wrap a custom one.

    Built-ins on (0, L): Dirichlet sine modes with lambda_j = (j pi / L)^2 and
    Neumann cosine modes with lambda_j = ((j-1) pi / L)^2 (constant first mode).
    Columns are renormalized in the discrete inner product; this only affects
    the Nyquist sine mode, which otherwise has discrete norm sqrt(2).
    """
    kind = BasisKind(kind)
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    N = grid.n_points
    if kind is BasisKind.CUSTOM:
        if eigenvalues is None or eigvecs is None:
            raise ValueError("custom basis requires eigenvalues and eigvecs")
        return SpectralBasis(kind, eigenvalues, eigvecs, grid)
    if n_modes > N:
        raise ValueError(f"at most {N} modes fit on a grid of {N} points")
    x = grid.points
    if kind is BasisKind.DIRICHLET_LAPLACE:
        j = np.arange(1, n_modes + 1)
        lam = (j * np.pi / grid.L) ** 2
        E = np.sqrt(2.0 / grid.L) * np.sin(np.outer(x, j * np.pi / grid.L))
    else:  # Neumann
        j = np.arange(n_modes)
        lam = (j * np.pi / grid.L) ** 2
        E = np.sqrt(2.0 / grid.L) * np.cos(np.outer(x, j * np.pi / grid.L))
        E[:, 0] = 1.0 / np.sqrt(grid.L)
    nrm = np.sqrt(np.sum(grid.weights[:, None] * E * E, axis=0))
    E = E / nrm
    return SpectralBasis(kind, lam, E, grid)


def to_modal(basis: SpectralBasis, field: Field) -> np.ndarray:
    """Modal coefficients (v, e_j) under the grid quadrature."""
    _check_same_grid(field, Field(np.zeros(basis.grid.n_points), basis.grid))
    return basis.eigvecs.T @ (basis.grid.weights * field.values)


def from_modal(basis: SpectralBasis, coeffs: np.ndarray) -> Field:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.n_modes,):
        raise ValueError("coefficient vector length must equal n_modes")
    return Field(basis.eigvecs @ coeffs, basis.grid)


@dataclass(frozen=True)
class FractionalPower:
    """Spectral fractional power: coefficients scaled by lambda_j**exponent."""

    basis: SpectralBasis
    exponent: float

    def __post_init__(self):
        if not self.exponent > 0.0:
            raise ValueError("exponent must be positive")

    @cached_property
    def scaled_eigenvalues(self) -> np.ndarray:
        lam = self.basis.eigenvalues
        out = np.zeros_like(lam)
        pos = lam > 0.0
        out[pos] = lam[pos] ** self.exponent
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense grid-space matrix of the power composed with modal projection."""
        E = self.basis.eigvecs
        w = self.basis.grid.weights
        return (E * self.scaled_eigenvalues[None, :]) @ (E.T * w[None, :])

    def half(self) -> "FractionalPower":
        return FractionalPower(self.basis, self.exponent / 2.0)


def apply_power(fp: FractionalPower, v: Field) -> Field:
    coeffs = to_modal(fp.basis, v)
    return from_modal(fp.basis, fp.scaled_eigenvalues * coeffs)


def graph_norm(fp: FractionalPower, v: Field) -> float:
    """(||v||^2 + ||A^p v||^2)^(1/2) in the quadrature inner product."""
    return float(np.sqrt(norm(v) ** 2 + norm(apply_power(fp, v)) ** 2))


def solve_power_plus_mult(fp: FractionalPower, m: Field, rhs: Field) -> Field:
    """Solve (A^p + m) x = rhs for a nonnegative multiplier field m."""
    _check_same_grid(m, rhs)
    if np.any(m.values < 0.0):
        raise ValueError("multiplier field must be nonnegative")
    K = fp.matrix + np.diag(m.values)
    try:
        x = np.linalg.solve(K, rhs.values)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError("power-plus-multiplier system is singular") from exc
    sol = Field(x, rhs.grid)
    res = Field(fp.matrix @ x + m.values * x - rhs.values, rhs.grid)
    rhs_norm = norm(rhs)
    if norm(res) > max(1e-9 * rhs_norm, 1e-13):
        raise DegenerateSystemError(
            f"power-plus-multiplier solve failed its residual check "
            f"({norm(res):.3e} vs rhs norm {rhs_norm:.3e})"
        )
    return sol
