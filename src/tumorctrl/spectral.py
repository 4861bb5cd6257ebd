"""Quadrature grids, complete spectral eigenbases, and fractional operator powers.

All three diffusion operators of the model are realized through their
eigenpairs, one per grid point, on a shared midpoint-collocation grid, where
both the sine (Dirichlet) and cosine (Neumann) families are discretely
orthogonal.  Fractional powers act by scaling modal coefficients by
lambda_j**p, with the continuous extension 0**p = 0 for a zero eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSystemError

UNIT_ROUNDOFF = np.finfo(float).eps / 2
# solve_power_plus_mult accepts a normwise backward error up to 4 N u (measured:
# at most 3.3 u up to N = 1024) and rejects cond(K) >= 1 / (16 u)
_SOLVE_C = 4.0
_SINGULAR_C = 16.0


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
class SpectralBasis:
    """One eigenpair per grid point, discretely orthonormal on the grid."""

    eigenvalues: np.ndarray
    eigvecs: np.ndarray  # shape (N, N), column j = e_j on the grid
    grid: QuadratureGrid

    _GRAM_TOL = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigvecs", np.asarray(self.eigvecs, dtype=float))
        N = self.grid.n_points
        if self.eigenvalues.shape != (N,) or self.eigvecs.shape != (N, N):
            raise ValueError(f"a basis on {N} points needs {N} eigenvalues and "
                             f"eigvecs of shape ({N}, {N})")
        if np.any(self.eigenvalues < 0.0) or np.any(np.diff(self.eigenvalues) < 0.0):
            raise ValueError("eigenvalues must be nonnegative and nondecreasing")
        gram = self.eigvecs.T @ (self.grid.weights[:, None] * self.eigvecs)
        defect = np.max(np.abs(gram - np.eye(N)))
        if defect > self._GRAM_TOL:
            raise ValueError(
                f"eigenvectors are not orthonormal under the grid quadrature "
                f"(Gram deviation {defect:.3e})"
            )


def build_basis(kind, grid: QuadratureGrid) -> SpectralBasis:
    """Construct a built-in Laplacian eigenbasis with one mode per grid point.

    Built-ins on (0, L): Dirichlet sine modes with lambda_j = (j pi / L)^2 and
    Neumann cosine modes with lambda_j = ((j-1) pi / L)^2 (constant first mode).
    Columns are renormalized in the discrete inner product; this only affects
    the Nyquist sine mode, which otherwise has discrete norm sqrt(2).
    """
    if kind not in ("dirichlet_laplace", "neumann_laplace"):
        raise ValueError(f"unknown basis kind {kind!r}")
    N = grid.n_points
    x = grid.points
    if kind == "dirichlet_laplace":
        j = np.arange(1, N + 1)
        lam = (j * np.pi / grid.L) ** 2
        E = np.sqrt(2.0 / grid.L) * np.sin(np.outer(x, j * np.pi / grid.L))
    else:  # Neumann
        j = np.arange(N)
        lam = (j * np.pi / grid.L) ** 2
        E = np.sqrt(2.0 / grid.L) * np.cos(np.outer(x, j * np.pi / grid.L))
        E[:, 0] = 1.0 / np.sqrt(grid.L)
    nrm = np.sqrt(np.sum(grid.weights[:, None] * E * E, axis=0))
    E = E / nrm
    return SpectralBasis(lam, E, grid)


@dataclass(frozen=True)
class FractionalPower:
    """Spectral fractional power: coefficients scaled by lambda_j**exponent.

    ``apply`` is the one way to apply the operator to grid fields, and ``half``
    is the half power, built once.  Only the solvers that factor or invert the
    operator, and the oracles that check it, read ``matrix``.
    """

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
        """Dense grid-space matrix E diag(lambda**p) E^T W of the power."""
        E = self.basis.eigvecs
        w = self.basis.grid.weights
        return (E * self.scaled_eigenvalues[None, :]) @ (E.T * w[None, :])

    @cached_property
    def half(self) -> "FractionalPower":
        return FractionalPower(self.basis, self.exponent / 2.0)

    def apply(self, x):
        """The operator applied to a grid vector or to each row of an array x;
        the scalar zero that starts a refined solve gives 0 without a product."""
        ndim = getattr(x, "ndim", 0)
        if ndim == 1:  # bit-equal to the row form, and cheaper
            return self.matrix @ x
        return x @ self.matrix.T if ndim else 0.0


def solve_power_plus_mult(fp: FractionalPower, m: np.ndarray,
                          rhs: np.ndarray) -> np.ndarray:
    """Solve (A^p + diag m) x = rhs on the grid for a nonnegative multiplier m."""
    m = np.asarray(m, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if m.shape != fp.basis.grid.points.shape or rhs.shape != m.shape:
        raise ValueError("multiplier and right-hand side must match the grid size")
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(rhs))):
        raise ValueError("multiplier and right-hand side must be finite")
    if np.any(m < 0.0):
        raise ValueError("multiplier field must be nonnegative")
    try:
        x = np.linalg.solve(fp.matrix + np.diag(m), rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError("power-plus-multiplier system is singular") from exc
    w = fp.basis.grid.weights
    res_norm, x_norm, rhs_norm = (float(np.sqrt(np.sum(w * v * v)))
                                  for v in (fp.apply(x) + m * x - rhs, x, rhs))
    Kx = (np.max(fp.scaled_eigenvalues) + np.max(m)) * x_norm  # |K| |x|
    # the normwise backward error (Rigal-Gaches); written so that a NaN
    # solution fails too
    bound = _SOLVE_C * m.size * UNIT_ROUNDOFF * (Kx + rhs_norm)
    if not res_norm <= bound:
        raise DegenerateSystemError(
            f"power-plus-multiplier solve failed its residual check "
            f"({res_norm:.3e} vs bound {bound:.3e})"
        )
    # a tiny backward error does not exclude a singular K: |x| <= |K^{-1}| |b|,
    # so |K| |x| > |b| / (c' u) means cond(K) >= 1 / (c' u)
    if _SINGULAR_C * UNIT_ROUNDOFF * Kx > rhs_norm:
        raise DegenerateSystemError(
            f"power-plus-multiplier system is numerically singular "
            f"(|K| |x| = {Kx:.3e} vs rhs norm {rhs_norm:.3e})"
        )
    return x
