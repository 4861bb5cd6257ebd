import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumorctrl import (DegenerateSystemError, FractionalPower, build_basis,
                       midpoint_grid, solve_power_plus_mult)

from conftest import grid_norm

PI = math.pi


@pytest.fixture(scope="module")
def grid():
    return midpoint_grid(16, PI)


def test_midpoint_grid_invariants(grid):
    assert np.all(grid.weights > 0)
    assert abs(grid.weights.sum() - PI) <= 1e-12 * PI
    assert np.all(np.diff(grid.points) > 0)
    assert 0 < grid.points[0] and grid.points[-1] < PI


def test_dirichlet_eigenvalues(grid):
    basis = build_basis("dirichlet_laplace", 3, grid)
    assert np.allclose(basis.eigenvalues, [1.0, 4.0, 9.0], atol=1e-12)


def test_neumann_eigenvalues(grid):
    basis = build_basis("neumann_laplace", 2, grid)
    assert np.allclose(basis.eigenvalues, [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("kind", ["dirichlet_laplace", "neumann_laplace"])
def test_full_gram_identity(grid, kind):
    # includes the highest (Nyquist) mode, which needs renormalization
    basis = build_basis(kind, grid.n_points, grid)
    gram = basis.eigvecs.T @ (grid.weights[:, None] * basis.eigvecs)
    assert np.max(np.abs(gram - np.eye(grid.n_points))) <= 1e-10


def test_apply_power_eigenvector(grid):
    basis = build_basis("dirichlet_laplace", 4, grid)
    fp = FractionalPower(basis, 0.75)
    out = fp.matrix @ basis.eigvecs[:, 1]
    assert np.allclose(out, 4.0**0.75 * basis.eigvecs[:, 1], atol=1e-10)
    assert abs(4.0**0.75 - 2.8284271) < 1e-6


@pytest.mark.parametrize("kind", ["dirichlet_laplace", "neumann_laplace"])
def test_apply_is_the_matrix_product(grid, kind):
    # bit-equal to the dense products the solvers used before apply existed
    fp = FractionalPower(build_basis(kind, grid.n_points, grid), 1.2)
    rng = np.random.default_rng(3)
    v, rows = rng.standard_normal(grid.n_points), rng.standard_normal((5, grid.n_points))
    assert np.array_equal(fp.apply(v), fp.matrix @ v)
    assert np.array_equal(fp.apply(v), v @ fp.matrix.T)
    assert np.array_equal(fp.apply(rows), rows @ fp.matrix.T)
    assert fp.apply(0.0) == 0.0
    assert fp.half is fp.half and fp.half.exponent == 0.6
    assert np.array_equal(fp.half.apply(v), fp.half.matrix @ v)


def test_apply_power_constant_neumann_mode(grid):
    basis = build_basis("neumann_laplace", 4, grid)
    fp = FractionalPower(basis, 0.5)
    out = fp.matrix @ np.full(grid.n_points, 2.0)
    assert np.max(np.abs(out)) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(p=st.floats(0.1, 2.0), q=st.floats(0.1, 2.0), seed=st.integers(0, 10**6))
def test_semigroup_property(p, q, seed):
    grid = midpoint_grid(12, PI)
    basis = build_basis("dirichlet_laplace", 12, grid)
    v = np.random.default_rng(seed).standard_normal(12)
    two_step = FractionalPower(basis, p).matrix @ (FractionalPower(basis, q).matrix @ v)
    one_step = FractionalPower(basis, p + q).matrix @ v
    scale = max(grid_norm(grid, one_step), 1e-12)
    assert grid_norm(grid, two_step - one_step) <= 1e-10 * scale


def test_negative_exponent_rejected(grid):
    basis = build_basis("dirichlet_laplace", 4, grid)
    with pytest.raises(ValueError):
        FractionalPower(basis, -0.5)


def test_power_matrix_eigen_action_and_symmetry(grid):
    basis = build_basis("dirichlet_laplace", grid.n_points, grid)
    fp = FractionalPower(basis, 0.8)
    M = fp.matrix
    for j in (0, 3, 7):
        lam = basis.eigenvalues[j] ** 0.8
        assert np.max(np.abs(M @ basis.eigvecs[:, j] - lam * basis.eigvecs[:, j])) <= 1e-9
    WM = grid.weights[:, None] * M
    assert np.max(np.abs(WM - WM.T)) <= 1e-9


def test_power_matrix_rank_one_case():
    grid1 = midpoint_grid(1, PI)
    basis = build_basis("dirichlet_laplace", 1, grid1)
    fp = FractionalPower(basis, 1.0)
    e = basis.eigvecs[:, 0]
    expected = basis.eigenvalues[0] * np.outer(e, e) * grid1.weights[0]
    assert np.allclose(fp.matrix, expected, atol=1e-12)


def test_solve_power_plus_mult_examples(grid):
    basis = build_basis("dirichlet_laplace", grid.n_points, grid)
    fp = FractionalPower(basis, 1.0)  # realizes A^{2 rho} with rho = 0.5
    e1 = basis.eigvecs[:, 0]
    zero_m = np.zeros(grid.n_points)
    sol = solve_power_plus_mult(fp, zero_m, e1)
    assert np.max(np.abs(sol - e1)) <= 1e-9

    c = 2.5
    ej = basis.eigvecs[:, 3]
    sol = solve_power_plus_mult(fp, np.full(grid.n_points, c), ej)
    expected = ej / (basis.eigenvalues[3] + c)
    assert np.max(np.abs(sol - expected)) <= 1e-9

    zero_rhs = np.zeros(grid.n_points)
    sol = solve_power_plus_mult(fp, zero_m, zero_rhs)
    assert not np.any(sol)


def test_solve_power_plus_mult_residual_contract(grid):
    basis = build_basis("dirichlet_laplace", grid.n_points, grid)
    fp = FractionalPower(basis, 1.3)
    rng = np.random.default_rng(7)
    m = np.abs(rng.standard_normal(grid.n_points))
    rhs = rng.standard_normal(grid.n_points)
    sol = solve_power_plus_mult(fp, m, rhs)
    res = fp.matrix @ sol + m * sol - rhs
    assert grid_norm(grid, res) <= 1e-9 * grid_norm(grid, rhs)


def test_coercivity_of_dirichlet_power(grid):
    basis = build_basis("dirichlet_laplace", grid.n_points, grid)
    fp = FractionalPower(basis, 0.5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.standard_normal(grid.n_points)
        lhs = grid_norm(grid, fp.matrix @ v)
        assert lhs >= basis.eigenvalues[0] ** 0.5 * grid_norm(grid, v) - 1e-9 * lhs


def test_unknown_basis_kind_rejected(grid):
    with pytest.raises(ValueError, match="basis kind"):
        build_basis("robin_laplace", 2, grid)


def test_non_orthonormal_custom_basis_rejected(grid):
    with pytest.raises(ValueError, match="orthonormal"):
        build_basis("custom", 2, grid,
                    eigenvalues=np.array([1.0, 2.0]),
                    eigvecs=np.ones((grid.n_points, 2)))


def test_singular_system_reported():
    grid1 = midpoint_grid(2, PI)
    basis = build_basis("neumann_laplace", 2, grid1)  # lambda_1 = 0
    fp = FractionalPower(basis, 1.0)
    zero_m = np.zeros(2)
    rhs = np.ones(2)
    with pytest.raises(DegenerateSystemError):
        solve_power_plus_mult(fp, zero_m, rhs)


@pytest.mark.parametrize("m, rhs", [
    (np.ones(15), np.ones(16)),
    (np.ones(16), np.ones((16, 1))),
    (np.full(16, np.nan), np.ones(16)),
    (np.ones(16), np.r_[np.inf, np.ones(15)]),
    (np.r_[-1.0, np.ones(15)], np.ones(16)),
])
def test_solve_power_plus_mult_rejects_malformed_input(grid, m, rhs):
    fp = FractionalPower(build_basis("dirichlet_laplace", 16, grid), 1.0)
    with pytest.raises(ValueError):
        solve_power_plus_mult(fp, m, rhs)


def test_solve_power_plus_mult_rejects_nan_solution(grid, monkeypatch):
    fp = FractionalPower(build_basis("dirichlet_laplace", 16, grid), 1.0)
    monkeypatch.setattr(np.linalg, "solve", lambda K, b: np.full_like(b, np.nan))
    with pytest.raises(DegenerateSystemError, match="residual check"):
        solve_power_plus_mult(fp, np.ones(16), np.ones(16))
