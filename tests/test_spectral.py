import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumorctrl import (DegenerateSystemError, Field, FractionalPower,
                       GridMismatchError, apply_power, build_basis, from_modal,
                       graph_norm, inner_product, midpoint_grid, norm,
                       solve_power_plus_mult, to_modal)

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


def test_modal_round_trip(grid):
    basis = build_basis("dirichlet_laplace", 8, grid)
    coeffs = to_modal(basis, Field(basis.eigvecs[:, 1], grid))
    expected = np.zeros(8)
    expected[1] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)

    rng = np.random.default_rng(3)
    v = basis.eigvecs @ rng.standard_normal(8)  # inside the span
    round_trip = from_modal(basis, to_modal(basis, Field(v, grid)))
    assert np.max(np.abs(round_trip.values - v)) <= 1e-10


def test_from_modal_zero(grid):
    basis = build_basis("neumann_laplace", 4, grid)
    assert not np.any(from_modal(basis, np.zeros(4)).values)


def test_apply_power_eigenvector(grid):
    basis = build_basis("dirichlet_laplace", 4, grid)
    fp = FractionalPower(basis, 0.75)
    out = apply_power(fp, Field(basis.eigvecs[:, 1], grid))
    assert np.allclose(out.values, 4.0**0.75 * basis.eigvecs[:, 1], atol=1e-10)
    assert abs(4.0**0.75 - 2.8284271) < 1e-6


def test_apply_power_constant_neumann_mode(grid):
    basis = build_basis("neumann_laplace", 4, grid)
    fp = FractionalPower(basis, 0.5)
    out = apply_power(fp, Field(np.full(grid.n_points, 2.0), grid))
    assert np.max(np.abs(out.values)) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(p=st.floats(0.1, 2.0), q=st.floats(0.1, 2.0), seed=st.integers(0, 10**6))
def test_semigroup_property(p, q, seed):
    grid = midpoint_grid(12, PI)
    basis = build_basis("dirichlet_laplace", 12, grid)
    v = Field(np.random.default_rng(seed).standard_normal(12), grid)
    two_step = apply_power(FractionalPower(basis, p),
                           apply_power(FractionalPower(basis, q), v))
    one_step = apply_power(FractionalPower(basis, p + q), v)
    scale = max(norm(one_step), 1e-12)
    assert norm(Field(two_step.values - one_step.values, grid)) <= 1e-10 * scale


def test_negative_exponent_rejected(grid):
    basis = build_basis("dirichlet_laplace", 4, grid)
    with pytest.raises(ValueError):
        FractionalPower(basis, -0.5)


def test_inner_product_orthonormality(grid):
    basis = build_basis("dirichlet_laplace", 4, grid)
    e1 = Field(basis.eigvecs[:, 0], grid)
    e2 = Field(basis.eigvecs[:, 1], grid)
    assert abs(inner_product(e1, e1) - 1.0) <= 1e-12
    assert abs(inner_product(e1, e2)) <= 1e-12


def test_grid_mismatch_rejected(grid):
    other = midpoint_grid(16, 2 * PI)
    with pytest.raises(GridMismatchError):
        inner_product(Field(np.ones(16), grid), Field(np.ones(16), other))


def test_graph_norm_eigenvector(grid):
    basis = build_basis("dirichlet_laplace", 4, grid)
    fp = FractionalPower(basis, 0.5)
    val = graph_norm(fp, Field(basis.eigvecs[:, 0], grid))
    assert abs(val - math.sqrt(2.0)) <= 1e-10  # lambda_1 = 1


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
    e1 = Field(basis.eigvecs[:, 0], grid)
    zero_m = Field(np.zeros(grid.n_points), grid)
    sol = solve_power_plus_mult(fp, zero_m, e1)
    assert np.max(np.abs(sol.values - e1.values)) <= 1e-9

    c = 2.5
    ej = Field(basis.eigvecs[:, 3], grid)
    sol = solve_power_plus_mult(fp, Field(np.full(grid.n_points, c), grid), ej)
    expected = ej.values / (basis.eigenvalues[3] + c)
    assert np.max(np.abs(sol.values - expected)) <= 1e-9

    zero_rhs = Field(np.zeros(grid.n_points), grid)
    sol = solve_power_plus_mult(fp, zero_m, zero_rhs)
    assert not np.any(sol.values)


def test_solve_power_plus_mult_residual_contract(grid):
    basis = build_basis("dirichlet_laplace", grid.n_points, grid)
    fp = FractionalPower(basis, 1.3)
    rng = np.random.default_rng(7)
    m = Field(np.abs(rng.standard_normal(grid.n_points)), grid)
    rhs = Field(rng.standard_normal(grid.n_points), grid)
    sol = solve_power_plus_mult(fp, m, rhs)
    res = fp.matrix @ sol.values + m.values * sol.values - rhs.values
    assert norm(Field(res, grid)) <= 1e-9 * norm(rhs)


def test_coercivity_of_dirichlet_power(grid):
    basis = build_basis("dirichlet_laplace", grid.n_points, grid)
    fp = FractionalPower(basis, 0.5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = Field(rng.standard_normal(grid.n_points), grid)
        lhs = norm(apply_power(fp, v))
        assert lhs >= basis.eigenvalues[0] ** 0.5 * norm(v) - 1e-9 * lhs


def test_non_orthonormal_custom_basis_rejected(grid):
    with pytest.raises(ValueError, match="orthonormal"):
        build_basis("custom", 2, grid,
                    eigenvalues=np.array([1.0, 2.0]),
                    eigvecs=np.ones((grid.n_points, 2)))


def test_singular_system_reported():
    grid1 = midpoint_grid(2, PI)
    basis = build_basis("neumann_laplace", 2, grid1)  # lambda_1 = 0
    fp = FractionalPower(basis, 1.0)
    zero_m = Field(np.zeros(2), grid1)
    rhs = Field(np.ones(2), grid1)
    with pytest.raises(DegenerateSystemError):
        solve_power_plus_mult(fp, zero_m, rhs)
