import numpy as np
import pytest

from spdelab.grids import (
    DIRICHLET,
    HMINUS1,
    NEUMANN,
    Grid,
    GridFunction,
    face_difference_matrix,
    inner,
    interval_grid,
    neg_laplacian_matrix,
)

rng = np.random.default_rng(101)

# The gradient is K = face_difference_matrix (one row per face), the
# divergence is -K^T and the Laplacian is -K^T K = -neg_laplacian_matrix.  Under
# Neumann, K carries interior faces only, so a face field y is zero-flux.


def test_inner_constant_one_is_measure_of_domain():
    g = interval_grid(10)
    u = GridFunction(g, np.ones(10))
    assert inner(u, u) == pytest.approx(1.0)


def test_inner_with_zero_vanishes():
    g = interval_grid(17)
    u = GridFunction(g, rng.standard_normal(17))
    z = GridFunction(g, np.zeros(17))
    assert inner(u, z) == 0.0


def test_hminus1_inner_on_first_dirichlet_eigenvector():
    g = interval_grid(64)
    L = neg_laplacian_matrix(g, DIRICHLET).toarray()
    w, V = np.linalg.eigh(L)
    v1 = GridFunction(g, V[:, 0], HMINUS1)
    l2_sq = g.cell_volume * float(V[:, 0] @ V[:, 0])
    assert inner(v1, v1) == pytest.approx(l2_sq / w[0], rel=1e-12)


def test_hminus1_positive_definite():
    g = interval_grid(32)
    for _ in range(5):
        u = GridFunction(g, rng.standard_normal(32), HMINUS1)
        assert inner(u, u) > 0.0


@pytest.mark.parametrize("grid", [interval_grid(64), Grid((1.0, 0.7), (12, 9))])
def test_gradient_divergence_adjointness(grid):
    K = face_difference_matrix(grid, NEUMANN)
    u = rng.standard_normal(grid.num_cells)
    y = rng.standard_normal(K.shape[0])
    lhs = grid.cell_volume * float((K @ u) @ y)
    rhs = grid.cell_volume * float(u @ (K.T @ y))
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_gradient_of_constant_vanishes():
    K = face_difference_matrix(interval_grid(20), NEUMANN)
    assert np.abs(K @ np.full(20, 3.0)).max() == 0.0


def test_gradient_of_ramp_is_one_on_interior_faces():
    g = interval_grid(25)
    K = face_difference_matrix(g, NEUMANN)
    assert K @ g.axis_centers(0) == pytest.approx(np.ones(24))


def test_divergence_of_zero_field():
    K = face_difference_matrix(interval_grid(8), NEUMANN)
    assert np.abs(K.T @ np.zeros(K.shape[0])).max() == 0.0


def test_divergence_of_gradient_matches_second_difference():
    g = interval_grid(12)
    u = g.axis_centers(0) ** 2
    h = g.spacing[0]
    out = -(neg_laplacian_matrix(g, NEUMANN) @ u)
    second = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / h**2
    assert out[1:-1] == pytest.approx(second[1:-1], rel=1e-10)


def test_discrete_divergence_theorem():
    g = Grid((1.0, 1.0), (7, 5))
    K = face_difference_matrix(g, NEUMANN)
    y = rng.standard_normal(K.shape[0])
    total = g.cell_volume * (-(K.T @ y)).sum()
    assert total == pytest.approx(0.0, abs=1e-12)


def test_neumann_laplacian_second_order_on_cosine():
    errs = []
    for n in (128, 256):
        g = interval_grid(n)
        u = np.cos(np.pi * g.axis_centers(0))
        out = -(neg_laplacian_matrix(g, NEUMANN) @ u)
        errs.append(np.abs(out + np.pi**2 * u).max())
    assert errs[1] < errs[0] / 3.5  # ~O(h^2)
    assert errs[1] < 1e-3 * np.pi**2


def test_dirichlet_eigenvalues_match_formula():
    n = 48
    g = interval_grid(n)
    h = g.spacing[0]
    L = neg_laplacian_matrix(g, DIRICHLET).toarray()
    w = np.sort(np.linalg.eigvalsh(L))
    k = np.arange(1, n + 1)
    pred = np.sort(2.0 * (1.0 - np.cos(k * np.pi / (n + 1))) / h**2)
    assert w == pytest.approx(pred, rel=1e-12)


def test_operators_are_linear():
    u, v = rng.standard_normal((2, 30))
    a, b = rng.standard_normal(2)
    for bc in (NEUMANN, DIRICHLET):
        L = neg_laplacian_matrix(interval_grid(30), bc)
        left = L @ (a * u + b * v)
        right = a * (L @ u) + b * (L @ v)
        assert left == pytest.approx(right, abs=1e-10 * (1 + np.abs(right).max()))


def test_face_matrix_consistent_with_gradient():
    g = Grid((1.0, 1.0), (6, 4))
    u = rng.standard_normal(g.shape)
    K = face_difference_matrix(g, NEUMANN)
    manual = np.concatenate([np.diff(u, axis=a).reshape(-1) / g.spacing[a] for a in range(g.dim)])
    assert K @ u.reshape(-1) == pytest.approx(manual)


def test_mismatched_grid_or_tag_raises():
    g1, g2 = interval_grid(8), interval_grid(9)
    u = GridFunction(g1, np.zeros(8))
    v = GridFunction(g2, np.zeros(9))
    with pytest.raises(ValueError):
        inner(u, v)
    w = GridFunction(g1, np.zeros(8), HMINUS1)
    with pytest.raises(ValueError):
        inner(u, w)
    with pytest.raises(ValueError):
        u + w


def test_nonfinite_values_rejected():
    g = interval_grid(4)
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, np.nan, 0.0, 0.0])

