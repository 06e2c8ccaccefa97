"""Discrete function spaces on rectangular, cell-centered grids.

Two Hilbert-space geometries are supported and selected per function by a
space tag:

* ``L2``      -- cell-volume weighted dot product,
* ``Hminus1`` -- dual norm built on the inverse of the discrete Dirichlet
  Laplacian, ``(u, v) = (u, (-Dirichlet Laplacian)^{-1} v)_L2``.

Every solver differentiates through one assembled operator: the face
difference matrix ``K`` (one row per face, ``K u`` the face gradients), with
``K^T K`` the negative Laplacian.  Its transpose is the negative divergence,
so the summation-by-parts identity

    (K u) . y == u . (K^T y)

is exact matrix adjointness rather than an approximation, which the
proximal solvers depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

L2 = "L2"
HMINUS1 = "Hminus1"
_SPACES = (L2, HMINUS1)

NEUMANN = "neumann"
DIRICHLET = "dirichlet"
_BCS = (NEUMANN, DIRICHLET)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a box ``[0, L1] x ... x [0, Ld]``, d <= 2.

    ``shape`` holds the number of cells per axis; spacing is derived as
    extent / cells.  Cell centers sit at ``(i + 1/2) * h``.
    """

    extents: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        if len(self.extents) != len(self.shape):
            raise ValueError("extents and shape must have equal length")
        if len(self.shape) not in (1, 2):
            raise ValueError(f"only 1D and 2D grids are supported, got dim {len(self.shape)}")
        if any(n <= 0 for n in self.shape):
            raise ValueError(f"cell counts must be positive, got {self.shape}")
        if any(not 0 < e < np.inf for e in self.extents):
            raise ValueError(f"extents must be positive and finite, got {self.extents}")
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @property
    def dim(self) -> int:
        return len(self.shape)

    # derived once per grid; equality and hashing still use the two fields
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extents, self.shape))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def num_cells(self) -> int:
        return int(np.prod(self.shape))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.shape[axis]) + 0.5) * h

    def centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, broadcast to ``shape`` (ij indexing)."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


def interval_grid(cells: int, length: float = 1.0) -> Grid:
    return Grid((length,), (cells,))


def box_grid(cells: tuple[int, ...], extents: tuple[float, ...] | None = None) -> Grid:
    if extents is None:
        extents = tuple(1.0 for _ in cells)
    return Grid(tuple(extents), tuple(cells))


class GridFunction:
    """Real values on the cells of a grid, tagged with a Hilbert-space role."""

    __slots__ = ("grid", "values", "space")

    def __init__(self, grid: Grid, values, space: str = L2):
        if space not in _SPACES:
            raise ValueError(f"unknown space tag {space!r}, expected one of {_SPACES}")
        arr = np.asarray(values, dtype=float)
        if arr.shape == (grid.num_cells,) and grid.dim > 1:
            arr = arr.reshape(grid.shape)
        if arr.shape != grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = arr.copy()
        self.space = space

    # -- arithmetic (same grid, same tag) ------------------------------------
    def _check_compatible(self, other: "GridFunction"):
        if not isinstance(other, GridFunction):
            raise TypeError("expected a GridFunction")
        if other.grid != self.grid or other.space != self.space:
            raise ValueError("grid functions live on different grids or space tags")

    def __add__(self, other):
        self._check_compatible(other)
        return GridFunction(self.grid, self.values + other.values, self.space)

    def __sub__(self, other):
        self._check_compatible(other)
        return GridFunction(self.grid, self.values - other.values, self.space)

    def __mul__(self, c):
        return GridFunction(self.grid, self.values * float(c), self.space)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values, self.space)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values, self.space)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def __repr__(self):
        return f"GridFunction(shape={self.grid.shape}, space={self.space})"


def _check_bc(bc: str):
    if bc not in _BCS:
        raise ValueError(f"unknown boundary condition {bc!r}, expected one of {_BCS}")


# -- assembled operators ------------------------------------------------------


@lru_cache(maxsize=None)
def face_difference_matrix(grid: Grid, bc: str = NEUMANN) -> sp.csr_matrix:
    """Sparse matrix K with one row per face mapping cell values to ``grad``.

    Rows are scaled by 1/h so ``K u`` stacks the face gradients of all axes.
    Neumann keeps interior faces only; Dirichlet includes boundary faces with
    the ghost-zero convention.  ``K^T K`` is the (negative) Laplacian for the
    respective boundary condition.
    """
    _check_bc(bc)
    rows_i = []
    rows_j = []
    vals = []
    row = 0
    idx = np.arange(grid.num_cells).reshape(grid.shape)
    for a in range(grid.dim):
        h = grid.spacing[a]
        lo = [slice(None)] * grid.dim
        lo[a] = slice(0, grid.shape[a] - 1)
        hi = [slice(None)] * grid.dim
        hi[a] = slice(1, grid.shape[a])
        left = idx[tuple(lo)].reshape(-1)
        right = idx[tuple(hi)].reshape(-1)
        m = left.size
        r = np.arange(row, row + m)
        rows_i.extend([r, r])
        rows_j.extend([left, right])
        vals.extend([np.full(m, -1.0 / h), np.full(m, 1.0 / h)])
        row += m
        if bc == DIRICHLET:
            first = [slice(None)] * grid.dim
            first[a] = 0
            last = [slice(None)] * grid.dim
            last[a] = grid.shape[a] - 1
            for edge, sign in ((idx[tuple(first)].reshape(-1), 1.0), (idx[tuple(last)].reshape(-1), -1.0)):
                m = edge.size
                r = np.arange(row, row + m)
                rows_i.append(r)
                rows_j.append(edge)
                vals.append(np.full(m, sign / h))
                row += m
    i = np.concatenate(rows_i)
    j = np.concatenate(rows_j)
    v = np.concatenate(vals)
    return sp.csr_matrix((v, (i, j)), shape=(row, grid.num_cells))


@lru_cache(maxsize=None)
def neg_laplacian_matrix(grid: Grid, bc: str = NEUMANN) -> sp.csr_matrix:
    """Positive semidefinite ``-Laplacian`` stencil (no volume factors)."""
    K = face_difference_matrix(grid, bc)
    return (K.T @ K).tocsr()


@lru_cache(maxsize=None)
def _dirichlet_solver(grid: Grid):
    import scipy.sparse.linalg as spla  # loaded only by runs that need the H^-1 geometry

    return spla.splu(neg_laplacian_matrix(grid, DIRICHLET).tocsc())


def dirichlet_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve ``-Laplacian_D w = rhs`` with the cached factorization.

    Accepts flat vectors, grid-shaped arrays, or stacks with trailing cell
    axis flattened as ``(..., num_cells)`` transposed to columns.
    """
    lu = _dirichlet_solver(grid)
    arr = np.asarray(rhs, dtype=float)
    if arr.shape == grid.shape:
        return lu.solve(arr.reshape(-1)).reshape(grid.shape)
    return lu.solve(arr)


# -- inner products -----------------------------------------------------------


def inner(u: GridFunction, v: GridFunction) -> float:
    """Inner product in the common space tag of ``u`` and ``v``."""
    u._check_compatible(v)
    vol = u.grid.cell_volume
    if u.space == L2:
        return vol * float(np.dot(u.flat, v.flat))
    w = dirichlet_solve(u.grid, v.flat)
    return vol * float(np.dot(u.flat, w))


def norm(u: GridFunction) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def l2_norm_sq(grid: Grid, flat_values: np.ndarray) -> np.ndarray:
    """Batched squared L2 norms along the last axis of ``(..., num_cells)``."""
    return grid.cell_volume * np.sum(np.asarray(flat_values) ** 2, axis=-1)


def hminus1_norm_sq(grid: Grid, flat_values: np.ndarray) -> np.ndarray:
    """Batched squared discrete H^-1 norms along the last axis."""
    arr = np.asarray(flat_values, dtype=float)
    flat = arr.reshape(-1, grid.num_cells)
    sol = dirichlet_solve(grid, flat.T)
    out = grid.cell_volume * np.einsum("ij,ji->i", flat, sol)
    return out.reshape(arr.shape[:-1])


def space_norm_sq(grid: Grid, flat_values: np.ndarray, space: str) -> np.ndarray:
    """Batched squared norms in the requested geometry, last axis = cells."""
    arr = np.asarray(flat_values, dtype=float)
    if space == L2:
        return l2_norm_sq(grid, arr)
    return hminus1_norm_sq(grid, arr)
