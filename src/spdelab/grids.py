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
proximal solvers depend on.  Every difference operator takes its cell pairs
from ``_cell_pairs``, which defines their order: the rows of ``K``, the face
weights of ``face_weights`` and the kernel pair stencils of
``kernels.pair_stencil``.
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


def _cell_pairs(grid: Grid, offset) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices ``(left, right)`` of the cell pairs ``right = left + offset``.

    The pair order of every difference operator is defined here: pairs run
    in C order of ``left``.  Offset components may be negative; an offset
    that reaches past an axis gives empty arrays.
    """
    idx = np.arange(grid.num_cells).reshape(grid.shape)
    lo, hi = [], []
    for n, o in zip(grid.shape, offset):
        o = max(-n, min(o, n))
        lo.append(slice(max(-o, 0), n - max(o, 0)))
        hi.append(slice(max(o, 0), n - max(-o, 0)))
    return idx[tuple(lo)].reshape(-1), idx[tuple(hi)].reshape(-1)


@lru_cache(maxsize=None)
def face_difference_matrix(grid: Grid, bc: str = NEUMANN) -> sp.csr_matrix:
    """Sparse matrix K with one row per face mapping cell values to ``grad``.

    Rows are scaled by 1/h so ``K u`` stacks the face gradients of all axes:
    per axis its interior faces, in the order of ``_cell_pairs`` at the unit
    offset, then under Dirichlet the boundary faces at the first and at the
    last cells of that axis, with the ghost-zero convention.  ``K^T K`` is
    the (negative) Laplacian for the respective boundary condition.
    """
    _check_bc(bc)
    blocks = []  # per block of face rows, its entries as (cells, coefficient)
    for a, unit in enumerate(np.eye(grid.dim, dtype=int)):
        h = grid.spacing[a]
        left, right = _cell_pairs(grid, unit)
        blocks.append([(left, -1.0 / h), (right, 1.0 / h)])
        if bc == DIRICHLET:
            # the cells an axis length apart are the first and the last
            first, last = _cell_pairs(grid, (grid.shape[a] - 1) * unit)
            blocks += [[(first, 1.0 / h)], [(last, -1.0 / h)]]
    i, j, v, row = [], [], [], 0
    for block in blocks:
        for cells, coef in block:
            i.append(np.arange(row, row + cells.size))
            j.append(cells)
            v.append(np.full(cells.size, coef))
        row += cells.size
    i, j, v = np.concatenate(i), np.concatenate(j), np.concatenate(v)
    return sp.csr_matrix((v, (i, j)), shape=(row, grid.num_cells))


def face_weights(grid: Grid, cell_weight: np.ndarray | None) -> np.ndarray:
    """Per-face weights in the Neumann row order of ``face_difference_matrix``.

    A piecewise-constant cell weight contributes the arithmetic mean of the
    two adjacent cells to their shared face; ``None`` gives unit weights.
    """
    faces = [_cell_pairs(grid, unit) for unit in np.eye(grid.dim, dtype=int)]
    if cell_weight is None:
        return np.ones(sum(left.size for left, _ in faces))
    w = np.asarray(cell_weight, dtype=float).reshape(grid.num_cells)
    if not np.all(w > 0):
        raise ValueError("cell weights must be strictly positive")
    return np.concatenate([0.5 * (w[left] + w[right]) for left, right in faces])


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


def inner_batch(grid: Grid, space: str, A: np.ndarray, B) -> np.ndarray:
    """Inner products in ``space`` along the last axis: rowwise for
    ``(rows, num_cells)`` arrays ``A`` and ``B``, or of every row of ``A``
    (any leading axes) with one ``(num_cells,)`` vector ``B``."""
    vol = grid.cell_volume
    if space == HMINUS1:
        sol = dirichlet_solve(grid, np.asarray(B, dtype=float).T)
        return vol * (A @ sol if sol.ndim == 1 else np.einsum("ij,ji->i", A, sol))
    return vol * (A @ B if np.ndim(B) == 1 else np.einsum("ij,ij->i", A, B))


def inner(u: GridFunction, v: GridFunction) -> float:
    """Inner product in the common space tag of ``u`` and ``v``."""
    u._check_compatible(v)
    return float(inner_batch(u.grid, u.space, u.flat, v.flat))


def norm(u: GridFunction) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def l2_norm_sq(grid: Grid, flat_values: np.ndarray) -> np.ndarray:
    """Batched squared L2 norms along the last axis of ``(..., num_cells)``."""
    return grid.cell_volume * np.sum(np.asarray(flat_values) ** 2, axis=-1)


def space_norm_sq(grid: Grid, flat_values: np.ndarray, space: str) -> np.ndarray:
    """Batched squared norms in the requested geometry, last axis = cells."""
    arr = np.asarray(flat_values, dtype=float)
    if space == L2:
        return l2_norm_sq(grid, arr)
    flat = arr.reshape(-1, grid.num_cells)
    return inner_batch(grid, space, flat, flat).reshape(arr.shape[:-1])
