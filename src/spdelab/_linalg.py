"""Small shared linear-algebra helpers (banded LAPACK through scipy)."""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tridiagonal solve, batched over leading axes, in one LAPACK ``gtsv`` call.

    ``dl[..., i]`` multiplies ``x[..., i-1]``, ``d[..., i]`` the diagonal and
    ``du[..., i]`` multiplies ``x[..., i+1]``; ``dl[..., 0]`` and
    ``du[..., -1]`` are ignored.  The arguments broadcast against each other.
    The batch rows are laid end to end as one banded system whose couplings
    between consecutive rows are zero, so the rows stay independent.
    """
    shape = np.broadcast_shapes(np.shape(dl), np.shape(d), np.shape(du), np.shape(b))
    ab = np.zeros((3,) + shape)
    ab[0, ..., 1:] = du[..., :-1]
    ab[1] = d
    ab[2, ..., :-1] = dl[..., 1:]
    rhs = np.broadcast_to(b, shape).reshape(-1)
    x = solve_banded((1, 1), ab.reshape(3, -1), rhs, overwrite_ab=True, check_finite=False)
    return x.reshape(shape)
