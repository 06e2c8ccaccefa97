"""Small shared linear-algebra helpers (LAPACK ``gtsv``, called directly)."""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs


def solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tridiagonal solve, batched over leading axes, in one LAPACK ``gtsv`` call.

    ``dl[..., i]`` multiplies ``x[..., i-1]``, ``d[..., i]`` the diagonal and
    ``du[..., i]`` multiplies ``x[..., i+1]``; ``dl[..., 0]`` and
    ``du[..., -1]`` are ignored.  The arguments broadcast against each other.
    The batch rows lie end to end with zero couplings in one ``(4, N)`` buffer
    of bands and right-hand side that ``gtsv`` solves in place.  A 1 x 1 system
    is a division, as in ``scipy.linalg.solve_banded``; a singular one raises
    ``LinAlgError``.
    """
    shape = np.broadcast_shapes(np.shape(dl), np.shape(d), np.shape(du), np.shape(b))
    buf = np.zeros((4,) + shape)
    buf[0, ..., :-1] = dl[..., 1:]
    buf[1] = d
    buf[2, ..., :-1] = du[..., :-1]
    buf[3] = b
    buf = buf.reshape(4, -1)
    if buf.shape[1] == 1:
        return (buf[3] / buf[1]).reshape(shape)
    gtsv = get_lapack_funcs("gtsv", dtype=np.float64)
    *_, x, info = gtsv(buf[0, :-1], buf[1], buf[2, :-1], buf[3], True, True, True, True)
    if info:
        raise LinAlgError(f"singular tridiagonal system (gtsv info {info})")
    return x.reshape(shape)
