"""Small shared linear-algebra helpers (LAPACK ``gtsv`` and ``pbsv``, called directly)."""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

_GTSV, _PBSV = get_lapack_funcs(("gtsv", "pbsv"), dtype=np.float64)


def solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tridiagonal solve per row of the array ``b``, batched over its leading
    axes, in one LAPACK ``gtsv`` call.

    ``d[..., i]`` is the diagonal; the n - 1 couplings ``dl[..., i]`` and
    ``du[..., i]`` sit at (i + 1, i) and (i, i + 1).  All three broadcast
    against ``b`` and go straight into one ``(4, N)`` buffer of bands and
    right-hand side, sized from ``b``, with the batch rows end to end and zero
    couplings between them; ``gtsv`` solves it in place.  A 1 x 1 system is a
    division, as in ``scipy.linalg.solve_banded``; a singular one raises
    ``LinAlgError``.
    """
    buf = np.zeros((4,) + b.shape)
    buf[0, ..., :-1] = dl
    buf[1] = d
    buf[2, ..., :-1] = du
    buf[3] = b
    flat = buf.reshape(4, -1)
    if flat.shape[1] == 1:
        return buf[3] / buf[1]
    *_, x, info = _GTSV(flat[0, :-1], flat[1], flat[2, :-1], flat[3], True, True, True, True)
    if info:
        raise LinAlgError(f"singular tridiagonal system (gtsv info {info})")
    return x.reshape(b.shape)


def solve_banded_spd(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric positive definite banded solve per batch row, in one LAPACK ``pbsv`` call.

    ``ab`` has shape ``(m, n, kd + 1)`` and holds each row's lower band,
    ``ab[r, j, k] = A_r[j + k, j]``; entries with ``j + k >= n`` are ignored.
    ``b`` has shape ``(m, n)``.  The rows lie end to end as independent
    blocks of one band matrix, each followed by at least kd identity rows
    and starting at a multiple of 32, the block size of LAPACK's blocked band
    Cholesky.  So every row meets the same arithmetic wherever it sits in the
    batch, and a row's solution is bit-identical to solving it alone.  The
    buffer's ``(rows, kd + 1)`` reshape, transposed, is already the
    Fortran-ordered band storage ``pbsv`` factors in place.  A system that
    is not positive definite raises ``LinAlgError``.
    """
    m, n, w = ab.shape
    stride = n + w - 1 + (1 - n - w) % 32  # n cells, kd identity rows, up to a multiple of 32
    buf = np.zeros((m, stride, w))
    buf[:, :n] = ab
    for k in range(1, w):
        buf[:, max(n - k, 0) : n, k] = 0.0
    buf[:, n:, 0] = 1.0
    rhs = np.zeros((m, stride))
    rhs[:, :n] = b
    _, x, info = _PBSV(buf.reshape(m * stride, w).T, rhs.reshape(m * stride, 1),
                       lower=1, overwrite_ab=1, overwrite_b=1)
    if info:
        raise LinAlgError(f"banded system not positive definite (pbsv info {info})")
    return x.reshape(m, stride)[:, :n]
