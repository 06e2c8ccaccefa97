"""Small shared linear-algebra helpers (LAPACK ``gtsv`` and ``pbsv``, called directly)."""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

_GTSV, _PBSV = get_lapack_funcs(("gtsv", "pbsv"), dtype=np.float64)
_CHUNK_BYTES = 256 * 1024  # band buffer per pbsv call: a chunk of rows stays in cache


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


def solve_banded_spd(fill, kd: int, b: np.ndarray) -> np.ndarray:
    """Symmetric positive definite banded solve per row of ``b``, shape
    ``(m, n)``, by LAPACK ``pbsv`` on chunks of rows of about ``_CHUNK_BYTES``.

    ``fill(view, rows)`` writes the lower bands of the batch rows ``rows`` (a
    slice) into the zeroed ``view`` of shape ``(len(rows), n, kd + 1)``,
    ``view[r, j, k] = A[j + k, j]``, leaving the entries with ``j + k >= n``
    zero.  The rows of a chunk lie end to end as independent blocks of one
    band matrix, each followed by at least kd identity rows and starting at a
    multiple of 32, the block size of LAPACK's blocked band Cholesky.  So
    every row meets the same arithmetic wherever it sits, and its solution is
    bit-identical to solving it alone, whatever the chunk.  The buffer's
    ``(rows, kd + 1)`` reshape, transposed, is already the Fortran-ordered
    band storage ``pbsv`` factors in place.  A system that is not positive
    definite raises ``LinAlgError`` naming its batch row and cell.
    """
    (m, n), w = b.shape, kd + 1
    stride = n + kd + (-n - kd) % 32  # n cells, kd identity rows, up to a multiple of 32
    per, x = max(_CHUNK_BYTES // (8 * stride * w), 1), np.empty((m, n))
    for lo in range(0, m, per):
        rows = slice(lo, min(lo + per, m))
        buf, rhs = np.zeros((rows.stop - lo, stride, w)), np.zeros((rows.stop - lo, stride))
        buf[:, n:, 0] = 1.0
        fill(buf[:, :n], rows)
        rhs[:, :n] = b[rows]
        _, z, info = _PBSV(buf.reshape(-1, w).T, rhs.reshape(-1, 1), lower=1, overwrite_ab=1, overwrite_b=1)
        if info:
            raise LinAlgError(f"banded system not positive definite at row {lo + (info - 1) // stride}, "
                              f"cell {(info - 1) % stride} (pbsv info {info})")
        x[rows] = z.reshape(-1, stride)[:, :n]
    return x
