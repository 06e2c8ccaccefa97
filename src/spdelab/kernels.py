"""Radial nonlocal kernels, their rescalings and normalization constants.

A kernel J is nonnegative, radial, radially non-increasing, compactly
supported with J(0) > 0 and unit mass.  The rescaled interaction energy on a
domain O is

    energy(u) = C_{J,p} / (2 p eps^d) * int_O int_O J((xi - zeta)/eps)
                |(u(zeta) - u(xi)) / eps|^p dzeta dxi

with the normalization ``C_{J,p}^{-1} = 1/2 int J(z) |z_d|^p dz``, which in
radial form reads ``C^{-1} = (K_{p,d} / 2) int_0^inf J(r) r^{p+d-1} dr`` with
``K_{p,d}`` the p-th directional moment of the unit sphere.  Every profile is
a polynomial in r on its support, so one radial moment per profile gives both
its unit-mass constant and ``C_{J,p}`` in closed form, and ``K_{p,d}`` is a
Beta integral: the runtime uses no quadrature.  Discretely the double
integral becomes a midpoint sum over unordered cell pairs inside the
support; the pair stencil is precomputed and cached per grid.

The named profiles: "ball" (normalized indicator -- discontinuous at its
support edge, kept as a stress-test profile), "tent" and "bump".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .grids import Grid

PROFILE_NAMES = ("ball", "tent", "bump")

# surface measure sigma_d of the unit sphere S^{d-1} (its two points for d = 1)
_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi}


@dataclass(frozen=True)
class Kernel:
    """Named radial profile with compact support and unit mass."""

    profile: str
    dim: int = 1
    support_radius: float = 1.0

    def __post_init__(self):
        if self.profile not in PROFILE_NAMES:
            raise ValueError(f"unknown kernel profile {self.profile!r}, expected one of {PROFILE_NAMES}")
        if self.dim not in (1, 2):
            raise ValueError(f"only d in {{1, 2}} is supported, got {self.dim}")
        if not self.support_radius > 0:
            raise ValueError("support radius must be positive")

    def _moment(self, a: float) -> float:
        """``M(a) = int_0^R j(r) r^a dr`` of the unnormalized profile j:
        1, 1 - r/R or (1 - (r/R)^2)^2 on the support."""
        scale = self.support_radius ** (a + 1)
        if self.profile == "ball":
            return scale / (a + 1)
        if self.profile == "tent":
            return scale / ((a + 1) * (a + 2))
        return 8.0 * scale / ((a + 1) * (a + 3) * (a + 5))

    @property
    def _norm_const(self) -> float:
        # unit mass: c * sigma_d * M(d - 1) = 1
        return 1.0 / (_SPHERE_MEASURE[self.dim] * self._moment(self.dim - 1))

    def radial(self, r) -> np.ndarray:
        """J(r) for radii r >= 0 (vectorized)."""
        r = np.asarray(r, dtype=float)
        R = self.support_radius
        c = self._norm_const
        if self.profile == "ball":
            return np.where(r <= R, c, 0.0)
        if self.profile == "tent":
            return c * np.maximum(1.0 - r / R, 0.0)
        return c * np.maximum(1.0 - (r / R) ** 2, 0.0) ** 2


def k_pd(p: float, d: int) -> float:
    """Directional moment ``int_{S^{d-1}} |sigma . e_d|^p dsigma``.

    d = 1 uses the counting measure on the two endpoints, giving 2 for all p.
    On the circle it is ``4 int_0^{pi/2} sin^p t dt``, a Beta integral.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    if d == 1:
        return 2.0
    if d == 2:
        return 2.0 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
    raise ValueError(f"only d in {{1, 2}} is supported, got {d}")


def c_jp(kernel: Kernel, p: float) -> float:
    """Normalization constant via the radial moment formula, in closed form."""
    d = kernel.dim
    inv = 0.5 * k_pd(p, d) * kernel._norm_const * kernel._moment(p + d - 1)
    return 1.0 / inv


class RescaledKernel:
    """Kernel with interaction range eps and power p; caches ``C_{J,p}``."""

    def __init__(self, base: Kernel, eps: float, p: float):
        if not eps > 0:
            raise ValueError("eps must be positive")
        if not 1.0 <= p <= 2.0:
            raise ValueError(f"p must lie in [1, 2], got {p}")
        self.base = base
        self.eps = float(eps)
        self.p = float(p)
        self.c_jp = c_jp(base, p)

    def __repr__(self):
        return f"RescaledKernel({self.base.profile}, eps={self.eps}, p={self.p})"


@lru_cache(maxsize=None)
def _pair_stencil_cached(base: Kernel, eps: float, p: float, grid: Grid):
    if grid.dim != base.dim:
        raise ValueError(f"kernel dimension {base.dim} does not match grid dimension {grid.dim}")
    reach = eps * base.support_radius
    h = grid.spacing
    idx = np.arange(grid.num_cells).reshape(grid.shape)
    offsets = []
    if grid.dim == 1:
        kmax = int(np.floor(reach / h[0] + 1e-12))
        offsets = [(k,) for k in range(1, kmax + 1)]
    else:
        kx = int(np.floor(reach / h[0] + 1e-12))
        ky = int(np.floor(reach / h[1] + 1e-12))
        for dx in range(0, kx + 1):
            for dy in range(-ky, ky + 1):
                if dx == 0 and dy <= 0:
                    continue
                if np.hypot(dx * h[0], dy * h[1]) <= reach + 1e-12:
                    offsets.append((dx, dy))
    rows_i, rows_j, dists = [], [], []
    for off in offsets:
        dist = float(np.linalg.norm([o * hh for o, hh in zip(off, h)]))
        if dist > reach + 1e-12:
            continue
        sl_lo, sl_hi = [], []
        for a, o in enumerate(off):
            n = grid.shape[a]
            if o >= 0:
                sl_lo.append(slice(0, max(n - o, 0)))
                sl_hi.append(slice(min(o, n), n))
            else:
                sl_lo.append(slice(min(-o, n), n))
                sl_hi.append(slice(0, max(n + o, 0)))
        left = idx[tuple(sl_lo)].reshape(-1)
        right = idx[tuple(sl_hi)].reshape(-1)
        if left.size == 0:
            continue
        rows_i.append(left)
        rows_j.append(right)
        dists.append(np.full(left.size, dist))
    if rows_i:
        i = np.concatenate(rows_i)
        j = np.concatenate(rows_j)
        dist = np.concatenate(dists)
    else:
        i = np.zeros(0, dtype=int)
        j = np.zeros(0, dtype=int)
        dist = np.zeros(0)
    jvals = base.radial(dist / eps)
    keep = jvals > 0.0
    i, j, jvals = i[keep], j[keep], jvals[keep]
    m = i.size
    rows = np.repeat(np.arange(m), 2)
    cols = np.empty(2 * m, dtype=int)
    cols[0::2] = i
    cols[1::2] = j
    vals = np.empty(2 * m)
    vals[0::2] = -1.0
    vals[1::2] = 1.0
    P = sp.csr_matrix((vals, (rows, cols)), shape=(m, grid.num_cells))
    ck = c_jp(base, p)
    weights = ck / eps ** (grid.dim + p) * jvals * grid.cell_volume**2
    return P, weights


def pair_stencil(rk: RescaledKernel, grid: Grid):
    """Sparse difference operator over interacting cell pairs plus weights.

    Returns ``(P, w)`` with ``(P u)_e = u_j - u_i`` per unordered pair and
    ``w_e`` the energy quadrature weight, so the discrete interaction energy
    is ``sum_e w_e |P u|_e^p / p``.
    """
    if rk.eps < 2.0 * max(grid.spacing):
        warnings.warn(
            f"interaction range eps={rk.eps} is below twice the grid spacing "
            f"{max(grid.spacing)}; the kernel is under-resolved",
            stacklevel=2,
        )
    return _pair_stencil_cached(rk.base, rk.eps, rk.p, grid)

