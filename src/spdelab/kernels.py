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
support; the pair stencil is precomputed and cached per grid.  Its rows run
offset by offset, over the lexicographically positive offsets in
lexicographic order, each offset's pairs in the order ``grids._cell_pairs``
defines.

The named profiles: "ball" (normalized indicator -- discontinuous at its
support edge, kept as a stress-test profile), "tent" and "bump".
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .grids import Grid, _cell_pairs

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
    kmax = [int(np.floor(reach / hh + 1e-12)) for hh in h]
    # one offset per unordered pair: the lexicographically positive ones in the
    # box; those past the support are skipped, as J would be 0 on their pairs
    box = itertools.product(range(kmax[0] + 1), *(range(-k, k + 1) for k in kmax[1:]))
    pairs = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]  # an empty stencil concatenates too
    for off in box:
        dist = float(np.linalg.norm(np.multiply(off, h)))
        if off > (0,) * grid.dim and dist <= reach + 1e-12:
            left, right = _cell_pairs(grid, off)
            pairs.append((left, right, np.full(left.size, dist)))
    i, j, dist = (np.concatenate(a) for a in zip(*pairs))
    jvals = base.radial(dist / eps)
    keep = jvals > 0.0
    i, j, jvals = i[keep], j[keep], jvals[keep]
    m = i.size
    cols = np.stack([i, j], axis=1).reshape(-1)  # row e holds -1 at i_e, +1 at j_e > i_e
    P = sp.csr_matrix((np.tile([-1.0, 1.0], m), cols, np.arange(0, 2 * m + 1, 2)), shape=(m, grid.num_cells))
    weights = c_jp(base, p) / eps ** (grid.dim + p) * jvals * grid.cell_volume**2
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

