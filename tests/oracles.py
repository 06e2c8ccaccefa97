"""Independent oracles shared by the test modules.

Each oracle deliberately avoids the code paths it checks: the chain
dynamic program enumerates a value lattice instead of solving optimality
conditions, the bisection root solver ignores the Newton machinery, the
Ornstein-Uhlenbeck recursions use dense eigendecompositions, and the kernel
constants integrate ``Kernel.radial`` by adaptive quadrature instead of
using the closed-form radial moments.  The band oracles build a Newton
system's bands for the whole batch in one array, where the solvers write
them chunk by chunk into the LAPACK buffer; they share the solvers' formulas,
so they check the chunking, not the algebra.

The vector Moreau-Yosida maps (``resolvent_radial``, ``phi_delta``,
``psi_delta``, ...) and ``h1_resolvent_bound_check`` are test helpers, not
independent oracles: the Yosida maps wrap ``yosida.prox_radius`` and the bound
check wraps ``Potential.prox``, the code paths they exercise.  So does
``certified_prox``, the judge of every prox's minimizer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np
import scipy.integrate as integrate
import scipy.sparse as sp

from spdelab import yosida
from spdelab.grids import HMINUS1, NEUMANN, GridFunction, dirichlet_solve, face_difference_matrix, inner, space_norm_sq
from spdelab.potentials import DEFAULT_TOL


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-13, max_iter: int = 200) -> float:
    """Plain bisection for an increasing function with a sign change."""
    flo, fhi = fn(lo), fn(hi)
    assert flo <= 0.0 <= fhi, "root not bracketed"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def chain_dp_prox(fvals: np.ndarray, lam: float, p: float, h: float,
                  resolution: float = 1e-3, pad: float = 0.3) -> np.ndarray:
    """Global lattice minimizer of the 1D face-split prox objective.

    Minimizes ``1/2 sum (v_i - f_i)^2 + lam * sum |(v_{i+1} - v_i)/h|^p / p``
    over a value lattice by forward dynamic programming on the chain, which
    is exact for the lattice (no descent steps involved).
    """
    fvals = np.asarray(fvals, dtype=float)
    lo, hi = fvals.min() - pad, fvals.max() + pad
    xs = np.arange(lo, hi + resolution, resolution)
    n = fvals.size
    edge = lam * np.abs((xs[None, :] - xs[:, None]) / h) ** p / p
    cost = 0.5 * (xs - fvals[0]) ** 2
    back = []
    for i in range(1, n):
        total = cost[:, None] + edge
        idx = np.argmin(total, axis=0)
        back.append(idx)
        cost = total[idx, np.arange(xs.size)] + 0.5 * (xs - fvals[i]) ** 2
    j = int(np.argmin(cost))
    path = [j]
    for idx in reversed(back):
        path.append(idx[path[-1]])
    path.reverse()
    return xs[path]


def neumann_laplacian_dense(n: int, h: float) -> np.ndarray:
    """Dense negative Neumann Laplacian (PSD) on n cells."""
    A = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            A[i, i] += 1.0
            A[i, i - 1] -= 1.0
        if i < n - 1:
            A[i, i] += 1.0
            A[i, i + 1] -= 1.0
    return A / h**2


def hessian_band(K, curv: np.ndarray) -> np.ndarray:
    """Lower bands ``ab[r, j, k] = A_r[j + k, j]`` of ``I + K^T diag(c) K`` for
    every row of ``curv`` at once: one CSR scatter product over the whole
    batch, each slot summing its edges in CSR order.  ``K`` couples exactly
    two cells per edge."""
    K = sp.csr_matrix(K).sorted_indices()
    (i, j), (si, sj) = K.indices.reshape(-1, 2).T, K.data.reshape(-1, 2).T
    kd = int(np.max(j - i, initial=0))
    slots = np.concatenate([i * (kd + 1), j * (kd + 1), i * (kd + 1) + j - i])
    edges = np.tile(np.arange(K.shape[0]), 3)
    coef = np.concatenate([si * si, sj * sj, si * sj])
    scatter = sp.csr_matrix((coef, (slots, edges)), shape=(K.shape[1] * (kd + 1), K.shape[0]))
    ab = (scatter @ curv.T).T.reshape(curv.shape[0], -1, kd + 1)
    ab[:, :, 0] += 1.0
    return ab


def sls_band(L, c: np.ndarray) -> np.ndarray:
    """Lower bands of ``I + S L S``, ``S = diag(sqrt c)``, for every row of
    ``c`` at once, from the lower diagonals of the sparse symmetric ``L``."""
    L = sp.dia_matrix(L)
    sc, n = np.sqrt(c), c.shape[1]
    lower = {-int(off): data[: n + off] for off, data in zip(L.offsets, L.data) if off <= 0}
    ab = np.zeros((c.shape[0], n, max(lower) + 1))
    for k, d in lower.items():
        ab[:, : n - k, k] = sc[:, k:] * d * sc[:, : n - k]
    ab[:, :, 0] += 1.0
    return ab


def ou_second_moment(A: np.ndarray, modes: np.ndarray, x0: np.ndarray, dt: float, steps: int,
                     vol: float) -> np.ndarray:
    """E ||X_n||_{L2}^2 for the semi-implicit scheme on a linear problem.

    X_{n+1} = S (X_n + sum_k g_k dW_k) with S = (I + dt A)^{-1}; the second
    moment obeys an exact affine recursion through the eigenbasis of A.
    """
    w, V = np.linalg.eigh(A)
    S = 1.0 / (1.0 + dt * w)
    x = V.T @ x0
    g = modes @ V  # (K, n) rotated
    mom = np.zeros((steps + 1,))
    second = x**2
    mom[0] = vol * second.sum()
    noise_power = dt * np.sum(g**2, axis=0)
    for nstep in range(steps):
        second = S**2 * (second + noise_power)
        mom[nstep + 1] = vol * second.sum()
    return mom


def sphere_moment(p: float, d: int) -> float:
    """``K_{p,d}``: the two endpoints for d = 1, circle quadrature for d = 2."""
    if d == 1:
        return 2.0
    val, err = integrate.quad(
        lambda t: np.abs(np.sin(t)) ** p, 0.0, 2.0 * np.pi, points=[np.pi], limit=400,
        epsabs=1e-12, epsrel=1e-12,
    )
    assert err <= 1e-10, f"K_(p,d) quadrature did not converge: err={err:.2e}"
    return float(val)


def kernel_mass(kernel) -> float:
    """Total mass of the kernel by radial quadrature (should be 1)."""
    d = kernel.dim
    surf = 2.0 if d == 1 else 2.0 * np.pi
    val, _ = integrate.quad(
        lambda r: kernel.radial(r) * surf * r ** (d - 1), 0.0, kernel.support_radius, limit=200
    )
    return float(val)


def c_jp_radial(kernel, p: float) -> float:
    """``C_{J,p}`` from the radial moment formula by quadrature."""
    d = kernel.dim
    moment, err = integrate.quad(
        lambda r: kernel.radial(r) * r ** (p + d - 1), 0.0, kernel.support_radius, limit=400,
        epsabs=1e-12, epsrel=1e-12,
    )
    assert err <= 1e-9, f"C_(J,p) quadrature did not converge: err={err:.2e}"
    return 1.0 / (0.5 * sphere_moment(p, d) * moment)


def c_jp_direct(kernel, p: float) -> float:
    """``C_{J,p}`` from the defining d-dimensional integral."""
    R, d = kernel.support_radius, kernel.dim
    if d == 1:
        val, _ = integrate.quad(
            lambda z: kernel.radial(abs(z)) * abs(z) ** p, -R, R, points=[0.0], limit=400,
            epsabs=1e-12, epsrel=1e-12,
        )
    else:
        val, _ = integrate.dblquad(
            lambda z2, z1: kernel.radial(np.hypot(z1, z2)) * abs(z2) ** p,
            -R,
            R,
            lambda z1: -np.sqrt(max(R**2 - z1**2, 0.0)),
            lambda z1: np.sqrt(max(R**2 - z1**2, 0.0)),
            epsabs=1e-11,
            epsrel=1e-11,
        )
    return 1.0 / (0.5 * val)


# -- vector Moreau-Yosida maps of |xi|^p / p -----------------------------------
# xi is an array of d-vectors with the components on ``axis`` (default last),
# or plain signed scalars when ``axis is None``.


def _split(xi, axis):
    xi = np.asarray(xi, dtype=float)
    if axis is None:
        return np.abs(xi), np.sign(xi)
    mag = np.linalg.norm(xi, axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        direction = np.where(mag > 0.0, xi / mag, 0.0)
    return mag, direction


def resolvent_radial(p: float, delta: float, xi, axis: int | None = -1) -> np.ndarray:
    """Resolvent ``R_delta xi``: direction preserved, magnitude shrunk."""
    mag, direction = _split(xi, axis)
    r = yosida.prox_radius(p, delta, mag)
    return r * direction


def phi_delta(p: float, delta: float, xi, axis: int | None = -1) -> np.ndarray:
    """Yosida-regularized slope ``(xi - R_delta xi) / delta``; 1/delta-Lipschitz."""
    xi = np.asarray(xi, dtype=float)
    return (xi - resolvent_radial(p, delta, xi, axis)) / delta


def psi_value(p: float, xi, axis: int | None = -1) -> np.ndarray:
    """Raw potential ``|xi|^p / p``."""
    yosida._check_p(p)
    xi = np.asarray(xi, dtype=float)
    mag = np.abs(xi) if axis is None else np.linalg.norm(xi, axis=axis)
    return mag**p / p


def psi_delta(p: float, delta: float, xi, axis: int | None = -1) -> np.ndarray:
    """Moreau-Yosida envelope of ``|.|^p / p`` at xi."""
    mag, _ = _split(xi, axis)
    if axis is not None:
        mag = np.squeeze(mag, axis=axis)
    r = yosida.prox_radius(p, delta, mag)
    slope = (mag - r) / delta
    return 0.5 * delta * slope**2 + r**p / p


def phi_min_norm(p: float, xi, axis: int | None = -1) -> np.ndarray:
    """Minimal-section slope magnitude ``inf{|eta| : eta in phi(xi)}``.

    For p = 1 this is 1 away from the origin and 0 at it; for p > 1 it is
    ``|xi|^(p-1)``.
    """
    yosida._check_p(p)
    xi = np.asarray(xi, dtype=float)
    mag = np.abs(xi) if axis is None else np.linalg.norm(xi, axis=axis)
    if p == 1.0:
        return (mag > 0.0).astype(float)
    return mag ** (p - 1.0)


def h1_norm(u) -> float:
    """Full H1 norm ``sqrt(vol (|u|^2 + |K u|^2))``, Neumann faces, whatever the tag."""
    grads = face_difference_matrix(u.grid, NEUMANN) @ u.flat
    return float(np.sqrt(u.grid.cell_volume * (np.sum(u.flat**2) + np.sum(grads**2))))


def h1_resolvent_bound_check(pot, f, tol: float = 1e-10) -> float:
    """Ratio ``||prox(1, f)||_H1 / ||f||_H1``; at most 1 for smooth
    weight-free gradient families with zero-flux faces."""
    z = pot.prox(1.0, f, tol=tol)
    denom = h1_norm(f)
    if denom == 0.0:
        raise ValueError("H1 bound check needs a nonzero probe")
    return h1_norm(z) / denom


# -- the prox certificate: the minimizer against the variational inequality ----


CertifiedProx = namedtuple("CertifiedProx", "minimizer kkt_residual objective_value iterations")


@lru_cache(maxsize=None)
def probe_directions(grid, space: str, count: int = 64) -> np.ndarray:
    """``count`` unit-H-norm random directions, one read-only flat row each."""
    V = np.random.default_rng(20_240_501).standard_normal((count, grid.num_cells))
    dirs = V / np.sqrt(space_norm_sq(grid, V, space))[:, None]
    dirs.flags.writeable = False
    return dirs


def probe_violation(pot, lam: float, f, z) -> float:
    """Max violation of ``(f - z, v - z)_H <= lam (eval(v) - eval(z))`` over v = z + 64
    unit-H-norm random directions, v = f and v = 0: one batch with z as its last row."""
    zf = z.flat
    V = np.vstack([zf + probe_directions(pot.grid, pot.space), f.flat, np.zeros_like(zf), zf])
    ev = pot.eval_batch(V)
    # (f - z, w)_H = vol <rep, w> with rep the Riesz representative of f - z
    fz = f.flat - zf
    rep = dirichlet_solve(pot.grid, fz) if pot.space == HMINUS1 else fz
    pairing = pot.grid.cell_volume * ((V[:-1] - zf) @ rep)
    return max(float(np.max(pairing - lam * (ev[:-1] - ev[-1]))), 0.0)


def certified_prox(pot, lam: float, f, tol: float = DEFAULT_TOL) -> CertifiedProx:
    """``prox(lam, f)`` as one ``prox_batch`` row, certified: ``kkt_residual`` is the
    solver's residual plus the probe panel's violation."""
    Z, residual, iterations = pot.prox_batch(lam, f.flat[None, :], tol=tol)
    z = GridFunction(pot.grid, Z[0].reshape(pot.grid.shape), pot.space)
    objective = 0.5 * inner(f - z, f - z) + lam * pot.eval(z)
    return CertifiedProx(z, residual + probe_violation(pot, lam, f, z), objective, iterations)
