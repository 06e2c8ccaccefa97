"""Independent oracles shared by the test modules.

Each oracle deliberately avoids the code paths it checks: the chain
dynamic program enumerates a value lattice instead of solving optimality
conditions, the bisection root solver ignores the Newton machinery, the
Ornstein-Uhlenbeck recursions use dense eigendecompositions, and the kernel
constants integrate ``Kernel.radial`` by adaptive quadrature instead of
using the closed-form radial moments.
"""

from __future__ import annotations

import numpy as np
import scipy.integrate as integrate


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
