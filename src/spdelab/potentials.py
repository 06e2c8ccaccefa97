"""Convex potentials on grid functions: evaluation, proximal maps, drifts.

Families
--------
* ``GradientPotential`` -- energies of the gradient, ``int a(x) psi(grad u)``
  plus an optional unweighted viscosity term ``(visc/2) int |grad u|^2``,
  with zero-flux (Neumann) faces.  Lives in the L2 geometry.  Covers the
  p-Dirichlet energies (total variation at p = 1), their Moreau-Yosida
  regularizations, the vanishing-viscosity profiles and the weighted
  (oscillating-coefficient) variants.
* ``FastDiffusionPotential`` -- zero-order energies ``int a(x) psi(u)``
  measured in the discrete H^-1 geometry (Dirichlet Laplacian dual),
  ``psi(r) = |r|^(m+1) / (m+1)`` with m in [0, 1].
* ``NonlocalPotential`` -- pairwise interaction energies assembled from a
  rescaled compactly supported kernel; shares the proximal machinery with
  the gradient family through the common "difference penalty" normal form

      eval(u) = vol * sum_e [ w_e psi(|K u|_e) + (q_e / 2) (K u)_e^2 ].

Proximal maps minimize ``1/2 ||v - f||_H^2 + lam * eval(v)``.  Smooth
profiles use damped Newton (batched tridiagonal solves on 1D grids); the
raw kinked case (p = 1 total variation) uses an active-set projected Newton
method on the box-constrained dual over face variables.  Every returned
minimizer carries a certificate: the max violation of the variational
inequality over a probe panel plus the solver's own optimality residual.

On a finite grid every function has finite energy, so the
lower-semicontinuous-hull construction that extends these energies to the
full continuum spaces needs no discrete counterpart: ``eval`` is total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernels as kernels_mod
from ._linalg import solve_tridiagonal
from .grids import (
    DIRICHLET,
    H1,
    HMINUS1,
    L2,
    NEUMANN,
    Grid,
    GridFunction,
    _dirichlet_solver,
    face_difference_matrix,
    inner,
    neg_laplacian_matrix,
    norm,
)
from .profiles import PowerProfile, RadialProfile, YosidaPowerProfile

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
_PROBE_COUNT = 64


class ProxDidNotConverge(RuntimeError):
    """Raised when a proximal solve stalls; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = float(residual)


@dataclass
class ProxResult:
    minimizer: GridFunction
    objective_value: float
    kkt_residual: float
    iterations: int


def face_weights(grid: Grid, cell_weight: np.ndarray | None) -> np.ndarray:
    """Per-face weights for the Neumann face layout (interior faces only).

    A piecewise-constant cell weight contributes the arithmetic mean of the
    two adjacent cells to their shared face; ``None`` gives unit weights.
    """
    K = face_difference_matrix(grid, NEUMANN)
    if cell_weight is None:
        return np.ones(K.shape[0])
    w = np.asarray(cell_weight, dtype=float).reshape(grid.shape)
    if np.any(w <= 0):
        raise ValueError("cell weights must be strictly positive")
    parts = []
    for a in range(grid.dim):
        lo = [slice(None)] * grid.dim
        lo[a] = slice(0, grid.shape[a] - 1)
        hi = [slice(None)] * grid.dim
        hi[a] = slice(1, grid.shape[a])
        parts.append(0.5 * (w[tuple(lo)] + w[tuple(hi)]).reshape(-1))
    return np.concatenate(parts)


class Potential:
    """Shared surface: evaluation, proximal map, Yosida drift."""

    grid: Grid
    space: str
    profile: RadialProfile
    label: str = "potential"

    # -- evaluation -----------------------------------------------------------
    def eval_batch(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _accepts(self, space: str) -> bool:
        raise NotImplementedError

    def eval(self, u: GridFunction) -> float:
        if u.grid != self.grid:
            raise ValueError("grid mismatch between potential and argument")
        if not self._accepts(u.space):
            raise ValueError(f"{self.label} does not accept {u.space}-tagged functions")
        return float(self.eval_batch(u.flat[None, :])[0])

    @property
    def delta(self) -> float | None:
        return self.profile.delta

    # -- prox -----------------------------------------------------------------
    def prox_batch(
        self,
        lam: float,
        F: np.ndarray,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
        warm: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float, int]:
        """Batched proximal map on raw value rows; returns (Z, residual, iters).

        The residual is reported in the potential's own H-norm dual pairing.
        """
        raise NotImplementedError

    def prox(
        self,
        lam: float,
        f: GridFunction,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
    ) -> ProxResult:
        if lam <= 0:
            raise ValueError("lam must be positive")
        if f.grid != self.grid or f.space != self.space:
            raise ValueError(
                f"prox of {self.label} needs a {self.space}-tagged function on its own grid"
            )
        Z, residual, iters = self.prox_batch(lam, f.flat[None, :], tol=tol, max_iter=max_iter)
        z = GridFunction(self.grid, Z[0].reshape(self.grid.shape), self.space)
        violation = self._probe_violation(lam, f, z)
        kkt = residual + max(violation, 0.0)
        diff = f - z
        obj = 0.5 * inner(diff, diff) + lam * self.eval(z)
        return ProxResult(minimizer=z, objective_value=obj, kkt_residual=kkt, iterations=iters)

    def _probe_violation(self, lam: float, f: GridFunction, z: GridFunction) -> float:
        """Max violation of ``(f - z, v - z)_H <= lam (eval(v) - eval(z))``.

        Probes: unit-H-norm random directions around z, plus v = f and v = 0.
        """
        dirs = _probe_directions(self.grid, self.space, _PROBE_COUNT)
        ez = self.eval(z)
        fz = f - z
        worst = 0.0
        for dvals in dirs:
            v = GridFunction(self.grid, z.values + dvals, self.space)
            worst = max(worst, inner(fz, v - z) - lam * (self.eval(v) - ez))
        for v in (f, GridFunction(self.grid, np.zeros(self.grid.shape), self.space)):
            worst = max(worst, inner(fz, v - z) - lam * (self.eval(v) - ez))
        return worst

    # -- drift ----------------------------------------------------------------
    def yosida_gradient_batch(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def drift_lipschitz_bound(self) -> float | None:
        """Lipschitz bound of the drift, None when the drift is unbounded."""
        return None

    def yosida_gradient(self, u: GridFunction) -> GridFunction:
        """Gradient of ``eval`` in the potential's own geometry at u.

        Requires a Yosida-regularized profile; globally Lipschitz with
        constant O(1/delta) times grid constants.
        """
        if self.delta is None:
            raise ValueError("yosida_gradient requires a Yosida-regularized potential")
        if u.grid != self.grid:
            raise ValueError("grid mismatch")
        out = self.yosida_gradient_batch(u.flat[None, :])[0]
        return GridFunction(self.grid, out.reshape(self.grid.shape), self.space)


@lru_cache(maxsize=None)
def _probe_directions(grid: Grid, space: str, count: int) -> tuple[np.ndarray, ...]:
    from .grids import space_norm_sq

    rng = np.random.default_rng(20_240_501)
    dirs = []
    for _ in range(count):
        v = rng.standard_normal(grid.num_cells)
        nrm = float(np.sqrt(space_norm_sq(grid, v, space)))
        dirs.append((v / nrm).reshape(grid.shape))
    return tuple(dirs)


# ---------------------------------------------------------------------------
# difference-penalty core (gradient + nonlocal families)
# ---------------------------------------------------------------------------


class _DifferencePenaltyPotential(Potential):
    """eval(u) = vol * sum_e [w_e psi(|Ku|_e) + (q_e/2) (Ku)_e^2], prox in L2."""

    space = L2

    def __init__(self, grid, K, edge_w, edge_q, profile, label, tridiagonal):
        self.grid = grid
        self.K = K.tocsr()
        self.edge_w = np.asarray(edge_w, dtype=float)
        self.edge_q = np.asarray(edge_q, dtype=float)
        self.profile = profile
        self.label = label
        self._tridiagonal = tridiagonal
        self._gram = None
        if tridiagonal:
            # chain structure: edge e couples cells (e, e+1); cache stencil scale
            rows = np.arange(self.K.shape[0])
            self._edge_scale = np.asarray(self.K[rows, rows + 1]).reshape(-1)

    def _accepts(self, space: str) -> bool:
        return space in (L2, H1)

    def eval_batch(self, U: np.ndarray) -> np.ndarray:
        G = (self.K @ np.asarray(U, dtype=float).T).T
        vals = self.profile.value(np.abs(G)) @ self.edge_w
        if np.any(self.edge_q):
            vals = vals + 0.5 * (G**2 @ self.edge_q)
        return self.grid.cell_volume * vals

    def yosida_gradient_batch(self, U: np.ndarray) -> np.ndarray:
        G = (self.K @ np.asarray(U, dtype=float).T).T
        coeff = self.edge_w * self.profile.signed_slope(G) + self.edge_q * G
        return (self.K.T @ coeff.T).T

    def drift_lipschitz_bound(self) -> float | None:
        """Upper bound on the Lipschitz constant of the Yosida drift."""
        lip = self.profile.slope_lipschitz()
        if not np.isfinite(lip):
            return None
        c = self.edge_w * lip + self.edge_q
        M = (self.K.T @ sp.diags(c) @ self.K).tocsr()
        return float(np.max(np.abs(M).sum(axis=1)))

    def prox_batch(self, lam, F, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, warm=None):
        F = np.asarray(F, dtype=float)
        prof = self.profile
        no_quad = not np.any(self.edge_q)
        if no_quad and prof.is_kinked:
            # raw total variation: box-constrained dual
            return _dual_projected_newton(self, lam, F, tol, max_iter)
        if no_quad and isinstance(prof, YosidaPowerProfile) and prof.p == 1.0:
            # regularized total variation: same box, quadratic conjugate term
            return _dual_projected_newton(self, lam, F, tol, max_iter, dual_quad=prof.delta)
        dual_ok = prof.slope_unbounded or np.all(self.edge_q > 0)
        if prof.curvature_bounded:
            # remaining regularized / quadratic profiles: primal Newton is fast
            try:
                return _newton_difference(self, lam, F, tol, max_iter, warm)
            except ProxDidNotConverge:
                # semismooth cycling at the regularization kink in the very
                # stiff regime; the face dual is well conditioned exactly there
                if not dual_ok:
                    raise
                return _dual_newton_smooth(self, lam, F, tol, max_iter)
        # raw singular powers (and kink + viscosity): smooth dual
        return _dual_newton_smooth(self, lam, F, tol, max_iter)


def _h_norm_factor(grid: Grid) -> float:
    # converts plain l2 residual norms to L2(O) norms
    return float(np.sqrt(grid.cell_volume))


def _newton_difference(core, lam, F, tol, max_iter, warm):
    """Damped Newton on the strongly convex smoothed objective (batched)."""
    K = core.K
    prof = core.profile
    W = lam * core.edge_w
    Q = lam * core.edge_q
    V = F.copy() if warm is None else np.array(warm, dtype=float, copy=True)
    m, n = F.shape
    scale = _h_norm_factor(core.grid)
    target = 0.25 * tol * (1.0 + np.sqrt(np.sum(F**2, axis=1)) * scale)

    def evaluate(Vv):
        """Objective per row, plus G = K v and the profile maps at |G|."""
        G = (K @ Vv.T).T
        value, slope, curv = prof.maps(np.abs(G))
        pen = value @ W
        if np.any(Q):
            pen = pen + 0.5 * (G**2 @ Q)
        return 0.5 * np.sum((Vv - F) ** 2, axis=1) + pen, G, slope, curv

    obj, G, slope, curv = evaluate(V)
    iters = 0
    resid = np.full(m, np.inf)
    best = np.inf
    stagnant = 0
    for iters in range(1, min(max_iter, 400) + 1):
        coeff = W * (np.sign(G) * slope) + Q * G
        grad = V - F + (K.T @ coeff.T).T
        resid = np.sqrt(np.sum(grad**2, axis=1)) * scale
        live = resid > target
        if not np.any(live):
            break
        worst_now = float(np.max(resid))
        if worst_now < 0.9 * best:
            best, stagnant = worst_now, 0
        else:
            stagnant += 1
            if stagnant >= 25:
                break
        step = _solve_difference_newton(core, W * curv + Q, -grad)
        # Armijo backtracking per row (Hessian >= I, so full steps dominate);
        # the slack term keeps full steps acceptable once the objective
        # improvement falls below floating-point resolution
        gd = np.sum(grad * step, axis=1)
        t = np.ones(m)
        for _ in range(40):
            cand = V + t[:, None] * step
            new = evaluate(cand)
            ok = ~live | (new[0] <= obj + 1e-4 * t * gd + 1e-14 * (1.0 + np.abs(obj)))
            if np.all(ok):
                # the accepted candidate is the next iterate: keep its maps
                V, obj, G, slope, curv = _take_rows(live, (cand, *new), (V, obj, G, slope, curv))
                break
            t = np.where(ok, t, 0.5 * t)
        else:
            V = np.where(live[:, None], V + t[:, None] * step, V)
            obj, G, slope, curv = evaluate(V)
    if np.any(resid > np.maximum(target, 0.25 * tol)):
        worst = float(np.max(resid))
        raise ProxDidNotConverge(f"Newton prox of {core.label} stalled", worst)
    return V, float(np.max(resid)), iters


def _take_rows(live, new, old):
    """Row-wise ``new if live else old`` over matching tuples of batch arrays."""
    return tuple(
        np.where(live.reshape((-1,) + (1,) * (np.ndim(a) - 1)), a, b) for a, b in zip(new, old)
    )


def _solve_difference_newton(core, curv, rhs):
    """Solve ``(I + K^T diag(c) K) x = rhs`` per batch row."""
    if core._tridiagonal:
        s2 = core._edge_scale**2  # per-edge (1/h)^2 factors
        c = curv * s2
        m, n = rhs.shape
        d = np.ones((m, n))
        d[:, :-1] += c
        d[:, 1:] += c
        dl = np.zeros((m, n))
        dl[:, 1:] = -c
        du = np.zeros((m, n))
        du[:, :-1] = -c
        return solve_tridiagonal(dl, d, du, rhs)
    K = core.K
    out = np.empty_like(rhs)
    for r in range(rhs.shape[0]):
        H = sp.eye(K.shape[1], format="csr") + K.T @ sp.diags(curv[r]) @ K
        out[r] = spla.spsolve(H.tocsc(), rhs[r])
    return out


def _fenchel_gap(core, lam, Y, F, hstar):
    """Duality-gap certificate for dual iterates ``v = f - K^T y``.

    For any probe v' the variational-inequality violation of v is bounded by
    the edgewise Fenchel-Young gap ``sum_e [h(g_e) + h*(y_e) - y_e g_e]``
    (in H units), since ``(f - v, v' - v)_H = <y, Kv' - Kv>`` and Young's
    inequality absorbs the probe term into ``h(Kv')``.  ``hstar`` holds the
    conjugate values ``h*(y_e)``.
    """
    K = core.K
    prof = core.profile
    W = lam * core.edge_w
    Q = lam * core.edge_q
    V = F - (K.T @ Y.T).T
    G = (K @ V.T).T
    hval = W * prof.value(np.abs(G)) + 0.5 * Q * G**2
    terms = hval + hstar - Y * G
    gap = core.grid.cell_volume * np.maximum(np.sum(terms, axis=1), 0.0)
    floor = 5e-14 * core.grid.cell_volume * np.sum(np.abs(hval) + np.abs(hstar) + np.abs(Y * G), axis=1)
    return V, gap, floor


def _dual_newton_smooth(core, lam, F, tol, max_iter):
    """Newton on the smooth Fenchel dual over face/pair variables.

    For raw powers p in (1, 2) the edge conjugate is C^1 with curvature
    vanishing (not blowing up) at the origin, so Newton behaves where the
    primal Hessian degenerates.  Primal recovery: ``v = f - K^T y``.
    """
    from .profiles import EdgeConjugate

    K = core.K
    conj = EdgeConjugate(core.profile, lam * core.edge_w, lam * core.edge_q)
    if core._gram is None:
        core._gram = (K @ K.T).tocsr()
    gram = core._gram
    m, n_edges = F.shape[0], K.shape[0]
    scale = _h_norm_factor(core.grid)
    fnorm = np.sqrt(np.sum(F**2, axis=1)) * scale
    target = 0.25 * tol * (1.0 + fnorm) ** 2
    Y = np.zeros((m, n_edges))
    KF = (K @ F.T).T

    def dual_obj(Yv):
        """Dual objective per row, plus the conjugate maps at y."""
        KT = (K.T @ Yv.T).T
        hstar, hslope, hcurv = conj.maps(Yv)
        obj = 0.5 * np.sum(KT**2, axis=1) - np.sum(Yv * KF, axis=1) + np.sum(hstar, axis=1)
        return obj, hstar, hslope, hcurv

    obj, hstar, hslope, curv = dual_obj(Y)
    resid = np.full(m, np.inf)
    floor = np.zeros(m)
    iters = 0
    tridiag = core._tridiagonal
    V = F.copy()
    for iters in range(1, min(max_iter, 500) + 1):
        V, resid, floor = _fenchel_gap(core, lam, Y, F, hstar)
        live = resid > np.maximum(target, floor)
        if not np.any(live):
            break
        grad = -(K @ V.T).T + hslope
        if tridiag:
            s2 = core._edge_scale**2
            off = -(core._edge_scale[1:] * core._edge_scale[:-1])
            d = 2.0 * s2 + curv
            dl = np.zeros_like(Y)
            du = np.zeros_like(Y)
            dl[:, 1:] = off
            du[:, :-1] = off
            step = solve_tridiagonal(dl, d, du, -grad)
        else:
            step = np.empty_like(Y)
            for r in range(m):
                H = gram + sp.diags(curv[r]) + 1e-13 * sp.eye(n_edges)
                step[r] = spla.spsolve(H.tocsc(), -grad[r])
        gd = np.sum(grad * step, axis=1)
        t = np.ones(m)
        for _ in range(50):
            cand = Y + t[:, None] * step
            new = dual_obj(cand)
            ok = ~live | (new[0] <= obj + 1e-4 * t * gd + 1e-14 * (1.0 + np.abs(obj))) | (t < 1e-14)
            if np.all(ok):
                Y, obj, hstar, hslope, curv = _take_rows(live, (cand, *new), (Y, obj, hstar, hslope, curv))
                break
            t = np.where(ok, t, 0.5 * t)
        else:
            Y = np.where(live[:, None], Y + t[:, None] * step, Y)
            obj, hstar, hslope, curv = dual_obj(Y)
    if np.any(resid > np.maximum(np.maximum(target, floor), 0.25 * tol)):
        raise ProxDidNotConverge(f"dual Newton prox of {core.label} stalled", float(np.max(resid)))
    return V, float(np.max(resid)), iters


def _dual_projected_newton(core, lam, F, tol, max_iter, dual_quad: float = 0.0):
    """Batched active-set projected Newton on the box-constrained dual.

    Solves ``min_{|y_e| <= lam w_e} 1/2 ||K^T y - f||^2 + sum dq_e y_e^2/2``
    per row, the dual of the raw (``dual_quad = 0``) or Yosida-regularized
    (``dq_e = delta / (lam w_e)``) total-variation prox; the primal
    minimizer is ``v = f - K^T y``.  Pinned bound variables drop out of the
    Newton system, which stays tridiagonal on 1D chains (one banded LAPACK
    solve per batch).
    """
    K = core.K
    prof = core.profile
    if core._gram is None:
        core._gram = (K @ K.T).tocsr()
    gram = core._gram
    bound = lam * core.edge_w
    dq = (dual_quad / bound) if dual_quad > 0.0 else np.zeros_like(bound)
    scale = _h_norm_factor(core.grid)
    m, n_edges = F.shape[0], K.shape[0]
    fnorm = np.sqrt(np.sum(F**2, axis=1)) * scale
    target = 0.25 * tol * (1.0 + fnorm) ** 2
    Y = np.zeros((m, n_edges))
    KF = (K @ F.T).T

    def gap_of(Yv):
        V = F - (K.T @ Yv.T).T
        G = (K @ V.T).T
        W = lam * core.edge_w
        hval = W * prof.value(np.abs(G))
        hstar = 0.5 * dq * Yv**2
        terms = hval + hstar - Yv * G
        gap = core.grid.cell_volume * np.maximum(np.sum(terms, axis=1), 0.0)
        floor = 5e-14 * core.grid.cell_volume * np.sum(
            np.abs(hval) + np.abs(hstar) + np.abs(Yv * G), axis=1
        )
        return V, gap, floor

    def dual_obj(Yv):
        KT = (K.T @ Yv.T).T
        return 0.5 * np.sum(KT**2, axis=1) - np.sum(Yv * KF, axis=1) + 0.5 * np.sum(dq * Yv**2, axis=1)

    tridiag = core._tridiagonal
    obj = dual_obj(Y)
    V = F.copy()
    resid = np.full(m, np.inf)
    floor = np.zeros(m)
    iters = 0
    eps_pin = 1e-14
    for iters in range(1, min(max_iter, 300) + 1):
        V, resid, floor = gap_of(Y)
        live = resid > np.maximum(target, floor)
        if not np.any(live):
            break
        grad = (gram @ Y.T).T - KF + dq * Y
        pinned = ((Y >= bound * (1 - eps_pin)) & (grad <= 0)) | (
            (Y <= -bound * (1 - eps_pin)) & (grad >= 0)
        )
        rhs = np.where(pinned, 0.0, -grad)
        if tridiag:
            s2 = core._edge_scale**2
            off = -(core._edge_scale[1:] * core._edge_scale[:-1])
            d = np.broadcast_to(2.0 * s2 + dq, Y.shape).copy()
            dl = np.zeros_like(Y)
            du = np.zeros_like(Y)
            dl[:, 1:] = off
            du[:, :-1] = off
            # pinned rows become identity rows so their step is zero
            d = np.where(pinned, 1.0, d)
            dl[:, 1:] = np.where(pinned[:, 1:] | pinned[:, :-1], 0.0, dl[:, 1:])
            du[:, :-1] = np.where(pinned[:, :-1] | pinned[:, 1:], 0.0, du[:, :-1])
            step = solve_tridiagonal(dl, d, du, rhs)
        else:
            step = np.empty_like(Y)
            for r in range(m):
                if not live[r]:
                    step[r] = 0.0
                    continue
                idx = np.flatnonzero(~pinned[r])
                step[r] = 0.0
                if idx.size == 0:
                    continue
                sub = gram[idx][:, idx].tocsc() + sp.diags(dq[idx] if np.ndim(dq) else np.full(idx.size, dq))
                ridge = 1e-13 * (1.0 + sub.diagonal().max())
                sub = sub + ridge * sp.eye(idx.size, format="csc")
                step[r][idx] = spla.spsolve(sub, rhs[r][idx])
        t = np.ones(m)
        accepted = None
        for _ in range(60):
            cand = np.clip(Y + t[:, None] * step, -bound, bound)
            new_obj = dual_obj(cand)
            ok = ~live | (new_obj <= obj + 1e-14 * (1.0 + np.abs(obj))) | (t < 1e-12)
            if np.all(ok):
                accepted = cand
                break
            t = np.where(ok, t, 0.5 * t)
        Y = np.where(live[:, None], accepted, Y)
        obj = dual_obj(Y)
    if np.any(resid > np.maximum(np.maximum(target, floor), 0.25 * tol)):
        raise ProxDidNotConverge(f"dual prox of {core.label} stalled", float(np.max(resid)))
    return V, float(np.max(resid)), iters


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------


class GradientPotential(_DifferencePenaltyPotential):
    """``int a(x) psi(grad u) + (visc/2) int |grad u|^2`` with zero-flux faces."""

    def __init__(
        self,
        grid: Grid,
        profile: RadialProfile,
        weight: np.ndarray | None = None,
        visc: float = 0.0,
        label: str | None = None,
    ):
        if visc < 0:
            raise ValueError("viscosity must be nonnegative")
        K = face_difference_matrix(grid, NEUMANN)
        w = face_weights(grid, weight)
        q = np.full(K.shape[0], float(visc))
        if label is None:
            label = f"gradient[{profile!r}]"
        super().__init__(grid, K, w, q, profile, label, tridiagonal=grid.dim == 1)
        self.weight = None if weight is None else np.asarray(weight, dtype=float).reshape(grid.shape)
        self.visc = float(visc)


class NonlocalPotential(_DifferencePenaltyPotential):
    """Pairwise kernel interaction energy; equals ``kernels.nonlocal_energy``."""

    def __init__(self, grid: Grid, rescaled: kernels_mod.RescaledKernel, delta: float | None = None):
        P, w_pairs = kernels_mod.pair_stencil(rescaled, grid)
        p = rescaled.p
        profile = PowerProfile(p) if delta is None else YosidaPowerProfile(p, delta)
        edge_w = w_pairs / grid.cell_volume
        label = f"nonlocal[{rescaled!r}, delta={delta}]"
        super().__init__(grid, P, edge_w, np.zeros_like(edge_w), profile, label, tridiagonal=False)
        self.rescaled = rescaled


class FastDiffusionPotential(Potential):
    """``int a(x) |u|^(m+1) / (m+1)`` in the discrete H^-1 geometry."""

    space = HMINUS1

    def __init__(
        self,
        grid: Grid,
        m: float,
        weight: np.ndarray | None = None,
        delta: float | None = None,
        label: str | None = None,
    ):
        if not 0.0 <= m <= 1.0:
            raise ValueError(f"fast-diffusion exponent m must lie in [0, 1], got {m}")
        self.grid = grid
        self.m = float(m)
        q = self.m + 1.0
        self.profile = PowerProfile(q) if delta is None else YosidaPowerProfile(q, delta)
        self.weight = None if weight is None else np.asarray(weight, dtype=float).reshape(grid.shape)
        if self.weight is not None and np.any(self.weight <= 0):
            raise ValueError("cell weights must be strictly positive")
        self._a = np.ones(grid.num_cells) if weight is None else self.weight.reshape(-1)
        self._L = neg_laplacian_matrix(grid, DIRICHLET)
        self.label = label or f"fastdiffusion[m={m}, delta={delta}]"

    def _accepts(self, space: str) -> bool:
        return space == HMINUS1

    def eval_batch(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        return self.grid.cell_volume * (self.profile.value(np.abs(U)) @ self._a)

    def yosida_gradient_batch(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        return (self._L @ (self._a * self.profile.signed_slope(U)).T).T

    def drift_lipschitz_bound(self) -> float | None:
        lip = self.profile.slope_lipschitz()
        if not np.isfinite(lip):
            return None
        M = (self._L @ sp.diags(self._a * lip)).tocsr()
        return float(np.max(np.abs(M).sum(axis=1)))

    def _hminus1_res(self, R: np.ndarray) -> np.ndarray:
        lu = _dirichlet_solver(self.grid)
        sol = lu.solve(R.T)
        return np.sqrt(np.maximum(self.grid.cell_volume * np.einsum("ij,ji->i", R, sol), 0.0))

    def prox_batch(self, lam, F, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, warm=None):
        F = np.asarray(F, dtype=float)
        if self.profile.curvature_bounded:
            return self._prox_newton(lam, F, tol, max_iter, warm)
        # raw singular exponents (m < 1): accelerated proximal gradient
        return self._prox_fista(lam, F, tol, max_iter, warm)

    def _prox_newton(self, lam, F, tol, max_iter, warm):
        """Globalized Newton on ``z + lam * L [a phi(z)] = f`` (column-dominant)."""
        L = self._L
        a = self._a
        prof = self.profile
        lu = _dirichlet_solver(self.grid)
        Z = F.copy() if warm is None else np.array(warm, dtype=float, copy=True)
        m, n = F.shape
        scale_target = 0.25 * tol * (1.0 + self._hminus1_res(F))

        def evaluate(Zv):
            """H^-1 merit per row, plus the profile slope and curvature at |z|."""
            E = Zv - F
            GE = lu.solve(E.T).T
            value, slope, curv = prof.maps(np.abs(Zv))
            return 0.5 * np.einsum("ij,ij->i", E, GE) + lam * (value @ a), slope, curv

        merit, slope, curv = evaluate(Z)
        resid = np.full(m, np.inf)
        iters = 0
        tridiag = self.grid.dim == 1
        for iters in range(1, min(max_iter, 200) + 1):
            R = Z - F + lam * (L @ (a * (np.sign(Z) * slope)).T).T
            resid = self._hminus1_res(R)
            live = resid > scale_target
            if not np.any(live):
                break
            c = lam * a * curv
            if tridiag:
                h2 = self.grid.spacing[0] ** 2
                dl = np.zeros((m, n))
                du = np.zeros((m, n))
                d = 1.0 + 2.0 * c / h2
                dl[:, 1:] = -c[:, :-1] / h2
                du[:, :-1] = -c[:, 1:] / h2
                step = solve_tridiagonal(dl, d, du, -R)
            else:
                step = np.empty_like(R)
                for r in range(m):
                    J = sp.eye(n, format="csr") + L @ sp.diags(c[r])
                    step[r] = spla.spsolve(J.tocsc(), -R[r])
            t = np.ones(m)
            for _ in range(40):
                cand = Z + t[:, None] * step
                new = evaluate(cand)
                ok = ~live | (new[0] <= merit + 1e-10 * np.abs(merit))
                if np.all(ok):
                    Z, merit, slope, curv = _take_rows(live, (cand, *new), (Z, merit, slope, curv))
                    break
                t = np.where(ok, t, 0.5 * t)
            else:
                Z = np.where(live[:, None], Z + t[:, None] * step, Z)
                merit, slope, curv = evaluate(Z)
        if np.any(resid > np.maximum(scale_target, 0.25 * tol)):
            return self._prox_fista(lam, F, tol, max_iter, Z)
        return Z, float(np.max(resid)), iters

    def _prox_fista(self, lam, F, tol, max_iter, warm):
        """Accelerated proximal gradient for the kinked (m = 0) case.

        Works in plain coordinates: the smooth part ``1/2 (z-f)^T G (z-f)``
        has gradient ``G (z - f)`` with ``G = L^{-1}``; the separable part is
        handled by the per-cell radial prox.
        """
        lu = _dirichlet_solver(self.grid)
        lam_max = _laplacian_extreme(self.grid, largest=True)
        lam_min = _laplacian_extreme(self.grid, largest=False)
        lip = 1.0 / lam_min
        mu = 1.0 / lam_max
        qratio = mu / lip
        beta = (1.0 - np.sqrt(qratio)) / (1.0 + np.sqrt(qratio))
        t_step = 1.0 / lip
        thresh = t_step * lam * self._a
        prof = self.profile
        Z = F.copy() if warm is None else np.array(warm, dtype=float, copy=True)
        Y = Z.copy()
        target = 0.25 * tol * (1.0 + self._hminus1_res(F))
        resid = np.full(F.shape[0], np.inf)
        it = 0

        def prox_grad_step(A):
            zeta = A - t_step * lu.solve((A - F).T).T
            return np.sign(zeta) * prof.prox_radius(thresh, np.abs(zeta))

        for it in range(1, max_iter + 1):
            Z_new = prox_grad_step(Y)
            if it == 1 or it % 25 == 0:
                # fixed-point residual of the prox-gradient map, zero at optimum
                fp = (Z_new - prox_grad_step(Z_new)) / t_step
                resid = self._hminus1_res(fp)
                if np.all(resid <= target):
                    Z = Z_new
                    break
            Y = Z_new + beta * (Z_new - Z)
            Z = Z_new
        if np.any(resid > np.maximum(target, 0.25 * tol)):
            raise ProxDidNotConverge(f"FISTA prox of {self.label} stalled", float(np.max(resid)))
        return Z, float(np.max(resid)), it


@lru_cache(maxsize=None)
def _laplacian_extreme(grid: Grid, largest: bool) -> float:
    L = neg_laplacian_matrix(grid, DIRICHLET)
    if L.shape[0] <= 400:
        vals = np.linalg.eigvalsh(L.toarray())
        return float(vals[-1] if largest else vals[0])
    if largest:
        return float(spla.eigsh(L, k=1, which="LA", return_eigenvectors=False)[0])
    return float(spla.eigsh(L, k=1, sigma=0.0, return_eigenvectors=False)[0])


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def p_dirichlet(
    grid: Grid,
    p: float,
    weight: np.ndarray | None = None,
    delta: float | None = None,
    visc: float = 0.0,
) -> GradientPotential:
    """p-Dirichlet energy (total variation at p = 1), optionally regularized."""
    profile = PowerProfile(p) if delta is None else YosidaPowerProfile(p, delta)
    return GradientPotential(grid, profile, weight=weight, visc=visc,
                             label=f"p_dirichlet[p={p}, delta={delta}, visc={visc}]")


def general_gradient(
    grid: Grid,
    profile: RadialProfile,
    weight: np.ndarray | None = None,
    visc: float = 0.0,
) -> GradientPotential:
    return GradientPotential(grid, profile, weight=weight, visc=visc)


def fast_diffusion(
    grid: Grid,
    m: float,
    weight: np.ndarray | None = None,
    delta: float | None = None,
) -> FastDiffusionPotential:
    return FastDiffusionPotential(grid, m, weight=weight, delta=delta)


def nonlocal_p(
    grid: Grid,
    kernel: kernels_mod.Kernel,
    eps: float,
    p: float,
    delta: float | None = None,
) -> NonlocalPotential:
    return NonlocalPotential(grid, kernels_mod.RescaledKernel(kernel, eps, p), delta=delta)
