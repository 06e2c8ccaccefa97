"""Convex potentials on grid functions: evaluation, proximal maps, drifts.

Families
--------
* ``GradientPotential`` -- energies of the gradient, ``int a(x) psi(grad u)``
  plus an optional unweighted viscosity term ``(visc/2) int |grad u|^2``,
  with zero-flux (Neumann) faces.  Lives in the L2 geometry.  Covers the
  p-Dirichlet energies (total variation at p = 1), their Moreau-Yosida
  regularizations, the weighted (oscillating-coefficient) variants and,
  through ``visc``, the vanishing-viscosity energies ``psi + (mu/2) |grad u|^2``.
* ``FastDiffusionPotential`` -- zero-order energies ``int a(x) psi(u)``
  measured in the discrete H^-1 geometry (Dirichlet Laplacian dual),
  ``psi(r) = |r|^(m+1) / (m+1)`` with m in [0, 1].
* ``NonlocalPotential`` -- pairwise interaction energies assembled from a
  rescaled compactly supported kernel; shares the proximal machinery with
  the gradient family through the common "difference penalty" normal form

      eval(u) = vol * sum_e [ w_e psi(|K u|_e) + (q_e / 2) (K u)_e^2 ],

  whose per-edge ``q_e`` is the only home of a quadratic (viscosity) term.

Proximal maps minimize ``1/2 ||v - f||_H^2 + lam * eval(v)``.  Primal
Newton, Newton on the face dual and Newton in H^-1 for fast diffusion supply
objective, residual, Newton direction and acceptance test to one batched
damped-Newton driver; FISTA handles raw singular fast diffusion.  The face
dual is one routine: a smooth edge conjugate for powers p > 1 and for any
profile with ``q_e > 0``, and for total variation the box
``|y_e| <= lam w_e``, where unknowns pinned on the bound make it projected
Newton.
The driver alone tracks which batch rows are live: the callbacks see only
the unconverged sub-batch, so a settled row is not evaluated or solved
again.  ``K`` and ``K^T`` are CSR matrices on every family, ``K^T`` built
once per potential.  The Newton systems are banded.  On 1D chains every
system is tridiagonal (LAPACK ``gtsv``).  On 2D grids
and nonlocal stencils the two primal Newton systems, ``I + K^T diag(c) K``
and fast diffusion's ``I + L diag(c)`` in a symmetric form, are positive
definite banded solves (LAPACK ``pbsv``, one call per cache-sized chunk of
live rows, each band written in place), and so are both face duals: edges
ordered by lower cell make ``K K^T`` banded too.  Fast diffusion's H^-1
Newton solves the Dirichlet system once per step.  ``prox`` returns the
minimizer alone; the tests certify it against the variational inequality.

On a finite grid every function has finite energy, so the
lower-semicontinuous-hull construction that extends these energies to the
full continuum spaces needs no discrete counterpart: ``eval`` is total.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels as kernels_mod
from ._linalg import solve_banded_spd, solve_tridiagonal
from .grids import (
    DIRICHLET,
    HMINUS1,
    L2,
    NEUMANN,
    Grid,
    GridFunction,
    _dirichlet_solver,
    face_difference_matrix,
    face_weights,
    inner_batch,
    neg_laplacian_matrix,
)
from .profiles import EdgeConjugate, PowerProfile, RadialProfile, YosidaPowerProfile

DEFAULT_TOL = 1e-10
# iteration caps: primal Newton, face dual, fast-diffusion Newton, FISTA
NEWTON_CAP = 400
DUAL_CAP = 500
FD_NEWTON_CAP = 200
FISTA_CAP = 10_000


class ProxDidNotConverge(RuntimeError):
    """Raised when a proximal solve stalls; carries the message naming the
    solver, the last residual and the batch rows still unconverged."""

    def __init__(self, message: str, residual: float, rows=()):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.message = message
        self.residual = float(residual)
        self.rows = tuple(int(r) for r in rows)


def _prox_rows(lam: float, F, tol: float) -> np.ndarray:
    """``F`` as float rows; refuses a ``lam`` or tolerance that is NaN or
    infinite, which would settle every row at once with ``F`` unchanged, or
    one that is not positive."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if not 0 < tol < np.inf:
        raise ValueError(f"prox tolerance must be positive and finite, got {tol}")
    return np.asarray(F, dtype=float)


class Potential:
    """Shared surface: evaluation, proximal map, Yosida drift."""

    grid: Grid
    space: str
    profile: RadialProfile
    label: str = "potential"

    # -- evaluation -----------------------------------------------------------
    def eval_batch(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, u: GridFunction) -> float:
        if u.grid != self.grid:
            raise ValueError("grid mismatch between potential and argument")
        if u.space != self.space:
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
        warm: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float, int]:
        """Batched proximal map on raw value rows; returns (Z, residual, iters).

        The residual is reported in the potential's own H-norm dual pairing.
        """
        raise NotImplementedError

    def prox(self, lam: float, f: GridFunction, tol: float = DEFAULT_TOL) -> GridFunction:
        """The minimizer of ``1/2 ||v - f||_H^2 + lam * eval(v)``."""
        if f.grid != self.grid or f.space != self.space:
            raise ValueError(
                f"prox of {self.label} needs a {self.space}-tagged function on its own grid"
            )
        Z, _, _ = self.prox_batch(lam, f.flat[None, :], tol=tol)
        return GridFunction(self.grid, Z[0].reshape(self.grid.shape), self.space)

    # -- drift ----------------------------------------------------------------
    def yosida_gradient_batch(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def drift_lipschitz_bound(self) -> float | None:
        """Lipschitz bound of the drift, None when the drift is unbounded."""
        return None


# ---------------------------------------------------------------------------
# difference-penalty core (gradient + nonlocal families)
# ---------------------------------------------------------------------------


class _DifferencePenaltyPotential(Potential):
    """eval(u) = vol * sum_e [w_e psi(|Ku|_e) + (q_e/2) (Ku)_e^2], prox in L2."""

    space = L2

    def __init__(self, grid, K, edge_w, edge_q, profile, label, tridiagonal):
        # edges ordered by lower cell, then upper cell, so that the face Gram
        # K K^T is narrow-banded; chains are already in this order
        K = K.tocsr().sorted_indices()
        order = np.lexsort((K.indices[K.indptr[1:] - 1], K.indices[K.indptr[:-1]]))
        self.grid = grid
        self.K = K[order]
        self.edge_w = np.asarray(edge_w, dtype=float)[order]
        self.edge_q = np.asarray(edge_q, dtype=float)[order]
        self.profile = profile
        self.label = label
        self._tridiagonal = tridiagonal
        self._quad = bool(self.edge_q.any())
        self._KT = self.K.T.tocsr()  # K^T as CSR: a row per cell, summed in edge order
        self._gram_band = self._band = None
        if tridiagonal:
            # chain structure: edge e couples cells (e, e+1) with -s_e and s_e;
            # the Gram K K^T has diagonal 2 s_e^2 and couplings -s_e s_(e+1)
            s = self.K[:, 1:].diagonal()
            self._scale_sq, self._gram_off = s**2, -(s[1:] * s[:-1])

    def _grad(self, V: np.ndarray) -> np.ndarray:
        """``K v`` per row."""
        return (self.K @ V.T).T

    def _div(self, Y: np.ndarray) -> np.ndarray:
        """``K^T y`` per row."""
        return (self._KT @ Y.T).T

    def eval_batch(self, U: np.ndarray) -> np.ndarray:
        G = self._grad(np.asarray(U, dtype=float))
        vals = self.profile.value(np.abs(G)) @ self.edge_w
        if self._quad:
            vals = vals + 0.5 * (G**2 @ self.edge_q)
        return self.grid.cell_volume * vals

    def yosida_gradient_batch(self, U: np.ndarray) -> np.ndarray:
        G = self._grad(np.asarray(U, dtype=float))
        coeff = self.edge_w * self.profile.signed_slope(G) + self.edge_q * G
        return self._div(coeff)

    def drift_lipschitz_bound(self) -> float | None:
        """Upper bound on the Lipschitz constant of the Yosida drift."""
        lip = self.profile.slope_lipschitz()
        if not np.isfinite(lip):
            return None
        c = self.edge_w * lip + self.edge_q
        M = (self.K.T @ sp.diags(c) @ self.K).tocsr()
        return float(np.max(np.abs(M).sum(axis=1)))

    def prox_batch(self, lam, F, tol=DEFAULT_TOL, warm=None):
        F = _prox_rows(lam, F, tol)
        prof = self.profile
        if not self._quad and not prof.slope_unbounded:
            # total variation, raw or Yosida: the dual lives in a box
            return _dual_projected_newton(self, lam, F, tol, dual_quad=prof.delta or 0.0)
        if prof.curvature_bounded:
            # remaining regularized / quadratic profiles: primal Newton is fast
            try:
                return _newton_difference(self, lam, F, tol, warm)
            except ProxDidNotConverge:
                # semismooth cycling at the regularization kink in the very
                # stiff regime; the face dual is well conditioned exactly there
                return _dual_newton_smooth(self, lam, F, tol)
        # raw singular powers (and kink + viscosity): smooth dual
        return _dual_newton_smooth(self, lam, F, tol)


def _settled(res, threshold):
    """Rows whose residual meets a finite threshold: a NaN residual, or an
    infinite one against a threshold that overflowed, settles nothing."""
    return (res <= threshold) & np.isfinite(threshold)


def _damped_newton(evaluate, X, residual, direction, accept, cap, t_min, patience=0):
    """Batched damped Newton with a per-row halving line search.

    Rows not ``_settled`` are live, and the callbacks see only the
    live sub-batch, ``rows`` its batch indices for per-row data (the slice
    ``slice(None)`` while every row is live, so indexing by it copies nothing):
    ``evaluate(X, rows)`` gives the state ``(X, obj, *maps)`` at the
    (projected) iterates X, ``residual(state, rows)`` gives ``(resid,
    threshold, grad)`` and ``direction(state, grad)`` the step.  A live row
    halves its step length t until ``accept(new_obj, obj, t, <grad, step>)``
    holds or ``t < t_min``; the accepted candidate, maps included, is its
    next state.  A row's iterate is written into the returned X once, when
    it settles or the loop ends.  With ``patience`` the loop stops once the
    worst residual has not dropped below 0.9 of its best for that many
    iterations, and a NaN residual stops it at once.  Returns ``(X, worst
    residual, iters, live)``, ``live`` the batch indices of the rows still
    unconverged at the end (empty when all converged).
    """
    rows = slice(None)
    state = evaluate(X, rows)
    out = state[0]
    resid = np.full(X.shape[0], np.inf)
    best, stagnant, iters = np.inf, 0, 0
    for iters in range(1, cap + 1):
        res, threshold, grad = residual(state, rows)
        resid[rows] = res
        live = ~_settled(res, threshold)
        if not live.all():
            rows = np.arange(X.shape[0])[rows]
            out[rows[~live]] = state[0][~live]
            rows, grad, state = rows[live], grad[live], tuple(a[live] for a in state)
            if rows.size == 0:
                break
        worst = resid.max()
        if worst < 0.9 * best:
            best, stagnant = worst, 0
        elif np.isnan(worst):  # a NaN row never settles: the call has failed
            break
        else:
            stagnant += 1
        if patience and stagnant >= patience:
            break
        step = direction(state, grad)
        gd = (grad * step).sum(axis=1)
        # the first trial is the full step, X + 1.0 * step == X + step exactly
        t, new = 1.0, evaluate(state[0] + step, rows)
        while not (ok := accept(new[1], state[1], t, gd) | (t < t_min)).all():
            t = np.where(ok, t, 0.5 * t)
            new = evaluate(state[0] + t[:, None] * step, rows)
        state = new
    out[rows] = state[0]
    return out, float(resid.max()), iters, np.arange(X.shape[0])[rows]


def _armijo(new, obj, t, gd):
    """Armijo test; the slack term keeps full steps acceptable once the
    objective improvement falls below floating-point resolution."""
    return new <= obj + 1e-4 * t * gd + 1e-14 * (1.0 + np.abs(obj))


def _hessian_band(core, curv):
    """``(fill, kd)`` for ``solve_banded_spd``: the lower bands of
    ``I + K^T diag(c) K``, one system per row of ``curv``.

    Edge e couples cells i < j through the entries s_i, s_j of K: it adds
    c_e s_i^2 and c_e s_j^2 to the diagonal at i and j, and c_e s_i s_j at
    offset j - i in column i.  That scatter and kd, the largest cell gap of
    any edge, are built once per potential; ``fill`` applies it per chunk.
    """
    if core._band is None:
        K = core.K.sorted_indices()
        if not np.all(np.diff(K.indptr) == 2):
            raise ValueError(f"{core.label}: every edge must couple exactly two cells")
        (i, j), (si, sj) = K.indices.reshape(-1, 2).T, K.data.reshape(-1, 2).T
        kd = int(np.max(j - i, initial=0))
        slots = np.concatenate([i * (kd + 1), j * (kd + 1), i * (kd + 1) + j - i])
        edges = np.tile(np.arange(K.shape[0]), 3)
        coef = np.concatenate([si * si, sj * sj, si * sj])
        core._band = sp.csr_matrix((coef, (slots, edges)), shape=(K.shape[1] * (kd + 1), K.shape[0])), kd
    scatter, kd = core._band

    def fill(view, rows):
        view[:] = (scatter @ curv[rows].T).T.reshape(view.shape)
        view[:, :, 0] += 1.0

    return fill, kd


def _newton_difference(core, lam, F, tol, warm):
    """Damped Newton on the strongly convex smoothed objective (batched)."""
    prof = core.profile
    W = lam * core.edge_w
    Q = lam * core.edge_q
    V = F.copy() if warm is None else np.array(warm, dtype=float, copy=True)
    scale = np.sqrt(core.grid.cell_volume)  # converts plain l2 residual norms to L2(O) norms
    target = 0.25 * tol * (1.0 + np.sqrt(np.sum(F**2, axis=1)) * scale)

    def evaluate(Vv, rows):
        """Objective per row, plus G = K v, the profile maps at |G| and v - f."""
        G = core._grad(Vv)
        value, slope, curv = prof.maps(np.abs(G))
        pen = value @ W
        if core._quad:
            pen = pen + 0.5 * (G**2 @ Q)
        E = Vv - F[rows]
        return Vv, 0.5 * (E**2).sum(axis=1) + pen, G, slope, curv, E

    def residual(state, rows):
        _, _, G, slope, _, E = state
        coeff = W * (np.sign(G) * slope)
        grad = E + core._div(coeff + Q * G if core._quad else coeff)
        return np.sqrt((grad**2).sum(axis=1)) * scale, target[rows], grad

    def direction(state, grad):
        """Solve ``(I + K^T diag(c) K) x = -grad`` per batch row."""
        curv = W * state[4] + Q if core._quad else W * state[4]
        if core._tridiagonal:
            c = -(curv * core._scale_sq)  # couplings -c_e s_e^2; s_e = 1/h on grids
            d = np.ones(grad.shape)
            d[:, :-1] -= c  # diagonal 1 + c_i s_i^2 + c_(i-1) s_(i-1)^2
            d[:, 1:] -= c
            return solve_tridiagonal(c, d, c, -grad)
        return solve_banded_spd(*_hessian_band(core, curv), -grad)

    # Armijo backtracking per row (Hessian >= I, so full steps dominate)
    V, worst, iters, live = _damped_newton(
        evaluate, V, residual, direction, _armijo, NEWTON_CAP, 1e-12, patience=25
    )
    if live.size:
        raise ProxDidNotConverge(f"Newton prox of {core.label} stalled", worst, live)
    return V, worst, iters


def _fenchel_gap(core, lam, Y, F, hstar):
    """Duality-gap certificate for dual iterates ``v = f - K^T y``.

    For any probe v' the variational-inequality violation of v is bounded by
    the edgewise Fenchel-Young gap ``sum_e [h(g_e) + h*(y_e) - y_e g_e]``
    (in H units), since ``(f - v, v' - v)_H = <y, Kv' - Kv>`` and Young's
    inequality absorbs the probe term into ``h(Kv')``.  ``hstar`` holds the
    conjugate values ``h*(y_e)``.
    """
    prof = core.profile
    W = lam * core.edge_w
    Q = lam * core.edge_q
    V = F - core._div(Y)
    G = core._grad(V)
    hval = W * prof.value(np.abs(G)) + 0.5 * Q * G**2
    terms = hval + hstar - Y * G
    vol = core.grid.cell_volume
    gap = vol * np.maximum(terms.sum(axis=1), 0.0)
    floor = 5e-14 * vol * (np.abs(hval) + np.abs(hstar) + np.abs(Y * G)).sum(axis=1)
    return V, gap, floor


def _dual_start(core, F, tol):
    """The lower band of the face Gram ``K K^T`` (cached, laid out for
    ``solve_banded_spd``), the gap target and ``K f``."""
    if core._gram_band is None:
        G = sp.tril(core.K @ core.K.T).tocoo()
        core._gram_band = np.zeros((G.shape[0], int(np.max(G.row - G.col, initial=0)) + 1))
        core._gram_band[G.col, G.row - G.col] = G.data
    fnorm = np.sqrt(np.sum(F**2, axis=1)) * np.sqrt(core.grid.cell_volume)
    return core._gram_band, 0.25 * tol * (1.0 + fnorm) ** 2, core._grad(F)


def _dual_newton(core, lam, F, tol, conj, bound=np.inf):
    """Newton on the Fenchel dual over face/pair variables, projected onto
    the box ``|y_e| <= bound_e`` when one is given.

    Minimizes ``1/2 ||K^T y||^2 - y . K f + sum_e h*(y_e)`` per row, where
    ``conj(Y)`` gives the edge conjugate's ``(value, slope, curvature)``;
    the gradient is ``-K v + h*'(y)`` at ``v = f - K^T y``, the primal
    minimizer.  An unknown on the bound whose gradient points out of the
    box is pinned: it becomes an identity row of the Newton system, so its
    step is zero (projected Newton, Bertsekas 1982).  The system, the Gram
    plus the conjugate curvature, stays banded: tridiagonal on 1D chains,
    the Gram band elsewhere, masked per chunk of rows straight into the
    ``pbsv`` buffer.  Steps pass an Armijo test along the projection arc.
    """
    band, target, KF = _dual_start(core, F, tol)
    edge = bound * (1 - 1e-14)  # pinning threshold

    def evaluate(Y, rows):
        """Dual objective per row at the projected Y, plus the conjugate maps."""
        Y = Y.clip(-bound, bound)
        KT = core._div(Y)
        hstar, hslope, hcurv = conj(Y)
        obj = 0.5 * (KT**2).sum(axis=1) - (Y * KF[rows]).sum(axis=1) + hstar.sum(axis=1)
        return Y, obj, hstar, hslope, hcurv

    def residual(state, rows):
        Y, _, hstar, hslope, _ = state
        V, gap, floor = _fenchel_gap(core, lam, Y, F[rows], hstar)
        return gap, np.maximum(target[rows], floor), -core._grad(V) + hslope

    def direction(state, grad):
        Y, curv = state[0], state[4]
        pinned = ((Y >= edge) & (grad <= 0)) | ((Y <= -edge) & (grad >= 0))
        rhs = np.where(pinned, 0.0, -grad)
        if core._tridiagonal:
            off = np.where(pinned[:, 1:] | pinned[:, :-1], 0.0, core._gram_off)
            return solve_tridiagonal(off, np.where(pinned, 1.0, 2.0 * core._scale_sq + curv), off, rhs)
        w = band.shape[1]
        free = np.pad(~pinned, ((0, 0), (0, w - 1)))  # free[r, j + k] at window k
        diag = np.where(pinned, 0.0, band[:, 0] + curv)
        # the ridge keeps K K^T definite where the edges close a cycle
        diag = np.where(pinned, 1.0, diag + 1e-13 * (1.0 + diag.max(axis=1, keepdims=True)))

        def fill(view, rows):
            np.copyto(view, band, where=~pinned[rows, :, None] & sliding_window_view(free[rows], w, axis=1))
            view[:, :, 0] = diag[rows]

        return solve_banded_spd(fill, w - 1, rhs)

    Y, worst, iters, live = _damped_newton(
        evaluate, np.zeros(KF.shape), residual, direction, _armijo, DUAL_CAP, 1e-14
    )
    if live.size:
        raise ProxDidNotConverge(f"dual Newton prox of {core.label} stalled", worst, live)
    return F - core._div(Y), worst, iters


def _dual_newton_smooth(core, lam, F, tol):
    """The smooth face dual: for raw powers p in (1, 2) the edge conjugate is
    C^1 with curvature vanishing (not blowing up) at the origin, so Newton
    behaves where the primal Hessian degenerates."""
    conj = EdgeConjugate(core.profile, lam * core.edge_w, lam * core.edge_q)
    return _dual_newton(core, lam, F, tol, conj.maps)


def _dual_projected_newton(core, lam, F, tol, dual_quad: float = 0.0):
    """The box dual of raw (``dual_quad = 0``) or Yosida-regularized total
    variation: ``h*(y) = dq y^2 / 2`` on ``|y| <= lam w``, ``dq = delta / (lam w)``."""
    bound = lam * core.edge_w
    dq = dual_quad / bound

    def conj(Y):
        return 0.5 * dq * Y**2, dq * Y, np.broadcast_to(dq, Y.shape)

    return _dual_newton(core, lam, F, tol, conj, bound)


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
        if not visc >= 0:
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
    """Pairwise kernel interaction energy ``sum_e w_e |P u|_e^p / p`` over ``kernels.pair_stencil``."""

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
    ):
        if not 0.0 <= m <= 1.0:
            raise ValueError(f"fast-diffusion exponent m must lie in [0, 1], got {m}")
        self.grid = grid
        self.m = float(m)
        q = self.m + 1.0
        self.profile = PowerProfile(q) if delta is None else YosidaPowerProfile(q, delta)
        self.weight = None if weight is None else np.asarray(weight, dtype=float).reshape(grid.shape)
        if self.weight is not None and not np.all(self.weight > 0):
            raise ValueError("cell weights must be strictly positive")
        self._a = np.ones(grid.num_cells) if weight is None else self.weight.reshape(-1)
        self._L = neg_laplacian_matrix(grid, DIRICHLET)
        self.label = f"fastdiffusion[m={m}, delta={delta}]"

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
        return np.sqrt(np.maximum(inner_batch(self.grid, HMINUS1, R, R), 0.0))

    def prox_batch(self, lam, F, tol=DEFAULT_TOL, warm=None):
        F = _prox_rows(lam, F, tol)
        if self.profile.curvature_bounded:
            return self._prox_newton(lam, F, tol, warm)
        # raw singular exponents (m < 1): accelerated proximal gradient
        return self._prox_fista(lam, F, tol, warm)

    def _prox_newton(self, lam, F, tol, warm):
        """Globalized Newton on ``z + lam * L [a phi(z)] = f`` (column-dominant)."""
        L = self._L
        a = self._a
        prof = self.profile
        lu = _dirichlet_solver(self.grid)
        Z = F.copy() if warm is None else np.array(warm, dtype=float, copy=True)
        target = 0.25 * tol * (1.0 + self._hminus1_res(F))

        def evaluate(Zv, rows):
            """H^-1 merit per row, plus the slope and curvature at |z| and ``L^-1 (z - f)``."""
            E = Zv - F[rows]
            GE = lu.solve(E.T).T
            value, slope, curv = prof.maps(np.abs(Zv))
            return Zv, 0.5 * np.einsum("ij,ij->i", E, GE) + lam * (value @ a), slope, curv, GE

        def residual(state, rows):
            # R = z - f + lam L(a phi), so L^-1 R = GE + lam a phi: its H^-1 norm takes no solve
            Zv, _, slope, _, GE = state
            aphi = a * (np.sign(Zv) * slope)
            R = Zv - F[rows] + lam * (L @ aphi.T).T
            norm_sq = self.grid.cell_volume * np.einsum("ij,ij->i", R, GE + lam * aphi)
            return np.sqrt(np.maximum(norm_sq, 0.0)), target[rows], R

        def direction(state, R):
            c = lam * a * state[3]
            if self.grid.dim == 1:
                h2 = self.grid.spacing[0] ** 2
                return solve_tridiagonal(-c[:, :-1] / h2, 1.0 + 2.0 * c / h2, -c[:, 1:] / h2, -R)
            return self._newton_solve(c, -R)

        Z, worst, iters, live = _damped_newton(
            evaluate, Z, residual, direction,
            lambda new, merit, t, gd: new <= merit + 1e-10 * np.abs(merit), FD_NEWTON_CAP, 1e-12,
        )
        if live.size:
            return self._prox_fista(lam, F, tol, Z)
        return Z, worst, iters

    def _newton_solve(self, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``(I + L diag(c)) x = b`` per row for ``c >= 0`` (exact zeros
        allowed), L the Dirichlet ``-Laplacian``.

        With ``S = diag(sqrt c)`` that is ``x = b - L S z`` with
        ``(I + S L S) z = S b``, positive definite, its band written per chunk.
        """
        sc = np.sqrt(c)
        n, diagonals = sc.shape[1], _laplacian_diagonals(self.grid)

        def fill(view, rows):
            for k, d in diagonals.items():  # (S L S)[j + k, j] = s_(j+k) L[j + k, j] s_j
                view[:, : n - k, k] = sc[rows, k:] * d * sc[rows, : n - k]
            view[:, :, 0] += 1.0

        z = solve_banded_spd(fill, max(diagonals), sc * b)
        return b - (self._L @ (sc * z).T).T

    def _prox_fista(self, lam, F, tol, warm):
        """Accelerated proximal gradient for the kinked (m = 0) case.

        Works in plain coordinates: the smooth part ``1/2 (z-f)^T G (z-f)``
        has gradient ``G (z - f)`` with ``G = L^{-1}``; the separable part is
        handled by the per-cell radial prox.
        """
        lu = _dirichlet_solver(self.grid)
        lam_min, lam_max = _laplacian_extremes(self.grid)
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

        for it in range(1, FISTA_CAP + 1):
            Z_new = prox_grad_step(Y)
            if it == 1 or it % 25 == 0:
                # fixed-point residual of the prox-gradient map, zero at optimum
                fp = (Z_new - prox_grad_step(Z_new)) / t_step
                resid = self._hminus1_res(fp)
                if np.all(_settled(resid, target)):
                    Z = Z_new
                    break
                if np.isnan(resid).any():  # a NaN row never settles
                    break
            Y = Z_new + beta * (Z_new - Z)
            Z = Z_new
        stalled = np.flatnonzero(~_settled(resid, target))
        if stalled.size:
            raise ProxDidNotConverge(f"FISTA prox of {self.label} stalled", float(np.max(resid)), stalled)
        return Z, float(np.max(resid)), it


@lru_cache(maxsize=None)
def _laplacian_diagonals(grid: Grid) -> dict[int, np.ndarray]:
    """The nonzero lower diagonals of the Dirichlet ``-Laplacian`` by offset:
    ``k -> L[j + k, j]`` for ``j < n - k`` (read-only); in 2D, k = 0, 1 and
    the fast-axis cell count."""
    L = neg_laplacian_matrix(grid, DIRICHLET).todia()
    diagonals = {}
    for off, data in zip(L.offsets, L.data):
        if off <= 0:
            diagonals[-int(off)] = d = data[: grid.num_cells + off].copy()
            d.flags.writeable = False
    return diagonals


def _laplacian_extremes(grid: Grid) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the Dirichlet ``-Laplacian``: sums
    over axes of the tridiag(-1, 2, -1)/h^2 eigenvalues
    ``4/h^2 sin^2(k pi / (2(n+1)))`` at k = 1 and k = n."""
    n, h = np.array(grid.shape), np.array(grid.spacing)
    return tuple(float(np.sum(4.0 / h**2 * np.sin(k * np.pi / (2 * (n + 1))) ** 2)) for k in (1, n))


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
