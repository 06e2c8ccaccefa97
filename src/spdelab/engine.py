"""Time integration of gradient-flow SPDEs with truncated multi-mode noise.

The state obeys ``dX in -grad E(X) dt + B(X) dW`` with E one of the convex
potentials and W realized as K independent Brownian modes.  One class,
``NemytskiiNoise``, carries B as ``B(u) dW = sum_k b(u) e_k dW_k``;
``AdditiveNoise`` (b = 1) and ``LinearMultiplicativeNoise`` (b(u) = u) build
its two common cases.  The default
scheme is semi-implicit Euler-Maruyama: noise enters explicitly, the drift
is applied through the proximal map,

    X_{n+1} = prox_{dt E}( X_n + B(X_n) dW_n ),

which is unconditionally stable and dissipates the energy exactly along
noise-free paths.  An explicit mode using the Lipschitz Yosida drift is
available behind ``drift="explicit_yosida"`` with the step bound
``dt <= delta / 4`` enforced, and ``simulate`` also enforces the explicit
Euler stability limit ``dt * Lip <= 2`` for the potential's drift bound.
A non-finite state after any step of ``simulate`` raises
``NumericalFailure``, and a stalled prox raises ``ProxDidNotConverge`` naming
the solver that stalled, the step and the paths.

Randomness is counter-based: every path derives its stream from
``SeedSequence((seed, path_index))`` over the Philox generator, so ensembles
are reproducible and independent of path scheduling.  Common noise comes
from the seed: two ``simulate`` calls with equal seed, dt and mode count
ride identical increments, which are stored with the trajectories for
auditing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid, space_norm_sq
from .potentials import Potential, ProxDidNotConverge

__all__ = [
    "AdditiveNoise",
    "LinearMultiplicativeNoise",
    "NemytskiiNoise",
    "NumericalFailure",
    "SchemeParams",
    "TrajectoryEnsemble",
    "check_scheme",
    "gaussian_increments",
    "simulate",
]


# ---------------------------------------------------------------------------
# diffusion coefficients
# ---------------------------------------------------------------------------


class NemytskiiNoise:
    """``B(u) dW = sum_k b(u) e_k dW_k`` with a pointwise map b of slope <= lipschitz_b.

    The K modes e_k share one grid and space tag; ``label`` names the model
    in manifests as ``label[K=...]``.
    """

    def __init__(self, b, lipschitz_b: float, modes, label: str = "nemytskii"):
        if not modes:
            raise ValueError("need at least one noise mode")
        self.grid, self.space = modes[0].grid, modes[0].space
        if any(g.grid != self.grid or g.space != self.space for g in modes):
            raise ValueError("noise modes must share one grid and space tag")
        self._modes = np.stack([g.flat for g in modes])
        self.mode_count = self._modes.shape[0]
        self._b = b
        self._lip_b = float(lipschitz_b)
        self.label = f"{label}[K={self.mode_count}]"

    def responses(self, U: np.ndarray) -> np.ndarray:
        """Mode responses for a batch of states: (m, n) -> (m, K, n)."""
        bU = self._b(np.asarray(U, dtype=float))
        return bU[:, None, :] * self._modes[None, :, :]

    def apply_batch(self, U: np.ndarray, dW: np.ndarray) -> np.ndarray:
        """``sum_k response_k(u) dW_k`` rowwise: (m, n), (m, K) -> (m, n)."""
        return self._b(np.asarray(U, dtype=float)) * (np.asarray(dW, dtype=float) @ self._modes)

    @property
    def lipschitz(self) -> float:
        """Certificate L with ``||B(u) - B(v)||_HS <= L ||u - v||_H`` from per-mode
        sup bounds; valid verbatim in the L2 geometry."""
        return self._lip_b * float(np.sqrt(np.sum(np.max(np.abs(self._modes), axis=1) ** 2)))

    def hs_norm_sq_batch(self, U: np.ndarray) -> np.ndarray:
        R = self.responses(U)
        return np.sum(space_norm_sq(self.grid, R, self.space), axis=-1)


def AdditiveNoise(modes) -> NemytskiiNoise:
    """State-independent modes: ``B(u) dW = sum_k g_k dW_k``; L = 0."""
    return NemytskiiNoise(np.ones_like, 0.0, modes, "additive")


def LinearMultiplicativeNoise(fields) -> NemytskiiNoise:
    """``B(u) dW = sum_k f_k u dW_k`` (pointwise products); L_b = 1."""
    return NemytskiiNoise(lambda u: u, 1.0, fields, "linear_multiplicative")


# ---------------------------------------------------------------------------
# scheme and trajectories
# ---------------------------------------------------------------------------


class NumericalFailure(FloatingPointError):
    """A scheme step left a non-finite state; ``step`` indexes ``states``."""

    def __init__(self, path: int, step: int, solver: str):
        super().__init__(f"non-finite state on path {path} at step {step} ({solver} drift)")
        self.path = path
        self.step = step
        self.solver = solver


@dataclass(frozen=True)
class SchemeParams:
    """Time-stepping parameters of the regularized scheme.

    delta is the Yosida parameter the potential must carry (None for
    prox-friendly families like the quadratic ones).
    """

    dt: float
    steps: int
    delta: float | None = None
    drift: str = "implicit_prox"
    prox_tol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.dt < math.inf or self.steps <= 0:
            raise ValueError("dt must be positive and finite, and steps positive")
        if not 0 < self.prox_tol < math.inf:
            raise ValueError(f"prox_tol must be positive and finite, got {self.prox_tol}")
        if self.drift not in ("implicit_prox", "explicit_yosida"):
            raise ValueError(f"unknown drift mode {self.drift!r}")
        if self.drift == "explicit_yosida":
            if self.delta is None:
                raise ValueError("explicit_yosida drift requires delta")
            if self.dt > self.delta / 4.0:
                raise ValueError(
                    f"explicit Yosida drift needs dt <= delta/4 = {self.delta / 4.0:g}, got dt={self.dt:g}"
                )


@dataclass
class TrajectoryEnsemble:
    """Seeded Monte-Carlo collection of time-discrete sample paths.

    ``states`` has shape (paths, steps+1, cells); ``increments`` holds the
    Brownian increments (paths, steps, modes) that produced it, enabling
    common-noise coupling and audits whose test processes ride the same noise.
    """

    grid: Grid
    space: str
    states: np.ndarray
    increments: np.ndarray
    dt: float
    seed: int
    scheme: SchemeParams
    potential_label: str = ""
    model_label: str = ""
    dt_drift_lipschitz: float | None = None  # stability indicator of the run

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def manifest_text(self) -> str:
        lines = [
            f"seed = {self.seed}",
            f"paths = {self.n_paths}",
            f"steps = {self.n_steps}",
            f"dt = {self.dt:.17g}",
            f"space = {self.space}",
            f"grid_shape = {self.grid.shape}",
            f"grid_extents = {self.grid.extents}",
            f"scheme = {self.scheme}",
            f"potential = {self.potential_label}",
            f"noise = {self.model_label}",
        ]
        if self.dt_drift_lipschitz is not None:
            lines.append(f"dt_times_drift_lipschitz = {self.dt_drift_lipschitz:.6g}")
        return "\n".join(lines) + "\n"


def gaussian_increments(seed: int, n_paths: int, steps: int, modes: int, dt: float) -> np.ndarray:
    """Counter-based increments, variance dt, keyed by (seed, path)."""
    out = np.empty((n_paths, steps, modes))
    root = np.sqrt(dt)
    for p in range(n_paths):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), p))))
        out[p] = root * gen.standard_normal((steps, modes))
    return out


def check_scheme(pot: Potential, sp: SchemeParams) -> float | None:
    """``dt`` times the drift's Lipschitz bound (None without one); refuses a
    scheme ``delta`` that does not match the potential's regularization and
    the explicit drift past the explicit Euler limit ``dt * Lip <= 2``."""
    # relative only: an absolute floor would accept delta=1e-8 for 1e-9
    if sp.delta is not None and (pot.delta is None or not math.isclose(pot.delta, sp.delta)):
        raise ValueError(
            f"scheme delta {sp.delta} does not match the potential's "
            f"regularization {pot.delta}"
        )
    drift_bound = pot.drift_lipschitz_bound()
    dt_lip = sp.dt * drift_bound if drift_bound is not None else None
    if sp.drift == "explicit_yosida" and (dt_lip is None or dt_lip > 2.0):
        raise ValueError(f"explicit Yosida drift needs dt * Lip <= 2 for stability, got {dt_lip}")
    return dt_lip


def _advance(X: np.ndarray, pot: Potential, model: NemytskiiNoise, sp: SchemeParams, dW: np.ndarray) -> np.ndarray:
    Y = X + model.apply_batch(X, dW)
    if sp.drift == "implicit_prox":
        Z, _, _ = pot.prox_batch(sp.dt, Y, tol=sp.prox_tol, warm=X)
        return Z
    return Y - sp.dt * pot.yosida_gradient_batch(X)


def simulate(
    x0,
    pot: Potential,
    model: NemytskiiNoise,
    sp: SchemeParams,
    n_paths: int,
    seed: int,
) -> TrajectoryEnsemble:
    """Monte-Carlo ensemble of the scheme from ``x0``; stores all states and increments.

    The scheme must pass ``check_scheme``, a non-finite state raises
    ``NumericalFailure`` and a stalled prox is re-raised naming its solver,
    step and paths.  Two calls with equal ``seed``, ``dt`` and mode count
    draw identical increments on each path, so they are coupled on common
    noise.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    dt_lip = check_scheme(pot, sp)
    grid = pot.grid
    if x0.grid != grid or x0.space != pot.space:
        raise ValueError("initial state must live on the potential's grid and space")
    if model.grid != grid or model.space != pot.space:
        raise ValueError(
            f"noise {model.label} lives on {model.grid} in {model.space}, but the "
            f"potential {pot.label} on {grid} in {pot.space}"
        )
    n = grid.num_cells
    X = np.tile(x0.flat, (n_paths, 1))
    increments = gaussian_increments(seed, n_paths, sp.steps, model.mode_count, sp.dt)
    states = np.empty((n_paths, sp.steps + 1, n))
    states[:, 0, :] = X
    for nstep in range(sp.steps):
        try:
            X = _advance(X, pot, model, sp, increments[:, nstep, :])
        except ProxDidNotConverge as exc:
            where = f"{exc.message} at step {nstep + 1} on paths {list(exc.rows)}"
            raise ProxDidNotConverge(where, exc.residual, exc.rows) from exc
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise NumericalFailure(int(np.argmin(finite)), nstep + 1, sp.drift)
        states[:, nstep + 1, :] = X
    return TrajectoryEnsemble(
        grid=grid,
        space=pot.space,
        states=states,
        increments=increments,
        dt=sp.dt,
        seed=int(seed),
        scheme=sp,
        potential_label=pot.label,
        model_label=model.label,
        dt_drift_lipschitz=dt_lip,
    )
