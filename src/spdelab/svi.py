"""Monte-Carlo audits of the variational solution concept.

Two inequalities are estimated from a trajectory ensemble:

* the energy bound
  ``esssup_t E||X_t||_H^2 + E int_0^T E(X_r) dr <= C (E||x_0||_H^2 + 1)``,
* the test-process inequality: for adapted ``Z_t = Z_0 + int G dr + int F dW``,

      E e^{-Ct} ||X_t - Z_t||^2 + 2 E int_0^t e^{-Cr} E(X_r) dr
        <= E ||x_0 - Z_0||^2 + 2 E int e^{-Cr} E(Z_r) dr
           - 2 E int e^{-Cr} (G_r, X_r - Z_r)_H dr
           + 2 E int e^{-Cr} ||F_r - B(Z_r)||_HS^2 dr.

Both sides are estimated per path and compared with Monte-Carlo standard
errors; time integrals use the trapezoid rule on the stored steps with a
step-halving quadrature error estimate.  "Almost all t" is realized as a
finite checkpoint grid.  A test process either has F = 0, so its HS term
is ``||B(Z_r)||_HS^2``, or is the solution's own decomposition (F = B(X),
HS term zero), which must ride the ensemble's stored increments: realizing
it on foreign noise is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import NemytskiiNoise, TrajectoryEnsemble
from .grids import GridFunction, dirichlet_solve, space_norm_sq, HMINUS1
from .potentials import Potential

CHECKPOINTS = 8


class TestProcess:
    """Deterministic test process ``Z_t = Z_0 + int G dr`` (F = 0).

    Data: ``z0`` (cells,) and drift ``G`` per step (steps, cells) or None.
    """

    def __init__(self, grid, space, z0, G=None):
        self.grid = grid
        self.space = space
        self.z0 = np.asarray(z0, dtype=float).reshape(-1)
        self.G = None if G is None else np.asarray(G, dtype=float)

    @classmethod
    def constant(cls, grid, space, value) -> "TestProcess":
        z0 = np.full(grid.num_cells, float(value))
        return cls(grid, space, z0)

    @classmethod
    def from_function(cls, z0: GridFunction, G=None) -> "TestProcess":
        return cls(z0.grid, z0.space, z0.flat, G=G)

    def realize(self, ens: TrajectoryEnsemble) -> np.ndarray:
        """(paths, steps+1, cells) sample paths on the ensemble's time grid."""
        paths, steps = ens.n_paths, ens.n_steps
        n = self.grid.num_cells
        Z = np.empty((paths, steps + 1, n))
        Z[:, 0, :] = self.z0
        cur = np.broadcast_to(self.z0, (paths, n)).copy()
        for s in range(steps):
            if self.G is not None:
                cur = cur + ens.dt * self.G[s]
            Z[:, s + 1, :] = cur
        return Z

    def g_values(self, ens: TrajectoryEnsemble) -> np.ndarray | None:
        """(paths, steps, cells)-broadcastable drift rows, None when zero."""
        if self.G is None:
            return None
        return self.G[None, :, :]


class SolutionTestProcess(TestProcess):
    """The ensemble's own decomposition: Z = X, G the realized drift, F = B(X).

    With the implicit scheme the realized drift rows are exact negative
    subgradients at X_{n+1}, so this process satisfies the decomposition
    identity to machine precision on the stored grid.
    """

    def __init__(self, ens: TrajectoryEnsemble, model: NemytskiiNoise):
        super().__init__(ens.grid, ens.space, ens.states[0, 0])
        self._ens = ens
        self._model = model

    def realize(self, ens: TrajectoryEnsemble) -> np.ndarray:
        if ens is not self._ens and not np.array_equal(ens.increments, self._ens.increments):
            raise ValueError("solution test process realized on foreign noise")
        return self._ens.states.copy()

    def g_values(self, ens) -> np.ndarray:
        return self._ens.realized_drift(self._model)


@dataclass
class SVIReport:
    """Per-checkpoint comparison of the two sides of an inequality."""

    checkpoint_times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    se: np.ndarray
    verdicts: list
    constant: float
    quad_error_est: float
    smallest_constant: float | None = None

    @property
    def passed(self) -> bool:
        return all(v == "pass" for v in self.verdicts)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("checkpoint_t,lhs,rhs,margin,se,verdict\n")
            for t, a, b, m, s, v in zip(
                self.checkpoint_times, self.lhs, self.rhs, self.margin, self.se, self.verdicts
            ):
                fh.write(f"{t:.17g},{a:.17g},{b:.17g},{m:.17g},{s:.17g},{v}\n")


def _checkpoint_steps(n_steps: int) -> np.ndarray:
    return np.unique(np.linspace(1, n_steps, min(CHECKPOINTS, n_steps), dtype=int))


def _trapezoid_cumulative(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along axis 1 of (paths, steps+1)."""
    avg = 0.5 * (values[:, 1:] + values[:, :-1])
    out = np.zeros_like(values)
    np.cumsum(avg * dt, axis=1, out=out[:, 1:])
    return out


def _quad_error_estimate(values: np.ndarray, dt: float) -> float:
    """Difference between trapezoid on all steps and on every other step."""
    full = np.mean(_trapezoid_cumulative(values, dt)[:, -1])
    if values.shape[1] < 3:
        return 0.0
    half = values[:, ::2]
    coarse = np.mean(_trapezoid_cumulative(half, 2 * dt)[:, -1])
    return float(abs(full - coarse))


def _batched_inner(grid, space, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rowwise H inner products of (paths, cells) arrays."""
    if space == HMINUS1:
        sol = dirichlet_solve(grid, B.T)
        return grid.cell_volume * np.einsum("ij,ji->i", A, sol)
    return grid.cell_volume * np.einsum("ij,ij->i", A, B)


def _check_paths(ens: TrajectoryEnsemble):
    if ens.n_paths < 2:
        raise ValueError(f"an audit's standard errors need at least 2 paths, got {ens.n_paths}")


def check_energy(ens: TrajectoryEnsemble, pot: Potential, C: float) -> SVIReport:
    """Audit the energy bound; also reports the smallest admissible constant."""
    _check_paths(ens)
    grid, space = ens.grid, ens.space
    norms = space_norm_sq(grid, ens.states, space)  # (paths, steps+1)
    energies = np.stack([pot.eval_batch(ens.states[:, s, :]) for s in range(ens.n_steps + 1)], axis=1)
    energy_int = _trapezoid_cumulative(energies, ens.dt)[:, -1]
    x0_sq = norms[:, 0]
    denom = float(np.mean(x0_sq)) + 1.0
    checkpoints = _checkpoint_steps(ens.n_steps)
    lhs_paths = norms[:, checkpoints] + energy_int[:, None]
    lhs = np.mean(lhs_paths, axis=0)
    se = np.std(lhs_paths, axis=0, ddof=1) / np.sqrt(ens.n_paths)
    rhs = np.full_like(lhs, C * denom)
    margin = rhs - lhs
    verdicts = ["pass" if m >= -3.0 * s else "fail" for m, s in zip(margin, se)]
    quad_err = _quad_error_estimate(energies, ens.dt)
    smallest = float(np.max(lhs) / denom)
    return SVIReport(
        checkpoint_times=ens.dt * checkpoints,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        se=se,
        verdicts=verdicts,
        constant=C,
        quad_error_est=quad_err,
        smallest_constant=smallest,
    )


def check_variational(
    ens: TrajectoryEnsemble,
    Z: TestProcess,
    pot: Potential,
    model: NemytskiiNoise,
    C: float,
) -> SVIReport:
    """Audit the test-process inequality on common noise.

    All five right-hand terms are estimated per path so the margin carries a
    combined standard error; pass requires margin >= -3 SE per checkpoint.
    """
    _check_paths(ens)
    if Z.grid != ens.grid or Z.space != ens.space:
        raise ValueError("test process must live in the ensemble's geometry")
    grid, space, dt = ens.grid, ens.space, ens.dt
    n_steps = ens.n_steps
    Zp = Z.realize(ens)
    if Zp.shape != ens.states.shape:
        raise ValueError("test process realization does not match the ensemble")
    steps_idx = _checkpoint_steps(n_steps)

    diff = ens.states - Zp
    diff_sq = space_norm_sq(grid, diff, space)  # (paths, steps+1)
    energies_X = np.stack([pot.eval_batch(ens.states[:, s, :]) for s in range(n_steps + 1)], axis=1)
    energies_Z = np.stack([pot.eval_batch(Zp[:, s, :]) for s in range(n_steps + 1)], axis=1)

    expw = np.exp(-C * dt * np.arange(n_steps + 1))

    G = Z.g_values(ens)  # broadcastable (paths|1, steps, cells) or None
    g_pair = np.zeros((ens.n_paths, n_steps + 1))
    hs_term = np.zeros((ens.n_paths, n_steps + 1))
    solution_process = isinstance(Z, SolutionTestProcess)
    for s in range(n_steps):
        if G is not None:
            g_row = G[:, s, :]
            if g_row.shape[0] == 1:
                g_row = np.broadcast_to(g_row, (ens.n_paths, grid.num_cells))
            g_pair[:, s] = _batched_inner(grid, space, g_row, diff[:, s, :])
        if not solution_process:
            # ||F - B(Z)||_HS^2 with F = 0; F = B(Z) makes it zero for the solution
            hs_term[:, s] = model.hs_norm_sq_batch(Zp[:, s, :])
    g_pair[:, n_steps] = g_pair[:, n_steps - 1]
    hs_term[:, n_steps] = hs_term[:, n_steps - 1]

    int_phiX = _trapezoid_cumulative(energies_X * expw[None, :], dt)
    int_phiZ = _trapezoid_cumulative(energies_Z * expw[None, :], dt)
    int_g = _trapezoid_cumulative(g_pair * expw[None, :], dt)
    int_hs = _trapezoid_cumulative(hs_term * expw[None, :], dt)

    lhs_paths = expw[steps_idx][None, :] * diff_sq[:, steps_idx] + 2.0 * int_phiX[:, steps_idx]
    rhs_paths = (
        diff_sq[:, 0][:, None]
        + 2.0 * int_phiZ[:, steps_idx]
        - 2.0 * int_g[:, steps_idx]
        + 2.0 * int_hs[:, steps_idx]
    )
    margins = rhs_paths - lhs_paths
    margin = np.mean(margins, axis=0)
    se = np.std(margins, axis=0, ddof=1) / np.sqrt(ens.n_paths)
    verdicts = ["pass" if m >= -3.0 * s else "fail" for m, s in zip(margin, se)]
    quad_err = _quad_error_estimate(energies_X * expw[None, :], dt)
    return SVIReport(
        checkpoint_times=dt * steps_idx,
        lhs=np.mean(lhs_paths, axis=0),
        rhs=np.mean(rhs_paths, axis=0),
        margin=margin,
        se=se,
        verdicts=verdicts,
        constant=C,
        quad_error_est=quad_err,
    )


def default_constant(model: NemytskiiNoise) -> float:
    """Exponential weight constant from the noise Lipschitz certificate."""
    return 2.0 * model.lipschitz**2 + 1.0


def weak_convergence_metric(
    ens_a: TrajectoryEnsemble,
    ens_b: TrajectoryEnsemble,
    test_functionals,
) -> float:
    """Max over (h, gamma) pairs of ``|E int gamma(t) (X^a_t - X^b_t, h)_H dt|``.

    The fixed dictionary of space-time pairings is the desk-scale surrogate
    for weak convergence in L^2([0,T] x Omega; H).
    """
    if ens_a.states.shape != ens_b.states.shape:
        raise ValueError("ensembles must share shape for the weak metric")
    grid, space, dt = ens_a.grid, ens_a.space, ens_a.dt
    diff = ens_a.states - ens_b.states  # (paths, steps+1, cells)
    times = ens_a.times()
    vals = []
    for h, gamma in test_functionals:
        hv = h.flat if isinstance(h, GridFunction) else np.asarray(h, dtype=float)
        if space == HMINUS1:
            hsolve = dirichlet_solve(grid, hv)
            pair = grid.cell_volume * (diff @ hsolve)
        else:
            pair = grid.cell_volume * (diff @ hv)
        gam = gamma(times) if callable(gamma) else np.asarray(gamma, dtype=float)
        per_path = np.trapezoid(pair * gam[None, :], dx=dt, axis=1)
        vals.append(abs(float(np.mean(per_path))))
    return float(np.max(vals))


def default_test_functionals(grid):
    """8 low cosine spatial modes crossed with the time weights (t/T)^j, j < 4."""
    xs = grid.centers()
    fns = []
    for k in range(8):
        mode = np.ones(grid.shape)
        for a, x in enumerate(xs):
            mode = mode * np.cos(np.pi * ((k + a) % 8) * x / grid.extents[a])
        fns.append(mode.reshape(-1))
    weights = [lambda t, j=j: (t / (t[-1] if t[-1] > 0 else 1.0)) ** j for j in range(4)]
    return [(f, w) for f in fns for w in weights]
