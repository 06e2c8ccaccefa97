"""Monte-Carlo audits of the variational solution concept.

``audit`` estimates two kinds of inequality from a trajectory ensemble in one
pass over its stored steps:

* the energy bound
  ``esssup_t E||X_t||_H^2 + E int_0^T E(X_r) dr <= C (E||x_0||_H^2 + 1)``,
* the test-process inequality, once per test process: for adapted
  ``Z_t = Z_0 + int G dr + int F dW``,

      E e^{-Ct} ||X_t - Z_t||^2 + 2 E int_0^t e^{-Cr} E(X_r) dr
        <= E ||x_0 - Z_0||^2 + 2 E int e^{-Cr} E(Z_r) dr
           - 2 E int e^{-Cr} (G_r, X_r - Z_r)_H dr
           + 2 E int e^{-Cr} ||F_r - B(Z_r)||_HS^2 dr.

Both sides are estimated per path and compared with Monte-Carlo standard
errors; time integrals use the trapezoid rule on the stored steps with a
step-halving quadrature error estimate.  "Almost all t" is realized as a
finite checkpoint grid.  Each test process yields its rows one step at a
time, so the audit keeps only per-path scalars per step.  A test process
either has F = 0, so its HS term is ``||B(Z_r)||_HS^2``, or is the solution's
own decomposition (F = B(X), HS term zero), which must ride the ensemble's
stored increments: pairing it with foreign noise is refused.
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

    Data: finite ``z0`` (cells,) and drift ``G`` per step (steps, cells) or None.
    """

    def __init__(self, grid, space, z0, G=None):
        self.grid = grid
        self.space = space
        self.z0 = np.asarray(z0, dtype=float).reshape(-1)
        self.G = None if G is None else np.asarray(G, dtype=float)
        n = grid.num_cells
        if self.z0.size != n:
            raise ValueError(f"test process z0 has {self.z0.size} values for {n} cells")
        if self.G is not None and (self.G.ndim != 2 or self.G.shape[1] != n):
            raise ValueError(f"test process G must have shape (steps, {n}), got {self.G.shape}")
        if not np.isfinite(self.z0).all() or (self.G is not None and not np.isfinite(self.G).all()):
            raise ValueError("test process z0 and G must be finite")

    @classmethod
    def constant(cls, grid, space, value) -> "TestProcess":
        z0 = np.full(grid.num_cells, float(value))
        return cls(grid, space, z0)

    @classmethod
    def from_function(cls, z0: GridFunction, G=None) -> "TestProcess":
        return cls(z0.grid, z0.space, z0.flat, G=G)

    def steps(self, ens: TrajectoryEnsemble):
        """Yield ``(Z_s, G_s)``, (paths, cells) rows, for s = 0..steps on the
        ensemble's time grid; ``G_s`` is None where the drift is zero and at
        the last step."""
        if self.G is not None and self.G.shape[0] != ens.n_steps:
            raise ValueError(f"test process G has {self.G.shape[0]} rows for {ens.n_steps} steps")
        shape = (ens.n_paths, self.grid.num_cells)
        cur = np.broadcast_to(self.z0, shape).copy()
        for s in range(ens.n_steps):
            g = None if self.G is None else np.broadcast_to(self.G[s], shape)
            yield cur, g
            if g is not None:
                cur = cur + ens.dt * self.G[s]
        yield cur, None


class SolutionTestProcess(TestProcess):
    """The ensemble's own decomposition: Z = X, G the realized drift, F = B(X).

    With the implicit scheme the realized drift rows
    ``(X_{s+1} - X_s - B(X_s) dW_s) / dt`` are exact negative subgradients at
    X_{s+1} (prox optimality), so this process satisfies the decomposition
    identity to machine precision on the stored grid.  Audited against its own
    ensemble it checks nothing: ``X - Z = 0`` makes margin and SE exactly 0.
    """

    def __init__(self, ens: TrajectoryEnsemble, model: NemytskiiNoise):
        super().__init__(ens.grid, ens.space, ens.states[0, 0])
        self._ens = ens
        self._model = model

    def steps(self, ens: TrajectoryEnsemble):
        if ens is not self._ens and not np.array_equal(ens.increments, self._ens.increments):
            raise ValueError("solution test process paired with foreign noise")
        own, X = self._ens, self._ens.states
        for s in range(own.n_steps):
            noise = self._model.apply_batch(X[:, s, :], own.increments[:, s, :])
            yield X[:, s, :], (X[:, s + 1, :] - X[:, s, :] - noise) / own.dt
        yield X[:, -1, :], None


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


def _report(times, lhs, rhs, margin, per_path, C, quad_err, smallest=None) -> SVIReport:
    """Report whose standard errors come from the (paths, checkpoints) ``per_path``;
    a checkpoint passes when its margin is at least -3 SE."""
    se = np.std(per_path, axis=0, ddof=1) / np.sqrt(per_path.shape[0])
    verdicts = ["pass" if m >= -3.0 * s else "fail" for m, s in zip(margin, se)]
    return SVIReport(times, lhs, rhs, margin, se, verdicts, C, quad_err, smallest)


def audit(
    ens: TrajectoryEnsemble,
    pot: Potential,
    model: NemytskiiNoise,
    C: float,
    family: dict,
) -> dict:
    """Audit the energy bound and, on common noise, the test-process
    inequality of each test process in the name -> process mapping ``family``.

    Returns ``{"energy": SVIReport, name: SVIReport, ...}``; ``{}`` audits the
    energy bound alone.  The energy report also carries the smallest
    admissible constant.
    One pass over the steps evaluates ``||X_s||^2`` and ``E(X_s)`` once and,
    per process, ``||X_s - Z_s||^2``, ``E(Z_s)``, ``(G_s, X_s - Z_s)_H`` and the
    HS term.  All terms are estimated per path, so each test-process margin
    carries a combined standard error.
    """
    if ens.n_paths < 2:
        raise ValueError(f"an audit's standard errors need at least 2 paths, got {ens.n_paths}")
    if any(Z.grid != ens.grid or Z.space != ens.space for Z in family.values()):
        raise ValueError("test process must live in the ensemble's geometry")
    grid, space, dt, n_steps = ens.grid, ens.space, ens.dt, ens.n_steps
    shape = (ens.n_paths, n_steps + 1)
    norms, energies = np.empty(shape), np.empty(shape)
    # per process and path: ||X - Z||^2, E(Z), (G, X - Z)_H and ||F - B(Z)||_HS^2
    terms = {name: np.zeros((4,) + shape) for name in family}
    streams = {name: Z.steps(ens) for name, Z in family.items()}
    solution = {name for name, Z in family.items() if isinstance(Z, SolutionTestProcess)}
    own = {name for name in solution if family[name]._ens is ens}  # Z = X: its energies are known
    for s in range(n_steps + 1):
        X = ens.states[:, s, :]
        norms[:, s] = space_norm_sq(grid, X, space)
        energies[:, s] = pot.eval_batch(X)
        for name, stream in streams.items():
            Z, G = next(stream)
            diff = X - Z
            t = terms[name]
            t[0, :, s] = space_norm_sq(grid, diff, space)
            t[1, :, s] = energies[:, s] if name in own else pot.eval_batch(Z)
            if G is not None:
                t[2, :, s] = _batched_inner(grid, space, G, diff)
            if s < n_steps and name not in solution:
                # F = 0 here; the solution's F = B(Z) makes the term zero
                t[3, :, s] = model.hs_norm_sq_batch(Z)
    checkpoints = _checkpoint_steps(n_steps)
    times = dt * checkpoints

    energy_int = _trapezoid_cumulative(energies, dt)[:, -1]
    denom = float(np.mean(norms[:, 0])) + 1.0
    lhs_paths = norms[:, checkpoints] + energy_int[:, None]
    lhs = np.mean(lhs_paths, axis=0)
    rhs = np.full_like(lhs, C * denom)
    reports = {"energy": _report(times, lhs, rhs, rhs - lhs, lhs_paths, C,
                                 _quad_error_estimate(energies, dt), float(np.max(lhs) / denom))}

    expw = np.exp(-C * dt * np.arange(n_steps + 1))

    def integral(values):
        return _trapezoid_cumulative(values * expw, dt)[:, checkpoints]

    int_phiX = integral(energies)
    quad_err = _quad_error_estimate(energies * expw, dt)
    for name, (diff_sq, energy_Z, g_pair, hs) in terms.items():
        g_pair[:, n_steps] = g_pair[:, n_steps - 1]
        hs[:, n_steps] = hs[:, n_steps - 1]
        lhs_paths = expw[checkpoints] * diff_sq[:, checkpoints] + 2.0 * int_phiX
        rhs_paths = diff_sq[:, :1] + 2.0 * integral(energy_Z) - 2.0 * integral(g_pair) + 2.0 * integral(hs)
        margins = rhs_paths - lhs_paths
        reports[name] = _report(times, np.mean(lhs_paths, axis=0), np.mean(rhs_paths, axis=0),
                                np.mean(margins, axis=0), margins, C, quad_err)
    return reports


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
