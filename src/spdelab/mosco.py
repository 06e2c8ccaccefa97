"""Resolvent-based certification of convex-functional convergence.

Convergence of convex energies (in the Mosco sense) is equivalent to strong
convergence of the resolvents ``R_lam(f) = prox(lam, f)`` for all f plus a
normalization condition that holds trivially whenever every functional has
a subgradient zero at zero.  On a finite grid the "for all f" is sampled:
the default probe panel mixes smooth trigonometric fields, piecewise
constants and seeded Gaussian fields.  Reports always retain the raw
distance tables; trend verdicts (halving with a 10% monotonicity slack) are
explicitly labeled heuristics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, Grid, L2, norm
from .potentials import Potential

CONDITION_N_LAMBDAS = (0.1, 1.0, 10.0)
RESOLVENT_TOL = 1e-9  # prox tolerance of the resolvent-distance tables


@dataclass
class MoscoReport:
    """Distance table over (sequence index, probe, lambda) with verdicts."""

    probe_ids: list
    lambdas: np.ndarray
    sequence_labels: list
    distances: np.ndarray  # (n_seq, n_probes, n_lambdas)
    limsup_gaps: np.ndarray  # (n_seq,)
    condition_n_ok: bool
    verdicts: list  # per probe: "converging" | "flat" | "not-converging"

    @property
    def converging_count(self) -> int:
        return sum(1 for v in self.verdicts if v == "converging")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sequence_index,probe_id,lambda,distance\n")
            for i in range(self.distances.shape[0]):
                for jp, pid in enumerate(self.probe_ids):
                    for jl, lam in enumerate(self.lambdas):
                        fh.write(f"{i},{pid},{lam:.17g},{self.distances[i, jp, jl]:.17g}\n")

    def summary(self) -> str:
        return (
            f"mosco-by-resolvent: {self.converging_count}/{len(self.probe_ids)} probes converging; "
            f"condition_N={'ok' if self.condition_n_ok else 'FAILED'}; "
            f"max limsup gap {np.max(self.limsup_gaps):.3e}"
        )


def resolvent_distance(
    pot_a: Potential, pot_b: Potential, f: GridFunction, lam: float, tol: float = 1e-10
) -> float:
    """H-norm distance between the two resolvents at f."""
    if pot_a.space != pot_b.space:
        raise ValueError("potentials live in different Hilbert geometries")
    za = pot_a.prox(lam, f, tol=tol).minimizer
    zb = pot_b.prox(lam, f, tol=tol).minimizer
    return norm(za - zb)


def condition_n_check(pots, target: Potential | None = None, tol: float = 1e-8) -> bool:
    """Zero stays fixed: ``prox(lam, 0) = 0`` for each potential and lambda.

    This realizes the normalization condition that makes resolvent
    convergence equivalent to Mosco convergence; it holds for every family
    here since all energies are nonnegative with value 0 at 0.
    """
    pots = list(pots)
    if target is not None:
        pots = pots + [target]
    if not pots:
        warnings.warn("condition (N) checked on an empty sequence: vacuously true", stacklevel=2)
        return True
    for pot in pots:
        zero = GridFunction(pot.grid, np.zeros(pot.grid.shape), pot.space)
        for lam in CONDITION_N_LAMBDAS:
            z = pot.prox(lam, zero, tol=max(tol * 1e-2, 1e-12)).minimizer
            if norm(z) > tol:
                return False
    return True


def default_probes(grid: Grid, space: str = L2, count: int = 16):
    """Mixed probe panel: trigonometric, piecewise-constant, Gaussian fields."""
    rng = np.random.default_rng(777)
    xs = grid.centers()
    probes = []
    n_trig = max(count // 3, 1)
    n_pw = max(count // 3, 1)
    k = 0
    while len(probes) < n_trig:
        field = np.ones(grid.shape)
        for a, x in enumerate(xs):
            field = field * np.sin(np.pi * (k % 4 + 1) * x / grid.extents[a] + 0.3 * a + 0.2 * k)
        probes.append(("trig%d" % k, field))
        k += 1
    for j in range(n_pw):
        levels = rng.integers(2, 5)
        cuts = np.sort(rng.uniform(0.1, 0.9, size=levels - 1)) * grid.extents[0]
        vals = rng.uniform(-1.0, 1.0, size=levels)
        x0 = xs[0]
        field = np.select(
            [x0 < c for c in cuts] + [np.ones_like(x0, dtype=bool)], list(vals[:-1]) + [vals[-1]]
        )
        probes.append(("piecewise%d" % j, field + 0 * sum(xs)))
    j = 0
    while len(probes) < count:
        probes.append(("gauss%d" % j, rng.standard_normal(grid.shape)))
        j += 1
    return [(pid, GridFunction(grid, v, space)) for pid, v in probes[:count]]


def mosco_trend(
    pots,
    target: Potential,
    lambdas,
    probes=None,
    tol: float = RESOLVENT_TOL,
) -> MoscoReport:
    """Resolvent-distance table of a potential sequence against its target
    at each resolvent parameter in ``lambdas``.

    Also reports the pointwise upper-bound surrogate
    ``max_probes (eval_n(probe) - eval_target(probe))_+`` per sequence
    element, the sampled stand-in for the limsup condition.
    """
    pots = list(pots)
    if not pots:
        raise ValueError("empty potential sequence")
    if probes is None:
        probes = default_probes(target.grid, target.space)
    lambdas = np.asarray(lambdas, dtype=float)
    n_seq, n_probes, n_lam = len(pots), len(probes), len(lambdas)
    distances = np.empty((n_seq, n_probes, n_lam))
    limsup_gaps = np.empty(n_seq)
    target_prox = {}
    for jp, (pid, f) in enumerate(probes):
        for jl, lam in enumerate(lambdas):
            target_prox[(jp, jl)] = target.prox(lam, f, tol=tol).minimizer
    for i, pot in enumerate(pots):
        gap = 0.0
        for jp, (pid, f) in enumerate(probes):
            gap = max(gap, pot.eval(f) - target.eval(f))
            for jl, lam in enumerate(lambdas):
                z = pot.prox(lam, f, tol=tol).minimizer
                distances[i, jp, jl] = norm(z - target_prox[(jp, jl)])
        limsup_gaps[i] = max(gap, 0.0)
    verdicts = []
    for jp in range(n_probes):
        trend = distances[:, jp, :].mean(axis=1)
        if trend[0] <= max(10 * tol, 1e-12):
            verdicts.append("flat")
            continue
        monotone = bool(np.all(trend[1:] <= 1.1 * trend[:-1]))
        halved = trend[-1] <= 0.5 * trend[0]
        verdicts.append("converging" if monotone and halved else "not-converging")
    cond_n = condition_n_check(pots, target)
    return MoscoReport(
        probe_ids=[pid for pid, _ in probes],
        lambdas=lambdas,
        sequence_labels=[pot.label for pot in pots],
        distances=distances,
        limsup_gaps=limsup_gaps,
        condition_n_ok=cond_n,
        verdicts=verdicts,
    )
