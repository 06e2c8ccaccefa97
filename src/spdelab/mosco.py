"""Resolvent-based certification of convex-functional convergence.

Convergence of convex energies (in the Mosco sense) is equivalent to strong
convergence of the resolvents ``R_lam(f) = prox(lam, f)`` for all f plus a
normalization condition that holds trivially whenever every functional has
a subgradient zero at zero.  On a finite grid the "for all f" is sampled:
the default probe panel mixes smooth trigonometric fields, piecewise
constants and seeded Gaussian fields.  ``resolvent_table`` computes the raw
distances and energy gaps for ``mosco_trend`` and the experiment runners.
Reports always retain the raw tables; trend verdicts (halving with a 10%
monotonicity slack) are explicitly labeled heuristics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, Grid, L2, norm
from .potentials import Potential

CONDITION_N_LAMBDAS = (0.1, 1.0, 10.0)
CONDITION_N_TOL = 1e-8  # largest norm of prox(lam, 0) that counts as zero
CONDITION_N_PROX_TOL = 1e-10
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


def condition_n_check(pots) -> bool:
    """Zero stays fixed: ``prox(lam, 0) = 0`` for each potential and lambda.

    This realizes the normalization condition that makes resolvent
    convergence equivalent to Mosco convergence; it holds for every family
    here since all energies are nonnegative with value 0 at 0.
    """
    pots = list(pots)
    if not pots:
        warnings.warn("condition (N) checked on an empty sequence: vacuously true", stacklevel=2)
        return True
    for pot in pots:
        zero = GridFunction(pot.grid, np.zeros(pot.grid.shape), pot.space)
        for lam in CONDITION_N_LAMBDAS:
            z = pot.prox(lam, zero, tol=CONDITION_N_PROX_TOL).minimizer
            if norm(z) > CONDITION_N_TOL:
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


def resolvent_table(pots, target: Potential, probes, lambdas, tol: float = RESOLVENT_TOL):
    """Resolvent distances and energy gaps of a potential sequence against
    its target on the probe panel ``probes`` (``(id, f)`` pairs).

    Returns ``(distances, gaps)``: ``distances[i, jp, jl]`` is the H-norm of
    ``R_lam(f) - R_lam^target(f)`` for potential i, probe jp and
    ``lam = lambdas[jl]``, and ``gaps[i] = max_probes (eval_i(f) -
    eval_target(f))_+`` is the sampled stand-in for the limsup condition.
    The target's resolvents are solved once per call.
    """
    pots, lambdas = list(pots), np.asarray(lambdas, dtype=float)
    for what, items in (("potential sequence", pots), ("probe panel", probes), ("lambdas", lambdas)):
        if len(items) == 0:
            raise ValueError(f"empty {what}")
    if any(pot.space != target.space for pot in pots):
        raise ValueError("potentials live in different Hilbert geometries")
    target_min = [[target.prox(lam, f, tol=tol).minimizer for lam in lambdas] for _, f in probes]
    distances = np.empty((len(pots), len(probes), len(lambdas)))
    gaps = np.empty(len(pots))
    for i, pot in enumerate(pots):
        gap = 0.0
        for jp, (_, f) in enumerate(probes):
            gap = max(gap, pot.eval(f) - target.eval(f))
            for jl, lam in enumerate(lambdas):
                distances[i, jp, jl] = norm(pot.prox(lam, f, tol=tol).minimizer - target_min[jp][jl])
        gaps[i] = max(gap, 0.0)
    return distances, gaps


def mosco_trend(pots, target: Potential, lambdas, probes=None) -> MoscoReport:
    """``resolvent_table`` of a potential sequence against its target at each
    resolvent parameter in ``lambdas`` (default probe panel unless
    ``probes``), with per-probe trend verdicts and condition (N)."""
    pots = list(pots)
    if probes is None:
        probes = default_probes(target.grid, target.space)
    lambdas = np.asarray(lambdas, dtype=float)
    distances, limsup_gaps = resolvent_table(pots, target, probes, lambdas)
    verdicts = []
    for jp in range(len(probes)):
        trend = distances[:, jp, :].mean(axis=1)
        if trend[0] <= 10 * RESOLVENT_TOL:
            verdicts.append("flat")
            continue
        monotone = bool(np.all(trend[1:] <= 1.1 * trend[:-1]))
        halved = trend[-1] <= 0.5 * trend[0]
        verdicts.append("converging" if monotone and halved else "not-converging")
    return MoscoReport(
        probe_ids=[pid for pid, _ in probes],
        lambdas=lambdas,
        sequence_labels=[pot.label for pot in pots],
        distances=distances,
        limsup_gaps=limsup_gaps,
        condition_n_ok=condition_n_check([*pots, target]),
        verdicts=verdicts,
    )
