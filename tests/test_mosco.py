import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import h1_resolvent_bound_check
from spdelab import mosco, potentials
from spdelab.grids import (
    GridFunction,
    HMINUS1,
    NEUMANN,
    box_grid,
    face_difference_matrix,
    interval_grid,
    norm,
)
from spdelab.kernels import Kernel
from spdelab.potentials import Potential

rng = np.random.default_rng(99)


class ShiftedPotential(Potential):
    """Wraps a base potential around a shifted origin (fails condition N)."""

    def __init__(self, base, shift):
        self.base = base
        self.grid = base.grid
        self.space = base.space
        self.profile = base.profile
        self.shift = shift
        self.label = f"shifted[{base.label}]"

    def eval_batch(self, U):
        return self.base.eval_batch(np.asarray(U, dtype=float) - self.shift.flat[None, :])

    def prox_batch(self, lam, F, tol=1e-10, warm=None):
        Z, r, i = self.base.prox_batch(lam, np.asarray(F, dtype=float) - self.shift.flat[None, :], tol=tol)
        return Z + self.shift.flat[None, :], r, i


def smooth_probe(grid, k=1):
    x = grid.axis_centers(0)
    return GridFunction(grid, np.sin(k * np.pi * x))


def distance(pot, target, f, lam, tol=1e-10):
    """One entry of the resolvent table: ``|R_lam(f) - R_lam^target(f)|``."""
    distances, _ = mosco.resolvent_table([pot], target, [("f", f)], (lam,), tol=tol)
    return distances[0, 0, 0]


def test_resolvent_distance_is_zero_for_identical_potentials():
    g = interval_grid(32)
    pot = potentials.p_dirichlet(g, 1.5)
    f = smooth_probe(g)
    assert distance(pot, pot, f, 1.0) < 1e-10


def test_resolvent_distance_symmetry():
    g = interval_grid(32)
    a = potentials.p_dirichlet(g, 1.4)
    b = potentials.p_dirichlet(g, 1.8)
    f = smooth_probe(g, 2)
    d1 = distance(a, b, f, 0.7)
    d2 = distance(b, a, f, 0.7)
    assert d1 == pytest.approx(d2, abs=1e-11)


def test_yosida_schedule_distance_shrinks_with_delta_linear_oracle():
    # p = 2 makes both resolvents explicit sparse solves
    g = interval_grid(48)
    f = smooth_probe(g)
    raw = potentials.p_dirichlet(g, 2.0)
    K = face_difference_matrix(g, NEUMANN)
    lam = 1.0
    dists = []
    for delta in (1e-1, 1e-2, 1e-3):
        reg = potentials.p_dirichlet(g, 2.0, delta=delta)
        d = distance(raw, reg, f, lam)
        # oracle: regularized quadratic profile scales the stiffness by 1/(1+delta)
        H_raw = sp.eye(48) + lam * K.T @ K
        H_reg = sp.eye(48) + lam / (1 + delta) * K.T @ K
        z_raw = spla.spsolve(H_raw.tocsc(), f.flat)
        z_reg = spla.spsolve(H_reg.tocsc(), f.flat)
        d_oracle = np.sqrt(g.cell_volume * np.sum((z_raw - z_reg) ** 2))
        assert d == pytest.approx(d_oracle, abs=1e-9)
        dists.append(d)
    assert dists[2] < dists[1] < dists[0]


def test_homogenization_resolvent_distances_decrease():
    g = interval_grid(64)
    x = g.axis_centers(0)
    f = smooth_probe(g)
    target = potentials.p_dirichlet(g, 2.0, weight=np.full(64, 2.0))
    dists = []
    for eps in (0.25, 0.125, 0.0625):
        w = 2.0 + np.cos(2 * np.pi * x / eps)
        pot = potentials.p_dirichlet(g, 2.0, weight=w)
        dists.append(distance(pot, target, f, 1.0))
    assert dists[2] < dists[1] < dists[0]


def test_condition_n_holds_for_all_families():
    g = interval_grid(24)
    pots = [
        potentials.p_dirichlet(g, 1.0),
        potentials.p_dirichlet(g, 1.5, delta=1e-2),
        potentials.p_dirichlet(g, 2.0, visc=0.2),
    ]
    assert mosco.condition_n_check(pots)
    fd = [potentials.fast_diffusion(g, 0.5), potentials.fast_diffusion(g, 1.0)]
    assert mosco.condition_n_check(fd)
    sq = box_grid((8, 8))
    assert mosco.condition_n_check([
        potentials.p_dirichlet(sq, 1.0),
        potentials.p_dirichlet(sq, 1.5),
        potentials.p_dirichlet(sq, 1.5, delta=1e-2),
    ])
    assert mosco.condition_n_check([
        potentials.fast_diffusion(sq, 0.0),
        potentials.fast_diffusion(sq, 0.5),
        potentials.fast_diffusion(sq, 0.5, delta=1e-2),
    ])
    chain, bump = interval_grid(32), Kernel("bump", 1)
    assert mosco.condition_n_check([
        potentials.nonlocal_p(chain, bump, 0.1, 1.0),
        potentials.nonlocal_p(chain, bump, 0.1, 1.5),
        potentials.nonlocal_p(chain, bump, 0.1, 1.5, delta=1e-2),
    ])


def test_condition_n_fails_for_shifted_potential():
    for g in (interval_grid(24), box_grid((8, 8))):
        base = potentials.p_dirichlet(g, 2.0)
        # gradient energies are blind to constant shifts; shift by a ramp instead
        shift = GridFunction(g, 0.5 * np.sin(np.pi * g.centers()[0]))
        shifted = ShiftedPotential(base, shift)
        assert not mosco.condition_n_check([shifted])


def test_condition_n_empty_sequence_warns_vacuous_true():
    with pytest.warns(UserWarning):
        assert mosco.condition_n_check([])


def test_mosco_trend_constant_sequence_is_flat():
    g = interval_grid(24)
    pot = potentials.p_dirichlet(g, 1.5)
    report = mosco.mosco_trend([pot, pot, pot], pot, lambdas=(1.0,))
    assert np.max(report.distances) < 1e-9
    assert all(v == "flat" for v in report.verdicts)
    assert report.condition_n_ok


class CountingPotential:
    """Forwards to ``base`` and records every ``(lam, probe)`` it is solved at
    and every probe it is evaluated at."""

    def __init__(self, base):
        self.base, self.solved, self.evaluated = base, [], []

    def __getattr__(self, name):
        return getattr(self.base, name)

    def prox(self, lam, f, tol):
        self.solved.append((float(lam), id(f)))
        return self.base.prox(lam, f, tol=tol)

    def eval(self, f):
        self.evaluated.append(id(f))
        return self.base.eval(f)


def test_resolvent_table_contract():
    g = interval_grid(16)
    target = CountingPotential(potentials.p_dirichlet(g, 1.5))
    pots = [CountingPotential(potentials.p_dirichlet(g, p)) for p in (1.9, 1.7, 1.6)]
    probes = mosco.default_probes(g, count=4)
    lambdas = (0.5, 1.0)
    distances, gaps = mosco.resolvent_table(pots, target, probes, lambdas)
    assert distances.shape == (3, 4, 2) and gaps.shape == (3,)
    panel = sorted((lam, id(f)) for _, f in probes for lam in lambdas)
    # the target once per probe and lambda, however long the sequence
    for pot in (target, *pots):
        assert sorted(pot.solved) == panel
    # the target's energy once per probe, not once per potential and probe
    assert sorted(target.evaluated) == sorted(id(f) for _, f in probes)
    tol = mosco.RESOLVENT_TOL
    for i, pot in enumerate(pots):
        excess = 0.0
        for jp, (_, f) in enumerate(probes):
            excess = max(excess, pot.eval(f) - target.eval(f))
            for jl, lam in enumerate(lambdas):
                d = norm(pot.prox(lam, f, tol) - target.prox(lam, f, tol))
                assert distances[i, jp, jl] == d
        assert gaps[i] == max(excess, 0.0)


@pytest.mark.parametrize("empty", ["potential sequence", "probe panel", "lambdas"])
def test_resolvent_table_refuses_empty_panel(empty):
    g = interval_grid(16)
    target = potentials.p_dirichlet(g, 1.5)
    args = {
        "potential sequence": [potentials.p_dirichlet(g, 1.9)],
        "probe panel": mosco.default_probes(g, count=2),
        "lambdas": (1.0,),
    }
    args[empty] = []
    with pytest.raises(ValueError, match=f"empty {empty}"):
        mosco.resolvent_table(args["potential sequence"], target, args["probe panel"], args["lambdas"])


def test_mosco_trend_refuses_empty_panel():
    # an empty panel used to give NaN trends read as "not-converging" verdicts
    g = interval_grid(16)
    target = potentials.p_dirichlet(g, 1.5)
    seq = [potentials.p_dirichlet(g, 1.9), potentials.p_dirichlet(g, 1.6)]
    with pytest.raises(ValueError, match="empty lambdas"):
        mosco.mosco_trend(seq, target, lambdas=())
    with pytest.raises(ValueError, match="empty probe panel"):
        mosco.mosco_trend(seq, target, lambdas=(1.0,), probes=[])
    with pytest.raises(ValueError, match="empty potential sequence"):
        mosco.mosco_trend([], target, lambdas=(1.0,))


def test_resolvent_distance_cross_checked_by_lattice_search():
    # both resolvents recomputed by brute-force chain DP on a 4-cell grid
    from oracles import chain_dp_prox

    g = interval_grid(4)
    h = g.spacing[0]
    f = GridFunction(g, np.array([0.4, -0.2, 0.3, -0.1]))
    lam = 0.05
    for p_a, p_b in ((1.9, 1.5), (1.0, 1.5)):
        a = potentials.p_dirichlet(g, p_a)
        b = potentials.p_dirichlet(g, p_b)
        d = distance(a, b, f, lam)
        za = chain_dp_prox(f.flat, lam, p_a, h)
        zb = chain_dp_prox(f.flat, lam, p_b, h)
        d_oracle = np.sqrt(g.cell_volume * np.sum((za - zb) ** 2))
        assert d == pytest.approx(d_oracle, abs=4e-3)


def test_mosco_trend_trotter_powers_converges():
    g = interval_grid(48)
    target = potentials.p_dirichlet(g, 1.5)
    seq = [potentials.p_dirichlet(g, 1.5 + 0.4 / n) for n in (1, 2, 4, 8)]
    report = mosco.mosco_trend(seq, target, lambdas=(1.0,))
    assert report.converging_count >= 14 * len(report.probe_ids) // 16
    assert np.all(report.limsup_gaps >= 0.0)
    assert report.condition_n_ok
    # raw table rows decay per probe
    assert np.all(report.distances[-1].mean(axis=-1) <= 0.5 * report.distances[0].mean(axis=-1))


def test_mosco_trend_yosida_schedule_rate():
    g = interval_grid(32)
    target = potentials.p_dirichlet(g, 1.0)
    seq = [potentials.p_dirichlet(g, 1.0, delta=1.0 / n) for n in (1, 2, 4, 8)]
    probes = mosco.default_probes(g, count=6)
    report = mosco.mosco_trend(seq, target, probes=probes, lambdas=(1.0,))
    trends = report.distances.mean(axis=(1, 2))
    assert np.all(np.diff(trends) < 0)
    assert trends[-1] < 0.5 * trends[0]


def test_mosco_report_csv_roundtrip(tmp_path):
    g = interval_grid(16)
    target = potentials.p_dirichlet(g, 1.5)
    seq = [potentials.p_dirichlet(g, 1.9), potentials.p_dirichlet(g, 1.6)]
    report = mosco.mosco_trend(seq, target, probes=mosco.default_probes(g, count=4), lambdas=(0.5, 1.0))
    out = tmp_path / "mosco.csv"
    report.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sequence_index,probe_id,lambda,distance"
    assert len(lines) == 1 + 2 * 4 * 2
    assert "mosco-by-resolvent" in report.summary()


def test_h1_resolvent_bound_constant_probe():
    g = interval_grid(32)
    pot = potentials.p_dirichlet(g, 1.5, delta=1e-3)
    f = GridFunction(g, np.full(32, 0.9))
    assert h1_resolvent_bound_check(pot, f) == pytest.approx(1.0, abs=1e-9)


def test_h1_resolvent_bound_p2_exact_contraction():
    g = interval_grid(64)
    pot = potentials.p_dirichlet(g, 2.0)
    for k in (1, 2, 5):
        ratio = h1_resolvent_bound_check(pot, smooth_probe(g, k))
        assert ratio <= 1.0 + 1e-10


def test_h1_resolvent_bound_regularized_singular_powers():
    g = interval_grid(64)
    x = g.axis_centers(0)
    for p in (1.2, 1.5, 1.8):
        pot = potentials.p_dirichlet(g, p, delta=1e-3)
        for k in range(1, 6):
            f = GridFunction(g, np.sin(k * np.pi * x) + 0.2 * np.cos((k + 1) * np.pi * x))
            assert h1_resolvent_bound_check(pot, f) <= 1.0 + 1e-6


def test_resolvent_is_h_contraction_at_zero_base():
    g = interval_grid(32)
    for pot in (potentials.p_dirichlet(g, 1.0), potentials.p_dirichlet(g, 1.6)):
        for _ in range(5):
            f = GridFunction(g, rng.standard_normal(32))
            z = pot.prox(0.8, f)
            assert norm(z) <= norm(f) + 1e-10


def test_resolvent_energy_monotone_in_lambda():
    g = interval_grid(32)
    pot = potentials.p_dirichlet(g, 1.4)
    f = smooth_probe(g, 3)
    energies = [pot.eval(pot.prox(lam, f)) for lam in (0.1, 1.0, 10.0)]
    assert energies[0] >= energies[1] >= energies[2]


def test_hminus1_probe_panel_and_distance():
    g = interval_grid(24)
    a = potentials.fast_diffusion(g, 0.5, delta=1e-2)
    b = potentials.fast_diffusion(g, 0.5, delta=1e-3)
    probes = mosco.default_probes(g, HMINUS1, count=4)
    distances, _ = mosco.resolvent_table([a], b, probes, (1.0,), tol=1e-8)
    assert np.all(distances >= 0.0)


def test_mismatched_geometry_rejected():
    g = interval_grid(16)
    a = potentials.p_dirichlet(g, 1.5)
    b = potentials.fast_diffusion(g, 0.5)
    with pytest.raises(ValueError):
        mosco.resolvent_table([a], b, [("sine", smooth_probe(g))], (1.0,), tol=1e-10)
