import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import chain_dp_prox
from spdelab import grids, potentials
from spdelab.grids import (
    DIRICHLET,
    HMINUS1,
    L2,
    NEUMANN,
    GridFunction,
    face_difference_matrix,
    inner,
    interval_grid,
    neg_laplacian_matrix,
    norm,
)
from spdelab.kernels import Kernel

rng = np.random.default_rng(404)


def random_l2(grid, scale=1.0):
    return GridFunction(grid, scale * rng.standard_normal(grid.shape))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_gradient_eval_of_constant_is_zero():
    g = interval_grid(30)
    for p in (1.0, 1.5, 2.0):
        pot = potentials.p_dirichlet(g, p)
        assert pot.eval(GridFunction(g, np.full(30, 2.2))) == 0.0


def test_fast_diffusion_quadratic_case_matches_half_norm():
    g = interval_grid(24)
    u = GridFunction(g, rng.standard_normal(24), HMINUS1)
    pot = potentials.fast_diffusion(g, 1.0)
    l2_sq = g.cell_volume * float(np.sum(u.values**2))
    assert pot.eval(u) == pytest.approx(0.5 * l2_sq, rel=1e-12)


def test_tv_of_unit_ramp_matches_stencil_sum():
    g = interval_grid(16)
    u = GridFunction(g, g.axis_centers(0))
    pot = potentials.p_dirichlet(g, 1.0)
    # direct stencil oracle: (n-1) interior faces, each |du/h| * h = h
    expected = (16 - 1) * g.spacing[0]
    assert pot.eval(u) == pytest.approx(expected, rel=1e-12)
    assert pot.eval(u) == pytest.approx(1.0, abs=2 * g.spacing[0])


def test_eval_convexity_on_random_triples():
    g = interval_grid(20)
    pots = [
        potentials.p_dirichlet(g, 1.3),
        potentials.p_dirichlet(g, 1.0, delta=0.05),
        potentials.p_dirichlet(g, 2.0, visc=0.1),
    ]
    for pot in pots:
        for _ in range(200):
            u, v = random_l2(g), random_l2(g)
            t = rng.uniform()
            mix = pot.eval(t * u + (1 - t) * v)
            assert mix <= t * pot.eval(u) + (1 - t) * pot.eval(v) + 1e-10


def test_eval_rejects_wrong_tag():
    g = interval_grid(10)
    pot = potentials.p_dirichlet(g, 1.5)
    with pytest.raises(ValueError):
        pot.eval(GridFunction(g, np.zeros(10), HMINUS1))
    fd = potentials.fast_diffusion(g, 0.5)
    with pytest.raises(ValueError):
        fd.eval(GridFunction(g, np.zeros(10), L2))


def test_weighted_eval_scales_integrand():
    g = interval_grid(12)
    u = GridFunction(g, g.axis_centers(0))
    base = potentials.p_dirichlet(g, 2.0)
    weighted = potentials.p_dirichlet(g, 2.0, weight=np.full(12, 3.0))
    assert weighted.eval(u) == pytest.approx(3.0 * base.eval(u), rel=1e-12)


# ---------------------------------------------------------------------------
# prox: oracles
# ---------------------------------------------------------------------------


def test_prox_of_constant_is_identity():
    g = interval_grid(18)
    c = GridFunction(g, np.full(18, -0.7))
    for pot in (potentials.p_dirichlet(g, 1.0), potentials.p_dirichlet(g, 1.6),
                potentials.p_dirichlet(g, 1.2, delta=0.01)):
        res = pot.prox(0.3, c)
        assert np.abs(res.minimizer.values + 0.7).max() < 1e-10
        assert res.kkt_residual <= 1e-10


def test_p2_prox_matches_direct_sparse_solve():
    g = interval_grid(64)
    pot = potentials.p_dirichlet(g, 2.0)
    f = random_l2(g)
    lam = 0.37
    res = pot.prox(lam, f)
    K = face_difference_matrix(g, NEUMANN)
    H = sp.eye(64) + lam * (K.T @ K)
    oracle = spla.spsolve(H.tocsc(), f.flat)
    assert res.minimizer.flat == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_prox_matches_chain_dp_oracle(p):
    g = interval_grid(4)
    pot = potentials.p_dirichlet(g, p)
    h = g.spacing[0]
    for _ in range(4):
        fv = 0.5 * rng.standard_normal(4)
        lam = 10 ** rng.uniform(-2.5, -0.5)
        res = pot.prox(lam, GridFunction(g, fv), tol=1e-9)
        lattice = chain_dp_prox(fv, lam, p, h)
        assert np.abs(res.minimizer.flat - lattice).max() < 2e-3


def test_fast_diffusion_m1_prox_matches_linear_solve():
    g = interval_grid(48)
    pot = potentials.fast_diffusion(g, 1.0)
    f = GridFunction(g, rng.standard_normal(48), HMINUS1)
    lam = 0.2
    res = pot.prox(lam, f)
    L = neg_laplacian_matrix(g, DIRICHLET)
    oracle = spla.spsolve((sp.eye(48) + lam * L).tocsc(), f.flat)
    assert res.minimizer.flat == pytest.approx(oracle, abs=1e-10)


def test_weighted_p2_prox_matches_weighted_solve():
    g = interval_grid(32)
    w = 2.0 + np.cos(2 * np.pi * g.axis_centers(0))
    pot = potentials.p_dirichlet(g, 2.0, weight=w)
    f = random_l2(g)
    lam = 0.5
    res = pot.prox(lam, f)
    K = face_difference_matrix(g, NEUMANN)
    wf = potentials.face_weights(g, w)
    H = sp.eye(32) + lam * (K.T @ sp.diags(wf) @ K)
    oracle = spla.spsolve(H.tocsc(), f.flat)
    assert res.minimizer.flat == pytest.approx(oracle, abs=1e-11)


# ---------------------------------------------------------------------------
# prox: structural invariants
# ---------------------------------------------------------------------------


POT_FACTORIES = [
    lambda g: potentials.p_dirichlet(g, 1.0),
    lambda g: potentials.p_dirichlet(g, 1.4),
    lambda g: potentials.p_dirichlet(g, 2.0),
    lambda g: potentials.p_dirichlet(g, 1.0, delta=0.02),
    lambda g: potentials.p_dirichlet(g, 1.6, delta=0.01, visc=0.05),
]


@pytest.mark.parametrize("factory", POT_FACTORIES)
def test_prox_certificate_within_tolerance(factory):
    g = interval_grid(24)
    pot = factory(g)
    res = pot.prox(0.2, random_l2(g), tol=1e-9)
    assert res.kkt_residual <= 1e-9
    assert res.iterations >= 1
    assert res.objective_value >= 0.0


@pytest.mark.parametrize("factory", POT_FACTORIES)
def test_prox_contraction(factory):
    g = interval_grid(24)
    pot = factory(g)
    f1, f2 = random_l2(g), random_l2(g)
    z1 = pot.prox(0.3, f1).minimizer
    z2 = pot.prox(0.3, f2).minimizer
    assert norm(z1 - z2) <= norm(f1 - f2) + 1e-9


def test_prox_yosida_consistency_as_delta_vanishes():
    g = interval_grid(32)
    f = GridFunction(g, np.sin(3 * np.pi * g.axis_centers(0)))
    raw = potentials.p_dirichlet(g, 1.0).prox(0.1, f).minimizer
    gaps = []
    for delta in (1e-1, 1e-2, 1e-3):
        reg = potentials.p_dirichlet(g, 1.0, delta=delta).prox(0.1, f).minimizer
        gaps.append(norm(reg - raw))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.05 * gaps[0]


def test_prox_requires_matching_space_and_positive_lam():
    g = interval_grid(10)
    pot = potentials.p_dirichlet(g, 1.5)
    f = GridFunction(g, np.zeros(10), HMINUS1)
    with pytest.raises(ValueError):
        pot.prox(0.1, f)
    with pytest.raises(ValueError):
        pot.prox(-1.0, GridFunction(g, np.zeros(10)))


def test_prox_nonconvergence_raises_with_residual():
    g = interval_grid(16)
    pot = potentials.p_dirichlet(g, 1.4)
    with pytest.raises(potentials.ProxDidNotConverge) as err:
        pot.prox(5.0, random_l2(g, scale=3.0), tol=1e-10, max_iter=1)
    assert err.value.residual > 0.0


# ---------------------------------------------------------------------------
# Yosida drift
# ---------------------------------------------------------------------------


def test_yosida_gradient_of_constant_vanishes():
    g = interval_grid(20)
    pot = potentials.p_dirichlet(g, 1.0, delta=0.05)
    out = pot.yosida_gradient(GridFunction(g, np.full(20, 1.3)))
    assert np.abs(out.values).max() == 0.0


@pytest.mark.parametrize(
    "factory",
    [
        lambda g: potentials.p_dirichlet(g, 1.5, delta=0.02),
        lambda g: potentials.p_dirichlet(g, 1.0, delta=0.05, visc=0.1),
        lambda g: potentials.nonlocal_p(g, Kernel("tent", 1), 0.25, 1.5, delta=0.02),
    ],
)
def test_yosida_gradient_is_directional_derivative(factory):
    g = interval_grid(32)
    pot = factory(g)
    u = GridFunction(g, np.sin(2 * np.pi * g.axis_centers(0)))
    hdir = random_l2(g)
    pairing = inner(pot.yosida_gradient(u), hdir)
    errs = []
    for h in (1e-5, 5e-6):
        fd = (pot.eval(u + h * hdir) - pot.eval(u - h * hdir)) / (2 * h)
        errs.append(abs(fd - pairing))
    assert errs[0] < 1e-6 * (1 + abs(pairing))


def test_yosida_gradient_requires_regularization():
    g = interval_grid(8)
    with pytest.raises(ValueError):
        potentials.p_dirichlet(g, 1.5).yosida_gradient(GridFunction(g, np.zeros(8)))


def test_nonlocal_drift_conserves_mass():
    g = interval_grid(40)
    pot = potentials.nonlocal_p(g, Kernel("bump", 1), 0.2, 1.3, delta=0.01)
    u = random_l2(g)
    one = GridFunction(g, np.ones(40))
    assert abs(inner(pot.yosida_gradient(u), one)) < 1e-10


def test_fast_diffusion_yosida_gradient_in_hminus1():
    g = interval_grid(24)
    pot = potentials.fast_diffusion(g, 0.5, delta=0.01)
    u = GridFunction(g, rng.standard_normal(24), HMINUS1)
    hdir = GridFunction(g, rng.standard_normal(24), HMINUS1)
    pairing = inner(pot.yosida_gradient(u), hdir)
    h = 1e-6
    fd = (pot.eval(u + h * hdir) - pot.eval(u - h * hdir)) / (2 * h)
    assert pairing == pytest.approx(fd, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# fast diffusion prox details
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,delta", [(0.5, None), (0.0, None), (0.3, 1e-2), (1.0, None)])
def test_fast_diffusion_prox_certificate(m, delta):
    g = interval_grid(32)
    pot = potentials.fast_diffusion(g, m, delta=delta)
    f = GridFunction(g, rng.standard_normal(32), HMINUS1)
    res = pot.prox(0.1, f, tol=1e-8)
    assert res.kkt_residual <= 1e-8


def test_fast_diffusion_weighted_prox_matches_linear_solve():
    g = interval_grid(24)
    w = 2.0 + np.cos(2 * np.pi * g.axis_centers(0))
    pot = potentials.fast_diffusion(g, 1.0, weight=w)
    f = GridFunction(g, rng.standard_normal(24), HMINUS1)
    lam = 0.15
    res = pot.prox(lam, f)
    L = neg_laplacian_matrix(g, DIRICHLET)
    oracle = spla.spsolve((sp.eye(24) + lam * (L @ sp.diags(w))).tocsc(), f.flat)
    assert res.minimizer.flat == pytest.approx(oracle, abs=1e-10)


def test_two_dimensional_gradient_prox_smoke():
    g = grids.Grid((1.0, 1.0), (8, 8))
    pot = potentials.p_dirichlet(g, 1.5, delta=0.05)
    f = GridFunction(g, rng.standard_normal((8, 8)))
    res = pot.prox(0.1, f, tol=1e-8)
    assert res.kkt_residual <= 1e-8


def test_newton_prox_solves_one_radius_per_evaluated_point(monkeypatch):
    # the objective, slope and curvature of every evaluated point share one
    # radius solve, and the accepted line-search candidate is reused as the
    # next iterate instead of being solved again
    from spdelab import yosida

    g = interval_grid(40)
    pot = potentials.p_dirichlet(g, 1.5, delta=1e-2)
    F = np.stack([np.sin(3.0 * g.axis_centers(0)), rng.standard_normal(40)])
    inputs = []
    real = yosida.prox_radius

    def counting(p, delta, s):
        inputs.append(np.array(s, dtype=float).tobytes())
        return real(p, delta, s)

    monkeypatch.setattr(yosida, "prox_radius", counting)
    _, resid, iters = potentials._newton_difference(pot, 0.05, F, 1e-10, 500, None)
    assert resid <= 1e-10 and iters > 2
    points = len(set(inputs))  # the start point plus every line-search candidate
    candidates = points - 1
    assert len(inputs) <= iters + candidates + 1
    assert len(inputs) == points  # no point solved twice


# ---------------------------------------------------------------------------
# sparse per-row solver paths and the solver entry points
# ---------------------------------------------------------------------------


GRID_8X8 = grids.Grid((1.0, 1.0), (8, 8))
BUMP_1D = Kernel("bump", 1)

# one case per sparse (non-chain) solver path, with the iteration count the
# solver took before its loop moved into the shared damped-Newton driver
SPARSE_PATH_CASES = [
    pytest.param(lambda: potentials.p_dirichlet(GRID_8X8, 1.0), 4, id="tv_2d_raw"),
    pytest.param(lambda: potentials.p_dirichlet(GRID_8X8, 1.0, delta=0.05), 4, id="tv_2d_delta"),
    pytest.param(lambda: potentials.p_dirichlet(GRID_8X8, 1.5), 5, id="p15_2d_raw"),
    pytest.param(lambda: potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.5), 10,
                 id="nonlocal_p15_raw"),
    pytest.param(lambda: potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.0), 47,
                 id="nonlocal_p1_raw"),
    pytest.param(lambda: potentials.fast_diffusion(GRID_8X8, 0.5, delta=0.05), 35, id="fastdiff_2d"),
]


@pytest.mark.parametrize("make,iters", SPARSE_PATH_CASES)
def test_sparse_path_prox_certificate(make, iters):
    pot = make()
    g = pot.grid
    f = GridFunction(g, np.random.default_rng(11).standard_normal(g.shape), pot.space)
    res = pot.prox(0.1, f, tol=1e-8)
    assert res.kkt_residual <= 1e-8
    assert res.iterations == iters
    if pot.space == L2:
        c = GridFunction(g, np.full(g.shape, 0.3))
        assert np.array_equal(pot.prox(0.1, c, tol=1e-8).minimizer.values, c.values)


def test_traced_solver_entry_points_keep_names_results_and_nesting(monkeypatch):
    # perfbench/tracer.py wraps these by name and silently skips a missing one
    FD = potentials.FastDiffusionPotential
    for owner, name in [(potentials, "_newton_difference"), (potentials, "_dual_newton_smooth"),
                        (potentials, "_dual_projected_newton"), (FD, "_prox_newton"),
                        (FD, "_prox_fista"), (potentials.Potential, "_probe_violation")]:
        assert callable(getattr(owner, name, None)), name
    g = interval_grid(12)
    F = np.random.default_rng(3).standard_normal((2, 12))
    results = [
        potentials._newton_difference(potentials.p_dirichlet(g, 1.5, delta=0.05), 0.1, F, 1e-9, 500, None),
        potentials._dual_newton_smooth(potentials.p_dirichlet(g, 1.5), 0.1, F, 1e-9, 500),
        potentials._dual_projected_newton(potentials.p_dirichlet(g, 1.0), 0.1, F, 1e-9, 500),
        potentials.fast_diffusion(g, 0.5, delta=0.05)._prox_newton(0.1, F, 1e-9, 500, None),
        potentials.fast_diffusion(g, 0.0)._prox_fista(0.1, F, 1e-9, 10_000, None),
    ]
    for Z, resid, iters in results:
        assert Z.shape == F.shape
        assert isinstance(resid, float) and resid <= 1e-9
        assert isinstance(iters, int) and iters >= 1

    # the tracer counts a fallback when prox_batch catches the primal Newton's
    # failure, and when _prox_newton itself hands over to _prox_fista
    def stall(*args, **kwargs):
        raise potentials.ProxDidNotConverge("stalled", 1.0)

    monkeypatch.setattr(potentials, "_newton_difference", stall)
    _, resid, _ = potentials.p_dirichlet(g, 1.5, delta=0.05).prox_batch(0.1, F, tol=1e-9)
    assert resid <= 1e-9
    monkeypatch.setattr(FD, "_prox_fista", lambda self, lam, F, tol, max_iter, warm: ("fista", warm))
    out = potentials.fast_diffusion(g, 0.5, delta=0.05)._prox_newton(0.1, F, 1e-9, 1, None)
    assert out[0] == "fista" and out[1].shape == F.shape


@pytest.mark.parametrize("shape", [(64,), (16, 16), (20, 10)])
def test_laplacian_extremes_match_dense_eigenvalues(shape):
    g = grids.Grid(tuple(1.0 for _ in shape), shape)
    vals = np.linalg.eigvalsh(neg_laplacian_matrix(g, DIRICHLET).toarray())
    lo, hi = potentials._laplacian_extremes(g)
    assert lo == pytest.approx(vals[0], rel=1e-11)
    assert hi == pytest.approx(vals[-1], rel=1e-11)


@pytest.mark.parametrize("make", [
    lambda: potentials.p_dirichlet(interval_grid(24), 1.5),
    lambda: potentials.fast_diffusion(GRID_8X8, 0.5, delta=0.05),
], ids=["l2", "hminus1"])
def test_probe_violation_matches_probe_by_probe_panel(make):
    # the stacked panel equals the one-probe-at-a-time definition, here at a
    # point off the minimizer where the violation is positive
    pot = make()
    g = pot.grid
    gen = np.random.default_rng(8)
    f = GridFunction(g, gen.standard_normal(g.shape), pot.space)
    z = GridFunction(g, pot.prox(0.1, f).minimizer.values + 0.1 * gen.standard_normal(g.shape), pot.space)
    ez = pot.eval(z)
    probes = [z.flat + d for d in potentials._probe_directions(g, pot.space, potentials._PROBE_COUNT)]
    expected = 0.0
    for vals in probes + [f.flat, np.zeros(g.num_cells)]:
        v = GridFunction(g, vals.reshape(g.shape), pot.space)
        expected = max(expected, inner(f - z, v - z) - 0.1 * (pot.eval(v) - ez))
    assert expected > 0.0
    assert pot._probe_violation(0.1, f, z) == pytest.approx(expected, rel=1e-12, abs=1e-14)
