import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import certified_prox, chain_dp_prox, hessian_band, probe_directions, probe_violation, sls_band
from spdelab import _linalg, grids, kernels, mosco, potentials, profiles, yosida
from spdelab.engine import SchemeParams
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
from spdelab.profiles import PowerProfile

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
        res = certified_prox(pot, 0.3, c)
        assert np.abs(res.minimizer.values + 0.7).max() < 1e-10
        assert res.kkt_residual <= 1e-10


def test_p2_prox_matches_direct_sparse_solve():
    g = interval_grid(64)
    pot = potentials.p_dirichlet(g, 2.0)
    f = random_l2(g)
    lam = 0.37
    z = pot.prox(lam, f)
    K = face_difference_matrix(g, NEUMANN)
    H = sp.eye(64) + lam * (K.T @ K)
    oracle = spla.spsolve(H.tocsc(), f.flat)
    assert z.flat == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_prox_matches_chain_dp_oracle(p):
    g = interval_grid(4)
    pot = potentials.p_dirichlet(g, p)
    h = g.spacing[0]
    for _ in range(4):
        fv = 0.5 * rng.standard_normal(4)
        lam = 10 ** rng.uniform(-2.5, -0.5)
        z = pot.prox(lam, GridFunction(g, fv), tol=1e-9)
        lattice = chain_dp_prox(fv, lam, p, h)
        assert np.abs(z.flat - lattice).max() < 2e-3


def test_fast_diffusion_m1_prox_matches_linear_solve():
    g = interval_grid(48)
    pot = potentials.fast_diffusion(g, 1.0)
    f = GridFunction(g, rng.standard_normal(48), HMINUS1)
    lam = 0.2
    z = pot.prox(lam, f)
    L = neg_laplacian_matrix(g, DIRICHLET)
    oracle = spla.spsolve((sp.eye(48) + lam * L).tocsc(), f.flat)
    assert z.flat == pytest.approx(oracle, abs=1e-10)


def test_weighted_p2_prox_matches_weighted_solve():
    g = interval_grid(32)
    w = 2.0 + np.cos(2 * np.pi * g.axis_centers(0))
    pot = potentials.p_dirichlet(g, 2.0, weight=w)
    f = random_l2(g)
    lam = 0.5
    z = pot.prox(lam, f)
    K = face_difference_matrix(g, NEUMANN)
    wf = potentials.face_weights(g, w)
    H = sp.eye(32) + lam * (K.T @ sp.diags(wf) @ K)
    oracle = spla.spsolve(H.tocsc(), f.flat)
    assert z.flat == pytest.approx(oracle, abs=1e-11)


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
    res = certified_prox(pot, 0.2, random_l2(g), tol=1e-9)
    assert res.kkt_residual <= 1e-9
    assert res.iterations >= 1
    assert res.objective_value >= 0.0


@pytest.mark.parametrize("factory", POT_FACTORIES)
def test_prox_contraction(factory):
    g = interval_grid(24)
    pot = factory(g)
    f1, f2 = random_l2(g), random_l2(g)
    z1 = pot.prox(0.3, f1)
    z2 = pot.prox(0.3, f2)
    assert norm(z1 - z2) <= norm(f1 - f2) + 1e-9


def test_prox_yosida_consistency_as_delta_vanishes():
    g = interval_grid(32)
    f = GridFunction(g, np.sin(3 * np.pi * g.axis_centers(0)))
    raw = potentials.p_dirichlet(g, 1.0).prox(0.1, f)
    gaps = []
    for delta in (1e-1, 1e-2, 1e-3):
        reg = potentials.p_dirichlet(g, 1.0, delta=delta).prox(0.1, f)
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


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: yosida.prox_radius(1.5, NAN, np.ones(3)),
    lambda: yosida.prox_radius(1.7, np.array([0.1, NAN]), np.ones(2)),
    lambda: profiles.YosidaPowerProfile(1.5, NAN),
    lambda: potentials.p_dirichlet(interval_grid(8), 1.5, visc=NAN),
    lambda: potentials.p_dirichlet(interval_grid(8), 1.5).prox(NAN, GridFunction(interval_grid(8), np.zeros(8))),
    lambda: SchemeParams(dt=NAN, steps=4),
    lambda: grids.Grid((NAN,), (4,)),
    lambda: potentials.p_dirichlet(interval_grid(4), 1.5, weight=[1.0, NAN, 1.0, 1.0]),
    lambda: potentials.fast_diffusion(interval_grid(4), 0.5, weight=[1.0, NAN, 1.0, 1.0]),
    lambda: Kernel("bump", 1, NAN),
    lambda: kernels.RescaledKernel(Kernel("bump", 1), NAN, 1.5),
    lambda: potentials.nonlocal_p(interval_grid(8), Kernel("bump", 1), 0.5, 1.5, delta=NAN),
    lambda: grids.Grid((np.inf,), (4,)),
    lambda: SchemeParams(dt=np.inf, steps=4),
], ids=["radius", "radius_array", "yosida_delta", "visc", "prox_lam", "scheme_dt",
        "grid_extent", "face_weight", "fastdiff_weight", "kernel_radius", "kernel_eps", "nonlocal_delta",
        "grid_extent_inf", "scheme_dt_inf"])
def test_nan_parameters_fail_the_positivity_checks(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
@pytest.mark.parametrize("solve", [
    lambda tol: SchemeParams(dt=1e-3, steps=1, prox_tol=tol),
    lambda tol: potentials.p_dirichlet(interval_grid(8), 1.5).prox(0.5, GridFunction(interval_grid(8), np.ones(8)), tol),
    lambda tol: potentials.p_dirichlet(GRID_8X8, 1.0, delta=0.05).prox_batch(0.5, np.ones((1, 64)), tol=tol),
    lambda tol: potentials.fast_diffusion(GRID_8X8, 0.5, delta=0.05).prox_batch(0.5, np.ones((1, 64)), tol=tol),
], ids=["scheme", "prox", "prox_batch", "fastdiff_prox_batch"])
def test_prox_tolerance_must_be_positive(solve, tol):
    # with a NaN or infinite tolerance no residual exceeds its target, so
    # every row settled at once and the prox returned f: the drift dropped out
    with pytest.raises(ValueError, match="must be positive"):
        solve(tol)


@pytest.mark.parametrize("lam", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("build", [
    lambda: potentials.p_dirichlet(interval_grid(8), 1.5),
    lambda: potentials.p_dirichlet(interval_grid(8), 1.5, delta=0.05),
    lambda: potentials.p_dirichlet(interval_grid(8), 1.0),
    lambda: potentials.p_dirichlet(grids.Grid((1.0, 1.0), (4, 4)), 1.5),
    lambda: potentials.nonlocal_p(interval_grid(8), Kernel("bump", 1), 0.5, 1.5),
    lambda: potentials.fast_diffusion(interval_grid(8), 0.5),
], ids=["chain_raw", "chain_yosida", "chain_tv", "grid_2d", "nonlocal", "fastdiff"])
def test_prox_batch_refuses_a_bad_lam(build, lam):
    # a NaN, infinite or nonpositive lam used to settle every row at once
    # with F unchanged (raw total variation returned non-finite rows)
    pot = build()
    with pytest.raises(ValueError, match="lam must be positive"):
        pot.prox_batch(lam, rng.standard_normal((2, pot.grid.num_cells)), tol=1e-9)


@pytest.fixture
def one_iteration_caps(monkeypatch):
    """Every prox solver stops after one iteration."""
    for cap in ("NEWTON_CAP", "DUAL_CAP", "FD_NEWTON_CAP", "FISTA_CAP"):
        monkeypatch.setattr(potentials, cap, 1)


@pytest.mark.parametrize("build", [
    lambda g: potentials.p_dirichlet(g, 1.5, delta=1e-2),
    lambda g: potentials.p_dirichlet(g, 1.5),
    lambda g: potentials.fast_diffusion(g, 0.5),
], ids=["newton", "dual_smooth", "fista"])
def test_stalled_prox_reports_its_unconverged_rows(build, one_iteration_caps):
    # the zero row is its own prox and settles at once; the others stall at
    # the one-iteration cap
    g = interval_grid(16)
    F = 3.0 * rng.standard_normal((4, 16))
    F[2] = 0.0
    with pytest.raises(potentials.ProxDidNotConverge) as err:
        build(g).prox_batch(5.0, F, tol=1e-10)
    assert err.value.rows == (0, 1, 3)


def test_prox_nonconvergence_raises_with_residual(one_iteration_caps):
    g = interval_grid(16)
    pot = potentials.p_dirichlet(g, 1.4)
    with pytest.raises(potentials.ProxDidNotConverge) as err:
        pot.prox(5.0, random_l2(g, scale=3.0), tol=1e-10)
    assert err.value.residual > 0.0


# ---------------------------------------------------------------------------
# Yosida drift
# ---------------------------------------------------------------------------


def yosida_gradient(pot, u):
    """``yosida_gradient_batch`` at one state, as a function in the potential's space."""
    return GridFunction(pot.grid, pot.yosida_gradient_batch(u.flat[None, :])[0], pot.space)


def test_yosida_gradient_of_constant_vanishes():
    g = interval_grid(20)
    pot = potentials.p_dirichlet(g, 1.0, delta=0.05)
    out = yosida_gradient(pot, GridFunction(g, np.full(20, 1.3)))
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
    pairing = inner(yosida_gradient(pot, u), hdir)
    errs = []
    for h in (1e-5, 5e-6):
        fd = (pot.eval(u + h * hdir) - pot.eval(u - h * hdir)) / (2 * h)
        errs.append(abs(fd - pairing))
    assert errs[0] < 1e-6 * (1 + abs(pairing))


def test_yosida_gradient_requires_regularization():
    # the raw slope |s|^(p-1) has no Lipschitz bound, so only the Yosida
    # drift can step explicitly
    g = interval_grid(8)
    assert potentials.p_dirichlet(g, 1.5).drift_lipschitz_bound() is None
    assert 0 < potentials.p_dirichlet(g, 1.5, delta=1e-2).drift_lipschitz_bound() < np.inf


def test_nonlocal_drift_conserves_mass():
    g = interval_grid(40)
    pot = potentials.nonlocal_p(g, Kernel("bump", 1), 0.2, 1.3, delta=0.01)
    u = random_l2(g)
    one = GridFunction(g, np.ones(40))
    assert abs(inner(yosida_gradient(pot, u), one)) < 1e-10


def test_fast_diffusion_yosida_gradient_in_hminus1():
    g = interval_grid(24)
    pot = potentials.fast_diffusion(g, 0.5, delta=0.01)
    u = GridFunction(g, rng.standard_normal(24), HMINUS1)
    hdir = GridFunction(g, rng.standard_normal(24), HMINUS1)
    pairing = inner(yosida_gradient(pot, u), hdir)
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
    res = certified_prox(pot, 0.1, f, tol=1e-8)
    assert res.kkt_residual <= 1e-8


def test_fast_diffusion_weighted_prox_matches_linear_solve():
    g = interval_grid(24)
    w = 2.0 + np.cos(2 * np.pi * g.axis_centers(0))
    pot = potentials.fast_diffusion(g, 1.0, weight=w)
    f = GridFunction(g, rng.standard_normal(24), HMINUS1)
    lam = 0.15
    z = pot.prox(lam, f)
    L = neg_laplacian_matrix(g, DIRICHLET)
    oracle = spla.spsolve((sp.eye(24) + lam * (L @ sp.diags(w))).tocsc(), f.flat)
    assert z.flat == pytest.approx(oracle, abs=1e-10)


def test_two_dimensional_gradient_prox_smoke():
    g = grids.Grid((1.0, 1.0), (8, 8))
    pot = potentials.p_dirichlet(g, 1.5, delta=0.05)
    f = GridFunction(g, rng.standard_normal((8, 8)))
    res = certified_prox(pot, 0.1, f, tol=1e-8)
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
    _, resid, iters = potentials._newton_difference(pot, 0.05, F, 1e-10, None)
    assert resid <= 1e-10 and iters > 2
    points = len(set(inputs))  # the start point plus every line-search candidate
    candidates = points - 1
    assert len(inputs) <= iters + candidates + 1
    assert len(inputs) == points  # no point solved twice


# ---------------------------------------------------------------------------
# non-chain solver paths (banded LAPACK solves) and the solver entry points
# ---------------------------------------------------------------------------


GRID_8X8 = grids.Grid((1.0, 1.0), (8, 8))
BUMP_1D = Kernel("bump", 1)

# one case per non-chain solver path, with the iteration count the solver took
# before its loop moved into the shared damped-Newton driver.  nonlocal_p1_raw
# went 47 -> 39 when the box dual's direction moved from a sparse LU per row to
# the Gram band: its active set follows the direction's rounding in the Gram's
# null space, where the ridge alone makes the system definite.  When the box
# dual became the bounded case of the one face-dual Newton (Armijo steps, the
# gradient -K v + h*'(y) and the scaled ridge 1e-13 (1 + max diag) for both
# duals), nonlocal_p1_raw went 39 -> 22 and nonlocal_p15_raw 10 -> 9.  When
# tests/conftest.py put OpenBLAS on its Haswell kernels, nonlocal_p1_raw went
# 22 -> 26: the band Cholesky's rounding moves the box dual's active set
SPARSE_PATH_CASES = [
    pytest.param(lambda: potentials.p_dirichlet(GRID_8X8, 1.0), 4, id="tv_2d_raw"),
    pytest.param(lambda: potentials.p_dirichlet(GRID_8X8, 1.0, delta=0.05), 4, id="tv_2d_delta"),
    pytest.param(lambda: potentials.p_dirichlet(GRID_8X8, 1.5), 5, id="p15_2d_raw"),
    pytest.param(lambda: potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.5), 9,
                 id="nonlocal_p15_raw"),
    pytest.param(lambda: potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.0), 26,
                 id="nonlocal_p1_raw"),
    pytest.param(lambda: potentials.fast_diffusion(GRID_8X8, 0.5, delta=0.05), 35, id="fastdiff_2d"),
]


@pytest.mark.parametrize("make,iters", SPARSE_PATH_CASES)
def test_sparse_path_prox_certificate(make, iters):
    pot = make()
    g = pot.grid
    f = GridFunction(g, np.random.default_rng(11).standard_normal(g.shape), pot.space)
    res = certified_prox(pot, 0.1, f, tol=1e-8)
    assert res.kkt_residual <= 1e-8
    assert res.iterations == iters
    if pot.space == L2:
        c = GridFunction(g, np.full(g.shape, 0.3))
        assert np.array_equal(pot.prox(0.1, c, tol=1e-8).values, c.values)


def test_fast_diffusion_spd_newton_solve_matches_sparse_solve():
    # the curvature of the Huber-type m = 0 profile is 1/delta inside the
    # kink and exactly zero outside it
    pot = potentials.fast_diffusion(GRID_8X8, 0.0, delta=0.05)
    gen = np.random.default_rng(5)
    Z = 0.1 * gen.standard_normal((4, 64))
    c = 0.3 * pot.profile.maps(np.abs(Z))[2]
    assert np.any(c == 0.0) and np.any(c > 0.0)
    B = gen.standard_normal((4, 64))
    X = pot._newton_solve(c, B)
    L = neg_laplacian_matrix(GRID_8X8, DIRICHLET)
    for r in range(4):
        want = spla.spsolve((sp.eye(64) + L @ sp.diags(c[r])).tocsc(), B[r])
        assert np.linalg.norm(X[r] - want) <= 1e-12 * np.linalg.norm(want)


def _record_directions(monkeypatch):
    """Copies of ``(state, grad, step)`` for every Newton direction taken."""
    seen, driver = [], potentials._damped_newton

    def spy(evaluate, X, residual, direction, *args, **kwargs):
        def recorded(state, grad):
            step = direction(state, grad)
            seen.append((tuple(a.copy() for a in state), grad.copy(), step.copy()))
            return step

        return driver(evaluate, X, residual, recorded, *args, **kwargs)

    monkeypatch.setattr(potentials, "_damped_newton", spy)
    return seen


# face duals off chains, smooth and box
DUAL_DIRECTION_CASES = {
    "smooth_2d": lambda: potentials.p_dirichlet(GRID_8X8, 1.5),
    "smooth_bump": lambda: potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.5),
    "box_2d": lambda: potentials.p_dirichlet(GRID_8X8, 1.0, delta=0.05),
    "box_bump": lambda: potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.0, delta=0.05),
    "box_2d_raw": lambda: potentials.p_dirichlet(GRID_8X8, 1.0),
    "box_bump_raw": lambda: potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.0),
}


@pytest.mark.parametrize("case", sorted(DUAL_DIRECTION_CASES))
def test_banded_dual_directions_match_sparse_solve(case, monkeypatch):
    # Each step of either face dual solves (K K^T + diag(c)) x = -grad on its
    # free unknowns, c the conjugate curvature (delta / (lam w) in the box
    # dual, 0 for raw total variation), plus the ridge 1e-13 (1 + max diag);
    # an unknown pinned on the box gets a zero step.  K K^T is singular on the
    # cycles of the edge graph (the null space of K^T).  Where c is small
    # against the Gram diagonal (y near 0 in the smooth dual, where the
    # conjugate curvature is floored at 1e-11; the raw box dual, with the
    # ridge alone) the step's part in that null space is rounding amplified
    # by 1/c in any solver, so only the primal change K^T x, all that
    # v = f - K^T y sees, is compared everywhere; the whole step is compared
    # where min c >= 1e-4 max diag(K K^T).
    pot, lam, box = DUAL_DIRECTION_CASES[case](), 0.1, case.startswith("box")
    seen = _record_directions(monkeypatch)
    pot.prox_batch(lam, np.random.default_rng(3).standard_normal((3, pot.grid.num_cells)), tol=1e-9)
    gram = (pot.K @ pot.K.T).tocsc()
    edge = lam * pot.edge_w * (1 - 1e-14) if box else np.inf
    pinned_seen, whole = 0, 0
    assert seen
    for state, grad, step in seen:
        for r in range(grad.shape[0]):
            Y, c = state[0][r], state[4][r]
            free = ~(((Y >= edge) & (grad[r] <= 0)) | ((Y <= -edge) & (grad[r] >= 0)))
            A = gram[free][:, free] + sp.diags(c[free])
            A = A + 1e-13 * (1.0 + A.diagonal().max()) * sp.eye(A.shape[0])
            pinned_seen += np.count_nonzero(~free)
            want = np.zeros(grad.shape[1])
            want[free] = spla.spsolve(A.tocsc(), -grad[r, free])
            assert np.all(step[r, ~free] == 0.0)
            if c.min() >= 1e-4 * gram.diagonal().max():
                assert np.linalg.norm(step[r] - want) <= 1e-12 * np.linalg.norm(want)
                whole += 1
            primal = pot.K.T @ want
            assert np.linalg.norm(pot.K.T @ step[r] - primal) <= 1e-12 * np.linalg.norm(primal)
    assert (pinned_seen > 0) == box
    assert (whole > 0) != case.endswith("_raw")


@pytest.mark.parametrize("pot,half_bandwidth", [
    (potentials.p_dirichlet(GRID_8X8, 1.0), 15),
    (potentials.p_dirichlet(grids.Grid((1.0, 1.0), (10, 20)), 1.0), 39),
    (potentials.p_dirichlet(grids.Grid((1.0, 1.0), (20, 10)), 1.0), 19),
    (potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.0), 49),
], ids=["8x8", "10x20", "20x10", "bump"])
def test_edges_ordered_by_lower_cell_give_a_narrow_gram_band(pot, half_bandwidth):
    # 2D grids: twice the fast-axis (last-axis) cell count, less one
    G = (pot.K @ pot.K.T).tocoo()
    assert np.max(G.row - G.col) == half_bandwidth
    potentials._dual_start(pot, np.zeros((1, pot.grid.num_cells)), 1e-9)
    assert pot._gram_band.shape == (pot.K.shape[0], half_bandwidth + 1)
    low = G.row >= G.col
    assert np.array_equal(pot._gram_band[G.col[low], (G.row - G.col)[low]], G.data[low])


def test_hessian_band_needs_two_cells_per_edge():
    # Dirichlet boundary faces touch one cell, so their rows cannot be paired
    g = GRID_8X8
    K = face_difference_matrix(g, DIRICHLET)
    ones = np.ones(K.shape[0])
    pot = potentials._DifferencePenaltyPotential(g, K, ones, 0 * ones, PowerProfile(2.0), "dirichlet", False)
    with pytest.raises(ValueError, match="exactly two cells"):
        potentials._hessian_band(pot, ones[None, :])


def _chunk_budget(n, kd, rows):
    """A ``_linalg._CHUNK_BYTES`` that puts ``rows`` systems of n cells and
    bandwidth kd in each ``pbsv`` call."""
    return rows * 8 * (n + kd + (-n - kd) % 32) * (kd + 1)


def _recorded_solves(run):
    """The ``(fill, kd, b)`` of every banded solve that ``run()`` makes."""
    seen = []

    def recording(fill, kd, b):
        seen.append((fill, kd, b))
        return _linalg.solve_banded_spd(fill, kd, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potentials, "solve_banded_spd", recording)
        run()
    return seen


def _band_case(case):
    """Seven banded Newton systems of one potential: ``(fill, kd, b, oracle)``,
    ``fill`` the solver's per-chunk band writer and ``oracle`` the whole
    batch's band built at once (None for the box dual).  The curvatures hold
    exact zeros; the box dual's step has unknowns pinned on the bound."""
    gen = np.random.default_rng(24)
    if case == "box_dual_8x8":
        F = 5.0 * gen.standard_normal((7, 64))
        steps = _recorded_solves(lambda: potentials.p_dirichlet(GRID_8X8, 1.0).prox_batch(0.1, F, tol=1e-9))
        fill, kd, b = [step for step in steps if len(step[2]) == 7 and np.any(step[2] == 0.0)][-1]
        return fill, kd, b, None
    if case == "fastdiff_16x16":
        pot = potentials.fast_diffusion(grids.box_grid((16, 16)), 0.5, delta=0.05)
        c = gen.uniform(-0.5, 2.0, (7, 256)).clip(0.0)
        (fill, kd, b), = _recorded_solves(lambda: pot._newton_solve(c, gen.standard_normal((7, 256))))
        return fill, kd, b, sls_band(pot._L, c)
    if case == "gradient_16x16_weighted_visc":
        g = grids.box_grid((16, 16))
        pot = potentials.p_dirichlet(g, 1.5, weight=gen.uniform(0.5, 2.0, g.shape), delta=0.05, visc=0.1)
    else:
        pot = potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.5, delta=0.05)
    c = gen.uniform(-0.5, 2.0, (7, pot.K.shape[0])).clip(0.0)
    return *potentials._hessian_band(pot, c), gen.standard_normal((7, pot.grid.num_cells)), hessian_band(pot.K, c)


BAND_CASES = ["gradient_16x16_weighted_visc", "nonlocal_bump", "fastdiff_16x16"]


@pytest.mark.parametrize("case", BAND_CASES + ["box_dual_8x8"])
def test_banded_newton_solutions_do_not_depend_on_the_chunking(case, monkeypatch):
    fill, kd, b, _ = _band_case(case)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].shape[0])
        return pbsv(*args, **kwargs)

    pbsv = _linalg._PBSV
    monkeypatch.setattr(_linalg, "_PBSV", counting)
    monkeypatch.setattr(_linalg, "_CHUNK_BYTES", _chunk_budget(b.shape[1], kd, 7))
    whole = _linalg.solve_banded_spd(fill, kd, b)
    monkeypatch.setattr(_linalg, "_CHUNK_BYTES", _chunk_budget(b.shape[1], kd, 3))
    split = _linalg.solve_banded_spd(fill, kd, b)
    stride = calls[0] // 7
    assert calls == [7 * stride, 3 * stride, 3 * stride, stride]
    assert split.tobytes() == whole.tobytes()


@pytest.mark.parametrize("case", BAND_CASES)
def test_chunk_bands_equal_the_whole_batch_band(case):
    # each chunk writes into a strided view, as into the padded LAPACK buffer
    fill, kd, b, oracle = _band_case(case)
    n = b.shape[1]
    buf = np.zeros((7, n + 5, kd + 1))
    for lo, hi in ((0, 3), (3, 6), (6, 7)):
        fill(buf[lo:hi, :n], slice(lo, hi))
    assert buf[:, :n].tobytes() == oracle.tobytes()
    assert not buf[:, n:].any()


@pytest.mark.parametrize("make,limit_mb", [
    (lambda g: potentials.p_dirichlet(g, 1.5, delta=1e-2), 24),
    (lambda g: potentials.fast_diffusion(g, 0.5, delta=1e-2), 16),
], ids=["p_dirichlet", "fast_diffusion"])
def test_banded_newton_memory_stays_bounded(make, limit_mb):
    # 64 rows on 32x32: one band for the whole batch would take 17.8 MB alone
    g = grids.box_grid((32, 32))
    pot = make(g)
    bump = np.ones(g.shape)
    for a, x in enumerate(g.centers()):
        bump = bump * np.sin(np.pi * x / g.extents[a])
    gen = np.random.default_rng(64)
    X = gen.uniform(0.5, 1.5, (64, 1)) * bump.reshape(1, -1)
    F = X + 0.05 * gen.standard_normal(X.shape)
    pot.prox_batch(1e-3, F[:1], warm=X[:1])  # builds the cached operators before tracing
    tracemalloc.start()
    try:
        pot.prox_batch(1e-3, F, warm=X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6


# the non-chain families, built once each: primal Newton for the Yosida 2D
# gradient (also with viscosity), the nonlocal and the fast-diffusion
# potentials, the smooth face dual for the raw 2D gradient and for total
# variation plus viscosity, the box dual for raw total variation in 2D and
# on the nonlocal stencil
NON_CHAIN_FAMILIES = {
    "p15_2d_raw": potentials.p_dirichlet(GRID_8X8, 1.5),
    "tv_2d_raw": potentials.p_dirichlet(GRID_8X8, 1.0),
    "nonlocal_p1_raw": potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.0),
    "p15_2d_delta": potentials.p_dirichlet(GRID_8X8, 1.5, delta=0.05),
    "nonlocal_p15_delta": potentials.nonlocal_p(interval_grid(32), BUMP_1D, 0.25, 1.5, delta=0.05),
    "fastdiff_2d": potentials.fast_diffusion(GRID_8X8, 0.5, delta=0.05),
    "tv_2d_visc": potentials.p_dirichlet(GRID_8X8, 1.0, visc=0.1),
    "p15_2d_delta_visc": potentials.p_dirichlet(GRID_8X8, 1.5, delta=0.05, visc=0.1),
}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(NON_CHAIN_FAMILIES)), lam=st.sampled_from([0.02, 0.1, 0.5]),
       scale=st.sampled_from([0.1, 1.0, 5.0]), seed=st.integers(0, 2**32 - 1))
def test_non_chain_prox_is_certified_and_firmly_nonexpansive(family, lam, scale, seed):
    # The solvers stop on targets relative to 1 + ||f||_H: the primal Newton
    # on 0.25 tol (1 + ||f||), both face duals on a squared scale (the open
    # sqrt(tol) defect of their gap target, pinned below).  Firm
    # non-expansiveness in the potential's own geometry:
    # ||z1 - z2||_H^2 <= (z1 - z2, f1 - f2)_H.
    pot = NON_CHAIN_FAMILIES[family]
    g, gen, tol = pot.grid, np.random.default_rng(seed), 1e-9
    f1, f2 = (GridFunction(g, scale * gen.standard_normal(g.shape), pot.space) for _ in range(2))
    r1, r2 = certified_prox(pot, lam, f1, tol=tol), certified_prox(pot, lam, f2, tol=tol)
    power = 2 if family in ("p15_2d_raw", "tv_2d_raw", "nonlocal_p1_raw", "tv_2d_visc") else 1
    for f, r in ((f1, r1), (f2, r2)):
        assert r.kkt_residual <= tol * (1.0 + norm(f)) ** power
    dz = r1.minimizer - r2.minimizer
    assert inner(dz, dz) <= inner(dz, f1 - f2) + 1e-9


@pytest.mark.xfail(strict=True, reason="the smooth dual stops on gap <= 0.25 tol (1 + ||f||)^2, "
                   "so its certificate is only sqrt(tol)-accurate at the primal scale")
def test_smooth_dual_certificate_meets_the_primal_scale():
    # the dual stops after 4 iterations with a certificate about 4 times
    # tol (1 + ||f||)
    pot = NON_CHAIN_FAMILIES["p15_2d_raw"]
    f = GridFunction(GRID_8X8, 20.0 * np.random.default_rng(6).standard_normal((8, 8)))
    assert certified_prox(pot, 1.0, f, tol=1e-7).kkt_residual <= 1e-7 * (1.0 + norm(f))


@pytest.mark.parametrize("probe", [
    "piecewise1",
    pytest.param("piecewise0", marks=pytest.mark.xfail(
        strict=True, raises=potentials.ProxDidNotConverge,
        reason="the box dual's active set cycles on this probe: the gap sits at 8.3e-9 at the "
        "500-iteration cap")),
])
def test_box_dual_converges_on_a_32x32_piecewise_probe(probe):
    # piecewise1 cycled while the box dual accepted plain non-increase;
    # Armijo steps settle it
    g = grids.box_grid((32, 32))
    f = dict(mosco.default_probes(g))[probe]
    potentials.p_dirichlet(g, 1.0).prox_batch(0.1, f.flat[None, :], tol=1e-9)


# one case per Newton branch of the damped-Newton driver: the solver that
# prox_batch must reach and a factory for a potential on a given grid
NEWTON_BRANCHES = {
    "newton": (potentials, "_newton_difference", lambda g: potentials.p_dirichlet(g, 1.5, delta=0.05)),
    "dual_smooth": (potentials, "_dual_newton_smooth", lambda g: potentials.p_dirichlet(g, 1.5)),
    "dual_box": (potentials, "_dual_projected_newton", lambda g: potentials.p_dirichlet(g, 1.0)),
    "fd_newton": (potentials.FastDiffusionPotential, "_prox_newton",
                  lambda g: potentials.fast_diffusion(g, 0.5, delta=0.05)),
}


@pytest.mark.parametrize("grid", [interval_grid(24), GRID_8X8], ids=["chain", "8x8"])
@pytest.mark.parametrize("branch", sorted(NEWTON_BRANCHES))
def test_prox_batch_rows_equal_rows_solved_alone(branch, grid, monkeypatch):
    # rows settle at different iterations and only the live ones are
    # evaluated and solved; each row's arithmetic is its own, so every row of
    # a batch is byte-identical to that row solved alone
    owner, name, make = NEWTON_BRANCHES[branch]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{branch} case left its branch")

    FD = potentials.FastDiffusionPotential
    for other_owner, other in [(potentials, "_newton_difference"), (potentials, "_dual_newton_smooth"),
                               (potentials, "_dual_projected_newton"), (FD, "_prox_newton"),
                               (FD, "_prox_fista")]:
        if other != name:
            monkeypatch.setattr(other_owner, other, refuse)
    pot = make(grid)
    gen = np.random.default_rng(21)
    F = np.array([0.05, 1.0, 4.0, 0.3])[:, None] * gen.standard_normal((4, grid.num_cells))
    Z, _, iters = pot.prox_batch(0.1, F, tol=1e-9)
    alone = [pot.prox_batch(0.1, F[r : r + 1], tol=1e-9) for r in range(4)]
    assert len({it for _, _, it in alone}) > 1 and iters == max(it for _, _, it in alone)
    for r, (Zr, _, _) in enumerate(alone):
        assert Z[r].tobytes() == Zr[0].tobytes(), r


def test_traced_solver_entry_points_keep_names_results_and_nesting(monkeypatch):
    # perfbench/tracer.py wraps these by name and silently skips a missing one
    FD = potentials.FastDiffusionPotential
    for owner, name in [(potentials, "_newton_difference"), (potentials, "_dual_newton_smooth"),
                        (potentials, "_dual_projected_newton"), (FD, "_prox_newton"),
                        (FD, "_prox_fista"), (profiles.EdgeConjugate, "_radius")]:
        assert callable(getattr(owner, name, None)), name
    g = interval_grid(12)
    F = np.random.default_rng(3).standard_normal((2, 12))
    results = [
        potentials._newton_difference(potentials.p_dirichlet(g, 1.5, delta=0.05), 0.1, F, 1e-9, None),
        potentials._dual_newton_smooth(potentials.p_dirichlet(g, 1.5), 0.1, F, 1e-9),
        potentials._dual_projected_newton(potentials.p_dirichlet(g, 1.0), 0.1, F, 1e-9),
        potentials.fast_diffusion(g, 0.5, delta=0.05)._prox_newton(0.1, F, 1e-9, None),
        potentials.fast_diffusion(g, 0.0)._prox_fista(0.1, F, 1e-9, None),
    ]
    for Z, resid, iters in results:
        assert Z.shape == F.shape
        assert isinstance(resid, float) and resid <= 1e-9
        assert isinstance(iters, int) and iters >= 1
    # FISTA on a Yosida profile: the radial prox is the closed-form envelope prox
    Z, resid, iters = potentials.fast_diffusion(g, 0.5, delta=0.05)._prox_fista(0.1, F, 1e-9, None)
    assert Z.shape == F.shape and resid <= 1e-9 and iters == 50

    # the tracer counts tridiagonal solves through the alias the chain paths call
    assert potentials.solve_tridiagonal is _linalg.solve_tridiagonal
    solves = []

    def counting(*args):
        solves.append(args[3].shape)
        return _linalg.solve_tridiagonal(*args)

    monkeypatch.setattr(potentials, "solve_tridiagonal", counting)
    _, _, iters = potentials._newton_difference(potentials.p_dirichlet(g, 1.5, delta=0.05), 0.1, F[:1],
                                                1e-9, None)
    # one solve per Newton step; the last iteration only finds the row converged
    assert iters > 2 and solves == [(1, 12)] * (iters - 1)
    # a row that settles drops out of the solves while the other goes on
    solves.clear()
    _, _, iters = potentials._newton_difference(potentials.p_dirichlet(g, 1.5, delta=0.05), 0.1, F,
                                                1e-9, None)
    both = solves.count((2, 12))
    assert 1 <= both < iters - 1 and solves == [(2, 12)] * both + [(1, 12)] * (iters - 1 - both)

    # the tracer counts a fallback when prox_batch catches the primal Newton's
    # failure, and when _prox_newton itself hands over to _prox_fista
    def stall(*args, **kwargs):
        raise potentials.ProxDidNotConverge("stalled", 1.0)

    monkeypatch.setattr(potentials, "_newton_difference", stall)
    _, resid, _ = potentials.p_dirichlet(g, 1.5, delta=0.05).prox_batch(0.1, F, tol=1e-9)
    assert resid <= 1e-9
    monkeypatch.setattr(FD, "_prox_fista", lambda self, lam, F, tol, warm: ("fista", warm))
    monkeypatch.setattr(potentials, "FD_NEWTON_CAP", 1)
    out = potentials.fast_diffusion(g, 0.5, delta=0.05)._prox_newton(0.1, F, 1e-9, None)
    assert out[0] == "fista" and out[1].shape == F.shape


# ---------------------------------------------------------------------------
# 1D chains: stencil K and K^T, trajectories, routing
# ---------------------------------------------------------------------------


def _signed_magnitudes(gen, shape):
    """Values of either sign with magnitudes 1e-8 .. 1e3, some signed zeros and
    some entries equal to their left neighbour (exact zero differences)."""
    x = gen.choice([-1.0, 1.0], shape) * 10.0 ** gen.uniform(-8.0, 3.0, shape)
    x[gen.random(shape) < 0.1] *= 0.0
    same = gen.random(shape) < 0.1
    same[:, 0] = False
    x[same] = np.roll(x, 1, axis=1)[same]
    return x


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 17, 64]), m=st.sampled_from([1, 5, 64]), seed=st.integers(0, 2**32 - 1))
def test_chain_stencils_bit_identical_to_sparse_products(n, m, seed):
    pot = potentials.p_dirichlet(interval_grid(n), 1.5)
    gen = np.random.default_rng(seed)
    V = _signed_magnitudes(gen, (m, n))
    Y = _signed_magnitudes(gen, (m, n - 1))
    for got, want in [(pot._grad(V), (pot.K @ V.T).T), (pot._div(Y), (pot.K.T @ Y.T).T)]:
        assert got.tobytes() == want.tobytes()
        # same memory layout, so later row sums and matvecs add in the same order
        assert got.shape == want.shape and got.strides == want.strides


# iteration counts of the certified chain solvers on the mosco_table probes
# (64 cells, p = 1.5, lam = 1, tol 1e-9); the last raises in the primal Newton
# and prox_batch falls back to the smooth dual
CHAIN_TRAJECTORIES = [(0.1, "trig0", 39, 39), (0.025, "piecewise3", 352, 352), (0.05, "gauss0", None, 3)]


@pytest.mark.parametrize("delta,probe,newton_iters,prox_iters", CHAIN_TRAJECTORIES)
def test_chain_newton_trajectories_on_mosco_probes(delta, probe, newton_iters, prox_iters):
    g = interval_grid(64)
    F = dict(mosco.default_probes(g))[probe].flat[None, :]
    pot = potentials.p_dirichlet(g, 1.5, delta=delta)
    args = (pot, 1.0, F, 1e-9, None)
    if newton_iters is None:
        with pytest.raises(potentials.ProxDidNotConverge):
            potentials._newton_difference(*args)
    else:
        assert potentials._newton_difference(*args)[2] == newton_iters
    _, resid, iters = pot.prox_batch(1.0, F, tol=1e-9)
    assert resid <= 1e-9 and iters == prox_iters


# float.hex of each chain branch's minimizers and iteration counts on four
# fixed 64-cell rows (tol 1e-9), solved alone and as one 4-row batch: the
# Newton hot loop may change how it dispatches, never what it computes.  The
# newton minimizers were re-recorded when the Yosida maps moved to one power
# per point (<= 4.2e-14 relative, the same iteration counts)
CHAIN_PINS = json.loads((Path(__file__).parent / "chain_pins.json").read_text())
CHAIN_PIN_SOLVERS = {
    "newton": lambda g, lam, F: potentials._newton_difference(
        potentials.p_dirichlet(g, 1.5, delta=0.025), lam, F, 1e-9, None),
    "dual_smooth": lambda g, lam, F: potentials._dual_newton_smooth(potentials.p_dirichlet(g, 1.5), lam, F, 1e-9),
    "dual_box": lambda g, lam, F: potentials._dual_projected_newton(potentials.p_dirichlet(g, 1.0), lam, F, 1e-9),
}


@pytest.mark.parametrize("branch", sorted(CHAIN_PIN_SOLVERS))
def test_chain_branches_match_their_float_hex_pins(branch):
    pins = CHAIN_PINS[branch]
    x = (np.arange(64) + 0.5) / 64  # rows from IEEE + - * only (no libm): a bump, a step, a cubic, a kink
    F = np.array([4 * x * (1 - x) - 0.5, np.where(x < 0.5, 0.75, -0.5), 2 * x * x * x - x, np.abs(x - 0.3) - 0.2])

    def solve(rows):
        Z, _, iters = CHAIN_PIN_SOLVERS[branch](interval_grid(64), pins["lam"], rows)
        return [[float.hex(v) for v in z] for z in Z.tolist()], iters

    for k in range(4):
        assert solve(F[k : k + 1]) == ([pins["minimizers"][k]], pins["iters"][k]), k
    assert solve(F) == (pins["minimizers"], pins["batch_iters"])


@pytest.mark.parametrize("lam", [0.05, 0.5])
def test_kinked_viscous_profile_takes_smooth_dual(lam, monkeypatch):
    # |s| plus the face term (visc/2) s^2 has an unbounded slope, so its face
    # dual is smooth; the box dual of raw total variation would drop the quadratic
    def box_dual(*args, **kwargs):
        raise AssertionError("kink + viscosity reached the box dual")

    monkeypatch.setattr(potentials, "_dual_projected_newton", box_dual)
    g = interval_grid(48)
    pot = potentials.p_dirichlet(g, 1.0, visc=0.1)
    f = GridFunction(g, np.random.default_rng(11).standard_normal(48))
    assert certified_prox(pot, lam, f, tol=1e-9).kkt_residual <= 1e-8


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
    z = GridFunction(g, pot.prox(0.1, f).values + 0.1 * gen.standard_normal(g.shape), pot.space)
    ez = pot.eval(z)
    probes = [z.flat + d for d in probe_directions(g, pot.space)]
    expected = 0.0
    for vals in probes + [f.flat, np.zeros(g.num_cells)]:
        v = GridFunction(g, vals.reshape(g.shape), pot.space)
        expected = max(expected, inner(f - z, v - z) - 0.1 * (pot.eval(v) - ez))
    assert expected > 0.0
    assert probe_violation(pot, 0.1, f, z) == pytest.approx(expected, rel=1e-12, abs=1e-14)


# float.hex of ``certified_prox``'s certificate, iteration count and minimizer
# on one case per solver branch (tol 1e-9), recorded while ``prox`` still built
# the certificate eagerly; the oracle computes it with the same arithmetic,
# so it must give the same bits.  The fast
# diffusion kkt_residual was re-recorded when the H^-1 Newton began taking
# its residual norm from the merit's own Dirichlet solve (0x1.ae2e1c755b524p-48
# before, 1% apart at that rounding-level size; same minimizer and iterations).
# Five cases were re-recorded when tests/conftest.py put OpenBLAS on its
# Haswell kernels: objective values by 1 ulp, ten gradient_8x8 minimizer
# entries by <= 2.1e-16 relative, and the rounding-level kkt_residual of
# gradient_8x8 and fast_diffusion_1d by <= 1e-4 relative; same iterations
PROX_PINS = json.loads((Path(__file__).parent / "prox_pins.json").read_text())
PROX_PIN_CASES = {
    "yosida_primal_trig0": (lambda: potentials.p_dirichlet(interval_grid(64), 1.5, delta=0.025), "trig0", 1.0),
    # the primal Newton stalls on this probe and prox_batch falls back to the smooth dual
    "yosida_fallback_gauss0": (lambda: potentials.p_dirichlet(interval_grid(64), 1.5, delta=0.025), "gauss0", 1.0),
    "smooth_dual_p1.5": (lambda: potentials.p_dirichlet(interval_grid(64), 1.5), "trig3", 1.0),
    "box_dual_tv": (lambda: potentials.p_dirichlet(interval_grid(64), 1.0), "piecewise0", 0.1),
    "gradient_8x8": (lambda: potentials.p_dirichlet(GRID_8X8, 1.5, delta=0.05), "gauss0", 0.5),
    "fast_diffusion_1d": (lambda: potentials.fast_diffusion(interval_grid(32), 0.5, delta=0.05), "trig0", 0.1),
}


def prox_pin_record(case):
    make, probe, lam = PROX_PIN_CASES[case]
    pot = make()
    res = certified_prox(pot, lam, dict(mosco.default_probes(pot.grid, pot.space))[probe], tol=1e-9)
    return {
        "kkt_residual": float.hex(res.kkt_residual),
        "objective_value": float.hex(res.objective_value),
        "iterations": res.iterations,
        "minimizer": [float.hex(v) for v in res.minimizer.flat.tolist()],
    }


@pytest.mark.parametrize("case", sorted(PROX_PIN_CASES))
def test_prox_certificates_match_their_float_hex_pins(case):
    assert prox_pin_record(case) == PROX_PINS[case]


def test_prox_returns_its_minimizer_without_a_certificate(monkeypatch):
    # the certificate lives in the tests: prox evaluates no probe panel and no objective
    def refuse(self, U):
        raise AssertionError("prox evaluated the potential")

    monkeypatch.setattr(potentials._DifferencePenaltyPotential, "eval_batch", refuse)
    g = interval_grid(24)
    pot, f = potentials.p_dirichlet(g, 1.5, delta=0.05), random_l2(g)
    z = pot.prox(0.5, f, tol=1e-9)
    assert isinstance(z, GridFunction) and z.grid == g and z.space == L2
    assert z.flat.tobytes() == pot.prox_batch(0.5, f.flat[None, :], tol=1e-9)[0][0].tobytes()
