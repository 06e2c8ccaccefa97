import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import c_jp_direct, c_jp_radial, kernel_mass, sphere_moment

from spdelab import kernels, potentials
from spdelab.engine import AdditiveNoise, SchemeParams, simulate
from spdelab.grids import GridFunction, Grid, inner, interval_grid, norm
from spdelab.kernels import Kernel, RescaledKernel

rng = np.random.default_rng(55)


@pytest.mark.parametrize("profile", kernels.PROFILE_NAMES)
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_unit_mass(profile, dim):
    k = Kernel(profile, dim)
    assert kernel_mass(k) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("profile", kernels.PROFILE_NAMES)
def test_kernel_radially_nonincreasing_and_positive_at_zero(profile):
    k = Kernel(profile, 1)
    r = np.linspace(0, 1.2, 200)
    vals = k.radial(r)
    assert vals[0] > 0
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals[r > 1.0] == 0.0)


def test_k_pd_values():
    for p in (1.0, 1.37, 2.0):
        assert kernels.k_pd(p, 1) == 2.0
    assert kernels.k_pd(1.0, 2) == pytest.approx(4.0, abs=1e-10)
    assert kernels.k_pd(2.0, 2) == pytest.approx(np.pi, abs=1e-10)


@pytest.mark.parametrize("p", [1.0, 1.1, 1.25, 4 / 3, 1.37, 1.5, 1.7, 1.9, 2.0])
def test_k_pd_circle_matches_quadrature(p):
    assert kernels.k_pd(p, 2) == pytest.approx(sphere_moment(p, 2), rel=1e-13, abs=0.0)


def test_k_pd_invalid_dimension():
    with pytest.raises(ValueError):
        kernels.k_pd(1.5, 3)


def test_c_jp_ball_closed_forms():
    ball = Kernel("ball", 1)
    assert kernels.c_jp(ball, 1.0) == pytest.approx(4.0, abs=1e-10)
    assert kernels.c_jp(ball, 2.0) == pytest.approx(6.0, abs=1e-10)


@pytest.mark.parametrize("profile", kernels.PROFILE_NAMES)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_c_jp_radial_vs_direct_quadrature(profile, p, dim):
    k = Kernel(profile, dim)
    assert kernels.c_jp(k, p) == pytest.approx(c_jp_direct(k, p), rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    profile=st.sampled_from(kernels.PROFILE_NAMES),
    dim=st.sampled_from([1, 2]),
    p=st.floats(1.0, 2.0),
    radius=st.floats(0.25, 3.0),
)
def test_c_jp_closed_form_matches_radial_quadrature(profile, dim, p, radius):
    k = Kernel(profile, dim, support_radius=radius)
    assert kernels.c_jp(k, p) == pytest.approx(c_jp_radial(k, p), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("profile", kernels.PROFILE_NAMES)
def test_c_jp_dilation_scaling(profile):
    # mass-preserving dilation multiplies the inverse constant by R^p
    p = 1.5
    base = Kernel(profile, 1, support_radius=1.0)
    dilated = Kernel(profile, 1, support_radius=2.0)
    inv_base = 1.0 / kernels.c_jp(base, p)
    inv_dilated = 1.0 / kernels.c_jp(dilated, p)
    assert inv_dilated == pytest.approx(2.0**p * inv_base, rel=1e-9)


def test_nonlocal_energy_constant_is_zero():
    g = interval_grid(40)
    rk = RescaledKernel(Kernel("tent", 1), 0.2, 1.5)
    assert potentials.NonlocalPotential(g, rk).eval(GridFunction(g, np.full(40, 3.3))) == 0.0


def test_nonlocal_energy_matches_double_sum_oracle():
    g = interval_grid(24)
    eps, p = 0.3, 1.5
    kern = Kernel("bump", 1)
    rk = RescaledKernel(kern, eps, p)
    u = rng.standard_normal(24)
    x = g.axis_centers(0)
    vol = g.cell_volume
    total = 0.0
    for i in range(24):
        for j in range(24):
            if i == j:
                continue
            total += (
                kern.radial(abs(x[i] - x[j]) / eps)
                * abs((u[j] - u[i])) ** p
            )
    oracle = rk.c_jp / (2 * p * eps ** (1 + p)) * total * vol**2
    assert potentials.NonlocalPotential(g, rk).eval(GridFunction(g, u)) == pytest.approx(oracle, rel=1e-12)


def test_nonlocal_energy_ramp_approaches_local_limit():
    g = interval_grid(512)
    u = GridFunction(g, g.axis_centers(0))
    vals = []
    for eps in (0.2, 0.1, 0.05):
        rk = RescaledKernel(Kernel("ball", 1), eps, 2.0)
        vals.append(potentials.NonlocalPotential(g, rk).eval(u))
    gaps = [abs(v - 0.5) for v in vals]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.1 * 0.5


# The nonlocal drift A(u) is minus the energy gradient,
# -NonlocalPotential.yosida_gradient_batch: Yosida-regularized slopes for
# delta > 0, raw power slopes for delta = None.


def nonlocal_drift(g, profile, eps, p, delta, U):
    pot = potentials.nonlocal_p(g, Kernel(profile, g.dim), eps, p, delta=delta)
    return -pot.yosida_gradient_batch(np.atleast_2d(U))


def test_nonlocal_apply_zero_on_constants_and_conserves_mass():
    g = interval_grid(30)
    assert np.abs(nonlocal_drift(g, "tent", 0.25, 1.5, 0.01, np.full(30, -1.1))).max() == 0.0
    out = nonlocal_drift(g, "tent", 0.25, 1.5, 0.01, rng.standard_normal(30))
    assert abs(g.cell_volume * out.sum()) < 1e-10


def test_nonlocal_apply_monotone_and_coercive():
    g = interval_grid(30)
    for _ in range(20):
        U = rng.standard_normal((2, 30))
        Au, Av = nonlocal_drift(g, "bump", 0.25, 1.3, 0.02, U)
        assert g.cell_volume * (Au - Av) @ (U[0] - U[1]) <= 1e-12
        assert g.cell_volume * Au @ U[0] <= 1e-12


def test_nonlocal_apply_growth_bound():
    g = interval_grid(30)
    rk = RescaledKernel(Kernel("tent", 1), 0.25, 1.5)
    P, w = kernels.pair_stencil(rk, g)
    row_mass = np.abs(P).T @ w
    C = (row_mass.max() / g.cell_volume) * (np.sqrt(g.extents[0]) + 2.0)
    for scale in (0.1, 1.0, 10.0):
        u = GridFunction(g, scale * rng.standard_normal(30))
        out = GridFunction(g, nonlocal_drift(g, "tent", 0.25, 1.5, 0.02, u.flat)[0])
        assert norm(out) <= C * (1.0 + norm(u))


def test_nonlocal_apply_two_cell_exchange_closed_form():
    g = interval_grid(2)
    eps = 1.5  # resolved: both cells interact
    kern = Kernel("ball", 1)
    rk = RescaledKernel(kern, eps, 2.0)
    u = np.array([1.0, 0.0])
    out = nonlocal_drift(g, "ball", eps, 2.0, None, u)[0]
    h = g.spacing[0]
    w = rk.c_jp / eps**3 * kern.radial(h / eps) * g.cell_volume**2
    expected = w * (u[1] - u[0]) / g.cell_volume
    assert out[0] == pytest.approx(expected, rel=1e-12)
    assert out[1] == pytest.approx(-expected, rel=1e-12)


def test_nonlocal_apply_matches_energy_gradient():
    g = interval_grid(20)
    delta = 0.02
    pot = potentials.nonlocal_p(g, Kernel("bump", 1), 0.3, 1.5, delta=delta)
    u = GridFunction(g, rng.standard_normal(20))
    drift = -GridFunction(g, pot.yosida_gradient_batch(u.flat[None, :])[0])
    hdir = GridFunction(g, rng.standard_normal(20))
    h = 1e-6
    fd = (pot.eval(u + h * hdir) - pot.eval(u - h * hdir)) / (2 * h)
    assert inner(drift, hdir) == pytest.approx(-fd, rel=1e-5, abs=1e-8)


def test_p1_requires_regularization():
    # simulate refuses the explicit Yosida drift on the raw p = 1 energy
    g = interval_grid(20)
    pot = potentials.nonlocal_p(g, Kernel("tent", 1), 0.25, 1.0)
    sp_explicit = SchemeParams(dt=1e-3, steps=1, delta=1e-2, drift="explicit_yosida")
    noise = AdditiveNoise([GridFunction(g, np.ones(20))])
    with pytest.raises(ValueError, match="does not match the potential's regularization None"):
        simulate(GridFunction(g, rng.standard_normal(20)), pot, noise, sp_explicit, 1, seed=0)


def test_under_resolved_kernel_warns():
    g = interval_grid(8)
    rk = RescaledKernel(Kernel("tent", 1), 0.1, 1.5)  # eps below 2h = 0.25
    with pytest.warns(UserWarning):
        potentials.NonlocalPotential(g, rk).eval(GridFunction(g, np.zeros(8)))


def test_energy_comparability_with_local_energy():
    # interaction energy of interior-supported smooth fields stays below the
    # sphere-moment multiple of the local gradient energy
    g = interval_grid(256)
    x = g.axis_centers(0)
    bump = np.sin(np.pi * np.clip((x - 0.2) / 0.6, 0.0, 1.0)) ** 2
    for p in (1.0, 1.5, 2.0):
        local = potentials.p_dirichlet(g, p)
        C = 1 * 2.0 / kernels.k_pd(p, 1)  # d*sigma_d / K_{p,d} in 1D
        for eps in (0.1, 0.05):
            rk = RescaledKernel(Kernel("bump", 1), eps, p)
            u = GridFunction(g, bump)
            ratio = potentials.NonlocalPotential(g, rk).eval(u) / local.eval(u)
            assert ratio <= C * 1.05


def test_nonlocal_2d_smoke():
    g = Grid((1.0, 1.0), (12, 12))
    rk = RescaledKernel(Kernel("tent", 2), 0.25, 1.5)
    u = GridFunction(g, rng.standard_normal((12, 12)))
    e = potentials.NonlocalPotential(g, rk).eval(u)
    assert e > 0
    out = nonlocal_drift(g, "tent", 0.25, 1.5, 0.05, u.flat)
    assert abs(g.cell_volume * out.sum()) < 1e-10
