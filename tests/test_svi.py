import numpy as np
import pytest

from oracles import neumann_laplacian_dense, ou_second_moment
from spdelab import engine, potentials, svi
from spdelab.engine import AdditiveNoise, SchemeParams, simulate
from spdelab.grids import GridFunction, interval_grid, space_norm_sq

rng = np.random.default_rng(606)


def setup_run(n=48, steps=60, paths=60, amp=0.15, p=1.5, delta=1e-2, seed=17):
    g = interval_grid(n)
    x = g.axis_centers(0)
    pot = potentials.p_dirichlet(g, p, delta=delta) if delta else potentials.p_dirichlet(g, p)
    model = AdditiveNoise(
        [
            GridFunction(g, amp * np.sin(np.pi * x)),
            GridFunction(g, amp * np.cos(2 * np.pi * x)),
        ]
    )
    sp = SchemeParams(dt=1e-3, steps=steps, delta=delta)
    x0 = GridFunction(g, np.sin(np.pi * x))
    ens = simulate(x0, pot, model, sp, paths, seed)
    return g, pot, model, ens, x0


def test_solution_decomposition_margin_is_zero():
    g, pot, model, ens, _ = setup_run()
    Z = svi.SolutionTestProcess(ens, model)
    rep = svi.check_variational(ens, Z, pot, model, svi.default_constant(model))
    assert np.abs(rep.margin).max() < 1e-12
    assert rep.passed


def test_zero_test_process_passes_and_relates_to_energy():
    g, pot, model, ens, _ = setup_run()
    C = svi.default_constant(model)
    Z0 = svi.TestProcess.constant(g, "L2", 0.0)
    rep = svi.check_variational(ens, Z0, pot, model, C)
    assert rep.passed
    energy_rep = svi.check_energy(ens, pot, C)
    assert energy_rep.passed
    assert energy_rep.smallest_constant <= C


def test_constant_and_drifted_test_processes_pass():
    g, pot, model, ens, x0 = setup_run()
    C = svi.default_constant(model)
    const = svi.TestProcess.from_function(GridFunction(g, np.full(48, 0.3)))
    rep_c = svi.check_variational(ens, const, pot, model, C)
    assert rep_c.passed
    G = np.tile(0.2 * x0.flat, (ens.n_steps, 1))
    drift = svi.TestProcess.from_function(GridFunction(g, np.full(48, 0.1)), G=G)
    rep_d = svi.check_variational(ens, drift, pot, model, C)
    assert rep_d.passed


def test_regularized_strong_solution_as_test_process():
    # a second regularized solution with different data is an admissible test
    # process carrying its own realized drift and F = B(Z)
    g, pot, model, ens, x0 = setup_run(paths=40)
    y0 = GridFunction(g, 0.5 * x0.values)
    ens_z = simulate(y0, pot, model,
                     SchemeParams(dt=ens.dt, steps=ens.n_steps, delta=pot.delta), 40, ens.seed)
    Z = svi.SolutionTestProcess(ens_z, model)
    rep = svi.check_variational(ens, Z, pot, model, svi.default_constant(model))
    assert np.all(rep.margin >= -3.0 * rep.se)


def test_audits_need_two_paths():
    g, pot, model, ens, _ = setup_run(n=16, steps=4, paths=1)
    with pytest.raises(ValueError, match="at least 2 paths"):
        svi.check_energy(ens, pot, 1.0)
    with pytest.raises(ValueError, match="at least 2 paths"):
        svi.check_variational(ens, svi.SolutionTestProcess(ens, model), pot, model, 1.0)


def test_foreign_noise_rejected():
    g, pot, model, ens, x0 = setup_run(paths=10)
    other = simulate(x0, pot, model,
                     SchemeParams(dt=ens.dt, steps=ens.n_steps, delta=pot.delta), 10, seed=999)
    Z = svi.SolutionTestProcess(other, model)
    with pytest.raises(ValueError):
        svi.check_variational(ens, Z, pot, model, 1.0)


def test_energy_check_monotone_in_constant():
    g, pot, model, ens, _ = setup_run(paths=30, steps=30)
    C0 = svi.default_constant(model)
    rep1 = svi.check_energy(ens, pot, C0)
    rep2 = svi.check_energy(ens, pot, 2 * C0)
    assert rep1.passed
    assert rep2.passed
    assert np.all(rep2.margin >= rep1.margin)


def test_energy_estimates_match_ou_oracle():
    g = interval_grid(24)
    x = g.axis_centers(0)
    pot = potentials.p_dirichlet(g, 2.0)
    model = AdditiveNoise([GridFunction(g, 0.2 * np.sin(np.pi * x))])
    sp = SchemeParams(dt=2e-3, steps=40)
    x0 = GridFunction(g, np.zeros(24))
    ens = simulate(x0, pot, model, sp, 500, seed=3)
    A = neumann_laplacian_dense(24, g.spacing[0])
    oracle = ou_second_moment(A, model._modes, np.zeros(24), sp.dt, sp.steps, g.cell_volume)
    est = np.mean(space_norm_sq(g, ens.states, ens.space), axis=0)
    per_path = g.cell_volume * np.sum(ens.states**2, axis=2)
    se = per_path.std(axis=0, ddof=1) / np.sqrt(500)
    assert np.all(np.abs(est - oracle) <= 3.5 * se + 1e-12)


def test_deterministic_energy_integral_bounded_by_initial_half_norm():
    # noise-free implicit gradient flow dissipates: int phi(X) dr <= ||x0||^2/2
    g = interval_grid(32)
    x = g.axis_centers(0)
    pot = potentials.p_dirichlet(g, 1.3, delta=1e-2)
    zero = AdditiveNoise([GridFunction(g, np.zeros(32))])
    sp = SchemeParams(dt=1e-3, steps=200, delta=1e-2)
    x0 = GridFunction(g, np.sin(2 * np.pi * x))
    ens = simulate(x0, pot, zero, sp, 1, seed=1)
    energies = np.array([pot.eval_batch(ens.states[:, s, :])[0] for s in range(sp.steps + 1)])
    integral = np.trapezoid(energies, dx=sp.dt)
    x0_sq = g.cell_volume * np.sum(x0.values**2)
    assert integral <= 0.5 * x0_sq + 1e-12


def test_weak_metric_zero_for_identical_and_small_for_same_law():
    g, pot, model, ens, x0 = setup_run(paths=40, steps=30)
    fns = svi.default_test_functionals(g)
    assert svi.weak_convergence_metric(ens, ens, fns) == 0.0
    other = simulate(x0, pot, model,
                     SchemeParams(dt=ens.dt, steps=ens.n_steps, delta=pot.delta), 40, seed=555)
    metric = svi.weak_convergence_metric(ens, other, fns)
    # per-path pairings of the functional attaining the max give its standard error
    per_path = np.array([
        np.trapezoid(g.cell_volume * ((ens.states - other.states) @ h) * gamma(ens.times())[None, :],
                     dx=ens.dt, axis=1)
        for h, gamma in fns
    ])  # (functionals, paths)
    means = np.abs(per_path.mean(axis=1))
    k = int(np.argmax(means))
    assert metric == means[k]
    assert metric <= 3.0 * per_path[k].std(ddof=1) / np.sqrt(ens.n_paths) + 1e-12


def test_weak_metric_shape_mismatch_rejected():
    g, pot, model, ens, x0 = setup_run(paths=8, steps=10)
    short = simulate(x0, pot, model, SchemeParams(dt=ens.dt, steps=5, delta=pot.delta), 8, ens.seed)
    with pytest.raises(ValueError):
        svi.weak_convergence_metric(ens, short, svi.default_test_functionals(g))


def test_report_csv(tmp_path):
    g, pot, model, ens, _ = setup_run(paths=10, steps=10)
    rep = svi.check_energy(ens, pot, 2.0)
    out = tmp_path / "svi.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "checkpoint_t,lhs,rhs,margin,se,verdict"
    assert len(lines) == 1 + len(rep.checkpoint_times)
    assert rep.quad_error_est >= 0.0


def test_hminus1_audit_smoke():
    g = interval_grid(24)
    x = g.axis_centers(0)
    pot = potentials.fast_diffusion(g, 0.5, delta=1e-2)
    model = AdditiveNoise([GridFunction(g, 0.1 * np.sin(np.pi * x), "Hminus1")])
    sp = SchemeParams(dt=1e-3, steps=25, delta=1e-2)
    x0 = GridFunction(g, np.sin(np.pi * x), "Hminus1")
    ens = simulate(x0, pot, model, sp, 25, seed=8)
    C = svi.default_constant(model)
    assert svi.check_energy(ens, pot, C).passed
    Z = svi.SolutionTestProcess(ens, model)
    rep = svi.check_variational(ens, Z, pot, model, C)
    assert np.abs(rep.margin).max() < 1e-12
