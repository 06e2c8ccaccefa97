import numpy as np
import pytest

from oracles import neumann_laplacian_dense, ou_second_moment
from spdelab import engine, grids, potentials, svi
from spdelab.engine import AdditiveNoise, SchemeParams, simulate
from spdelab.grids import GridFunction, interval_grid, space_norm_sq

rng = np.random.default_rng(606)


def setup_run(n=48, steps=60, paths=60, amp=0.15, p=1.5, delta=1e-2, seed=17, length=1.0, dt=1e-3):
    g = interval_grid(n, length)
    x = g.axis_centers(0)
    pot = potentials.p_dirichlet(g, p, delta=delta) if delta else potentials.p_dirichlet(g, p)
    model = AdditiveNoise(
        [
            GridFunction(g, amp * np.sin(np.pi * x)),
            GridFunction(g, amp * np.cos(2 * np.pi * x)),
        ]
    )
    sp = SchemeParams(dt=dt, steps=steps, delta=delta)
    x0 = GridFunction(g, np.sin(np.pi * x))
    ens = simulate(x0, pot, model, sp, paths, seed)
    return g, pot, model, ens, x0


def test_solution_decomposition_margin_is_zero():
    g, pot, model, ens, _ = setup_run()
    Z = svi.SolutionTestProcess(ens, model)
    rep = svi.audit(ens, pot, model, svi.default_constant(model), {"solution": Z})["solution"]
    assert np.abs(rep.margin).max() < 1e-12
    assert rep.passed


def test_zero_test_process_passes_and_relates_to_energy():
    g, pot, model, ens, _ = setup_run()
    C = svi.default_constant(model)
    Z0 = svi.TestProcess.constant(g, "L2", 0.0)
    reports = svi.audit(ens, pot, model, C, {"zero": Z0})
    rep = reports["zero"]
    assert rep.passed
    energy_rep = reports["energy"]
    assert energy_rep.passed
    assert energy_rep.smallest_constant <= C


def test_constant_and_drifted_test_processes_pass():
    g, pot, model, ens, x0 = setup_run()
    C = svi.default_constant(model)
    const = svi.TestProcess.from_function(GridFunction(g, np.full(48, 0.3)))
    rep_c = svi.audit(ens, pot, model, C, {"constant": const})["constant"]
    assert rep_c.passed
    G = np.tile(0.2 * x0.flat, (ens.n_steps, 1))
    drift = svi.TestProcess.from_function(GridFunction(g, np.full(48, 0.1)), G=G)
    rep_d = svi.audit(ens, pot, model, C, {"drifted": drift})["drifted"]
    assert rep_d.passed


def test_regularized_strong_solution_as_test_process():
    # a second regularized solution with different data is an admissible test
    # process carrying its own realized drift and F = B(Z)
    g, pot, model, ens, x0 = setup_run(paths=40)
    y0 = GridFunction(g, 0.5 * x0.values)
    ens_z = simulate(y0, pot, model,
                     SchemeParams(dt=ens.dt, steps=ens.n_steps, delta=pot.delta), 40, ens.seed)
    Z = svi.SolutionTestProcess(ens_z, model)
    rep = svi.audit(ens, pot, model, svi.default_constant(model), {"other": Z})["other"]
    assert np.all(rep.margin >= -3.0 * rep.se)


def test_audits_need_two_paths():
    g, pot, model, ens, _ = setup_run(n=16, steps=4, paths=1)
    with pytest.raises(ValueError, match="at least 2 paths"):
        svi.audit(ens, pot, model, 1.0, {})
    with pytest.raises(ValueError, match="at least 2 paths"):
        svi.audit(ens, pot, model, 1.0, {"solution": svi.SolutionTestProcess(ens, model)})


def test_foreign_noise_rejected():
    g, pot, model, ens, x0 = setup_run(paths=10)
    other = simulate(x0, pot, model,
                     SchemeParams(dt=ens.dt, steps=ens.n_steps, delta=pot.delta), 10, seed=999)
    Z = svi.SolutionTestProcess(other, model)
    with pytest.raises(ValueError):
        svi.audit(ens, pot, model, 1.0, {"foreign": Z})


def test_energy_check_monotone_in_constant():
    g, pot, model, ens, _ = setup_run(paths=30, steps=30)
    C0 = svi.default_constant(model)
    rep1 = svi.audit(ens, pot, model, C0, {})["energy"]
    rep2 = svi.audit(ens, pot, model, 2 * C0, {})["energy"]
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


def test_weak_metric_refuses_an_ensemble_from_elsewhere():
    # the same shape on another grid at another dt used to give a number (5.1e-3)
    g, pot, model, ens, x0 = setup_run(n=16, steps=8, paths=4)
    other = setup_run(n=16, steps=8, paths=4, length=2.0, dt=2e-3)[3]
    with pytest.raises(ValueError, match="weak metric: ensembles on"):
        svi.weak_convergence_metric(ens, other, svi.default_test_functionals(g))


@pytest.mark.parametrize("foreign", ["potential", "noise"])
def test_audit_refuses_a_potential_or_noise_from_elsewhere(foreign):
    # a potential and noise on the extent-2 grid used to give a passing report
    g, pot, model, ens, x0 = setup_run(n=16, steps=8, paths=4)
    _, pot_2, model_2, _, _ = setup_run(n=16, steps=8, paths=4, length=2.0)
    with pytest.raises(ValueError, match=f"audit: {foreign} lives on"):
        svi.audit(ens, *((pot_2, model) if foreign == "potential" else (pot, model_2)), 1.0, {})


def test_weak_metric_refuses_an_empty_dictionary():
    g, pot, model, ens, _ = setup_run(paths=4, steps=5)
    with pytest.raises(ValueError, match="test dictionary is empty"):
        svi.weak_convergence_metric(ens, ens, [])


def test_report_csv(tmp_path):
    g, pot, model, ens, _ = setup_run(paths=10, steps=10)
    rep = svi.audit(ens, pot, model, 2.0, {})["energy"]
    out = tmp_path / "svi.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "checkpoint_t,lhs,rhs,margin,se,verdict"
    assert len(lines) == 1 + len(rep.checkpoint_times)
    assert rep.quad_error_est >= 0.0


def hminus1_run():
    g = interval_grid(24)
    x = g.axis_centers(0)
    pot = potentials.fast_diffusion(g, 0.5, delta=1e-2)
    model = AdditiveNoise([GridFunction(g, 0.1 * np.sin(np.pi * x), "Hminus1")])
    sp = SchemeParams(dt=1e-3, steps=25, delta=1e-2)
    x0 = GridFunction(g, np.sin(np.pi * x), "Hminus1")
    return pot, model, simulate(x0, pot, model, sp, 25, seed=8)


def test_hminus1_audit_smoke():
    pot, model, ens = hminus1_run()
    C = svi.default_constant(model)
    reports = svi.audit(ens, pot, model, C, {"solution": svi.SolutionTestProcess(ens, model)})
    assert reports["energy"].passed
    rep = reports["solution"]
    assert np.abs(rep.margin).max() < 1e-12


def test_weak_metric_solves_once_per_mode(monkeypatch):
    # the default dictionary crosses 8 modes with 4 time weights: one
    # Dirichlet solve per mode, each shared by its weights, changes no value
    pot, model, ens = hminus1_run()
    other = simulate(GridFunction(ens.grid, ens.states[0, 0], "Hminus1"), pot, model, ens.scheme, 25, seed=9)
    fns = svi.default_test_functionals(ens.grid)
    diff = ens.states - other.states
    direct = max(
        abs(float(np.mean(np.trapezoid(ens.grid.cell_volume * (diff @ grids.dirichlet_solve(ens.grid, h))
                                       * gamma(ens.times())[None, :], dx=ens.dt, axis=1))))
        for h, gamma in fns
    )
    solves = []
    solve = grids.dirichlet_solve
    monkeypatch.setattr(grids, "dirichlet_solve", lambda grid, rhs: solves.append(rhs) or solve(grid, rhs))
    assert svi.weak_convergence_metric(ens, other, fns) == direct
    assert len(fns) == 32 and len(solves) == 8


# (lhs, rhs, margin, se) per checkpoint of the H^-1 fast-diffusion audit of
# hminus1_run's ensemble, then the quadrature error estimate
def test_hminus1_audit_numbers_are_pinned(pinned):
    pot, model, ens = hminus1_run()
    C = svi.default_constant(model)
    x0 = ens.states[0, 0]
    smooth = GridFunction(ens.grid, np.full(24, 0.25), "Hminus1")
    drifted = svi.TestProcess.from_function(smooth, G=np.tile(0.1 * x0, (ens.n_steps, 1)))
    reports = svi.audit(ens, pot, model, C, {"solution": svi.SolutionTestProcess(ens, model), "drifted": drifted})
    pinned({"reports": {name: [*zip(rep.lhs, rep.rhs, rep.margin, rep.se), [rep.quad_error_est]]
                        for name, rep in reports.items()},
            "smallest_constant": reports["energy"].smallest_constant})


@pytest.mark.parametrize("rows", [20, 3])
def test_audit_refuses_a_drift_whose_rows_are_not_the_steps(rows):
    # 20 rows were silently cut to the 8 steps; 3 rows raised a bare IndexError
    g, pot, model, ens, x0 = setup_run(n=16, steps=8, paths=4)
    Z = svi.TestProcess.from_function(x0, G=np.zeros((rows, 16)))
    with pytest.raises(ValueError, match=f"G has {rows} rows for 8 steps"):
        svi.audit(ens, pot, model, 1.0, {"drifted": Z})


@pytest.mark.parametrize("z0, G, match", [
    pytest.param(np.full(16, np.nan), None, "finite", id="nan-z0"),
    pytest.param(np.zeros(16), np.where(np.eye(8, 16) > 0, np.nan, 0.0), "finite", id="nan-G"),
    pytest.param(np.zeros(10), None, "10 values for 16 cells", id="short-z0"),
    pytest.param(np.zeros(16), np.zeros(16), r"shape \(steps, 16\)", id="1d-G"),
    pytest.param(np.zeros(16), np.zeros((8, 10)), r"shape \(steps, 16\)", id="narrow-G"),
])
def test_test_process_refuses_bad_data(z0, G, match):
    # NaN data used to give NaN margins and the verdict "fail"; a short z0 a
    # numpy broadcast error inside the audit
    with pytest.raises(ValueError, match=match):
        svi.TestProcess(interval_grid(16), "L2", z0, G=G)
