from dataclasses import replace

import numpy as np
import pytest

from oracles import neumann_laplacian_dense, ou_second_moment
from spdelab import engine, potentials
from spdelab.grids import HMINUS1, GridFunction, Grid, interval_grid, norm, space_norm_sq
from spdelab.engine import (
    AdditiveNoise,
    LinearMultiplicativeNoise,
    NemytskiiNoise,
    SchemeParams,
    gaussian_increments,
    simulate,
)

rng = np.random.default_rng(808)


def grid64():
    return interval_grid(64)


def sine_ic(grid, space="L2", amp=1.0):
    x = grid.axis_centers(0)
    return GridFunction(grid, amp * np.sin(np.pi * x), space)


def step(state, pot, model, sp):
    """One scheme step from ``state``: a one-path, one-step ``simulate``."""
    ens = simulate(state, pot, model, replace(sp, steps=1), 1, seed=0)
    return GridFunction(ens.grid, ens.states[0, 1].reshape(ens.grid.shape), ens.space)


def additive_model(grid, amp=0.1, space="L2"):
    x = grid.axis_centers(0)
    return AdditiveNoise(
        [
            GridFunction(grid, amp * np.sin(np.pi * x), space),
            GridFunction(grid, amp * np.cos(2 * np.pi * x), space),
        ]
    )


# ---------------------------------------------------------------------------
# diffusion models
# ---------------------------------------------------------------------------


def test_apply_b_zero_increment():
    g = grid64()
    model = additive_model(g)
    u = GridFunction(g, rng.standard_normal(64))
    assert np.abs(model.apply_batch(u.flat[None, :], [[0.0, 0.0]])).max() == 0.0


def test_apply_b_additive_constant_mode():
    g = grid64()
    model = AdditiveNoise([GridFunction(g, np.ones(64))])
    u = GridFunction(g, rng.standard_normal(64))
    out = model.apply_batch(u.flat[None, :], [[0.3]])[0]
    assert out == pytest.approx(np.full(64, 0.3))


def test_apply_b_multiplicative_vanishes_at_zero():
    g = grid64()
    model = LinearMultiplicativeNoise([GridFunction(g, np.ones(64))])
    out = model.apply_batch(np.zeros((1, 64)), [[0.7]])
    assert np.abs(out).max() == 0.0


def test_apply_b_mode_count_mismatch():
    g = grid64()
    model = additive_model(g)
    with pytest.raises(ValueError):
        model.apply_batch(np.zeros((1, 64)), [[0.1]])


def test_hs_norm_additive_independent_of_state():
    g = grid64()
    model = additive_model(g)
    hs = model.hs_norm_sq_batch(rng.standard_normal((2, 64)))
    assert hs[0] == pytest.approx(hs[1])


def test_hs_norm_multiplicative_at_one():
    g = grid64()
    fields = [GridFunction(g, rng.standard_normal(64)) for _ in range(3)]
    model = LinearMultiplicativeNoise(fields)
    expected = sum(g.cell_volume * np.sum(f.values**2) for f in fields)
    assert model.hs_norm_sq_batch(np.ones((1, 64)))[0] == pytest.approx(expected)


def test_lipschitz_certificate_dominates_sampled_ratios():
    g = grid64()
    fields = [GridFunction(g, rng.uniform(-1, 1, 64)) for _ in range(2)]
    model = LinearMultiplicativeNoise(fields)
    L = model.lipschitz
    for _ in range(200):
        u = GridFunction(g, rng.standard_normal(64))
        v = GridFunction(g, rng.standard_normal(64))
        du = u.values - v.values
        hs_diff = sum(
            g.cell_volume * np.sum((f.values * du) ** 2) for f in fields
        )
        assert np.sqrt(hs_diff) <= L * norm(u - v) + 1e-12


def test_additive_and_linear_models_keep_their_own_arithmetic():
    # both are NemytskiiNoise with b = 1 or b(u) = u; 1.0 * x is exact
    g = grid64()
    modes = [GridFunction(g, rng.standard_normal(64)) for _ in range(3)]
    M = np.stack([m.flat for m in modes])
    U, dW = rng.standard_normal((5, 64)), rng.standard_normal((5, 3))
    add, lin = AdditiveNoise(modes), LinearMultiplicativeNoise(modes)
    assert isinstance(add, NemytskiiNoise) and isinstance(lin, NemytskiiNoise)
    assert np.array_equal(add.apply_batch(U, dW), dW @ M)
    assert np.array_equal(lin.apply_batch(U, dW), U * (dW @ M))
    assert np.array_equal(add.responses(U), np.broadcast_to(M, (5, 3, 64)))
    assert np.array_equal(lin.responses(U), U[:, None, :] * M[None, :, :])
    assert add.lipschitz == 0.0
    assert lin.lipschitz == float(np.sqrt(np.sum(np.max(np.abs(M), axis=1) ** 2)))
    assert np.array_equal(add._modes, M)
    with pytest.raises(ValueError):
        lin.apply_batch(U, dW[:, :2])
    with pytest.raises(ValueError):
        AdditiveNoise([modes[0], GridFunction(interval_grid(32), np.ones(32))])
    pot = potentials.p_dirichlet(g, 2.0)
    for model, label in ((add, "additive[K=3]"), (lin, "linear_multiplicative[K=3]")):
        ens = simulate(sine_ic(g), pot, model, SchemeParams(dt=1e-3, steps=1), 1, seed=0)
        assert f"noise = {label}" in ens.manifest_text()


def test_nemytskii_model_applies_scalar_map():
    g = grid64()
    model = NemytskiiNoise(lambda u: np.tanh(u), 1.0, [GridFunction(g, np.ones(64))])
    u = GridFunction(g, rng.standard_normal(64))
    out = model.apply_batch(u.flat[None, :], [[0.5]])[0]
    assert out == pytest.approx(0.5 * np.tanh(u.values))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_step_damps_neumann_eigenmodes():
    g = grid64()
    pot = potentials.p_dirichlet(g, 2.0)
    sp = SchemeParams(dt=5e-3, steps=1)
    zero = AdditiveNoise([GridFunction(g, np.zeros(64))])
    x = g.axis_centers(0)
    h = g.spacing[0]
    for k in (1, 3, 7):
        mode = GridFunction(g, np.cos(k * np.pi * x))
        out = step(mode, pot, zero, sp)
        lam = 2 * (1 - np.cos(k * np.pi / 64)) / h**2
        assert out.values == pytest.approx(mode.values / (1 + sp.dt * lam), rel=1e-10)


def test_step_keeps_constants_fixed():
    g = grid64()
    zero = AdditiveNoise([GridFunction(g, np.zeros(64))])
    const = GridFunction(g, np.full(64, 0.8))
    for pot in (
        potentials.p_dirichlet(g, 1.0, delta=1e-2),
        potentials.p_dirichlet(g, 1.5, delta=1e-2),
        potentials.p_dirichlet(g, 2.0),
    ):
        out = step(const, pot, zero, SchemeParams(dt=1e-3, steps=1, delta=pot.delta))
        assert np.abs(out.values - 0.8).max() < 1e-12


def test_step_single_cell_fast_diffusion_closed_form():
    g = interval_grid(1)
    pot = potentials.fast_diffusion(g, 1.0)
    zero = AdditiveNoise([GridFunction(g, np.zeros(1), HMINUS1)])
    x0 = GridFunction(g, np.array([2.0]), HMINUS1)
    dt = 1e-2
    out = step(x0, pot, zero, SchemeParams(dt=dt, steps=1))
    # single Dirichlet cell: z + dt * (2/h^2) z = x0
    h = g.spacing[0]
    assert out.values[0] == pytest.approx(2.0 / (1 + dt * 2 / h**2), rel=1e-12)


def test_scheme_delta_mismatch_rejected():
    # compared relatively: an absolute floor of 1e-8 would accept 1e-8 for 1e-9
    g = grid64()
    for pot_delta, scheme_delta in ((1e-2, 1e-3), (1e-8, 1e-9)):
        sp = SchemeParams(dt=1e-3, steps=1, delta=scheme_delta)
        with pytest.raises(ValueError, match="does not match"):
            step(sine_ic(g), potentials.p_dirichlet(g, 1.5, delta=pot_delta), additive_model(g), sp)
        step(sine_ic(g), potentials.p_dirichlet(g, 1.5, delta=scheme_delta), additive_model(g), sp)


def test_simulate_refuses_fewer_than_one_path():
    g = grid64()
    pot = potentials.p_dirichlet(g, 2.0)
    for n_paths in (0, -1):
        with pytest.raises(ValueError, match="n_paths"):
            simulate(sine_ic(g), pot, additive_model(g), SchemeParams(dt=1e-3, steps=1), n_paths, seed=0)


@pytest.mark.parametrize("model,names", [
    # H^-1-tagged modes used to run silently against the L2 potential
    (lambda: additive_model(grid64(), space=HMINUS1), ("Hminus1", "L2")),
    # 32-cell modes used to fail inside the step with a numpy broadcast error
    (lambda: additive_model(interval_grid(32)), ("shape=(32,)", "shape=(64,)")),
], ids=["space", "grid"])
def test_simulate_refuses_noise_off_the_potentials_grid_and_space(model, names):
    g = grid64()
    pot = potentials.p_dirichlet(g, 2.0)
    with pytest.raises(ValueError, match="noise additive") as err:
        simulate(sine_ic(g), pot, model(), SchemeParams(dt=1e-3, steps=1), 2, seed=0)
    assert all(name in str(err.value) for name in names)


def test_explicit_drift_requires_small_steps():
    with pytest.raises(ValueError):
        SchemeParams(dt=1e-2, steps=1, delta=1e-2, drift="explicit_yosida")
    sp = SchemeParams(dt=1e-3, steps=1, delta=1e-2, drift="explicit_yosida")
    assert sp.drift == "explicit_yosida"


def test_simulate_rejects_explicit_drift_past_the_stability_limit():
    # dt = delta/4 passes SchemeParams, but dt * Lip = 4096 on 64 cells
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.5, delta=1e-2)
    sp = SchemeParams(dt=2.5e-3, steps=100, delta=1e-2, drift="explicit_yosida")
    assert sp.dt * pot.drift_lipschitz_bound() == pytest.approx(4096.0)
    with pytest.raises(ValueError, match="dt \\* Lip <= 2"):
        simulate(sine_ic(g), pot, additive_model(g), sp, n_paths=2, seed=0)
    stable = SchemeParams(dt=1.9 / pot.drift_lipschitz_bound(), steps=3, delta=1e-2, drift="explicit_yosida")
    assert np.all(np.isfinite(simulate(sine_ic(g), pot, additive_model(g), stable, n_paths=2, seed=0).states))


def test_simulate_raises_numerical_failure_on_non_finite_state(monkeypatch):
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.5, delta=1e-2)
    real, calls = pot.prox_batch, []

    def nan_on_third_step(lam, F, **kwargs):
        Z, resid, iters = real(lam, F, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            Z[2, 5] = np.nan
        return Z, resid, iters

    monkeypatch.setattr(pot, "prox_batch", nan_on_third_step)
    with pytest.raises(engine.NumericalFailure) as err:
        simulate(sine_ic(g), pot, additive_model(g), SchemeParams(dt=1e-3, steps=5, delta=1e-2),
                 n_paths=4, seed=0)
    assert isinstance(err.value, FloatingPointError)
    assert (err.value.path, err.value.step, err.value.solver) == (2, 3, "implicit_prox")


def test_simulate_names_the_step_and_paths_of_a_stalled_prox(monkeypatch):
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.5, delta=1e-2)
    sp = SchemeParams(dt=1e-3, steps=5, delta=1e-2)
    real, calls = pot.prox_batch, []

    def stall_on_third_step(lam, F, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise potentials.ProxDidNotConverge(f"Newton prox of {pot.label} stalled", 0.5, rows=[1, 3])
        return real(lam, F, **kwargs)

    monkeypatch.setattr(pot, "prox_batch", stall_on_third_step)
    with pytest.raises(potentials.ProxDidNotConverge, match=r"at step 3 on paths \[1, 3\]") as err:
        simulate(sine_ic(g), pot, additive_model(g), sp, n_paths=4, seed=0)
    assert str(err.value).startswith(f"Newton prox of {pot.label} stalled at step 3")
    assert (err.value.residual, err.value.rows) == (0.5, (1, 3))
    # a real stall: primal Newton hands over to the face dual, which stalls too
    monkeypatch.undo()
    monkeypatch.setattr(potentials, "NEWTON_CAP", 1)
    monkeypatch.setattr(potentials, "DUAL_CAP", 1)
    with pytest.raises(potentials.ProxDidNotConverge) as err:
        simulate(sine_ic(g), pot, additive_model(g), sp, n_paths=4, seed=0)
    assert str(err.value).startswith(f"dual Newton prox of {pot.label} stalled at step 1 on paths [0, 1, 2, 3]")


def test_explicit_drift_matches_yosida_gradient_formula():
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.5, delta=0.1)
    model = additive_model(g)
    x0 = sine_ic(g)
    dt = 1.9 / pot.drift_lipschitz_bound()  # simulate's explicit stability limit
    ens = simulate(x0, pot, model, SchemeParams(dt=dt, steps=1, delta=0.1, drift="explicit_yosida"), 1, seed=5)
    dW = ens.increments[:, 0, :]
    expected = x0.flat + model.apply_batch(x0.flat[None, :], dW)[0] - dt * pot.yosida_gradient_batch(x0.flat[None, :])[0]
    assert ens.states[0, 1] == pytest.approx(expected, abs=1e-14)


def test_explicit_and_implicit_drifts_converge_together():
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.5, delta=0.1)
    zero = AdditiveNoise([GridFunction(g, np.zeros(64))])
    x0 = sine_ic(g)
    diffs = []
    dt_max = 1.9 / pot.drift_lipschitz_bound()  # simulate's explicit stability limit
    for dt in (dt_max, dt_max / 4):
        imp = step(x0, pot, zero, SchemeParams(dt=dt, steps=1, delta=0.1))
        exp = step(x0, pot, zero, SchemeParams(dt=dt, steps=1, delta=0.1, drift="explicit_yosida"))
        diffs.append(norm(imp - exp))
    assert diffs[1] < 0.5 * diffs[0]  # one-step gap shrinks superlinearly in dt


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_simulate_seed_reproducibility():
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.5, delta=1e-2)
    sp = SchemeParams(dt=1e-3, steps=20, delta=1e-2)
    model = additive_model(g)
    a = simulate(sine_ic(g), pot, model, sp, 8, seed=31)
    b = simulate(sine_ic(g), pot, model, sp, 8, seed=31)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)
    c = simulate(sine_ic(g), pot, model, sp, 8, seed=32)
    assert not np.array_equal(a.states, c.states)


def test_simulate_single_path_no_noise_is_deterministic_scheme():
    g = grid64()
    pot = potentials.p_dirichlet(g, 2.0)
    sp = SchemeParams(dt=1e-3, steps=10)
    zero = AdditiveNoise([GridFunction(g, np.zeros(64))])
    ens = simulate(sine_ic(g), pot, zero, sp, 1, seed=3)
    state = sine_ic(g)
    for n in range(10):
        state = step(state, pot, zero, sp)
        assert ens.states[0, n + 1] == pytest.approx(state.flat)


def test_increment_statistics():
    inc = gaussian_increments(7, 400, 30, 2, dt=1e-3)
    var = inc.var(axis=(0,))  # (steps, modes)
    se = 1e-3 * np.sqrt(2.0 / 400)
    assert np.all(np.abs(var - 1e-3) < 5 * se)


def test_ensemble_mean_matches_noiseless_for_linear_dynamics():
    # expectation is exact for linear dynamics with additive noise; compare a
    # scalar pairing of the final states so 3 standard errors is the right bar
    g = interval_grid(32)
    pot = potentials.p_dirichlet(g, 2.0)
    sp = SchemeParams(dt=2e-3, steps=40)
    model = additive_model(g, amp=0.15)
    ens = simulate(sine_ic(g), pot, model, sp, 200, seed=12)
    zero = AdditiveNoise([GridFunction(g, np.zeros(32))])
    det = simulate(sine_ic(g), pot, zero, sp, 1, seed=1)
    probe = np.sin(np.pi * g.axis_centers(0))
    stats = ens.states[:, -1, :] @ probe
    target = det.states[0, -1, :] @ probe
    se = stats.std(ddof=1) / np.sqrt(200)
    assert abs(stats.mean() - target) <= 3.0 * se


def test_second_moment_matches_ou_recursion_oracle():
    g = interval_grid(24)
    pot = potentials.p_dirichlet(g, 2.0)
    dt, steps = 2e-3, 30
    sp = SchemeParams(dt=dt, steps=steps)
    model = additive_model(g, amp=0.2)
    ens = simulate(GridFunction(g, np.zeros(24)), pot, model, sp, 400, seed=21)
    A = neumann_laplacian_dense(24, g.spacing[0])
    modes = np.stack([m for m in model._modes])
    oracle = ou_second_moment(A, modes, np.zeros(24), dt, steps, g.cell_volume)
    est = np.mean(space_norm_sq(g, ens.states, ens.space), axis=0)
    per_path = g.cell_volume * np.sum(ens.states**2, axis=2)
    se = per_path.std(axis=0, ddof=1) / np.sqrt(400)
    assert np.all(np.abs(est - oracle) <= 3.5 * se + 1e-12)


def test_coupled_runs_share_noise_and_match_for_equal_data():
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.5, delta=1e-2)
    sp = SchemeParams(dt=1e-3, steps=15, delta=1e-2)
    model = additive_model(g)
    ex = simulate(sine_ic(g), pot, model, sp, 6, seed=77)
    ey = simulate(sine_ic(g), pot, model, sp, 6, seed=77)
    assert np.array_equal(ex.increments, ey.increments)
    assert np.array_equal(ex.states, ey.states)


def test_contraction_certificate_under_common_noise():
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.0, delta=1e-2)
    sp = SchemeParams(dt=1e-3, steps=40, delta=1e-2)
    x = g.axis_centers(0)
    model = LinearMultiplicativeNoise([GridFunction(g, 0.3 * (1 + 0.5 * np.sin(np.pi * x)))])
    x0 = sine_ic(g)
    y0 = GridFunction(g, x0.values + 0.1 * np.cos(np.pi * x))
    ex, ey = (simulate(z0, pot, model, sp, 60, seed=9) for z0 in (x0, y0))
    assert np.array_equal(ex.increments, ey.increments)
    d0 = norm(x0 - y0) ** 2
    diff_sq = g.cell_volume * np.sum((ex.states - ey.states) ** 2, axis=2)
    mean_gap = diff_sq.mean(axis=0)
    C = 2 * model.lipschitz**2 + 1
    times = ex.times()
    rel_se = diff_sq.std(axis=0, ddof=1) / np.sqrt(60) / np.maximum(mean_gap, 1e-300)
    bound = np.exp(C * times) * d0 * (1 + 3 * rel_se)
    assert np.all(mean_gap <= bound + 1e-14 * d0)


def test_energy_non_increasing_without_noise():
    g = grid64()
    pot = potentials.p_dirichlet(g, 1.0, delta=1e-2)
    sp = SchemeParams(dt=2e-3, steps=30, delta=1e-2)
    zero = AdditiveNoise([GridFunction(g, np.zeros(64))])
    ens = simulate(sine_ic(g), pot, zero, sp, 1, seed=2)
    energies = [pot.eval_batch(ens.states[:, s, :])[0] for s in range(31)]
    assert np.all(np.diff(energies) <= 1e-12)


def test_mass_conservation_with_mean_zero_noise():
    g = grid64()
    x = g.axis_centers(0)
    pot = potentials.p_dirichlet(g, 1.3, delta=1e-2)
    sp = SchemeParams(dt=1e-3, steps=25, delta=1e-2)
    model = AdditiveNoise([GridFunction(g, np.sin(2 * np.pi * x))])
    ens = simulate(sine_ic(g), pot, model, sp, 10, seed=4)
    means = ens.states.mean(axis=2)
    assert np.abs(means - means[:, :1]).max() < 1e-10


def test_ensemble_manifest():
    g = interval_grid(4)
    pot = potentials.p_dirichlet(g, 2.0)
    zero = AdditiveNoise([GridFunction(g, np.zeros(4))])
    ens = simulate(GridFunction(g, np.ones(4)), pot, zero, SchemeParams(dt=1e-2, steps=2), 2, seed=6)
    text = ens.manifest_text()
    assert "seed = 6" in text and "dt =" in text
