import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisect_root, phi_delta, phi_min_norm, psi_delta, psi_value, resolvent_radial
from spdelab import yosida

rng = np.random.default_rng(2024)
EPS = np.finfo(float).eps


def test_soft_threshold_closed_form():
    out = resolvent_radial(1.0, 0.5, np.array([2.0, 0.0]))
    assert out == pytest.approx([1.5, 0.0])


@pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 1.8, 2.0])
def test_zero_is_fixed_point(p):
    out = resolvent_radial(p, 0.2, np.zeros(3))
    assert np.all(out == 0.0)


def test_radius_against_bisection_oracle():
    p, delta = 1.5, 0.1
    for s in (1.0, 0.01, 3.7, 12.0):
        r_new = float(yosida.prox_radius(p, delta, s))
        r_bis = bisect_root(lambda r: r + delta * r ** (p - 1.0) - s, 0.0, s)
        assert r_new == pytest.approx(r_bis, abs=1e-12)


def test_radius_random_powers_residual():
    s = rng.uniform(0.0, 10.0, size=500)
    for p in (1.1, 1.5, 1.9):
        for delta in (1e-1, 1e-3):
            r = yosida.prox_radius(p, delta, s)
            resid = r + delta * np.where(r > 0, r ** (p - 1), 0.0) - s
            assert np.abs(resid).max() < 5e-13


def test_phi_delta_closed_forms():
    assert phi_delta(1.0, 0.5, np.array([0.25, 0.0])) == pytest.approx([0.5, 0.0])
    assert phi_delta(1.0, 0.5, np.array([2.0, 0.0])) == pytest.approx([1.0, 0.0])
    xi = rng.standard_normal(5)
    assert phi_delta(2.0, 0.3, xi, axis=None) == pytest.approx(xi / 1.3)


def test_phi_delta_bounded_by_minimal_section():
    for p in (1.0, 1.4, 1.8, 2.0):
        xi = rng.standard_normal((200, 2)) * 3.0
        phi = np.linalg.norm(phi_delta(p, 0.05, xi), axis=-1)
        bound = phi_min_norm(p, xi)
        assert np.all(phi <= bound + 1e-12)


def test_phi_delta_monotone_in_xi():
    p, delta = 1.5, 0.02
    xi = rng.standard_normal((300, 2))
    zeta = rng.standard_normal((300, 2))
    lhs = np.sum(
        (phi_delta(p, delta, xi) - phi_delta(p, delta, zeta)) * (xi - zeta), axis=-1
    )
    assert np.all(lhs >= -1e-12)


def test_cross_delta_monotonicity_bound_with_explicit_constant():
    for p in (1.0, 1.5, 2.0):
        for d1, d2 in ((0.1, 0.01), (0.01, 0.1), (0.1, 0.1)):
            xi = rng.standard_normal((400, 2)) * 2.0
            zeta = rng.standard_normal((400, 2)) * 2.0
            lhs = np.sum(
                (phi_delta(p, d1, xi) - phi_delta(p, d2, zeta)) * (xi - zeta),
                axis=-1,
            )
            bound = -2.0 * (d1 + d2) * (
                1.0 + np.sum(xi**2, axis=-1) + np.sum(zeta**2, axis=-1)
            )
            assert np.all(lhs >= bound)


def test_psi_delta_quadratic_closed_form():
    xi = np.array([3.0, 4.0])
    assert psi_delta(2.0, 0.3, xi) == pytest.approx(25.0 / (2.0 * 1.3))


def test_psi_delta_p1_example():
    # threshold 0.5 leaves magnitude 1.5: value = 0.5/2 * 1 + 1.5
    assert psi_delta(1.0, 0.5, np.array([2.0, 0.0])) == pytest.approx(1.75)
    assert psi_value(1.0, np.array([2.0, 0.0])) == pytest.approx(2.0)


def test_envelope_identity_from_parts():
    # reconstruct psi_delta from the resolvent and the slope independently
    for p in (1.0, 1.2, 1.7, 2.0):
        delta = 10 ** rng.uniform(-3, -0.5)
        xi = rng.standard_normal((100, 2)) * 5.0
        res = resolvent_radial(p, delta, xi)
        slope = (xi - res) / delta
        direct = 0.5 * delta * np.sum(slope**2, axis=-1) + psi_value(p, res)
        assert psi_delta(p, delta, xi) == pytest.approx(direct, abs=1e-12)


def test_sandwich_and_gap_bounds():
    p = 1.5
    xi = rng.standard_normal((1000, 2)) * 4.0
    psi = psi_value(p, xi)
    for delta in (1e-1, 1e-2, 1e-3):
        res = resolvent_radial(p, delta, xi)
        env = psi_delta(p, delta, xi)
        assert np.all(psi_value(p, res) <= env + 1e-13)
        assert np.all(env <= psi + 1e-13)
        gap_bound = delta * phi_min_norm(p, xi) ** 2
        assert np.all(psi - env <= gap_bound + 1e-12)


def test_phi_delta_is_gradient_of_psi_delta():
    p, delta = 1.4, 0.05
    xi = rng.standard_normal((40, 2)) * 2.0 + 0.5
    direction = rng.standard_normal((40, 2))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    slope = np.sum(phi_delta(p, delta, xi) * direction, axis=-1)
    errs = []
    for h in (1e-4, 1e-5):
        fd = (
            psi_delta(p, delta, xi + h * direction)
            - psi_delta(p, delta, xi - h * direction)
        ) / (2 * h)
        errs.append(np.abs(fd - slope).max())
    assert errs[0] < 1e-6
    # ~O(h^2) Richardson check; the floor covers fp cancellation in the FD
    assert errs[1] < max(errs[0] / 50.0, 3e-10)


def test_resolvent_firmly_nonexpansive():
    for p in (1.0, 1.5, 2.0):
        xi = rng.standard_normal((300, 2)) * 3.0
        zeta = rng.standard_normal((300, 2)) * 3.0
        d_res = np.linalg.norm(
            resolvent_radial(p, 0.2, xi) - resolvent_radial(p, 0.2, zeta), axis=-1
        )
        d_arg = np.linalg.norm(xi - zeta, axis=-1)
        assert np.all(d_res <= d_arg + 1e-12)


def test_envelope_ordering_in_delta():
    p = 1.3
    xi = rng.standard_normal((200, 2)) * 3.0
    small = psi_delta(p, 1e-3, xi)
    large = psi_delta(p, 1e-1, xi)
    assert np.all(large <= small + 1e-13)


def test_resolvent_shrinks_magnitude_and_keeps_direction():
    xi = rng.standard_normal((100, 2)) * 2.0
    out = resolvent_radial(1.5, 0.3, xi)
    assert np.all(np.linalg.norm(out, axis=-1) <= np.linalg.norm(xi, axis=-1) + 1e-14)
    cross = out[:, 0] * xi[:, 1] - out[:, 1] * xi[:, 0]
    assert np.abs(cross).max() < 1e-12


def test_invalid_power_rejected():
    with pytest.raises(ValueError):
        yosida.prox_radius(2.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        yosida.prox_radius(1.5, -0.1, 1.0)


# ---------------------------------------------------------------------------
# closed-form radius for p = 3/2
# ---------------------------------------------------------------------------


def newton_radius(p: float, delta: float, s: float) -> float:
    """Scalar safeguarded Newton for ``r + delta r^(p-1) = s`` on [0, s]."""
    lo, hi = 0.0, s
    r = s / (1.0 + delta)
    for _ in range(200):
        f = r + delta * r ** (p - 1.0) - s
        if abs(f) <= 4.0 * EPS * (1.0 + s):
            break
        if f < 0.0:
            lo = r
        else:
            hi = r
        df = 1.0 + delta * (p - 1.0) * r ** (p - 2.0) if r > 0.0 else np.inf
        cand = r - f / df
        r = cand if lo < cand < hi else 0.5 * (lo + hi)
    return r


magnitudes = st.floats(min_value=0.0, max_value=1e6)
deltas = st.floats(min_value=1e-6, max_value=1e2)


@settings(max_examples=300, deadline=None)
@given(s=magnitudes, delta=deltas)
def test_three_halves_radius_residual(s, delta):
    r = float(yosida.prox_radius(1.5, delta, s))
    assert r >= 0.0
    assert abs(r + delta * np.sqrt(r) - s) <= 8.0 * EPS * (1.0 + s)


@settings(max_examples=300, deadline=None)
@given(a=magnitudes, b=magnitudes, delta=deltas)
def test_three_halves_radius_monotone(a, b, delta):
    s1, s2 = min(a, b), max(a, b)
    r1, r2 = yosida.prox_radius(1.5, delta, np.array([s1, s2]))
    # monotone up to rounding: for neighbouring floats the quotient form can
    # step back by up to ~3 ulp
    assert r1 <= r2 * (1.0 + 4.0 * EPS)


@settings(max_examples=300, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=100.0), delta=st.floats(min_value=1e-4, max_value=10.0))
def test_three_halves_radius_matches_newton_reference(s, delta):
    r = float(yosida.prox_radius(1.5, delta, s))
    assert abs(r - newton_radius(1.5, delta, s)) <= 1e-12


def test_three_halves_radius_broadcasts_array_delta():
    s = rng.uniform(0.0, 5.0, size=(4, 7))
    delta = rng.uniform(1e-3, 1.0, size=7)
    r = yosida.prox_radius(1.5, delta, s)
    assert r.shape == s.shape
    assert np.abs(r + delta * np.sqrt(r) - s).max() <= 8.0 * EPS * (1.0 + s.max())


# ---------------------------------------------------------------------------
# general p: Newton from above the root
# ---------------------------------------------------------------------------

TINY = np.finfo(float).tiny
general_powers = st.floats(min_value=1.05, max_value=1.95)


def log_bisect_radius(p: float, delta: float, s: float) -> float:
    """Root of ``r + delta r^(p-1) = s`` by bisection in log r (tiny roots stay relative)."""
    x = bisect_root(lambda x: np.exp(x) + delta * np.exp((p - 1.0) * x) - s, np.log(TINY), np.log(s))
    return float(np.exp(x))


@pytest.mark.parametrize(
    "p, delta, s",
    # tiny roots (6e-62, 5e-60, 2e-47) where a Newton on [0, s] stopped by an
    # absolute 1e-13 residual stalls at 100 sweeps, off by up to 19 s
    [(1.05, 1e-2, 8.69e-6), (1.05, 1.0, 1.08e-3), (1.1, 1e-2, 2.09e-7)],
)
def test_general_radius_converges_near_one(p, delta, s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = float(yosida.prox_radius(p, delta, s))
    assert abs(r + delta * r ** (p - 1.0) - s) <= 8.0 * EPS * (1.0 + s)
    assert r == pytest.approx(log_bisect_radius(p, delta, s), rel=1e-12)


@pytest.mark.parametrize("p", [1.001, 1.01])
def test_general_radius_warns_nothing_near_one(p):
    s = np.concatenate([[0.0], np.logspace(-12, 8, 400)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (1e-8, 1e-2, 1e6):
            r = yosida.prox_radius(p, delta, s)
            ok = np.abs(r + delta * r ** (p - 1.0) - s) <= 8.0 * EPS * (1.0 + s)
            assert np.all(ok | (r < TINY))


def test_general_radius_raises_at_the_sweep_cap(monkeypatch):
    # p = 1.05, delta = 1e-2, s = 6.67e-3 needs a fifth sweep
    assert np.isfinite(yosida.prox_radius(1.05, 1e-2, 6.67e-3))
    monkeypatch.setattr(yosida, "_ROOT_MAX_ITER", yosida._ROOT_SWEEPS)
    with pytest.raises(FloatingPointError, match="1 radii"):
        yosida.prox_radius(1.05, 1e-2, np.array([1.0, 6.67e-3, 2.0]))


def test_general_radius_rows_do_not_depend_on_the_batch():
    # a row that needs a fifth sweep does not sweep its converged neighbours on
    s = np.concatenate([[6.67e-3, 8.69e-6, 0.0], rng.uniform(0.0, 10.0, 50)])
    batch = yosida.prox_radius(1.05, 1e-2, s)
    alone = np.concatenate([yosida.prox_radius(1.05, 1e-2, s[i : i + 1]) for i in range(s.size)])
    assert np.array_equal(batch, alone)


@pytest.mark.parametrize("p,delta", [(1.05, 1.0), (1.55, 10.0), (1.7, 1.0), (1.9, 1.0), (1.9, 10.0)])
def test_general_radius_of_a_scalar_equals_its_batch_row(p, delta):
    # a 0-d magnitude sweeps as an array too, not through scalar power
    s = np.concatenate([[0.37, 6.67e-3, 0.0], rng.uniform(0.0, 10.0, 20)])
    scalars = np.array([yosida.prox_radius(p, delta, v) for v in s])
    assert np.array_equal(scalars, yosida.prox_radius(p, delta, s))


@settings(max_examples=300, deadline=None)
@given(p=general_powers, s=magnitudes, delta=deltas)
def test_general_radius_residual(p, s, delta):
    r = float(yosida.prox_radius(p, delta, s))
    assert 0.0 <= r <= s
    if r >= TINY:  # roots below the smallest normal float are not representable
        assert abs(r + delta * r ** (p - 1.0) - s) <= 8.0 * EPS * (1.0 + s)


@settings(max_examples=300, deadline=None)
@given(p=general_powers, a=magnitudes, b=magnitudes, delta=deltas)
def test_general_radius_monotone(p, a, b, delta):
    s1, s2 = min(a, b), max(a, b)
    r1, r2 = yosida.prox_radius(p, delta, np.array([s1, s2]))
    assert r1 <= r2 * (1.0 + 4.0 * EPS) + TINY


@settings(max_examples=300, deadline=None)
@given(
    p=general_powers,
    s=st.floats(min_value=0.0, max_value=100.0),
    delta=st.floats(min_value=1e-4, max_value=10.0),
)
def test_general_radius_matches_newton_reference(p, s, delta):
    r = float(yosida.prox_radius(p, delta, s))
    assert abs(r - newton_radius(p, delta, s)) <= 1e-12


@pytest.mark.parametrize("p", [1.1, 1.7, 1.9])
def test_general_radius_broadcasts_array_delta(p):
    s = rng.uniform(0.0, 5.0, size=(4, 7))
    delta = rng.uniform(1e-3, 1.0, size=7)
    r = yosida.prox_radius(p, delta, s)
    assert r.shape == s.shape
    resid = r + delta * r ** (p - 1.0) - s
    assert np.abs(resid).max() <= 8.0 * EPS * (1.0 + s.max())
    by_column = np.stack([yosida.prox_radius(p, d, s[:, j]) for j, d in enumerate(delta)], axis=1)
    assert np.array_equal(r, by_column)
