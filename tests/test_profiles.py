import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import LinAlgError, solve_banded

from spdelab import _linalg, yosida
from spdelab._linalg import solve_banded_spd, solve_tridiagonal
from spdelab.profiles import (
    CURVATURE_CAP,
    EdgeConjugate,
    PowerProfile,
    YosidaPowerProfile,
)

rng = np.random.default_rng(31)

PROFILES = [
    PowerProfile(1.0),
    PowerProfile(1.5),
    PowerProfile(2.0),
    YosidaPowerProfile(1.0, 0.05),
    YosidaPowerProfile(1.5, 0.01),
    YosidaPowerProfile(1.7, 0.02),
]


@pytest.mark.parametrize("prof", PROFILES, ids=repr)
def test_value_at_zero(prof):
    assert prof.value(np.array([0.0])) == pytest.approx(0.0)


@pytest.mark.parametrize("prof", PROFILES, ids=repr)
def test_slope_matches_value_derivative(prof):
    s = rng.uniform(0.05, 3.0, size=50)
    h = 1e-7
    fd = (prof.value(s + h) - prof.value(s - h)) / (2 * h)
    assert prof.slope(s) == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("prof", PROFILES, ids=repr)
def test_prox_radius_solves_inclusion(prof):
    s = rng.uniform(0.0, 5.0, size=200)
    tau = 0.3
    r = prof.prox_radius(tau, s)
    active = r > 0
    resid = r[active] + tau * prof.slope(r[active]) - s[active]
    assert np.abs(resid).max() < 1e-10
    # inactive points must sit below the kink threshold
    assert np.all(s[~active] <= tau * prof.kink + 1e-12)


@pytest.mark.parametrize("prof", PROFILES, ids=repr)
def test_prox_radius_array_tau(prof):
    s = rng.uniform(0.0, 2.0, size=30)
    tau = rng.uniform(0.05, 0.5, size=30)
    r = prof.prox_radius(tau, s)
    active = r > 0
    resid = r[active] + tau[active] * prof.slope(r[active]) - s[active]
    assert np.abs(resid).max() < 1e-10


@pytest.mark.parametrize(
    "prof,W,Q",
    [
        (PowerProfile(1.5), 0.3, 0.0),
        (PowerProfile(1.2), 1.0, 0.0),
        (PowerProfile(1.0), 0.5, 0.4),
        (PowerProfile(1.7), 0.2, 0.05),
        (YosidaPowerProfile(1.5, 0.05), 0.3, 0.0),
        (YosidaPowerProfile(1.3, 0.1), 0.7, 0.2),
        (YosidaPowerProfile(1.5, 0.05), 0.5, 0.2),
    ],
)
def test_edge_conjugate_fenchel_young_equality(prof, W, Q):
    # at y = h'(g) the Fenchel-Young inequality is tight
    g = rng.uniform(0.1, 2.0, size=40) * np.sign(rng.standard_normal(40))
    y = W * prof.signed_slope(g) + Q * g
    conj = EdgeConjugate(prof, np.full_like(g, W), np.full_like(g, Q))
    h = W * prof.value(np.abs(g)) + 0.5 * Q * g**2
    fy = h + conj.maps(y)[0] - y * g
    assert np.abs(fy).max() < 1e-9


def test_edge_conjugate_slope_inverts_penalty_slope():
    prof = PowerProfile(1.4)
    W, Q = 0.6, 0.0
    conj = EdgeConjugate(prof, np.array([W]), np.array([Q]))
    for g in (0.3, 1.7, -2.2):
        y = W * np.sign(g) * prof.slope(np.array([abs(g)]))
        back = conj.maps(y)[1]
        assert back == pytest.approx(g, rel=1e-9)


def test_edge_conjugate_flat_inside_kink_box():
    prof = PowerProfile(1.0)
    conj = EdgeConjugate(prof, np.array([1.0]), np.array([0.5]))
    y = np.array([0.4])  # inside the kink interval [-1, 1]
    value, slope, curvature = conj.maps(y)
    assert slope == pytest.approx(0.0)
    assert value == pytest.approx(0.0)
    assert curvature == pytest.approx(0.0)


def test_curvature_cap_and_bounded_flags():
    assert not PowerProfile(1.5).curvature_bounded
    assert PowerProfile(2.0).curvature_bounded
    assert YosidaPowerProfile(1.2, 0.1).curvature_bounded
    c = PowerProfile(1.1).maps(np.array([0.0, 1e-300]))[2]
    assert np.all(np.isfinite(c))


# ---------------------------------------------------------------------------
# shared maps, closed-form conjugate radius, banded tridiagonal solve
# ---------------------------------------------------------------------------


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


MAPS_PROFILES = [
    make(p)
    for p in (1.0, 1.3, 1.5, 2.0)
    for make in (
        PowerProfile,
        lambda p: YosidaPowerProfile(p, 0.03),
    )
]


@pytest.mark.parametrize("prof", MAPS_PROFILES, ids=repr)
@settings(max_examples=60, deadline=None)
@given(s=arrays(float, st.integers(1, 40), elements=st.floats(min_value=0.0, max_value=1e4)))
def test_maps_bit_identical_to_separate_calls(prof, s):
    value, slope, _ = prof.maps(s)
    np.testing.assert_array_equal(bits(value), bits(prof.value(s)))
    np.testing.assert_array_equal(bits(slope), bits(prof.slope(s)))


def separate_power_maps(prof, s):
    """Oracle: the maps with a power of their own for value, slope and
    curvature, under switched error states, as they were before one power
    per point."""
    p, d = prof.p, prof.delta
    if d is None:
        with np.errstate(divide="ignore", over="ignore"):
            c = (p - 1.0) * s ** (p - 2.0)
        return s**p / p, s ** (p - 1.0), np.minimum(np.where(np.isfinite(c), c, CURVATURE_CAP), CURVATURE_CAP)
    r = yosida.prox_radius(p, d, s)
    slope = (s - r) / d
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phi_prime = (p - 1.0) * r ** (p - 2.0)
        ratio = phi_prime / (1.0 + d * phi_prime)
    return 0.5 * d * slope**2 + r**p / p, slope, np.where(np.isfinite(phi_prime), ratio, 1.0 / d)


@pytest.mark.parametrize("raw", [False, True], ids=["yosida", "raw"])
@pytest.mark.parametrize("delta", [1e-2, 0.1])
@pytest.mark.parametrize("p", [1.5, 1.55, 1.7, 1.9])
def test_one_power_maps_match_the_separate_powers(p, delta, raw):
    # 0, a magnitude whose radius underflows, the crossover of the radius
    # solve's two starts, and both scales
    s = np.array([0.0, 1e-300, delta ** (1.0 / (2.0 - p)), 1.0, 1e6])
    prof = PowerProfile(p) if raw else YosidaPowerProfile(p, delta)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        maps = prof.maps(s)
    for got, want in zip(maps, separate_power_maps(prof, s)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert maps[2][0] == (CURVATURE_CAP if raw else 1.0 / delta)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(min_value=1.1, max_value=2.0),
    W=st.floats(min_value=1e-2, max_value=1e2),
    # t >= 1e-8 keeps r = (t/W)^(1/(p-1)) above the double underflow range
    t=arrays(float, st.integers(1, 20),
             elements=st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=1e3))),
)
def test_edge_conjugate_power_closed_form_inverts_slope(p, W, t):
    conj = EdgeConjugate(PowerProfile(p), np.full_like(t, W), np.zeros_like(t))
    r = conj.maps(t)[1]
    assert np.all(r >= 0.0)
    np.testing.assert_allclose(W * r ** (p - 1.0), t, rtol=1e-12, atol=1e-300)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 12),
    broadcast_d=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, n=1, broadcast_d=False, seed=0)
@example(m=5, n=1, broadcast_d=False, seed=1)
@example(m=1, n=9, broadcast_d=True, seed=2)
@example(m=4, n=9, broadcast_d=True, seed=3)
def test_solve_tridiagonal_matches_dense_solve(m, n, broadcast_d, seed):
    gen = np.random.default_rng(seed)
    # the n - 1 couplings below and above the diagonal; with broadcast_d the
    # diagonal and the lower couplings are shared by every row
    dl = gen.uniform(-1.0, 1.0, n - 1 if broadcast_d else (m, n - 1))
    du = gen.uniform(-1.0, 1.0, (m, n - 1))
    d = gen.uniform(2.5, 4.0, n if broadcast_d else (m, n))
    b = gen.standard_normal((m, n))
    x = solve_tridiagonal(dl, d, du, b)
    assert x.shape == (m, n)
    dd, ll = np.broadcast_to(d, (m, n)), np.broadcast_to(dl, (m, n - 1))
    # bit-identical to scipy's banded solver on the rows laid end to end
    ab = np.zeros((3, m, n))
    ab[0, :, 1:], ab[1], ab[2, :, :-1] = du, dd, ll
    banded = solve_banded((1, 1), ab.reshape(3, -1), b.reshape(-1)).reshape(m, n)
    assert x.tobytes() == banded.tobytes()
    if m * n == 1:  # a 1 x 1 system is a division
        assert x.tobytes() == (b / d).tobytes()
    for i in range(m):
        A = np.diag(dd[i]) + np.diag(ll[i], -1) + np.diag(du[i], 1)
        np.testing.assert_allclose(x[i], np.linalg.solve(A, b[i]), rtol=1e-12, atol=1e-12)


def test_solve_tridiagonal_singular_row_raises():
    ones = np.ones((2, 2))
    with pytest.raises(LinAlgError):
        solve_tridiagonal(ones, np.array([[4.0, 4.0, 4.0], [0.0, 0.0, 0.0]]), ones, np.ones((2, 3)))


def _spd_bands(gen, m, n, kd):
    """Random diagonally dominant lower bands ``ab[r, j, k] = A_r[j + k, j]``
    and their dense matrices; the band entries past the last cell hold junk."""
    ab = gen.uniform(-1.0, 1.0, (m, n, kd + 1))
    A = np.zeros((m, n, n))
    for k in range(1, kd + 1):
        for r in range(m):
            A[r] += np.diag(ab[r, : n - k, k], -k) + np.diag(ab[r, : n - k, k], k)
    ab[:, :, 0] = 0.5 + np.sum(np.abs(A), axis=2) * gen.uniform(1.0, 2.0, (m, n))
    for r in range(m):
        A[r] += np.diag(ab[r, :, 0])
    return ab, A


def _fill(ab):
    """The ``solve_banded_spd`` fill and kd of the bands ``ab``: it copies a
    chunk's rows and leaves the entries past the last cell zero."""
    n, w = ab.shape[1:]
    inside = np.arange(n)[:, None] + np.arange(w) < n

    def fill(view, rows):
        view[:] = np.where(inside, ab[rows], 0.0)

    return fill, w - 1


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 24), kd_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(m=1, n=12, kd_frac=0.5, seed=0)
@example(m=3, n=10, kd_frac=1.0, seed=1)  # kd = n - 1: a dense row
@example(m=4, n=1, kd_frac=0.0, seed=2)  # 1 x 1 blocks: a division
def test_solve_banded_spd_matches_dense_solve(m, n, kd_frac, seed):
    gen = np.random.default_rng(seed)
    ab, A = _spd_bands(gen, m, n, int(kd_frac * (n - 1)))
    b = gen.standard_normal((m, n))
    fill, kd = _fill(ab)
    x = solve_banded_spd(fill, kd, b.copy())
    assert x.shape == (m, n)
    np.testing.assert_allclose(x, np.linalg.solve(A, b[..., None])[..., 0], rtol=1e-11, atol=1e-12)
    if n == 1:
        np.testing.assert_allclose(x, b / A[:, 0], rtol=1e-15)


@pytest.mark.parametrize("n,kd", [(24, 3), (64, 8), (40, 39), (96, 32), (200, 70)])
def test_solve_banded_spd_rows_together_equal_rows_alone(n, kd, monkeypatch):
    # the identity rows between blocks keep each row's arithmetic its own,
    # also where the band triangular solve (kd >= 32) or the blocked Cholesky
    # (kd > 64) would round a row by its neighbours; a budget this large puts
    # all six rows in one pbsv call
    monkeypatch.setattr(_linalg, "_CHUNK_BYTES", 1 << 30)
    gen = np.random.default_rng(n + kd)
    ab, _ = _spd_bands(gen, 6, n, kd)
    b = gen.standard_normal((6, n))
    fill, kd = _fill(ab)
    together = solve_banded_spd(fill, kd, b)
    for r in range(6):
        alone = solve_banded_spd(_fill(ab[r : r + 1])[0], kd, b[r : r + 1])
        assert alone.tobytes() == together[r : r + 1].tobytes()


def test_solve_banded_spd_indefinite_band_raises(monkeypatch):
    ab = np.zeros((2, 3, 2))
    ab[:, :, 0], ab[:, :, 1] = 1.0, 0.1
    ab[1, 1, 0] = -1.0
    for budget in (1 << 30, 1):  # both rows in one pbsv call, then one call per row
        monkeypatch.setattr(_linalg, "_CHUNK_BYTES", budget)
        with pytest.raises(LinAlgError, match="row 1, cell 1"):
            solve_banded_spd(*_fill(ab), np.ones((2, 3)))
