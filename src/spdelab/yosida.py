"""Moreau-Yosida machinery for radial power laws ``|xi|^p / p`` with p in [1, 2].

The regularized slope is ``phi_delta(xi) = (xi - R_delta xi) / delta`` where
``R_delta xi`` is the unique solution zeta of ``zeta + delta * phi(zeta) = xi``.
Its magnitude has a closed form for p = 1 (soft threshold), p = 3/2 (the
square root of the magnitude solves a quadratic) and p = 2 (linear
shrinkage); other powers use a monotone Newton solve from above.  The envelope
value is

    psi_delta(xi) = (delta / 2) |phi_delta(xi)|^2 + psi(R_delta xi)

and satisfies ``psi(R_delta xi) <= psi_delta(xi) <= psi(xi)`` together with
``|psi(xi) - psi_delta(xi)| <= delta * |phi(xi)|^2`` (minimal-section slope
for p = 1).  p = 2 is admitted purely as an analytic reference case.

All functions are vectorized: ``xi`` may be an array of d-vectors with the
vector components on ``axis`` (default last), or plain signed scalars when
``axis is None``.
"""

from __future__ import annotations

import numpy as np

_ROOT_SWEEPS = 4
_ROOT_MAX_ITER = 100
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _check_p(p: float):
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"power must lie in [1, 2], got {p}")


def prox_radius(p: float, delta: float, s) -> np.ndarray:
    """Radius r >= 0 solving ``r + delta * r^(p-1) = s`` for magnitudes s >= 0.

    Closed forms for p = 1, 3/2 and 2.  For p = 3/2, ``q = sqrt(r)`` solves
    ``q^2 + delta q = s``; its root is taken in the cancellation-free form
    ``q = 2s / (delta + sqrt(delta^2 + 4s))``.  Other p: ``g(r) = r + delta r^(p-1)``
    is concave, so Newton from ``min(s, (s/delta)^(1/(p-1))) >= r*`` steps below r*
    once, then climbs.  After 4 sweeps, points missing ``|g(r) - s| <= 8 eps (1+s)``
    (roots below float tiny exempt) sweep on alone; FloatingPointError at the cap.
    """
    _check_p(p)
    if not isinstance(delta, float):
        delta = np.asarray(delta, dtype=float)
        delta = float(delta) if delta.ndim == 0 else delta
    if not (delta > 0 if isinstance(delta, float) else (delta > 0).all()):
        raise ValueError("delta must be positive")
    s = np.asarray(s, dtype=float)
    if p == 1.0:
        return np.maximum(s - delta, 0.0)
    if p == 2.0:
        return s / (1.0 + delta)
    s = np.maximum(s, 0.0)
    if p == 1.5:
        q = _sqrt_radius(delta, s)
        return q * q
    # a 0-d magnitude sweeps as a 1-element array: scalar power rounds differently
    zero_d, s = s.ndim == 0, np.atleast_1d(s)
    a = p - 1.0
    with np.errstate(over="ignore"):
        r = np.minimum(s, (s / delta) ** (1.0 / a))
    for k in range(_ROOT_MAX_ITER + 1):
        t = r**a
        if k >= _ROOT_SWEEPS:
            live = (np.abs(r + delta * t - s) > 8.0 * _EPS * (1.0 + s)) & (r >= _TINY)
            if not live.any():
                return r.reshape(np.shape(delta)) if zero_d else r
            if k == _ROOT_MAX_ITER:
                raise FloatingPointError(f"prox_radius(p={p}): {live.sum()} radii unconverged")
        # the denominator is 0 only at r = 0, a fixed point; (r == 0) keeps it there
        step = r * ((s - (delta * (1.0 - a)) * t) / (r + (delta * a) * t + (r == 0.0)))
        r = step if k < _ROOT_SWEEPS else np.where(live, step, r)


def _sqrt_radius(delta, s):
    """``sqrt(r)`` for the p = 3/2 radius at magnitudes s >= 0 (delta taken as
    checked): the root of ``q^2 + delta q = s``, which is also ``r^(p-1)``."""
    return 2.0 * s / (delta + np.sqrt(delta * delta + 4.0 * s))


def _split(xi, axis):
    xi = np.asarray(xi, dtype=float)
    if axis is None:
        return np.abs(xi), np.sign(xi)
    mag = np.linalg.norm(xi, axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        direction = np.where(mag > 0.0, xi / mag, 0.0)
    return mag, direction


def resolvent_radial(p: float, delta: float, xi, axis: int | None = -1) -> np.ndarray:
    """Resolvent ``R_delta xi``: direction preserved, magnitude shrunk."""
    mag, direction = _split(xi, axis)
    r = prox_radius(p, delta, mag)
    return r * direction


def phi_delta(p: float, delta: float, xi, axis: int | None = -1) -> np.ndarray:
    """Yosida-regularized slope ``(xi - R_delta xi) / delta``; 1/delta-Lipschitz."""
    xi = np.asarray(xi, dtype=float)
    return (xi - resolvent_radial(p, delta, xi, axis)) / delta


def psi_value(p: float, xi, axis: int | None = -1) -> np.ndarray:
    """Raw potential ``|xi|^p / p``."""
    _check_p(p)
    xi = np.asarray(xi, dtype=float)
    mag = np.abs(xi) if axis is None else np.linalg.norm(xi, axis=axis)
    return mag**p / p


def psi_delta(p: float, delta: float, xi, axis: int | None = -1) -> np.ndarray:
    """Moreau-Yosida envelope of ``|.|^p / p`` at xi."""
    mag, _ = _split(xi, axis)
    if axis is not None:
        mag = np.squeeze(mag, axis=axis)
    r = prox_radius(p, delta, mag)
    slope = (mag - r) / delta
    return 0.5 * delta * slope**2 + r**p / p


def phi_min_norm(p: float, xi, axis: int | None = -1) -> np.ndarray:
    """Minimal-section slope magnitude ``inf{|eta| : eta in phi(xi)}``.

    For p = 1 this is 1 away from the origin and 0 at it; for p > 1 it is
    ``|xi|^(p-1)``.
    """
    _check_p(p)
    xi = np.asarray(xi, dtype=float)
    mag = np.abs(xi) if axis is None else np.linalg.norm(xi, axis=axis)
    if p == 1.0:
        return (mag > 0.0).astype(float)
    return mag ** (p - 1.0)
