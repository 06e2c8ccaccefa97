"""Resolvent radius of the radial power laws ``|xi|^p / p`` with p in [1, 2].

The resolvent ``R_delta xi`` is the unique solution zeta of
``zeta + delta * phi(zeta) = xi``; it keeps the direction of xi and shrinks
its magnitude s to the radius r solving ``r + delta r^(p-1) = s``
(``prox_radius``).  The radius has a closed form for p = 1 (soft threshold),
p = 3/2 (the square root of the radius solves a quadratic) and p = 2 (linear
shrinkage); other powers use a monotone Newton solve from above.  The
Moreau-Yosida envelope and its slope ``(xi - R_delta xi) / delta`` are built
on it by ``profiles.YosidaPowerProfile``.  p = 2 is admitted purely as an
analytic reference case.
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
