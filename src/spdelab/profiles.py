"""Scalar convex profiles psi: [0, inf) -> [0, inf) driving the potentials.

Every potential in this package integrates a radial profile of either a face
gradient, a pairwise difference, or the state itself.  A profile exposes the
few scalar maps the solvers need: the value, the (minimal-section) slope,
``maps`` (value, slope and an almost-everywhere curvature for Newton steps
together), the slope limit at 0+ (nonzero only for kinked profiles like the
raw absolute value), and the radial proximal map ``r + tau * psi'(r) = s``
(closed forms over ``yosida.prox_radius``).  ``maps`` pays one power per
point: raw powers share ``t = s^(p-1)`` between value, slope and curvature,
and the Moreau-Yosida profiles take all three from one resolvent radius r
and ``r^(p-1)`` (at p = 3/2 the closed-form root, with no radius solve of
its own).  The maps switch no floating-point error state of their own.

Supported families: raw powers ``s^p / p`` with p in [1, 2] and their
Moreau-Yosida regularizations.  A quadratic face term ``q s^2 / 2``
(viscosity) is not a profile: the potentials carry it per face, and
``EdgeConjugate`` takes it as ``Q``.
"""

from __future__ import annotations

import numpy as np

from . import yosida

CURVATURE_CAP = 1e12


class RadialProfile:
    """Interface: ``value``, ``slope``, ``maps`` and ``prox_radius`` of nonnegative magnitudes."""

    kink: float = 0.0  # slope limit at 0+, nonzero for nonsmooth-at-zero profiles
    delta: float | None = None  # Yosida parameter when the profile is regularized
    curvature_bounded: bool = False  # True when psi'' is bounded (Newton-friendly)
    slope_unbounded: bool = False  # True when psi' is surjective onto [0, inf)

    def signed_slope(self, x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * self.slope(np.abs(x))

    def slope_lipschitz(self) -> float:
        """Global Lipschitz constant of the slope (inf when unbounded)."""
        return np.inf


class PowerProfile(RadialProfile):
    """Raw power ``s^p / p``; multivalued slope at 0 when p = 1."""

    def __init__(self, p: float):
        if not 1.0 <= p <= 2.0:
            raise ValueError(f"power must lie in [1, 2], got {p}")
        self.p = float(p)
        self.kink = 1.0 if self.p == 1.0 else 0.0
        self.curvature_bounded = self.p == 2.0
        self.slope_unbounded = self.p > 1.0

    def _power(self, s):
        """s as floats and the slope ``t = s^(p-1)`` (0 at s = 0 when p = 1)."""
        s = np.asarray(s, dtype=float)
        return s, (s > 0.0).astype(float) if self.p == 1.0 else s ** (self.p - 1.0)

    def value(self, s):
        s, t = self._power(s)
        return s * t / self.p

    def slope(self, s):
        return self._power(s)[1]

    def maps(self, s):
        """``(value, slope, curvature)`` at s from one power ``t = s^(p-1)``; the
        curvature ``(p-1) t / s`` is capped at ``CURVATURE_CAP``."""
        s, t = self._power(s)
        p = self.p
        if p == 1.0:
            curv = np.zeros_like(s)
        elif p == 2.0:
            curv = np.ones_like(s)
        else:
            # at or below this s the curvature reaches the cap, so it is not divided out
            at_cap = ((p - 1.0) / CURVATURE_CAP) ** (1.0 / (2.0 - p))
            curv = np.divide((p - 1.0) * t, s, out=np.full_like(s, CURVATURE_CAP), where=s > at_cap)
            np.minimum(curv, CURVATURE_CAP, out=curv)
        return s * t / p, t, curv

    def prox_radius(self, tau, s):
        return yosida.prox_radius(self.p, tau, s)

    def slope_lipschitz(self) -> float:
        return 1.0 if self.p == 2.0 else np.inf

    def __repr__(self):
        return f"PowerProfile(p={self.p})"


class YosidaPowerProfile(RadialProfile):
    """Moreau-Yosida envelope of ``s^p / p``; slope is 1/delta-Lipschitz."""

    curvature_bounded = True

    def __init__(self, p: float, delta: float):
        if not 1.0 <= p <= 2.0:
            raise ValueError(f"power must lie in [1, 2], got {p}")
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.p = float(p)
        self.delta = float(delta)
        self.slope_unbounded = self.p > 1.0

    def value(self, s):
        return self.maps(s)[0]

    def slope(self, s):
        s = np.asarray(s, dtype=float)
        return (s - yosida.prox_radius(self.p, self.delta, s)) / self.delta

    def maps(self, s):
        """``(value, slope, curvature)`` at s from one resolvent radius r and
        one power ``t = r^(p-1)``."""
        s = np.asarray(s, dtype=float)
        p, d = self.p, self.delta
        if p == 1.5:
            # the closed-form root sqrt(r) is r^(p-1) itself
            t = yosida._sqrt_radius(d, np.maximum(s, 0.0))
            r = t * t
        else:
            r = yosida.prox_radius(p, d, s)
            t = r ** (p - 1.0)
        slope = (s - r) / d
        value = 0.5 * d * slope**2 + r * t / p
        if p == 1.0:
            return value, slope, np.where(s < d, 1.0 / d, 0.0)
        if p == 2.0:
            return value, slope, np.full_like(s, 1.0 / (1.0 + d))
        # chain rule through the resolvent: phi' / (1 + delta phi'), phi' = (p-1) t / r
        if p == 1.5:
            # with t = sqrt(r) this is 1 / (2t + delta): exactly 1/delta at r = 0
            return value, slope, 1.0 / (2.0 * t + d)
        # (r == 0) turns the 0/0 at r = 0 into its limit 1/delta
        at, zero = (p - 1.0) * t, r == 0.0
        return value, slope, (at + zero) / (r + d * at + d * zero)

    def prox_radius(self, tau, s):
        # prox of a Moreau envelope: (delta s + tau prox_{(tau+delta) psi}(s)) / (tau + delta)
        tau = np.asarray(tau, dtype=float)
        s = np.asarray(s, dtype=float)
        d = self.delta
        return (d * s + tau * yosida.prox_radius(self.p, tau + d, s)) / (tau + d)

    def slope_lipschitz(self) -> float:
        return 1.0 / self.delta

    def __repr__(self):
        return f"YosidaPowerProfile(p={self.p}, delta={self.delta})"


class EdgeConjugate:
    """Fenchel conjugate of an edge penalty ``h(g) = W psi(|g|) + Q g^2 / 2``.

    Exposes the maps a dual Newton method needs.  The conjugate is smooth
    whenever Q > 0 or psi has unbounded slope (raw powers p > 1); for the
    pure kinked case (p = 1, Q = 0) its domain is the box ``|y| <= W`` and
    the projected variant of the solver applies instead.
    """

    def __init__(self, profile: RadialProfile, W, Q):
        self.profile = profile
        self.W = np.asarray(W, dtype=float)
        self.Q = np.asarray(Q, dtype=float)
        self._quad = bool((self.Q > 0.0).any())
        if self._quad and not (self.Q > 0.0).all():
            raise ValueError("Q must be zero on every edge or positive on every edge")

    def _radius(self, t):
        """Solve ``W psi'(r) + Q r = t`` for r >= 0 given magnitudes t >= 0,
        in closed form over the profiles' prox radii.

        Returns r together with the profile's ``maps`` at r.
        """
        prof = self.profile
        W, Q = self.W, self.Q
        t = np.asarray(t, dtype=float)
        if self._quad:
            # r + (W/Q) psi'(r) = t/Q
            r = prof.prox_radius(W / Q, t / Q)
        else:
            # raw power: W r^(p-1) = t; the conjugate of a Moreau envelope
            # is psi* + (delta/2) y^2, so its slope adds delta t/W
            r = (t / W) ** (1.0 / (prof.p - 1.0))
            if prof.delta is not None:
                r = r + prof.delta * t / W
        return r, prof.maps(r)

    def maps(self, y):
        """``(value(y), slope(y), curvature(y))`` from one radius solve."""
        t = np.abs(y)
        r, (psi, _, psi_curv) = self._radius(t)
        value = t * r - (self.W * psi + 0.5 * self.Q * r**2)
        # (h*)''(y) = 1 / h''(g(y)); zero inside a kink's flat region
        denom = self.W * psi_curv + self.Q
        flat = (r <= 0.0) & (self.profile.kink > 0.0)
        with np.errstate(divide="ignore"):
            curvature = np.where(denom > 0.0, 1.0 / denom, 0.0)
        return value, np.sign(y) * r, np.where(flat, 0.0, curvature)
