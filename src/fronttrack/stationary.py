"""Stationary profiles: the sign-flux map g and its inversion U[g].

g(x, u) = sgn(u) f(x, u) is strictly increasing in u, so fixing a level g
and solving f(x, u) = |g| on the branch sgn(u) = sgn(g) yields the unique
stationary profile U[g].  Front positions are the only dynamic quantities in
the tracker; everything else is evaluated through these profiles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# inversion residual target, relative to max(1, |level|); root-finding on a
# C^2 monotone branch is cheap and downstream event geometry needs tight levels
TOL_INV = 1e-12

# analytically guaranteed bracket: f >= alpha u^2/2 makes f(x, 1.01*sqrt(2g/alpha))
# overshoot the target level
BRACKET_PAD = 1.01

_MAX_NEWTON = 100


class InversionError(RuntimeError):
    """Level exceeds the flux's reachable range at some x (bad alpha or box)."""

    def __init__(self, x, level):
        self.x = x
        self.level = level
        super().__init__(f"cannot bracket level {level!r} at x={x!r}")


def g_of(flux, x, u):
    """Sign-flux map sgn(u) f(x, u); strictly increasing in u at fixed x."""
    return np.sign(u) * flux.f(x, u)


class LevelConstants(NamedTuple):
    s: np.ndarray        # sign of g: the branch
    g_abs: np.ndarray    # the target value of f
    u_hi: np.ndarray     # analytic upper bracket
    start: np.ndarray    # Newton's start without a guess
    tol: np.ndarray      # residual target; infinite at g = 0, whose U is 0


def level_constants(flux, g):
    """solve_level's constants for levels g, which are free of x: build them
    once to invert the same levels at many positions."""
    alpha = flux.require_alpha()
    g_abs = np.abs(np.asarray(g, dtype=float))
    u_hi = np.sqrt(2.0 * g_abs / alpha) * BRACKET_PAD
    tol = np.where(g_abs > 0.0, TOL_INV * np.maximum(1.0, g_abs), np.inf)
    return LevelConstants(np.sign(g, dtype=float), g_abs, u_hi, u_hi / BRACKET_PAD, tol)


def solve_level(flux, x, g, guess=0.0):
    """Vectorized inversion: u with f(x, u) = |g| and sgn(u) = sgn(g).

    Newton on the monotone branch, started from a warm ``guess`` clipped to
    the analytic upper bracket, or from the bracket where the guess is zero
    (the default) or not a number.  Convexity makes the from-above iteration
    monotone, so no bisection safeguard is needed beyond clipping into
    [0, bracket].  ``g`` is levels or their ``level_constants``; x keeps its
    shape, so levels stacked on shared x evaluate its part of f once per point,
    and ``flux.at`` binds f at x once per call, so a flux whose ``at`` shares
    that part evaluates it once per call, not per iteration.
    """
    s, g_abs, u_hi, start, tol = g if isinstance(g, LevelConstants) else \
        level_constants(flux, g)
    x = np.asarray(x, dtype=float)
    f, fu = flux.at(x)
    w = np.minimum(np.abs(np.asarray(guess, dtype=float)), u_hi)
    w = np.where(w > 0.0, w, start)  # 0 at g = 0, where the bracket is 0

    for _ in range(_MAX_NEWTON):
        sw = s * w
        phi = f(sw) - g_abs
        active = np.abs(phi) > tol
        if not active.any():
            break
        dphi = s * fu(sw)  # |f_u| on the branch, > 0 away from u=0
        step = np.where(active, phi / np.where(dphi > 0.0, dphi, 1.0), 0.0)
        w = np.minimum(np.maximum(w - step, 0.0), u_hi)
    else:
        x, g, active = np.broadcast_arrays(x, s * g_abs, active)
        bad = tuple(np.argwhere(active)[0])
        raise InversionError(float(x[bad]), float(g[bad]))
    u = s * w  # narrower than x if the flux is free of x or the guess solves it
    shape = np.broadcast(x, u).shape
    return u if u.shape == shape else np.broadcast_to(u, shape).copy()


def solve_point(point, x, c, guess):
    """solve_level at one point on Python floats, through a flux's ``point``.

    ``c`` is one level's (s, g_abs, u_hi, start, tol) from ``level_constants``
    as floats.  The operations are those of one element of solve_level's
    Newton, in the same order, so from the same guess the result has the
    same bits; max(0.0, w) returns 0.0 for w = -0.0, as np.maximum(w, 0.0)
    does, where max(w, 0.0) would return -0.0.
    """
    s, g_abs, u_hi, start, tol = c
    w = min(abs(guess), u_hi)
    if not w > 0.0:
        w = start
    for _ in range(_MAX_NEWTON):
        sw = s * w
        f, fu, _ = point(x, sw)
        phi = f - g_abs
        if not abs(phi) > tol:
            return sw
        dphi = s * fu
        w = min(max(0.0, w - phi / (dphi if dphi > 0.0 else 1.0)), u_hi)
    raise InversionError(x, s * g_abs)


def profile_slope(flux, x, u):
    """Slope dU/dx = -f_x / f_u of the stationary profile through (x, u).

    Implicit differentiation of f(x, U(x)) = const; the zero profile (u = 0,
    where f_u vanishes too) has slope 0.
    """
    zero = u == 0.0
    return np.where(zero, 0.0, -flux.fx(x, u) / np.where(zero, 1.0, flux.fu(x, u)))


def inversion_gap_bound(g1, g2, alpha):
    """Uniform sup-norm bound on U[g1] - U[g2] from the convexity constant.

    Same-sign levels (or one zero): sqrt(2 |g1 - g2| / alpha).  Strictly
    opposite signs: sqrt(2/alpha) (sqrt|g1| + sqrt|g2|), via the zero profile.
    Elementwise on arrays of levels, with the bits of one call per pair; a
    pair of numbers gives a numpy float.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    opposite = np.sqrt(2.0 / alpha) * (np.sqrt(np.abs(g1)) + np.sqrt(np.abs(g2)))
    return np.where(g1 * g2 < 0.0, opposite, np.sqrt(2.0 * np.abs(g1 - g2) / alpha))[()]
