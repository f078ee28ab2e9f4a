"""Builtin initial-data profiles and the smooth compactly supported bump."""

from __future__ import annotations

import numpy as np

from . import expr as fexpr

PROFILE_NAMES = ("zero", "step", "piecewise", "bump", "sine", "expr")


def smooth_bump(s):
    """C-infinity bump: exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside; peak 1."""
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(arr)
    inside = np.abs(arr) < 1.0
    q = 1.0 - arr[inside] ** 2
    out[inside] = np.exp(1.0 - 1.0 / q)
    return float(out[0]) if np.ndim(s) == 0 else out


def smooth_bump_prime(s):
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(arr)
    inside = np.abs(arr) < 1.0
    si = arr[inside]
    q = 1.0 - si ** 2
    out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * si / (q * q))
    return float(out[0]) if np.ndim(s) == 0 else out


def make_initial(name, **params):
    """Build a vectorized initial-data sampler x -> u0(x) from a named profile."""
    if name == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))

    if name == "step":
        left = float(params.get("left", 1.0))
        right = float(params.get("right", 0.0))
        pos = float(params.get("pos", 0.0))
        return lambda x: np.where(np.asarray(x, dtype=float) < pos, left, right)

    if name == "piecewise":
        values = np.asarray(params["values"], dtype=float)
        breaks = np.asarray(params["breaks"], dtype=float)
        if len(values) != len(breaks) + 1:
            raise ValueError("piecewise needs one more value than breaks")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("piecewise breaks must be strictly increasing")
        return lambda x: values[np.searchsorted(breaks, np.asarray(x, dtype=float),
                                                side="right")]

    if name == "bump":
        amp = float(params.get("amp", 1.0))
        center = float(params.get("center", 0.0))
        width = float(params.get("width", 1.0))
        if width <= 0:
            raise ValueError("bump width must be positive")
        return lambda x: amp * smooth_bump((np.asarray(x, dtype=float) - center) / width)

    if name == "sine":
        amp = float(params.get("amp", 1.0))
        freq = float(params.get("freq", 1.0))
        phase = float(params.get("phase", 0.0))
        return lambda x: amp * np.sin(freq * np.asarray(x, dtype=float) + phase)

    if name == "expr":
        tree = fexpr.parse(params["expr"])
        bad = fexpr.free_vars(tree) - {"x"}
        if bad:
            raise ValueError(f"initial-data expression uses unknown variables {bad}")
        # np.full gives a constant expression (one number) the shape of x
        return lambda x: np.full(np.shape(x), fexpr.evaluate(
            tree, np.asarray(x, dtype=float), np.zeros(np.shape(x))))

    raise ValueError(f"unknown initial profile {name!r}; choose from {PROFILE_NAMES}")
