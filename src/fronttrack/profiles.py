"""Builtin initial-data profiles and the smooth compactly supported bump."""

from __future__ import annotations

import numpy as np

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
    """Build a vectorized initial-data sampler x -> u0(x) from a named profile;
    a parameter the profile does not take is a ValueError."""
    if name == "zero":
        sampler = lambda x: np.zeros_like(np.asarray(x, dtype=float))

    elif name == "step":
        left = float(params.pop("left", 1.0))
        right = float(params.pop("right", 0.0))
        pos = float(params.pop("pos", 0.0))
        sampler = lambda x: np.where(np.asarray(x, dtype=float) < pos, left, right)

    elif name == "piecewise":
        values = np.asarray(params.pop("values"), dtype=float)
        breaks = np.asarray(params.pop("breaks"), dtype=float)
        if len(values) != len(breaks) + 1:
            raise ValueError("piecewise needs one more value than breaks")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("piecewise breaks must be strictly increasing")
        sampler = lambda x: values[np.searchsorted(breaks, np.asarray(x, dtype=float),
                                                   side="right")]

    elif name == "bump":
        amp = float(params.pop("amp", 1.0))
        center = float(params.pop("center", 0.0))
        width = float(params.pop("width", 1.0))
        if width <= 0:
            raise ValueError("bump width must be positive")
        sampler = lambda x: amp * smooth_bump((np.asarray(x, dtype=float) - center) / width)

    elif name == "sine":
        amp = float(params.pop("amp", 1.0))
        freq = float(params.pop("freq", 1.0))
        phase = float(params.pop("phase", 0.0))
        sampler = lambda x: amp * np.sin(freq * np.asarray(x, dtype=float) + phase)

    elif name == "expr":
        from . import expr as fexpr  # the parser loads only for DSL initial data
        tree = fexpr.parse(params.pop("expr"))
        bad = fexpr.free_vars(tree) - {"x"}
        if bad:
            raise ValueError(f"initial-data expression uses unknown variables {bad}")
        # np.full gives a constant expression (one number) the shape of x
        sampler = lambda x: np.full(np.shape(x), fexpr.evaluate(
            tree, np.asarray(x, dtype=float), np.zeros(np.shape(x))))

    else:
        raise ValueError(f"unknown initial profile {name!r}; choose from {PROFILE_NAMES}")
    if params:
        raise ValueError(f"unknown {name} params {params}")
    return sampler
