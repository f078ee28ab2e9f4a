"""The delta-approximate flux f^delta.

f^delta interpolates f linearly in u between the stationary profiles on the
delta-grid.  The front-tracking output is an exact entropy solution of the
conservation law with this flux, which is what the entropy checks test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stationary import g_of, profile_slope, solve_level

# relative slack for deciding that a g-value sits on the delta-grid
EPS_GRID = 1e-9


def _pointwise(method):
    """method(self, x, u, z, on_grid) on broadcast arrays and their cells; floats on scalars."""
    def call(self, x, u):
        scalar = np.ndim(x) == 0 and np.ndim(u) == 0
        x, u = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                                   np.atleast_1d(np.asarray(u, dtype=float)))
        out = method(self, x, u, *self._locate(x, u))
        return float(out[0]) if scalar else out
    return call


@dataclass
class ApproxFlux:
    """Piecewise-linear-in-u interpolation of f between stationary profiles.

    Matches f exactly wherever g(x, u) lands on the delta-grid; between
    consecutive grid profiles it is the chord.
    """

    base: object
    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        self.base.require_alpha()

    def _locate(self, x, u):
        """Cell index z with g in [delta z, delta (z+1)), snapping grid hits."""
        g = g_of(self.base, x, u)
        t = g / self.delta
        nearest = np.round(t)
        on_grid = np.abs(t - nearest) <= EPS_GRID * np.maximum(1.0, np.abs(t))
        z = np.where(on_grid, nearest, np.floor(t)).astype(np.int64)
        return z, on_grid

    def _cell_states(self, x, z):
        """U[delta z](x) and U[delta (z+1)](x), from one stacked inversion."""
        delta = self.delta
        return solve_level(self.base, x, np.array((delta * z, delta * (z + 1))))

    @_pointwise
    def eval(self, x, u, z, on_grid):
        delta = self.delta
        out = delta * np.abs(z).astype(float)
        off = ~on_grid
        if np.any(off):  # grid hits need no inversion; solve only between levels
            xo, uo, zo = x[off], u[off], z[off]
            u0, u1 = self._cell_states(xo, zo)
            s = np.where(zo >= 0, 1.0, -1.0)
            out[off] += s * delta * (uo - u0) / (u1 - u0)
        return out

    @_pointwise
    def eval_dx(self, x, u, z, on_grid):
        """Exact x-derivative of the interpolation formula via profile slopes."""
        u0, u1 = self._cell_states(x, z)
        du0 = profile_slope(self.base, x, u0)
        du1 = profile_slope(self.base, x, u1)
        s = np.where(z >= 0, 1.0, -1.0)
        delta = self.delta
        gap = u1 - u0
        interior = s * delta * (-du0 * gap - (u - u0) * (du1 - du0)) / (gap * gap)
        # one-sided-consistent value on the grid: the (u - u0) term vanishes
        at_grid = -du0 * s * delta / gap
        return np.where(on_grid, at_grid, interior)
