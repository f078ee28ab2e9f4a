"""Every checkable estimate the solver is supposed to satisfy.

Entropy residuals (exact and delta-approximate flux), flux conservation along
characteristics, domain of dependence, flux-convergence bounds, plus an
independent first-order Godunov oracle and L1 comparison tooling.  All checks
are pure functions over immutable inputs and report measured-vs-bound pairs.
``CHECKS`` is the ordered registry of the checks a run can request: each one
reads a ``RunContext`` and adds its measured-vs-bound rows to a report.

The package imports this module on the first read of one of its names, and
it loads numpy and nothing heavier: scipy is imported inside
``SingleFrontSolution``, the one oracle that uses it, and any other function
that needs scipy must likewise import it in its own body.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .fluxes import speed_envelope
from .profiles import make_initial, smooth_bump, smooth_bump_prime
from .riemann import ApproxFlux
from .stationary import g_of, inversion_gap_bound, profile_slope, solve_level
from .tracker import (H_ODE_DEFAULT, Tracker, TrackedSolution, common_pieces,
                      l1_g_distance, quantize_initial, sample_g, sample_initial, sample_u,
                      tv_g)

# peak of |d/ds bump(s)| over np.linspace(-1, 1, 400001), the bits of that scan
BUMP_PRIME_MAX = 2.1703570856905516

# entropy-residual noise floor: cell-crossing errors alternate sign along the
# jump curves, which knocks the worst-case first-order midpoint error down to
# ~spacing^1.5 in practice; both constants carry a 10x margin over the largest
# ratios observed while calibrating on shock/fan/multi-front and front-free runs
TOL_QUAD_C = 0.5
TOL_SMOOTH_C = 1.0

# quadrature rows per profile inversion, per f call and per pass of the
# pairs when the entropy residuals stream the grid: it bounds the battery's
# whole footprint; on benchmark.ini's 256 x 256 grid and 20 pairs the
# tracemalloc peak was 0.63 / 0.92 / 1.43 MiB for 8 / 16 / 32 rows, with the
# time level between them, and fewer rows pay Newton's overhead more often
SAMPLE_BLOCK_ROWS = 16


class SupportError(ValueError):
    pass


@dataclass(frozen=True)
class QuadSpec:
    """Uniform midpoint quadrature over [x_lo, x_hi] x [t_lo, t_hi].

    ``t_lo`` is the initial time of the entropy inequality; the initial-data
    line integral is evaluated there.
    """

    x_lo: float
    x_hi: float
    t_lo: float
    t_hi: float
    nx: int = 256
    nt: int = 256

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / self.nx

    @property
    def dt(self):
        return (self.t_hi - self.t_lo) / self.nt

    def x_mids(self):
        return self.x_lo + (np.arange(self.nx) + 0.5) * self.dx

    def t_mids(self):
        return self.t_lo + (np.arange(self.nt) + 0.5) * self.dt


@dataclass(frozen=True)
class TestFunction:
    """Tensor product of two smooth bumps: phi(x,t) = B((x-xc)/xr) B((t-tc)/tr).

    Nonnegative, C-infinity, compactly supported; spatial support must sit
    strictly inside the quadrature box, while the temporal support may be
    clipped at the initial time (that is what the initial-data term is for).
    """

    x_center: float
    x_radius: float
    t_center: float
    t_radius: float

    __test__ = False  # not a pytest class, despite the name

    def _bumps(self, x, t):
        """B and B' at the scaled x, then at the scaled t."""
        sx = (np.asarray(x, dtype=float) - self.x_center) / self.x_radius
        st = (t - self.t_center) / self.t_radius
        return smooth_bump(sx), smooth_bump_prime(sx), smooth_bump(st), smooth_bump_prime(st)

    def _terms(self, bx, dbx, bt, dbt):
        """phi, phi_x and phi_t from the bumps: the one place they are formed."""
        return bx * bt, dbx / self.x_radius * bt, bx * dbt / self.t_radius

    def phi(self, x, t):
        return self._terms(*self._bumps(x, t))[0]

    def phi_x(self, x, t):
        return self._terms(*self._bumps(x, t))[1]

    def phi_t(self, x, t):
        return self._terms(*self._bumps(x, t))[2]

    def block(self, xs, ts, t0):
        """phi's bumps on the grid ts x xs, and phi on the line t0.

        Returns the row slice of ts and the column slice of xs on which the
        bumps are nonzero, the bumps (B and B' at the scaled xs, then at the
        scaled ts as a (len(ts), 1) column), and phi(xs, t0); ``_terms`` forms
        phi, phi_x and phi_t on any rows and columns of the bumps.
        """
        bx, dbx, bt, dbt = self._bumps(xs, np.append(ts, t0)[:, None])
        line = self._terms(bx, dbx, bt[-1], dbt[-1])[0]
        bumps = bx, dbx, bt[:-1], dbt[:-1]
        return _nonzero_span(bt[:-1, 0]), _nonzero_span(bx), bumps, line

    @property
    def max_phi(self):
        return 1.0

    @property
    def max_phi_x(self):
        return BUMP_PRIME_MAX / self.x_radius

    @property
    def max_phi_t(self):
        return BUMP_PRIME_MAX / self.t_radius

    def check_support(self, quad):
        if not (quad.x_lo < self.x_center - self.x_radius
                and self.x_center + self.x_radius < quad.x_hi):
            raise SupportError(f"x-support of {self} escapes the quadrature box")
        if not self.t_center + self.t_radius < quad.t_hi:
            raise SupportError(f"t-support of {self} escapes the quadrature box")


# ---------------------------------------------------------------------------
# entropy residuals
# ---------------------------------------------------------------------------

def _nonzero_span(a):
    """The slice from the first to the last nonzero entry of a 1-D array."""
    nz = np.flatnonzero(a)
    return slice(nz[0], nz[-1] + 1) if len(nz) else slice(0, 0)


def _residuals(solution, f, fx, quad, pairs):
    """Residuals of the (k, phi) pairs over the quadrature grid with the flux
    pair (f, fx); returns (residual, fx(x, k) row) for each pair.

    u and f(x, u) are sampled SAMPLE_BLOCK_ROWS rows at a time and each block
    is used up at once: every pair adds the sums of its rows into the pair's
    nt-long row-sum vector, whose running total is the residual.  A
    TrackedSolution's block is one solve_level call on its stacked levels;
    Newton and f are elementwise, so the bits are those of one call per row.

    On finite samples every term vanishes off phi's support, so a row is
    summed over the support's columns zero-padded to the whole row (a zero
    off it may be -0.0, which changes no nonzero sum).  A block with a
    non-finite u or f(x, u) is summed over whole rows for every pair, and a
    pair with a non-finite f(x, k) or fx(x, k) row is summed so in every
    block, which carries the value into the residual.
    """
    if not pairs:
        return []
    u_of = solution.sample_u if hasattr(solution, "sample_u") else solution
    xs, ts = quad.x_mids(), quad.t_mids()
    whole = slice(0, quad.nt), slice(None)
    state = []
    for k, phi in pairs:
        k_row = np.full_like(xs, k)
        f_k, fx_k = (np.asarray(g(xs, k_row), dtype=float) for g in (f, fx))
        rows, cols, bumps, line = phi.block(xs, ts, quad.t_lo)
        if not (np.isfinite(f_k).all() and np.isfinite(fx_k).all()):
            rows, cols = whole
        state.append((k, phi, f_k, fx_k, rows, cols, bumps, line, np.zeros(quad.nt)))
    for start in range(0, quad.nt, SAMPLE_BLOCK_ROWS):
        block_ts = ts[start:start + SAMPLE_BLOCK_ROWS]
        if isinstance(solution, TrackedSolution):
            u = solve_level(solution.tracker.flux, xs,
                            np.array([sample_g(solution.field_at(t), xs) for t in block_ts]))
        else:
            u = np.array([u_of(xs, t) for t in block_ts], dtype=float)
        f_u = np.asarray(f(xs, u), dtype=float)
        finite = np.isfinite(u).all() and np.isfinite(f_u).all()
        for k, phi, f_k, fx_k, rows, cols, (bx, dbx, bt, dbt), _, row_sums in state:
            rows, cols = (rows, cols) if finite else whole
            lo, hi = max(rows.start, start), min(rows.stop, start + len(u))
            if lo >= hi:
                continue
            p, p_x, p_t = phi._terms(bx[cols], dbx[cols], bt[lo:hi], dbt[lo:hi])
            u_b, f_b = (a[lo - start:hi - start, cols] for a in (u, f_u))
            sgn = np.sign(u_b - k)
            grid = np.zeros((hi - lo, len(xs)))
            grid[:, cols] = (np.abs(u_b - k) * p_t + sgn * (f_b - f_k[cols]) * p_x
                             - sgn * fx_k[cols] * p)
            row_sums[lo:hi] = np.sum(grid, axis=1)
    u0 = np.asarray(u_of(xs, quad.t_lo), dtype=float)
    # the row sums added in row order: the value of a running total over rows
    return [(float(np.cumsum(row_sums)[-1]) * (quad.dx * quad.dt)
             + float(np.sum(np.abs(u0 - k) * line)) * quad.dx, fx_k)
            for k, _, _, fx_k, _, _, _, line, row_sums in state]


def kruzkov_residual(solution, flux, k, phi, quad):
    """Entropy-inequality residual for the exact flux; >= 0 for entropy solutions
    up to quadrature error.

    R is the space-time integral of |u-k| phi_t + sgn(u-k)(f(x,u)-f(x,k)) phi_x
    - sgn(u-k) f_x(x,k) phi, plus the initial line integral of |u0-k| phi(.,0).
    """
    phi.check_support(quad)
    return _residuals(solution, flux.f, flux.fx, quad, [(float(k), phi)])[0][0]


def approx_kruzkov_residual(solution, af, k, phi, quad):
    """Entropy residual with f and f_x replaced by the delta-approximate flux.

    Front-tracking output is an exact entropy solution of the approximate
    conservation law, so this must be >= -tol_quad for every (k, phi).
    """
    phi.check_support(quad)
    return _residuals(solution, af.eval, af.eval_dx, quad, [(float(k), phi)])[0][0]


def entropy_tol(quad, phi, tv_u, speed_bound, src_sup, state_scale=1.0):
    """Reported quadrature-noise bound for one (k, phi) residual.

    Two calibrated parts: jump curves cross O(extent/spacing) cells, each
    contributing O(spacing^2 * jump * phi-derivative) with pseudo-random
    signs (net ~spacing^1.5 times the jump mass); plus the plain composite
    midpoint error of the smooth integrand, second order against the
    test-function curvature.
    """
    weight = (phi.max_phi_t + (1.0 + speed_bound) * phi.max_phi_x
              + src_sup * phi.max_phi)
    spacing = max(quad.dx, quad.dt)
    jump_part = TOL_QUAD_C * spacing ** 1.5 * tv_u * weight
    smooth_part = TOL_SMOOTH_C * state_scale * (
        (quad.dt / phi.t_radius) ** 2 * phi.x_radius / phi.t_radius
        + (quad.dx / phi.x_radius) ** 2 * (1.0 + speed_bound) * phi.t_radius / phi.x_radius)
    return jump_part + smooth_part


def entropy_battery(solution, af, quad, rng, pairs, k_bound, tv_u, speed_bound):
    """Randomized (k, phi) battery of approximate entropy residuals.

    Returns one record per pair with the residual and its reported tolerance.
    Every pair is drawn first; u and f^delta(x, u) are then sampled once, one
    row block at a time, and each block is shared by all pairs.
    """
    drawn = []
    x_span = quad.x_hi - quad.x_lo
    t_span = quad.t_hi - quad.t_lo
    for _ in range(pairs):
        k = float(rng.uniform(-k_bound, k_bound))
        xr = float(rng.uniform(0.12, 0.35)) * x_span / 2.0
        xc = float(rng.uniform(quad.x_lo + 1.05 * xr, quad.x_hi - 1.05 * xr))
        tr = float(rng.uniform(0.15, 0.45)) * t_span
        tc = float(rng.uniform(quad.t_lo, quad.t_hi - 1.05 * tr))
        phi = TestFunction(x_center=xc, x_radius=xr, t_center=tc, t_radius=tr)
        phi.check_support(quad)
        drawn.append((k, phi))
    results = _residuals(solution, af.eval, af.eval_dx, quad, drawn)
    return [{"k": k, "phi": phi, "residual": residual,
             "tol": entropy_tol(quad, phi, tv_u, speed_bound, float(np.max(np.abs(fx_row))),
                                state_scale=abs(k) + k_bound)}
            for (k, phi), (residual, fx_row) in zip(drawn, results)]


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------

def _characteristic_step(point, y, z, h, k1=None):
    """One RK4 step of the characteristic system dy = f_u(y, z), dz = -f_x(y, z).

    ``point(y, z)`` returns (f, f_u, f_x), or (None, f_u, f_x): the step reads
    the gradient only; ``k1`` is its value at (y, z) if the caller holds it.
    Plain arithmetic only: Python floats stay floats, arrays stay arrays.
    Subtracting the f_x terms gives the bits of adding their negatives.
    """
    half, sixth = 0.5 * h, h / 6.0  # y + 0.5 * h * k multiplies left to right
    _, k1y, k1z = point(y, z) if k1 is None else k1
    _, k2y, k2z = point(y + half * k1y, z - half * k1z)
    _, k3y, k3z = point(y + half * k2y, z - half * k2z)
    _, k4y, k4z = point(y + h * k3y, z - h * k3z)
    return (y + sixth * (k1y + 2 * k2y + 2 * k3y + k4y),
            z - sixth * (k1z + 2 * k2z + 2 * k3z + k4z))


def characteristic_check(flux, x0, u0, T, steps, window=None):
    """RK4-integrate the characteristic system and report the flux drift.

    The pair (y, z) follows dy = f_u(y, z), dz = -f_x(y, z); f(y, z) is a
    conserved quantity, so the returned max |f(y,z) - f(x0,u0)| measures pure
    integrator error (fourth order in the step).  f, f_u and f_x at a step's
    end come from one evaluation, which is also the next step's first stage,
    and every evaluation is ``flux.point`` on Python floats.
    """
    point = flux.point
    y, z = float(x0), float(u0)
    h = float(T) / int(steps)
    drift = 0.0
    k = point(y, z)
    f0 = k[0]
    for step in range(int(steps)):
        y, z = _characteristic_step(point, y, z, h, k)
        if window is not None and not (window[0] <= y <= window[1]):
            raise ValueError(f"characteristic left the window at y={y}, "
                             f"t~{(step + 1) * h}")
        k = point(y, z)
        drift = max(drift, abs(k[0] - f0))
    return drift


def characteristic_fan(flux, x_origin, g_l, g_r, T, n_chars=64, steps=2000):
    """Exact rarefaction oracle: the fan of characteristics from one point.

    Integrates the characteristic system from z(0) spanning [u_l, u_r] at the
    jump and returns a sampler for u(., T) (profiles outside the fan, linear
    interpolation along the fan).  This is the only place the exact fan is
    materialized; the solver itself never uses it.
    """
    u_l = float(solve_level(flux, x_origin, g_l))
    u_r = float(solve_level(flux, x_origin, g_r))
    z0 = np.linspace(u_l, u_r, n_chars)
    ys = np.full(n_chars, float(x_origin))
    zs = z0.copy()
    h = float(T) / steps

    def gradient(y, z):
        return None, flux.fu(y, z), flux.fx(y, z)

    for _ in range(steps):
        ys, zs = _characteristic_step(gradient, ys, zs, h)

    def sampler(x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inside = (x >= ys[0]) & (x <= ys[-1])
        out = np.empty_like(x)
        out[inside] = np.interp(x[inside], ys, zs)
        left = x < ys[0]
        right = x > ys[-1]
        if np.any(left):
            out[left] = solve_level(flux, x[left], g_l)
        if np.any(right):
            out[right] = solve_level(flux, x[right], g_r)
        return float(out[0]) if scalar else out

    return sampler


class SingleFrontSolution:
    """Independent oracle for one front: scipy RK45 on the jump ODE with
    brentq-based profile inversion (shares no numerics with the tracker)."""

    def __init__(self, flux, g_l, g_r, x0, t_max, rtol=1e-12, atol=1e-13):
        from scipy.integrate import solve_ivp
        from scipy.optimize import brentq

        self.flux = flux
        self.g_l = float(g_l)
        self.g_r = float(g_r)
        alpha = flux.require_alpha()

        def invert(x, g):
            if g == 0.0:
                return 0.0
            hi = math.sqrt(2.0 * abs(g) / alpha) * 1.02 + 1e-12
            s = 1.0 if g > 0 else -1.0
            return s * brentq(lambda w: float(flux.f(x, s * w)) - abs(g),
                              0.0, hi, xtol=1e-14, rtol=8.9e-16)

        self._invert = invert

        def rhs(_t, y):
            ul = invert(y[0], self.g_l)
            ur = invert(y[0], self.g_r)
            return [(abs(self.g_l) - abs(self.g_r)) / (ul - ur)]

        self._sol = solve_ivp(rhs, (0.0, float(t_max)), [float(x0)],
                              method="RK45", dense_output=True,
                              rtol=rtol, atol=atol, max_step=t_max / 50.0)
        if not self._sol.success:
            raise RuntimeError(f"oracle integration failed: {self._sol.message}")

    def position(self, t):
        return float(self._sol.sol(t)[0])

    def sample_u(self, x, t):
        """Trace sampler; the independence of the oracle lives in the
        trajectory, so the profile evaluation may share the library inversion."""
        x = np.asarray(x, dtype=float)
        y = self.position(t)
        g = np.where(x < y, self.g_l, self.g_r)
        out = solve_level(self.flux, x, g)
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# finite-volume oracle
# ---------------------------------------------------------------------------

class CFLError(RuntimeError):
    pass


@dataclass
class FVGrid:
    window: tuple
    cells: int
    dx: float
    u: np.ndarray
    t: float
    cfl: float

    def x_mids(self):
        lo = self.window[0]
        return lo + (np.arange(self.cells) + 0.5) * self.dx

    def sampler(self):
        """Piecewise-constant cell sampler (for L1 comparisons)."""
        lo, hi = self.window
        edges = lo + np.arange(1, self.cells) * self.dx
        u = self.u.copy()

        def sample(x):
            idx = np.clip(np.searchsorted(edges, np.asarray(x, dtype=float),
                                          side="right"), 0, self.cells - 1)
            return u[idx]

        return sample


def fv_reference(flux, u0, window, cells, T, cfl=0.45):
    """First-order Godunov oracle with interface-frozen flux.

    With stationarity at zero, f(x, .) has its minimum 0 at u = 0 for every x,
    so the Godunov interface flux is f(x*, clamp(0 into [u_l, u_r])) for
    undercompressive data and max(f(x*, u_l), f(x*, u_r)) otherwise.
    """
    if not 0.0 < cfl <= 0.45:
        raise ValueError(f"cfl must be in (0, 0.45], got {cfl}")
    alpha = flux.require_alpha()
    lo, hi = float(window[0]), float(window[1])
    cells = int(cells)
    dx = (hi - lo) / cells
    mids = lo + (np.arange(cells) + 0.5) * dx
    ifaces = lo + np.arange(cells + 1) * dx  # includes both window edges

    u = sample_initial(u0, mids)

    g_max = float(np.max(np.abs(g_of(flux, mids, u)))) if cells else 0.0
    m_bound = math.sqrt(2.0 * max(g_max, 1e-300) / alpha) * 1.05 + 1e-9
    v_max = float(max(np.max(np.abs(flux.fu(ifaces, m_bound))),
                      np.max(np.abs(flux.fu(ifaces, -m_bound)))))
    v_max = max(v_max, 1e-12)

    T = float(T)
    if T <= 0.0:
        return FVGrid(window=(lo, hi), cells=cells, dx=dx, u=u, t=0.0, cfl=cfl)
    dt_raw = cfl * dx / v_max
    steps = max(1, math.ceil(T / dt_raw))
    dt = T / steps

    for _ in range(steps):
        ul = np.concatenate((u[:1], u))  # outflow ghosts (zero for compact data)
        ur = np.concatenate((u, u[-1:]))
        speeds = np.maximum(np.abs(flux.fu(ifaces, ul)), np.abs(flux.fu(ifaces, ur)))
        if float(np.max(speeds)) * dt / dx > cfl * (1.0 + 1e-9):
            raise CFLError(
                f"CFL violated: max speed {float(np.max(speeds))} exceeds bound {v_max}"
            )
        undercomp = ul <= ur
        sonic = np.minimum(np.maximum(ul, 0.0), ur)  # clamp 0 into [ul, ur]
        f_min = flux.f(ifaces, sonic)
        f_max = np.maximum(flux.f(ifaces, ul), flux.f(ifaces, ur))
        flux_iface = np.where(undercomp, f_min, f_max)
        u = u - (dt / dx) * (flux_iface[1:] - flux_iface[:-1])

    return FVGrid(window=(lo, hi), cells=cells, dx=dx, u=u, t=T, cfl=cfl)


# ---------------------------------------------------------------------------
# L1 metrics and the dependence cone
# ---------------------------------------------------------------------------

def l1_distance(sampler_a, sampler_b, window, resolution):
    """Midpoint-rule L1 norm of the difference of two samplers over window."""
    lo, hi = float(window[0]), float(window[1])
    n = int(resolution)
    dx = (hi - lo) / n
    xs = lo + (np.arange(n) + 0.5) * dx
    a = np.asarray(sampler_a(xs), dtype=float)
    b = np.asarray(sampler_b(xs), dtype=float)
    return float(np.sum(np.abs(a - b)) * dx)


def l1_u_fields(flux, field_a, field_b, lo, hi, pts_per_piece=8):
    """L1 distance in u between two front fields on [lo, hi].

    Pieces with identical integer levels contribute exactly zero; differing
    pieces are integrated by midpoint rule on the piece, all of them inverted
    in one stacked call.
    """
    cuts, ga, gb = common_pieces(field_a, field_b, lo, hi)
    differ = ga != gb
    width = np.diff(cuts)[differ, None]
    xs = cuts[:-1][differ, None] + (np.arange(pts_per_piece) + 0.5) * width / pts_per_piece
    ua, ub = solve_level(flux, xs, np.array((ga[differ], gb[differ]))[:, :, None])
    return float(np.sum(np.abs(ua - ub) * width / pts_per_piece))


def domain_of_dependence_check(flux, u0, u0_perturbed, delta, window, cells, T, R,
                               h_ode=H_ODE_DEFAULT):
    """Run both initial data and measure the L1 difference of u on [-R, R] at T."""
    tr = Tracker(flux, delta, window, h_ode=h_ode)
    fa = quantize_initial(flux, u0, delta, window, cells)
    fb = quantize_initial(flux, u0_perturbed, delta, window, cells)
    Fa, _ = tr.advance(fa, T)
    Fb, _ = tr.advance(fb, T)
    return l1_u_fields(flux, Fa, Fb, -float(R), float(R))


# ---------------------------------------------------------------------------
# flux convergence (the uniform bounds under delta-refinement)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluxConvergenceRow:
    delta: float
    sup_f_err: float
    bound_f: float
    sup_fx_err: float
    bound_fx: float

    @property
    def ok(self):
        return self.sup_f_err <= self.bound_f and self.sup_fx_err <= self.bound_fx


def flux_convergence_check(flux, deltas, box, nx=48, nu=96):
    """Sup errors of the approximate flux and its x-derivative per delta.

    Bounds: sqrt(2 delta/alpha)(1 + max theta(+-(M+delta))) + delta for f, and
    sqrt(2 delta/alpha)(C1 + 3 C2 C3) for f_x, with the constants read off the
    sampled box (C1 = sup|f_xu|, C2 = sup f_uu, C3 = sup_level sup_x |dU/dx|).
    """
    (x_lo, x_hi), (u_lo, u_hi) = box
    alpha = flux.require_alpha()
    xs = np.linspace(x_lo, x_hi, nx)
    us = np.linspace(u_lo, u_hi, nu)
    X, U = np.meshgrid(xs, us, indexing="ij")
    M = float(max(abs(u_lo), abs(u_hi)))

    h = 1e-5
    c1 = float(np.max(np.abs(
        (np.asarray(flux.fu(X + h, U)) - np.asarray(flux.fu(X - h, U))) / (2 * h))))
    c2 = float(np.max(np.abs(np.asarray(flux.fuu(X, U)))))

    f_exact = np.asarray(flux.f(X, U), dtype=float)
    fx_exact = np.asarray(flux.fx(X, U), dtype=float)

    g_box = float(np.max(np.abs(g_of(flux, X, U))))

    rows = []
    for delta in deltas:
        delta = float(delta)
        af = ApproxFlux(flux, delta)
        f_err = float(np.max(np.abs(af.eval(X.ravel(), U.ravel()).reshape(X.shape)
                                    - f_exact)))
        fx_err = float(np.max(np.abs(af.eval_dx(X.ravel(), U.ravel()).reshape(X.shape)
                                     - fx_exact)))
        theta = speed_envelope(flux, [-(M + delta), M + delta], xs).lipschitz_L(M + delta)
        bound_f = math.sqrt(2.0 * delta / alpha) * (1.0 + theta) + delta

        # C3 over all levels the box can reach (one cell above, both signs)
        g_levels = np.linspace(-(g_box + delta), g_box + delta, 81)
        g_levels = g_levels[np.abs(g_levels) > 1e-14]
        XL, GL = np.meshgrid(xs, g_levels, indexing="ij")
        du = profile_slope(flux, XL, solve_level(flux, XL, GL))
        c3 = float(np.max(np.abs(du)))
        bound_fx = math.sqrt(2.0 * delta / alpha) * (c1 + 3.0 * c2 * c3)

        rows.append(FluxConvergenceRow(delta=delta, sup_f_err=f_err, bound_f=bound_f,
                                       sup_fx_err=fx_err, bound_fx=bound_fx))
    return rows


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    measured: float
    bound: float
    passed: bool
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "measured": self.measured, "bound": self.bound,
                "passed": bool(self.passed), "params": self.params}


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, name, measured, bound, passed, **params):
        self.checks.append(CheckResult(name, float(measured), float(bound),
                                       bool(passed), params))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# the run checks
# ---------------------------------------------------------------------------

LIPSCHITZ_PAIRS = 20
FV_CELLS = 2000
FV_CFL = 0.45
FV_REL_TOL = 0.05  # L1 bound relative to the L1 norm of u0


@dataclass
class RunContext:
    config: object      # the run's config (cli.RunConfig)
    flux: object
    field0: object
    fields: dict        # time -> FrontField snapshots at output times (and t_end)
    log: list           # Events of the whole run, in order
    solution: TrackedSolution  # snapshots on demand, shared by the checks
    speed_bound: float  # max |f_u| over the working window for |u| <= u_sup
    u_sup: float
    u0_l1: float

    def rng(self, check_name):
        """The check's random stream, keyed by the run's seed and its name."""
        return random.Random(f"{self.config.seed} {check_name}")


def _check_tvd(ctx, report):
    """TV non-increasing at every event, front count budget, grid closure."""
    worst = max([0.0] + [e.tv_after - e.tv_before for e in ctx.log])
    report.add("tvd.events", worst, 0.0, worst <= 0.0, events=len(ctx.log))

    n0 = ctx.field0.n_fronts
    report.add("tvd.event_budget", float(len(ctx.log)),
               float(max(0, n0 - 1)), len(ctx.log) <= max(0, n0 - 1),
               initial_fronts=n0)

    dz = np.diff(ctx.fields[max(ctx.fields)].z)
    max_up = float(np.max(dz)) if dz.size else 0.0
    report.add("admissibility.upward_jumps", max_up, 1.0, max_up <= 1.0)

    # levels stay on the delta-grid: reconstruct g from samples and compare
    xs = np.linspace(*ctx.config.window, 257)
    g = g_of(ctx.flux, xs, _fields_u(ctx, xs))
    delta = ctx.field0.delta  # every snapshot of the run is on one delta-grid
    worst_grid = float(np.max(np.abs(g - np.round(g / delta) * delta)))
    report.add("closure.delta_grid", worst_grid, 1e-9, worst_grid <= 1e-9)


def _check_entropy(ctx, report):
    pairs = int(ctx.config.tolerances.get("entropy_pairs", 20))
    quad_n = int(ctx.config.tolerances.get("entropy_quad", 256))
    if ctx.config.t_end <= 0:
        report.add("entropy.battery", 0.0, 0.0, True, pairs=0)
        return
    quad = QuadSpec(ctx.config.window[0], ctx.config.window[1],
                    0.0, ctx.config.t_end, nx=quad_n, nt=quad_n)
    af = ApproxFlux(ctx.flux, ctx.config.delta)
    tv_u = _tv_u_estimate(ctx)
    rng = ctx.rng("entropy")
    records = entropy_battery(ctx.solution, af, quad, rng, pairs,
                              k_bound=1.2 * ctx.u_sup + 1e-6,
                              tv_u=tv_u, speed_bound=ctx.speed_bound)
    worst = min((r["residual"] + r["tol"] for r in records), default=0.0)
    ok = all(r["residual"] >= -r["tol"] for r in records)
    report.add("entropy.battery", worst, 0.0, ok and worst >= 0.0,
               pairs=pairs, quad=quad_n,
               min_residual=min((r["residual"] for r in records), default=0.0),
               max_tol=max((r["tol"] for r in records), default=0.0))


def _fields_u(ctx, xs):
    """u of every snapshot of ctx.fields at xs, one row each: one solve_level
    call on their stacked levels, with the bits of one sample_u per snapshot."""
    return solve_level(ctx.flux, xs, np.array([sample_g(f_, xs) for f_ in ctx.fields.values()]))


def _tv_u_estimate(ctx):
    u = _fields_u(ctx, np.linspace(*ctx.config.window, 1025))
    return max([0.0] + [float(np.sum(np.abs(np.diff(row)))) for row in u])


def _check_lipschitz_l1(ctx, report):
    if ctx.config.t_end <= 0 or ctx.field0.n_fronts == 0:
        report.add("lipschitz_l1", 0.0, 0.0, True, pairs=0)
        return
    rng = ctx.rng("lipschitz_l1")
    tv0 = tv_g(ctx.field0)
    L = ctx.speed_bound
    worst = -np.inf
    for _ in range(LIPSCHITZ_PAIRS):
        t = float(rng.uniform(0.0, 0.8 * ctx.config.t_end))
        h = float(rng.uniform(1e-3, max(1e-3, 0.5 * (ctx.config.t_end - t))))
        fa = ctx.solution.field_at(t)
        fb = ctx.solution.field_at(t + h)
        dist = l1_g_distance(fa, fb, *ctx.config.window)
        worst = max(worst, dist - L * tv0 * h)
    report.add("lipschitz_l1", worst, 1e-8, worst <= 1e-8,
               pairs=LIPSCHITZ_PAIRS, L=L, tv0=tv0)


def _check_characteristics(ctx, report):
    lo, hi = ctx.config.window
    x0 = lo + 0.37 * (hi - lo)
    u0 = max(ctx.u_sup, 0.1)
    T = min(1.0, max(ctx.config.t_end, 0.25))
    drift = characteristic_check(ctx.flux, x0, u0, T, 10_000)
    report.add("characteristics.drift", drift, 1e-10, drift <= 1e-10,
               x0=x0, u0=u0, T=T, steps=10_000)
    coarse = characteristic_check(ctx.flux, x0, u0, T, 100)
    fine = characteristic_check(ctx.flux, x0, u0, T, 200)
    ratio = coarse / fine if fine > 0 else float("inf")
    ok = 16 * 0.7 <= ratio <= 16 * 1.3 or coarse < 1e-13
    report.add("characteristics.order", ratio, 16.0, ok, coarse=coarse, fine=fine)


def _check_flux_convergence(ctx, report):
    lo, hi = ctx.config.window
    m = max(ctx.u_sup, 0.25)
    deltas = (0.1, 0.05, 0.02, 0.01)
    rows = flux_convergence_check(ctx.flux, deltas, ((lo, hi), (-m, m)))
    ok = all(r.ok for r in rows)
    errs = [r.sup_f_err for r in rows]
    monotone = all(b <= a * 1.000001 for a, b in zip(errs, errs[1:]))
    worst = max(max(r.sup_f_err - r.bound_f, r.sup_fx_err - r.bound_fx) for r in rows)
    report.add("flux_convergence", worst, 0.0, ok and monotone,
               deltas=list(deltas), sup_f_err=errs)


def _check_inversion_bounds(ctx, report):
    rng = ctx.rng("inversion_bounds")
    alpha = ctx.flux.require_alpha()
    lo, hi = ctx.config.window
    xs = np.linspace(lo, hi, 257)
    g_scale = max(ctx.config.delta, g_of(ctx.flux, 0.5 * (lo + hi), ctx.u_sup))
    # 50 pairs (g1, g2), drawn in that order, inverted SAMPLE_BLOCK_ROWS levels a
    # call: one call on all 50 raised a benchmark.ini run's peak RSS by 1 MiB
    g = np.array([float(rng.uniform(-g_scale, g_scale)) for _ in range(100)]).reshape(50, 2).T
    gap, per_call = np.empty(50), SAMPLE_BLOCK_ROWS // 2
    for i in range(0, 50, per_call):
        u1, u2 = solve_level(ctx.flux, xs, g[:, i:i + per_call, None])
        gap[i:i + per_call] = np.max(np.abs(u1 - u2), axis=1)
    excess = gap - (inversion_gap_bound(*g, alpha) + 1e-11)
    worst = max([-np.inf] + excess.tolist())
    report.add("inversion_bounds", worst, 0.0, worst <= 0.0, samples=50)


def _check_fv_crossval(ctx, report):
    if ctx.config.t_end <= 0:
        report.add("fv_crossval", 0.0, 0.0, True)
        return
    u0 = make_initial(ctx.config.u0_name, **ctx.config.u0_params)
    fv = fv_reference(ctx.flux, u0, ctx.config.window, FV_CELLS, ctx.config.t_end,
                      FV_CFL)
    final = ctx.fields[max(ctx.fields)]
    dist = l1_distance(lambda x: sample_u(ctx.flux, final, x), fv.sampler(),
                       ctx.config.window, FV_CELLS)
    bound = FV_REL_TOL * max(ctx.u0_l1, 1e-12)
    report.add("fv_crossval", dist, bound, dist <= bound,
               fv_cells=FV_CELLS, cfl=FV_CFL, u0_l1=ctx.u0_l1)


# the checks, in the order in which a run runs and reports them
CHECKS = {
    "tvd": _check_tvd,
    "entropy": _check_entropy,
    "lipschitz_l1": _check_lipschitz_l1,
    "characteristics": _check_characteristics,
    "flux_convergence": _check_flux_convergence,
    "inversion_bounds": _check_inversion_bounds,
    "fv_crossval": _check_fv_crossval,
}
