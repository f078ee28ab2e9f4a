import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fronttrack.fluxes import make_builtin_flux
from fronttrack.riemann import ApproxFlux
from fronttrack.stationary import solve_level
from fronttrack.tracker import (DegenerateStatesError, FrontFieldError, initial_fronts,
                                quantize_initial, rh_speed)

BURGERS = make_builtin_flux("homogeneous_burgers")
MODULATED = make_builtin_flux("modulated_burgers", base=1.0, amp=0.5)


def brute_force_secant(flux, g_l, g_r, y):
    """Independent Rankine-Hugoniot quotient via brentq inversions."""
    def invert(g):
        if g == 0.0:
            return 0.0
        s = 1.0 if g > 0 else -1.0
        hi = math.sqrt(2.0 * abs(g) / flux.alpha) * 1.05 + 1e-12
        return s * brentq(lambda w: float(flux.f(y, s * w)) - abs(g), 0.0, hi,
                          xtol=1e-15)
    ul, ur = invert(g_l), invert(g_r)
    return (float(flux.f(y, ul)) - float(flux.f(y, ur))) / (ul - ur)


def front_speed(flux, g_l, g_r, y):
    return float(rh_speed(flux, y, g_l, g_r)[0])


def kinds(field):
    """-1 for each shock, +1 for each fan front (its level jump is exactly 1)."""
    return list(np.sign(np.diff(field.z)))


# ---------------------------------------------------------------------------
# classification and speeds
# ---------------------------------------------------------------------------

def test_classify():
    # a downward jump is one shock, an upward jump a fan; equal levels are no jump
    assert kinds(initial_fronts([0.0], [5, 0], 0.1)) == [-1]
    assert kinds(initial_fronts([0.0], [0, 3], 0.1)) == [1] * 3
    with pytest.raises(FrontFieldError):
        initial_fronts([0.0], [2, 2], 0.1)


def test_solve_riemann_dispatch():
    # a Riemann step at x = 0, quantized at delta = 0.1, resolves into its fronts
    # there: a downward jump into one shock, an upward jump into its fan (g = 0.5
    # is five levels), equal states into none
    def kinds_at_origin(u_l, u_r):
        f = quantize_initial(BURGERS, lambda x: np.where(x < 0.0, u_l, u_r), 0.1,
                             (-1, 1), 8)
        return [k for k, x in zip(kinds(f), f.positions) if x == 0.0]

    assert kinds_at_origin(1.0, 0.0) == [-1]
    assert kinds_at_origin(0.0, 1.0) == [1] * 5
    assert kinds_at_origin(0.5, 0.5) == []


def test_front_speed_burgers_golden():
    assert front_speed(BURGERS, 0.5, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert front_speed(BURGERS, 2.0, 0.5, 3.3) == pytest.approx(1.5, abs=1e-12)


def test_fan_front_speed_vs_brute_force():
    # fan front between g=0 and g=0.1: chord 0.1/sqrt(0.2)
    got = front_speed(BURGERS, 0.0, 0.1, 0.0)
    assert got == pytest.approx(0.1 / math.sqrt(0.2), abs=1e-10)
    assert got == pytest.approx(brute_force_secant(BURGERS, 0.0, 0.1, 0.0), abs=1e-10)


def test_front_speed_matches_brute_force_modulated():
    rng = np.random.default_rng(17)
    for _ in range(40):
        g_l, g_r = rng.uniform(-1.2, 1.2, size=2)
        if abs(g_l - g_r) < 1e-3:
            continue
        y = rng.uniform(-3, 3)
        assert front_speed(MODULATED, g_l, g_r, y) == pytest.approx(
            brute_force_secant(MODULATED, g_l, g_r, y), rel=1e-9, abs=1e-9)


def test_front_speed_swap_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g_l, g_r = rng.uniform(-1, 1, size=2)
        if abs(g_l - g_r) < 1e-3:
            continue
        y = rng.uniform(-2, 2)
        assert front_speed(MODULATED, g_l, g_r, y) == front_speed(MODULATED, g_r, g_l, y)


def test_cell_states_are_two_separate_inversions():
    approx = ApproxFlux(MODULATED, 0.05)
    x = np.linspace(-3.0, 3.0, 101)
    z = np.arange(-50, 51)
    u0, u1 = approx._cell_states(x, z)
    assert np.array_equal(u0, solve_level(MODULATED, x, 0.05 * z))
    assert np.array_equal(u1, solve_level(MODULATED, x, 0.05 * (z + 1)))


def test_front_speed_degenerate_cases():
    with pytest.raises(DegenerateStatesError):
        front_speed(BURGERS, 0.4, 0.4, 0.0)
    with pytest.raises(DegenerateStatesError):
        front_speed(BURGERS, 0.4, 0.4 + 1e-13, 0.0)


def test_shock_admissibility_left_trace_above_right():
    rng = np.random.default_rng(9)
    for _ in range(30):
        g_l, g_r = sorted(rng.uniform(-1, 1, size=2), reverse=True)
        if g_l - g_r < 1e-3:
            continue
        y = rng.uniform(-3, 3)
        u_l = float(solve_level(MODULATED, y, g_l))
        u_r = float(solve_level(MODULATED, y, g_r))
        assert u_l > u_r


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

def test_build_fan_examples():
    fan = initial_fronts([0.0], [0, 3], 0.1)
    assert list(fan.z) == [0, 1, 2, 3]
    assert fan.n_fronts == 3

    sym = initial_fronts([0.0], [-2, 2], 0.1)
    assert 0.1 * sym.z == pytest.approx((-0.2, -0.1, 0.0, 0.1, 0.2))
    assert sym.n_fronts == 4
    assert np.all(sym.positions == 0.0)  # co-located at the jump


def test_build_fan_gap_structure():
    rng = np.random.default_rng(10)
    for _ in range(50):
        z_l = int(rng.integers(-20, 21))
        z_r = z_l + int(rng.integers(1, 27))
        delta = rng.uniform(0.01, 0.3)
        fan = initial_fronts([0.0], [z_l, z_r], delta)
        gaps = np.diff(delta * fan.z.astype(float))
        assert np.all(gaps > 0)
        assert np.all(gaps <= delta * (1 + 1e-12))
        # every gap is delta: the levels sit on the delta-grid
        assert np.allclose(gaps, delta, rtol=0, atol=1e-12)


def test_build_fan_rejects_bad_args():
    with pytest.raises(ValueError):
        initial_fronts([0.0], [1, 1], 0.1)
    with pytest.raises(ValueError):
        quantize_initial(BURGERS, lambda x: np.ones_like(x), 0.0, (-1, 1), 8)


def test_fan_speeds_strictly_increasing_at_emission():
    # uniform convexity keeps co-located fan fronts ordered
    for flux, y in ((BURGERS, 0.0), (MODULATED, 1.1), (MODULATED, -2.3)):
        fan = initial_fronts([y], [-4, 4], 0.1)
        g = 0.1 * fan.z.astype(float)
        speeds, _, _ = rh_speed(flux, fan.positions, g[:-1], g[1:])
        assert np.all(np.diff(speeds) > 0)


# ---------------------------------------------------------------------------
# delta-approximate flux
# ---------------------------------------------------------------------------

def test_approx_flux_exact_on_grid_levels():
    af = ApproxFlux(MODULATED, 0.1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = int(rng.integers(-8, 9))
        x = rng.uniform(-3, 3)
        u = float(solve_level(MODULATED, x, 0.1 * z))
        assert af.eval(x, u) == 0.1 * abs(z)


def test_approx_flux_midpoint_interpolation():
    af = ApproxFlux(BURGERS, 0.2)
    x = 0.0
    u = 0.5 * (math.sqrt(0.4) + math.sqrt(0.8))
    assert af.eval(x, u) == pytest.approx(0.3, abs=1e-12)


def test_approx_flux_zero_state():
    af = ApproxFlux(BURGERS, 0.2)
    assert af.eval(1.23, 0.0) == 0.0


def test_approx_flux_anchor_equivalence():
    # the two closed forms of the interior interpolation agree
    af = ApproxFlux(MODULATED, 0.07)
    rng = np.random.default_rng(6)
    xs = rng.uniform(-3, 3, size=100)
    us = rng.uniform(-1.4, 1.4, size=100)
    low = af.eval(xs, us)
    # the interpolation anchored at the upper cell level instead
    g = np.sign(us) * MODULATED.f(xs, us)
    z = np.floor(g / 0.07)
    u0 = solve_level(MODULATED, xs, 0.07 * z)
    u1 = solve_level(MODULATED, xs, 0.07 * (z + 1))
    s = np.where(z >= 0, 1.0, -1.0)
    high = 0.07 * np.abs(z + 1) + s * 0.07 * (us - u1) / (u1 - u0)
    assert np.allclose(low, high, atol=5e-11, rtol=0)


def test_approx_flux_continuous_across_levels():
    af = ApproxFlux(MODULATED, 0.1)
    x = 0.7
    u_star = float(solve_level(MODULATED, x, 0.3))
    eps = 1e-9
    below = af.eval(x, u_star - eps)
    above = af.eval(x, u_star + eps)
    assert below == pytest.approx(0.3, abs=1e-7)
    assert above == pytest.approx(0.3, abs=1e-7)


def test_approx_flux_dx_zero_for_homogeneous():
    af = ApproxFlux(BURGERS, 0.1)
    rng = np.random.default_rng(13)
    xs = rng.uniform(-3, 3, size=40)
    us = rng.uniform(-2, 2, size=40)
    assert np.allclose(af.eval_dx(xs, us), 0.0, atol=1e-12)


def test_approx_flux_dx_matches_fd_interior():
    af = ApproxFlux(MODULATED, 0.1)
    rng = np.random.default_rng(14)
    h = 1e-6
    checked = 0
    while checked < 25:
        x = rng.uniform(-2, 2)
        u = rng.uniform(0.2, 1.2) * rng.choice([-1, 1])
        g = float(np.sign(u) * MODULATED.f(x, u))
        frac = abs(g) / 0.1 % 1.0
        if min(frac, 1 - frac) < 0.05:
            continue  # keep clear of the kinks at the grid levels
        fd = (af.eval(x + h, u) - af.eval(x - h, u)) / (2 * h)
        assert af.eval_dx(x, u) == pytest.approx(fd, rel=1e-5, abs=1e-6)
        checked += 1


def test_approx_flux_dx_converges_to_fx():
    # delta -> 0 sweep at fixed points, interior of the cells
    x, u = 0.9, 0.83
    errs = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        af = ApproxFlux(MODULATED, delta)
        errs.append(abs(af.eval_dx(x, u) - float(MODULATED.fx(x, u))))
    assert errs[-1] <= errs[0]
    assert errs[-1] <= math.sqrt(2 * 0.025 / MODULATED.alpha) * 2.0


def test_approx_flux_dominates_flux():
    # chords of a convex function lie above it: f^delta >= f everywhere
    af = ApproxFlux(MODULATED, 0.08)
    rng = np.random.default_rng(31)
    xs = rng.uniform(-4, 4, size=400)
    us = rng.uniform(-1.5, 1.5, size=400)
    assert np.all(af.eval(xs, us) >= MODULATED.f(xs, us) - 1e-10)


def test_approx_flux_sup_error_bound():
    # |f^delta - f| <= sqrt(2 delta/alpha)(1 + theta(M+delta)) + delta on a box
    M = 1.5
    xs = np.linspace(-4, 4, 33)
    us = np.linspace(-M, M, 65)
    X, U = np.meshgrid(xs, us)
    for delta in (0.1, 0.05):
        af = ApproxFlux(MODULATED, delta)
        err = np.max(np.abs(af.eval(X.ravel(), U.ravel()).reshape(X.shape)
                            - MODULATED.f(X, U)))
        theta = 1.5 * (M + delta)  # exact envelope of a(x)|u|
        bound = math.sqrt(2 * delta / MODULATED.alpha) * (1 + theta) + delta
        assert err <= bound
