import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronttrack.fluxes import _scaled_burgers, make_builtin_flux
from fronttrack.stationary import (g_of, solve_level, profile_slope,
                                   inversion_gap_bound, InversionError, TOL_INV)

BURGERS = make_builtin_flux("homogeneous_burgers")
MODULATED = make_builtin_flux("modulated_burgers", base=1.0, amp=0.5)


def test_g_of_examples():
    assert g_of(BURGERS, 0.0, 1.0) == 0.5
    assert g_of(BURGERS, 0.0, -1.0) == -0.5
    assert g_of(MODULATED, 0.3, 0.0) == 0.0


def test_g_strictly_increasing_in_u():
    us = np.linspace(-2, 2, 201)
    for x in (-1.0, 0.0, 2.2):
        g = g_of(MODULATED, x, us)
        assert np.all(np.diff(g) > 0)


def test_profile_burgers_level_half_is_one():
    for x in (-3.0, 0.0, 1.7):
        assert float(solve_level(BURGERS, x, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_profile_level_zero_is_zero_solution():
    xs = np.linspace(-4, 4, 33)
    u = solve_level(MODULATED, xs, 0.0)
    assert np.all(u == 0.0)
    assert np.all(profile_slope(MODULATED, xs, u) == 0.0)


def test_profile_constant_modulation():
    flux = make_builtin_flux("modulated_burgers", base=2.0, amp=0.0)
    assert float(solve_level(flux, 0.77, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_inversion_residual_at_random_points():
    rng = np.random.default_rng(12)
    xs = rng.uniform(-5, 5, size=1000)
    gs = rng.uniform(-2, 2, size=1000)
    u = solve_level(MODULATED, xs, gs)
    residual = np.abs(MODULATED.f(xs, u) - np.abs(gs))
    assert np.all(residual <= TOL_INV * np.maximum(1.0, np.abs(gs)))
    assert np.all(np.sign(u) == np.sign(gs))


def test_round_trip_g_of_profile():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-4, 4)
        g = rng.uniform(-1.5, 1.5)
        u = float(solve_level(MODULATED, x, g))
        assert g_of(MODULATED, x, u) == pytest.approx(g, abs=2e-12)


def test_negative_branch_mirror_for_burgers():
    u = float(solve_level(BURGERS, 0.0, -0.5))
    assert u == pytest.approx(-1.0, abs=1e-12)


def test_warm_guess_gives_same_roots():
    rng = np.random.default_rng(8)
    xs = rng.uniform(-3, 3, size=64)
    gs = rng.uniform(-1, 1, size=64)
    cold = solve_level(MODULATED, xs, gs)
    warm = solve_level(MODULATED, xs, gs, guess=cold * 1.07)
    # both satisfy the residual contract; in u that allows tol_inv / |f_u|
    assert np.allclose(cold, warm, atol=1e-10, rtol=0)


def test_eval_dx_matches_finite_difference():
    h = 1e-6
    for x in (-2.0, 0.4, 1.9):
        fd = float(solve_level(MODULATED, x + h, 0.6)
                   - solve_level(MODULATED, x - h, 0.6)) / (2 * h)
        slope = float(profile_slope(MODULATED, x, solve_level(MODULATED, x, 0.6)))
        assert slope == pytest.approx(fd, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# Uniform inversion bounds
# ---------------------------------------------------------------------------

def test_gap_bound_formulas():
    assert inversion_gap_bound(0.5, 0.0, 1.0) == pytest.approx(1.0)
    assert inversion_gap_bound(0.3, 0.3, 1.0) == 0.0
    assert inversion_gap_bound(0.5, -0.5, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        inversion_gap_bound(0.1, 0.2, 0.0)


def test_gap_bound_on_arrays_has_the_bits_of_its_scalar_calls():
    # both sign cases, a zero on either side, equal levels and two zeros
    g1 = np.array([0.5, 0.3, 0.5, -0.7, 0.0, -0.2, 0.25, 0.0, -1.3, 0.9])
    g2 = np.array([0.0, 0.3, -0.5, 0.4, -0.6, 0.0, 0.125, 0.0, -0.1, 0.45])
    bounds = inversion_gap_bound(g1, g2, 1.5)
    assert bounds.shape == g1.shape
    for a, b, bound in zip(g1.tolist(), g2.tolist(), bounds.tolist()):
        scalar = inversion_gap_bound(a, b, 1.5)
        assert np.ndim(scalar) == 0 and float(scalar).hex() == bound.hex()
    assert inversion_gap_bound(g1[:, None], g2[None, :3], 1.5).shape == (10, 3)


def test_gap_bound_equality_for_burgers():
    # f_u(x,0) = 0 kills the linear Taylor term: Burgers attains the bound
    xs = np.linspace(-3, 3, 101)
    u1 = solve_level(BURGERS, xs, np.full_like(xs, 0.5))
    u0 = solve_level(BURGERS, xs, np.zeros_like(xs))
    gap = np.max(np.abs(u1 - u0))
    assert gap == pytest.approx(inversion_gap_bound(0.5, 0.0, 1.0), abs=1e-10)
    um = solve_level(BURGERS, xs, np.full_like(xs, -0.5))
    assert np.max(np.abs(u1 - um)) == pytest.approx(2.0, abs=1e-10)


def test_gap_bound_random_pairs_modulated():
    rng = np.random.default_rng(21)
    xs = np.linspace(-5, 5, 257)
    for _ in range(100):
        g1, g2 = rng.uniform(-1.5, 1.5, size=2)
        u1 = solve_level(MODULATED, xs, np.full_like(xs, g1))
        u2 = solve_level(MODULATED, xs, np.full_like(xs, g2))
        gap = float(np.max(np.abs(u1 - u2)))
        assert gap <= inversion_gap_bound(g1, g2, MODULATED.alpha) + 10 * TOL_INV


@given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4), st.floats(-4.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_monotone_in_level_property(g1, g2, x):
    if g1 == g2:
        return
    lo, hi = sorted((g1, g2))
    u_lo = float(solve_level(MODULATED, x, lo))
    u_hi = float(solve_level(MODULATED, x, hi))
    assert u_lo < u_hi


def test_inversion_error_reports_position():
    # an overstated convexity constant shrinks the bracket below the true root
    lying = dataclasses.replace(BURGERS, alpha=4.0)
    with pytest.raises(InversionError) as info:
        solve_level(lying, 1.5, 2.0)
    assert info.value.x == 1.5


def test_solution_takes_the_shape_of_x_and_levels_together():
    # a flux free of x returns the levels' shape; the solution still spans x
    free = make_builtin_flux("custom_expr", expr="u^2/2")
    free = dataclasses.replace(free, alpha=1.0)
    xs = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(solve_level(free, xs, 0.5), np.ones(5))
    assert np.array_equal(solve_level(free, xs, np.array([[0.5], [0.0]]), guess=1.0),
                          np.array([np.ones(5), np.zeros(5)]))
    lying = dataclasses.replace(free, alpha=4.0)
    with pytest.raises(InversionError) as info:
        solve_level(lying, xs, np.array([[0.0], [2.0]]))
    assert (info.value.x, info.value.level) == (-1.0, 2.0)


def test_solve_level_evaluates_the_x_part_once_per_call():
    calls = []

    def coefficient(sin, cos):
        def a(x):
            calls.append(np.shape(x))
            return 1.0 + 0.5 * sin(x)

        return a, (lambda x: 0.5 * cos(x))

    flux = _scaled_burgers("modulated_burgers", {}, 0.5, coefficient)
    generic = dataclasses.replace(flux, at=None)
    xs = np.linspace(-3.0, 3.0, 50)
    levels = np.array([np.linspace(-1.0, 1.0, 50), np.linspace(0.9, -0.2, 50)])
    for g, guess in ((0.7, 0.0), (levels, 0.0), (levels, 2.0 * levels)):
        calls.clear()
        want = solve_level(generic, xs, g, guess=guess)
        newton_calls = len(calls)  # f and f_u each evaluate a(x) per iteration
        calls.clear()
        assert np.array_equal(solve_level(flux, xs, g, guess=guess), want)
        assert calls == [xs.shape]
        assert newton_calls >= 5
