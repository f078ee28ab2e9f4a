import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronttrack.fluxes import (Flux, make_builtin_flux, audit_assumptions, certify,
                               speed_envelope, default_envelope, InvalidFluxParams)

BOX = ((-5.0, 5.0), (-3.0, 3.0))


@pytest.fixture(scope="module")
def burgers():
    return make_builtin_flux("homogeneous_burgers")


@pytest.fixture(scope="module")
def modulated():
    return make_builtin_flux("modulated_burgers", base=1.0, amp=0.5)


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def test_homogeneous_burgers_values(burgers):
    assert burgers.f(0.0, 2.0) == 2.0
    assert burgers.fu(1.0, -1.5) == -1.5
    assert burgers.fx(2.0, 0.3) == 0.0
    assert burgers.fuu(0.0, 9.0) == 1.0
    assert burgers.alpha == 1.0
    X, U = np.random.default_rng(8).uniform(-3, 3, (2, 200))
    assert np.array_equal(burgers.f(X, U), 0.5 * U * U)
    assert np.array_equal(burgers.fu(X, U), U)
    assert np.array_equal(burgers.fx(X, U), np.zeros_like(U))
    assert np.array_equal(burgers.fuu(X, U), np.ones_like(U))


def test_modulated_burgers_values(modulated):
    assert modulated.f(0.0, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert modulated.f(np.pi / 2, 2.0) == pytest.approx(3.0, abs=1e-14)
    assert modulated.alpha == 0.5


def test_modulated_burgers_rejects_nonpositive_a():
    with pytest.raises(InvalidFluxParams):
        make_builtin_flux("modulated_burgers", base=1.0, amp=1.0)
    with pytest.raises(InvalidFluxParams):
        make_builtin_flux("modulated_burgers", base=0.3, amp=0.5)
    # nan <= 0 is False, so a non-finite parameter must be refused by name
    for params in ({"amp": np.nan}, {"base": np.inf}, {"base": np.nan},
                   {"freq": np.inf}, {"phase": np.nan}, {"amp": -np.inf}):
        with pytest.raises(InvalidFluxParams, match="finite"):
            make_builtin_flux("modulated_burgers", **params)
    flux = make_builtin_flux("modulated_burgers", base=1.0, amp=0.5)
    for alpha in (np.nan, np.inf, 0.0, None):
        with pytest.raises(ValueError, match="convexity constant"):
            replace(flux, alpha=alpha).require_alpha()


_FINITE = st.floats(-4.0, 4.0, allow_subnormal=False)


@pytest.mark.parametrize("family, params", [
    ("homogeneous_burgers", {}),
    ("modulated_burgers", {"base": 1.2, "amp": 0.7, "freq": 1.3, "phase": 0.4}),
], ids=["homogeneous", "modulated"])
@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_bound_flux_agrees_with_f_and_fu_bit_for_bit(family, params, data, n):
    flux = make_builtin_flux(family, **params)
    x0, u0 = data.draw(_FINITE), data.draw(_FINITE)
    xs = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
    us = np.array(data.draw(st.lists(_FINITE, min_size=2 * n, max_size=2 * n)))
    # scalars, arrays, scalar x against array u, and (n,) x against (2, n) u
    for x, u in ((x0, u0), (xs, us[:n]), (x0, us[:n]), (xs, us.reshape(2, n))):
        f, fu = flux.at(x)
        for bound, full in ((f(u), flux.f(x, u)), (fu(u), flux.fu(x, u))):
            assert np.shape(bound) == np.shape(full)
            assert np.asarray(bound).tobytes() == np.asarray(full).tobytes()


@pytest.mark.parametrize("family, params", [
    ("homogeneous_burgers", {}),
    ("modulated_burgers", {"base": 1.0, "amp": 0.5}),
    ("modulated_burgers", {"base": 1.3, "amp": -0.6, "freq": 2.7, "phase": -0.9}),
], ids=["homogeneous", "modulated", "negative_amp_phase_freq"])
def test_point_equals_f_fu_and_fx_on_floats(family, params):
    flux = make_builtin_flux(family, **params)
    for x in np.linspace(-10.0, 10.0, 81).tolist():
        for u in np.linspace(-2.5, 2.5, 41).tolist():
            got = flux.point(x, u)
            assert all(type(v) is float for v in got)
            assert got == (flux.f(x, u), flux.fu(x, u), flux.fx(x, u))


def test_a_dsl_flux_has_no_point():
    assert make_builtin_flux("custom_expr", expr="u^2/2").point is None


def test_unknown_family_and_params_rejected():
    with pytest.raises(InvalidFluxParams):
        make_builtin_flux("kpz")
    with pytest.raises(InvalidFluxParams):
        make_builtin_flux("homogeneous_burgers", gamma=2.0)
    with pytest.raises(InvalidFluxParams):
        make_builtin_flux("custom_expr")


def test_custom_expr_flux_matches_modulated(modulated):
    dsl = make_builtin_flux("custom_expr", expr="(1+0.5*sin(x))*u^2/2")
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, u = rng.uniform(-3, 3, size=2)
        assert dsl.f(x, u) == pytest.approx(modulated.f(x, u), rel=1e-12)
        assert dsl.fu(x, u) == pytest.approx(modulated.fu(x, u), rel=1e-12, abs=1e-12)
        assert dsl.fx(x, u) == pytest.approx(modulated.fx(x, u), rel=1e-12, abs=1e-12)
        assert dsl.fuu(x, u) == pytest.approx(modulated.fuu(x, u), rel=1e-12)


def test_custom_expr_flux_evaluates_deep_in_the_stack():
    # building the flux prints each tree once, so evaluating it, which
    # compiles the printed text, does not recurse once per tree level again
    flux = make_builtin_flux("custom_expr", expr=" + ".join(["u^2/2"] * 150))

    def nested(levels):
        if levels:
            return nested(levels - 1)
        return [g(0.3, 0.2) for g in (flux.f, flux.fu, flux.fx, flux.fuu)]

    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    values = nested(sys.getrecursionlimit() - depth - 100)  # 100 frames left
    assert values == pytest.approx([3.0, 30.0, 0.0, 150.0])


def test_custom_expr_rejects_unknown_variable():
    # the parser itself refuses identifiers other than x, u and the functions
    with pytest.raises(ValueError):
        make_builtin_flux("custom_expr", expr="u^2/2 + t")


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_passes_burgers(burgers):
    report = audit_assumptions(burgers, BOX)
    assert report.passed
    assert report.certified_alpha == 1.0
    assert report.violations == []


def test_audit_passes_modulated(modulated):
    report = audit_assumptions(modulated, BOX)
    assert report.passed
    # sampled min of a(x) cannot undershoot the analytic floor
    assert report.certified_alpha >= 0.5


def test_audit_flags_uc_violation_for_cubic():
    flux = make_builtin_flux("custom_expr", expr="u^3")
    report = audit_assumptions(flux, ((-1.0, 1.0), (-1.0, 1.0)))
    assert not report.passed
    assert any(v.assumption.startswith("UC") for v in report.violations)
    # f_uu = 6u < 0 somewhere on the box
    assert report.certified_alpha < 0.0


def test_audit_flags_a_constant_negative_f_uu():
    # differentiate folds the f_uu of -u^2/2 to the constant -1: one number,
    # which the audit samples over its whole grid
    flux = make_builtin_flux("custom_expr", expr="-u^2/2")
    report = audit_assumptions(flux, ((-1.0, 1.0), (-1.0, 1.0)), grid=16)
    assert not report.passed
    witnesses = [v for v in report.violations if v.assumption == "UC:f_uu>0"]
    assert witnesses[-1] == ("UC:f_uu>0", ("...",), 16.0 * 16.0)
    assert report.fuu_max == -1.0 and report.certified_alpha < 0.0


def test_audit_flags_s0_violation_for_shifted_flux():
    flux = make_builtin_flux("custom_expr", expr="u^2/2 + x")
    report = audit_assumptions(flux, ((-1.0, 1.0), (-1.0, 1.0)))
    assert not report.passed
    assert any(v.assumption.startswith("S0") for v in report.violations)


def test_audit_reports_a_domain_error_as_a_violation():
    # f_u holds 1/sqrt(u): undefined at u = 0 and for u < 0
    flux = make_builtin_flux("custom_expr", expr="u^2/2 + sqrt(u)*u^3")
    report = audit_assumptions(flux, ((-1.0, 1.0), (-1.0, 1.0)))
    assert not report.passed
    assert [v.assumption[:7] for v in report.violations] == ["domain:"]
    assert "sqrt(u)" in report.violations[0].assumption
    with pytest.raises(ValueError):
        certify(flux, report)


def test_audit_rejects_degenerate_box_or_coarse_grid(burgers):
    with pytest.raises(ValueError):
        audit_assumptions(burgers, ((0.0, 0.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        audit_assumptions(burgers, BOX, grid=8)


def test_lower_envelope_inequality_on_grid(modulated):
    # f(x,u) >= alpha u^2/2 at all samples (consequence of S0 + UC)
    xs = np.linspace(-5, 5, 41)
    us = np.linspace(-3, 3, 41)
    X, U = np.meshgrid(xs, us)
    assert np.all(modulated.f(X, U) >= modulated.alpha * U * U / 2 - 1e-12)
    nonzero = np.abs(U) > 1e-12
    assert np.all(modulated.f(X, U)[nonzero] > 0.0)


def test_fd_consistency_on_smooth_builtin(modulated):
    h = 1e-4
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, u = rng.uniform(-2, 2, size=2)
        fd = (modulated.f(x, u + h) - modulated.f(x, u - h)) / (2 * h)
        assert abs(fd - modulated.fu(x, u)) <= 1e-7 * max(1.0, abs(modulated.f(x, u)))


def test_certify_sets_alpha_for_dsl_flux():
    flux = make_builtin_flux("custom_expr", expr="(1+0.5*sin(x))*u^2/2")
    assert flux.alpha is None
    report = audit_assumptions(flux, BOX)
    certified = certify(flux, report)
    # sampled min times the 0.99 safety factor
    assert 0.49 < certified.alpha <= 0.5 * 1.01
    with pytest.raises(ValueError):
        flux.require_alpha()
    assert certified.require_alpha() == certified.alpha


def test_certify_refuses_failed_audit():
    flux = make_builtin_flux("custom_expr", expr="u^3")
    report = audit_assumptions(flux, ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        certify(flux, report)


# ---------------------------------------------------------------------------
# speed envelope
# ---------------------------------------------------------------------------

def test_envelope_burgers(burgers):
    env = speed_envelope(burgers, np.linspace(-3, 3, 61), np.linspace(-5, 5, 101))
    assert env.theta(2.0) == pytest.approx(2.0, abs=1e-12)
    assert env.theta(0.0) == pytest.approx(0.0, abs=1e-12)
    assert env.lipschitz_L(2.0) == pytest.approx(2.0, abs=1e-12)


def test_envelope_modulated(modulated):
    env = default_envelope(modulated, (-5, 5), 3.0)
    # max a = 1.5 on a wide window
    assert env.theta(2.0) == pytest.approx(3.0, rel=1e-5)
    assert env.theta(-2.0) == pytest.approx(3.0, rel=1e-5)
    assert env.theta(0.0) == 0.0


def test_envelope_dominates_sampled_speeds(modulated):
    env = default_envelope(modulated, (-5, 5), 3.0)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-5, 5, size=200)
    for v in (-2.5, -1.0, 0.5, 2.9):
        assert np.all(np.abs(modulated.fu(xs, v)) <= env.theta(v) + 1e-9)


def test_envelope_rejects_empty_grid_and_out_of_range(burgers):
    with pytest.raises(ValueError):
        speed_envelope(burgers, [], [0.0])
    env = speed_envelope(burgers, np.linspace(-1, 1, 17), np.linspace(-1, 1, 17))
    with pytest.raises(ValueError):
        env.theta(5.0)


def test_envelope_is_the_grid_max_at_the_asked_states():
    # theta of this flux is convex in v, so interpolating a v-table between
    # its nodes would over-estimate it
    flux = make_builtin_flux("custom_expr", expr="(1+0.5*sin(x))*u^2/2 + u^4/12")
    env = default_envelope(flux, (-3, 3), 2.0)
    for v in (-1.234567, 0.3001, 1.9):
        want = float(np.max(np.abs(flux.fu(env.x_grid, v))))
        assert env.theta(v) == pytest.approx(want, rel=1e-13, abs=0.0)
    vs = np.array([-1.234567, 1.9])
    assert np.array_equal(env.theta(vs), [env.theta(v) for v in vs])


def test_envelope_rejects_non_finite_speeds(burgers):
    bad = Flux(f=burgers.f, fx=burgers.fx, fuu=burgers.fuu, alpha=1.0,
               family="homogeneous_burgers",
               fu=lambda x, u: np.where(np.asarray(x) > 0.5, np.inf, u + 0.0 * x))
    env = speed_envelope(bad, [-1.0, 1.0], np.linspace(-1, 1, 17))
    with pytest.raises(ValueError, match="not finite"):
        env.theta(0.5)
