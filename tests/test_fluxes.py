import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronttrack.fluxes import (Flux, DomainError, make_builtin_flux, audit_assumptions, certify,
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


# the benchmark's dsl_fan flux, and a tree whose exp and tanh are numpy's:
# math.exp and math.tanh differ from them in the last bit at some points
DSL_FAN = "(1+0.5*sin(x))*u^2/2 + u^4/12"
DSL_FUNCTIONS = "exp(0.3*x*u)*u^2/2 + tanh(x - u)*u/(2 + x^2) + sqrt(3 + cos(x*u))*(2 + sin(u))^-2"


def _hand_built():
    """A Flux built without ``at`` and ``point``: both are derived."""
    return Flux(f=lambda x, u: 0.5 * (2.0 + np.cos(x)) * u * u,
                fu=lambda x, u: (2.0 + np.cos(x)) * u,
                fx=lambda x, u: -0.5 * np.sin(x) * u * u,
                fuu=lambda x, u: 2.0 + np.cos(x) + 0.0 * u, alpha=1.0, family="hand_built")


@pytest.mark.parametrize("build", [
    lambda: make_builtin_flux("homogeneous_burgers"),
    lambda: make_builtin_flux("modulated_burgers", base=1.0, amp=0.5),
    lambda: make_builtin_flux("modulated_burgers", base=1.3, amp=-0.6, freq=2.7, phase=-0.9),
    lambda: make_builtin_flux("custom_expr", expr=DSL_FAN),
    lambda: make_builtin_flux("custom_expr", expr=DSL_FUNCTIONS),
    _hand_built,
], ids=["homogeneous", "modulated", "negative_amp_phase_freq", "dsl_fan", "dsl_functions",
        "hand_built"])
def test_point_equals_f_fu_and_fx_on_floats(build):
    flux = build()
    for x in np.linspace(-10.0, 10.0, 81).tolist():
        f, fu = flux.at(x)  # the binding at x on Python floats: f and f_u of u alone
        for u in np.linspace(-2.5, 2.5, 41).tolist():
            got = flux.point(x, u)
            assert all(type(v) is float for v in got)
            want = (flux.f(x, u), flux.fu(x, u), flux.fx(x, u))
            assert np.array(got).tobytes() == np.array(want).tobytes()
            pair = f(u), fu(u)
            assert all(type(v) is float for v in pair)
            assert np.array(pair).tobytes() == np.array(want[:2]).tobytes()


@pytest.mark.parametrize("build", [
    lambda: make_builtin_flux("homogeneous_burgers"),
    lambda: make_builtin_flux("modulated_burgers", base=1.3, amp=-0.6, freq=2.7, phase=-0.9),
    lambda: make_builtin_flux("custom_expr", expr=DSL_FAN),
    lambda: replace(make_builtin_flux("modulated_burgers", base=1.0, amp=0.5),
                    at=None, point=None),
], ids=["homogeneous", "modulated", "dsl_fan", "copy_without_at"])
def test_at_on_a_float_returns_floats_with_the_bits_of_at_on_an_array(build):
    flux = build()
    for x in np.linspace(-10.0, 10.0, 41).tolist():
        pairs = flux.at(x), flux.at(np.array([x]))
        for u in np.linspace(-2.5, 2.5, 21).tolist():
            for on_float, on_array in zip(*pairs):
                got = on_float(u)
                assert type(got) is float
                assert np.array([got]).tobytes() == on_array(np.array([u])).tobytes()


def _result(call):
    """The bits of call(), a Python float, or its DomainError message."""
    try:
        value = call()
    except DomainError as e:
        return str(e)
    assert type(value) is float
    return np.array(value).tobytes()


@pytest.mark.parametrize("expr, x, u, label", [
    ("u^2/2 + 1/x", 0.0, 1.0, "f"),                  # Python floats divide by zero
    ("u^2/2 + u^2/sin(x)", 0.0, 1.0, "f"),           # numpy scalars divide by zero
    ("exp(x*u)*u^2", 800.0, 1.0, "f"),               # numpy's exp overflows
    ("1e300*u*u*1e300", 0.5, 2.0, "f"),              # a product overflows to inf
    ("sqrt(x)*u^2/2", -1.0, 0.5, "f"),               # sqrt of a negative number
    ("u^2*sqrt(x) + x", 0.0, 1.0, "f_x"),            # f and f_u are finite, f_x is not
    ("sqrt(u^2) + x^2", 1.0, 0.0, "f_u"),            # f is finite, f_u is 0/0
    ("u^-2 + sqrt(x - 5)", 1.0, 0.0, "f"),           # f fails first
], ids=["float_division", "numpy_division", "exp_overflow", "product_overflow", "sqrt_negative",
        "f_x_fails", "f_u_fails", "f_fails_first"])
def test_a_dsl_point_raises_the_domain_error_of_f_fu_or_fx(expr, x, u, label):
    flux = make_builtin_flux("custom_expr", expr=expr)
    errors = []
    for fn in (flux.f, flux.fu, flux.fx):
        try:
            fn(x, u)
        except DomainError as e:
            errors.append(str(e))
    assert errors, "the point must be one where the expression fails"
    with pytest.raises(DomainError) as info:
        flux.point(x, u)
    assert str(info.value) == errors[0]
    assert str(info.value).startswith("cannot evaluate `")
    assert (label == "f") != (f"{label}: " in str(info.value))
    # the binding on floats: each of its functions returns or raises what f or
    # f_u does, whether the failing temporary reads u or not, so the first of
    # them to fail raises the point's error; where only f_x fails both return
    f, fu = flux.at(x)
    got = [_result(lambda: f(u)), _result(lambda: fu(u))]
    assert got == [_result(lambda: float(flux.f(x, u))), _result(lambda: float(flux.fu(x, u)))]
    failed = [r for r in got if isinstance(r, str)]
    assert failed[:1] == ([] if label == "f_x" else errors[:1])


@pytest.mark.parametrize("expr, x", [
    ("u^2/2 + 1/x", 0.0),        # Python floats divide by zero
    ("u^2*(1/sin(x))", 0.0),      # numpy scalars divide by zero
    ("u^2*sqrt(x - 5)", 1.0),     # sqrt of a negative number
], ids=["float_division", "numpy_division", "sqrt_negative"])
def test_a_failing_temporary_free_of_u_keeps_the_label_of_f(expr, x):
    # the binding computes the temporaries free of u once, at x; where one of
    # them fails, every u raises the error of f from the bound f, on Python
    # floats and on arrays
    flux = make_builtin_flux("custom_expr", expr=expr)
    for at_x in (x, np.array([x])):
        f, _ = flux.at(at_x)
        for u in (-1.0, 0.5, 2.0):
            with pytest.raises(DomainError) as info:
                f(u)
            with pytest.raises(DomainError) as want:
                flux.f(at_x, u)
            assert str(info.value) == str(want.value) and ": f_" not in str(info.value)


def _counted(fn, calls):
    def counted(x, u):
        calls.append(1)
        return fn(x, u)
    return counted


@pytest.mark.parametrize("build", [
    lambda: make_builtin_flux("modulated_burgers", base=1.0, amp=0.5),
    lambda: make_builtin_flux("custom_expr", expr=DSL_FAN),
], ids=["modulated", "dsl_fan"])
def test_a_copy_without_point_binds_its_own_f_and_fu(build):
    # no stale binding survives a copy: the float Newton of a copy with
    # at=None runs through the copy's f and fu, with the original's bits
    from fronttrack.stationary import level_constants, solve_point
    flux = build()
    if flux.alpha is None:
        flux = replace(flux, alpha=0.5)  # (1 + 0.5 sin x) u^2/2 + u^4/12 >= u^2/4
    calls = []
    copy = replace(flux, f=_counted(flux.f, calls), fu=_counted(flux.fu, calls),
                   at=None, point=None)
    c = np.array(level_constants(flux, [0.3, -0.2])).T.tolist()
    for x in (-1.3, 0.0, 0.7):
        for level in c:
            want = solve_point(flux.at(x), x, level, 0.0)
            n = len(calls)
            assert solve_point(copy.at(x), x, level, 0.0) == want
            assert len(calls) > n


def test_the_two_newtons_agree_where_f_u_fails_at_the_root():
    # f_u of u^2 sqrt(u^2 + x^2) is 0/0 at (0, 0); the level g = 0 is solved by
    # u = 0 before a step, so neither Newton evaluates f_u there
    from fronttrack.stationary import level_constants, solve_level, solve_point
    flux = replace(make_builtin_flux("custom_expr", expr="u^2/2 + u^2*sqrt(u^2 + x^2)"),
                   alpha=1.0)
    with pytest.raises(DomainError, match="f_u: invalid value"):
        flux.fu(0.0, 0.0)
    c = [float(v[0]) for v in level_constants(flux, [0.0])]
    on_array = solve_level(flux, np.array([0.0]), [0.0])
    on_float = solve_point(flux.at(0.0), 0.0, c, 0.0)
    assert type(on_float) is float
    assert np.array([on_float]).tobytes() == on_array.tobytes() == np.array([0.0]).tobytes()


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
