import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fronttrack import contact
from fronttrack.contact import first_contact
from fronttrack.fluxes import DomainError, audit_assumptions, certify, make_builtin_flux
from fronttrack.profiles import make_initial
from fronttrack.stationary import InversionError, g_of, level_constants, solve_level
from fronttrack.tracker import (Tracker, TrackedSolution, FrontField, FrontFieldError,
                                quantize_initial, initial_fronts, empty_field,
                                rh_speed, sample_u, sample_g, tv_g, l1_g_distance,
                                common_pieces,
                                TrackerError, OrderingLostError, LoopLimitError,
                                WindowExitError, DegenerateStatesError,
                                ProfileInversionError, FluxDomainError, TOL_POS,
                                TOL_EVENT, _State, _tv_z)
from fronttrack.validation import SingleFrontSolution

BURGERS = make_builtin_flux("homogeneous_burgers")
MODULATED = make_builtin_flux("modulated_burgers", base=1.0, amp=0.5)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_zero_data_gives_empty_field():
    f = quantize_initial(BURGERS, lambda x: np.zeros_like(x), 0.1, (-2, 2), 64)
    assert f.n_fronts == 0
    assert f.g_leftmost == 0.0


def test_quantize_indicator_two_level_field():
    u0 = lambda x: np.where(np.asarray(x) < 0, 1.0, 0.0)
    f = quantize_initial(BURGERS, u0, 0.1, (-2, 2), 400)
    # g = 0.5 on [-2, 0): a 5-front fan at the window edge plus one shock at 0
    assert f.n_fronts == 6
    assert f.positions[0] == -2.0
    assert np.all(f.positions[:5] == -2.0)
    assert f.positions[5] == pytest.approx(0.0, abs=1e-12)
    assert list(f.z) == [0, 1, 2, 3, 4, 5, 0]
    assert list(np.diff(f.z)[:5]) == [1] * 5  # fan fronts
    assert np.diff(f.z)[5] < 0  # shock
    assert sample_g(f, -1.0) == pytest.approx(0.5)
    assert sample_g(f, 1.0) == 0.0


def test_quantize_sine_l1_error_within_reported_bound():
    u0 = lambda x: 0.3 * np.sin(x)
    window = (-np.pi, np.pi)
    f = quantize_initial(BURGERS, u0, 0.01, window, 256)
    assert f.n_fronts <= 256
    diag = f.quantization
    # fine-grid oracle for the quantization L1 error
    xs = np.linspace(window[0], window[1], 40001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    g_exact = g_of(BURGERS, mids, u0(mids))
    g_quant = sample_g(f, mids)
    l1 = float(np.sum(np.abs(g_exact - g_quant)) * (mids[1] - mids[0]))
    assert l1 <= diag.l1_bound
    assert diag.l1_sampled <= 0.01 / 2 * (window[1] - window[0])


@pytest.mark.parametrize("kwargs", [{"h_ode": -0.01}, {"h_ode": float("nan")},
                                    {"h_ode": 0.0}, {"delta": float("inf")}])
def test_tracker_rejects_bad_step_or_delta(kwargs):
    args = {"delta": 0.1, "h_ode": 0.01, **kwargs}
    with pytest.raises(ValueError):
        Tracker(BURGERS, args["delta"], (-2, 2), h_ode=args["h_ode"])


@pytest.mark.parametrize("window, t", [
    ((float("nan"), 2.0), 1.0),
    ((2.0, -2.0), 1.0),
    ((-2.0, float("inf")), 1.0),
    ((-2.0, 2.0), float("nan")),
    ((-2.0, 2.0), float("inf")),
], ids=["nan_window", "reversed_window", "infinite_window", "nan_time", "infinite_time"])
@pytest.mark.parametrize("via", ["advance", "field_at"])
def test_tracker_rejects_a_bad_window_or_time(window, t, via):
    # each would otherwise integrate until the shock leaves the window, or
    # never check the window at all
    shock = initial_fronts([0.0], [2, 0], 0.1)
    with pytest.raises(ValueError):
        tr = Tracker(BURGERS, 0.1, window)
        if via == "advance":
            tr.advance(shock, t)
        else:
            TrackedSolution(tr, shock).field_at(t)


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize_initial(BURGERS, lambda x: np.full_like(x, np.nan), 0.1, (-1, 1), 32)
    with pytest.raises(ValueError):
        quantize_initial(BURGERS, lambda x: np.zeros_like(x), -0.1, (-1, 1), 32)
    with pytest.raises(ValueError):
        quantize_initial(BURGERS, lambda x: np.zeros_like(x), 0.1, (1, -1), 32)
    # a delta too small for the data puts the levels past 2**53, where an
    # int64 cast would wrap them
    with pytest.raises(FrontFieldError):
        quantize_initial(BURGERS, lambda x: np.where(x < 0, 0.8, 0.0), 1e-300, (-1, 1), 32)


def test_quantize_ties_round_toward_zero():
    # g = 0.05 exactly on half the window: z = round-to-zero(0.5) = 0
    u0 = lambda x: np.where(np.asarray(x) < 0, np.sqrt(0.1), 0.0)
    f = quantize_initial(BURGERS, u0, 0.1, (-2, 2), 64)
    assert f.n_fronts == 0


# ---------------------------------------------------------------------------
# initial fronts
# ---------------------------------------------------------------------------

def test_initial_fronts_single_shock():
    f = initial_fronts([0.25], [5, 0], 0.1)
    assert f.n_fronts == 1
    assert np.diff(f.z)[0] < 0  # shock
    assert f.delta * f.z[0] == 0.5 and f.delta * f.z[1] == 0.0


def test_initial_fronts_fan_split():
    f = initial_fronts([0.0], [0, 3], 0.1)
    assert f.n_fronts == 3
    assert np.all(f.positions == 0.0)
    assert list(f.z) == [0, 1, 2, 3]
    assert np.all(np.diff(f.z) == 1)  # fan fronts


def test_initial_fronts_no_jumps():
    f = initial_fronts([], [2], 0.1)
    assert f.n_fronts == 0
    assert f.g_leftmost == pytest.approx(0.2)


def test_initial_fronts_rejects_null_jump_and_bad_breaks():
    with pytest.raises(FrontFieldError):
        initial_fronts([0.0], [1, 1], 0.1)
    with pytest.raises(FrontFieldError):
        initial_fronts([1.0, 0.5], [0, 1, 0], 0.1)
    with pytest.raises(FrontFieldError):
        initial_fronts([0.0], [1], 0.1)
    # levels must be whole numbers of magnitude at most 2**53
    for level in (2.9, 2**60, float("inf")):
        with pytest.raises(FrontFieldError):
            initial_fronts([0.0], [0, level], 0.1)


# ---------------------------------------------------------------------------
# advancing: golden cases
# ---------------------------------------------------------------------------

def test_two_shock_merge_golden():
    f0 = initial_fronts([-1.0, 0.0], [4, 1, 0], 0.5)
    tr = Tracker(BURGERS, 0.5, (-6, 6), h_ode=0.01)
    f1, log = tr.advance(f0, 2.0)
    assert len(log) == 1
    e = log[0]
    assert e.time == pytest.approx(1.0, abs=1e-9)
    assert e.position == pytest.approx(0.5, abs=1e-9)
    assert e.consumed == (0, 1)
    assert e.produced == 2
    assert e.tv_before == pytest.approx(2.0) and e.tv_after == pytest.approx(2.0)
    # merged shock g: 2 -> 0 moves at exactly 1
    assert f1.n_fronts == 1
    assert f1.positions[0] == pytest.approx(1.5, abs=1e-9)
    assert rh_speed(BURGERS, float(f1.positions[0]), 2.0, 0.0)[0] == pytest.approx(
        1.0, abs=1e-12)


def test_stationary_field_advance_is_identity():
    f0 = initial_fronts([], [3], 0.1)
    tr = Tracker(MODULATED, 0.1, (-5, 5))
    f1, log = tr.advance(f0, 7.5)
    assert len(log) == 0
    assert f1.n_fronts == 0
    assert f1.time == 7.5
    xs = np.linspace(-4, 4, 17)
    assert np.allclose(sample_u(MODULATED, f1, xs), sample_u(MODULATED, f0, xs))


def test_single_shock_tracks_independent_oracle():
    f0 = initial_fronts([0.0], [1, 0], 0.5)
    tr = Tracker(MODULATED, 0.5, (-2, 6), h_ode=0.01)
    f1, _ = tr.advance(f0, 2.0)
    oracle = SingleFrontSolution(MODULATED, 0.5, 0.0, 0.0, 2.0)
    assert abs(float(f1.positions[0]) - oracle.position(2.0)) <= 1e-8


def test_constant_speed_shock_exact_for_burgers():
    f0 = initial_fronts([0.0], [5, 0], 0.1)
    tr = Tracker(BURGERS, 0.1, (-1, 5), h_ode=0.05)
    for t in (1.0, 2.5, 4.0):
        f1, log = tr.advance(f0, t)
        assert len(log) == 0
        assert float(f1.positions[0]) == pytest.approx(0.5 * t, abs=1e-10)


# ---------------------------------------------------------------------------
# collisions
# ---------------------------------------------------------------------------

def test_shock_overtakes_fan_front():
    # shock (0.2 -> 0) catches fan front (0 -> 0.1): single front (0.2 -> 0.1)
    f0 = FrontField(
        time=0.0, delta=0.1,
        positions=np.array([-0.05, 0.0]),
        z=np.array([2, 0, 1], dtype=np.int64),
        ids=np.array([0, 1], dtype=np.int64),
        next_id=2,
    ).validate()
    tr = Tracker(BURGERS, 0.1, (-2, 4), h_ode=0.01)
    f1, log = tr.advance(f0, 2.0)
    assert len(log) == 1
    assert log[0].consumed == (0, 1)
    assert f1.n_fronts == 1
    assert list(f1.z) == [2, 1]
    assert np.diff(f1.z)[0] < 0  # shock
    # delta-admissible and at the Rankine-Hugoniot speed of a fresh re-solve,
    # checked against the closed form (0.2 - 0.1)/(sqrt(0.4) - sqrt(0.2))
    y = float(f1.positions[0])
    tau = log[0].time
    rho = log[0].position
    analytic = 0.1 / (np.sqrt(0.4) - np.sqrt(0.2))
    assert rh_speed(BURGERS, rho, 0.2, 0.1)[0] == pytest.approx(analytic, abs=1e-12)
    assert y == pytest.approx(rho + analytic * (2.0 - tau), abs=1e-9)


def test_next_id_must_exceed_every_front_id():
    # the field of test_shock_overtakes_fan_front with the default next_id=0:
    # its merged front would take id 0, the id of a front it consumed
    for kwargs in ({}, {"next_id": 1}):
        f0 = FrontField(time=0.0, delta=0.1, positions=np.array([-0.05, 0.0]),
                        z=np.array([2, 0, 1], dtype=np.int64),
                        ids=np.array([0, 1], dtype=np.int64), **kwargs)
        with pytest.raises(FrontFieldError, match="next_id"):
            f0.validate()
        with pytest.raises(FrontFieldError, match="next_id"):
            Tracker(BURGERS, 0.1, (-2, 4)).advance(f0, 2.0)


def test_equal_outer_levels_annihilate():
    # chain 1,0,1 with the pair already touching: grazing merge, no front out
    f0 = FrontField(
        time=0.0, delta=0.1,
        positions=np.array([0.0, 5e-11]),
        z=np.array([1, 0, 1], dtype=np.int64),
        ids=np.array([0, 1], dtype=np.int64),
        next_id=2,
    )
    tr = Tracker(BURGERS, 0.1, (-2, 2), h_ode=0.01)
    f1, log = tr.advance(f0, 0.5)
    assert len(log) == 1
    e = log[0]
    assert e.produced is None
    assert e.grazing
    assert e.tv_before == pytest.approx(0.2) and e.tv_after == 0.0
    assert f1.n_fronts == 0
    assert f1.g_leftmost == pytest.approx(0.1)
    assert sample_u(BURGERS, f1, 0.3) == pytest.approx(np.sqrt(0.2), abs=1e-12)


def test_three_front_simultaneous_collision():
    # three shocks aimed at the same space-time point: cluster resolution must
    # consume all of them (as one event or a same-instant cascade) and leave
    # the single outer-level shock
    speeds = [(3.0 - 1.5) / (np.sqrt(6) - np.sqrt(3)),
              (1.5 - 0.5) / (np.sqrt(3) - 1.0),
              (0.5 - 0.0) / (1.0 - 0.0)]
    f0 = FrontField(
        time=0.0, delta=0.5,
        positions=np.array([-s for s in speeds]),
        z=np.array([6, 3, 1, 0], dtype=np.int64),
        ids=np.arange(3, dtype=np.int64),
        next_id=3,
    ).validate()
    tr = Tracker(BURGERS, 0.5, (-8, 8), h_ode=0.01)
    f1, log = tr.advance(f0, 2.0)
    assert f1.n_fronts == 1
    assert list(f1.z) == [6, 0]
    consumed = set()
    for e in log:
        consumed.update(e.consumed)
        assert abs(e.time - 1.0) <= 1e-8
        assert abs(e.position) <= 1e-8
    # either one three-front cluster or a same-instant pairwise cascade
    # (whose intermediate front is consumed in turn)
    assert consumed >= {0, 1, 2}
    # merged speed = RH of the outer levels
    v = rh_speed(BURGERS, 0.0, 3.0, 0.0)[0]
    assert float(f1.positions[0]) == pytest.approx(
        log[-1].position + v * (2.0 - log[-1].time), abs=1e-8)


def _contact(left, right, t_lo, t_hi):
    """First time in [t_lo, t_hi] at which two oracle trajectories meet."""
    return brentq(lambda t: right(t) - left(t), t_lo, t_hi, xtol=1e-14, rtol=8.9e-16)


def _assert_two_shock_collision_matches_oracle(flux):
    # heterogeneous speeds: the contact has no closed form, so pin it against
    # two scipy RK45 trajectories and brentq on their gap
    f0 = initial_fronts([-1.0, 0.0], [4, 1, 0], 0.5)
    tr = Tracker(flux, 0.5, (-6, 6), h_ode=0.01)
    _, log = tr.advance(f0, 2.0)
    left = SingleFrontSolution(flux, 2.0, 0.5, -1.0, 2.0)
    right = SingleFrontSolution(flux, 0.5, 0.0, 0.0, 2.0)
    t_c = _contact(left.position, right.position, 0.0, 2.0)
    assert len(log) == 1 and log[0].consumed == (0, 1)
    assert abs(log[0].time - t_c) <= 1e-9
    assert abs(log[0].position - left.position(t_c)) <= 1e-9


def test_two_shock_collision_matches_independent_oracle():
    _assert_two_shock_collision_matches_oracle(MODULATED)


def test_three_shock_cascade_matches_independent_oracle():
    # the right pair merges first; the merged shock (g 2 -> 0), started at the
    # oracle's own contact, is then caught by the leftmost shock
    f0 = initial_fronts([-2.0, -1.0, 0.0], [6, 4, 1, 0], 0.5)
    tr = Tracker(MODULATED, 0.5, (-6, 10), h_ode=0.01)
    _, log = tr.advance(f0, 3.0)
    a = SingleFrontSolution(MODULATED, 3.0, 2.0, -2.0, 3.0)
    b = SingleFrontSolution(MODULATED, 2.0, 0.5, -1.0, 3.0)
    c = SingleFrontSolution(MODULATED, 0.5, 0.0, 0.0, 3.0)
    t1 = _contact(b.position, c.position, 0.0, 3.0)
    merged = SingleFrontSolution(MODULATED, 2.0, 0.0, b.position(t1), 3.0 - t1)
    t2 = _contact(a.position, lambda t: merged.position(t - t1), t1, 3.0)
    assert [e.consumed for e in log] == [(1, 2), (0, 3)]
    for e, t_c, x_c in ((log[0], t1, b.position(t1)), (log[1], t2, a.position(t2))):
        assert abs(e.time - t_c) <= 1e-9
        assert abs(e.position - x_c) <= 1e-9


def _speed_log(tr, monkeypatch):
    """Wrap a tracker's speed and RK4 calls.  The returned list gets ("v",
    speeds) for a speed evaluation at a loop state, ("k",) for one inside a
    full-state RK4 step, ("rk4", h, k1) for each full-state RK4 call and
    ("few", h, k1) for each RK4 call of the few-front search."""
    log, speeds, rk4, few, inside = [], tr._speeds, tr._rk4, contact.point_rk4, []

    def counted_speeds(st, y):
        v = speeds(st, y)
        log.append(("k",) if inside else ("v", v))
        return v

    def counted_rk4(st, y, k1, h):
        log.append(("rk4", h, k1))
        inside.append(True)
        try:
            return rk4(st, y, k1, h)
        finally:
            inside.pop()

    def counted_few(tracker, st, fronts, k1, h):
        log.append(("few", h, k1))
        return few(tracker, st, fronts, k1, h)

    tr._speeds, tr._rk4 = counted_speeds, counted_rk4
    monkeypatch.setattr(contact, "point_rk4", counted_few)
    return log


def _located_steps(tr, f0, t_end, monkeypatch):
    """Solve with the calls logged; returns the events and, split at the
    loop's speed evaluations, the steps whose contact search made trials."""
    log = _speed_log(tr, monkeypatch)
    _, events = tr.advance(f0, t_end)
    steps = []
    for item in log:
        if item[0] == "v":
            steps.append([])
        steps[-1].append(item)
    return events, [s for s in steps if sum(i[0] == "few" for i in s) > 1]


def _located_merge():
    return initial_fronts([-1.0, 0.0], [4, 1, 0], 0.5), Tracker(MODULATED, 0.5, (-6, 6), h_ode=0.01)


def test_one_regular_step_costs_four_speed_evaluations(monkeypatch):
    f0 = initial_fronts([0.0], [1, 0], 0.5)
    tr = Tracker(MODULATED, 0.5, (-2, 2), h_ode=0.01)
    log = _speed_log(tr, monkeypatch)
    tr.advance(f0, 0.01)
    assert sum(i[0] in ("v", "k") for i in log) == 4


def _assert_trials_start_from_the_loop_speeds(step):
    """Every RK4 call of a located step of two fronts starts from the loop's
    speeds, and the search's few-front calls have distinct lengths: its
    upper end is never integrated twice.  Returns those lengths."""
    (_, v), trials = step[0], [i for i in step[1:] if i[0] in ("few", "rk4")]
    for trial in trials:
        assert np.array_equal(trial[-1], v)
    searched = [i[1] for i in trials if i[0] == "few"]
    assert len(set(searched)) == len(searched)
    return searched


def test_located_merge_reuses_the_loop_speeds_and_does_not_restep(monkeypatch):
    f0, tr = _located_merge()
    events, located = _located_steps(tr, f0, 1.2, monkeypatch)
    assert len(events) == 1 and len(located) == 1
    searched = _assert_trials_start_from_the_loop_speeds(located[0])
    # the full-state step runs once, to a length the search tried
    (full,) = [i[1] for i in located[0] if i[0] == "rk4"]
    assert full in searched


def test_located_merge_costs_at_most_six_rk4_calls(monkeypatch):
    f0, tr = _located_merge()
    _, located = _located_steps(tr, f0, 1.2, monkeypatch)
    # one overshooting step of length h, then the contact search
    assert sum(i[0] == "few" for i in located[0]) - 1 <= 6


def _no_candidates(monkeypatch):
    """Send every contact to the rerun path, as when the search misses the
    contacting pair: the step of all fronts finds it, and the search runs
    again on the pairs that step brings into contact range."""
    monkeypatch.setattr(contact, "candidates", lambda gaps, v_app, h: [])


def test_a_rerun_reuses_the_loop_speeds_and_costs_at_most_six_trials(monkeypatch):
    f0, tr = _located_merge()
    _no_candidates(monkeypatch)
    events, located = _located_steps(tr, f0, 1.2, monkeypatch)
    assert len(events) == 1 and len(located) == 1
    searched = _assert_trials_start_from_the_loop_speeds(located[0])
    # the loop's evaluation, the step of all fronts to h that finds the
    # contact, and the one to the located length
    full = [i[1] for i in located[0] if i[0] == "rk4"]
    assert full[0] == searched[0] and full[1] in searched and len(full) == 2
    assert sum(i[0] in ("v", "k") for i in located[0]) == 1 + 3 + 3
    assert len(searched) - 1 <= 6


def test_a_located_merge_makes_one_full_state_step(monkeypatch):
    f0, tr = _located_merge()
    events, located = _located_steps(tr, f0, 1.2, monkeypatch)
    assert len(events) == 1 and len(located) == 1
    # the loop's own evaluation and one RK4 step of all fronts: 1 + 3 speed
    # evaluations, where a rerun makes 1 + 3 + 3
    assert sum(i[0] in ("v", "k") for i in located[0]) == 1 + 3
    assert sum(i[0] == "rk4" for i in located[0]) == 1
    assert sum(i[0] == "few" for i in located[0]) > 2


def test_located_contact_brackets_the_threshold(monkeypatch):
    f0, tr = _located_merge()
    few, calls = contact.point_rk4, []

    def recorded_few(tracker, st, fronts, k1, h):
        y_h = few(tracker, st, fronts, k1, h)
        calls.append((st.t, np.array([f.y for f in fronts]), np.array(k1), h,
                      np.min(np.diff(y_h), initial=np.inf)))
        return y_h

    monkeypatch.setattr(contact, "point_rk4", recorded_few)
    _, events = tr.advance(f0, 1.2)
    monkeypatch.undo()
    assert len(events) == 1
    t0 = max(c[0] for c in calls if sum(d[0] == c[0] for d in calls) > 1)
    located = [c for c in calls if c[0] == t0]
    # the search returns its upper end: the shortest step that reached contact
    _, y, k1, s, gap = min((c for c in located if c[4] <= TOL_POS), key=lambda c: c[3])
    assert events[0].time == t0 + s
    assert gap <= TOL_POS
    y_before = tr._rk4(_State(f0), y, k1, s - TOL_EVENT)
    assert y_before[1] - y_before[0] > TOL_POS


# ---------------------------------------------------------------------------
# the few-front contact search on Python floats
# ---------------------------------------------------------------------------

# the fluxes of tests/test_fluxes.py::test_point_equals_f_fu_and_fx_on_floats
POINT_FLUXES = {
    "homogeneous": BURGERS,
    "modulated": MODULATED,
    "negative_amp_phase_freq": make_builtin_flux("modulated_burgers", base=1.3, amp=-0.6,
                                                 freq=2.7, phase=-0.9),
}


def _state_with_levels(tr, field_, trace=None):
    """A working state with its level constants built (as ``_speeds`` builds
    them) and the given warm starts."""
    st = _State(field_)
    g = tr.delta * st.z.astype(float)
    st.set_levels(np.array(level_constants(tr.flux, np.array((g[:-1], g[1:])))))
    if trace is not None:
        st.trace = trace.copy()
    return st


@pytest.fixture(scope="module")
def bump_fields():
    """benchmark.ini's fields at t = 0, 0.3 and 0.9 for delta 0.005 and 0.001."""
    out = {}
    for delta, cells in ((0.005, 1200), (0.001, 6000)):
        f, tr, _ = _bump_solve(delta, cells)
        for t in (0.0, 0.3, 0.9):
            f = tr.advance(f, t)[0]
            out[delta, t] = f
    return out


def _variants(field_):
    """The field with its levels as they are (g >= 0), negated (g <= 0) and of
    alternating sign, and with two positions set to -0.0 and 0.0: every front
    has an outer g = 0 piece somewhere, and both branches occur."""
    z = field_.z
    signs = np.where(np.arange(len(z)) % 2 == 0, 1, -1)
    zeros = field_.positions.copy()
    zeros[:2] = (-0.0, 0.0)
    return [field_, replace(field_, z=-z), replace(field_, z=signs * z),
            replace(field_, positions=zeros)]


def _guesses(tr, field_):
    """Cold starts, warm traces from nearby positions, their negatives, and
    signed zeros and NaN in the columns."""
    st = _state_with_levels(tr, field_)
    tr._speeds(st, st.y + 1e-3)
    warm = st.trace
    odd = warm.copy()
    odd[:, ::3] = -0.0
    odd[0, 1::5] = np.nan
    return [np.zeros_like(warm), warm, -warm, odd]


@pytest.mark.parametrize("name", [*POINT_FLUXES, "dsl_fan"])
@pytest.mark.parametrize("delta", [0.005, 0.001])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
def test_point_speeds_are_the_bits_of_the_array_columns(bump_fields, name, delta, t, request):
    # the few-front search relies on these bits, and with them on math.sin and
    # vectorized np.sin agreeing on this host, and on numpy's functions giving
    # the bits of their array loops on Python floats
    flux = POINT_FLUXES[name] if name in POINT_FLUXES else request.getfixturevalue("dsl_fan_flux")
    tr = Tracker(flux, delta, (-6, 6))
    for field_ in _variants(bump_fields[delta, t]):
        n = field_.n_fronts
        for guess in _guesses(tr, field_):
            st = _state_with_levels(tr, field_, guess)
            v = tr._speeds(st, st.y)
            scalar = _state_with_levels(tr, field_, guess)
            fronts = contact.few_fronts(scalar, list(range(n)))
            w = np.array([contact.point_speed(tr, scalar, f, f.y) for f in fronts])
            assert w.tobytes() == v.tobytes()
            assert np.transpose([f.trace for f in fronts]).tobytes() == st.trace.tobytes()

            for k in sorted({0, n // 3, n - 1}):  # outer fronts have a g = 0 side
                # one front alone, as the search extracts it
                b = _state_with_levels(tr, field_, guess)
                (front,) = contact.few_fronts(b, [k])
                w = np.array([contact.point_speed(tr, b, front, front.y)])
                assert w.tobytes() == v[k:k + 1].tobytes()
                assert np.array(front.trace).tobytes() == st.trace[:, k].tobytes()

            # an RK4 step of a few columns from the traces the speeds v left, and
            # the next one from the traces that step leaves
            cols = sorted({0, 1, n // 2, n - 1})
            few = _state_with_levels(tr, field_, st.trace)
            fronts = contact.few_fronts(few, cols)
            for h in (0.003, 0.001):
                y = tr._rk4(st, field_.positions, v, h)
                y_few = contact.point_rk4(tr, few, fronts, v[cols].tolist(), h)
                assert np.array(y_few).tobytes() == y[cols].tobytes()
                assert np.transpose([f.trace for f in fronts]).tobytes() == \
                    st.trace[:, cols].tobytes()


def _events_and_positions(tr, f0, times):
    logs, f = [], f0
    for t in times:
        f, log = tr.advance(f, t)
        logs.extend(log)
    return logs, f


def _largest_deviation(log, ref_log, f1, ref_f1):
    """Event ids must be equal; returns the largest event time, event position
    and final position deviations."""
    assert [(e.consumed, e.produced) for e in log] == \
        [(e.consumed, e.produced) for e in ref_log]
    assert np.array_equal(f1.z, ref_f1.z) and np.array_equal(f1.ids, ref_f1.ids)
    return (max((abs(a.time - b.time) for a, b in zip(log, ref_log)), default=0.0),
            max((abs(a.position - b.position) for a, b in zip(log, ref_log)), default=0.0),
            float(np.max(np.abs(f1.positions - ref_f1.positions), initial=0.0)))


@pytest.mark.parametrize("delta, cells", [(0.005, 1200), (0.002, 3000), (0.001, 6000)])
def test_few_front_search_matches_the_rerun_search(delta, cells, monkeypatch):
    # the delta-sweep: the same solve with every contact found by the step of
    # all fronts and then searched on a rerun
    f0, tr, times = _bump_solve(delta, cells)
    log, f1 = _events_and_positions(tr, f0, times)
    _no_candidates(monkeypatch)
    ref_log, ref_f1 = _events_and_positions(tr, f0, times)
    dev = _largest_deviation(log, ref_log, f1, ref_f1)
    print(f"\ndelta = {delta}: {len(log)} events; largest deviation: event time {dev[0]:.1e}, "
          f"event position {dev[1]:.1e}, final position {dev[2]:.1e}")
    assert max(dev) <= 1e-9


def test_benchmark_run_matches_the_rerun_search(tmp_path, monkeypatch):
    import fronttrack.cli as cli
    cfg = cli.load_config("benchmark.ini")
    cfg.checks = []
    events = []
    for few in (True, False):
        if not few:
            _no_candidates(monkeypatch)
        manifest, status = cli.run(cfg, tmp_path / str(few))
        assert status == 0
        rows = np.genfromtxt(tmp_path / str(few) / "events.csv", delimiter=",",
                             names=True, dtype=None, encoding="utf-8")
        events.append(rows)
    a, b = events
    assert len(a) == 64
    assert list(a["consumed_ids"]) == list(b["consumed_ids"])
    assert list(a["produced_id"]) == list(b["produced_id"])
    dev = max(np.max(np.abs(a["t"] - b["t"])), np.max(np.abs(a["x"] - b["x"])))
    print(f"\nbenchmark.ini: largest event time or position deviation {dev:.1e}")
    assert dev <= 1e-9


def _drop_the_earliest_pair(monkeypatch):
    """Take from the candidates the pair with the least linear contact time,
    the one that makes contact; returns, for each step of all fronts, its
    start time and the number of few-front trials made at its state before
    it.  A second step from the same state is a rerun's."""
    select, few, rk4 = contact.candidates, contact.point_rk4, Tracker._rk4
    trials, steps = [], []

    def dropping(gaps, v_app, h):
        pairs = select(gaps, v_app, h)
        return [p for p in pairs if p != min(pairs, key=lambda p: gaps[p] / v_app[p])]

    def counted_few(tracker, st, *args):
        trials.append(st.t)
        return few(tracker, st, *args)

    def counted_rk4(self, st, *args):
        steps.append((st.t, trials.count(st.t)))
        return rk4(self, st, *args)

    monkeypatch.setattr(contact, "candidates", dropping)
    monkeypatch.setattr(contact, "point_rk4", counted_few)
    monkeypatch.setattr(Tracker, "_rk4", counted_rk4)
    return steps


@pytest.mark.parametrize("x0, trials", [
    (-1.6953, 2),   # the kept pair is located, and the dropped one is in contact there
    (-1.695, 1),    # the kept pair does not reach contact range within h
], ids=["searched", "unlocated"])
def test_a_missed_candidate_is_searched_on_a_rerun(monkeypatch, x0, trials):
    # three shocks whose two pairs meet within one step of each other
    f0 = FrontField(time=0.0, delta=0.5, positions=np.array([x0, -1.0, 0.0]),
                    z=np.array([6, 3, 1, 0]), ids=np.arange(3), next_id=3).validate()
    with monkeypatch.context() as m:
        _no_candidates(m)
        ref, ref_log = Tracker(MODULATED, 0.5, (-8, 8)).advance(f0, 3.0)
    steps = _drop_the_earliest_pair(monkeypatch)
    f1, log = Tracker(MODULATED, 0.5, (-8, 8)).advance(f0, 3.0)
    # the trials made before each step of all fronts that a rerun follows
    rerun = [n for (t, n), (t_next, _) in zip(steps, steps[1:]) if t_next == t]
    assert rerun and max(rerun) >= trials
    assert log == ref_log and len(log) == 2
    assert f1.positions.tobytes() == ref.positions.tobytes()


@pytest.mark.parametrize("case", ["degenerate", "alpha_too_large"])
def test_the_few_front_path_fails_as_the_array_path_does(case):
    if case == "degenerate":
        # U = sqrt(2e-24) and 0 differ by less than the quotient's floor of 1e-9
        flux, delta, error = BURGERS, 1e-24, DegenerateStatesError
    else:
        # the bracket sqrt(2g/alpha) lies below every root: Newton stalls on it
        flux, delta, error = replace(MODULATED, alpha=50.0), 0.5, InversionError
    f0 = FrontField(time=0.25, delta=delta, positions=np.array([0.3]),
                    z=np.array([1, 0]), ids=np.array([0]), next_id=1)
    tr = Tracker(flux, delta, (-2, 2))
    raised = []
    for call in (lambda st: tr._speeds(st, st.y),
                 lambda st: tr._rk4(st, st.y, np.zeros(1), 0.01),
                 lambda st: contact.point_speed(tr, st, *contact.few_fronts(st, [0]), 0.3),
                 lambda st: contact.point_rk4(tr, st, contact.few_fronts(st, [0]), [0.0], 0.01)):
        with pytest.raises(error) as info:
            call(_state_with_levels(tr, f0))
        raised.append(info.value)
    assert len({str(e) for e in raised}) == 1
    if case == "degenerate":
        assert "t=0.25" in str(raised[0]) and "y=array([0.3])" in str(raised[0])
        assert "positions" in str(raised[0])
    else:
        assert {(e.x, e.level) for e in raised} == {(0.3, 0.5)}


def test_the_sweep_solve_makes_few_full_state_inversions(monkeypatch):
    # timing-free guard: a located event costs the loop's evaluation and one RK4
    # step of all fronts, and the event itself inverts only its produced front
    # (556 calls for 64 events);
    # with every contact found on a rerun, which first steps all fronts to h,
    # the solve costs 748
    import fronttrack.tracker as tracker_module
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_level(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "solve_level", counted)
    f0, tr, times = _bump_solve(0.005, 1200)
    log, _ = _events_and_positions(tr, f0, times)
    assert len(log) == 64
    assert len(calls) <= 560


def _kinked(s):
    # two troubled pairs: the lower gap switches from the first to the second
    # at s = 0.00375, and the second reaches contact at s = 0.007
    return min(0.002 - 0.1 * s, 0.0035 - 0.5 * s)


@pytest.mark.parametrize("f", [
    _kinked,
    lambda s: 1e-9 * (0.0037 - s),                   # nearly flat
    lambda s: 1e3 * (0.0037 - s) ** 3,               # flat at its root
    lambda s: (0.0037 - s) * (1.0 + 1e4 * s * s),    # curved
    lambda s: -1e-12 - s,                            # contact already at s = 0
], ids=["kinked", "nearly_flat", "cubic", "curved", "improper"])
def test_first_contact_ends_within_the_halving_bound(f):
    h, evals = 0.01, []

    def step(s):
        evals.append(s)
        return f(s), np.array([s])

    s, y = first_contact(step, h, f(0.0), f(h), np.array([h]))
    assert f(s) <= 0.0 and y[0] == s
    lo = max([e for e in evals if e < s], default=0.0)
    assert s - lo <= TOL_EVENT
    assert lo == 0.0 or f(lo) > 0.0
    assert len(set(evals)) == len(evals) and 0.0 < min(evals + [s]) and h not in evals
    assert len(evals) <= 3 * int(np.ceil(np.log2(h / TOL_EVENT)))


@pytest.mark.parametrize("h", [1e6, 1e7])
def test_first_contact_ends_when_no_float_lies_inside_its_bracket(h):
    # ulp(h) is above TOL_EVENT here: the bracket cannot shrink to TOL_EVENT
    f, evals = lambda s: 0.37 * h - s, []

    def step(s):
        evals.append(s)
        if len(evals) > 200:
            raise RuntimeError(f"no end after {len(evals) - 1} trials")
        return f(s), np.array([s])

    s, y = first_contact(step, h, f(0.0), f(h), np.array([h]))
    assert f(s) <= 0.0 and y[0] == s
    lo = max([e for e in evals if e < s], default=0.0)
    assert lo == 0.0 or f(lo) > 0.0


def test_fan_then_shock_pile_up_keeps_invariants():
    # compressive data: fan runs into a slower shock; several merges
    u0 = lambda x: np.where(np.asarray(x) < 0.0, 0.4 * (np.asarray(x) > -1.5), 0.0)
    f0 = quantize_initial(MODULATED, u0, 0.02, (-3, 3), 300)
    tr = Tracker(MODULATED, 0.02, (-5, 5), h_ode=0.01)
    n0 = f0.n_fronts
    f1, log = tr.advance(f0, 3.0)
    assert len(log) <= n0 - 1
    tv_seq = [e.tv_after for e in log]
    assert all(b <= a + 1e-15 for a, b in zip(tv_seq, tv_seq[1:]))
    assert np.all(np.diff(f1.positions) > 0)
    assert np.all(np.abs(np.diff(f1.z)) >= 1)
    assert np.max(np.diff(f1.z)) <= 1


# ---------------------------------------------------------------------------
# one stacked inversion per speed evaluation, warm-started across events
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dsl_fan_flux():
    # the benchmark's dsl_fan flux: no closed-form inverse
    flux = make_builtin_flux("custom_expr", expr="(1+0.5*sin(x))*u^2/2 + u^4/12")
    return certify(flux, audit_assumptions(flux, ((-3.0, 3.0), (-2.6, 2.6)), grid=48))


@pytest.mark.parametrize("which", ["modulated", "dsl_fan"])
def test_rh_speed_traces_are_two_separate_inversions(which, request):
    flux = MODULATED if which == "modulated" else request.getfixturevalue("dsl_fan_flux")
    rng = np.random.default_rng(8)
    y = rng.uniform(-3.0, 3.0, 40)
    g_l = rng.uniform(-0.6, 0.6, 40)
    g_r = g_l - rng.uniform(0.05, 0.3, 40)
    warm_l = solve_level(flux, y - 0.01, g_l)
    warm_r = solve_level(flux, y + 0.01, g_r)
    cases = [
        (0.3, 0.4, -0.2, None, None),
        (0.3, 0.4, -0.2, 0.95, -0.6),
        (0.3, g_l, g_r, None, None),  # scalar y, array levels
        (y, g_l, g_r, None, None),
        (y, g_l, g_r, warm_l, warm_r),
        (y, g_l, g_r, warm_l, None),
        (y, g_l, g_r, None, warm_r),
    ]
    generic = replace(flux, at=None)  # the reference: f and fu at every iteration
    for yy, gl, gr, ql, qr in cases:
        v, u_l, u_r = rh_speed(flux, yy, gl, gr, ql, qr)
        assert np.array_equal(u_l, solve_level(flux, yy, gl, guess=ql))
        assert np.array_equal(u_r, solve_level(flux, yy, gr, guess=qr))
        assert np.shape(u_l) == np.shape(u_r) == np.broadcast(yy, gl, gr).shape
        for got, want in zip((v, u_l, u_r), rh_speed(generic, yy, gl, gr, ql, qr)):
            assert np.array_equal(got, want)

    # Newton evaluates x at its own shape; broadcasting it up to the levels'
    # shape first changes no bit: the tracker's (n,) against (2, n), and
    # l1_u_fields' (m,) or (k, m) against (2, k, 1)
    g_stack = np.array((g_l, g_r))
    g_cells = np.array((g_l[:5], g_r[:5]))[:, :, None]
    xm = np.linspace(-2.0, 2.0, 7)
    for x, g, q in ((y, g_stack, None), (y, g_stack, np.array((warm_l, warm_r))),
                    (xm, g_cells, None), (xm + y[:5, None], g_cells, None)):
        wide = np.broadcast_to(x, np.broadcast_shapes(x.shape, g.shape)).copy()
        assert np.array_equal(solve_level(flux, x, g, guess=q),
                              solve_level(flux, wide, g, guess=q))

    # the tracker's cached level constants give rh_speed's speeds and traces,
    # before and after a merge
    f0 = initial_fronts(list(np.sort(y[:6])), [3, 2, 1, -1, 0, 1, -2], 0.1)
    tr = Tracker(flux, 0.1, (-6, 6))
    st = _State(f0)
    for merge in (None, (1, 2), (0, 1)):
        if merge is not None:
            st.remove_range(*merge, produced=(float(st.y[merge[0]]), st.next_id))
        yy = np.sort(y[:len(st.y)])
        g = 0.1 * st.z.astype(float)
        want = rh_speed(flux, yy, g[:-1], g[1:], *st.trace)
        assert np.array_equal(tr._speeds(st, yy), want[0])
        assert np.array_equal(st.trace, want[1:])


def test_remove_range_keeps_the_warm_starts():
    f0 = initial_fronts([-2.0, -1.0, 0.0, 1.0, 2.0], [4, 3, 2, 1, 2, 0], 0.1)
    ul, ur = np.arange(5.0) + 0.1, np.arange(5.0) + 0.6
    st = _State(f0)
    st.trace = np.array((ul, ur))
    Tracker(BURGERS, 0.1, (-3, 3))._speeds(st, st.y + np.arange(5.0) * 0.01)
    assert st.levels is not None
    st.trace = np.array((ul, ur))
    st.remove_range(1, 3, produced=(0.0, 99))
    # survivors keep their traces; the produced front gets (ul[a], ur[b])
    assert list(st.ids) == [0, 99, 4]
    assert np.array_equal(st.trace[0], [ul[0], ul[1], ul[4]])
    assert np.array_equal(st.trace[1], [ur[0], ur[3], ur[4]])
    _assert_levels_spliced(st)
    st = _State(f0)
    st.trace = np.array((ul, ur))
    st.remove_range(1, 2)  # annihilation: no produced front
    assert list(st.ids) == [0, 3, 4]
    assert np.array_equal(st.trace[0], ul[[0, 3, 4]])
    assert np.array_equal(st.trace[1], ur[[0, 3, 4]])
    st = _State(f0)
    Tracker(BURGERS, 0.1, (-3, 3))._speeds(st, st.y)
    st.remove_range(2, 3)  # levels 2, 1, 2: the outer levels meet
    _assert_levels_spliced(st)


def _assert_levels_spliced(st):
    # remove_range splices the level constants: they are those the new levels
    # build, bit for bit, and st.levels are the rows of the one array
    want = level_constants(BURGERS, np.array((0.1 * st.z[:-1], 0.1 * st.z[1:])))
    assert st.lc.shape == (5, 2, len(st.y))
    assert all(got.tobytes() == ref.tobytes() for got, ref in zip(st.levels, want))
    assert all(np.shares_memory(row, st.lc) for row in st.levels)
    assert st.num.tobytes() == (want.g_abs[0] - want.g_abs[1]).tobytes()


def delete_and_insert(st, a, b, produced=None):
    """_State.remove_range as np.delete and np.insert calls: the reference
    for its slices.  Returns the new (y, ids, z, trace)."""
    outer = (st.trace[0, a], st.trace[1, b])
    trace = np.delete(st.trace, np.s_[a:b + 1], axis=1)
    y = np.delete(st.y, np.s_[a:b + 1])
    ids = np.delete(st.ids, np.s_[a:b + 1])
    z = np.delete(st.z, np.s_[a + 1:b + 1])
    if produced is None:
        return y, ids, np.delete(z, a + 1), trace
    return (np.insert(y, a, produced[0]), np.insert(ids, a, produced[1]), z,
            np.insert(trace, a, outer, axis=1))


@pytest.mark.parametrize("a, b", [(0, 0), (0, 4), (1, 3), (2, 3), (4, 4)])
@pytest.mark.parametrize("produced", [None, (0.25, 99)], ids=["annihilate", "produce"])
def test_remove_range_matches_delete_and_insert(a, b, produced):
    st = _State(initial_fronts([-2.0, -1.0, 0.0, 1.0, 2.0], [4, 3, 2, 1, 2, 0], 0.1))
    st.trace = np.array((np.arange(5.0) + 0.1, np.arange(5.0) + 0.6))
    want = delete_and_insert(st, a, b, produced)
    st.remove_range(a, b, produced)
    for got, ref in zip((st.y, st.ids, st.z, st.trace), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_speed_evaluation_after_a_merge_starts_warm():
    calls = []

    def f(x, u):
        calls.append(1)
        return MODULATED.f(x, u)

    tr = Tracker(replace(MODULATED, f=f, at=None, point=None), 0.5, (-6, 6), h_ode=0.01)
    resolve, after = tr._resolve_leftmost_cluster, []

    def counted_resolve(st, *args):
        n = len(calls)
        v = resolve(st, *args)
        after.append(len(calls) - n)  # the event's one inversion, of its produced front
        return v

    tr._resolve_leftmost_cluster = counted_resolve
    f0 = initial_fronts([-1.0, 0.0, 0.5], [4, 1, 0, -1], 0.5)
    _, events = tr.advance(f0, 2.0)
    assert len(events) == 2
    # the survivors keep their speeds, and the produced front starts from the
    # kept outer traces: each trace takes one Newton step and one residual check
    assert after == [4, 4]


def test_each_event_costs_one_speed_evaluation_that_keeps_the_survivors_bits(monkeypatch):
    # benchmark.ini's data: an event makes no full-state speed evaluation; it
    # inverts its produced front alone and returns the speeds at the new state,
    # where the survivors' speeds and traces are their bits before the event,
    # and the loop steps from them
    f0, tr, _ = _bump_solve(0.005, 1200)
    speeds, resolve, calls = tr._speeds, tr._resolve_leftmost_cluster, []
    point_speed, points = contact.point_speed, []

    def logged_speeds(st, y):
        calls.append(("v" if y is st.y else "k",))
        return speeds(st, y)

    def logged_resolve(st, v, *args):
        n, ids, trace, before = len(calls), st.ids.copy(), st.trace.copy(), len(points)
        w = resolve(st, v, *args)
        assert len(calls) == n  # no full-state evaluation of its own
        # one front's speed where the event produced one, none where it annihilated
        assert len(points) - before == (args[-1][-1].produced is not None)
        calls.append(("event", ids, v.copy(), trace, st.ids.copy(), w, st.trace.copy()))
        return w

    tr._speeds, tr._resolve_leftmost_cluster = logged_speeds, logged_resolve
    monkeypatch.setattr(contact, "point_speed", lambda *a: points.append(1) or point_speed(*a))
    _, log = tr.advance(f0, 1.0)
    events = [i for i, c in enumerate(calls) if c[0] == "event"]
    assert len(events) == len(log) > 50
    for i in events:
        _, ids, v, trace, new_ids, w, new_trace = calls[i]
        assert calls[i + 1][0] in ("event", "k")  # the next step's RK4 stage, not a "v"
        survivors = np.isin(new_ids, ids)
        assert survivors.sum() >= len(new_ids) - 1
        kept = np.isin(ids, new_ids)
        assert w[survivors].tobytes() == v[kept].tobytes()
        assert new_trace[:, survivors].tobytes() == trace[:, kept].tobytes()


def _fresh_copy(tr, st, trace):
    """A copy of the state st with the warm starts ``trace`` and its level
    constants rebuilt by ``_speeds``: the full evaluation the splice replaces."""
    fresh = _State(st.to_field(tr.delta))
    fresh.trace = trace.copy()
    return fresh, tr._speeds(fresh, fresh.y)


def _spliced_events(tr, f0, t_end, monkeypatch):
    """Solve, checking at every event that the spliced speeds, traces, level
    constants and numerators have the bits of a fresh evaluation at the new
    state from the traces the splice left.  Returns the produced ids."""
    remove_range, resolve = _State.remove_range, tr._resolve_leftmost_cluster
    produced, spliced = [], []

    def kept_range(st, *args, **kwargs):
        remove_range(st, *args, **kwargs)
        spliced.append(st.trace.copy())

    def checked_resolve(st, *args):
        v = resolve(st, *args)
        fresh, want = _fresh_copy(tr, st, spliced.pop())
        assert v.tobytes() == want.tobytes()
        assert st.trace.tobytes() == fresh.trace.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(st.levels, fresh.levels))
        assert st.num.tobytes() == fresh.num.tobytes()
        produced.append(args[-1][-1].produced)
        return v

    monkeypatch.setattr(_State, "remove_range", kept_range)
    tr._resolve_leftmost_cluster = checked_resolve
    tr.advance(f0, t_end)
    return produced


@pytest.mark.parametrize("name", ["homogeneous", "modulated", "dsl_fan"])
def test_every_event_splices_the_bits_of_a_full_evaluation(name, monkeypatch, request):
    flux = POINT_FLUXES[name] if name in POINT_FLUXES else request.getfixturevalue("dsl_fan_flux")
    u0 = make_initial("bump", amp=0.8, center=0.0, width=1.0)
    produced = []
    for delta, cells in ((0.005, 1200), (0.001, 6000)):  # benchmark.ini's data
        f0 = quantize_initial(flux, u0, delta, (-3, 3), cells)
        produced += _spliced_events(Tracker(flux, delta, (-6, 6)), f0, 1.0, monkeypatch)
    assert None not in produced and len(produced) > 300
    # levels 2, 1, 0, 1, 0: the co-located middle pair annihilates between two
    # survivors, which then merge
    f0 = FrontField(time=0.0, delta=0.1, positions=np.array([-1.0, 0.0, 0.0, 1.0]),
                    z=np.array([2, 1, 0, 1, 0]), ids=np.arange(4), next_id=4)
    assert _spliced_events(Tracker(flux, 0.1, (-6, 6)), f0, 8.0, monkeypatch) == [None, 4]


@pytest.mark.parametrize("case", ["degenerate", "alpha_too_large"])
def test_the_splice_fails_as_the_full_evaluation_does(case):
    # two co-located fronts, levels 2, 0, 1, whose merged front 2 -> 1 fails
    # to invert (alpha too large) or is degenerate (U = 2e-12 against 1.4e-12)
    if case == "degenerate":
        flux, delta, error = BURGERS, 1e-24, DegenerateStatesError
    else:
        flux, delta, error = replace(MODULATED, alpha=50.0), 0.5, InversionError
    f0 = FrontField(time=0.25, delta=delta, positions=np.array([0.3, 0.3]),
                    z=np.array([2, 0, 1]), ids=np.arange(2), next_id=2)
    tr = Tracker(flux, delta, (-2, 2))
    st = _state_with_levels(tr, f0)
    with pytest.raises(error) as spliced:
        tr._resolve_leftmost_cluster(st, np.zeros(2), np.array([True]), np.zeros(1), 1e-12, [])
    with pytest.raises(error) as full:
        _fresh_copy(tr, st, st.trace)
    assert type(spliced.value) is type(full.value) is error
    assert str(spliced.value) == str(full.value)
    if case == "alpha_too_large":
        assert (spliced.value.x, spliced.value.level) == (full.value.x, full.value.level) == \
            (0.3, 1.0)


def test_event_tv_is_the_tv_of_the_levels_after_it(monkeypatch):
    # the randomized runs' fields, to t = 3 so that four of the five interact
    resolve, levels = Tracker._resolve_leftmost_cluster, []

    def kept_levels(self, st, *args):
        v = resolve(self, st, *args)
        levels[-1].append(st.z.copy())
        return v

    monkeypatch.setattr(Tracker, "_resolve_leftmost_cluster", kept_levels)
    events = 0
    for seed in (1, 2, 3, 4, 5):
        levels.append([])
        f0, _, log = _random_run(seed, t_end=3.0)
        assert len(levels[-1]) == len(log)
        events += len(log)
        for e, z, z_before in zip(log, levels[-1], [f0.z] + levels[-1]):
            assert e.tv_before == f0.delta * _tv_z(z_before)
            assert e.tv_after == f0.delta * _tv_z(z)
    assert events >= 20


def test_no_inversion_between_an_event_and_the_next_steps_first_stage(monkeypatch):
    import fronttrack.tracker as tracker_module
    resolve, rk4, solve, calls = (Tracker._resolve_leftmost_cluster, Tracker._rk4,
                                  tracker_module.solve_level, [])
    monkeypatch.setattr(Tracker, "_resolve_leftmost_cluster",
                        lambda *a: calls.append("event") or resolve(*a))
    monkeypatch.setattr(Tracker, "_rk4", lambda *a: calls.append("rk4") or rk4(*a))
    monkeypatch.setattr(tracker_module, "solve_level",
                        lambda *a, **k: calls.append("solve") or solve(*a, **k))
    f0, tr, times = _bump_solve(0.005, 1200)
    log, _ = _events_and_positions(tr, f0, times)
    events = [i for i, c in enumerate(calls) if c == "event"]
    assert len(events) == len(log) == 64
    for i in events:
        nxt = calls.index("rk4", i)
        assert "solve" not in calls[i:nxt]
        # the step's first RK4 stage is its first full-state inversion
        assert calls[nxt + 1] == "solve"


@pytest.mark.parametrize("positions, z, message", [
    ([0.1, 0.0], [0, 1, 2], "not ordered"),  # a fan pair in the wrong order
    ([0.0, 0.1], [0, 1, 1], "null front"),
], ids=["out_of_order", "null_front"])
def test_advance_rejects_an_invalid_field(positions, z, message):
    f0 = FrontField(time=0.5, delta=0.1, positions=np.array(positions),
                    z=np.array(z, dtype=np.int64),
                    ids=np.array([0, 1], dtype=np.int64), next_id=2)
    tr = Tracker(BURGERS, 0.1, (-2, 2))
    steps = []
    tr._rk4 = lambda *args: steps.append(args)
    with pytest.raises(FrontFieldError, match=message):
        tr.advance(f0, 1.0)
    assert steps == []


# ---------------------------------------------------------------------------
# sampling and totals
# ---------------------------------------------------------------------------

def test_sampling_examples():
    f = empty_field(0.1)
    xs = np.linspace(-3, 3, 7)
    assert np.all(sample_u(BURGERS, f, xs) == 0.0)

    field = initial_fronts([-2.0, 0.0], [0, 5, 0], 0.1)
    assert sample_u(BURGERS, field, -1.0) == pytest.approx(1.0, abs=1e-12)
    # cadlag: a sample at the front position belongs to the right piece
    assert sample_g(field, 0.0) == 0.0
    assert sample_g(field, -2.0) == pytest.approx(0.5)
    assert sample_g(field, np.nextafter(-2.0, -3.0)) == 0.0


def test_tv_examples():
    assert tv_g(empty_field(0.1)) == 0.0
    field = initial_fronts([-2.0, 0.0], [0, 5, 0], 0.1)
    assert tv_g(field) == pytest.approx(1.0)


def test_l1_g_distance_exact():
    a = initial_fronts([0.0], [5, 0], 0.1)
    b = initial_fronts([0.5], [5, 0], 0.1)
    # fields differ by g=0.5 on [0, 0.5)
    assert l1_g_distance(a, b, -2.0, 2.0) == pytest.approx(0.25, abs=1e-14)
    assert l1_g_distance(a, a, -2.0, 2.0) == 0.0


def _alternating_field(positions, ids=None):
    n = len(positions)
    return FrontField(time=0.0, delta=0.1, positions=np.array(positions, dtype=float),
                      z=np.arange(n + 1, dtype=np.int64) % 2,
                      ids=np.arange(n, dtype=np.int64) if ids is None
                      else np.array(ids, dtype=np.int64),
                      next_id=n if ids is None else max(ids) + 1)


@pytest.mark.parametrize("ids", [[3, 7, 3], [5, 1, 2, 9, 5], [4, 0, 8, 4, 4]])
def test_non_adjacent_duplicate_ids_are_rejected(ids):
    assert len(np.unique(ids)) < len(ids)  # the count validate used to take
    field = _alternating_field(np.linspace(-1.0, 1.0, len(ids)), ids)
    with pytest.raises(FrontFieldError, match="duplicate front ids"):
        field.validate()
    _alternating_field(np.linspace(-1.0, 1.0, len(ids)), range(len(ids))).validate()


def _pieces_by_unique(field_a, field_b, lo, hi):
    """common_pieces written with np.unique: the reference."""
    cuts = np.unique(np.concatenate((
        [lo, hi],
        field_a.positions[(field_a.positions > lo) & (field_a.positions < hi)],
        field_b.positions[(field_b.positions > lo) & (field_b.positions < hi)],
    )))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    return cuts, sample_g(field_a, mids), sample_g(field_b, mids)


@pytest.mark.parametrize("a, b, lo, hi", [
    (_alternating_field([-0.5, 0.0, 0.5]), _alternating_field([-0.5, 0.25, 0.5]), -1.0, 1.0),
    (initial_fronts([-0.5, 0.5], [0, 3, 0], 0.1), initial_fronts([-0.5], [2, 0], 0.1),
     -1.0, 1.0),
    (_alternating_field([-1.0, 0.0, 1.0]), _alternating_field([-1.0, 0.5, 1.0]), -1.0, 1.0),
    (_alternating_field([-0.5, 0.0, 0.5]), _alternating_field([0.25]), -0.5, 0.5),
    (_alternating_field([-0.0, 0.5]), _alternating_field([0.0, 0.75]), -1.0, 1.0),
    (_alternating_field([0.0, 0.5]), _alternating_field([-0.5, -0.0]), -1.0, 1.0),
    (_alternating_field([-0.0, 0.5]), _alternating_field([0.0, 0.75]), -0.0, 1.0),
], ids=["shared", "shared_fan", "at_lo_and_hi", "lo_hi_inside", "zeros", "zeros_swapped",
        "lo_negative_zero"])
def test_common_pieces_match_np_unique(a, b, lo, hi):
    cuts, ga, gb = common_pieces(a, b, lo, hi)
    ref_cuts, ref_ga, ref_gb = _pieces_by_unique(a, b, lo, hi)
    assert cuts.tobytes() == ref_cuts.tobytes()  # the same zero is kept, too
    assert np.all(cuts[1:] > cuts[:-1])
    assert np.array_equal(ga, ref_ga) and np.array_equal(gb, ref_gb)
    ref = float(np.sum(np.abs(ref_ga - ref_gb) * np.diff(ref_cuts)))
    assert l1_g_distance(a, b, lo, hi) == ref


# ---------------------------------------------------------------------------
# invariants on randomized runs
# ---------------------------------------------------------------------------

def _random_run(seed, delta=0.05, t_end=1.0):
    rng = np.random.default_rng(seed)
    n_pieces = int(rng.integers(3, 8))
    breaks = np.sort(rng.uniform(-2.0, 2.0, size=n_pieces - 1))
    values = rng.uniform(-0.9, 0.9, size=n_pieces)
    values[0] = 0.0
    values[-1] = 0.0
    u0 = lambda x: values[np.searchsorted(breaks, np.asarray(x), side="right")]
    f0 = quantize_initial(MODULATED, u0, delta, (-3, 3), 240)
    tr = Tracker(MODULATED, delta, (-6.5, 6.5), h_ode=0.01)
    f1, log = tr.advance(f0, t_end)
    return f0, f1, log


def _assert_invariants(f0, f1, log):
    # exact integer TVD at every event
    tv = f0.tv_z()
    for e in log:
        tvb = round(e.tv_before / f0.delta)
        tva = round(e.tv_after / f0.delta)
        assert tvb == tv  # constant between events
        assert tva <= tvb
        tv = tva
    assert f1.tv_z() == tv
    assert len(log) <= max(0, f0.n_fronts - 1)
    if f1.n_fronts:
        assert np.all(np.diff(f1.positions) > 0)
        assert np.max(np.diff(f1.z)) <= 1


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_randomized_run_invariants(seed):
    _assert_invariants(*_random_run(seed))


# ---------------------------------------------------------------------------
# a flux that is not separable: a(x) u^2/2 + b u^4/12 through the DSL, so
# Newton inversion, RK4 and event location see no factored speed field
# ---------------------------------------------------------------------------

def _nonseparable_flux(amp, freq, phase, b):
    source = f"(1 + {amp!r}*sin({freq!r}*x + {phase!r}))*u^2/2 + {b!r}*u^4/12"
    flux = make_builtin_flux("custom_expr", expr=source)
    return certify(flux, audit_assumptions(flux, ((-6.5, 6.5), (-2.0, 2.0)), grid=32))


@pytest.mark.parametrize("seed", range(10))
def test_nonseparable_randomized_run_invariants(seed):
    # a(x) drawn as the acceptance suite's criterion 04 draws it
    rng = np.random.default_rng(5000 + seed)
    flux = _nonseparable_flux(float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.5, 1.5)),
                              float(rng.uniform(0.0, 2 * np.pi)),
                              float(rng.uniform(0.02, 0.1)))
    n_pieces = int(rng.integers(4, 9))
    breaks = np.sort(rng.uniform(-2.0, 2.0, size=n_pieces - 1))
    values = rng.uniform(0.5, 1.0, size=n_pieces) * rng.choice([-1.0, 1.0], size=n_pieces)
    values[0] = values[-1] = 0.0
    u0 = lambda x: values[np.searchsorted(breaks, np.asarray(x), side="right")]
    f0 = quantize_initial(flux, u0, 0.05, (-2.5, 2.5), 160)
    f1, log = Tracker(flux, 0.05, (-6.5, 6.5), h_ode=0.02).advance(f0, 2.0)
    assert log, "the data should make fronts interact"
    _assert_invariants(f0, f1, log)


def test_nonseparable_two_shock_collision_matches_independent_oracle():
    _assert_two_shock_collision_matches_oracle(_nonseparable_flux(0.4, 1.0, 0.5, 0.08))


# ---------------------------------------------------------------------------
# scale: x -> lam*x, t -> lam*t with the flux f(x/lam, u) takes solutions to
# solutions, so benchmark.ini's data scaled by lam must make the same events
# ---------------------------------------------------------------------------

def _scaled_benchmark_run(lam, bound=True):
    """benchmark.ini's solve (modulated Burgers, bump, delta 0.005, 1200
    cells, t_end 1, the default h_ode) with lengths and times scaled by lam;
    with bound=False Newton calls the flux's f and fu, not its ``at``."""
    flux = make_builtin_flux("modulated_burgers", base=1.0, amp=0.5, freq=1.0 / lam)
    flux = flux if bound else replace(flux, at=None)
    u0 = make_initial("bump", amp=0.8, center=0.0, width=lam)
    f0 = quantize_initial(flux, u0, 0.005, (-3 * lam, 3 * lam), 1200)
    f1, log = Tracker(flux, 0.005, (-4 * lam, 4 * lam), h_ode=0.01 * lam).advance(f0, lam)
    return f0, f1, log


@pytest.fixture(scope="module")
def unscaled_benchmark_run():
    return _scaled_benchmark_run(1.0)


@pytest.mark.parametrize("lam", [1e-2, 1e3, 1e6])
def test_scaled_benchmark_run_makes_the_same_events(lam, unscaled_benchmark_run):
    f0, f1, log = unscaled_benchmark_run
    g0, g1, scaled = _scaled_benchmark_run(lam)
    _assert_invariants(g0, g1, scaled)
    assert np.array_equal(g0.z, f0.z) and np.array_equal(g1.z, f1.z)
    assert [(e.consumed, e.produced) for e in scaled] == \
        [(e.consumed, e.produced) for e in log]
    moved = max(np.max(np.abs(np.array([e.position for e in scaled]) / lam
                              - [e.position for e in log])),
                np.max(np.abs(g1.positions / lam - f1.positions)))
    print(f"\nlam = {lam:g}: {len(log)} events, largest |x/lam - x| = {moved:.2e}")


def _scale_case(i):
    """Case i of the cross-scale property test: a flux in x/lam, and data with
    1 to 5 jumps of |u| in [0.3, 0.9] on a window of +-3 lam, at a random
    scale lam = 10^U(-5, 5) and delta."""
    rng = random.Random(f"scale {i}")
    lam = 10.0 ** rng.uniform(-5.0, 5.0)
    delta = rng.uniform(0.002, 0.05)
    if i % 3 == 0:
        flux = BURGERS
    elif i % 3 == 1:
        flux = make_builtin_flux("modulated_burgers", base=1.0, amp=0.5, freq=1.0 / lam)
    else:  # the dsl_fan flux, whose audit the absolute FD step rejects at small lam
        flux = replace(make_builtin_flux(
            "custom_expr", expr=f"(1+0.5*sin(x/{lam!r}))*u^2/2 + u^4/12"), alpha=0.5)
    n = rng.randint(1, 5)
    breaks = sorted(rng.uniform(-2.5, 2.5) * lam for _ in range(n))
    values = np.array([rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.9) for _ in range(n + 1)])
    u0 = lambda x: values[np.searchsorted(breaks, np.asarray(x), side="right")]
    f0 = quantize_initial(flux, u0, delta, (-3 * lam, 3 * lam), round(6.0 / delta))
    tr = Tracker(flux, delta, (-8 * lam, 8 * lam), h_ode=0.01 * lam)
    return (f0, *tr.advance(f0, lam))


def test_the_invariants_hold_at_every_scale():
    interacting = 0
    for i in range(40):
        f0, f1, log = _scale_case(i)
        _assert_invariants(f0, f1, log)
        interacting += bool(log)
    assert interacting >= 15, f"only {interacting} of 40 cases make events"


def test_benchmark_run_is_bit_identical_without_the_bound_flux(unscaled_benchmark_run):
    f0, f1, log = unscaled_benchmark_run
    g0, g1, generic = _scaled_benchmark_run(1.0, bound=False)
    assert np.array_equal(g0.positions, f0.positions) and np.array_equal(g0.z, f0.z)
    assert np.array_equal(g1.positions, f1.positions) and np.array_equal(g1.z, f1.z)
    assert generic == log


def test_determinism_bit_identical():
    fa0, fa1, loga = _random_run(99)
    fb0, fb1, logb = _random_run(99)
    assert np.array_equal(fa1.positions, fb1.positions)
    assert np.array_equal(fa1.z, fb1.z)
    assert len(loga) == len(logb)
    for ea, eb in zip(loga, logb):
        assert ea == eb


def test_window_exit_raises():
    f0 = initial_fronts([0.0], [5, 0], 0.1)  # shock moving right at 1/2
    tr = Tracker(BURGERS, 0.1, (-1, 1), h_ode=0.01)
    with pytest.raises(WindowExitError):
        tr.advance(f0, 10.0)


def test_advance_backwards_rejected():
    f0 = initial_fronts([0.0], [5, 0], 0.1)
    tr = Tracker(BURGERS, 0.1, (-1, 5))
    f1, _ = tr.advance(f0, 1.0)
    with pytest.raises(ValueError):
        tr.advance(f1, 0.5)


def test_l1_time_lipschitz_property():
    f0, _, _ = _random_run(7)
    tr = Tracker(MODULATED, f0.delta, (-6.5, 6.5), h_ode=0.01)
    sol = TrackedSolution(tr, f0)
    tv0 = tv_g(f0)
    u_sup = 1.0
    L = 1.5 * u_sup  # exact envelope for a(x) in [0.5, 1.5]
    rng = np.random.default_rng(40)
    for _ in range(10):
        t = float(rng.uniform(0.0, 0.7))
        h = float(rng.uniform(0.01, 0.3))
        d = l1_g_distance(sol.field_at(t), sol.field_at(t + h), -6.5, 6.5)
        assert d <= L * tv0 * h + 1e-8


def test_tracked_solution_caches_and_reuses():
    f0, _, _ = _random_run(11)
    tr = Tracker(MODULATED, f0.delta, (-6.5, 6.5), h_ode=0.01)
    sol = TrackedSolution(tr, f0)
    a = sol.field_at(0.5)
    b = sol.field_at(0.5)
    assert a is b
    with pytest.raises(ValueError):
        sol.field_at(-1.0)


# ---------------------------------------------------------------------------
# dense output: TrackedSolution answers from its recorded solve
# ---------------------------------------------------------------------------

def _bump_solve(delta, cells):
    """benchmark.ini's data at delta, with its output times 0.5 and 1."""
    u0 = make_initial("bump", amp=0.8, center=0.0, width=1.0)
    f0 = quantize_initial(MODULATED, u0, delta, (-3, 3), cells)
    return f0, Tracker(MODULATED, delta, (-6, 6)), (0.5, 1.0)


def _recorded(tr, f0, times):
    sol = TrackedSolution(tr, f0)
    return sol, [sol.advance(t) for t in times]


def test_recorded_solve_is_bit_identical_to_chained_advance():
    f0, tr, times = _bump_solve(0.005, 1200)
    _, recorded = _recorded(tr, f0, times)
    current = f0
    for field_, log in recorded:
        current, chained = tr.advance(current, field_.time)
        assert np.array_equal(field_.positions, current.positions)
        assert np.array_equal(field_.z, current.z) and np.array_equal(field_.ids, current.ids)
        assert field_.next_id == current.next_id
        assert log == chained


def test_records_are_not_written_after_they_are_taken():
    class Copying(list):
        def append(self, rec):
            super().append(rec)
            self.copies.append(tuple(np.copy(a) if isinstance(a, np.ndarray) else a
                                     for a in rec))

    f0, tr, _ = _bump_solve(0.005, 1200)
    record = Copying()
    record.copies = []
    tr.advance(f0, 0.5, record=record)
    assert len(record) > 50
    for rec, copy in zip(record, record.copies):
        for a, b in zip(rec, copy):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("delta, cells", [(0.005, 1200), (0.002, 3000), (0.001, 6000)])
def test_dense_output_matches_reintegration(delta, cells):
    # the entropy battery's 256 quadrature rows over [0, 1]
    f0, tr, times = _bump_solve(delta, cells)
    sol, _ = _recorded(tr, f0, times)
    fresh = TrackedSolution(tr, f0)
    worst = 0.0
    for t in (np.arange(256) + 0.5) / 256:
        a, b = sol.field_at(t), fresh.field_at(t)
        assert a.time == b.time == t
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.z, b.z)
        assert a.next_id == b.next_id
        a.validate(strict_positions=True)
        worst = max(worst, float(np.max(np.abs(a.positions - b.positions))))
    assert worst <= 1e-10
    print(f"\ndelta = {delta}: largest |interpolated - re-integrated| = {worst:.2e}")


def test_keyframes_and_times_past_the_recorded_solve():
    f0, tr, times = _bump_solve(0.005, 1200)
    sol, recorded = _recorded(tr, f0, times[:1])
    assert sol.field_at(0.0) is f0
    assert sol.field_at(0.5) is recorded[0][0]
    # past the last keyframe: advance from it, as without a recorded solve
    beyond = sol.field_at(0.75)
    again, _ = tr.advance(recorded[0][0], 0.75)
    assert np.array_equal(beyond.positions, again.positions)
    assert np.array_equal(beyond.ids, again.ids)
    assert sol.field_at(0.75) is beyond


def test_output_times_may_start_at_zero_and_repeat():
    f0, tr, _ = _bump_solve(0.005, 1200)
    sol, recorded = _recorded(tr, f0, (0.0, 0.5, 0.5))
    assert [f.time for f, _ in recorded] == [0.0, 0.5, 0.5]
    assert sol.field_at(0.0) is recorded[0][0]
    assert sol.field_at(0.5) is recorded[2][0]
    mid = sol.field_at(0.25)
    ref = TrackedSolution(tr, f0).field_at(0.25)
    assert np.array_equal(mid.ids, ref.ids)
    assert np.max(np.abs(mid.positions - ref.positions)) <= 1e-10


@pytest.mark.parametrize("f0", [
    initial_fronts([], [3], 0.1),
    # two touching fronts annihilate at t = 0: the rest of the span is empty
    FrontField(time=0.0, delta=0.1, positions=np.array([0.0, 5e-11]),
               z=np.array([1, 0, 1], dtype=np.int64),
               ids=np.array([0, 1], dtype=np.int64), next_id=2),
], ids=["empty", "annihilated"])
def test_a_span_without_fronts(f0):
    tr = Tracker(BURGERS, 0.1, (-2, 2), h_ode=0.01)
    sol, _ = _recorded(tr, f0, (0.5,))
    mid = sol.field_at(0.25)
    ref, _ = tr.advance(f0, 0.25)
    assert mid.time == 0.25 and mid.n_fronts == 0
    assert np.array_equal(mid.z, ref.z) and mid.next_id == ref.next_id


def test_a_query_at_an_event_time_sees_the_state_before_it():
    f0 = initial_fronts([-1.0, 0.0], [4, 1, 0], 0.5)  # two shocks merge near t = 1
    tr = Tracker(BURGERS, 0.5, (-6, 6), h_ode=0.01)
    sol, [(_, log)] = _recorded(tr, f0, (2.0,))
    (event,) = log
    at = sol.field_at(event.time)
    assert tuple(at.ids) == event.consumed
    ref, _ = tr.advance(f0, event.time)
    assert np.array_equal(at.ids, ref.ids)
    assert np.max(np.abs(at.positions - ref.positions)) <= 1e-10
    after = sol.field_at(np.nextafter(event.time, 3.0))
    assert list(after.ids) == [event.produced]


def test_long_horizon_oscillatory_data():
    # sine-in-a-bump data: repeated fan/shock interactions, strong TV decay
    import fronttrack as ftpkg
    flux = make_builtin_flux("modulated_burgers", base=1.0, amp=0.4, freq=2.0)
    u0 = lambda x: (0.6 * np.sin(2.5 * np.asarray(x))
                    * ftpkg.smooth_bump(np.asarray(x) / 2.8))
    f0 = quantize_initial(flux, u0, 0.01, (-3, 3), 900)
    tr = Tracker(flux, 0.01, (-8, 8), h_ode=0.01)
    current = f0
    tv_prev = f0.tv_z()
    events = 0
    for t in (0.5, 1.0, 2.0, 3.0):
        current, log = tr.advance(current, t)
        events += len(log)
        assert current.tv_z() <= tv_prev
        tv_prev = current.tv_z()
        current.validate()
    assert events >= 30  # the data is genuinely compressive
    assert current.tv_z() < f0.tv_z()  # self-cancelling oscillations


from hypothesis import assume, example, given, settings, strategies as st_hyp


@given(amp=st_hyp.floats(0.2, 0.9), freq=st_hyp.floats(0.5, 3.0),
       delta=st_hyp.floats(0.02, 0.15), cells=st_hyp.integers(32, 200))
@settings(max_examples=40, deadline=None)
def test_quantize_property(amp, freq, delta, cells):
    u0 = lambda x: amp * np.sin(freq * np.asarray(x))
    field = quantize_initial(MODULATED, u0, delta, (-2.0, 2.0), cells)
    field.validate(strict_positions=False)
    assert field.z[0] == 0 and field.z[-1] == 0
    # every jump between adjacent samples is at most 2 z_max levels
    z_max = int(np.ceil(1.5 * amp * amp / 2 / delta)) + 1
    assert field.n_fronts <= (cells + 1) * 2 * z_max
    diag = field.quantization
    assert diag.l1_sampled <= delta / 2 * 4.0 + 1e-12


def _reference_initial_fronts(breaks, levels, delta, time=0.0):
    """initial_fronts as a loop over jumps and fan levels on Python ints."""
    levels = [int(z) for z in levels]
    pos, zs = [], [levels[0]]
    for k, b in enumerate(breaks):
        z_l, z_r = levels[k], levels[k + 1]
        if z_r < z_l:
            pos.append(float(b))
            zs.append(z_r)
        else:
            for step in range(z_r - z_l):
                pos.append(float(b))
                zs.append(z_l + step + 1)
    n = len(pos)
    return FrontField(time=time, delta=float(delta), positions=np.asarray(pos, dtype=float),
                      z=np.asarray(zs, dtype=np.int64), ids=np.arange(n, dtype=np.int64),
                      next_id=n)


def _reference_quantize(flux, u0, delta, window, cells):
    """quantize_initial's fronts from a list run-length encoder that drops
    the boundary breaks between equal levels one at a time."""
    lo, hi = float(window[0]), float(window[1])
    dx = (hi - lo) / cells
    mids = lo + (np.arange(cells) + 0.5) * dx
    t = np.asarray(g_of(flux, mids, u0(mids)), dtype=float) / delta
    z_cells = np.copysign(np.ceil(np.abs(t) - 0.5), t).astype(np.int64)
    change = np.flatnonzero(np.diff(z_cells)) + 1
    levels = [0] + list(z_cells[np.concatenate(([0], change))]) + [0]
    breaks = [lo] + list(lo + change * dx) + [hi]
    k = 0
    while k < len(breaks):
        if levels[k] == levels[k + 1]:
            del breaks[k], levels[k + 1]
        else:
            k += 1
    return _reference_initial_fronts(breaks, levels, delta)


def _assert_same_field(a, b):
    for name in ("positions", "z", "ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert (a.next_id, a.time, a.delta) == (b.next_id, b.time, b.delta)


@st_hyp.composite
def _raw_jumps(draw):
    """Strictly increasing breaks and levels |z| <= 50 with no null jump."""
    n = draw(st_hyp.integers(0, 8))
    breaks = sorted(draw(st_hyp.lists(st_hyp.floats(-10.0, 10.0), min_size=n,
                                      max_size=n, unique=True)))
    levels = [draw(st_hyp.integers(-50, 50))]
    for _ in range(n):
        levels.append(draw(st_hyp.integers(-50, 50).filter(lambda z: z != levels[-1])))
    return breaks, levels


@given(jumps=_raw_jumps(), time=st_hyp.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_initial_fronts_matches_the_loop_builder(jumps, time):
    breaks, levels = jumps
    assume(np.all(np.diff(breaks) > 0))  # 0.0 and -0.0 are one break
    _assert_same_field(initial_fronts(breaks, levels, 0.05, time),
                       _reference_initial_fronts(breaks, levels, 0.05, time))


@given(values=st_hyp.lists(st_hyp.one_of(st_hyp.just(0.0), st_hyp.floats(-1.0, 1.0)),
                           min_size=1, max_size=40),
       lo=st_hyp.floats(-5.0, 5.0), width=st_hyp.floats(0.1, 10.0),
       delta=st_hyp.floats(0.001, 1.0))
@example(values=[0.0] * 7, lo=-3.0, width=6.0, delta=0.05)    # all-zero data
@example(values=[0.7], lo=-3.0, width=6.0, delta=0.05)        # one cell
@example(values=[-0.9, 0.2, 0.2, 0.8], lo=-1.0, width=3.5, delta=0.01)  # nonzero edges
@settings(max_examples=150, deadline=None)
def test_quantize_matches_the_list_run_length_encoder(values, lo, width, delta):
    # piecewise data, constant on each cell, with |z| <= 50 since a(x) <= 1.5
    cells = len(values)
    dx = width / cells
    u = np.asarray(values) * np.sqrt(100.0 * delta / 1.5)
    u0 = lambda x: u[np.clip(((x - lo) / dx).astype(int), 0, cells - 1)]
    window = (lo, lo + width)
    _assert_same_field(quantize_initial(MODULATED, u0, delta, window, cells),
                       _reference_quantize(MODULATED, u0, delta, window, cells))


def test_empty_field_is_the_field_with_no_jumps():
    for time in (0.0, 1.5):
        _assert_same_field(empty_field(0.1, time), initial_fronts([], [0], 0.1, time))
        _assert_same_field(empty_field(0.1, time), _reference_initial_fronts([], [0], 0.1, time))


def test_impossible_interaction_aborts_with_forensics():
    # the theory forbids a merge producing an upward jump above delta; feed the
    # resolver a corrupt state directly and expect the forensic abort
    from fronttrack.tracker import AdmissibilityError, _State
    corrupt = FrontField(
        time=0.0, delta=0.1,
        positions=np.array([0.0, 1e-12]),
        z=np.array([0, 1, 3], dtype=np.int64),  # outer jump would be +3
        ids=np.array([0, 1], dtype=np.int64),
        next_id=2,
    )
    tr = Tracker(BURGERS, 0.1, (-2, 2))
    st = _State(corrupt)
    with pytest.raises(AdmissibilityError) as info:
        tr._resolve_leftmost_cluster(st, np.zeros(2), np.array([True]), np.array([0.0]),
                                     1e-12, [])
    assert "positions" in str(info.value)  # the dump travels with the error


def test_degenerate_states_error_carries_time_and_state():
    from fronttrack.tracker import DegenerateStatesError
    # a valid field whose two states, U = sqrt(2e-24) and 0, differ by less
    # than the Rankine-Hugoniot quotient's floor of 1e-9
    f0 = FrontField(
        time=0.25, delta=1e-24,
        positions=np.array([0.3]),
        z=np.array([1, 0], dtype=np.int64),
        ids=np.array([0], dtype=np.int64),
        next_id=1,
    )
    with pytest.raises(DegenerateStatesError) as info:
        Tracker(BURGERS, 1e-24, (-2, 2)).advance(f0, 1.0)
    assert isinstance(info.value, RuntimeError)
    msg = str(info.value)
    assert "t=0.25" in msg and "y=array([0.3])" in msg and "positions" in msg


def test_a_stationary_shock_where_f_x_fails_is_solved_without_it():
    # (1 + sqrt(x^4)) u^2/2 equals (1 + x^2) u^2/2, but its jet's f_x at x = 0
    # is 0/0.  The shock there between g = 0.2 and -0.2 is stationary, and the
    # float Newton that moves it needs f and f_u alone.
    runs = []
    for expr in ("(1 + sqrt(x^4))*u^2/2", "(1 + x^2)*u^2/2"):
        flux = make_builtin_flux("custom_expr", expr=expr)
        report = audit_assumptions(flux, ((-3.0, 3.0), (-1.0, 1.0)), grid=48)
        assert report.passed and report.certified_alpha == pytest.approx(0.994, abs=5e-4)
        f0 = initial_fronts([-1.0, 0.0], [0, 2, -2], 0.1)
        runs.append(Tracker(certify(flux, report), 0.1, (-6, 6)).advance(f0, 3.0))
    (f1, log), (ref, ref_log) = runs
    assert [(e.consumed, e.produced) for e in log] == [((1, 2), 3)]
    assert [(e.consumed, e.produced) for e in ref_log] == [((1, 2), 3)]
    assert abs(log[0].time - ref_log[0].time) <= 1e-12
    assert abs(log[0].position - ref_log[0].position) <= 1e-12
    assert np.max(np.abs(f1.positions - ref.positions)) <= 1e-12


def _parent_degenerate_mask(u):
    """The elementwise degenerate-gap floor of the quotient, before its pre-check."""
    u_l, u_r = u
    return np.abs(u_l - u_r) < 1e-9 * np.maximum(1.0, np.maximum(np.abs(u_l), np.abs(u_r)))


def _quotient_state(n=200):
    st = _State(initial_fronts(np.linspace(-1.0, 1.0, n), [k % 2 for k in range(n + 1)], 0.1))
    st.t = 0.75
    rng = np.random.default_rng(31)
    u_l = rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)
    return st, np.array((u_l, u_l + rng.uniform(0.1, 0.5, n))), rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("bad", [{137: "degenerate"}, {42: "nan"},
                                 {3: "nan", 150: "degenerate", 151: "degenerate"}],
                         ids=["degenerate", "nan", "both"])
def test_the_quotient_names_only_the_bad_columns(bad):
    from fronttrack.tracker import _rh_quotient
    st, u, num = _quotient_state()
    for k, kind in bad.items():
        if kind == "nan":
            u[0, k] = np.nan
        else:
            u[1, k] = u[0, k] * (1.0 + 1e-12)
    if "nan" not in bad.values():
        assert np.flatnonzero(_parent_degenerate_mask(u)).tolist() == sorted(bad)
    with pytest.raises(DegenerateStatesError) as info:
        _rh_quotient(num, u, st.y, st)
    where = st.y[sorted(bad)]
    assert str(info.value) == (f"degenerate front states at y={where!r}; adjacent levels "
                               f"should have merged\n{st.dump()}")
    assert info.value.time == 0.75 and info.value.dump == st.dump()
    assert info.value.positions.tobytes() == st.y.tobytes()


def test_the_quotient_past_its_pre_check_returns_the_plain_quotient():
    # a trace of 1e6 lifts the pre-check's floor above a gap of 1e-5 whose own
    # floor is 1e-9: the elementwise floor passes it, and the quotient is num / den
    from fronttrack.tracker import _rh_quotient
    st, u, num = _quotient_state()
    u[:, 7] = (1e6, 1e6 - 1.0)
    u[1, 60] = u[0, 60] + 1e-5
    assert not _parent_degenerate_mask(u).any()
    assert _rh_quotient(num, u, st.y, st).tobytes() == (num / (u[0] - u[1])).tobytes()
    # no fronts: no gap to check, and no speed
    speeds, u_l, u_r = rh_speed(BURGERS, np.array([]), np.array([]), np.array([]))
    assert speeds.shape == u_l.shape == u_r.shape == (0,)


def _ordering_lost(monkeypatch):
    # a valid fan pair whose every RK4 step of all fronts lands crossed: the
    # rerun searches the crossed pair, which separates on floats, and the
    # step to h still lands crossed
    f0 = FrontField(time=0.5, delta=0.1, positions=np.array([0.0, 0.1]),
                    z=np.array([0, 1, 2], dtype=np.int64),
                    ids=np.array([0, 1], dtype=np.int64), next_id=2)
    monkeypatch.setattr(Tracker, "_rk4", lambda self, st, y, k1, h: np.array([0.1, 0.0]))
    return Tracker(BURGERS, 0.1, (-2, 2)), f0, 1.0


def _window_exit(monkeypatch):
    return Tracker(BURGERS, 0.1, (-1, 1)), initial_fronts([0.0], [5, 0], 0.1), 10.0


def _loop_limit(monkeypatch):
    monkeypatch.setattr("fronttrack.tracker._MAX_LOOP", 3)  # three regular steps
    return Tracker(BURGERS, 0.1, (-2, 2)), initial_fronts([0.0], [5, 0], 0.1), 1.0


def _degenerate(monkeypatch):
    # the field of test_degenerate_states_error_carries_time_and_state
    f0 = FrontField(time=0.25, delta=1e-24, positions=np.array([0.3]),
                    z=np.array([1, 0], dtype=np.int64),
                    ids=np.array([0], dtype=np.int64), next_id=1)
    return Tracker(BURGERS, 1e-24, (-2, 2)), f0, 1.0


def _inversion(monkeypatch):
    # the alpha_too_large field of test_the_few_front_path_fails_as_the_array_path_does
    f0 = FrontField(time=0.25, delta=0.5, positions=np.array([0.3]),
                    z=np.array([1, 0], dtype=np.int64),
                    ids=np.array([0], dtype=np.int64), next_id=1)
    return Tracker(replace(MODULATED, alpha=50.0), 0.5, (-2, 2)), f0, 1.0


def _flux_domain(monkeypatch):
    # sqrt(x) has no value at the left front's x = -0.5
    flux = replace(make_builtin_flux("custom_expr", expr="(1+sqrt(x))*u^2/2"), alpha=1.0)
    return Tracker(flux, 0.01, (-2, 2)), initial_fronts([-0.5, 0.5], [0, 20, 0], 0.01), 0.5


@pytest.mark.parametrize("error, setup", [
    (OrderingLostError, _ordering_lost),
    (WindowExitError, _window_exit),
    (LoopLimitError, _loop_limit),
    (DegenerateStatesError, _degenerate),
    (ProfileInversionError, _inversion),
    (FluxDomainError, _flux_domain),
], ids=["ordering_lost", "window_exit", "loop_limit", "degenerate", "inversion",
        "flux_domain"])
def test_advance_failures_carry_time_positions_and_dump(monkeypatch, error, setup):
    tr, f0, t_end = setup(monkeypatch)
    with pytest.raises(error) as info:
        tr.advance(f0, t_end)
    err = info.value
    assert isinstance(err, TrackerError) and isinstance(err, RuntimeError)
    assert f0.time <= err.time < t_end
    assert f"t={err.time!r}" in err.dump
    assert f"positions={err.positions!r}" in err.dump
    assert err.dump in str(err)


def test_an_inversion_failure_in_a_solve_keeps_its_x_level_and_message(monkeypatch):
    tr, f0, t_end = _inversion(monkeypatch)
    with pytest.raises(InversionError) as info:
        tr.advance(f0, t_end)
    err = info.value
    assert isinstance(err, TrackerError)
    assert (err.x, err.level) == (0.3, 0.5)
    assert str(err).splitlines()[0] == str(InversionError(0.3, 0.5))
    assert type(err.__cause__) is InversionError


def test_a_flux_domain_error_in_a_solve_keeps_its_message(monkeypatch):
    tr, f0, t_end = _flux_domain(monkeypatch)
    with pytest.raises(DomainError) as info:
        tr.advance(f0, t_end)
    err = info.value
    assert isinstance(err, TrackerError)
    assert type(err.__cause__) is DomainError
    assert str(err).splitlines()[0] == str(err.__cause__)
    assert "sqrt" in str(err.__cause__)


def test_profile_min_abs_diagnostic():
    m = float(np.min(np.abs(solve_level(MODULATED, np.linspace(-4, 4, 1024), 0.5))))
    # nonzero level keeps the profile away from zero
    assert m >= np.sqrt(2 * 0.5 / 1.5) * 0.999
