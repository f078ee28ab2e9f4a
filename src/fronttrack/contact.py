"""Contact location: the earliest step length at which two fronts come into
contact range.

``first_contact`` is the search on the step length.  ``locate`` runs the aimed
step and that search on the fronts of the given pairs alone, on Python floats:
a front's speed binds the flux at its position once, ``Flux.at(y)``, the same
binding ``solve_level`` makes on arrays, and inverts both traces through it
with ``stationary.solve_point``, one element of ``solve_level``'s Newton.  The
speed is its column's operations in ``Tracker._speeds``, and ``rk4`` is the
one RK4 step of both, so its traces and positions are bit for bit those of
that column.  ``Tracker._step`` follows it with one RK4 step of all fronts to
the located length.
"""

from __future__ import annotations

import bisect
import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .stationary import solve_point

# fronts closer than this at a common time are one interaction point
TOL_POS = 1e-10
# time resolution of the earliest-contact search (its final bracket width)
TOL_EVENT = 1e-11
GAP_FLOOR = 1e-9  # a front's |u_l - u_r| below this times max(1, |u_l|, |u_r|) is degenerate
# a pair is a candidate for the few-front search when its linear contact time
# gap / v_app is at most this many aimed steps: the aimed step h is the least
# of those times, and an accelerating approach can bring a pair predicted a
# little past h into contact within it.  A pair left out costs time, not
# correctness: the step of all fronts finds it, and the search runs again.
CANDIDATE_WINDOW = 2.0


def first_contact(step, h, f_lo, f_hi, y_hi):
    """Earliest step length at which the contact function F reaches 0.

    F(s) is the least gap of the troubled pairs, minus TOL_POS, after an RK4
    step of length s; ``step(s)`` returns (F(s), positions).  The bracket
    [0, h] starts from f_lo = F(0) and f_hi = F(h) <= 0, with y_hi the
    positions at h.  Illinois false position (Dowell & Jarratt, BIT 11, 1971)
    shrinks it: each trial point stays at least TOL_EVENT/4 inside the
    bracket, and the bracket is halved instead while F(lo) <= 0 or after two
    consecutive secant steps that each left more than half of it, so the
    search costs at most about three times the halvings of bisection.
    Returns (s, positions at s) at the upper end of the final bracket, where
    F <= 0, once its width is at most TOL_EVENT or no float lies inside it.
    """
    lo, hi, y = 0.0, h, y_hi
    side = stalls = 0  # side: +1 if the last point moved hi, -1 if it moved lo
    while hi - lo > TOL_EVENT:
        width = hi - lo
        secant = f_lo > 0.0 and stalls < 2
        if secant:
            s = hi - f_hi * width / (f_hi - f_lo)
            s = min(max(s, lo + 0.25 * TOL_EVENT), hi - 0.25 * TOL_EVENT)
        else:
            s = lo + 0.5 * width
        if not lo < s < hi:  # the floats between lo and hi are spent
            break
        f, y_s = step(s)
        if f <= 0.0:
            if side > 0:
                f_lo *= 0.5
            hi, f_hi, y, side = s, f, y_s, 1
        else:
            if side < 0:
                f_hi *= 0.5
            lo, f_lo, side = s, f, -1
        stalls = stalls + 1 if secant and hi - lo > 0.5 * width else 0
    return hi, y


class Front(NamedTuple):
    """One front of a tracker state on Python floats."""
    y: float
    left: list    # the left level's constants, as level_constants gives them
    right: list
    num: float    # |g_l| - |g_r|
    trace: list   # the warm starts [u_l, u_r], updated by each evaluation


def few_fronts(st, cols):
    """The fronts ``cols`` (a list) of the tracker state st, by one index of each array."""
    cols = np.array(cols)  # converted once, not once per array
    c = st.lc[:, :, cols].transpose(1, 2, 0).tolist()
    return [Front(*f) for f in zip(st.y[cols].tolist(), c[0], c[1], st.num[cols].tolist(),
                                   st.trace[:, cols].T.tolist())]


def point_speed(tracker, st, front, y):
    """The front's speed at y: its column of ``tracker._speeds``, with both
    traces inverted through one binding of the flux at y, ``flux.at(y)``."""
    bound, trace = tracker.flux.at(y), front.trace
    u_l = trace[0] = solve_point(bound, y, front.left, trace[0])
    u_r = trace[1] = solve_point(bound, y, front.right, trace[1])
    den = u_l - u_r
    if not abs(den) >= GAP_FLOOR * max(1.0, abs(u_l), abs(u_r)):
        from .tracker import _rh_quotient  # not at the top: tracker imports this module
        _rh_quotient(front.num, np.array([[u_l], [u_r]]), np.array([y]), st)
    return front.num / den


def rk4(speed, y, k1, h):
    """One RK4 step of length h from y, whose speeds k1 the caller holds, with
    ``speed`` the speeds at a position: plain arithmetic, so the same stages
    step an array of fronts or one front on Python floats."""
    k2 = speed(y + 0.5 * h * k1)
    k3 = speed(y + 0.5 * h * k2)
    k4 = speed(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def point_rk4(tracker, st, fronts, k1, h):
    """``tracker._rk4`` of the fronts alone, from their positions and speeds
    k1; their traces chain from call to call as st.trace does."""
    return [rk4(partial(point_speed, tracker, st, f), f.y, v, h)
            for f, v in zip(fronts, k1)]


def in_contact_range(before, after):
    """The contact-range rule: a pair whose gap after the step is at most
    TOL_POS and below its gap before it."""
    return (after <= TOL_POS) & (after < before)


def candidates(gaps, v_app, h):
    """The pairs (by their left fronts) whose approach may close within a step
    of h: those approaching with gap / v_app at most CANDIDATE_WINDOW * h."""
    return np.flatnonzero((v_app > 0.0) & (gaps <= CANDIDATE_WINDOW * h * v_app)).tolist()


def locate(tracker, st, v, gaps, pairs, h):
    """The earliest step length within h at which one of ``pairs`` (by their
    left fronts) comes into contact range, on those pairs' fronts alone, with
    their columns' operations and trace chain; the state is left as it was.
    Returns (h, None) when none does, and otherwise (s, (cols, positions,
    traces)): the fronts' columns, their positions at s and the traces the
    search leaves."""
    if not pairs:
        return h, None
    cols = sorted({*pairs, *(p + 1 for p in pairs)})
    few = few_fronts(st, cols)
    k1 = v[cols].tolist()
    y_h = point_rk4(tracker, st, few, k1, h)
    ends, f_lo = [], math.inf  # ends: the troubled pairs' left fronts' places in cols
    for p, gap in zip(pairs, gaps[pairs].tolist()):
        i = bisect.bisect_left(cols, p)
        if in_contact_range(gap, y_h[i + 1] - y_h[i]):
            ends.append(i)
            f_lo = min(f_lo, gap)
    if not ends:
        return h, None

    def least_gap(y):
        return min(y[i + 1] - y[i] for i in ends) - TOL_POS

    def contact_gap(s):
        y_s = point_rk4(tracker, st, few, k1, s)
        return least_gap(y_s), y_s

    s, y_c = first_contact(contact_gap, h, f_lo - TOL_POS, least_gap(y_h), y_h)
    return s, (cols, y_c, np.transpose([f.trace for f in few]))
