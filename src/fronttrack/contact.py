"""Contact location: the earliest step length at which two fronts come into
contact range.

``first_contact`` is the search on the step length.
``locate_on_candidates`` runs the aimed step and that search on the fronts of
the pairs near a contact alone, on Python floats through ``Flux.point``:
``stationary.solve_point`` is one element of ``solve_level``'s Newton, and a
front's speed and RK4 step are its column's operations in
``Tracker._speeds`` and ``Tracker._rk4``, so its traces and positions are
bit for bit those of that column.  One RK4 step of all fronts to the
located length follows.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

from .stationary import solve_point

# fronts closer than this at a common time are one interaction point
TOL_POS = 1e-10
# time resolution of the earliest-contact search (its final bracket width)
TOL_EVENT = 1e-11
# a pair is a candidate for the few-front search when its linear contact time
# gap / v_app is at most this many aimed steps: the aimed step h is the least
# of those times, and an accelerating approach can bring a pair predicted a
# little past h into contact within it.  A pair left out costs time, not
# correctness: the full-state check after the located step finds it.
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
    F <= 0, once its width is at most TOL_EVENT.
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
    """The fronts ``cols`` (a list) of the tracker state st."""
    c = np.stack([a[:, cols] for a in st.levels], axis=-1).tolist()
    return [Front(*f) for f in zip(st.y[cols].tolist(), c[0], c[1], st.num[cols].tolist(),
                                   st.trace[:, cols].T.tolist())]


def point_speed(tracker, st, front, y):
    """The front's speed at y: its column of ``tracker._speeds``."""
    point, trace = tracker.flux.point, front.trace
    u_l = trace[0] = solve_point(point, y, front.left, trace[0])
    u_r = trace[1] = solve_point(point, y, front.right, trace[1])
    den = u_l - u_r
    if abs(den) < 1e-9 * max(1.0, abs(u_l), abs(u_r)):  # the array quotient's floor
        tracker._quotient(st, front.num, np.array([[u_l], [u_r]]), np.array([y]))
    return front.num / den


def point_rk4(tracker, st, fronts, k1, h):
    """``tracker._rk4`` of the fronts alone, from their positions and speeds
    k1; their traces chain from call to call as st.trace does."""
    out = []
    for f, v in zip(fronts, k1):
        k2 = point_speed(tracker, st, f, f.y + 0.5 * h * v)
        k3 = point_speed(tracker, st, f, f.y + 0.5 * h * k2)
        k4 = point_speed(tracker, st, f, f.y + h * k3)
        out.append(f.y + (h / 6.0) * (v + 2.0 * k2 + 2.0 * k3 + k4))
    return out


def candidates(gaps, v_app, h):
    """The pairs (by their left fronts) whose approach may close within a step
    of h: those approaching with gap / v_app at most CANDIDATE_WINDOW * h."""
    return np.flatnonzero((v_app > 0.0) & (gaps <= CANDIDATE_WINDOW * h * v_app)).tolist()


def locate_on_candidates(tracker, st, v, gaps, v_app, h):
    """``tracker._step`` on the candidate pairs' fronts, on Python floats.

    If a candidate pair comes into contact range within h, the search runs on
    those fronts alone, with their columns' operations and trace chain, and
    one RK4 step of all fronts to the located length follows; the
    candidates' positions and traces are then the search's.  Returns (step
    length, positions), or None, with the state as it was, when no candidate
    pair comes into contact range within h or another pair is in contact
    range or crossed at the located length: ``tracker._step`` decides then.
    """
    pairs = candidates(gaps, v_app, h)
    if not pairs:
        return None
    cols = sorted({*pairs, *(p + 1 for p in pairs)})
    few = few_fronts(st, cols)
    k1 = v[cols].tolist()
    y_h = point_rk4(tracker, st, few, k1, h)
    troubled, ends, f_lo = set(), [], math.inf  # ends: their left fronts' places in cols
    for p, gap in zip(pairs, gaps[pairs].tolist()):
        i = bisect.bisect_left(cols, p)
        if y_h[i + 1] - y_h[i] <= TOL_POS and y_h[i + 1] - y_h[i] < gap:
            troubled.add(p)
            ends.append(i)
            f_lo = min(f_lo, gap)
    if not troubled:
        return None

    def least_gap(y):
        return min(y[i + 1] - y[i] for i in ends) - TOL_POS

    def contact_gap(s):
        y_s = point_rk4(tracker, st, few, k1, s)
        return least_gap(y_s), y_s

    s, y_c = first_contact(contact_gap, h, f_lo - TOL_POS, least_gap(y_h), y_h)
    trace = st.trace
    y_s = tracker._rk4(st, st.y, v, s)
    y_s[cols] = y_c
    st.trace[:, cols] = np.transpose([f.trace for f in few])
    gaps_s = np.diff(y_s)
    for q in np.flatnonzero(gaps_s <= TOL_POS).tolist():
        if q not in troubled and (gaps_s[q] <= 0.0 or gaps_s[q] < gaps[q]):
            st.trace = trace
            return None
    return s, y_s
