"""The tracker's collision times on a heterogeneous flux, against an exact engine.

For f = a(x)u²/2, the change of variables dτ = dx/√a(x), w = u·√a(x) turns
u_t + f_x = 0 into Burgers' equation in (τ, w). A piece of level g has the
constant w = sgn(g)·√(2|g|), and a front moves at the constant τ-speed
c = (w_l + w_r)/2. So between events every front's τ is linear in t, and a
pair's contact time is exact up to the quadrature of τ. The engine below
resolves contacts by the tracker's rules: the leftmost run of touching pairs
merges into one front at the midpoint of its outer fronts, which takes the
next id, or annihilates if its outer levels are equal.
"""

import math

import numpy as np
import pytest

from fronttrack.fluxes import make_builtin_flux
from fronttrack.profiles import make_initial
from fronttrack.tracker import TOL_POS, Tracker, quantize_initial

# benchmark.ini's flux and data, in the tracker's working window
BASE, AMP = 1.0, 0.5
MODULATED = make_builtin_flux("modulated_burgers", base=BASE, amp=AMP)
BUMP = make_initial("bump", amp=0.8, center=0.0, width=1.0)
DATA_WINDOW = (-3.0, 3.0)
WINDOW = (-6.0, 6.0)
TIMES = (0.5, 1.0)
DELTAS = (0.005, 0.002, 0.001)

PANEL = 0.01  # a(x) varies on a scale of 1, so panels this wide give τ to ~1e-14
NODES, WEIGHTS = np.polynomial.legendre.leggauss(12)
NEWTON_ITERS = 5  # from a linear guess inside a panel, past full precision


def a(x):
    return BASE + AMP * np.sin(x)


class TauMap:
    """τ(x) = ∫ dx/√a(x) from the window's left end, by composite 12-point
    Gauss–Legendre on panels at most PANEL wide, and x = τ⁻¹ by Newton with
    τ' = 1/√a."""

    def __init__(self, lo, hi):
        self.edges = np.linspace(lo, hi, math.ceil((hi - lo) / PANEL) + 1)
        panels = self._quad(self.edges[:-1], self.edges[1:])
        self.at_edges = np.concatenate(([0.0], np.cumsum(panels)))

    @staticmethod
    def _quad(p, q):
        """∫ from p to q of dx/√a(x), elementwise, on one Gauss–Legendre panel."""
        half, mid = 0.5 * (q - p), 0.5 * (q + p)
        x = mid[:, None] + half[:, None] * NODES
        return half * (WEIGHTS / np.sqrt(a(x))).sum(axis=1)

    def _panel(self, table, values):
        k = np.searchsorted(table, values, side="right") - 1
        return np.clip(k, 0, len(self.edges) - 2)

    def tau(self, x):
        k = self._panel(self.edges, x)
        return self.at_edges[k] + self._quad(self.edges[k], x)

    def x(self, tau):
        k = self._panel(self.at_edges, tau)
        lo, hi = self.edges[k], self.edges[k + 1]
        x = lo + (tau - self.at_edges[k]) / (self.at_edges[k + 1] - self.at_edges[k]) * (hi - lo)
        for _ in range(NEWTON_ITERS):
            x = x - (self.tau(x) - tau) * np.sqrt(a(x))
        return x


TAU = TauMap(*WINDOW)


class ExactEngine:
    """The fronts of a FrontField under f = a(x)u²/2, each moving at its exact
    τ-speed. A pair's event happens when its x-gap falls to ``gap``."""

    def __init__(self, field_, gap):
        self.delta, self.gap = field_.delta, gap
        self.t = field_.time
        # each front's reference time, its τ then, and its τ-speed
        self.t_ref = np.full(field_.n_fronts, field_.time)
        self.tau_ref = TAU.tau(field_.positions)
        self.c = self._tau_speeds(field_.z)
        self.z = field_.z.tolist()
        self.ids = field_.ids.tolist()
        self.next_id = field_.next_id

    def _tau_speeds(self, z):
        z = np.asarray(z, dtype=float)
        w = np.sign(z) * np.sqrt(2.0 * self.delta * np.abs(z))
        return 0.5 * (w[:-1] + w[1:])

    def positions(self, t, fronts=slice(None)):
        return TAU.x(self.tau_ref[fronts] + self.c[fronts] * (t - self.t_ref[fronts]))

    def _event_times(self):
        """Each neighbour pair's event time; inf for a pair that does not approach.
        A pair that is already closer than gap has a time in the past."""
        b = self.tau_ref - self.c * self.t_ref  # each front's τ line, at t = 0
        closing = self.c[:-1] - self.c[1:]
        times = np.full(len(closing), np.inf)
        i = np.flatnonzero(closing > 0.0)
        t_meet = (b[i + 1] - b[i]) / closing[i]  # the τ-gap closes
        if self.gap:
            # the x-gap closes at the rate √a(x)·closing there, so it is gap that
            # long before; the error is O((gap/closing)²), below 1e-12 here
            x_meet = TAU.x(b[i] + self.c[i] * t_meet)
            t_meet = t_meet - self.gap / (closing[i] * np.sqrt(a(x_meet)))
        times[i] = t_meet
        return times

    def advance(self, t_target):
        """Resolve every event before t_target; returns the events, as
        (time, position, consumed ids, produced id or None)."""
        log = []
        while len(self.ids) > 1:
            times = self._event_times()
            if not times.min() < t_target:
                break
            self.t = max(self.t, float(times.min()))
            touching = (times <= self.t).tolist()
            first = touching.index(True)
            last = first + 1  # fronts first..last meet
            while last < len(touching) and touching[last]:
                last += 1
            rho = float(0.5 * self.positions(self.t, [first, last]).sum())
            consumed = tuple(self.ids[first:last + 1])
            z_l, z_r = self.z[first], self.z[last + 1]
            if z_l == z_r:
                produced, start = None, first
            else:  # the produced front takes the place of front first
                produced, start = self.next_id, first + 1
                self.next_id += 1
                self.t_ref[first] = self.t
                self.tau_ref[first] = TAU.tau(np.array([rho]))[0]
                self.c[first] = self._tau_speeds([z_l, z_r])[0]
                self.ids[first] = produced
            self.t_ref, self.tau_ref, self.c = (np.delete(arr, np.s_[start:last + 1]) for arr
                                                in (self.t_ref, self.tau_ref, self.c))
            del self.ids[start:last + 1]
            # the pieces between the consumed fronts go, and with them, on an
            # annihilation, the right outer piece, equal to the left one
            self.z = self.z[:first + 1] + self.z[last + 1 + (produced is None):]
            log.append((self.t, rho, consumed, produced))
        self.t = t_target
        return log


@pytest.fixture(scope="module")
def tracked():
    """Per delta: the initial field, the tracker's events and its field at each
    of TIMES, advancing from one to the next as a run does."""
    runs = {}
    for delta in DELTAS:
        field0 = quantize_initial(MODULATED, BUMP, delta, DATA_WINDOW, round(6.0 / delta))
        tracker = Tracker(MODULATED, delta, WINDOW)
        field_, log, finals = field0, [], []
        for t in TIMES:
            field_, piece = tracker.advance(field_, t)
            log.extend(piece)
            finals.append(field_)
        runs[delta] = field0, log, finals
    return runs


# gap, and the tolerance on every event time, event position and final
# position. At gap = TOL_POS the engine fires as the tracker does, so what is
# left is the tracker's integration error (9.0e-11, 2.9e-10 and 1.24e-9 at
# the three deltas); at gap = 0 the tracker's events come early by about
# TOL_POS over the closing speed (up to 5.93e-8 in event time).
RULES = {"TOL_POS": (TOL_POS, 2.5e-9), "0": (0.0, 1e-7)}


@pytest.mark.parametrize("rule", list(RULES))
def test_tracker_collisions_match_the_exact_engine(tracked, rule):
    gap, tol = RULES[rule]
    print(f"\ncontact at gap {rule}: delta, events, max |error| in event time, "
          "event position, final position")
    for delta in DELTAS:
        field0, log, finals = tracked[delta]
        engine = ExactEngine(field0, gap)
        exact, final_errors = [], []
        for t, final in zip(TIMES, finals):
            exact.extend(engine.advance(t))
            assert engine.ids == final.ids.tolist()
            assert engine.z == final.z.tolist()
            final_errors.append(np.abs(engine.positions(t) - final.positions).max(initial=0.0))
        assert [(e.consumed, e.produced) for e in log] == [ev[2:] for ev in exact]
        time_error = max(abs(e.time - ev[0]) for e, ev in zip(log, exact))
        position_error = max(abs(e.position - ev[1]) for e, ev in zip(log, exact))
        final_error = max(final_errors)
        print(f"  {delta}  {len(log)}  {time_error:.3g}  {position_error:.3g}  "
              f"{final_error:.3g}")
        assert max(time_error, position_error, final_error) <= tol
