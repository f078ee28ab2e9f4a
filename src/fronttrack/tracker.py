"""Event-driven front tracking for piecewise-stationary states.

State is a time-stamped ordered list of fronts separating pieces on which the
g-field is constant.  Levels are stored as integer multiples of delta so that
closure under the scheme (levels stay on the delta-grid), total-variation
bookkeeping and merge detection are exact; floating point enters only through
front positions.  Between interactions each front obeys its own autonomous
Rankine-Hugoniot ODE; interactions are located by stepping onto predicted
contact times and, when a step overshoots, by a safeguarded Illinois
false-position search on the step length, and always resolve into at most
one front.  The search runs on the fronts of the pairs near contact alone,
through the flux bound at each front's position (``Flux.at(y)`` on Python
floats, the binding the array columns make on arrays) with their bits
(``fronttrack.contact``), and one RK4 step of all fronts to the located
length follows; a pair that step brings into contact range joins the
searched pairs, and the search runs again.  An event splices the speeds, warm
starts, level constants and integer TV across itself, and inverts its produced front alone.
``TrackedSolution`` keeps a run's solve as dense output: its snapshots
inside the solve are cubic Hermite interpolants of the RK4 steps.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import contact
from .contact import GAP_FLOOR, TOL_EVENT, TOL_POS
from .fluxes import DomainError
from .stationary import InversionError, LevelConstants, g_of, level_constants, solve_level

# default integrator step before event capping
H_ODE_DEFAULT = 0.01

_MAX_LOOP = 500_000


class FrontFieldError(ValueError):
    pass


class TrackerError(RuntimeError):
    """A failure inside ``Tracker.advance``.

    Carries the time, the front positions and the state dump for forensics;
    a DegenerateStatesError of ``rh_speed``, outside a solve, has None for each.
    """

    def __init__(self, message, st=None):
        self.time = self.positions = self.dump = None
        if st is not None:
            self.time, self.positions, self.dump = st.t, st.y.copy(), st.dump()
            message = f"{message}\n{self.dump}"
        super().__init__(message)


class AdmissibilityError(TrackerError):
    """An interaction produced an upward jump above delta.

    The theory rules this out, so it can only be a solver defect.
    """


class OrderingLostError(TrackerError):
    """Two fronts crossed within one step although no pair came into contact."""


class LoopLimitError(TrackerError):
    """``advance`` exceeded its iteration budget (suspect a grazing cycle)."""


class DegenerateStatesError(TrackerError):
    """Adjacent states too close for a meaningful Rankine-Hugoniot quotient
    (equal levels, or same-sign levels that should have merged)."""


class ProfileInversionError(InversionError, TrackerError):
    """An ``InversionError`` inside a solve: its x and level, with the solve's state."""

    def __init__(self, err, st):
        self.x, self.level = err.x, err.level
        TrackerError.__init__(self, str(err), st)


class FluxDomainError(DomainError, TrackerError):
    """A flux's ``DomainError`` inside a solve: its message, with the solve's state."""

    def __init__(self, err, st):
        TrackerError.__init__(self, str(err), st)


class WindowExitError(TrackerError):
    def __init__(self, position, st):
        self.position = position
        super().__init__(
            f"front left the working window at x={position!r}, t={st.t!r}", st)


@dataclass(frozen=True)
class Event:
    time: float
    position: float
    consumed: tuple
    produced: Optional[int]
    tv_before: float
    tv_after: float
    grazing: bool = False


def _tv_z(z):
    """Integer total variation of a level chain."""
    return int(np.sum(np.abs(np.diff(z))))


@dataclass(frozen=True)
class FrontField:
    """Piecewise-stationary state: n fronts separating n+1 constant g-levels.

    ``z`` holds the integer level indices (g = delta * z), so adjacent pieces
    always chain consistently by construction.  A front's kind is its level
    jump np.diff(z): below 0 a shock, exactly 1 a fan front.
    """

    time: float
    delta: float
    positions: np.ndarray  # shape (n,)
    z: np.ndarray          # shape (n+1,), int64
    ids: np.ndarray        # shape (n,), int64
    next_id: int = 0
    quantization: Optional["QuantizationDiagnostics"] = None

    @property
    def n_fronts(self):
        return len(self.positions)

    @property
    def g_leftmost(self):
        return self.delta * float(self.z[0])

    def tv_z(self):
        return _tv_z(self.z)

    def validate(self, strict_positions=True):
        n = self.n_fronts
        if len(self.z) != n + 1 or len(self.ids) != n:
            raise FrontFieldError("inconsistent array lengths")
        if n == 0:
            return self
        if not np.all(np.isfinite(self.positions)):
            raise FrontFieldError("non-finite front position")
        gaps = np.diff(self.positions)
        if strict_positions and np.any(gaps <= 0):
            raise FrontFieldError("front positions not strictly increasing")
        if not strict_positions and np.any(gaps < 0):
            raise FrontFieldError("front positions not ordered")
        dz = np.diff(self.z)
        if np.any(dz == 0):
            raise FrontFieldError("null front (equal adjacent levels)")
        if np.any(dz > 1):
            raise FrontFieldError("upward jump above delta")
        # a sort, not np.unique: np.unique imports all of numpy.ma on first use
        if np.any(np.diff(np.sort(self.ids)) == 0):
            raise FrontFieldError("duplicate front ids")
        if self.next_id <= self.ids.max():
            raise FrontFieldError(f"next_id {self.next_id} is not above every front id")
        return self


def tv_g(field):
    """Spatial total variation of the g-field (exact: delta times integer TV)."""
    return field.delta * field.tv_z()


def empty_field(delta, time=0.0):
    return initial_fronts([], [0], delta, time)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _g_at(field, x):
    """g on the piece containing x, right-continuous at fronts."""
    k = np.searchsorted(field.positions, np.asarray(x, dtype=float), side="right")
    return field.delta * field.z[k].astype(float)


def sample_g(field, x):
    out = _g_at(field, x)
    return float(out) if np.ndim(x) == 0 else out


def sample_u(flux, field, x):
    """u = U[g-level](x) on the piece containing x (cadlag at fronts)."""
    u = solve_level(flux, np.asarray(x, dtype=float), _g_at(field, x))
    return float(u) if np.ndim(x) == 0 else u


# ---------------------------------------------------------------------------
# Rankine-Hugoniot speeds
# ---------------------------------------------------------------------------

def rh_speed(flux, y, g_l, g_r, guess_l=0.0, guess_r=0.0):
    """Rankine-Hugoniot speeds (|g_l| - |g_r|) / (U[g_l](y) - U[g_r](y)).

    Vectorized over fronts and symmetric under swapping the two levels.  Both
    traces come from one stacked inversion (Newton is elementwise, so they are
    those of two separate calls).  Returns (speeds, U[g_l](y), U[g_r](y)); the
    traces are the warm-start guesses of the next call.  Raises
    DegenerateStatesError if the profile gap underflows.
    """
    shape = np.broadcast(y, g_l, g_r).shape
    g, guess = (np.array([np.broadcast_to(np.asarray(a, dtype=float), shape) for a in pair])
                for pair in ((g_l, g_r), (guess_l, guess_r)))
    c = level_constants(flux, g)
    u = solve_level(flux, y, c, guess=guess)
    return _rh_quotient(c.g_abs[0] - c.g_abs[1], u, y), u[0], u[1]


def _rh_quotient(num, u, y, st=None):
    """num / (u_l - u_r) for the stacked traces u = (u_l, u_r) at y; raises
    DegenerateStatesError where the profile gap is below its floor, GAP_FLOOR
    times the larger of 1 and its traces' magnitudes, or is not a number, with
    the state st of the solve, if any.  Where the least gap clears the largest
    trace's floor every gap clears its own, so the columns are checked one by
    one only when it does not."""
    u_l, u_r = u
    den = u_l - u_r
    if not np.abs(den).min(initial=np.inf) >= GAP_FLOOR * max(1.0, np.abs(u).max(initial=0.0)):
        bad = ~(np.abs(den) >= GAP_FLOOR * np.maximum(1.0, np.maximum(np.abs(u_l), np.abs(u_r))))
        if bad.any():
            where = np.broadcast_to(y, den.shape)[bad]
            raise DegenerateStatesError(f"degenerate front states at y={where!r}; "
                                        "adjacent levels should have merged", st)
    return num / den


# ---------------------------------------------------------------------------
# quantization and initial fronts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantizationDiagnostics:
    l1_bound: float       # (delta/2)|window| + modulus-of-continuity term
    l1_sampled: float     # sum |G0(x_i) - delta z_i| dx over the cells
    lipschitz_est: float  # max adjacent |dG0/dx| from the samples
    dx: float


def sample_initial(u0, x):
    """u0(x) as a float array; an initial-data sampler must return x's shape,
    and finite values."""
    u = np.asarray(u0(x), dtype=float)
    if u.shape != x.shape:
        raise ValueError(f"initial data returned shape {u.shape} on points of shape {x.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError(f"initial data is not finite at x={x[~np.isfinite(u)][0]!r}")
    return u


def _round_toward_zero(t):
    # nearest whole number (as a float) with ties broken toward 0
    return np.copysign(np.ceil(np.abs(t) - 0.5), t)


def quantize_initial(flux, u0, delta, window, cells):
    """Sample g(x, u0(x)) at cell midpoints, round to the delta-grid, merge.

    Levels outside the window are forced to zero (compact support), so the
    outermost pieces are the zero solution and all activity stays inside the
    window plus a speed-times-horizon margin.
    """
    flux.require_alpha()
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError(f"degenerate window {window}")
    cells = int(cells)
    if cells < 1:
        raise ValueError("need at least one cell")
    dx = (hi - lo) / cells
    mids = lo + (np.arange(cells) + 0.5) * dx

    u_samples = sample_initial(u0, mids)

    g0 = np.asarray(g_of(flux, mids, u_samples), dtype=float)
    z_cells = _round_toward_zero(g0 / delta)

    # run-length encode the cells, with zero-level padding outside the window;
    # edges[k] is the left edge of cell k, and edges[cells] = hi
    z = np.concatenate(([0.0], z_cells, [0.0]))
    jumps = np.flatnonzero(np.diff(z))
    edges = np.concatenate(([lo], lo + np.arange(1, cells) * dx, [hi]))

    lip = float(np.max(np.abs(np.diff(g0)))) / dx if cells > 1 else 0.0
    diag = QuantizationDiagnostics(
        l1_bound=(delta / 2.0) * (hi - lo) + (lip * dx / 2.0) * (hi - lo),
        l1_sampled=float(np.sum(np.abs(g0 - delta * z_cells)) * dx),
        lipschitz_est=lip,
        dx=dx,
    )
    field_ = initial_fronts(edges[jumps], z[np.concatenate(([0], jumps + 1))], delta)
    return replace(field_, quantization=diag)


def initial_fronts(breaks, levels, delta, time=0.0):
    """Resolve each raw jump of a piecewise-constant g-field into its fronts.

    Downward jumps become one entropic shock; an upward jump of m levels
    becomes its m-front fan, all co-located at the jump (convexity separates
    them on the first step).  Levels are whole multiples of delta, at most
    2**53 in magnitude so that g = delta * z is exact.
    """
    breaks = np.asarray(breaks, dtype=float)
    z = np.asarray(levels, dtype=float)
    if len(z) != len(breaks) + 1:
        raise FrontFieldError("need one more level than break positions")
    if np.any(np.diff(breaks) <= 0):
        raise FrontFieldError("break positions must be strictly increasing")
    whole = (np.abs(z) <= 2.0 ** 53) & (z == np.round(z))
    if not whole.all():
        raise FrontFieldError(f"level {z[~whole][0]} is not a whole number "
                              "of magnitude at most 2**53")
    z = z.astype(np.int64)
    dz = np.diff(z)
    if np.any(dz == 0):
        raise FrontFieldError(f"null jump at x={breaks[dz == 0][0]}")

    # a shock takes its jump in one step, a fan front one level up
    count = np.where(dz < 0, 1, dz)
    steps = np.repeat(np.where(dz < 0, dz, 1), count)
    n = len(steps)
    field_ = FrontField(
        time=time, delta=float(delta),
        positions=np.repeat(breaks, count),
        z=np.concatenate((z[:1], z[0] + np.cumsum(steps))),
        ids=np.arange(n, dtype=np.int64),
        next_id=n,
    )
    return field_.validate(strict_positions=False)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class _State:
    """Mutable working copy of a FrontField during one advance call."""

    __slots__ = ("t", "y", "z", "ids", "next_id", "trace", "lc", "levels", "num", "tv")

    def __init__(self, f):
        self.t = f.time
        self.y = f.positions.copy()
        self.z = f.z.copy()
        self.ids = f.ids.copy()
        self.next_id = f.next_id
        # warm starts, each front's (left, right) traces; zeros start from the bracket
        self.trace = np.zeros((2, len(self.y)))
        self.lc = self.levels = self.num = None  # level constants; built on first use
        self.tv = _tv_z(self.z)

    def set_levels(self, lc):
        """Hold the (5, 2, n) level constants lc, their rows and |g_l| - |g_r|."""
        self.lc, self.levels, self.num = lc, LevelConstants(*lc), lc[1, 0] - lc[1, 1]

    def remove_range(self, a, b, produced=None):
        """Delete fronts a..b (inclusive), then insert the front ``produced =
        (rho, fid)`` between the outer levels if there is one; without it the
        (equal) outer levels become one piece.  The survivors keep their
        warm-start traces and level constants; the produced front takes the
        cluster's outer ones (left of a, right of b), which belong to its own
        left and right states.  Level constants are elementwise in the levels,
        so the spliced ones are those the new levels would build."""
        keep = a if produced is None else a + 1  # a produced front takes column a
        old = [self.y, self.ids, self.trace] + ([] if self.lc is None else [self.lc])
        new = [np.concatenate((arr[..., :keep], arr[..., b + 1:]), axis=-1) for arr in old]
        if produced is not None:
            new[0][a], new[1][a] = produced
            for arr, was in zip(new[2:], old[2:]):
                arr[..., 1, a] = was[..., 1, b]  # the right row from right of b
        self.y, self.ids, self.trace, *lc = new  # the fronts are the last axis
        if lc:
            self.set_levels(*lc)
        self.z = np.concatenate((self.z[:a + 1], self.z[b + (2 if produced is None else 1):]))

    def to_field(self, delta, quantization=None):
        return FrontField(
            time=self.t, delta=delta,
            positions=self.y.copy(), z=self.z.copy(), ids=self.ids.copy(),
            next_id=self.next_id, quantization=quantization,
        )

    def dump(self):
        return (f"t={self.t!r}\npositions={self.y!r}\nz={self.z!r}\n"
                f"ids={self.ids!r}")


class Tracker:
    """Front tracking engine for one flux / delta / working window."""

    def __init__(self, flux, delta, window, h_ode=H_ODE_DEFAULT):
        flux.require_alpha()
        for name, value in (("delta", delta), ("h_ode", h_ode)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        lo, hi = float(window[0]), float(window[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"window must be two finite, increasing numbers, got {window!r}")
        self.flux = flux
        self.delta = float(delta)
        self.window = (lo, hi)
        self.h_ode = float(h_ode)

    # -- speeds -------------------------------------------------------------

    def _speeds(self, st, y):
        """Rankine-Hugoniot speeds of all fronts at positions y (warm-started)."""
        if st.levels is None:
            g = self.delta * st.z.astype(float)
            st.set_levels(np.array(level_constants(self.flux, np.array((g[:-1], g[1:])))))
        st.trace = solve_level(self.flux, y, st.levels, guess=st.trace)
        return _rh_quotient(st.num, st.trace, y, st)

    def _rk4(self, st, y, k1, h):
        """One RK4 step of length h from y, whose speeds k1 the caller holds."""
        return contact.rk4(lambda x: self._speeds(st, x), y, k1, h)

    # -- events ---------------------------------------------------------------

    def _resolve_leftmost_cluster(self, st, v, touching, v_app, graze_v, log):
        """Merge the leftmost run of in-contact pairs into a single front.

        Returns the speeds v at the new state.  The survivors keep theirs: they
        have not moved and their traces have converged there, so a new evaluation
        would return the same bits.  The produced front's is ``contact.point_speed``
        on its column alone, which has the bits of that column in ``_speeds``.
        """
        first = int(touching.argmax())
        last = first
        while last + 1 < len(touching) and touching[last + 1]:
            last += 1
        a, b = first, last + 1  # fronts a..b collide
        z = st.z[a:b + 2].tolist()  # the cluster's levels, as Python ints
        z_l, z_r = z[0], z[-1]
        rho = 0.5 * (float(st.y[a]) + float(st.y[b]))
        consumed = tuple(st.ids[a:b + 1].tolist())
        grazing = all(abs(q) <= graze_v for q in v_app[first:last + 1].tolist())

        dz = z_r - z_l
        tv_before = st.tv
        tv_after = tv_before - sum(abs(q - p) for p, q in zip(z, z[1:])) + abs(dz)
        if dz > 1:
            raise AdmissibilityError(
                f"interaction at (t={st.t}, x={rho}) would create upward jump "
                f"of {dz} levels (z_l={z_l}, z_r={z_r})", st)
        if dz == 0:
            st.remove_range(a, b)
            produced, mid = None, []
        else:
            fid = st.next_id
            st.next_id += 1
            st.remove_range(a, b, produced=(rho, fid))
            produced, (front,) = fid, contact.few_fronts(st, [a])
            mid = [contact.point_speed(self, st, front, rho)]
            st.trace[:, a] = front.trace
        st.tv = tv_after
        if tv_after > tv_before:
            raise AdmissibilityError(
                f"TV increased {tv_before} -> {tv_after} at (t={st.t}, x={rho})",
                st)
        log.append(Event(
            time=st.t, position=rho, consumed=consumed, produced=produced,
            tv_before=self.delta * tv_before, tv_after=self.delta * tv_after,
            grazing=grazing,
        ))
        return np.concatenate((v[:a], mid, v[b + 1:]))

    # -- main loop ------------------------------------------------------------

    def advance(self, field_, t_target, record=None):
        """Integrate the field to t_target, resolving interactions on the way.

        Returns (new field, list of Events).  The input field is not modified.

        ``record`` is the internal hook of ``TrackedSolution``'s dense output:
        a list that receives one tuple (t, positions, speeds, z, ids,
        next_id) at the start of every step, taken before any contact at that
        time is resolved, and one at the end of the last step.  A record at a
        step's end thus shares the step's fronts, and an event time has one
        record before and one after each event.  The tuples hold references to
        the working arrays, which the loop replaces and never writes into.
        Recording leaves the solve's arithmetic unchanged.
        """
        t_target = float(t_target)
        if not math.isfinite(t_target):
            raise ValueError(f"t_target must be finite, got {t_target!r}")
        if t_target < field_.time:
            raise ValueError(f"cannot advance backwards: {field_.time} -> {t_target}")
        if field_.delta != self.delta:
            raise ValueError("field delta does not match tracker delta")
        field_.validate(strict_positions=False)
        log = []
        st = _State(field_)
        v = None  # the speeds at st.y, once they are known

        try:
            for _ in range(_MAX_LOOP):
                if st.t >= t_target:
                    break
                if len(st.y) == 0:
                    if record is not None:
                        # no fronts, so the positions and the speeds are both empty
                        record.append((st.t, st.y, st.y, st.z, st.ids, st.next_id))
                    st.t = t_target
                    break

                if v is None:
                    v = self._speeds(st, st.y)
                if record is not None:
                    record.append((st.t, st.y, v, st.z, st.ids, st.next_id))
                graze_v = 1e-12 * (1.0 + float(max(v.max(), -v.min())))  # max |v|
                gaps = st.y[1:] - st.y[:-1]
                v_app = v[:-1] - v[1:]  # positive when the pair approaches

                # resolve contacts at the current time (approaching or grazing only;
                # freshly split fan siblings separate and are excluded naturally)
                touching = (gaps <= TOL_POS) & (v_app >= -graze_v)
                if np.count_nonzero(touching):
                    v = self._resolve_leftmost_cluster(st, v, touching, v_app, graze_v, log)
                    continue

                # step: aim at the earliest predicted pairwise contact
                h = min(self.h_ode, t_target - st.t)
                approaching = v_app > 0.0
                if np.count_nonzero(approaching):
                    h = min(h, float(np.min(gaps[approaching] / v_app[approaching])))
                s, st.y = self._step(st, v, gaps, v_app, h)
                st.t += s
                v = None
                self._check_window(st)
            else:
                raise LoopLimitError(
                    f"advance exceeded {_MAX_LOOP} iterations (front count "
                    f"{len(st.y)}); suspect a pathological grazing cycle", st)

            if record is not None:
                # the speeds at the end of the last step; st is discarded, so the
                # warm starts this spends touch nothing of the solve
                v = self._speeds(st, st.y) if len(st.y) else st.y
                record.append((st.t, st.y, v, st.z, st.ids, st.next_id))
        except InversionError as err:
            raise ProfileInversionError(err, st) from err
        except DomainError as err:
            raise FluxDomainError(err, st) from err
        out = st.to_field(self.delta, quantization=field_.quantization)
        out = replace(out, time=t_target)
        # a (near-)no-op advance may leave just-born fan siblings co-located
        strict = t_target - field_.time > TOL_EVENT
        return out.validate(strict_positions=strict), log

    def _step(self, st, v, gaps, v_app, h):
        """One RK4 step of all fronts, of length h or, if a pair comes into
        contact range within it, of the earliest length at which one does.
        Returns (step length, positions).  The search runs on the candidate
        pairs, and reruns from the loop's state with any pair outside them
        that the step of all fronts brings into contact range: the searched
        pairs only grow, so there are at most n - 1 reruns."""
        pairs, trace = contact.candidates(gaps, v_app, h), st.trace
        while True:
            s, located = contact.locate(self, st, v, gaps, pairs, h)
            y = self._rk4(st, st.y, v, s)
            if located is not None:
                cols, y_c, trace_c = located
                y[cols], st.trace[:, cols] = y_c, trace_c
            gaps_s = y[1:] - y[:-1]
            closing = np.flatnonzero(contact.in_contact_range(gaps, gaps_s)).tolist()
            missed = [q for q in closing if q not in pairs]
            if not missed:
                break
            st.trace = trace
            pairs = sorted(pairs + missed)
        if located is None and (gaps_s <= 0.0).any():
            raise OrderingLostError(
                f"ordering lost without a contact flag in a step of {h!r}", st)
        return s, y

    def _check_window(self, st):
        if len(st.y) == 0:
            return
        lo, hi = self.window
        slack = 1e-12 * (1.0 + abs(hi - lo))
        if st.y[0] < lo - slack or st.y[-1] > hi + slack:
            pos = float(st.y[0]) if st.y[0] < lo - slack else float(st.y[-1])
            raise WindowExitError(pos, st)


class TrackedSolution:
    """Space-time sampler over a run, with the run's own solve as dense output.

    ``advance(t)`` integrates from the latest snapshot to t and keeps the
    result as a snapshot (a keyframe), with the solve's trajectory.
    ``field_at(t)`` answers a time between two keyframes from that trajectory:
    the positions are the cubic Hermite interpolant, in time, of the RK4
    step's end positions and speeds, and the fronts, levels and ids are the
    step's.  A query at an event's time sees the state before the event, as
    ``Tracker.advance`` to that time returns it.  Any other time advances
    from the latest earlier snapshot and keeps the result, so a time-sorted
    sweep past the keyframes costs one full integration.  Queries may come in
    any order.
    """

    def __init__(self, tracker, field0):
        self.tracker = tracker
        self._times = [field0.time]
        self._fields = [field0]
        # _steps[k]: the records of the solve from snapshot k to k + 1 (see
        # Tracker.advance), or None where that span was not recorded
        self._steps = [None]

    def advance(self, t):
        """Solve from the latest snapshot to t, recording the trajectory;
        returns (field, events) as ``Tracker.advance`` does."""
        record = []
        field_, log = self.tracker.advance(self._fields[-1], t, record=record)
        self._steps[-1] = record
        self._times.append(field_.time)
        self._fields.append(field_)
        self._steps.append(None)
        return field_, log

    def field_at(self, t):
        t = float(t)
        k = bisect.bisect_right(self._times, t) - 1
        if k < 0:
            raise ValueError(f"time {t} precedes the initial data ({self._times[0]})")
        if self._times[k] == t:
            return self._fields[k]
        if self._steps[k] is not None:
            return self._interpolate(k, t)
        advanced, _ = self.tracker.advance(self._fields[k], t)
        self._times.insert(k + 1, t)
        self._fields.insert(k + 1, advanced)
        self._steps.insert(k + 1, None)
        return advanced

    def _interpolate(self, k, t):
        """The snapshot at t inside the recorded span from snapshot k to k + 1:
        the step that ends at the first record at or after t."""
        record = self._steps[k]
        j = bisect.bisect_left(record, t, key=lambda r: r[0])
        t0, y0, v0, _, _, _ = record[j - 1]
        t1, y1, v1, z, ids, next_id = record[j]
        h = t1 - t0
        s = (t - t0) / h
        y = ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0 + s * (1.0 - s) ** 2 * h * v0
             + s * s * (3.0 - 2.0 * s) * y1 + s * s * (s - 1.0) * h * v1)
        field_ = FrontField(time=t, delta=self.tracker.delta, positions=y, z=z.copy(),
                            ids=ids.copy(), next_id=next_id,
                            quantization=self._fields[k].quantization)
        # the rule of Tracker.advance: just-born fan siblings may still touch
        return field_.validate(strict_positions=t - self._times[k] > TOL_EVENT)

    def sample_u(self, x, t):
        return sample_u(self.tracker.flux, self.field_at(t), x)


def common_pieces(field_a, field_b, lo, hi):
    """The common refinement of two fields on [lo, hi]: the merged cut points,
    and each field's g-level on every piece between consecutive cuts."""
    cuts = np.sort(np.concatenate((
        [lo, hi],
        field_a.positions[(field_a.positions > lo) & (field_a.positions < hi)],
        field_b.positions[(field_b.positions > lo) & (field_b.positions < hi)],
    )))
    # np.unique's answer without np.unique, which imports all of numpy.ma on first use
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    return cuts, _g_at(field_a, mids), _g_at(field_b, mids)


def l1_g_distance(field_a, field_b, lo, hi):
    """Exact L1 distance between two piecewise-constant g-fields on [lo, hi]."""
    cuts, ga, gb = common_pieces(field_a, field_b, lo, hi)
    return float(np.sum(np.abs(ga - gb) * np.diff(cuts)))
