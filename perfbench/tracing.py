"""Outside-in tracing of fronttrack: spans and counters recorded by wrappers.

Nothing inside ``src/`` is instrumented.  ``install`` replaces the public
functions of each fronttrack module, at every module where they were
imported, with wrappers that record a span (name, start, end, parent) or a
counter, and ``Patches.restore`` puts the original objects back.  Spans stay
in memory in flat arrays; ``summarize`` turns them into per-layer metrics
when the run ends.

Self time of a span is its duration minus the durations of its direct child
spans (the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array

import numpy as np

# (defining module, attribute, span name); a dotted attribute is a method
SPANNED = (
    ("fronttrack.fluxes", "make_builtin_flux", "fluxes.make_builtin_flux"),
    ("fronttrack.fluxes", "audit_assumptions", "fluxes.audit"),
    ("fronttrack.fluxes", "default_envelope", "fluxes.envelope"),
    ("fronttrack.fluxes", "speed_envelope", "fluxes.envelope"),
    ("fronttrack.expr", "evaluate", "expr.evaluate"),
    ("fronttrack.stationary", "solve_level", "stationary.solve_level"),
    ("fronttrack.tracker", "quantize_initial", "tracker.quantize"),
    ("fronttrack.tracker", "Tracker.advance", "tracker.advance"),
    ("fronttrack.tracker", "TrackedSolution.field_at", "tracker.field_at"),
    ("fronttrack.tracker", "sample_u", "tracker.sample"),
    ("fronttrack.tracker", "sample_g", "tracker.sample"),
    ("fronttrack.riemann", "ApproxFlux.eval", "riemann.approx_eval"),
    ("fronttrack.riemann", "ApproxFlux.eval_dx", "riemann.approx_eval"),
    ("fronttrack.cli", "load_config", "cli.load_config"),
    ("fronttrack.cli", "run", "cli.run"),
)

# spans whose result size is counted as points
POINTS = ("stationary.solve_level", "tracker.sample", "riemann.approx_eval")

# the runner's check table: every check starts and ends here
CHECK_TABLE = ("fronttrack.cli", "_CHECK_IMPL")


class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.stack = []
        self.f_points = 0
        self.fu_points = 0
        self.f_calls_in_solve_level = 0
        self.events_resolved = 0

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.points.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def innermost(self):
        return self.name[self.stack[-1]] if self.stack else -1

    def write_csv(self, path):
        """Every span as index,name,start_s,end_s,parent (-1 for a root)."""
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")


class Patches:
    """Record of replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, table, key, value):
        self._saved.append((table, key, table[key]))
        table[key] = value

    def restore(self):
        for owner, attr, old in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._saved.clear()


def fronttrack_modules():
    """The package and every submodule, imported."""
    pkg = importlib.import_module("fronttrack")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, "fronttrack."):
        if info.name != "fronttrack.__main__":
            mods.append(importlib.import_module(info.name))
    return mods


def _resolve(module, dotted):
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)


def _span_wrapper(tracer, name, fn):
    nid = tracer.name_id(name)
    count_points = name in POINTS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count_points:
            tracer.points[i] = np.size(out)
        return out

    return wrapper


def _advance_wrapper(tracer, fn):
    inner = _span_wrapper(tracer, "tracker.advance", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        tracer.events_resolved += len(out[1])
        return out

    return wrapper


def _counted_flux(tracer, flux):
    """Copy of a Flux whose f and fu count the array elements they evaluate."""
    import dataclasses

    solve_id = tracer.name_id("stationary.solve_level")
    f, fu = flux.f, flux.fu

    def f_counted(x, u):
        out = f(x, u)
        tracer.f_points += np.size(out)
        if tracer.innermost() == solve_id:
            tracer.f_calls_in_solve_level += 1
        return out

    def fu_counted(x, u):
        out = fu(x, u)
        tracer.fu_points += np.size(out)
        return out

    return dataclasses.replace(flux, f=f_counted, fu=fu_counted)


def _flux_builder_wrapper(tracer, fn):
    inner = _span_wrapper(tracer, "fluxes.make_builtin_flux", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _counted_flux(tracer, inner(*args, **kwargs))

    return wrapper


def _targets():
    """(owner, attribute, original, span name) for every import site of a
    traced function, then the check table's entries."""
    modules = fronttrack_modules()
    for module, dotted, name in SPANNED:
        owner, attr, original = _resolve(module, dotted)
        if original is None:
            continue
        if isinstance(owner, type):
            yield owner, attr, original, name
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    yield mod, key, original, name
    _, _, table = _resolve(*CHECK_TABLE)
    if isinstance(table, dict):
        for check, fn in list(table.items()):
            yield table, check, fn, f"validation.{check}"


def traced_targets():
    """(owner, attribute, object) for everything ``install`` would replace."""
    return [(owner, attr, original) for owner, attr, original, _ in _targets()]


def install(tracer):
    """Wrap every traced function at each of its import sites; returns Patches.

    A function missing from the package is skipped, so its metrics read 0.
    """
    patches = Patches()
    wrappers = {}
    for owner, attr, original, name in _targets():
        wrapper = wrappers.get(id(original))
        if wrapper is None:
            if name == "tracker.advance":
                wrapper = _advance_wrapper(tracer, original)
            elif name == "fluxes.make_builtin_flux":
                wrapper = _flux_builder_wrapper(tracer, original)
            else:
                wrapper = _span_wrapper(tracer, name, original)
            wrappers[id(original)] = wrapper
        if isinstance(owner, dict):
            patches.set_item(owner, attr, wrapper)
        else:
            patches.set(owner, attr, wrapper)
    return patches


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CHECKS = ("tvd", "entropy", "lipschitz_l1", "characteristics", "inversion_bounds")


def summarize(tracer):
    """Per-layer figures from the recorded spans and counters.

    Returns a dict of metric name -> value (seconds for ``_s`` names).
    """
    n = len(tracer.start)
    names = np.frombuffer(tracer.name, dtype=np.int32) if n else np.zeros(0, np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
    dur = (np.frombuffer(tracer.end) - np.frombuffer(tracer.start)) if n else np.zeros(0)
    points = np.frombuffer(tracer.points, dtype=np.int64) if n else np.zeros(0, np.int64)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)

    def nid(name):
        return tracer._ids.get(name, -2)

    def mask(name):
        return names == nid(name)

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def incl(name):
        return float(np.sum(dur[mask(name)]))

    def self_s(name):
        return float(np.sum(self_time[mask(name)]))

    def pts(name):
        return int(np.sum(points[mask(name)]))

    envelope = mask("fluxes.envelope") & (parent_name != nid("fluxes.envelope"))
    solve_calls = calls("stationary.solve_level")
    solve_points = pts("stationary.solve_level")
    advance = mask("tracker.advance")
    speed_calls = int(np.count_nonzero(mask("stationary.solve_level")
                                       & (parent_name == nid("tracker.advance"))))
    out = {
        "fluxes.audit_s": incl("fluxes.audit"),
        "fluxes.envelope_s": float(np.sum(dur[envelope])),
        "fluxes.f_points": tracer.f_points,
        "fluxes.fu_points": tracer.fu_points,
        "expr.evaluate_calls": calls("expr.evaluate"),
        "expr.evaluate_s": incl("expr.evaluate"),
        "stationary.solve_level_calls": solve_calls,
        "stationary.solve_level_points": solve_points,
        "stationary.solve_level_self_s": self_s("stationary.solve_level"),
        "stationary.us_per_point": (1e6 * incl("stationary.solve_level") / solve_points
                                    if solve_points else 0.0),
        "stationary.newton_iters_per_call": (tracer.f_calls_in_solve_level / solve_calls
                                             if solve_calls else 0.0),
        "tracker.quantize_s": incl("tracker.quantize"),
        "tracker.advance_calls": int(np.count_nonzero(advance)),
        "tracker.advance_self_s": float(np.sum(self_time[advance])),
        "tracker.speed_evals": speed_calls // 2,
        "tracker.speed_evals_per_event": ((speed_calls // 2) / tracer.events_resolved
                                          if tracer.events_resolved else 0.0),
        "tracker.reintegrations": int(np.count_nonzero(
            advance & (parent_name == nid("tracker.field_at")))),
        "tracker.sample_calls": calls("tracker.sample"),
        "tracker.sample_points": pts("tracker.sample"),
        "tracker.sample_self_s": self_s("tracker.sample"),
        "riemann.approx_eval_calls": calls("riemann.approx_eval"),
        "riemann.approx_eval_points": pts("riemann.approx_eval"),
        "riemann.approx_eval_self_s": self_s("riemann.approx_eval"),
        "cli.load_config_s": incl("cli.load_config"),
        "cli.write_s": self_s("cli.run"),
    }
    for check in CHECKS:
        out[f"validation.{check}_s"] = incl(f"validation.{check}")
    return out


def phases(tracer):
    """Setup end and output-solve (start, end) pairs from the spans (traced repetitions).

    The output solve is every ``advance`` not made under ``field_at``.
    """
    names = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    start = np.frombuffer(tracer.start)
    end = np.frombuffer(tracer.end)
    adv = names == tracer._ids.get("tracker.advance", -2)
    under = np.zeros_like(adv)
    has = parent >= 0
    under[has] = names[parent[has]] == tracer._ids.get("tracker.field_at", -2)
    top = adv & ~under
    first = float(start[adv][0]) if np.any(adv) else None
    return first, list(zip(start[top].tolist(), end[top].tolist()))
