"""Config-driven runner: audit, solve, validate, emit artifacts.

Experiments are described by INI-style config files (flux family or DSL
expression, initial profile, delta, window, horizon, checks).  A run writes
profile CSVs, an event-log CSV and a JSON manifest; the exit status is
nonzero iff any requested check fails (1), the config is invalid or the audit
rejects the flux (2), or the solve raises a ``TrackerError`` (3).
Each randomized check draws from a stream of Python's ``random`` keyed by the
config seed and its name, so results are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import glob
import json
import math
import os
import sys
import time as _time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .fluxes import (DomainError, make_builtin_flux, audit_assumptions, certify,
                     default_envelope)
from .profiles import make_initial
from .stationary import g_of
from .tracker import (H_ODE_DEFAULT, Tracker, TrackedSolution, TrackerError,
                      quantize_initial, sample_initial, sample_u, sample_g, tv_g)
# perfbench/tracing.py wraps the entries of this very dict in place
from .validation import CHECKS as _CHECK_IMPL, RunContext, ValidationReport

ENV_OUT = "FRONTTRACK_OUT"

DEFAULT_CHECKS = ("tvd", "entropy", "lipschitz_l1")


class ConfigError(ValueError):
    def __init__(self, section, option, message):
        super().__init__(f"[{section}] {option}: {message}")
        self.section = section
        self.option = option


@dataclass
class RunConfig:
    flux_family: str
    flux_params: dict
    u0_name: str
    u0_params: dict
    delta: float
    window: tuple
    cells: int
    t_end: float
    output_times: list
    checks: list
    seed: int
    resolution: int = 1024
    tolerances: dict = field(default_factory=dict)

    def validate(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ConfigError("run", "delta", "must be finite and positive")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigError("run", "t_end", "must be finite and nonnegative")
        lo, hi = self.window
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ConfigError("run", "window", "must be a finite nondegenerate interval")
        for option in ("cells", "resolution"):
            if getattr(self, option) < 1:
                raise ConfigError("run", option, "must be at least 1")
        if sorted(self.output_times) != list(self.output_times):
            raise ConfigError("run", "output_times", "must be sorted")
        if self.output_times and not (0.0 <= self.output_times[0]
                                      and self.output_times[-1] <= self.t_end):
            raise ConfigError("run", "output_times", "must lie within [0, t_end]")
        unknown = set(self.checks) - set(_CHECK_IMPL)
        if unknown:
            raise ConfigError("checks", "names", f"unknown checks {sorted(unknown)}")
        return self

    def echo(self):
        d = asdict(self)
        d["window"] = list(self.window)
        return d


def _parse_floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _count(text):
    """A positive whole number, kept as the float that the manifest echoes."""
    value = float(text)
    if not (value.is_integer() and value >= 1):
        raise ValueError("not a positive whole number")
    return value


# the [tolerances] keys with their parsers; any other key is a config error
TOLERANCES = {"entropy_pairs": _count, "entropy_quad": _count, "h_ode": float}


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise ConfigError("-", "-", f"malformed config file: {e}") from None
    if not read:
        raise ConfigError("-", "-", f"cannot read config file {path!r}")

    def need(section, option, cast=str):
        try:
            raw = parser.get(section, option)
        except (configparser.NoSectionError, configparser.NoOptionError) as e:
            raise ConfigError(section, option, "missing") from None
        try:
            return cast(raw)
        except ValueError as e:
            raise ConfigError(section, option, f"bad value {raw!r}: {e}") from None

    def opt(section, option, default, cast=str):
        if not parser.has_option(section, option):
            return default
        return need(section, option, cast)

    def params(section, name):
        """The section's ``name`` key as text, and its other keys: expr as
        text, values and breaks as lists of numbers, any other as a number."""
        casts = {"expr": str, "values": _parse_floats, "breaks": _parse_floats}
        return need(section, name), {k: need(section, k, casts.get(k, float))
                                     for k in parser.options(section) if k != name}

    flux_family, flux_params = params("flux", "family")
    u0_name, u0_params = params("initial", "profile")

    window = opt("run", "window", None, _parse_floats)
    if window is None or len(window) != 2:
        raise ConfigError("run", "window", "expected two numbers, e.g. '-3, 3'")
    t_end = need("run", "t_end", float)
    out_times = opt("run", "output_times", None, _parse_floats)
    if out_times is None:
        out_times = [t_end]

    checks = opt("checks", "names", ", ".join(DEFAULT_CHECKS))
    checks = [c.strip() for c in checks.replace(",", " ").split() if c.strip()]

    tolerances = {}
    if parser.has_section("tolerances"):
        for k in parser.options("tolerances"):
            if k not in TOLERANCES:
                raise ConfigError("tolerances", k,
                                  f"unknown key; expected one of {sorted(TOLERANCES)}")
            tolerances[k] = need("tolerances", k, TOLERANCES[k])

    cfg = RunConfig(
        flux_family=flux_family,
        flux_params=flux_params,
        u0_name=u0_name,
        u0_params=u0_params,
        delta=need("run", "delta", float),
        window=(window[0], window[1]),
        cells=need("run", "cells", int),
        t_end=t_end,
        output_times=out_times,
        checks=checks,
        seed=opt("run", "seed", 0, int),
        resolution=opt("run", "resolution", 1024, int),
        tolerances=tolerances,
    )
    return cfg.validate()


# ---------------------------------------------------------------------------
# artifact writers (shortest round-trip float formatting, LF endings)
# ---------------------------------------------------------------------------

def emit_profile(flux, field_, window, resolution, path):
    """CSV of x,u,g at `resolution` uniform points over the given window,
    each 256 rows written as one string of Python floats' reprs."""
    xs = np.linspace(window[0], window[1], int(resolution))
    table = np.stack((xs, sample_u(flux, field_, xs), sample_g(field_, xs)), axis=1)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,u,g\n")
        for i in range(0, len(table), 256):
            fh.write("".join(f"{x!r},{u!r},{g!r}\n" for x, u, g in table[i:i + 256].tolist()))


def emit_events(log, path):
    """CSV of the event log: t,x,consumed_ids,produced_id,tv_before,tv_after."""
    rows = [f"{float(e.time)!r},{float(e.position)!r},{';'.join(map(str, e.consumed))},"
            f"{'' if e.produced is None else e.produced},{float(e.tv_before)!r},"
            f"{float(e.tv_after)!r}\n" for e in log]
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,consumed_ids,produced_id,tv_before,tv_after\n" + "".join(rows))


def read_profile(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def _from_config(section, option, build, *args, **kwargs):
    """build(*args, **kwargs); the ValueError or KeyError it raises on a bad
    config value becomes a ConfigError naming [section] option."""
    try:
        return build(*args, **kwargs)
    except (ValueError, KeyError) as e:
        raise ConfigError(section, option, f"{type(e).__name__}: {e}") from None


def run(cfg, out_dir, verbose=False):
    """Execute one configured experiment; returns (manifest dict, exit status).

    A solve that raises a TrackerError ends the run with status 3: its
    manifest.json holds the error record and failure.txt the solve's state.

    Raises ConfigError if the flux, the initial profile or the tracker cannot
    be built from the config, or if the flux does not evaluate on the working window.
    """
    started = _time.perf_counter()
    say = print if verbose else (lambda *_: None)

    flux = _from_config("flux", "family", make_builtin_flux, cfg.flux_family,
                        **cfg.flux_params)
    u0 = _from_config("initial", "profile", make_initial, cfg.u0_name, **cfg.u0_params)
    lo, hi = cfg.window
    probe = np.linspace(lo, hi, 4097)
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # sample_initial reports them
            u_probe = sample_initial(u0, probe)
    except (DomainError, ValueError) as e:
        raise ConfigError("initial", "profile", str(e)) from None
    u0_sup = float(np.max(np.abs(u_probe))) if u_probe.size else 0.0
    u0_l1 = float(np.sum(0.5 * (np.abs(u_probe[:-1]) + np.abs(u_probe[1:]))
                         * np.diff(probe)))

    box_u = 2.0 * u0_sup + 1.0
    report_audit = audit_assumptions(flux, ((lo, hi), (-box_u, box_u)), grid=48)
    say(report_audit.summary())
    manifest = {
        "version": __version__,
        "config": cfg.echo(),
        "audit": {
            "passed": report_audit.passed,
            "alpha": report_audit.certified_alpha,
            "fuu_max": report_audit.fuu_max,
            "violations": [list(map(str, v)) for v in report_audit.violations[:16]],
            "samples": list(report_audit.sample_counts),
        },
    }
    if not report_audit.passed:
        manifest["error"] = "audit failed; solve aborted"
        os.makedirs(out_dir, exist_ok=True)
        _write_manifest(manifest, out_dir, started)
        return manifest, 2

    flux = certify(flux, report_audit)

    # state bound: levels never leave their initial range, so the initial
    # g-range bounds |u| for all time
    g0_sup = float(np.max(np.abs(g_of(flux, probe, u_probe)))) if u_probe.size else 0.0
    u_sup = math.sqrt(2.0 * max(g0_sup, cfg.delta) / flux.alpha) * 1.02
    envelope = default_envelope(flux, cfg.window, u_sup + cfg.delta)

    h_ode = cfg.tolerances.get("h_ode", H_ODE_DEFAULT)
    # boundary fronts created by the compact-support padding move at most at
    # the envelope speed, so the data window plus L*T margin holds all activity
    margin = envelope.lipschitz_L(u_sup) * cfg.t_end + 0.05 * (hi - lo) + cfg.delta
    work_window = (lo - margin, hi + margin)
    # the checks' speed bound: fronts may reach the whole working window, so
    # the flux must evaluate there too, not only on the audited data window
    try:
        speed_bound = default_envelope(flux, work_window, u_sup + cfg.delta).lipschitz_L(u_sup)
    except DomainError as e:
        raise ConfigError("flux", "family", f"on the working window "
                          f"[{work_window[0]:.6g}, {work_window[1]:.6g}]: {e}") from None
    tracker = _from_config("tolerances", "h_ode", Tracker, flux, cfg.delta,
                           work_window, h_ode=h_ode)
    # a delta too small for the data puts levels past 2**53
    field0 = _from_config("run", "delta", quantize_initial, flux, u0, cfg.delta,
                          cfg.window, cfg.cells)
    say(f"quantized: {field0.n_fronts} fronts, TV(g) = {tv_g(field0)}")

    # the checks read their snapshots off this solve's recorded trajectory
    solution = TrackedSolution(tracker, field0)
    log = []
    fields = {0.0: field0}
    times = list(cfg.output_times)
    if not times or times[-1] < cfg.t_end:
        times = times + [cfg.t_end]
    clock = _time.perf_counter()
    try:
        for t in times:
            fields[t], piece_log = solution.advance(t)
            log.extend(piece_log)
    except TrackerError as e:
        return _solve_failed(manifest, e, out_dir, started)
    say(f"solve: {len(log)} events, {_time.perf_counter() - clock:.3f} s")

    clock = _time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)  # past every ConfigError: none leaves it empty
    for k, t in enumerate(cfg.output_times):
        path = os.path.join(out_dir, f"profile_{k:03d}.csv")
        emit_profile(flux, fields[t], cfg.window, cfg.resolution, path)
    emit_events(log, os.path.join(out_dir, "events.csv"))
    say(f"artifacts: {_time.perf_counter() - clock:.3f} s")

    ctx = RunContext(config=cfg, flux=flux, field0=field0, fields=fields, log=log,
                     solution=solution, speed_bound=speed_bound,
                     u_sup=u_sup, u0_l1=u0_l1)
    report = ValidationReport()
    for name in sorted(cfg.checks, key=list(_CHECK_IMPL).index):
        clock = _time.perf_counter()
        _CHECK_IMPL[name](ctx, report)
        say(f"check {name}: {_time.perf_counter() - clock:.3f} s")

    manifest.update({
        "event_count": len(log),
        "final_front_count": fields[max(fields)].n_fronts,
        "initial_front_count": field0.n_fronts,
        "tv_g_initial": tv_g(field0),
        "tv_g_final": tv_g(fields[max(fields)]),
        "quantization": asdict(field0.quantization) if field0.quantization else None,
        "checks": report.to_dict(),
        "output_times": list(cfg.output_times),
    })
    _write_manifest(manifest, out_dir, started)
    status = 0 if report.passed else 1
    say(f"done: {'ok' if status == 0 else 'CHECK FAILURES'}")
    return manifest, status


def _solve_failed(manifest, err, out_dir, started):
    """The manifest and status 3 of a solve that raised err, a TrackerError
    (which carries the solve's state): manifest.json records the error, and
    failure.txt holds the state's dump."""
    manifest["error"] = {
        "type": type(err).__name__,
        "message": str(err).removesuffix(f"\n{err.dump}"),
        "time": err.time,
        "front_count": len(err.positions),
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "failure.txt"), "w", newline="\n") as fh:
        fh.write(f"{err.dump}\n")
    _write_manifest(manifest, out_dir, started)
    return manifest, 3


def _finite_or_null(obj):
    """obj with every non-finite float as None: JSON has no NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_manifest(manifest, out_dir, started):
    manifest["wall_time_s"] = _time.perf_counter() - started
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="\n") as fh:
        json.dump(_finite_or_null(manifest), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    # --out and --verbose are accepted before and after the subcommand; the
    # suppressed defaults keep a subcommand from resetting an earlier value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory "
                        f"(default ./out or ${ENV_OUT})")
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="fronttrack", parents=[common],
        description="front tracking solver and validation runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common], help="execute one config")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="execute every config matching a glob")
    p_sweep.add_argument("pattern")
    args = parser.parse_args(argv)

    out_base = getattr(args, "out", None) or os.environ.get(ENV_OUT) or "out"
    verbose = getattr(args, "verbose", False)

    if args.command == "run":
        paths = [args.config]
    else:
        paths = sorted(glob.glob(args.pattern))
        if not paths:
            print(f"no configs match {args.pattern!r}", file=sys.stderr)
            return 2

    # a sweep writes each config's artifacts under the config's file stem
    stems = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    clashing = [path for path, stem in zip(paths, stems) if stems.count(stem) > 1]
    if clashing:
        print(f"configs would share an output directory: {', '.join(clashing)}", file=sys.stderr)
        return 2

    worst = 0
    for path, stem in zip(paths, stems):
        out_dir = os.path.join(out_base, stem) if args.command == "sweep" else out_base
        try:
            manifest, status = run(load_config(path), out_dir, verbose=verbose)
        except ConfigError as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 2
        if status != 0:
            print(f"{path}: exit status {status}", file=sys.stderr)
        worst = max(worst, status)
    return worst


if __name__ == "__main__":
    sys.exit(main())
