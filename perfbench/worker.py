"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the workload, its generated inputs,
a scratch directory and a mode:

- ``run``: untraced repetition with the host-speed probe (HostProbe); reports
  its phase times, peak RSS and the correctness verdict.
- ``trace``: like ``run`` with every traced function wrapped (tracing.py);
  also reports the per-layer figures.

Times are taken from the top of this file, so ``setup_s`` includes
``import fronttrack`` (numpy and scipy with it).  Each workload returns its
phases as lists of (start, end) clock readings; ``main`` turns them into
seconds.  The worker prints one JSON line on standard output.
"""

import time

T0 = time.perf_counter()
# offset from the perf_counter clock to file modification times
WALL_OFFSET = time.time() - T0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import gate  # noqa: E402


PROBE_PERIOD_S = 0.5
PROBE_LOOPS = 200_000
# probe time that scales a phase by 1: about the kernel's time on a 2 GHz Xeon core in
# the fast regime of the host the benchmark was tuned on
PROBE_REF_S = 0.017


def _probe_kernel():
    """Interpreted integer arithmetic.

    A kernel that also called numpy on 2048-element arrays tracked the
    workload worse (correlation 0.16 against 0.81 on cli_bump).
    """
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class HostProbe:
    """Host-speed probe of an untraced repetition.

    The hosts this benchmark is run on change speed by up to 2x within
    minutes and per core (other tenants), and an interpreted kernel slows
    with them as fronttrack does.  Every ``PROBE_PERIOD_S`` seconds of wall time a
    SIGALRM handler, which runs in the main thread and so on the workload's
    core, times a fixed pure-Python kernel.  ``busy`` is the probe's own time
    inside an interval, removed from every phase; ``scale`` maps the phases to
    a host on which the kernel takes ``PROBE_REF_S``.  A kernel timed only
    before and after a repetition, or in a process on the other core, did not
    track the workload; one interleaved like this did.
    """

    def __init__(self):
        self.samples = []  # (start, duration)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _probe_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def busy(self, start, end):
        return sum(d for s, d in self.samples if start <= s < end)

    def scale(self):
        """PROBE_REF_S over the mean kernel time; 1 when no sample was taken."""
        if not self.samples:
            return 1.0
        return PROBE_REF_S / statistics.fmean(d for _, d in self.samples)


class PhaseClock:
    """Entry and exit times of ``Tracker.advance`` calls.

    The untraced ``cli_bump`` repetition has no other way to see where set-up
    ends and the solve starts inside ``cli.main``; this one class attribute
    is the only thing it replaces, and it records two clock readings a call.
    """

    def __init__(self, tracker_cls):
        self.entries, self.exits = [], []
        self._cls = tracker_cls
        self._original = original = tracker_cls.__dict__["advance"]
        clock = self

        def advance(tracker, *args, **kwargs):
            clock.entries.append(time.perf_counter())
            out = original(tracker, *args, **kwargs)
            clock.exits.append(time.perf_counter())
            return out

        tracker_cls.advance = advance

    def restore(self):
        self._cls.advance = self._original


def _solve_obs(label, field0, logs, snaps):
    import numpy as np

    events = [[e.time, e.position, list(e.consumed), e.produced, e.tv_before, e.tv_after]
              for log in logs for e in log]
    max_up = max((int(np.max(np.diff(s.z))) for s in snaps if s.n_fronts), default=0)
    return {"label": label, "events": events, "n0": int(field0.n_fronts), "max_up": max_up,
            "final_positions": snaps[-1].positions.tolist()}


# ---------------------------------------------------------------------------
# workloads: each returns (phases, observation, extras)
# ---------------------------------------------------------------------------

def cli_bump(job, tracer):
    import fronttrack.cli as cli
    from fronttrack.tracker import Tracker

    out_dir = os.path.join(job["tmp"], "out")
    patches = clock = None
    if tracer is not None:
        import tracing
        patches = tracing.install(tracer)
    else:
        clock = PhaseClock(Tracker)
    try:
        status = cli.main(["--out", out_dir, "run", job["config"]])
    finally:
        if clock is not None:
            clock.restore()
        if patches is not None:
            patches.restore()
    t_end = time.perf_counter()

    k = job["inputs"]["snapshots"]
    if tracer is not None:
        import tracing
        first, solves = tracing.phases(tracer)
    else:
        first = clock.entries[0]
        solves = list(zip(clock.entries[:k], clock.exits[:k]))
    events_path = os.path.join(out_dir, "events.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")
    # checks run between writing events.csv and writing the manifest
    checks = [tuple(os.stat(path).st_mtime_ns * 1e-9 - WALL_OFFSET
                    for path in (events_path, manifest_path))]
    phases = {"run_s": [(T0, t_end)], "setup_s": [(T0, first)], "solve_s": solves,
              "check_s": checks}

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    events = []
    with open(events_path) as fh:
        next(fh)
        for line in fh:
            t, x, consumed, produced, tv_b, tv_a = line.rstrip("\n").split(",")
            events.append([float(t), float(x), [int(i) for i in consumed.split(";") if i],
                           int(produced) if produced else None, float(tv_b), float(tv_a)])
    checks = manifest.get("checks", {}).get("checks", [])
    max_up = max((c["measured"] for c in checks if c["name"] == "admissibility.upward_jumps"),
                 default=0.0)
    obs = {
        "solves": [{"label": "cli", "events": events,
                    "n0": manifest.get("initial_front_count", 0), "max_up": max_up,
                    "final_positions": None}],
        "cli": {"status": status,
                "failed_checks": [c["name"] for c in checks if not c["passed"]]
                + ([] if checks else ["<none ran>"]),
                "final_front_count": manifest.get("final_front_count"),
                "initial_front_count": manifest.get("initial_front_count")},
    }
    # less the printed wall time in manifest.json, the one value that varies
    artifact_bytes = sum(os.path.getsize(os.path.join(out_dir, name))
                         for name in os.listdir(out_dir))
    if "wall_time_s" in manifest:
        artifact_bytes -= len(repr(manifest["wall_time_s"]))
    return phases, obs, {"artifact_bytes": artifact_bytes}


def sweep_bump(job, tracer):
    import fronttrack as ft

    inp = job["inputs"]
    patches = None
    if tracer is not None:
        import tracing
        patches = tracing.install(tracer)
    try:
        flux = ft.make_builtin_flux("modulated_burgers", base=1.0, amp=0.5)
        u0 = ft.make_initial("bump", amp=inp["amp"], center=inp["center"], width=inp["width"])
        runs = []
        for delta, cells in zip(inp["deltas"], inp["cells"]):
            field0 = ft.quantize_initial(flux, u0, delta, inp["window"], cells)
            runs.append((delta, field0, ft.Tracker(flux, delta, inp["work_window"])))
        t_setup = time.perf_counter()
        done, by_delta = [], {}
        for delta, field0, tracker in runs:
            t = time.perf_counter()
            current, logs, snaps = field0, [], [field0]
            for t_out in inp["times"]:
                current, log = tracker.advance(current, t_out)
                logs.append(log)
                snaps.append(current)
            by_delta[f"d{delta:g}"] = [(t, time.perf_counter())]
            done.append((f"d{delta:g}", field0, logs, snaps))
        t_end = time.perf_counter()
    finally:
        if patches is not None:
            patches.restore()
    phases = {"run_s": [(T0, t_end)], "setup_s": [(T0, t_setup)],
              "solve_s": [(t_setup, t_end)], **by_delta}
    obs = {"solves": [_solve_obs(*d) for d in done]}
    return phases, obs, {}


def dsl_fan(job, tracer):
    import math

    import numpy as np
    import fronttrack as ft

    inp = job["inputs"]
    patches = None
    if tracer is not None:
        import tracing
        patches = tracing.install(tracer)
    try:
        # audit, certify and envelopes as cli.run does them
        flux = ft.make_builtin_flux("custom_expr", expr=inp["expr"])
        u0 = ft.make_initial("piecewise", values=inp["values"], breaks=inp["breaks"])
        lo, hi = inp["window"]
        delta, t_end = inp["delta"], inp["t_end"]
        probe = np.linspace(lo, hi, 4097)
        u_probe = np.asarray(u0(probe), dtype=float)
        box_u = 2.0 * float(np.max(np.abs(u_probe))) + 1.0
        report = ft.audit_assumptions(flux, ((lo, hi), (-box_u, box_u)), grid=48)
        flux = ft.certify(flux, report)
        g0_sup = float(np.max(np.abs(ft.g_of(flux, probe, u_probe))))
        u_sup = math.sqrt(2.0 * max(g0_sup, delta) / flux.alpha) * 1.02
        envelope = ft.default_envelope(flux, (lo, hi), u_sup + delta)
        margin = envelope.lipschitz_L(u_sup) * t_end + 0.05 * (hi - lo) + delta
        work_window = (lo - margin, hi + margin)
        ft.default_envelope(flux, work_window, u_sup + delta)
        field0 = ft.quantize_initial(flux, u0, delta, (lo, hi), inp["cells"])
        tracker = ft.Tracker(flux, delta, work_window)
        t_setup = time.perf_counter()
        final, log = tracker.advance(field0, t_end)
        t_solved = time.perf_counter()
        solution = ft.TrackedSolution(tracker, field0)
        xs = np.linspace(lo, hi, inp["sample_points"])
        sums = [float(np.sum(solution.sample_u(xs, float(t))))
                for t in np.linspace(0.0, t_end, inp["sample_times"])]
        t_done = time.perf_counter()
    finally:
        if patches is not None:
            patches.restore()
    phases = {"run_s": [(T0, t_done)], "setup_s": [(T0, t_setup)],
              "solve_s": [(t_setup, t_solved)], "sample_s": [(t_solved, t_done)]}
    obs = {"solves": [_solve_obs("dsl", field0, [log], [field0, final])], "sample_sums": sums}
    return phases, obs, {}


WORKLOADS = {"cli_bump": cli_bump, "sweep_bump": sweep_bump, "dsl_fan": dsl_fan}


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    tracer = probe = None
    if job["mode"] == "trace":
        import tracing
        tracer = tracing.Tracer()
    else:
        probe = HostProbe()
    try:
        phases, obs, extras = WORKLOADS[job["workload"]](job, tracer)
    finally:
        if probe is not None:
            probe.stop()
    # "wall": seconds net of the probe; "phases": the same scaled by the probe
    wall = {name: sum(b - a - (probe.busy(a, b) if probe else 0.0) for a, b in spans)
            for name, spans in phases.items()}
    scale = probe.scale() if probe else 1.0
    result = {"wall": wall, "phases": {name: v * scale for name, v in wall.items()},
              "probe": {"scale": scale, "samples": len(probe.samples) if probe else 0},
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    ref = None
    if job.get("reference"):
        with open(job["reference"]) as fh:
            ref = json.load(fh).get(job["workload"])
    ok, why, dev = gate.verdict(obs, ref)
    result.update(ok=ok, why=why, max_pos_dev=dev,
                  events=sum(len(s["events"]) for s in obs["solves"]),
                  fronts_initial=sum(s["n0"] for s in obs["solves"]), **extras)
    if job.get("record"):
        with open(job["record"], "w") as fh:
            json.dump(obs, fh)
    if job.get("keep_positions"):
        result["positions"] = [[e[1] for e in s["events"]] + (s["final_positions"] or [])
                               for s in obs["solves"]]
    if tracer is not None:
        import tracing
        result["layers"] = tracing.summarize(tracer)
        if job.get("spans"):
            tracer.write_csv(job["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
