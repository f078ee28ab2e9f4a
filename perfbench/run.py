"""fronttrack benchmark: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_bump --seed 20260810 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seed

Each repetition runs in its own interpreter (worker.py) with BLAS threads
pinned to 1 and the program's sources taken from ``src/``.  With
``--trace 0`` the run makes repetitions until the next one would overrun
``--seconds`` (at least two) and reports the median of each end-to-end
metric, in seconds scaled by the worker's host-speed probe.  With
``--trace 1`` it makes one untraced and one traced repetition and reports
the per-layer metrics.  Every repetition passes the correctness gate
(gate.py) or counts as failed.  Scratch files go to a temporary directory in
the checkout, removed when the run ends.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 when every repetition passed, 1 when one failed and 2
when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import DEFAULT_SEED, WORKLOADS, make_inputs  # noqa: E402

REFERENCE = HERE / "reference.json"
# prefix of the run's scratch directory in the checkout (see .gitignore)
SCRATCH_PREFIX = ".perfbench_tmp"

# two repetitions at least, so that no run rests on a single one
MIN_REPS = 2
WORKER_TIMEOUT_S = 150

# name -> unit of every gated end-to-end metric and every per-layer metric
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# end-to-end figures printed where they apply; zero elsewhere, so not gated
REPORTED = {"check_s": ("s", "cli_bump"), "sample_s": ("s", "dsl_fan")}


class Session:
    """Runs worker processes for one workload and keeps their results."""

    def __init__(self, workload, seed, small, reference, tmp):
        self.workload = workload
        self.reference = reference
        self.tmp = tmp
        self.inputs = make_inputs(workload, seed, small)
        self.attempted = 0
        self.failures = []
        if workload == "cli_bump":
            self.config = tmp / "cli_bump.ini"
            self.config.write_text(self.inputs["config_text"])
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                                   if os.environ.get("PYTHONPATH") else [])))

    def rep(self, mode, **options):
        """One gated worker process; its result dict, or None when it failed.

        ``mode`` is ``run`` (untraced) or ``trace``.
        ``options`` go into the job: ``keep_positions`` (return event and
        final positions), ``record`` (file for the observed outputs),
        ``spans`` (file for the span table of a traced repetition).
        """
        self.attempted += 1
        work = Path(tempfile.mkdtemp(dir=self.tmp))
        job = {"workload": self.workload, "mode": mode, "inputs": self.inputs,
               "tmp": str(work), "reference": self.reference, **options}
        if self.workload == "cli_bump":
            job["config"] = str(self.config)
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                  env=self.env, cwd=str(work), capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} repetition exceeded {WORKER_TIMEOUT_S} s")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return self._fail(f"{mode} repetition exited {proc.returncode}: {' | '.join(tail)}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["ok"]:
            return self._fail(f"{mode} repetition failed the gate: {result['why']}")
        return result

    def _fail(self, why):
        self.failures.append(why)
        print(f"FAILED: {why}", file=sys.stderr)
        return None


def measure(session, seconds):
    """Untraced run: repetitions until the next one would overrun ``seconds``.

    ``MIN_REPS`` always run, so a run lasts about ``max(seconds, MIN_REPS repetitions)``.
    """
    deadline = time.perf_counter() + seconds
    reps, durations = [], []
    while True:
        t = time.perf_counter()
        r = session.rep("run")
        durations.append(time.perf_counter() - t)
        if r is None and not reps:
            break
        if r is not None:
            reps.append(r)
        if len(durations) >= MIN_REPS and (
                time.perf_counter() + statistics.median(durations) > deadline):
            break
    if not reps:
        return {}, {}
    metrics = {name: statistics.median(r["phases"][name] for r in reps)
               for name in ("run_s", "setup_s", "solve_s")}
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    timed = [name for name in ("run_s", "setup_s", "solve_s", *REPORTED)
             if name in reps[0]["phases"]]
    extra = {name: statistics.median(r["phases"][name] for r in reps)
             for name in REPORTED if name in reps[0]["phases"]}
    extra["samples"] = {name: [round(r["phases"][name], 4) for r in reps] for name in timed}
    extra["wall_samples"] = {name: [round(r["wall"][name], 4) for r in reps] for name in timed}
    extra["probe_scale"] = [round(r["probe"]["scale"], 4) for r in reps]
    return metrics, extra


def trace(session, spans=None):
    """Traced run: one untraced and one traced repetition of the same inputs.

    ``spans`` names a file for the traced repetition's span table.
    """
    plain = session.rep("run", keep_positions=True)
    traced = session.rep("trace", keep_positions=True, spans=spans)
    if plain is None or traced is None:
        return {}
    layers = dict(traced["layers"])
    layers["tracker.events"] = plain["events"]
    layers["tracker.fronts_initial"] = plain["fronts_initial"]
    if plain["max_pos_dev"] is not None:
        dev = max(plain["max_pos_dev"], traced["max_pos_dev"])
    else:  # no pinned reference for this seed: the traced repetition against the plain one
        dev = max((abs(a - b) for pa, pb in zip(plain["positions"], traced["positions"])
                   for a, b in zip(pa, pb)), default=0.0)
    layers["tracker.max_pos_dev"] = dev
    # per-layer times are unscaled seconds, net of the untraced repetition's probe
    wall = plain["wall"]
    by_delta = {k: v for k, v in wall.items() if k.startswith("d0.")}
    for label in ("d0.005", "d0.002", "d0.001"):
        solve = wall["solve_s"] if session.workload == "cli_bump" and label == "d0.005" else 0.0
        layers[f"tracker.solve_s.{label}"] = by_delta.get(label, solve)
    layers["tracker.cost_exponent"] = cost_exponent(
        {float(k[1:]): v for k, v in by_delta.items()})
    layers["cli.artifact_bytes"] = plain.get("artifact_bytes", 0)
    layers["check_s"] = wall.get("check_s", 0.0)
    layers["sample_s"] = wall.get("sample_s", 0.0)
    layers["trace.overhead_s"] = traced["wall"]["run_s"] - wall["run_s"]
    return layers


def cost_exponent(times):
    """Least-squares slope of log(solve time) against log(1/delta)."""
    if len(times) < 2:
        return 0.0
    xs = [math.log(1.0 / d) for d in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "load1_before": os.getloadavg()[0]}


def run_workload(workload, seed, seconds, traced, tmp, spans=None, small=False):
    """One workload's result dict; ``small`` shrinks the inputs (own tests only).

    Repetitions at the default seed are gated against ``REFERENCE``.
    """
    reference = str(REFERENCE) if seed == DEFAULT_SEED else None
    session = Session(workload, seed, small, reference, tmp)
    env = environment()
    if traced:
        spans_file = None
        if spans:
            Path(spans).mkdir(parents=True, exist_ok=True)
            spans_file = str(Path(spans).resolve() / f"{workload}.spans.csv")
        metrics, extra = trace(session, spans_file), {}
        units = PER_LAYER_UNITS
    else:
        metrics, extra = measure(session, seconds)
        units = END_TO_END
    env["load1_after"] = os.getloadavg()[0]
    failed = len(session.failures)

    print(f"== {workload}  seed={seed}  trace={int(bool(traced))}  "
          f"seconds={seconds}  {json.dumps(extra)}")
    print("env: " + json.dumps(env))
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    if not traced:
        for name, (unit, where) in REPORTED.items():
            if name in extra:
                print(f"  {name:36s} {extra[name]:>16.6g} {unit}   ({where} only, not gated)")
    print(f"  {'fail_rate':36s} {failed / max(1, session.attempted):>16.6g} "
          f"({failed}/{session.attempted})")
    complete = set(metrics) == set(units)
    return {"correct": failed == 0 and complete, "attempted": session.attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, metavar="DIR",
                        help="with --trace 1, write each workload's span table to DIR")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fronttrack" / "__init__.py").is_file():
        print(f"no fronttrack sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    # a terminated run still removes its scratch and kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=ROOT))
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, tmp,
                                   spans=args.spans) for w in workloads}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
