"""Compare the recorded outputs of a parent checkout and a change checkout.

Usage (from the repository root):

    python3 tools/same_outputs.py --parent ../parent --change .

For each workload, at perfbench's default seed and at seed 7, it runs one
untraced repetition (``perfbench/run.py``'s ``Session.rep("run",
record=...)``) in each checkout and compares the two recorded observations:
the event logs, the final front positions and every other recorded value.
It prints, per workload and seed, "identical", or the largest event-time,
event-position and final-position deviations and the other values that
differ.  perfbench records only the names of failed checks, so it also runs
``fronttrack run benchmark.ini`` in each checkout and lists the manifest's
check records whose measured value or pass flag differ, each as its name,
the parent's value and the change's value.  It compares that run's
artifacts too, ``events.csv`` and each ``profile_*.csv`` byte for byte and
``manifest.json`` without ``wall_time_s`` by top-level key, and prints
"identical" or the files and manifest keys that differ.  Last, it runs one
traced repetition per workload at the default seed in each checkout
(``Session.rep("trace")``, the repetition of ``--trace 1``) and compares
every layer metric whose unit in ``BENCHMARK.json`` is ``count`` or
``iters/call``, printing "identical" or each name that differs with the
parent's and the change's values.  The exit status
is 1 when the event ids (each event's consumed and produced fronts) differ
anywhere, 2 when a repetition fails or a run writes no manifest, and 0
otherwise.  It reads ``perfbench/`` and changes nothing there: a
repetition's scratch files go to a temporary directory in its checkout, and
the records and the runs' outputs to a system temporary directory, both
removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# one repetition in the checkout that is the working directory: "run" records
# its observation in the file out, "trace" writes its layer metrics there
_REP = """
import json, shutil, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
from run import ROOT, SCRATCH_PREFIX, Session
workload, seed, out, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
tmp = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=ROOT))
try:
    session = Session(workload, seed, False, None, tmp)
    result = session.rep("run", record=out) if mode == "run" else session.rep("trace")
finally:
    shutil.rmtree(tmp, ignore_errors=True)
if result is not None and mode == "trace":
    Path(out).write_text(json.dumps(result["layers"]))
sys.exit(0 if result is not None else 1)
"""
# the units of the layer metrics that count, and so must not move in a change
# that leaves the outputs identical
COUNT_UNITS = ("count", "iters/call")


def compare(parent, change):
    """Compare two recorded observations (dicts with a "solves" list).

    Returns a dict: ``identical``; ``same_ids``, when both have the same
    solves with the same consumed and produced fronts in every event; the
    largest ``event_time``, ``event_position`` and ``final_position``
    deviations over the events and fronts that both have; and ``other``, the
    names of the other values that differ.
    """
    dev = {"event_time": 0.0, "event_position": 0.0, "final_position": 0.0}
    other = sorted(k for k in parent.keys() | change.keys()
                   if k != "solves" and parent.get(k) != change.get(k))
    a, b = parent["solves"], change["solves"]
    same_ids = len(a) == len(b)
    for x, y in zip(a, b):
        same_ids &= (x["label"] == y["label"]
                     and [e[2:4] for e in x["events"]] == [e[2:4] for e in y["events"]])
        for e, f in zip(x["events"], y["events"]):
            dev["event_time"] = max(dev["event_time"], abs(e[0] - f[0]))
            dev["event_position"] = max(dev["event_position"], abs(e[1] - f[1]))
        for p, q in zip(x["final_positions"] or [], y["final_positions"] or []):
            dev["final_position"] = max(dev["final_position"], abs(p - q))
        other += [f"{x['label']}.{k}" for k in sorted(x.keys() | y.keys())
                  if k not in ("label", "events", "final_positions") and x.get(k) != y.get(k)]
        if [e[4:] for e in x["events"]] != [e[4:] for e in y["events"]]:
            other.append(f"{x['label']}.tv")
        if (x["final_positions"] is None) != (y["final_positions"] is None):
            other.append(f"{x['label']}.final_positions")
    return {"identical": parent == change, "same_ids": same_ids, **dev, "other": other}


def describe(result):
    """One line for a comparison's result."""
    if result["identical"]:
        return "identical"
    line = ("event ids differ; " if not result["same_ids"] else "") + (
        f"largest deviation: event time {result['event_time']:.1e}, "
        f"event position {result['event_position']:.1e}, "
        f"final position {result['final_position']:.1e}")
    return line + (f"; other values differ: {', '.join(result['other'])}"
                   if result["other"] else "")


def compare_checks(parent, change):
    """The check records (manifest dicts) whose measured value or pass flag
    differ, as (name, parent value, change value) in the parent's order; a
    value is (measured, passed), or None where that side has no such record."""
    a, b = ({r["name"]: (r["measured"], r["passed"]) for r in side}
            for side in (parent, change))
    return [(name, a.get(name), b.get(name)) for name in {**a, **b}
            if a.get(name) != b.get(name)]


def describe_checks(diffs):
    """One line for the check records that differ."""
    def value(v):
        return "absent" if v is None else repr(v[0]) + ("" if v[1] else " (failed)")
    if not diffs:
        return "identical"
    return "differ: " + ", ".join(f"{name} {value(p)} -> {value(c)}" for name, p, c in diffs)


def compare_artifacts(parent_dir, change_dir):
    """The artifacts of two runs' output directories that differ: each of
    ``events.csv`` and ``profile_*.csv`` whose bytes differ or that one side
    lacks, then ``manifest.json:<key>`` for each top-level manifest key,
    ``wall_time_s`` aside, whose value differs or that one side lacks."""
    def contents(path):
        return path.read_bytes() if path.exists() else None

    dirs = Path(parent_dir), Path(change_dir)
    names = sorted({"events.csv"} | {p.name for d in dirs for p in d.glob("profile_*.csv")})
    files = [name for name in names if contents(dirs[0] / name) != contents(dirs[1] / name)]
    a, b = (json.loads((d / "manifest.json").read_text()) for d in dirs)
    return files + [f"manifest.json:{k}" for k in sorted(a.keys() | b.keys())
                    if k != "wall_time_s" and (k in a, a.get(k)) != (k in b, b.get(k))]


def describe_artifacts(diffs):
    """One line for the artifacts that differ."""
    return "differ: " + ", ".join(diffs) if diffs else "identical"


def compare_counts(parent, change, units):
    """The layer metrics (dicts name -> value) whose unit in ``units`` (name
    -> unit) is one of COUNT_UNITS and whose values differ, as (name, parent
    value, change value) in name order; None where that side lacks it."""
    return [(name, parent.get(name), change.get(name))
            for name in sorted(parent.keys() | change.keys())
            if units.get(name) in COUNT_UNITS and parent.get(name) != change.get(name)]


def describe_counts(diffs):
    """One line for the counted layer metrics that differ."""
    if not diffs:
        return "identical"
    return "differ: " + ", ".join(f"{name} {p!r} -> {c!r}" for name, p, c in diffs)


def record(checkout, workload, seed, out, mode="run"):
    """One repetition in the checkout: with mode "run" its recorded
    observation, with mode "trace" its layer metrics; None when it fails."""
    proc = subprocess.run([sys.executable, "-c", _REP, workload, str(seed), str(out), mode],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{checkout}: {workload} seed {seed} {mode} failed: "
              + " | ".join(proc.stderr.strip().splitlines()[-3:]), file=sys.stderr)
        return None
    return json.loads(Path(out).read_text())


def run_benchmark(checkout, out):
    """The manifest of ``fronttrack run benchmark.ini`` in the checkout, with
    its outputs in out; None when the run writes no manifest."""
    src = str(Path(checkout).resolve() / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "fronttrack", "run", "benchmark.ini",
                           "--out", str(out)], cwd=checkout, env=env,
                          capture_output=True, text=True)
    manifest = Path(out) / "manifest.json"
    if proc.returncode not in (0, 1) or not manifest.exists():  # 1: a check failed
        print(f"{checkout}: fronttrack run benchmark.ini failed: "
              + " | ".join(proc.stderr.strip().splitlines()[-3:]), file=sys.stderr)
        return None
    return json.loads(manifest.read_text())


def workload_inputs(checkout):
    """The workload names and default seed of the checkout's perfbench, and
    the unit of each of its layer metrics."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(checkout) / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return inputs.WORKLOADS, inputs.DEFAULT_SEED, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    args = parser.parse_args(argv)

    workloads, default_seed, units = workload_inputs(args.change)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            for seed in (default_seed, 7):
                obs = [record(checkout, workload, seed, Path(tmp) / f"{side}.json")
                       for side, checkout in (("parent", args.parent), ("change", args.change))]
                if None in obs:
                    status = 2
                    continue
                result = compare(*obs)
                if not result["same_ids"]:
                    status = max(status, 1)
                print(f"{workload} seed {seed}: {describe(result)}")
        outs = [Path(tmp) / f"{side}_run" for side in ("parent", "change")]
        manifests = [run_benchmark(checkout, out)
                     for checkout, out in zip((args.parent, args.change), outs)]
        if None in manifests:
            status = 2
        else:
            checks = [m["checks"]["checks"] for m in manifests]
            print(f"benchmark.ini checks: {describe_checks(compare_checks(*checks))}")
            print(f"benchmark.ini artifacts: {describe_artifacts(compare_artifacts(*outs))}")
        for workload in workloads:
            layers = [record(checkout, workload, default_seed, Path(tmp) / f"{side}_layers.json",
                             "trace")
                      for side, checkout in (("parent", args.parent), ("change", args.change))]
            if None in layers:
                status = 2
                continue
            print(f"{workload} --trace 1 counts: "
                  f"{describe_counts(compare_counts(*layers, units))}")
    return status


if __name__ == "__main__":
    sys.exit(main())
