"""Tests of the benchmark itself, on shrunken inputs.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from inputs import DEFAULT_SEED, make_inputs, cli_config_text  # noqa: E402
from run import PER_LAYER_UNITS, Session  # noqa: E402

TIMED_UNITS = ("s", "us")


def test_default_seed_reproduces_benchmark_ini():
    assert cli_config_text(DEFAULT_SEED) == (ROOT / "benchmark.ini").read_text()


def test_seed_determines_inputs():
    for workload in ("cli_bump", "sweep_bump", "dsl_fan"):
        assert make_inputs(workload, 7) == make_inputs(workload, 7)
        assert make_inputs(workload, 7) != make_inputs(workload, 8)


def test_traced_counts_repeat_exactly(tmp_path):
    for workload in ("cli_bump", "dsl_fan"):
        session = Session(workload, 11, True, None, tmp_path)
        first, second = session.rep("trace"), session.rep("trace")
        assert first is not None and second is not None, session.failures
        counts = [{k: v for k, v in r["layers"].items()
                   if PER_LAYER_UNITS[k] not in TIMED_UNITS} for r in (first, second)]
        assert counts[0] == counts[1]
        assert counts[0]["stationary.solve_level_calls"] > 0
    assert counts[0]["expr.evaluate_calls"] > 0


def test_untraced_times_are_probe_scaled(tmp_path):
    session = Session("dsl_fan", 5, True, None, tmp_path)
    result = session.rep("run")
    assert result is not None, session.failures
    probe = result["probe"]
    assert probe["samples"] >= 1 and probe["scale"] > 0
    for name, seconds in result["wall"].items():
        assert 0 < seconds and result["phases"][name] == pytest.approx(seconds * probe["scale"])
    wall = result["wall"]
    assert wall["setup_s"] + wall["solve_s"] + wall["sample_s"] == pytest.approx(wall["run_s"])


def test_trace_run_writes_spans(tmp_path):
    result = run.run_workload("sweep_bump", 11, 1, True, tmp_path, spans=tmp_path, small=True)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["expr.evaluate_calls"]["value"] == 0
    rows = (tmp_path / "sweep_bump.spans.csv").read_text().splitlines()
    assert rows[0] == "index,name,start_s,end_s,parent"
    spans = [row.split(",") for row in rows[1:]]
    advances = sum(1 for s in spans if s[1] == "tracker.advance")
    assert advances == metrics["tracker.advance_calls"]["value"]
    for index, name, start, end, parent in spans:
        assert float(start) <= float(end) and int(parent) < int(index)


def _tracing_frames(fn):
    """Code objects of tracing.py executed while fn runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == tracing.__file__:
            seen.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("workload", ["cli_bump", "sweep_bump", "dsl_fan"])
def test_untraced_run_sees_unpatched_attributes(workload, tmp_path):
    import worker

    before = [(owner, attr, obj) for owner, attr, obj in tracing.traced_targets()]
    job = {"workload": workload, "mode": "run", "inputs": make_inputs(workload, 3, True),
           "tmp": str(tmp_path)}
    if workload == "cli_bump":
        job["config"] = str(tmp_path / "c.ini")
        Path(job["config"]).write_text(job["inputs"]["config_text"])
    assert not _tracing_frames(lambda: worker.WORKLOADS[workload](job, None))

    shutil.rmtree(tmp_path / "out", ignore_errors=True)
    tracer = tracing.Tracer()
    job["mode"] = "trace"
    assert "wrapper" in _tracing_frames(lambda: worker.WORKLOADS[workload](job, tracer))
    after = tracing.traced_targets()
    assert len(after) == len(before)
    for (o1, a1, x1), (o2, a2, x2) in zip(before, after):
        assert o1 is o2 and a1 == a2 and x1 is x2


def test_perturbed_reference_counts_as_failed(tmp_path, monkeypatch, capsys):
    record = tmp_path / "obs.json"
    session = Session("sweep_bump", DEFAULT_SEED, True, None, tmp_path)
    assert session.rep("run", record=str(record)) is not None
    obs = json.loads(record.read_text())
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"sweep_bump": obs}))
    obs["solves"][1]["events"][0][1] += 1e-6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sweep_bump": obs}))

    monkeypatch.setattr(run, "REFERENCE", good)
    result = run.run_workload("sweep_bump", DEFAULT_SEED, 1, False, tmp_path, small=True)
    assert result["correct"] and result["failed"] == 0

    monkeypatch.setattr(run, "REFERENCE", bad)
    capsys.readouterr()
    result = run.run_workload("sweep_bump", DEFAULT_SEED, 1, False, tmp_path, small=True)
    out, err = capsys.readouterr()
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert f"({result['failed']}/{result['attempted']})" in out  # the fail_rate line
    assert "position off the reference" in err


def test_gate_invariants():
    solve = {"label": "s", "n0": 3, "max_up": 1, "final_positions": [0.0],
             "events": [[0.1, 0.0, [0, 1], 3, 2.0, 1.0]]}
    assert gate.invariants({"solves": [solve]}) is None
    assert "TV increased" in gate.invariants(
        {"solves": [dict(solve, events=[[0.1, 0.0, [0, 1], 3, 1.0, 2.0]])]})
    assert "exceed" in gate.invariants({"solves": [dict(solve, n0=1)]})
    assert "upward" in gate.invariants({"solves": [dict(solve, max_up=2)]})
    ok, why, dev = gate.verdict({"solves": [solve]}, {"solves": [solve]})
    assert ok and dev == 0.0
    moved = dict(solve, events=[[0.1, 2e-9, [0, 1], 3, 2.0, 1.0]])
    ok, why, dev = gate.verdict({"solves": [moved]}, {"solves": [solve]})
    assert not ok and dev == pytest.approx(2e-9)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_bump",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
