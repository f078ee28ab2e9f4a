"""The statistics of tools/bench_pairs.py, on synthetic numbers."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, name="peak_rss_mb"):
    return [{"first": "parent", "parent": {name: a}, "change": {name: b}}
            for a, b in zip(parent, change)]


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_nine_wins_of_ten_and_a_gap_wider_than_the_parents_iqr_meet_the_rule():
    parent = [35.38, 35.40, 35.36, 35.39, 35.37, 35.41, 35.38, 35.35, 35.40, 35.39]
    change = [33.70, 33.72, 33.69, 33.71, 33.70, 33.68, 33.73, 35.50, 33.70, 33.71]
    s = bench_pairs.summarize(_pairs(parent, change), "peak_rss_mb", "lower")
    assert (s["wins"], s["ties"], s["pairs"]) == (9, 0, 10)
    assert s["parent"]["median"] == pytest.approx(35.385)
    assert s["parent"]["iqr"] == pytest.approx(35.3975 - 35.3725)
    assert s["change"]["median"] == pytest.approx(33.705)
    assert bench_pairs.verdict(s)


def test_eight_wins_of_ten_or_a_gap_inside_the_iqr_do_not():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    # 8 of 10 wins, each by a wide margin
    change = [p - 5.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    s = bench_pairs.summarize(_pairs(parent, change, "x"), "x", "lower")
    assert s["wins"] == 8 and not bench_pairs.verdict(s)
    # 10 of 10 wins by 0.5, inside the parent's IQR of 2
    s = bench_pairs.summarize(_pairs(parent, [p - 0.5 for p in parent], "x"), "x", "lower")
    assert s["wins"] == 10 and s["parent"]["iqr"] == 2.0
    assert not bench_pairs.verdict(s)


def test_ties_count_for_neither_and_higher_is_better_where_declared():
    parent = [1.0, 2.0, 3.0]
    s = bench_pairs.summarize(_pairs(parent, [1.0, 2.5, 3.5], "x"), "x", "higher")
    assert (s["wins"], s["ties"]) == (2, 1)
    assert not bench_pairs.verdict(s)  # 2 of 3 is under nine tenths
    higher = _pairs(parent, [5.0, 6.0, 7.0], "x")
    s = bench_pairs.summarize(higher, "x", "higher")
    assert s["wins"] == 3 and bench_pairs.verdict(s)
    assert not bench_pairs.verdict(bench_pairs.summarize(higher, "x", "lower"))


def test_a_metric_missing_on_a_side_leaves_the_pair_out():
    pairs = _pairs([1.0, 2.0], [0.5, 1.5]) + [{"first": "change", "parent": {},
                                               "change": {"peak_rss_mb": 0.1}}]
    s = bench_pairs.summarize(pairs, "peak_rss_mb", "lower")
    assert s["pairs"] == 2 and s["change"]["n"] == 2
    assert bench_pairs.summarize(pairs, "run_s", "lower") is None


def test_pairs_alternate_the_side_that_runs_first():
    calls = []
    pairs = bench_pairs.run_pairs(4, lambda side: calls.append(side) or {"n": len(calls)})
    assert [p["first"] for p in pairs] == ["parent", "change", "parent", "change"]
    assert calls == ["parent", "change", "change", "parent"] * 2


def test_parse_run_reads_the_last_line_and_the_header_figures():
    final = {"correct": True, "attempted": 12, "failed": 0,
             "metrics": {"run_s": {"value": 0.35, "unit": "s"},
                         "peak_rss_mb": {"value": 33.7, "unit": "MiB"}}}
    header = {"check_s": 0.103, "samples": {"run_s": [0.35]}, "probe_scale": [1.0]}
    out = (f"== cli_bump  seed=1  trace=0  seconds=5  {json.dumps(header)}\n"
           "env: {}\n  run_s  0.35 s\n" + json.dumps(final) + "\n")
    assert bench_pairs.parse_run(out) == {"run_s": 0.35, "peak_rss_mb": 33.7, "check_s": 0.103,
                                          "correct": True, "attempted": 12, "failed": 0}


def test_the_worse_flag_is_the_paired_rule_won_by_the_parent():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    cases = [
        ([p + 5.0 for p in parent], "lower", True),           # 10 of 10, gap 5 > IQR 2
        ([p + 5.0 for p in parent[:9]] + [1.0], "lower", True),  # 9 of 10 by a wide gap
        ([p + 5.0 for p in parent[:8]] + [1.0, 1.0], "lower", False),  # 8 of 10
        ([p + 0.5 for p in parent], "lower", False),          # 10 of 10 inside the IQR
        ([p - 5.0 for p in parent], "lower", False),          # the change better
        ([p - 5.0 for p in parent], "higher", True),          # lower is worse here
        (parent, "lower", False),                             # all ties
    ]
    for change, better, worse in cases:
        s = bench_pairs.summarize(_pairs(parent, change, "x"), "x", better)
        assert bench_pairs.verdict(s, "parent") is worse
        summaries = {"x": s, "y": dict(s)}
        # only end-to-end metrics carry the flag
        assert bench_pairs.flag_worse(summaries, ["x", "run_s"]) == (["x"] if worse else [])
        assert summaries["x"]["worse"] is worse and "worse" not in summaries["y"]


def test_the_last_line_lists_the_metrics_flagged_worse(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [{"name": n, "better": "lower"} for n in ("run_s", "solve_s")],
            "per_layer": [{"name": "stationary.solve_level_calls", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    figures = {"parent": {"run_s": 1.0, "solve_s": 2.0, "stationary.solve_level_calls": 5},
               "change": {"run_s": 1.5, "solve_s": 1.0, "stationary.solve_level_calls": 9}}
    monkeypatch.setattr(bench_pairs, "perfbench_run", lambda checkout, *args: {
        **figures["parent" if checkout == "parent" else "change"], "correct": True})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "parent", "--change", str(tmp_path), "--workload",
                             "w", "--claim", "solve_s", "--pairs", "10", "--out", str(out)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["worse"] == ["run_s"] and last["claim_met"] is True
    summary = json.loads(out.read_text())["runs"]["w seed default"]["summary"]
    assert summary["run_s"]["worse"] is True and summary["solve_s"]["worse"] is False
    assert "worse" not in summary["stationary.solve_level_calls"]


def test_the_worse_flag_needs_a_gap_beyond_the_metrics_bound(tmp_path, monkeypatch, capsys):
    # a layout-sized +0.01 MiB on a 32.3 MiB peak wins every pair and clears the
    # parent's IQR, but not a tenth of its median; +30% run_s clears a quarter
    spec = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                           {"name": "solve_s", "better": "lower"}],
            "per_layer": []}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    parent = [{"run_s": 0.40 + 0.001 * (i % 3), "peak_rss_mb": 32.30 + 0.001 * (i % 2),
               "solve_s": 0.30 + 0.001 * (i % 3)} for i in range(10)]
    calls = {"parent": 0, "change": 0}

    def run(checkout, *args):
        side = "parent" if checkout == "parent" else "change"
        p = parent[calls[side]]
        calls[side] += 1
        if side == "parent":
            return {**p, "correct": True}
        return {"run_s": 1.3 * p["run_s"], "peak_rss_mb": p["peak_rss_mb"] + 0.01,
                "solve_s": p["solve_s"] + 0.01, "correct": True}

    monkeypatch.setattr(bench_pairs, "perfbench_run", run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "parent", "--change", str(tmp_path), "--workload",
                             "w", "--pairs", "10", "--out", str(out)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    summary = json.loads(out.read_text())["runs"]["w seed default"]["summary"]
    rss = summary["peak_rss_mb"]
    # without its bound the rss shift meets the mirrored rule
    assert rss["wins"] == 0 and rss["pairs"] == 10
    assert rss["change"]["median"] - rss["parent"]["median"] > rss["parent"]["iqr"]
    assert bench_pairs.verdict({k: v for k, v in rss.items() if k != "bound"}, "parent")
    assert (rss["bound"], rss["worse"]) == (0.1, False)
    assert (summary["run_s"]["bound"], summary["run_s"]["worse"]) == (0.25, True)
    # a metric with no bound keeps the plain rule: +0.01 s clears an IQR of 0.0015 s
    assert "bound" not in summary["solve_s"] and summary["solve_s"]["worse"] is True
    assert last["worse"] == ["run_s", "solve_s"]

