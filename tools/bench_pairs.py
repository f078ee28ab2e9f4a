"""Paired benchmark runs of a parent checkout against a change checkout.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent ../parent --change . --workload cli_bump \\
        --claim peak_rss_mb --pairs 10 --seconds 10 --out BENCH_25.json
    python3 tools/bench_pairs.py --parent ../parent --change . --workload cli_bump \\
        --claim peak_rss_mb --pairs 3 --seconds 10 --seed 7 --out BENCH_25.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds N`` once in
each checkout, and the side that goes first alternates (the parent in the
first pair).  A run's metrics are the end-to-end figures of the last line of
its standard output, with the figures that line leaves out (``check_s``,
``sample_s``) read from its ``==`` header line.  The output file keeps every
pair, each side's median and quartiles of every metric, the change's win
count, and for the claimed metric, if any, the verdict of the paired rule: the
change is better in at least nine tenths of the pairs (ties count for neither),
and the medians differ, in the change's favour, by more than the parent's
interquartile range.  Each end-to-end metric's summary also carries a
``worse`` flag, the same rule with the sides swapped: the parent is better in
at least nine tenths of the pairs, and the medians differ in the parent's
favour by more than the parent's interquartile range.  The last line printed
lists the metrics so flagged.  An existing output file keeps its other runs
and gains this one under the key ``"<workload> seed <seed>"``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WINS_OF_TEN = 9  # the change must win at least nine tenths of the pairs


def quartiles(values):
    """(q1, median, q3) of the values, by the inclusive method."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def side_stats(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(pairs, name, better):
    """Each side's statistics of metric ``name`` over the pairs in which both
    sides report it, and the change's wins and the ties; ``better`` is
    ``"lower"`` or ``"higher"``."""
    both = [(p["parent"][name], p["change"][name]) for p in pairs
            if name in p["parent"] and name in p["change"]]
    if not both:
        return None
    sign = 1.0 if better == "lower" else -1.0
    return {"better": better,
            "parent": side_stats([a for a, _ in both]),
            "change": side_stats([b for _, b in both]),
            "wins": sum(sign * (a - b) > 0 for a, b in both),
            "ties": sum(a == b for a, b in both),
            "pairs": len(both)}


def verdict(summary, side="change"):
    """The paired rule on one metric's summary: ``side`` (the change, or with
    "parent" the rule mirrored) is better in at least nine tenths of the
    pairs, and the medians differ in its favour by more than the parent's
    interquartile range."""
    sign = 1.0 if summary["better"] == "lower" else -1.0
    gap = sign * (summary["parent"]["median"] - summary["change"]["median"])
    wins = summary["wins"]
    if side == "parent":
        gap, wins = -gap, summary["pairs"] - summary["wins"] - summary["ties"]
    return 10 * wins >= WINS_OF_TEN * summary["pairs"] and gap > summary["parent"]["iqr"]


def flag_worse(summaries, end_to_end):
    """Set each end-to-end metric's ``worse`` flag (the paired rule won by the
    parent); returns the names flagged."""
    for name in end_to_end:
        if name in summaries:
            summaries[name]["worse"] = verdict(summaries[name], "parent")
    return [name for name in end_to_end if summaries.get(name, {}).get("worse")]


def run_pairs(n, run):
    """n pairs of ``run(side)`` calls, alternating which side goes first."""
    pairs = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(side)
        pairs.append(pair)
        print(f"pair {i + 1}/{n}: " + json.dumps(pair), file=sys.stderr)
    return pairs


def parse_run(stdout):
    """The metrics of one perfbench/run.py output, plus its correct, attempted
    and failed counts."""
    lines = stdout.strip().splitlines()
    final = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in final["metrics"].items()}
    for line in lines:
        if line.startswith("== "):
            extra = json.loads(line[line.index("{"):])
            metrics.update({k: v for k, v in extra.items() if isinstance(v, (int, float))})
    metrics.update({k: final[k] for k in ("correct", "attempted", "failed")})
    return metrics


def perfbench_run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds)] + ([] if seed is None else ["--seed", str(seed)])
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except (ValueError, IndexError, KeyError):
        return {"correct": False, "exit": proc.returncode,
                "stderr": proc.stderr.strip().splitlines()[-3:]}


def directions(checkout):
    """(metric name -> "lower" or "higher", the end-to-end metrics' names), from
    the checkout's BENCHMARK.json."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return ({m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]},
            [m["name"] for m in spec["end_to_end"]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--claim", default=None, help="the metric the change claims")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: perfbench's own)")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    pairs = run_pairs(args.pairs, lambda side: perfbench_run(
        checkouts[side], args.workload, args.seed, args.seconds))
    better, end_to_end = directions(args.change)
    summaries = {name: s for name in sorted(better)
                 if (s := summarize(pairs, name, better[name])) is not None}
    worse = flag_worse(summaries, end_to_end)
    claim = summaries.get(args.claim)
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "claim": args.claim,
           "claim_met": None if claim is None else verdict(claim),
           "all_correct": all(p[side].get("correct") for p in pairs
                              for side in ("parent", "change")),
           "summary": summaries, "pairs": pairs}

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("host", {"python": platform.python_version(), "nproc": os.cpu_count(),
                            "machine": platform.machine()})
    doc.setdefault("runs", {})[
        f"{args.workload} seed {'default' if args.seed is None else args.seed}"] = run
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"claim": args.claim, "claim_met": run["claim_met"],
                      **({"summary": claim} if claim else {}), "worse": worse}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
