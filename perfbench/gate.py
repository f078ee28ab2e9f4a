"""Correctness gate: a repetition's observed outputs against the pinned
reference (default seed) or against the paper's invariants (any other seed).

An observation holds one entry per solve, each with its event log as rows
``[t, x, consumed_ids, produced_id, tv_before, tv_after]``, its initial
front count ``n0``, its largest upward jump in levels ``max_up`` and, where
the workload can see them, its final front positions.
"""

from __future__ import annotations

import math

# collision-location tolerance of the acceptance suite
POS_TOL = 1e-9
# relative tolerance on the sums of sampled states (dsl_fan)
SAMPLE_TOL = 1e-7


def invariants(obs):
    """First violated invariant as a message, or None."""
    for solve in obs["solves"]:
        label = solve["label"]
        for e in solve["events"]:
            if e[5] > e[4]:
                return f"{label}: TV increased at t={e[0]!r}"
        if len(solve["events"]) > max(0, solve["n0"] - 1):
            return f"{label}: {len(solve['events'])} events exceed n0 - 1 = {solve['n0'] - 1}"
        if solve["max_up"] > 1:
            return f"{label}: upward jump of {solve['max_up']} levels"
    cli = obs.get("cli")
    if cli is not None:
        if cli["status"] != 0:
            return f"cli exit status {cli['status']}"
        if cli["failed_checks"]:
            return f"checks failed: {cli['failed_checks']}"
    sums = obs.get("sample_sums")
    if sums is not None and not all(math.isfinite(s) for s in sums):
        return "non-finite sampled state"
    return None


def against_reference(obs, ref):
    """(message or None, largest position deviation) for a pinned reference."""
    worst = 0.0
    if len(obs["solves"]) != len(ref["solves"]):
        return "solve count differs from the reference", math.inf
    for got, want in zip(obs["solves"], ref["solves"]):
        label = want["label"]
        if len(got["events"]) != len(want["events"]):
            return (f"{label}: {len(got['events'])} events, reference has "
                    f"{len(want['events'])}"), math.inf
        for k, (a, b) in enumerate(zip(got["events"], want["events"])):
            if list(a[2]) != list(b[2]) or a[3] != b[3]:
                return f"{label}: event {k} ids {a[2]}->{a[3]}, reference {b[2]}->{b[3]}", math.inf
            worst = max(worst, abs(a[0] - b[0]), abs(a[1] - b[1]))
        fa, fb = got.get("final_positions"), want.get("final_positions")
        if fb is not None:
            if fa is None or len(fa) != len(fb):
                return f"{label}: final front count differs", math.inf
            worst = max([worst] + [abs(x - y) for x, y in zip(fa, fb)])
    if worst > POS_TOL:
        return f"position off the reference by {worst:.3g} > {POS_TOL:g}", worst
    for key in ("final_front_count", "initial_front_count"):
        if key in ref.get("cli", {}) and obs["cli"][key] != ref["cli"][key]:
            return f"cli {key} {obs['cli'][key]} != {ref['cli'][key]}", worst
    want_sums = ref.get("sample_sums")
    if want_sums is not None:
        got_sums = obs.get("sample_sums") or []
        if len(got_sums) != len(want_sums) or any(
                abs(a - b) > SAMPLE_TOL * (1.0 + abs(b)) for a, b in zip(got_sums, want_sums)):
            return "sampled states differ from the reference", worst
    return None, worst


def verdict(obs, ref):
    """(ok, message, max_pos_dev); ``ref`` is None where no reference is pinned."""
    problem = invariants(obs)
    dev = None
    if problem is None and ref is not None:
        problem, dev = against_reference(obs, ref)
    return problem is None, problem or "", dev
