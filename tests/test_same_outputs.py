"""The comparison of tools/same_outputs.py, on synthetic observations."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_outputs.py")
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _obs():
    # two solves as the worker records them: [t, x, consumed, produced, tv_before, tv_after]
    return {"solves": [
        {"label": "d0.005", "n0": 3, "max_up": 1, "final_positions": [-0.5, 0.25],
         "events": [[0.125, -0.25, [0, 1], 3, 1.5, 1.0], [0.5, 0.0, [3, 2], None, 1.0, 0.5]]},
        {"label": "cli", "n0": 2, "max_up": 0.0, "final_positions": None,
         "events": [[0.75, 1.0, [0, 1], 2, 1.0, 0.5]]},
    ], "sample_sums": [1.0, 2.0]}


def test_equal_observations_are_identical():
    result = same_outputs.compare(_obs(), _obs())
    assert result["identical"] and result["same_ids"] and result["other"] == []
    assert (result["event_time"], result["event_position"], result["final_position"]) == (0, 0, 0)
    assert same_outputs.describe(result) == "identical"


def test_moved_positions_give_the_largest_deviations():
    change = _obs()
    change["solves"][0]["events"][1][0] += 2.0 ** -40
    change["solves"][1]["events"][0][1] -= 2.0 ** -38
    change["solves"][0]["final_positions"][0] += 2.0 ** -36
    result = same_outputs.compare(_obs(), change)
    assert not result["identical"] and result["same_ids"] and result["other"] == []
    assert result["event_time"] == 2.0 ** -40
    assert result["event_position"] == 2.0 ** -38
    assert result["final_position"] == 2.0 ** -36
    assert same_outputs.describe(result) == ("largest deviation: event time 9.1e-13, "
                                             "event position 3.6e-12, final position 1.5e-11")


def test_differing_event_ids_are_reported():
    produced, consumed, fewer = _obs(), _obs(), _obs()
    produced["solves"][0]["events"][1][3] = 4
    consumed["solves"][1]["events"][0][2] = [1, 0]
    fewer["solves"][0]["events"].pop()
    for change in (produced, consumed, fewer):
        result = same_outputs.compare(_obs(), change)
        assert not result["same_ids"]
        assert same_outputs.describe(result).startswith("event ids differ; ")
    assert not same_outputs.compare(_obs(), {"solves": _obs()["solves"][:1]})["same_ids"]


def test_other_differing_values_are_named():
    change = _obs()
    change["sample_sums"][1] = 2.5
    change["solves"][0]["max_up"] = 2
    change["solves"][1]["events"][0][5] = 0.25
    result = same_outputs.compare(_obs(), change)
    assert result["same_ids"] and not result["identical"]
    assert result["other"] == ["sample_sums", "d0.005.max_up", "cli.tv"]
    assert same_outputs.describe(result).endswith(
        "; other values differ: sample_sums, d0.005.max_up, cli.tv")


def _checks():
    # check records as a run's manifest.json holds them
    return [{"name": "tvd.events", "measured": 0.0, "bound": 0.0, "passed": True,
             "params": {"events": 64}},
            {"name": "entropy.battery", "measured": 0.0125, "bound": 0.0, "passed": True,
             "params": {"pairs": 20}},
            {"name": "lipschitz_l1", "measured": -0.5, "bound": 1e-08, "passed": True,
             "params": {"pairs": 20}}]


def test_equal_check_records_are_identical():
    assert same_outputs.compare_checks(_checks(), _checks()) == []
    assert same_outputs.describe_checks([]) == "identical"


def test_moved_values_and_pass_flags_are_listed_with_both_sides():
    change = _checks()
    change[1]["measured"] = 0.0375
    change[2].update(measured=2e-08, passed=False)
    change[0]["params"]["events"] = 63  # a parameter alone is not listed
    diffs = same_outputs.compare_checks(_checks(), change)
    assert diffs == [("entropy.battery", (0.0125, True), (0.0375, True)),
                     ("lipschitz_l1", (-0.5, True), (2e-08, False))]
    assert same_outputs.describe_checks(diffs) == (
        "differ: entropy.battery 0.0125 -> 0.0375, lipschitz_l1 -0.5 -> 2e-08 (failed)")


def test_a_check_record_on_one_side_only_is_listed():
    fewer, more = _checks()[:2], _checks() + [
        {"name": "fv_crossval", "measured": None, "bound": 0.1, "passed": False, "params": {}}]
    assert same_outputs.compare_checks(_checks(), fewer) == \
        [("lipschitz_l1", (-0.5, True), None)]
    diffs = same_outputs.compare_checks(_checks(), more)
    assert diffs == [("fv_crossval", None, (None, False))]
    assert same_outputs.describe_checks(diffs) == "differ: fv_crossval absent -> None (failed)"


def _run_dir(path, profile=b"x,u,g\n0.0,0.5,0.125\n", checks_passed=True):
    # the artifacts of one run: two profiles, the event log and the manifest
    path.mkdir()
    (path / "profile_000.csv").write_bytes(b"x,u,g\n0.0,0.25,0.03125\n")
    (path / "profile_001.csv").write_bytes(profile)
    (path / "events.csv").write_bytes(b"t,x,consumed_ids,produced_id,tv_before,tv_after\n")
    manifest = {"event_count": 0, "checks": {"passed": checks_passed, "checks": []},
                "wall_time_s": 0.5}
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


def test_equal_artifacts_are_identical_whatever_the_wall_time(tmp_path):
    parent, change = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    manifest = json.loads((change / "manifest.json").read_text())
    (change / "manifest.json").write_text(json.dumps({**manifest, "wall_time_s": 9.0}))
    assert same_outputs.compare_artifacts(parent, change) == []
    assert same_outputs.describe_artifacts([]) == "identical"


def test_differing_files_and_manifest_keys_are_named(tmp_path):
    parent = _run_dir(tmp_path / "a")
    change = _run_dir(tmp_path / "b", profile=b"x,u,g\n0.0,0.5,0.12500000000000003\n",
                      checks_passed=False)
    (change / "events.csv").unlink()
    (change / "profile_002.csv").write_bytes(b"x,u,g\n")
    manifest = json.loads((change / "manifest.json").read_text())
    (change / "manifest.json").write_text(json.dumps({**manifest, "error": None}))
    diffs = same_outputs.compare_artifacts(parent, change)
    assert diffs == ["events.csv", "profile_001.csv", "profile_002.csv",
                     "manifest.json:checks", "manifest.json:error"]
    assert same_outputs.describe_artifacts(diffs) == (
        "differ: events.csv, profile_001.csv, profile_002.csv, "
        "manifest.json:checks, manifest.json:error")


_UNITS = {"stationary.solve_level_calls": "count", "stationary.newton_iters_per_call": "iters/call",
          "tracker.speed_evals": "count", "stationary.solve_level_self_s": "s",
          "tracker.speed_evals_per_event": "evals/event"}


def _layers():
    # a traced repetition's layer metrics, as perfbench/tracing.py summarizes them
    return {"stationary.solve_level_calls": 1500, "stationary.newton_iters_per_call": 2.25,
            "tracker.speed_evals": 718, "stationary.solve_level_self_s": 0.031,
            "tracker.speed_evals_per_event": 7.5}


def test_counts_compare_only_the_counted_layer_metrics():
    change = _layers()
    change["stationary.solve_level_self_s"] = 0.029  # a time: not compared
    change["tracker.speed_evals_per_event"] = 8.0    # neither a count nor iters/call
    assert same_outputs.compare_counts(_layers(), change, _UNITS) == []
    assert same_outputs.describe_counts([]) == "identical"


def test_differing_counts_are_named_with_both_values():
    change = _layers()
    change["stationary.newton_iters_per_call"] = 2.5
    change["tracker.speed_evals"] = 720
    del change["stationary.solve_level_calls"]
    diffs = same_outputs.compare_counts(_layers(), change, _UNITS)
    assert diffs == [("stationary.newton_iters_per_call", 2.25, 2.5),
                     ("stationary.solve_level_calls", 1500, None),
                     ("tracker.speed_evals", 718, 720)]
    assert same_outputs.describe_counts(diffs) == (
        "differ: stationary.newton_iters_per_call 2.25 -> 2.5, "
        "stationary.solve_level_calls 1500 -> None, tracker.speed_evals 718 -> 720")
