import csv
import json
import os

import numpy as np
import pytest

from fronttrack import cli, validation
from fronttrack.cli import (load_config, run, main, ConfigError, emit_events,
                            emit_profile, read_profile)
from fronttrack.fluxes import make_builtin_flux
from fronttrack.tracker import Event, Tracker, WindowExitError, initial_fronts

GOOD_CONFIG = """
[flux]
family = modulated_burgers
base = 1.0
amp = 0.5

[initial]
profile = bump
amp = 0.6
width = 1.0

[run]
delta = 0.05
window = -3, 3
cells = 120
t_end = 0.4
output_times = 0.2, 0.4
seed = 777
resolution = 200

[checks]
names = tvd, entropy

[tolerances]
entropy_pairs = 6
entropy_quad = 128
"""


BENCHMARK_INI = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark.ini")


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    assert cfg.flux_family == "modulated_burgers"
    assert cfg.flux_params == {"base": 1.0, "amp": 0.5}
    assert cfg.u0_name == "bump"
    assert cfg.delta == 0.05
    assert cfg.window == (-3.0, 3.0)
    assert cfg.output_times == [0.2, 0.4]
    assert cfg.checks == ["tvd", "entropy"]
    assert cfg.tolerances["entropy_pairs"] == 6


def test_load_config_missing_field_names_section(tmp_path):
    broken = GOOD_CONFIG.replace("delta = 0.05", "")
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, broken))
    assert info.value.section == "run"
    assert info.value.option == "delta"


def test_load_config_bad_value(tmp_path):
    broken = GOOD_CONFIG.replace("t_end = 0.4", "t_end = soon")
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, broken))
    assert info.value.option == "t_end"


def test_load_config_rejects_unknown_check(tmp_path):
    broken = GOOD_CONFIG.replace("names = tvd, entropy", "names = tvd, vibes")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, broken))


def test_check_registry_order_and_identity():
    # a check's position sets the order in which a run runs and reports the
    # checks, and perfbench/tracing.py wraps the entries of the runner's table
    # in place
    assert list(validation.CHECKS) == ["tvd", "entropy", "lipschitz_l1", "characteristics",
                                       "flux_convergence", "inversion_bounds", "fv_crossval"]
    assert cli._CHECK_IMPL is validation.CHECKS


def test_load_config_rejects_unsorted_output_times(tmp_path):
    broken = GOOD_CONFIG.replace("output_times = 0.2, 0.4", "output_times = 0.4, 0.2")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, broken))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def test_emit_events_header_only(tmp_path):
    path = str(tmp_path / "events.csv")
    emit_events([], path)
    assert open(path).read() == "t,x,consumed_ids,produced_id,tv_before,tv_after\n"


def test_emit_events_rows(tmp_path):
    log = [Event(time=1.0, position=0.5, consumed=(0, 1), produced=2,
                 tv_before=2.0, tv_after=2.0),
           Event(time=1.5, position=0.75, consumed=(2, 3), produced=None,
                 tv_before=2.0, tv_after=0.0)]
    path = str(tmp_path / "events.csv")
    emit_events(log, path)
    lines = open(path).read().splitlines()
    assert lines[1] == "1.0,0.5,0;1,2,2.0,2.0"
    assert lines[2] == "1.5,0.75,2;3,,2.0,0.0"  # annihilation: empty produced_id


def test_emit_profile_round_trip_bit_exact(tmp_path):
    flux = make_builtin_flux("homogeneous_burgers")
    field = initial_fronts([-0.7, 0.3], [0, 3, 0], 0.1)
    path = str(tmp_path / "profile.csv")
    emit_profile(flux, field, (-2, 2), 64, path)
    xs, us, gs = read_profile(path)
    from fronttrack.tracker import sample_u, sample_g
    want_x = np.linspace(-2, 2, 64)
    assert np.array_equal(xs, want_x)
    assert np.array_equal(us, sample_u(flux, field, want_x))
    assert np.array_equal(gs, sample_g(field, want_x))
    # two-level field: one interior up-and-down structure in the g column
    assert gs.min() == 0.0 and gs.max() == pytest.approx(0.3)


def test_emit_profile_empty_field_all_zero(tmp_path):
    flux = make_builtin_flux("homogeneous_burgers")
    from fronttrack.tracker import empty_field
    path = str(tmp_path / "profile.csv")
    emit_profile(flux, empty_field(0.1), (-1, 1), 16, path)
    _, us, gs = read_profile(path)
    assert np.all(us == 0.0) and np.all(gs == 0.0)


def _row_writer_profile(flux, field_, window, resolution, path):
    """The profile writer as one write per row: the reference for the bytes."""
    from fronttrack.tracker import sample_g, sample_u
    xs = np.linspace(window[0], window[1], int(resolution))
    with open(path, "w", newline="\n") as fh:
        fh.write("x,u,g\n")
        for x, u, g in zip(xs, sample_u(flux, field_, xs), sample_g(field_, xs)):
            fh.write(f"{repr(float(x))},{repr(float(u))},{repr(float(g))}\n")


def _row_writer_events(log, path):
    """The event writer as one write per row: the reference for the bytes."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,consumed_ids,produced_id,tv_before,tv_after\n")
        for e in log:
            consumed = ";".join(str(i) for i in e.consumed)
            produced = "" if e.produced is None else str(e.produced)
            fh.write(f"{repr(float(e.time))},{repr(float(e.position))},{consumed},{produced},"
                     f"{repr(float(e.tv_before))},{repr(float(e.tv_after))}\n")


def test_artifact_writers_write_the_row_writers_bytes(tmp_path):
    flux = make_builtin_flux("homogeneous_burgers")
    # the window ends at -0.0, where u and g are 0.0
    field = initial_fronts([-0.5, -0.3], [-3, 2, 0], 0.1)
    for window, resolution in (((-1.0, -0.0), 9), ((-1.0, 1.0), 2048), ((-1.0, 1.0), 1)):
        emit_profile(flux, field, window, resolution, tmp_path / "a.csv")
        _row_writer_profile(flux, field, window, resolution, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        if window[1] == 0.0:
            assert (tmp_path / "a.csv").read_text().endswith("\n-0.0,0.0,0.0\n")
    solved = Tracker(flux, 0.1, (-3, 3)).advance(initial_fronts([-0.5, 0.0], [4, 1, 0], 0.1),
                                                 2.0)[1]
    by_hand = [Event(time=np.float64(0.25), position=-0.0, consumed=(0, 1), produced=None,
                     tv_before=np.float64(0.1), tv_after=-0.0)]
    for log in ([], solved, by_hand):
        emit_events(log, tmp_path / "a.csv")
        _row_writer_events(log, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert solved


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_run_end_to_end(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    out = str(tmp_path / "out")
    manifest, status = run(cfg, out)
    assert status == 0
    assert manifest["checks"]["passed"]
    assert manifest["audit"]["passed"]
    assert manifest["event_count"] >= 0
    for name in ("manifest.json", "events.csv", "profile_000.csv", "profile_001.csv"):
        assert os.path.exists(os.path.join(out, name))
    reloaded = json.load(open(os.path.join(out, "manifest.json")))
    assert reloaded["config"]["seed"] == 777
    assert reloaded["audit"]["fuu_max"] > 0
    # tv_after column is non-increasing down the event log
    rows = open(os.path.join(out, "events.csv")).read().splitlines()[1:]
    tv_after = [float(r.split(",")[5]) for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(tv_after, tv_after[1:]))


@pytest.mark.parametrize("seed", [0, 7])
def test_benchmark_passes_every_check_at_other_seeds(tmp_path, seed):
    # tests/test_imports.py runs benchmark.ini at its own seed
    text = open(BENCHMARK_INI).read()
    assert text.count("seed = 20260810\n") == 1
    config = write_config(tmp_path, text.replace("seed = 20260810\n", f"seed = {seed}\n"))
    assert main(["--out", str(tmp_path / "out"), "run", config]) == 0
    manifest = json.load(open(tmp_path / "out" / "manifest.json"))
    assert manifest["config"]["seed"] == seed
    assert manifest["checks"]["passed"]
    assert all(c["passed"] for c in manifest["checks"]["checks"])


def test_run_deterministic_artifacts(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run(cfg, out_a)
    run(cfg, out_b)
    for name in ("events.csv", "profile_000.csv", "profile_001.csv"):
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b, name
    ma = json.load(open(os.path.join(out_a, "manifest.json")))
    mb = json.load(open(os.path.join(out_b, "manifest.json")))
    ma.pop("wall_time_s")
    mb.pop("wall_time_s")
    assert ma == mb


def test_run_aborts_on_audit_failure(tmp_path):
    # a convexity failure, a domain error (f_u holds 1/sqrt(u)), two
    # constant powers that differentiate cannot fold (0^-1, 1e200^3), and two
    # fluxes whose f_uu folds to a constant (-1, 0), and a flux the audit
    # cannot sample at all (sqrt(x) on x < 0), whose alpha stays nan
    for k, expr in enumerate(["u^3", "u^2/2 + sqrt(u)*u^3", "u^2/2 + 0^0",
                              "u^2/2 + 1e200^4*0", "-u^2/2", "sin(x)",
                              "sqrt(x)*u^2/2"]):
        bad = GOOD_CONFIG.replace(
            "family = modulated_burgers\nbase = 1.0\namp = 0.5",
            f"family = custom_expr\nexpr = {expr}")
        cfg = load_config(write_config(tmp_path, bad))
        out = tmp_path / f"out{k}"
        manifest, status = run(cfg, str(out))
        assert status == 2
        assert not manifest["audit"]["passed"]
        assert manifest["error"] == "audit failed; solve aborted"
        assert not os.path.exists(str(out / "events.csv"))
        # strict JSON: a non-finite number is written as null, not NaN
        written = json.loads((out / "manifest.json").read_text(),
                             parse_constant=_refuse_constant)
        assert written["error"] == manifest["error"]
    assert written["audit"]["alpha"] is None and written["audit"]["fuu_max"] is None


@pytest.mark.parametrize("expr", ["*".join(["u"] * 500), "u^2" + "/(1+x^2)" * 400],
                         ids=["product-of-500-factors", "quotient-by-400-factors"])
def test_main_deep_flux_builds_and_fails_its_audit(tmp_path, capsys, expr):
    # the product and quotient rules add a tree level per factor, but the jet
    # is straight-line code: the flux builds, and its f_uu is 0 on the audit
    # grid (u^498 at small u; u^2 / (1 + x^2)^400 underflows away from x = 0)
    bad = write_config(tmp_path, GOOD_CONFIG.replace(
        "modulated_burgers\nbase = 1.0\namp = 0.5", f"custom_expr\nexpr = {expr}"))
    out = tmp_path / "o"
    assert main(["run", bad, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{bad}: exit status 2\n"  # one line, no traceback
    assert os.listdir(out) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == "audit failed; solve aborted"
    assert manifest["audit"]["violations"][0][0] == "UC:f_uu>0"


def _refuse_constant(name):
    raise ValueError(f"manifest.json holds {name}, which is not JSON")


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, GOOD_CONFIG)
    assert main(["--out", str(tmp_path / "o1"), "run", good]) == 0
    broken = write_config(tmp_path, GOOD_CONFIG.replace("delta = 0.05", ""), "bad.ini")
    assert main(["--out", str(tmp_path / "o2"), "run", broken]) == 2
    assert main(["--out", str(tmp_path / "o3"), "sweep",
                 str(tmp_path / "nothing-*.ini")]) == 2


@pytest.mark.parametrize("before", [True, False])
def test_main_options_before_or_after_subcommand(tmp_path, capsys, before):
    good = write_config(tmp_path, GOOD_CONFIG)
    out = str(tmp_path / "o")
    opts = ["--out", out, "--verbose"]
    argv = opts + ["run", good] if before else ["run", good] + opts
    assert main(argv) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert "done: ok" in capsys.readouterr().out


def test_verbose_prints_phase_times_and_changes_no_artifact(tmp_path, capsys):
    good = write_config(tmp_path, GOOD_CONFIG)
    outs = [str(tmp_path / "quiet"), str(tmp_path / "verbose")]
    assert main(["--out", outs[0], "run", good]) == 0
    assert capsys.readouterr().out == ""
    assert main(["--out", outs[1], "--verbose", "run", good]) == 0
    lines = capsys.readouterr().out.splitlines()
    timed = [line for line in lines if line.endswith(" s")]
    assert [line.split(":")[0] for line in timed] == ["solve", "artifacts", "check tvd",
                                                      "check entropy"]
    assert all(float(line.split()[-2]) >= 0.0 for line in timed)
    for name in sorted(os.listdir(outs[0])):
        a, b = (open(os.path.join(out, name)).read() for out in outs)
        if name == "manifest.json":
            a, b = (json.loads(text) for text in (a, b))
            a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b
    assert sorted(os.listdir(outs[0])) == sorted(os.listdir(outs[1]))


@pytest.mark.parametrize("old, new, option", [
    ("family = modulated_burgers", "family = modulated_burger", "[flux] family"),
    ("cells = 120", "cells = 0", "[run] cells"),
    ("profile = bump", "profile = piecewise", "[initial] profile"),
    ("[tolerances]", "[run]", "malformed config file"),
    ("entropy_pairs = 6", "entropy_pairs = six", "[tolerances] entropy_pairs"),
    ("entropy_quad = 128", "entropy_quad = 128\nh_ode = -0.01", "[tolerances] h_ode"),
    ("entropy_quad = 128", "entropy_quad = 128\nh_ode = nan", "[tolerances] h_ode"),
    ("entropy_pairs = 6", "entropy_pair = 6", "[tolerances] entropy_pair"),
    ("entropy_quad = 128", "entropy_quad = 128\nlipschitz_pairs = 20",
     "[tolerances] lipschitz_pairs"),
    ("entropy_pairs = 6", "entropy_pairs = 2.5", "[tolerances] entropy_pairs"),
    ("entropy_pairs = 6", "entropy_pairs = 0", "[tolerances] entropy_pairs"),
    ("delta = 0.05", "delta = inf", "[run] delta"),
    ("delta = 0.05", "delta = 1e-300", "[run] delta"),  # levels past 2**53
    ("t_end = 0.4", "t_end = inf", "[run] t_end"),
    ("window = -3, 3", "window = -inf, 3", "[run] window"),
    ("profile = bump", "profile = piecewise\nvalues = 1, x", "[initial] values"),
    ("amp = 0.5", "amp = half", "[flux] amp: bad value 'half'"),
    ("amp = 0.6", "amp = inf", "[initial] profile"),
    ("amp = 0.5", "amp = nan", "[flux] family"),  # nan <= 0 is False
    ("profile = bump\namp = 0.6\nwidth = 1.0", "profile = piecewise\nvalues = 1, inf\nbreaks = 0",
     "[initial] profile"),
    ("profile = bump\namp = 0.6\nwidth = 1.0", "profile = expr\nexpr = sqrt(x)",
     "[initial] profile"),
    ("width = 1.0", "width = 1.0\ncentre = 1.5", "[initial] profile"),
    # 10^309 has no float, which the derivative's coefficient needs
    pytest.param("modulated_burgers\nbase = 1.0\namp = 0.5",
                 "custom_expr\nexpr = u^2/2 + 0*u^1" + "0" * 309,
                 "[flux] family", id="exponent-past-the-float-range"),
    # the audit passes on the data window, but sqrt(3.5 - x) has no value at
    # the right end of the working window, [-3.68, 3.68]
    pytest.param("modulated_burgers\nbase = 1.0\namp = 0.5",
                 "custom_expr\nexpr = (1 + 0.1*sqrt(3.5 - x))*u^2/2",
                 "[flux] family", id="undefined-on-the-working-window"),
])
def test_main_bad_config_exits_2(tmp_path, capsys, old, new, option):
    bad = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
    assert main(["run", bad, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert option in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback
    assert not os.path.exists(str(tmp_path / "o"))


def test_config_error_after_the_audit_leaves_no_output_directory(tmp_path, capsys):
    # benchmark.ini with a bad step: the audit passes, the tracker refuses h_ode
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "benchmark.ini")) as fh:
        text = fh.read()
    bad = write_config(tmp_path, text.replace("[tolerances]", "[tolerances]\nh_ode = -0.01"))
    out = tmp_path / "results"
    assert main(["--out", str(out), "run", bad]) == 2
    assert "[tolerances] h_ode" in capsys.readouterr().err
    assert not os.path.exists(str(out))


def _wide_sqrt_flux_config():
    """benchmark.ini on a flux whose sampled audit certifies too large an alpha
    (min f_uu = 1 at x = 0, which the grid misses), so the solve cannot bracket
    a level and raises a ProfileInversionError at its start."""
    with open(BENCHMARK_INI) as fh:
        text = fh.read()
    for old, new in (("family = modulated_burgers\nbase = 1.0\namp = 0.5",
                      "family = custom_expr\nexpr = sqrt(1 + 0.237*x^2)*u^2/2"),
                     ("window = -3, 3", "window = -54, 54")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def _assert_failure_record(out, kind, message, front_count):
    assert sorted(os.listdir(out)) == ["failure.txt", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["audit"]["passed"]
    error = manifest["error"]
    assert error["type"] == kind and error["message"].startswith(message)
    assert "\n" not in error["message"] and error["front_count"] == front_count
    dump = (out / "failure.txt").read_text()
    assert dump.startswith(f"t={error['time']!r}\npositions=array(") and "\nids=array(" in dump
    return manifest, dump


def test_a_failed_solve_writes_its_manifest_and_dump(tmp_path, capsys):
    config = write_config(tmp_path, _wide_sqrt_flux_config(), "wide.ini")
    out = tmp_path / "results"
    assert main(["--out", str(out), "run", config]) == 3
    assert capsys.readouterr().err == f"{config}: exit status 3\n"  # no traceback
    manifest, _ = _assert_failure_record(out, "ProfileInversionError", "cannot bracket level",
                                         73)
    assert manifest["error"]["time"] == 0.0


def test_a_sweep_goes_on_past_a_failed_solve(tmp_path):
    write_config(tmp_path, _wide_sqrt_flux_config(), "a_wide.ini")
    write_config(tmp_path, open(BENCHMARK_INI).read(), "b_benchmark.ini")
    out = tmp_path / "sweep"
    assert main(["--out", str(out), "sweep", str(tmp_path / "*.ini")]) == 3
    _assert_failure_record(out / "a_wide", "ProfileInversionError", "cannot bracket level", 73)
    manifest = json.loads((out / "b_benchmark" / "manifest.json").read_text())
    assert "error" not in manifest and manifest["checks"]["passed"]


def test_a_window_exit_in_the_solve_exits_3(tmp_path, monkeypatch):
    # the first check of the window after a step raises, whatever the flux
    raised = []

    def leave(self, st):
        raised.append(WindowExitError(float(st.y[-1]), st))
        raise raised[-1]

    monkeypatch.setattr(Tracker, "_check_window", leave)
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    manifest, status = run(cfg, str(tmp_path / "out"))
    assert status == 3
    (err,) = raised
    _, dump = _assert_failure_record(tmp_path / "out", "WindowExitError",
                                     "front left the working window at x=", len(err.positions))
    assert manifest["error"] == {"type": "WindowExitError", "message": str(err).split("\n")[0],
                                 "time": err.time, "front_count": len(err.positions)}
    assert err.time > 0.0 and dump == err.dump + "\n"


LONG_SUM = " + ".join(["u^2"] * 1500)


@pytest.mark.parametrize("old, new, option", [
    ("family = modulated_burgers\nbase = 1.0\namp = 0.5",
     f"family = custom_expr\nexpr = {LONG_SUM}", "[flux] family"),
    ("profile = bump\namp = 0.6\nwidth = 1.0", f"profile = expr\nexpr = {LONG_SUM}",
     "[initial] profile"),
], ids=["flux", "initial"])
def test_main_long_flat_expression_exits_2(tmp_path, capsys, old, new, option):
    bad = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
    assert main(["run", bad, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert option in err and "ParseError" in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback


@pytest.mark.parametrize("depth, status", [(200, 0), (250, 2)])
def test_main_deeply_nested_initial_data(tmp_path, capsys, depth, status):
    # Python's parser takes 200 nested parentheses: sin(sin(...(x)...)) 200
    # deep is initial data, 250 deep a one-line config error
    nested = "sin(" * depth + "x" + ")" * depth
    cfg = write_config(tmp_path, GOOD_CONFIG.replace(
        "profile = bump\namp = 0.6\nwidth = 1.0", f"profile = expr\nexpr = {nested}"))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == status
    err = capsys.readouterr().err
    if status:
        assert "[initial] profile" in err and "ParseError" in err
        assert len(err.strip().splitlines()) == 1


def test_main_sweep(tmp_path):
    write_config(tmp_path, GOOD_CONFIG, "s1.ini")
    write_config(tmp_path, GOOD_CONFIG.replace("seed = 777", "seed = 778"), "s2.ini")
    out = str(tmp_path / "sw")
    assert main(["--out", out, "sweep", str(tmp_path / "s*.ini")]) == 0
    assert os.path.exists(os.path.join(out, "s1", "manifest.json"))
    assert os.path.exists(os.path.join(out, "s2", "manifest.json"))


def test_main_sweep_refuses_configs_with_one_output_directory(tmp_path, capsys):
    # a/run.ini and b/run.ini would both write to out/run
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write_config(tmp_path / sub, GOOD_CONFIG)
    out = tmp_path / "sw"
    assert main(["--out", str(out), "sweep", str(tmp_path / "*" / "run.ini")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert str(tmp_path / "a" / "run.ini") in err[0] and str(tmp_path / "b" / "run.ini") in err[0]
    assert not out.exists()


def test_env_var_output_dir(tmp_path, monkeypatch):
    good = write_config(tmp_path, GOOD_CONFIG)
    target = str(tmp_path / "envout")
    monkeypatch.setenv("FRONTTRACK_OUT", target)
    assert main(["run", good]) == 0
    assert os.path.exists(os.path.join(target, "manifest.json"))


def test_checks_share_one_trajectory(tmp_path, monkeypatch):
    # entropy and lipschitz_l1 read their snapshots off the recorded output
    # solve, so the output solve is all that is integrated
    integrated = []
    advance = Tracker.advance

    def counting_advance(self, field_, t_target, **kwargs):
        integrated.append(t_target - field_.time)
        return advance(self, field_, t_target, **kwargs)

    monkeypatch.setattr(Tracker, "advance", counting_advance)
    t_end, quad = 1.0, 64
    cfg_text = (GOOD_CONFIG
                .replace("delta = 0.05", "delta = 0.02")
                .replace("cells = 120", "cells = 300")
                .replace("t_end = 0.4", f"t_end = {t_end}")
                .replace("output_times = 0.2, 0.4", "output_times = 0.5, 1.0")
                .replace("names = tvd, entropy", "names = tvd, entropy, lipschitz_l1")
                .replace("entropy_pairs = 6", "entropy_pairs = 3")
                .replace("entropy_quad = 128", f"entropy_quad = {quad}"))
    manifest, status = run(load_config(write_config(tmp_path, cfg_text)),
                           str(tmp_path / "out"))
    assert status == 0
    names = [c["name"] for c in manifest["checks"]["checks"]]
    assert "entropy.battery" in names and "lipschitz_l1" in names
    assert len(integrated) == 2 and sum(integrated) == t_end


def test_run_burgers_step_shock_lands_at_one(tmp_path):
    # compactly supported step: the tracked shock sits at x = 1.0 at t = 2
    cfg_text = """
[flux]
family = homogeneous_burgers

[initial]
profile = piecewise
values = 0, 1, 0
breaks = -1.5, 0

[run]
delta = 0.1
window = -2.5, 3.5
cells = 600
t_end = 2.0
seed = 1

[checks]
names = tvd
"""
    cfg = load_config(write_config(tmp_path, cfg_text))
    out = str(tmp_path / "out")
    manifest, status = run(cfg, out)
    assert status == 0
    assert manifest["event_count"] == 0
    xs, us, gs = read_profile(os.path.join(out, "profile_000.csv"))
    drop = xs[np.flatnonzero(np.diff(gs) < -0.25)[0] + 1]
    assert drop == pytest.approx(1.0, abs=(xs[1] - xs[0]) + 1e-9)


def test_run_dsl_flux_and_dsl_initial_data(tmp_path):
    # custom_expr flux gets its convexity constant from the audit; the
    # tracker then runs entirely through the expression trees
    cfg_text = """
[flux]
family = custom_expr
expr = (1 + 0.3*cos(x))*u^2/2 + 0.05*u^4

[initial]
profile = expr
expr = 0.4*sin(2*x)*exp(-x^2)

[run]
delta = 0.02
window = -3, 3
cells = 200
t_end = 0.5
seed = 9

[checks]
names = tvd, lipschitz_l1
"""
    cfg = load_config(write_config(tmp_path, cfg_text))
    manifest, status = run(cfg, str(tmp_path / "out"))
    assert status == 0
    assert manifest["audit"]["passed"]
    assert 0.6 < manifest["audit"]["alpha"] <= 0.7 * 1.01  # sampled min * 0.99
    assert manifest["checks"]["passed"]


def test_run_dsl_flux_resolves_events(tmp_path):
    # a bump under a custom_expr flux: its fan fronts run into its shock, so
    # contacts are located and resolved through the expression trees
    cfg_text = """
[flux]
family = custom_expr
expr = (1 + 0.3*cos(x))*u^2/2 + 0.05*u^4

[initial]
profile = bump
amp = 0.6
width = 1.0

[run]
delta = 0.05
window = -3, 3
cells = 120
t_end = 1.0
seed = 9

[checks]
names = tvd
"""
    cfg = load_config(write_config(tmp_path, cfg_text))
    _, status = run(cfg, str(tmp_path / "out"))
    assert status == 0
    with open(tmp_path / "out" / "manifest.json") as fh:
        assert json.load(fh)["event_count"] > 0
    with open(tmp_path / "out" / "events.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    tv = [(float(r["tv_before"]), float(r["tv_after"])) for r in rows]
    for (_, after), (before, _) in zip(tv, tv[1:]):
        assert before <= after  # nothing between events raises TV
    assert all(after <= before for before, after in tv)


def test_run_zero_data_trivially_passes(tmp_path):
    cfg_text = GOOD_CONFIG.replace(
        "profile = bump\namp = 0.6\nwidth = 1.0", "profile = zero")
    cfg = load_config(write_config(tmp_path, cfg_text))
    manifest, status = run(cfg, str(tmp_path / "out"))
    assert status == 0
    assert manifest["initial_front_count"] == 0
    assert manifest["event_count"] == 0


def test_inversion_bounds_reads_the_flux_inside_the_window(tmp_path):
    # the flux is undefined at x < 0.5, so the check may not evaluate it at x = 0
    cfg_text = """
[flux]
family = custom_expr
expr = (1 + sqrt(x - 0.5)) * u^2/2

[initial]
profile = bump
amp = 0.5
center = 2.0
width = 0.5

[run]
delta = 0.05
window = 1, 3
cells = 200
t_end = 0.2
seed = 3

[checks]
names = tvd, inversion_bounds
"""
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", write_config(tmp_path, cfg_text)]) == 0
    with open(out / "manifest.json") as fh:
        checks = {c["name"]: c for c in json.load(fh)["checks"]["checks"]}
    assert checks["inversion_bounds"]["passed"]


def test_run_constant_expr_initial_data(tmp_path):
    cfg_text = GOOD_CONFIG.replace(
        "profile = bump\namp = 0.6\nwidth = 1.0", "profile = expr\nexpr = 0.3")
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", write_config(tmp_path, cfg_text)]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["checks"]["passed"]
    assert manifest["initial_front_count"] > 0
