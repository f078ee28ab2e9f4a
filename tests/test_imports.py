"""What a run loads: each footprint is read in a fresh interpreter.

A solve needs the flux, inversion, profile, contact and tracker modules only; the
check modules and the DSL parser are imported on first access, and np.unique
(which imports all of numpy.ma on its first call) is not used.  A run's checks draw their random
numbers from the standard library's ``random``, so no run loads numpy.random.
"""

import ast
import json
import os
import subprocess
import sys

import fronttrack

from test_cli import BENCHMARK_INI, GOOD_CONFIG

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# set(fronttrack.__all__) before the check modules became lazy, the
# contact-location submodule, and the typed inversion failure of a solve
PUBLIC = {
    "AdmissibilityError", "ApproxFlux", "AssumptionReport", "CheckResult",
    "DegenerateStatesError", "Event", "FVGrid", "Flux", "FrontField", "InvalidFluxParams",
    "InversionError", "LoopLimitError", "OrderingLostError", "ProfileInversionError", "QuadSpec",
    "SingleFrontSolution", "SpeedEnvelope", "TOL_EVENT", "TOL_INV", "TOL_POS",
    "TestFunction", "TrackedSolution", "Tracker", "TrackerError", "ValidationReport",
    "WindowExitError", "approx_kruzkov_residual", "audit_assumptions", "certify",
    "characteristic_check", "characteristic_fan", "contact", "default_envelope",
    "domain_of_dependence_check", "empty_field", "entropy_battery", "entropy_tol", "expr",
    "flux_convergence_check", "fluxes", "fv_reference", "g_of", "initial_fronts",
    "inversion_gap_bound", "kruzkov_residual", "l1_distance", "l1_g_distance",
    "l1_u_fields", "make_builtin_flux", "make_initial", "profile_slope", "profiles",
    "quantize_initial", "rh_speed", "riemann", "sample_g", "sample_u", "smooth_bump",
    "smooth_bump_prime", "solve_level", "speed_envelope", "stationary", "tracker", "tv_g",
    "validation",
}


def _loaded_after(code, *args):
    """The modules of interest in sys.modules after running code in a fresh
    interpreter: numpy.ma, numpy.random, scipy and the fronttrack submodules."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
             " or m in ('numpy.ma', 'numpy.random')"
             " or m.startswith(('numpy.ma.', 'numpy.random.', 'fronttrack.'))))")
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_solve_loads_no_check_module_no_jet_and_no_numpy_ma():
    loaded = _loaded_after(
        "import numpy as np\n"
        "import fronttrack as ft\n"
        "flux = ft.make_builtin_flux('modulated_burgers', base=1.0, amp=0.5)\n"
        "u0 = ft.make_initial('bump', amp=0.8, center=0.0, width=1.0)\n"
        "field0 = ft.quantize_initial(flux, u0, 0.02, (-3.0, 3.0), 300)\n"
        "tracker = ft.Tracker(flux, 0.02, (-4.0, 4.0))\n"
        "final, log = tracker.advance(field0, 1.0)\n"
        "assert log and final.n_fronts\n"
        "u = ft.TrackedSolution(tracker, field0).sample_u(np.linspace(-3, 3, 50), 0.5)\n"
        "assert np.all(np.isfinite(u))\n")
    assert loaded == ["fronttrack.contact", "fronttrack.fluxes", "fronttrack.profiles",
                      "fronttrack.stationary", "fronttrack.tracker"]


def test_cli_run_with_every_check_loads_no_numpy_ma(tmp_path):
    from fronttrack.validation import CHECKS

    config = tmp_path / "run.ini"
    config.write_text(GOOD_CONFIG.replace("names = tvd, entropy",
                                          "names = " + ", ".join(CHECKS)))
    loaded = _loaded_after(
        "import sys\n"
        "from fronttrack import cli\n"
        # fv_crossval fails at this coarse delta (status 1); 2 would be a config error
        "assert cli.main(['--out', sys.argv[1], 'run', sys.argv[2]]) in (0, 1)\n",
        str(tmp_path / "out"), str(config))
    assert "fronttrack.validation" in loaded
    assert "numpy.ma" not in loaded
    assert "numpy.random" not in loaded
    assert (tmp_path / "out" / "manifest.json").exists()


def test_benchmark_with_every_check_runs_and_passes_without_scipy(tmp_path):
    # scipy is a test-only dependency: with its import made to fail, a run of
    # benchmark.ini with all seven checks still exits 0
    from fronttrack.validation import CHECKS

    text = open(BENCHMARK_INI).read()
    listed = "names = tvd, entropy, lipschitz_l1, characteristics, inversion_bounds\n"
    assert text.count(listed) == 1
    config = tmp_path / "run.ini"
    config.write_text(text.replace(listed, "names = " + ", ".join(CHECKS) + "\n"))
    out = tmp_path / "out"
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "try:\n"
            "    import scipy\n"
            "    sys.exit('scipy imported')\n"
            "except ImportError:\n"
            "    pass\n"
            "from fronttrack import cli\n"
            "sys.exit(cli.main(['--out', sys.argv[1], 'run', sys.argv[2]]))\n")
    done = subprocess.run([sys.executable, "-c", code, str(out), str(config)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    records = manifest["checks"]["checks"]
    assert set(CHECKS) <= {r["name"].split(".")[0] for r in records}
    assert all(r["passed"] for r in records) and manifest["checks"]["passed"]


def _cli_run_loads(tmp_path, config):
    return _loaded_after(
        "import sys\n"
        "from fronttrack import cli\n"
        "assert cli.main(['--out', sys.argv[1], 'run', sys.argv[2]]) == 0\n",
        str(tmp_path / "out"), str(config))


def test_benchmark_run_loads_no_parser(tmp_path):
    loaded = _cli_run_loads(tmp_path, BENCHMARK_INI)
    assert "fronttrack.validation" in loaded
    assert "fronttrack.expr" not in loaded and "fronttrack.jet" not in loaded


def test_a_custom_expr_run_loads_the_parser(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(GOOD_CONFIG.replace("family = modulated_burgers\nbase = 1.0\namp = 0.5",
                                          "family = custom_expr\nexpr = (1+0.5*sin(x))*u^2/2"))
    loaded = _cli_run_loads(tmp_path, config)
    assert "fronttrack.expr" in loaded and "fronttrack.jet" in loaded


def test_the_parser_raises_the_flux_modules_domain_error():
    import fronttrack.expr
    import fronttrack.fluxes
    assert fronttrack.expr.DomainError is fronttrack.fluxes.DomainError


def test_the_parser_is_imported_on_first_access():
    loaded = _loaded_after(
        "import sys\n"
        "import fronttrack\n"
        "assert 'fronttrack.expr' not in sys.modules\n"
        "assert fronttrack.expr.parse('u^2/2') is not None\n")
    assert "fronttrack.expr" in loaded


def test_public_names_are_unchanged_and_resolve():
    assert set(fronttrack.__all__) == PUBLIC
    for name in fronttrack.__all__:
        getattr(fronttrack, name)
    assert fronttrack.TestFunction is fronttrack.validation.TestFunction
    assert fronttrack.ApproxFlux is fronttrack.riemann.ApproxFlux
    namespace = {}
    exec("from fronttrack import *", namespace)
    assert PUBLIC <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(fronttrack, "no_such_name")
