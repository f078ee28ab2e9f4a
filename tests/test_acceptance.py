"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` for the explicit
criterion lines).  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

import fronttrack as ft
from fronttrack.riemann import ApproxFlux
from fronttrack.tracker import (Tracker, TrackedSolution, quantize_initial,
                                initial_fronts, rh_speed, sample_u, tv_g,
                                l1_g_distance)
from fronttrack.validation import (QuadSpec, entropy_battery, characteristic_check,
                                   SingleFrontSolution, fv_reference, l1_distance,
                                   flux_convergence_check, domain_of_dependence_check)

BURGERS = ft.make_builtin_flux("homogeneous_burgers")
MODULATED = ft.make_builtin_flux("modulated_burgers", base=1.0, amp=0.5)
MASTER_SEED = 20260810


def report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{tag}] {description} {detail}".rstrip())
    assert ok, f"criterion {num}: {description} {detail}"


def rng_for(idx):
    return np.random.Generator(np.random.Philox(
        key=np.array([MASTER_SEED, idx], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# 1. analytic shock
# ---------------------------------------------------------------------------

def test_criterion_01_analytic_shock():
    started = time.perf_counter()
    field = initial_fronts([0.0], [5, 0], 0.1)  # u0 = 1 for x < 0 else 0
    tracker = Tracker(BURGERS, 0.1, (-1.0, 5.0), h_ode=0.05)
    worst = 0.0
    events = 0
    current = field
    for t in (0.5, 1.0, 2.0, 3.0, 4.0):
        current, log = tracker.advance(current, t)
        events += len(log)
        worst = max(worst, abs(float(current.positions[0]) - 0.5 * t))
    elapsed = time.perf_counter() - started
    report(1, "analytic shock x(t) = t/2 within 1e-10, zero events, < 1 s",
           worst <= 1e-10 and events == 0 and elapsed < 1.0,
           f"(max |err| = {worst:.2e}, events = {events}, {elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 2. shock merge
# ---------------------------------------------------------------------------

def test_criterion_02_shock_merge():
    field = initial_fronts([-1.0, 0.0], [4, 1, 0], 0.5)  # u0 = 2, 1, 0
    tracker = Tracker(BURGERS, 0.5, (-6.0, 6.0), h_ode=0.01)
    assert tv_g(field) == 2.0
    final, log = tracker.advance(field, 2.0)
    e = log[0]
    merged_speed = float(rh_speed(BURGERS, float(final.positions[0]), 2.0, 0.0)[0])
    ok = (len(log) == 1
          and abs(e.time - 1.0) <= 1e-9
          and abs(e.position - 0.5) <= 1e-9
          and abs(merged_speed - 1.0) <= 1e-12
          and e.tv_before == 2.0 and e.tv_after == 2.0 and tv_g(final) == 2.0)
    report(2, "three-state merge at (1, 0.5) within 1e-9, speed 1 within 1e-12, "
              "TV constant 2.0", ok,
           f"(t = {e.time!r}, x = {e.position!r}, speed = {merged_speed!r})")


# ---------------------------------------------------------------------------
# 3. rarefaction delta-refinement
# ---------------------------------------------------------------------------

def test_criterion_03_rarefaction_convergence():
    started = time.perf_counter()
    u0 = ft.make_initial("step", left=0.0, right=1.0, pos=0.0)
    xs = np.linspace(-2.4, 2.4, 20001)
    exact = np.clip(xs, 0.0, 1.0)
    errors = []
    for delta in (0.1, 0.05, 0.025, 0.0125):
        field = quantize_initial(BURGERS, u0, delta, (-2.5, 2.5), 1000)
        tracker = Tracker(BURGERS, delta, (-4.5, 4.5), h_ode=0.01)
        final, _ = tracker.advance(field, 1.0)
        u = sample_u(BURGERS, final, xs)
        errors.append(float(np.sum(np.abs(u - exact)) * (xs[1] - xs[0])))
    elapsed = time.perf_counter() - started
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(r >= 1.5 for r in ratios) and elapsed < 10.0
    report(3, "rarefaction L1 error decreases with ratio >= 1.5 per halving, < 10 s",
           ok, f"(errors = {[f'{e:.4f}' for e in errors]}, ratios = "
               f"{[f'{r:.2f}' for r in ratios]}, {elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 4 + 5. randomized battery: TVD / admissibility / closure, then entropy
# ---------------------------------------------------------------------------

def _random_case(idx):
    rng = rng_for(1000 + idx)
    flux = ft.make_builtin_flux(
        "modulated_burgers", base=1.0,
        amp=float(rng.uniform(0.2, 0.6)),
        freq=float(rng.uniform(0.5, 1.5)),
        phase=float(rng.uniform(0.0, 2 * np.pi)))
    n_pieces = int(rng.integers(4, 9))
    breaks = np.sort(rng.uniform(-2.0, 2.0, size=n_pieces - 1))
    values = rng.uniform(0.5, 1.0, size=n_pieces) * rng.choice([-1.0, 1.0],
                                                               size=n_pieces)
    values[0] = 0.0
    values[-1] = 0.0
    u0 = lambda x: values[np.searchsorted(breaks, np.asarray(x), side="right")]
    delta = float(rng.uniform(0.03, 0.08))
    t_end = float(rng.uniform(0.3, 0.8))
    return flux, u0, delta, t_end, rng


@pytest.fixture(scope="module")
def randomized_runs():
    runs = []
    for idx in range(50):
        flux, u0, delta, t_end, rng = _random_case(idx)
        field0 = quantize_initial(flux, u0, delta, (-2.5, 2.5), 160)
        solution = TrackedSolution(Tracker(flux, delta, (-6.5, 6.5), h_ode=0.01), field0)
        final, log = solution.advance(t_end)
        runs.append(dict(flux=flux, delta=delta, t_end=t_end, rng=rng,
                         field0=field0, final=final, log=log, solution=solution))
    return runs


def test_criterion_04_tvd_admissibility_closure(randomized_runs):
    worst_pack = []
    for run in randomized_runs:
        field0, final, log = run["field0"], run["final"], run["log"]
        assert field0.n_fronts >= 2  # the data generator guarantees activity
        tv = field0.tv_z()
        for e in log:
            tvb = round(e.tv_before / field0.delta)
            tva = round(e.tv_after / field0.delta)
            assert tvb == tv, "TV changed between events"
            assert tva <= tvb, "TV increased at an event"
            tv = tva
        assert final.tv_z() == tv
        assert len(log) <= field0.n_fronts - 1
        if final.n_fronts:
            dz = np.diff(final.z)
            assert np.max(dz) <= 1, "upward jump above delta"
            assert np.all(dz != 0)
            assert np.all(np.diff(final.positions) > 0)
        # closure: g sampled off the solution lands on the delta-grid
        xs = np.linspace(-2.5, 2.5, 129)
        g = ft.g_of(run["flux"], xs, sample_u(run["flux"], final, xs))
        offgrid = float(np.max(np.abs(g / field0.delta
                                      - np.round(g / field0.delta))))
        assert offgrid <= 1e-9
        worst_pack.append((len(log), field0.n_fronts))
    total_events = sum(e for e, _ in worst_pack)
    report(4, "50 randomized runs: exact TVD, jumps <= delta, delta-grid closure, "
              "event budget", True,
           f"(total events = {total_events})")


def test_criterion_05_entropy_battery(randomized_runs):
    worst_margin = np.inf
    for run in randomized_runs:
        flux, delta, t_end = run["flux"], run["delta"], run["t_end"]
        sol = run["solution"]  # the recorded solve; criterion 9 re-integrates
        af = ApproxFlux(flux, delta)
        quad = QuadSpec(-2.5, 2.5, 0.0, t_end, nx=192, nt=192)
        xs = np.linspace(-2.5, 2.5, 513)
        tv_u = max(float(np.sum(np.abs(np.diff(
            sample_u(flux, sol.field_at(t), xs)))))
            for t in (0.0, t_end / 2, t_end))
        amp = flux.params["amp"]
        u_bound = math.sqrt(2.0 * 0.7 / flux.alpha) * 1.05
        speed = (1.0 + amp) * (u_bound + delta)
        records = entropy_battery(sol, af, quad, run["rng"], pairs=20,
                                  k_bound=1.2 * u_bound, tv_u=tv_u,
                                  speed_bound=speed)
        for r in records:
            worst_margin = min(worst_margin, r["residual"] + r["tol"])
        assert all(r["residual"] >= -r["tol"] for r in records)

    # planted anti-entropic control: an upward jump g: 0 -> 1.5 evolved as a
    # single front, with the battery box planted over its path; the violation
    # is O(1) while the tolerance shrinks under quadrature refinement, so the
    # rejection is structural at this resolution
    control = SingleFrontSolution(MODULATED, 0.0, 1.5, 0.0, 1.0)
    af = ApproxFlux(MODULATED, 0.1)
    quad = QuadSpec(-1.0, 2.0, 0.0, 1.0, nx=1536, nt=1536)
    u_b = math.sqrt(2.0 * 1.5 / MODULATED.alpha) * 1.02
    bad = entropy_battery(control, af, quad, rng_for(5), pairs=20,
                          k_bound=0.8 * u_b, tv_u=u_b, speed_bound=1.5 * u_b)
    rejected = any(r["residual"] < -10.0 * r["tol"] for r in bad)
    report(5, "entropy residuals >= -tol_quad on 50 runs x 20 pairs; "
              "anti-entropic control rejected", rejected,
           f"(worst honest margin = {worst_margin:+.2e}, control rejected = {rejected})")


# ---------------------------------------------------------------------------
# 6. characteristic conservation
# ---------------------------------------------------------------------------

def test_criterion_06_characteristic_conservation():
    drift = characteristic_check(MODULATED, 0.0, 1.0, 1.0, 10_000)
    # at 1e4 steps the drift sits at the rounding floor, so the 4th-order
    # ratio is measured in the truncation-dominated regime
    coarse = characteristic_check(MODULATED, 0.0, 1.0, 1.0, 100)
    fine = characteristic_check(MODULATED, 0.0, 1.0, 1.0, 200)
    ratio = coarse / fine
    ok = drift <= 1e-10 and 16.0 * 0.7 <= ratio <= 16.0 * 1.3
    report(6, "flux drift <= 1e-10 at 1e4 RK4 steps; halving ratio ~ 16 (+-30%)",
           ok, f"(drift = {drift:.2e}, ratio = {ratio:.2f})")


# ---------------------------------------------------------------------------
# 7. lemma bounds at the delta sweep
# ---------------------------------------------------------------------------

def test_criterion_07_lemma_bounds():
    deltas = (0.1, 0.05, 0.02, 0.01)
    rows = flux_convergence_check(MODULATED, deltas, ((-4.0, 4.0), (-1.5, 1.5)))
    flux_ok = all(r.ok for r in rows)
    slack = min(min(r.bound_f - r.sup_f_err, r.bound_fx - r.sup_fx_err)
                for r in rows)

    rng = rng_for(7)
    xs = np.linspace(-4.0, 4.0, 513)
    inv_ok = True
    for _ in range(100):
        g1, g2 = rng.uniform(-1.0, 1.0, size=2)
        u1 = ft.solve_level(MODULATED, xs, np.full_like(xs, g1))
        u2 = ft.solve_level(MODULATED, xs, np.full_like(xs, g2))
        gap = float(np.max(np.abs(u1 - u2)))
        bound = ft.inversion_gap_bound(g1, g2, MODULATED.alpha)
        inv_ok = inv_ok and gap <= bound + 10 * ft.TOL_INV
    report(7, "inversion bound and flux sup-error bounds hold at all swept deltas",
           flux_ok and inv_ok, f"(min bound slack = {slack:.3e})")


# ---------------------------------------------------------------------------
# 8. cross-validation against the finite-volume oracle
# ---------------------------------------------------------------------------

def test_criterion_08_fv_cross_validation():
    started = time.perf_counter()
    u0 = ft.make_initial("bump", amp=0.8, center=0.0, width=1.0)
    probe = np.linspace(-3, 3, 40001)
    u0_l1 = float(np.sum(np.abs(u0(probe))) * (probe[1] - probe[0]))
    dists = []
    for delta, ft_cells, fv_cells in ((0.002, 3000, 4000), (0.001, 6000, 8000)):
        field = quantize_initial(MODULATED, u0, delta, (-3, 3), ft_cells)
        tracker = Tracker(MODULATED, delta, (-6, 6), h_ode=0.01)
        final, _ = tracker.advance(field, 1.0)
        fv = fv_reference(MODULATED, u0, (-3, 3), fv_cells, 1.0)
        sampler = lambda x: sample_u(MODULATED, final, x)
        dists.append(l1_distance(sampler, fv.sampler(), (-3, 3), fv_cells))
    elapsed = time.perf_counter() - started
    ok = dists[0] <= 0.02 * u0_l1 and dists[1] < dists[0] and elapsed < 120.0
    report(8, "L1(front tracking, Godunov oracle) <= 0.02 ||u0||_1 and improves "
              "under refinement, < 2 min", ok,
           f"(distances = {[f'{d:.4f}' for d in dists]}, "
           f"bound = {0.02 * u0_l1:.4f}, {elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 9. L1 time-Lipschitz bound
# ---------------------------------------------------------------------------

def test_criterion_09_l1_time_lipschitz():
    u0 = ft.make_initial("bump", amp=0.8, center=0.0, width=1.0)
    delta = 0.01
    field0 = quantize_initial(MODULATED, u0, delta, (-3, 3), 600)
    tracker = Tracker(MODULATED, delta, (-6, 6), h_ode=0.01)
    sol = TrackedSolution(tracker, field0)
    tv0 = tv_g(field0)

    # ||u||_inf over the run: levels never leave the initial range, so the
    # extreme profiles over the window give the sup
    zmax = int(np.max(np.abs(field0.z)))
    xs = np.linspace(-6, 6, 4097)
    u_sup = float(np.max(np.abs(ft.solve_level(
        MODULATED, xs, np.full_like(xs, delta * zmax)))))
    envelope = ft.default_envelope(MODULATED, (-6, 6), u_sup + delta)
    L = envelope.lipschitz_L(u_sup)

    rng = rng_for(9)
    worst = -np.inf
    for _ in range(20):
        t = float(rng.uniform(0.0, 0.8))
        h = float(rng.uniform(1e-3, 0.2))
        d = l1_g_distance(sol.field_at(t), sol.field_at(t + h), -6.0, 6.0)
        worst = max(worst, d - L * tv0 * h)
    report(9, "int |g(t+h) - g(t)| <= L TV(G0) h + 1e-8 over 20 random (t, h)",
           worst <= 1e-8, f"(worst excess = {worst:+.3e}, L = {L:.3f})")


# ---------------------------------------------------------------------------
# 10. domain of dependence
# ---------------------------------------------------------------------------

def test_criterion_10_domain_of_dependence():
    u0 = ft.make_initial("bump", amp=0.5, center=0.0, width=1.0)
    bump_out = ft.make_initial("bump", amp=0.4, center=2.6, width=0.45)
    bump_in = ft.make_initial("bump", amp=0.4, center=0.5, width=0.45)
    kw = dict(delta=0.05, window=(-4.2, 4.2), cells=420, T=0.5, R=1.0)
    # L = lipschitz_L(0.5 sqrt(3)) = 1.3, so the cone ends at 1.65 and the
    # outside perturbation starts at 2.15
    outside = domain_of_dependence_check(
        MODULATED, u0, lambda x: u0(x) + bump_out(x), **kw)
    inside = domain_of_dependence_check(
        MODULATED, u0, lambda x: u0(x) + bump_in(x), **kw)
    ok = outside <= 1e-9 and inside > 1e-3
    report(10, "outside-cone perturbation changes u on [-R, R] by <= 1e-9 in L1 "
               "(inside-cone control is nonzero)", ok,
           f"(outside = {outside:.2e}, inside = {inside:.2e})")


# ---------------------------------------------------------------------------
# 11. determinism of artifacts
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    import json
    import os
    from fronttrack.cli import load_config, run

    config = tmp_path / "bench.ini"
    config.write_text("""
[flux]
family = modulated_burgers
base = 1.0
amp = 0.5

[initial]
profile = bump
amp = 0.8
width = 1.0

[run]
delta = 0.005
window = -3, 3
cells = 1200
t_end = 1.0
output_times = 0.5, 1.0
seed = 20260810

[checks]
names = tvd, entropy, lipschitz_l1

[tolerances]
entropy_pairs = 10
entropy_quad = 192
""")
    cfg = load_config(str(config))
    manifests = []
    blobs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        manifest, status = run(cfg, out)
        assert status == 0, "acceptance benchmark run must pass its checks"
        manifests.append(manifest)
        blob = {}
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                blob[name] = open(os.path.join(out, name), "rb").read()
        m = json.load(open(os.path.join(out, "manifest.json")))
        m.pop("wall_time_s")
        blob["manifest"] = json.dumps(m, sort_keys=True)
        blobs.append(blob)
    ok = blobs[0] == blobs[1]
    report(11, "repeated acceptance runs produce byte-identical artifacts",
           ok, f"(files compared = {len(blobs[0])})")
