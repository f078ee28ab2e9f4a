import os
import random
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fronttrack import validation
from fronttrack.fluxes import make_builtin_flux
from fronttrack.riemann import ApproxFlux
from fronttrack.stationary import g_of, inversion_gap_bound, solve_level
from fronttrack.profiles import make_initial, smooth_bump_prime
from fronttrack.tracker import (Tracker, TrackedSolution, initial_fronts, quantize_initial,
                                sample_u)
from fronttrack.validation import (TestFunction, QuadSpec, SupportError,
                                   kruzkov_residual, approx_kruzkov_residual,
                                   entropy_battery, entropy_tol,
                                   characteristic_check, characteristic_fan,
                                   SingleFrontSolution, fv_reference,
                                   l1_distance, l1_u_fields,
                                   domain_of_dependence_check,
                                   flux_convergence_check, ValidationReport)

BURGERS = make_builtin_flux("homogeneous_burgers")
MODULATED = make_builtin_flux("modulated_burgers", base=1.0, amp=0.5)

QUAD = QuadSpec(-2.0, 2.0, 0.0, 1.0, nx=256, nt=256)
PHI = TestFunction(x_center=0.3, x_radius=1.0, t_center=0.5, t_radius=0.4)


def burgers_shock_solution():
    f0 = initial_fronts([0.0], [5, 0], 0.1)
    tr = Tracker(BURGERS, 0.1, (-3, 3))
    return TrackedSolution(tr, f0)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_test_function_is_a_bump():
    phi = PHI
    assert phi.phi(0.3, 0.5) == pytest.approx(1.0)
    assert phi.phi(1.31, 0.5) == 0.0
    assert phi.phi(0.3, 0.91) == 0.0
    xs = np.linspace(-2, 2, 101)
    assert np.all(phi.phi(xs, 0.4) >= 0.0)


def test_test_function_derivatives_match_fd():
    phi = PHI
    h = 1e-6
    for x, t in [(0.1, 0.4), (-0.4, 0.6), (0.9, 0.3)]:
        fd_x = (phi.phi(x + h, t) - phi.phi(x - h, t)) / (2 * h)
        fd_t = (phi.phi(x, t + h) - phi.phi(x, t - h)) / (2 * h)
        assert phi.phi_x(x, t) == pytest.approx(fd_x, rel=1e-6, abs=1e-9)
        assert phi.phi_t(x, t) == pytest.approx(fd_t, rel=1e-6, abs=1e-9)


def test_bump_prime_max_is_the_bits_of_its_grid_scan():
    s = np.linspace(-1.0, 1.0, 400001)
    assert validation.BUMP_PRIME_MAX == float(np.max(np.abs(smooth_bump_prime(s))))


def test_import_loads_no_scipy():
    # scipy is imported by SingleFrontSolution only, when an oracle is built,
    # and the expression jet by the first expression compiled
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import fronttrack, fronttrack.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'fronttrack.jet'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_support_escape_raises():
    with pytest.raises(SupportError):
        kruzkov_residual(burgers_shock_solution(), BURGERS, 0.1,
                         TestFunction(1.5, 1.0, 0.5, 0.3), QUAD)
    with pytest.raises(SupportError):
        kruzkov_residual(burgers_shock_solution(), BURGERS, 0.1,
                         TestFunction(0.0, 1.0, 0.9, 0.3), QUAD)


# ---------------------------------------------------------------------------
# Kruzkov residuals, exact flux
# ---------------------------------------------------------------------------

def test_residual_zero_on_stationary_solution():
    f0 = initial_fronts([], [2], 0.1)
    sol = TrackedSolution(Tracker(BURGERS, 0.1, (-3, 3)), f0)
    for k in (-0.5, 0.1, 0.63, 2.0):
        # classical solution: identity up to the smooth quadrature floor
        assert abs(kruzkov_residual(sol, BURGERS, k, PHI, QUAD)) < 1e-7
    # a test function touching t = 0 exercises the initial-data term
    phi0 = TestFunction(0.0, 1.2, 0.1, 0.3)
    assert abs(kruzkov_residual(sol, BURGERS, 0.63, phi0, QUAD)) < 1e-4


def test_residual_stationary_modulated_profile():
    f0 = initial_fronts([], [6], 0.1)  # g = 0.6, genuinely x-dependent profile
    sol = TrackedSolution(Tracker(MODULATED, 0.1, (-3, 3)), f0)
    for k in (-0.2, 0.4, 1.5):
        assert abs(kruzkov_residual(sol, MODULATED, k, PHI, QUAD)) < 1e-5


def test_residual_entropic_shock_nonnegative_and_matches_closed_form():
    sol = burgers_shock_solution()

    def closed_form(k):
        # production along the line x = t/2 for the (1, 0) Burgers shock
        ts = np.linspace(0.0, 1.0, 100001)
        sigma, ul, ur = 0.5, 1.0, 0.0
        eta = lambda u: abs(u - k)
        q = lambda u: np.sign(u - k) * (0.5 * u * u - 0.5 * k * k)
        e = sigma * (eta(ul) - eta(ur)) - (q(ul) - q(ur))
        vals = PHI.phi(sigma * ts, ts) * (-e)
        return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ts)))

    for k in (0.5, 0.25, 0.8):
        r = kruzkov_residual(sol, BURGERS, k, PHI, QUAD)
        assert r >= -1e-3
        assert r == pytest.approx(closed_form(k), abs=5e-5)


def test_residual_detects_anti_entropic_front():
    # upward jump evolved as a single front: a weak solution that fails entropy
    control = SingleFrontSolution(BURGERS, 0.0, 0.5, 0.0, 1.0)
    residuals = [kruzkov_residual(control, BURGERS, k, PHI, QUAD)
                 for k in (0.15, 0.25, 0.35, 0.45)]
    assert min(residuals) < -0.03


def test_residual_noise_floor_for_k_outside_range():
    sol = burgers_shock_solution()
    for k in (1.5, -0.7):
        assert abs(kruzkov_residual(sol, BURGERS, k, PHI, QUAD)) < 1e-4


# ---------------------------------------------------------------------------
# approximate-flux residuals
# ---------------------------------------------------------------------------

def test_approx_residual_nonnegative_for_fan_output():
    f0 = initial_fronts([0.0], [0, 5], 0.1)
    sol = TrackedSolution(Tracker(BURGERS, 0.1, (-3, 3)), f0)
    af = ApproxFlux(BURGERS, 0.1)
    for k in (0.05, 0.3, 0.62, 0.9):  # includes values between the grid levels
        r = approx_kruzkov_residual(sol, af, k, PHI, QUAD)
        tol = entropy_tol(QUAD, PHI, tv_u=1.0, speed_bound=1.2, src_sup=0.0)
        assert r >= -tol


def test_approx_residual_nonnegative_for_shock_output():
    sol = burgers_shock_solution()
    af = ApproxFlux(BURGERS, 0.1)
    for k in (0.05, 0.5, 0.97):
        r = approx_kruzkov_residual(sol, af, k, PHI, QUAD)
        tol = entropy_tol(QUAD, PHI, tv_u=1.0, speed_bound=1.2, src_sup=0.0)
        assert r >= -tol


def test_approx_residual_conservation_identity_above_range():
    sol = burgers_shock_solution()
    af = ApproxFlux(BURGERS, 0.1)
    tol = entropy_tol(QUAD, PHI, tv_u=1.0, speed_bound=1.2, src_sup=0.0)
    for k in (1.4, -1.2):
        assert abs(approx_kruzkov_residual(sol, af, k, PHI, QUAD)) <= tol


def test_entropy_battery_honest_run_and_control_rejection():
    f0 = initial_fronts([-0.8, 0.3], [0, 6, 0], 0.1)  # fan then shock
    tr = Tracker(MODULATED, 0.1, (-3.5, 3.5))
    sol = TrackedSolution(tr, f0)
    af = ApproxFlux(MODULATED, 0.1)
    rng = np.random.Generator(np.random.Philox(key=np.array([1234, 1],
                                                            dtype=np.uint64)))
    quad = QuadSpec(-2.5, 2.5, 0.0, 1.0, nx=256, nt=256)
    records = entropy_battery(sol, af, quad, rng, pairs=20, k_bound=1.1,
                              tv_u=2.2, speed_bound=1.7)
    assert len(records) == 20
    assert all(r["residual"] >= -r["tol"] for r in records)

    # planted control: big upward jump evolved as one non-entropic front;
    # rejection needs the sharper quadrature (the violation is O(1), the
    # noise tolerance shrinks like spacing^1.5)
    control = SingleFrontSolution(MODULATED, 0.0, 1.5, 0.0, 1.0)
    rng2 = np.random.Generator(np.random.Philox(key=np.array([1234, 2],
                                                             dtype=np.uint64)))
    quad_fine = QuadSpec(-2.5, 2.5, 0.0, 1.0, nx=512, nt=512)
    bad = entropy_battery(control, af, quad_fine, rng2, pairs=20, k_bound=2.1,
                          tv_u=2.5, speed_bound=2.2)
    assert any(r["residual"] < -10.0 * r["tol"] for r in bad)


def test_entropy_battery_reads_the_recorded_solve_bit_for_bit():
    # benchmark.ini's data, solve and battery: dense output moves the
    # snapshots by about 4e-12, and no quadrature node lies that close to a front
    delta = 0.005
    u0 = make_initial("bump", amp=0.8, center=0.0, width=1.0)
    f0 = quantize_initial(MODULATED, u0, delta, (-3, 3), 1200)
    tr = Tracker(MODULATED, delta, (-6, 6))
    recorded = TrackedSolution(tr, f0)
    for t in (0.5, 1.0):
        recorded.advance(t)
    af = ApproxFlux(MODULATED, delta)
    quad = QuadSpec(-3.0, 3.0, 0.0, 1.0, nx=256, nt=256)
    runs = []
    for sol in (recorded, TrackedSolution(tr, f0)):
        rng = np.random.Generator(np.random.Philox(key=np.array([20260810, 1],
                                                                dtype=np.uint64)))
        runs.append(entropy_battery(sol, af, quad, rng, pairs=20, k_bound=1.2,
                                    tv_u=2.0, speed_bound=1.7))
    assert [(r["residual"], r["tol"]) for r in runs[0]] == \
        [(r["residual"], r["tol"]) for r in runs[1]]


@pytest.mark.parametrize("pairs", [1, 5])
def test_entropy_battery_samples_the_solution_once(pairs):
    sol = burgers_shock_solution()
    af = ApproxFlux(BURGERS, 0.1)
    quad = QuadSpec(-2.0, 2.0, 0.0, 1.0, nx=64, nt=48)
    times = []

    def counting_sampler(x, t):
        times.append(t)
        return sol.sample_u(x, t)

    rng = np.random.Generator(np.random.Philox(key=np.array([99, pairs],
                                                            dtype=np.uint64)))
    records = entropy_battery(counting_sampler, af, quad, rng, pairs, k_bound=1.1,
                              tv_u=1.0, speed_bound=1.2)
    assert len(times) == quad.nt + 1
    assert len(records) == pairs
    for r in records:
        assert r["residual"] == approx_kruzkov_residual(sol, af, r["k"], r["phi"], quad)


def _row_loop_residual(solution, f, fx, k, phi, quad):
    """The residual as a loop over time rows, one f call and one test-function
    evaluation per row: the reference the grid expression must reproduce."""
    u_of = solution.sample_u if hasattr(solution, "sample_u") else solution
    xs = quad.x_mids()
    u_rows = [np.asarray(u_of(xs, t), dtype=float) for t in quad.t_mids()]
    f_rows = [f(xs, u) for u in u_rows]
    u0 = np.asarray(u_of(xs, quad.t_lo), dtype=float)
    k_row = np.full_like(xs, k)
    f_row_k = np.asarray(f(xs, k_row), dtype=float)
    fx_row_k = np.asarray(fx(xs, k_row), dtype=float)
    total = 0.0
    for t, u, f_u in zip(quad.t_mids(), u_rows, f_rows):
        sgn = np.sign(u - k)
        q = sgn * (f_u - f_row_k)
        total += float(np.sum(np.abs(u - k) * phi.phi_t(xs, t)
                              + q * phi.phi_x(xs, t)
                              - sgn * fx_row_k * phi.phi(xs, t)))
    total *= quad.dx * quad.dt
    total += float(np.sum(np.abs(u0 - k) * phi.phi(xs, quad.t_lo))) * quad.dx
    return total, fx_row_k


@pytest.mark.parametrize("solution", ["tracked", "recorded", "single_front"])
@pytest.mark.parametrize("approx", [False, True], ids=["exact_flux", "approx_flux"])
def test_grid_residual_equals_the_row_loop_bit_for_bit(solution, approx):
    # a TrackedSolution's 72 rows are sampled in four blocks of 16 and one of 8
    if solution in ("tracked", "recorded"):
        f0 = initial_fronts([-0.8, 0.3], [0, 6, 0], 0.1)  # fan then shock
        sol = TrackedSolution(Tracker(MODULATED, 0.1, (-3.5, 3.5)), f0)
        if solution == "recorded":
            sol.advance(1.0)
    else:
        sol = SingleFrontSolution(MODULATED, 0.0, 0.5, 0.0, 1.0)
    af = ApproxFlux(MODULATED, 0.1)
    f, fx = (af.eval, af.eval_dx) if approx else (MODULATED.f, MODULATED.fx)
    quad = QuadSpec(-2.5, 2.5, 0.0, 1.0, nx=96, nt=72)
    # the second test function touches t = 0; all eight pairs share one sampling
    pairs = [(k, phi) for k in (-0.3, 0.05, 0.62, 1.4)
             for phi in (PHI, TestFunction(0.0, 1.2, 0.1, 0.3))]
    for (k, phi), (total, fx_row) in zip(pairs, validation._residuals(sol, f, fx, quad, pairs)):
        ref_total, ref_fx_row = _row_loop_residual(sol, f, fx, k, phi, quad)
        assert total == ref_total
        assert np.array_equal(fx_row, ref_fx_row)


@pytest.mark.parametrize("nt", [16, 40])
def test_entropy_battery_call_budget(monkeypatch, nt):
    # the test function's bumps are evaluated once per pair, and f^delta(x, u)
    # once per inversion block of SAMPLE_BLOCK_ROWS rows plus once per pair for
    # the f(x, k) row: the row loop made 6 nt + 2 and nt + pairs calls
    bumps = []
    for name in ("smooth_bump", "smooth_bump_prime"):
        real = getattr(validation, name)
        monkeypatch.setattr(validation, name,
                            lambda s, real=real: bumps.append(1) or real(s))
    evals = []
    real_eval = ApproxFlux.eval
    monkeypatch.setattr(ApproxFlux, "eval",
                        lambda self, x, u: evals.append(1) or real_eval(self, x, u))
    blocks = []
    real_solve = validation.solve_level
    monkeypatch.setattr(validation, "solve_level",
                        lambda *a, **kw: blocks.append(1) or real_solve(*a, **kw))
    pairs = 3
    rng = np.random.Generator(np.random.Philox(key=np.array([7, nt], dtype=np.uint64)))
    records = entropy_battery(burgers_shock_solution(), ApproxFlux(BURGERS, 0.1),
                              QuadSpec(-2.0, 2.0, 0.0, 1.0, nx=32, nt=nt), rng, pairs,
                              k_bound=1.1, tv_u=1.0, speed_bound=1.2)
    assert len(records) == pairs
    assert len(bumps) <= 8 * pairs
    # the rows are inverted in blocks of SAMPLE_BLOCK_ROWS = 16: 1 and 3 calls
    n_blocks = -(-nt // validation.SAMPLE_BLOCK_ROWS)
    assert len(evals) == n_blocks + pairs
    assert len(blocks) == n_blocks


@pytest.mark.parametrize("solution", ["tracked", "callable"])
def test_blockwise_f_grid_equals_one_whole_grid_call(solution):
    # nt = 40: two blocks of 16 rows and a ragged one of 8; f^delta's own
    # delta differs from the solve's, so most samples need an inversion
    f0 = initial_fronts([-0.8, 0.3], [0, 6, 0], 0.1)  # fan then shock
    sol = TrackedSolution(Tracker(MODULATED, 0.1, (-3.5, 3.5)), f0)
    if solution == "callable":
        sol = sol.sample_u
    af = ApproxFlux(MODULATED, 0.07)
    quad = QuadSpec(-2.5, 2.5, 0.0, 1.0, nx=48, nt=40)
    blocks = []

    def f(x, u):  # records each block the accumulator samples
        out = af.eval(x, u)
        if np.ndim(u) == 2:
            blocks.append((u, out))
        return out

    validation._residuals(sol, f, af.eval_dx, quad, [(0.3, PHI)])
    assert [len(u) for u, _ in blocks] == [16, 16, 8]
    u, f_u = (np.concatenate(parts) for parts in zip(*blocks))
    assert u.shape == f_u.shape == (40, 48)
    assert not af._locate(quad.x_mids(), u)[1].all()
    assert np.array_equal(f_u, af.eval(quad.x_mids(), u))


def test_block_holds_the_test_function_and_zeros_lie_outside_it():
    quad = QuadSpec(-2.5, 2.5, 0.0, 1.0, nx=96, nt=72)
    xs, ts = quad.x_mids(), quad.t_mids()
    for phi in (PHI, TestFunction(0.0, 1.2, 0.1, 0.3)):
        rows, cols, (bx, dbx, bt, dbt), line = phi.block(xs, ts, quad.t_lo)
        terms = phi._terms(bx[cols], dbx[cols], bt[rows], dbt[rows])
        assert 0 < rows.stop - rows.start < quad.nt and 0 < cols.stop - cols.start < quad.nx
        for full, part in zip((phi.phi, phi.phi_x, phi.phi_t), terms):
            whole = full(xs, ts[:, None])
            assert np.array_equal(whole[rows, cols], part)
            outside = whole.copy()
            outside[rows, cols] = 0.0
            assert not outside.any()
        assert np.array_equal(line, phi.phi(xs, quad.t_lo))
        terms = phi._terms(*phi.block(xs, ts, quad.t_lo)[2])  # the whole grid
        assert np.array_equal(terms[0], phi.phi(xs, ts[:, None]))


@pytest.mark.parametrize("where", ["u", "f_u", "u0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_outside_the_support_is_not_dropped(where, bad):
    # phi is zero at the grid's corner, but 0 * nan is nan on the whole grid
    sol = burgers_shock_solution()
    quad = QuadSpec(-2.0, 2.0, 0.0, 1.0, nx=32, nt=16)
    corner_t = quad.t_lo if where == "u0" else quad.t_mids()[0]

    def sampler(x, t):  # the grid's corner sample, or u0's first, planted
        u = sol.sample_u(x, t).copy()
        if where != "f_u" and t == corner_t:
            u[0] = bad
        return u

    def f(x, u):
        out = np.array(BURGERS.f(x, u))
        if where == "f_u" and np.ndim(u) == 2:
            out.flat[0] = bad
        return out

    assert PHI.phi(quad.x_mids()[0], quad.t_mids()[0]) == 0.0
    with np.errstate(invalid="ignore"):
        [(total, _)] = validation._residuals(sampler, f, BURGERS.fx, quad, [(0.1, PHI)])
    assert not np.isfinite(total)


def _whole_grid_samples(solution, quad, f):
    """u and f(x, u) on the whole (nt, nx) quadrature grid, and u at t_lo."""
    u_of = solution.sample_u if hasattr(solution, "sample_u") else solution
    xs = quad.x_mids()
    u = np.array([u_of(xs, t) for t in quad.t_mids()], dtype=float)
    return u, np.asarray(f(xs, u), dtype=float), np.asarray(u_of(xs, quad.t_lo), dtype=float)


def _whole_grid_residual(samples, f, fx, k, phi, quad):
    """The residual from whole-grid samples, the reference the row-block
    accumulator must reproduce: the integrand on phi's support block,
    zero-padded to whole rows, or on the whole grid when any sample or
    either k row is not finite."""
    u, f_u, u0 = samples
    xs = quad.x_mids()
    k_row = np.full_like(xs, k)
    f_row_k = np.asarray(f(xs, k_row), dtype=float)
    fx_row_k = np.asarray(fx(xs, k_row), dtype=float)
    rows, cols, (bx, dbx, bt, dbt), p0 = phi.block(xs, quad.t_mids(), quad.t_lo)
    if not all(np.isfinite(a).all() for a in (u, f_u, f_row_k, fx_row_k)):
        rows = cols = slice(None)
    p, p_x, p_t = phi._terms(bx[cols], dbx[cols], bt[rows], dbt[rows])
    u_b = u[rows, cols]
    sgn = np.sign(u_b - k)
    grid = np.zeros((len(p), len(xs)))
    grid[:, cols] = (np.abs(u_b - k) * p_t + sgn * (f_u[rows, cols] - f_row_k[cols]) * p_x
                     - sgn * fx_row_k[cols] * p)
    row_sums = np.zeros(quad.nt)
    row_sums[rows] = np.sum(grid, axis=1)
    total = float(np.cumsum(row_sums)[-1]) * (quad.dx * quad.dt)
    return total + float(np.sum(np.abs(u0 - k) * p0)) * quad.dx


def _same_residual(a, b):
    """Equal, or both NaN: the sign of an infinity is compared by ==."""
    return a == b or (np.isnan(a) and np.isnan(b))


def _benchmark_solve():
    """benchmark.ini's flux, data and recorded solve, with its f^delta and grid."""
    delta = 0.005
    f0 = quantize_initial(MODULATED, make_initial("bump", amp=0.8, center=0.0, width=1.0),
                          delta, (-3, 3), 1200)
    sol = TrackedSolution(Tracker(MODULATED, delta, (-6, 6)), f0)
    for t in (0.5, 1.0):
        sol.advance(t)
    return sol, ApproxFlux(MODULATED, delta), QuadSpec(-3.0, 3.0, 0.0, 1.0, nx=256, nt=256)


def _run_rng(seed, name):
    """The random stream of the named check in a run with this seed."""
    return validation.RunContext(SimpleNamespace(seed=seed), *[None] * 8).rng(name)


def _benchmark_battery(sol, af, quad):
    # the run's entropy stream for benchmark.ini's seed
    return entropy_battery(sol, af, quad, _run_rng(20260810, "entropy"), pairs=20,
                           k_bound=1.2, tv_u=2.0, speed_bound=1.7)


def test_entropy_battery_equals_the_whole_grid_residuals_on_the_benchmark():
    sol, af, quad = _benchmark_solve()
    records = _benchmark_battery(sol, af, quad)
    samples = _whole_grid_samples(sol, quad, af.eval)
    assert len(records) == 20
    for r in records:
        assert r["residual"] == _whole_grid_residual(samples, af.eval, af.eval_dx,
                                                     r["k"], r["phi"], quad)


def test_entropy_battery_peak_memory_on_the_benchmark():
    # no (nt, nx) grid is held: the measured peak was 0.92 MiB with 16-row
    # blocks, 2.46 MiB when u and f^delta(x, u) were sampled whole
    import tracemalloc
    sol, af, quad = _benchmark_solve()
    _benchmark_battery(sol, af, quad)  # first-call caches out of the measurement
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _benchmark_battery(sol, af, quad)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2 ** 20


# supports that start and end inside a 16-row block of nt = 40 (rows 4-19,
# 12-35 and 0-10), and one that reaches the ragged last block (rows 24-39)
RAGGED_PHIS = (TestFunction(0.0, 1.2, 0.3, 0.2), TestFunction(-0.4, 0.9, 0.6, 0.3),
               TestFunction(0.5, 1.0, 0.1, 0.17), TestFunction(0.2, 1.1, 0.79, 0.2))


@pytest.mark.parametrize("solution", ["tracked", "callable"])
def test_ragged_blocks_equal_the_whole_grid_residuals(solution):
    f0 = initial_fronts([-0.8, 0.3], [0, 6, 0], 0.1)  # fan then shock
    sol = TrackedSolution(Tracker(MODULATED, 0.1, (-3.5, 3.5)), f0)
    if solution == "callable":
        sol = sol.sample_u
    af = ApproxFlux(MODULATED, 0.07)
    quad = QuadSpec(-2.5, 2.5, 0.0, 1.0, nx=48, nt=40)
    ts = quad.t_mids()
    spans = [phi.block(quad.x_mids(), ts, quad.t_lo)[0] for phi in RAGGED_PHIS]
    assert [(r.start, r.stop) for r in spans] == [(4, 20), (12, 36), (0, 11), (24, 40)]
    pairs = [(k, phi) for k in (-0.2, 0.35, 0.9) for phi in RAGGED_PHIS]
    samples = _whole_grid_samples(sol, quad, af.eval)
    for (k, phi), (total, _) in zip(pairs, validation._residuals(sol, af.eval, af.eval_dx,
                                                                 quad, pairs)):
        assert total == _whole_grid_residual(samples, af.eval, af.eval_dx, k, phi, quad)


def _planted_f(af, row, col, bad):
    """af.eval with `bad` at grid row `row` (counted over the calls' rows in
    order, as both paths make them) and column `col`; row None plants it in
    the f(x, k) row instead."""
    seen = [0]

    def f(x, u):
        out = np.array(af.eval(x, u))
        if np.ndim(u) == 2:
            if row is not None and 0 <= row - seen[0] < len(out):
                out[row - seen[0], col] = bad
            seen[0] += len(out)
        elif row is None:
            out[col] = bad
        return out

    return f


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("plant", ["sampled_row", "f_inside", "f_outside", "f_k_inside",
                                   "f_k_outside"])
def test_non_finite_samples_give_the_whole_grid_residuals(plant, bad):
    # inside: row 20, column 24 lies in every pair's support; outside: row 37,
    # column 1 lies in none; the sampler plants its whole row 20
    f0 = initial_fronts([-0.8, 0.3], [0, 6, 0], 0.1)
    tracked = TrackedSolution(Tracker(MODULATED, 0.1, (-3.5, 3.5)), f0)
    af = ApproxFlux(MODULATED, 0.07)
    quad = QuadSpec(-2.5, 2.5, 0.0, 1.0, nx=48, nt=40)
    ts = quad.t_mids()
    phis = (TestFunction(0.0, 1.2, 0.5, 0.2), TestFunction(-0.2, 0.9, 0.45, 0.3))

    def sampler(x, t):
        u = tracked.sample_u(x, t)
        return np.full_like(u, bad) if plant == "sampled_row" and t == ts[20] else u

    row, col = (20, 24) if plant.endswith("inside") else (37, 1)

    def make_f():  # a fresh row count for each path
        if plant == "sampled_row":
            return af.eval
        return _planted_f(af, None if plant.startswith("f_k") else row, col, bad)

    for phi in phis:
        rows, cols, _, _ = phi.block(quad.x_mids(), ts, quad.t_lo)
        assert (rows.start <= 20 < rows.stop and cols.start <= 24 < cols.stop
                and not rows.start <= 37 < rows.stop and not cols.start <= 1 < cols.stop)
    pairs = [(k, phi) for k in (-0.2, 0.35) for phi in phis]
    with np.errstate(invalid="ignore"):
        got = validation._residuals(sampler, make_f(), af.eval_dx, quad, pairs)
        f = make_f()
        samples = _whole_grid_samples(sampler, quad, f)
        want = [_whole_grid_residual(samples, f, af.eval_dx, k, phi, quad) for k, phi in pairs]
    assert all(not np.isfinite(total) for total, _ in got)
    assert all(_same_residual(total, w) for (total, _), w in zip(got, want))


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------

def test_characteristics_homogeneous_exact():
    assert characteristic_check(BURGERS, 0.3, 1.0, 2.0, 100) == 0.0


def test_characteristics_stationary_point():
    assert characteristic_check(MODULATED, 0.7, 0.0, 1.0, 50) == 0.0


def test_characteristics_modulated_drift_small():
    drift = characteristic_check(MODULATED, 0.0, 1.0, 1.0, 10_000)
    assert drift <= 1e-10


def test_characteristics_fourth_order():
    coarse = characteristic_check(MODULATED, 0.0, 1.0, 1.0, 100)
    fine = characteristic_check(MODULATED, 0.0, 1.0, 1.0, 200)
    assert coarse > 1e-13  # truncation-dominated regime
    assert coarse / fine == pytest.approx(16.0, rel=0.3)


@pytest.mark.parametrize("flux", [BURGERS, MODULATED,
                                  make_builtin_flux("modulated_burgers", base=1.3, amp=-0.6,
                                                    freq=2.7, phase=-0.9)],
                         ids=["homogeneous", "modulated", "negative_amp_phase_freq"])
@pytest.mark.parametrize("x0, u0, steps", [(-0.78, 0.8, 10_000), (-0.78, 0.8, 100),
                                           (0.0, 1.0, 200), (1.1, -0.7, 300)])
def test_characteristics_on_floats_match_the_array_functions(flux, x0, u0, steps):
    # the point evaluator and the flux's own functions give the same drift, bit
    # for bit; the benchmark.ini integrations start at x0 = -0.78
    generic = replace(flux, point=None)
    assert characteristic_check(flux, x0, u0, 1.0, steps) == \
        characteristic_check(generic, x0, u0, 1.0, steps)


def test_characteristics_call_budget():
    calls = []

    def counted(name):
        real = getattr(MODULATED, name)
        return lambda x, u: calls.append(name) or real(x, u)

    # the copy keeps point on purpose: every call to f, fu or fx is counted
    flux = replace(MODULATED, **{name: counted(name) for name in ("f", "fu", "fx")})
    assert characteristic_check(flux, -0.78, 0.8, 1.0, 100) == \
        characteristic_check(MODULATED, -0.78, 0.8, 1.0, 100)
    assert calls == []
    # a derived point: f, f_u and f_x at each step's end, which is also the
    # next step's first stage, and at the other three stages
    characteristic_check(replace(flux, point=None), -0.78, 0.8, 1.0, 100)
    assert len(calls) == 3 * (101 + 3 * 100)


def test_characteristics_window_exit():
    # unit speed from y = 0: the characteristic reaches y = 1 at t = 1, not T = 2
    with pytest.raises(ValueError, match=r"t~1\.0"):
        characteristic_check(BURGERS, 0.0, 1.0, 2.0, 100, window=(-1, 1))


def test_delta_fan_converges_to_characteristic_fan():
    T = 1.0
    oracle = characteristic_fan(MODULATED, 0.5, 0.0, 0.4, T, n_chars=128, steps=4000)
    xs = np.linspace(-0.5, 3.0, 8001)
    errs = []
    for delta in (0.1, 0.05, 0.025):
        f0 = initial_fronts([0.5], [0, round(0.4 / delta)], delta)
        tr = Tracker(MODULATED, delta, (-2, 5), h_ode=0.005)
        f1, _ = tr.advance(f0, T)
        u_ft = sample_u(MODULATED, f1, xs)
        errs.append(float(np.sum(np.abs(u_ft - oracle(xs))) * (xs[1] - xs[0])))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] >= 1.4
    assert errs[2] <= 0.03


# ---------------------------------------------------------------------------
# finite-volume oracle
# ---------------------------------------------------------------------------

def test_fv_zero_stays_zero():
    fv = fv_reference(BURGERS, make_initial("zero"), (-2, 2), 128, 1.0)
    assert np.all(fv.u == 0.0)


def test_fv_shock_position():
    u0 = make_initial("step", left=1.0, right=0.0, pos=0.0)
    fv = fv_reference(BURGERS, u0, (-2, 2), 1000, 1.0)
    xs = fv.x_mids()
    jump = xs[np.argmax(np.abs(np.diff(fv.u)))]
    assert abs(jump - 0.5) <= 5 * fv.dx


def test_fv_rarefaction_l1_decreases_under_refinement():
    u0 = make_initial("step", left=0.0, right=1.0, pos=0.0)
    errs = []
    for cells in (250, 500, 1000):
        fv = fv_reference(BURGERS, u0, (-2, 2), cells, 1.0)
        xs = fv.x_mids()
        errs.append(float(np.sum(np.abs(fv.u - np.clip(xs, 0, 1))) * fv.dx))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.01


def test_fv_tvd_on_monotone_data():
    for left, right in ((1.0, 0.0), (0.0, 1.0), (0.8, -0.3)):
        u0 = make_initial("step", left=left, right=right, pos=0.0)
        fv0 = fv_reference(BURGERS, u0, (-2, 2), 400, 0.0)
        tv0 = float(np.sum(np.abs(np.diff(fv0.u))))
        fv = fv_reference(BURGERS, u0, (-2, 2), 400, 0.8)
        tv1 = float(np.sum(np.abs(np.diff(fv.u))))
        assert tv1 <= tv0 + 1e-12
        # monotone data stays monotone under a monotone scheme
        d = np.diff(fv.u)
        assert np.all(d <= 1e-12) or np.all(d >= -1e-12)


def test_fv_rejects_large_cfl():
    with pytest.raises(ValueError):
        fv_reference(BURGERS, make_initial("zero"), (-2, 2), 64, 1.0, cfl=0.6)


@pytest.mark.parametrize("build", [
    lambda u0: quantize_initial(BURGERS, u0, 0.1, (-2, 2), 64),
    lambda u0: fv_reference(BURGERS, u0, (-2, 2), 64, 1.0),
], ids=["quantize_initial", "fv_reference"])
def test_initial_data_of_the_wrong_shape_raises(build):
    # samplers are vectorized: one number for the whole grid is rejected
    with pytest.raises(ValueError, match="shape"):
        build(lambda x: 0.5)
    build(make_initial("expr", expr="0.5"))  # a constant expression has x's shape


def test_fv_modulated_mass_conserved_in_interior():
    # compact support and zero boundary flux: cell sums are conserved
    u0 = make_initial("bump", amp=0.6, center=0.0, width=1.0)
    fv0 = fv_reference(MODULATED, u0, (-4, 4), 800, 0.0)
    fv1 = fv_reference(MODULATED, u0, (-4, 4), 800, 1.0)
    assert np.sum(fv1.u) * fv1.dx == pytest.approx(np.sum(fv0.u) * fv0.dx, abs=1e-12)


# ---------------------------------------------------------------------------
# L1 metrics, domain of dependence
# ---------------------------------------------------------------------------

def test_l1_distance_examples():
    zero = lambda x: np.zeros_like(x)
    assert l1_distance(zero, zero, (-1, 1), 256) == 0.0
    a = initial_fronts([0.0], [5, 0], 0.1)
    b = initial_fronts([0.25], [5, 0], 0.1)
    sa = lambda x: sample_u(BURGERS, a, x)
    sb = lambda x: sample_u(BURGERS, b, x)
    assert l1_distance(sa, sb, (-2, 2), 4096) == pytest.approx(0.25, abs=2e-3)


def test_l1_u_fields_zero_iff_identical_levels():
    a = initial_fronts([0.0], [5, 0], 0.1)
    assert l1_u_fields(BURGERS, a, a, -2.0, 2.0) == 0.0


def test_l1_u_fields_of_two_shifted_shocks():
    # u = 1 against u = 0 on [0, 0.25]; every other piece has equal levels
    a = initial_fronts([0.0], [5, 0], 0.1)
    b = initial_fronts([0.25], [5, 0], 0.1)
    assert l1_u_fields(BURGERS, a, b, -2.0, 2.0) == pytest.approx(0.25, abs=1e-12)
    assert l1_u_fields(BURGERS, b, a, -2.0, 2.0) == pytest.approx(0.25, abs=1e-12)


def test_domain_of_dependence():
    u0 = make_initial("bump", amp=0.5, center=0.0, width=1.0)
    bump_out = make_initial("bump", amp=0.4, center=2.6, width=0.45)
    bump_in = make_initial("bump", amp=0.4, center=0.5, width=0.45)
    u0_out = lambda x: u0(x) + bump_out(x)
    u0_in = lambda x: u0(x) + bump_in(x)
    kw = dict(delta=0.05, window=(-4.2, 4.2), cells=420, T=0.5, R=1.0)
    # L = lipschitz(0.5*sqrt(3)) = 1.3: cone is [-1.65, 1.65]; the outside
    # perturbation lives on [2.15, 3.05]
    same = domain_of_dependence_check(MODULATED, u0, u0, **kw)
    assert same == 0.0
    outside = domain_of_dependence_check(MODULATED, u0, u0_out, **kw)
    assert outside <= 1e-9
    inside = domain_of_dependence_check(MODULATED, u0, u0_in, **kw)
    assert inside > 1e-3


# ---------------------------------------------------------------------------
# flux convergence bounds
# ---------------------------------------------------------------------------

def test_flux_convergence_bounds_hold():
    rows = flux_convergence_check(MODULATED, (0.1, 0.05, 0.02, 0.01),
                                  ((-4.0, 4.0), (-1.5, 1.5)))
    assert all(r.ok for r in rows)
    errs = [r.sup_f_err for r in rows]
    assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_flux_convergence_burgers_golden_bound():
    rows = flux_convergence_check(BURGERS, (0.02,), ((-2.0, 2.0), (-1.0, 1.0)))
    row = rows[0]
    # sqrt(0.04)*(1 + 1.02) + 0.02
    assert row.bound_f == pytest.approx(0.424, abs=1e-3)
    assert row.sup_f_err <= row.bound_f


def _draws(rng, n=3):
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def test_run_context_draws_from_its_checks_stream():
    assert _draws(_run_rng(-5, "entropy"), 9) == _draws(random.Random("-5 entropy"), 9)


def test_a_checks_stream_is_keyed_by_its_name(monkeypatch):
    entropy = _draws(_run_rng(20260810, "entropy"))
    assert entropy == [-0.3494141470095611, -0.8970726233024322, -0.2034475443668311]
    # a check's position in the registry moves none of its draws
    monkeypatch.setattr(validation, "CHECKS", dict(reversed(validation.CHECKS.items())))
    assert _draws(_run_rng(20260810, "entropy")) == entropy
    assert _draws(_run_rng(20260810, "lipschitz_l1")) != entropy
    assert _draws(_run_rng(20260811, "entropy")) != entropy


def _benchmark_context(seed):
    """A RunContext of benchmark.ini's solve: snapshots at 0, 0.5 and 1."""
    sol = _benchmark_solve()[0]
    fields = {t: sol.field_at(t) for t in (0.0, 0.5, 1.0)}
    cfg = SimpleNamespace(window=(-3.0, 3.0), delta=0.005, t_end=1.0, seed=seed)
    return validation.RunContext(config=cfg, flux=MODULATED, field0=fields[0.0], fields=fields,
                                 log=[], solution=sol, speed_bound=1.7, u_sup=0.87, u0_l1=1.0)


# the per-snapshot and per-pair loops that the stacked inversions replaced
def _looped_delta_grid(ctx):
    xs = np.linspace(*ctx.config.window, 257)
    worst = 0.0
    for f_ in ctx.fields.values():
        g = g_of(ctx.flux, xs, sample_u(ctx.flux, f_, xs))
        z = np.round(g / f_.delta)
        worst = max(worst, float(np.max(np.abs(g - z * f_.delta))))
    return worst


def _looped_tv_u(ctx):
    xs = np.linspace(*ctx.config.window, 1025)
    worst = 0.0
    for f_ in ctx.fields.values():
        worst = max(worst, float(np.sum(np.abs(np.diff(sample_u(ctx.flux, f_, xs))))))
    return worst


def _looped_inversion_bounds(ctx):
    rng = ctx.rng("inversion_bounds")
    lo, hi = ctx.config.window
    xs = np.linspace(lo, hi, 257)
    g_scale = max(ctx.config.delta, g_of(ctx.flux, 0.5 * (lo + hi), ctx.u_sup))
    worst = -np.inf
    for _ in range(50):
        g1 = float(rng.uniform(-g_scale, g_scale))
        g2 = float(rng.uniform(-g_scale, g_scale))
        u1, u2 = solve_level(ctx.flux, xs, np.array([[g1], [g2]]))
        gap = float(np.max(np.abs(u1 - u2)))
        worst = max(worst, gap - (inversion_gap_bound(g1, g2, ctx.flux.alpha) + 1e-11))
    return worst


@pytest.mark.parametrize("seed", [20260810, 7])
def test_stacked_run_checks_match_their_loops_in_fewer_inversions(monkeypatch, seed):
    import fronttrack.tracker as tracker_module
    ctx = _benchmark_context(seed)
    expected = {"closure.delta_grid": _looped_delta_grid(ctx),
                "inversion_bounds": _looped_inversion_bounds(ctx)}
    tv_u = _looped_tv_u(ctx)
    calls = []
    for module in (validation, tracker_module):  # sample_u inverts in tracker
        monkeypatch.setattr(module, "solve_level",
                            lambda *a, real=module.solve_level, **kw:
                            calls.append(1) or real(*a, **kw))
    # the loops make 3 and 50 calls; the 100 levels of the 50 pairs go
    # SAMPLE_BLOCK_ROWS = 16 to a call
    for check, n_calls in ((validation._check_tvd, 1), (validation._check_inversion_bounds, 7)):
        report = ValidationReport()
        check(ctx, report)
        assert len(calls) == n_calls
        calls.clear()
        record = report.checks[-1]
        assert record.measured.hex() == expected[record.name].hex()
        assert record.passed
    assert validation._tv_u_estimate(ctx).hex() == tv_u.hex()
    assert len(calls) == 1  # the loop makes 3
    assert 0.0 < tv_u < 2.0 and expected["inversion_bounds"] < 0.0


def test_validation_report_aggregates():
    rep = ValidationReport()
    rep.add("a", 0.5, 1.0, True, note="x")
    rep.add("b", 2.0, 1.0, False)
    assert not rep.passed
    d = rep.to_dict()
    assert d["passed"] is False
    assert len(d["checks"]) == 2
