"""Implicit time stepping: oracles, certificates, energy bookkeeping."""

import numpy as np
import pytest

from ferrosolve import (AssembledSystem, BallIndicator, Grid,
                        LoadSchedule, LogSaturationRadial, PowerLaw,
                        Quadratic, StepSolveFailure, SteppedProblem, TimeGrid,
                        average_loads, interpolant_gap, make_tensors)
from ferrosolve.potentials import full_prox, full_value
from ferrosolve.rothe import AA_MEMORY, AndersonHistory


def _single_cell_problem(f_spec, g_spec, level=3, hardening=0.2, coupling=0.6):
    grid = Grid(1, 1)
    t = make_tensors(1, 1.0, 1.0, coupling=coupling, hardening=hardening)
    sys_ = AssembledSystem(grid, t)
    return grid, sys_, SteppedProblem(sys_, f_spec, g_spec, level, T=1.0)


def test_time_grid_dyadic():
    tg = TimeGrid(T=2.0, level=3)
    assert tg.n_steps == 8
    assert tg.h == pytest.approx(0.25)
    assert np.allclose(tg.times, np.linspace(0, 2, 9))


def _pw_linear_interp(ts, vs, t):
    """The piecewise-linear interpolant of samples (ts, vs) at one time t."""
    t = float(np.clip(t, ts[0], ts[-1]))
    i = int(np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2))
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1.0 - w) * vs[i] + w * vs[i + 1]


def _pw_linear_average(ts, vs, a, b):
    """Exact average of the piecewise-linear interpolant over [a, b]: the
    trapezoids between a, the sample times inside and b, added in order."""
    inner = ts[(ts > a) & (ts < b)]
    pts = np.concatenate([[a], inner, [b]])
    vals = np.stack([_pw_linear_interp(ts, vs, t) for t in pts])
    dt = np.diff(pts)
    shape = (-1,) + (1,) * (vals.ndim - 1)
    integral = np.sum(0.5 * (vals[:-1] + vals[1:]) * dt.reshape(shape), axis=0)
    return integral / (b - a)


def _step_averages(schedule, tg):
    return np.stack([_pw_linear_average(schedule.times, schedule.rows,
                                        (n - 1) * tg.h, n * tg.h)
                     for n in range(1, tg.n_steps + 1)])


def test_pw_linear_average_exact():
    ts = np.array([0.0, 0.5, 1.0])
    vs = np.array([0.0, 1.0, 0.0])
    # average of the tent function over [0.25, 0.75], its peak inside
    assert _pw_linear_average(ts, vs, 0.25, 0.75) == pytest.approx(0.75)
    # and over a piece inside one segment
    assert _pw_linear_average(ts, vs, 0.0, 0.25) == pytest.approx(0.25)
    sched = LoadSchedule(ts, vs[:, None], vs)
    # over the quarters of [0, 1], and over all of it: the peak inside the step
    for level, expected in ((2, [0.25, 0.75, 0.75, 0.25]), (0, [0.5])):
        tg = TimeGrid(T=1.0, level=level)
        assert np.allclose(sched.step_averages(tg), np.array(expected)[:, None],
                           atol=1e-15)
        assert np.allclose(_step_averages(sched, tg), np.array(expected)[:, None],
                           atol=1e-15)
    # a tent peaking at 0.3, inside the first half of [0, 1]
    vs = np.array([0.0, 1.0, 0.0])
    sched = LoadSchedule(np.array([0.0, 0.3, 1.0]), vs[:, None], vs)
    tg = TimeGrid(T=1.0, level=1)
    expected = np.array([9.0 / 14.0, 5.0 / 14.0])[:, None]
    assert np.allclose(sched.step_averages(tg), expected, atol=1e-15)
    assert np.allclose(_step_averages(sched, tg), expected, atol=1e-15)


def _schedules():
    """Load tables against time grids: samples on step ends, past T, before
    t = 0 or only after it, up to 60 per step, signed zeros in the rows."""
    rng = np.random.default_rng(12)
    for k in range(60):
        tg = TimeGrid(T=float(rng.choice([1.0, 0.3, 2.5])), level=int(rng.integers(0, 6)))
        kind = k % 4
        if kind == 0:
            ts = tg.times[rng.random(tg.n_steps + 1) < 0.5]
        elif kind == 1:
            ts = rng.uniform(0.0, tg.T, int(rng.integers(1, 60 * tg.n_steps)))
        elif kind == 2:
            ts = rng.uniform(-0.5 * tg.T, 2.0 * tg.T, int(rng.integers(2, 30)))
        else:
            ts = np.concatenate([tg.times[:3], rng.uniform(0.0, tg.T, 5)])
        if kind != 2:             # kind 2 may start before or after t = 0
            ts = np.concatenate([ts, [0.0]])
        ts = np.unique(np.concatenate([ts, [tg.T]]))
        rows = rng.standard_normal((len(ts), int(rng.integers(2, 5))))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[rng.random(rows.shape) < 0.3] = -0.0
        if kind == 3:
            rows[:, 0] = -0.0             # each average is a signed zero
        yield LoadSchedule(ts, rows[:, :-1], rows[:, -1]), tg


def test_step_averages_match_per_step_loop_bit_for_bit():
    """All steps at once add the same trapezoids in the same order as one
    average per step, so the bits agree, the sign of zero included."""
    for sched, tg in _schedules():
        got, ref = sched.step_averages(tg), _step_averages(sched, tg)
        assert got.shape == ref.shape == (tg.n_steps, sched.rows.shape[1])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_average_loads_linear_in_loads():
    grid = Grid(1, 4)
    t = make_tensors(1, 1.0, 1.0, coupling=0.3)
    sys_ = AssembledSystem(grid, t)
    tg = TimeGrid(T=1.0, level=2)
    s1 = LoadSchedule([0.0, 1.0], [[0.0], [2.0]], [0.0, 1.0])
    s2 = LoadSchedule([0.0, 1.0], [[0.0], [4.0]], [0.0, 2.0])
    z1 = average_loads(sys_, s1, tg)
    z2 = average_loads(sys_, s2, tg)
    assert np.allclose(z2, 2.0 * z1, atol=1e-12)
    # exact step averages of a linear ramp: values at step midpoints
    rows = s1.step_averages(tg)
    mids = (np.arange(4) + 0.5) * tg.h
    assert np.allclose(rows[:, 0], 2.0 * mids, atol=1e-14)
    assert np.allclose(rows[:, 1], mids, atol=1e-14)


def test_load_schedule_needs_two_samples():
    """One sample has no segment to interpolate on (it gave nan loads)."""
    grid = Grid(1, 2)
    with pytest.raises(ValueError, match="at least two load samples"):
        LoadSchedule([0.0], [[1.0]], [0.5])
    sched = LoadSchedule([0.0, 1.0], [[1.0], [1.0]], [0.5, 0.5])
    b, q = sched.at(0.0)
    assert np.all(b == 1.0) and np.all(q == 0.5)
    # the loads are rows: per-cell tables or a q of another length are refused
    with pytest.raises(ValueError, match="one load row per sample time"):
        LoadSchedule([0.0, 1.0], np.ones((2, grid.n_cells, 1)), [0.5, 0.5])
    with pytest.raises(ValueError, match="one load row per sample time"):
        LoadSchedule([0.0, 1.0], [[1.0], [1.0]], [0.5, 0.5, 0.5])


def test_average_loads_matches_per_step_solves():
    """The unit-trace map against one solve per step of that step's averaged
    loads given per cell, on a table whose sample times lie inside steps."""
    grid = Grid(2, 3)
    coupling = np.array([[0.3, 0.0, 0.0], [0.0, 0.3, 0.0]])
    sys_ = AssembledSystem(grid, make_tensors(2, ("isotropic", 1.0, 1.0), 1.0,
                                              coupling=coupling, hardening=0.1))
    tg = TimeGrid(T=1.0, level=3)
    times = np.array([0.0, 0.3, 1.0])
    b_rows = np.array([[0.0, 0.0], [1.5, -0.8], [-0.5, 0.6]])
    q_rows = np.array([0.0, 0.9, -0.3])
    b_cells = np.repeat(b_rows[:, None, :], grid.n_cells, axis=1)
    q_cells = np.repeat(q_rows[:, None], grid.n_cells, axis=1)
    oracle = np.stack([
        sys_.load_trace(_pw_linear_average(times, b_cells, (n - 1) * tg.h, n * tg.h),
                        _pw_linear_average(times, q_cells, (n - 1) * tg.h, n * tg.h))
        for n in range(1, tg.n_steps + 1)])
    zhat = average_loads(sys_, LoadSchedule(times, b_rows, q_rows), tg)
    assert zhat.shape == oracle.shape
    assert np.abs(zhat - oracle).max() <= 1e-14 * np.abs(oracle).max()


# ---------------------------------------------------------------------------
# oracle (a): quadratic f + p=2 power law g has a closed-form linear step


def test_step_matches_closed_form_linear_oracle():
    c_g = 0.8
    H = np.diag([0.5, 1.5])
    f_spec = Quadratic(H)
    g_spec = PowerLaw(c_g, 2.0)
    grid, sys_, prob = _single_cell_problem(f_spec, g_spec)
    h = prob.h
    z_prev = np.array([[0.1, -0.3]])
    zhat = np.array([[0.7, 0.4]])

    z, Sigma, cert, _ = prob.step(z_prev, zhat, step_tol=1e-14, fp_tol=1e-13)

    # optimality: (v - z_prev)/(2 c h) + (M_m + H) v = zhat + z_prev/(2 c h)
    Mm = sys_.assemble_M_matrix() + prob.L + prob.reg * np.eye(2)
    A = np.eye(2) / (2 * c_g * h) + Mm + H
    v_ref = np.linalg.solve(A, zhat[0] + z_prev[0] / (2 * c_g * h))
    assert np.abs(z[0] - v_ref).max() <= 1e-9
    assert cert.residual <= 1e-14


# ---------------------------------------------------------------------------
# oracle (b): indicator g + log-saturation f vs brute-force grid search


def test_step_matches_grid_search_oracle():
    f_spec = LogSaturationRadial(1.0)
    g_spec = BallIndicator(0.5)
    grid, sys_, prob = _single_cell_problem(f_spec, g_spec, level=2)
    h = prob.h
    z_prev = np.array([[0.05, 0.1]])
    zhat = np.array([[0.9, 0.8]])
    z, Sigma, cert, _ = prob.step(z_prev, zhat, step_tol=1e-12, fp_tol=1e-12)

    # brute force on a 400 x 400 lattice over (r, P)
    Mm = sys_.assemble_M_matrix() + prob.L + prob.reg * np.eye(2)
    r_grid = np.linspace(-1.0, 1.0, 400)
    P_grid = np.linspace(-0.999, 0.999, 400)
    R, P = np.meshgrid(r_grid, P_grid, indexing="ij")
    V = np.stack([R.ravel(), P.ravel()], axis=-1)
    rate = (V - z_prev[0]) / h
    obj = (h * g_spec.conjugate_value(rate)
           + 0.5 * np.sum((V @ Mm.T) * V, axis=-1)
           + full_value(f_spec, V)
           - V @ zhat[0])
    best = V[np.argmin(np.where(np.isfinite(obj), obj, np.inf))]
    spacing = max(r_grid[1] - r_grid[0], P_grid[1] - P_grid[0])
    assert np.abs(z[0] - best).max() <= spacing


# ---------------------------------------------------------------------------
# uniqueness, certificates, energy


def _reference_run(level=4, g_spec=None, f_spec=None, hardening=0.2,
                   step_tol=1e-9, fp_tol=1e-11):
    grid = Grid(1, 16)
    t = make_tensors(1, 2.0, 1.0, coupling=0.5, hardening=hardening)
    sys_ = AssembledSystem(grid, t)
    f_spec = f_spec or Quadratic(np.eye(grid.internal_dim))
    g_spec = g_spec or PowerLaw(1.0, 2.0)
    prob = SteppedProblem(sys_, f_spec, g_spec, level, T=1.0)
    sched = LoadSchedule([0.0, 1.0], [[0.0], [0.8]], [0.0, 0.4])
    zhat = average_loads(sys_, sched, prob.time_grid)
    z0 = np.zeros((grid.n_cells, grid.internal_dim))
    traj, ledger = prob.run(z0, zhat, step_tol=step_tol, fp_tol=fp_tol)
    return grid, prob, zhat, traj, ledger


def test_step_uniqueness_random_restarts():
    grid, prob, zhat, traj, _ = _reference_run(level=3)
    rng = np.random.default_rng(77)
    n = 4  # restart a mid-trajectory step
    z_prev = traj.z_nodes[n]
    z_ref = traj.z_nodes[n + 1]
    for _ in range(5):
        y0 = z_prev + 0.5 * rng.standard_normal(z_prev.shape)
        z, _, _, _ = prob.step(z_prev, zhat[n], step_tol=1e-10, fp_tol=1e-12, y0=y0)
        assert np.abs(z - z_ref).max() <= 1e-7


def test_certificates_below_tolerance():
    _, _, _, traj, _ = _reference_run(level=4, step_tol=1e-8)
    assert all(c.residual <= 1e-8 for c in traj.certificates)


def test_energy_slack_nonnegative_rate_dependent():
    # L = 0, coercive quadratic f (the unregularized regime)
    _, _, _, traj, ledger = _reference_run(hardening=None, step_tol=1e-10)
    assert ledger.slack().min() >= -1e-8


def test_energy_slack_and_constraint_rate_independent():
    g = BallIndicator(0.4)
    _, prob, zhat, traj, ledger = _reference_run(
        level=4, g_spec=g, hardening=0.3, step_tol=1e-10, fp_tol=1e-12)
    assert ledger.slack().min() >= -1e-8
    # driving force stays in K (constraint violation within certificate budget)
    for cert in traj.certificates:
        assert cert.constraint_violation <= 1e-8


def test_dissipation_nonnegative():
    for hardening in (None, 0.3):
        _, _, _, _, ledger = _reference_run(hardening=hardening, step_tol=1e-10)
        assert ledger.dissipation.min() >= -1e-10


def test_interpolant_gap_identity():
    grid, prob, zhat, traj, _ = _reference_run(level=4)
    lhs, rhs = interpolant_gap(traj, grid.volumes, p_star=2.0)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _z_affine(traj, t):
    """The piecewise-affine interpolant of the Rothe nodes at time t."""
    h = traj.time_grid.h
    n = int(np.clip(np.ceil(t / h - 1e-12), 1, traj.time_grid.n_steps))
    w = t / h - (n - 1)
    return (1.0 - w) * traj.z_nodes[n - 1] + w * traj.z_nodes[n]


@pytest.mark.parametrize("p_star", [2.0, 1.5])
def test_interpolant_gap_lhs_matches_time_quadrature(p_star):
    """The left side of interpolant_gap against a composite midpoint rule in
    time over the space integral of |z_affine - z_const|^{p*}, sampled
    strictly inside the steps, where both interpolants are smooth."""
    grid, _, _, traj, _ = _reference_run(level=4)
    per_step = 400
    dt = traj.time_grid.h / per_step
    ts = (np.arange(traj.time_grid.n_steps * per_step) + 0.5) * dt
    space = [np.sum(grid.volumes * np.sqrt(np.sum(
        (_z_affine(traj, t) - traj.z_const(t)) ** 2, axis=-1)) ** p_star) for t in ts]
    lhs, _ = interpolant_gap(traj, grid.volumes, p_star=p_star)
    assert lhs > 0.0
    assert lhs == pytest.approx(np.sum(space) * dt, rel=1e-5)


def test_zero_scenario_stays_zero():
    grid = Grid(1, 8)
    t = make_tensors(1, 1.0, 1.0, coupling=0.2, hardening=0.1)
    sys_ = AssembledSystem(grid, t)
    prob = SteppedProblem(sys_, Quadratic(np.eye(2)), PowerLaw(1.0, 2.0), 3, T=1.0)
    zhat = np.zeros((prob.time_grid.n_steps, grid.n_cells, 2))
    traj, ledger = prob.run(np.zeros((grid.n_cells, 2)), zhat)
    assert np.abs(traj.z_nodes).max() == 0.0
    assert np.abs(ledger.slack()).max() == 0.0
    assert np.abs(ledger.dissipation).max() == 0.0


def test_discrete_chain_rule_quadratic_f():
    """Convexity inequality: I_f(z^n) - I_f(z^{n-1}) <= <grad f(z^n), dz>."""
    grid, prob, zhat, traj, _ = _reference_run(level=4)
    H = np.eye(grid.internal_dim)
    vol = grid.volumes
    for n in range(traj.time_grid.n_steps):
        za, zb = traj.z_nodes[n], traj.z_nodes[n + 1]
        If_a = 0.5 * np.sum(vol[:, None] * (za @ H) * za)
        If_b = 0.5 * np.sum(vol[:, None] * (zb @ H) * zb)
        pairing = np.sum(vol[:, None] * (zb @ H) * (zb - za))
        assert If_b - If_a <= pairing + 1e-12


@pytest.mark.parametrize("dim,n", [(1, 6), (2, 3), (3, 2)])
def test_lam_max_bounds_dense_spectrum(dim, n):
    """The closed-form step-size bound is at least the largest eigenvalue of
    M_m, computed from the dense oracle in the volume-weighted inner product,
    so the step gamma = 1.8 / bound meets Davis-Yin's gamma < 2 / lambda_max."""
    rng = np.random.default_rng(40 + dim)
    s = dim * (dim + 1) // 2
    t = make_tensors(dim, ("isotropic", 1.0, 1.2),
                     np.diag(rng.uniform(0.8, 1.5, dim)),
                     coupling=0.4 * rng.standard_normal((dim, s)),
                     hardening=np.diag(rng.uniform(0.0, 0.5, s + dim)))
    grid = Grid(dim, n)
    sys_ = AssembledSystem(grid, t)
    prob = SteppedProblem(sys_, Quadratic(np.eye(grid.internal_dim)),
                          PowerLaw(1.0, 2.0), 3, T=1.0)
    k = grid.internal_dim
    Mm = (sys_.assemble_M_matrix() + np.kron(np.eye(grid.n_cells), t.L_hard)
          + prob.reg * np.eye(grid.n_cells * k))
    w = np.sqrt(np.repeat(grid.volumes, k))
    S = w[:, None] * Mm / w[None, :]
    top = np.linalg.eigvalsh(0.5 * (S + S.T)).max()
    assert prob.lam_max >= top * (1.0 - 1e-12)
    assert prob.gamma == pytest.approx(1.8 / prob.lam_max)
    assert prob.gamma * top < 2.0


def test_non_finite_step_fails_fast():
    """A NaN load fails the step at its first check, not after max_iter."""
    grid = Grid(1, 4)
    t = make_tensors(1, 1.0, 1.0, coupling=0.5, hardening=0.1)
    sys_ = AssembledSystem(grid, t)
    prob = SteppedProblem(sys_, Quadratic(np.eye(2)), PowerLaw(1.0, 2.0), 2, T=1.0)
    calls = []
    apply_M = prob.apply_M
    prob.apply_M = lambda z: calls.append(1) or apply_M(z)
    zhat = np.full((grid.n_cells, 2), np.nan)
    with pytest.raises(StepSolveFailure):
        prob.step(np.zeros((grid.n_cells, 2)), zhat, max_iter=100000)
    assert len(calls) <= 1


@pytest.mark.parametrize("max_iter", [0, -1])
def test_iteration_budget_below_one_rejected(max_iter):
    grid, prob, zhat, calls = _counted_unattainable_problem()
    z0 = np.zeros((grid.n_cells, 2))
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        prob.step(z0, zhat[0], max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        prob.run(z0, zhat, max_iter=max_iter)
    assert calls == []


@pytest.mark.parametrize("g_spec", [PowerLaw(1.0, 2.0), PowerLaw(1.0, 3.0),
                                    BallIndicator(0.1), BallIndicator(0.05)],
                         ids=["power_p2", "power_p3", "ball_0.1", "ball_0.05"])
def test_step_stops_at_first_certified_iterate(g_spec):
    """No iterate before the accepted one had both a converged gap and a
    certificate within step_tol: the same step with one iteration less
    fails.  And M is applied once per iteration plus once to z0, the
    accepted iterate's M z being reused for its node (that it is the same
    M z is checked against the per-step oracle below)."""
    grid, prob, zhat, _, _ = _reference_run(level=3, g_spec=g_spec)
    calls = []
    apply_M = prob.apply_M
    prob.apply_M = lambda z: calls.append(1) or apply_M(z)
    traj, _ = prob.run(np.zeros((grid.n_cells, grid.internal_dim)), zhat,
                       step_tol=1e-9, fp_tol=1e-11)
    iterations = [c.iterations for c in traj.certificates]
    assert len(calls) == 1 + sum(iterations)
    for n, k in enumerate(iterations):
        if k == 1:
            continue
        with pytest.raises(StepSolveFailure):
            prob.step(traj.z_nodes[n], zhat[n], step_tol=1e-9, fp_tol=1e-11,
                      max_iter=k - 1)


def test_unattainable_tolerance_raises():
    grid = Grid(1, 4)
    t = make_tensors(1, 1.0, 1.0, coupling=0.5, hardening=0.1)
    sys_ = AssembledSystem(grid, t)
    prob = SteppedProblem(sys_, Quadratic(np.eye(2)), PowerLaw(1.0, 2.0), 2, T=1.0)
    sched = LoadSchedule([0.0, 1.0], [[1.0], [1.0]], [0.5, 0.5])
    zhat = average_loads(sys_, sched, prob.time_grid)
    with pytest.raises(StepSolveFailure):
        prob.run(np.zeros((grid.n_cells, 2)), zhat, step_tol=0.0,
                 fp_tol=0.0, max_iter=50)


def _counted_unattainable_problem():
    grid = Grid(1, 4)
    t = make_tensors(1, 1.0, 1.0, coupling=0.5, hardening=0.1)
    sys_ = AssembledSystem(grid, t)
    prob = SteppedProblem(sys_, Quadratic(np.eye(2)), PowerLaw(1.0, 2.0), 2, T=1.0)
    sched = LoadSchedule([0.0, 1.0], [[1e4], [1e4]], [5e3, 5e3])
    zhat = average_loads(sys_, sched, prob.time_grid)
    calls = []
    apply_M = prob.apply_M
    prob.apply_M = lambda z: calls.append(1) or apply_M(z)
    return grid, prob, zhat, calls


def test_stalled_step_fails_fast_with_lowest_certificate():
    """A converged fixed point whose certificate stalls above step_tol fails
    early, naming the lowest certificate that the failing step's checks
    reached."""
    grid, prob, zhat, calls = _counted_unattainable_problem()
    checks = []          # the certificates of each step's checks
    step, residual_parts = prob.step, prob.residual_parts

    def recorded_step(*args, **kwargs):
        checks.append([])
        return step(*args, **kwargs)

    def recorded_parts(*args):
        parts = residual_parts(*args)
        checks[-1].append(parts[1])
        return parts

    prob.step, prob.residual_parts = recorded_step, recorded_parts
    z0 = np.zeros((grid.n_cells, 2))
    with pytest.raises(StepSolveFailure) as info:
        prob.run(z0, zhat, step_tol=1e-20, max_iter=100000)
    exc = info.value
    assert exc.step_index == len(checks)
    assert exc.certificate > 1e-20 and exc.fixed_point_gap <= 1e-10
    assert exc.lowest_certificate == min(checks[-1]) <= exc.certificate
    assert f"lowest certificate {exc.lowest_certificate:.3e}" in str(exc)
    assert len(calls) <= 2000


def test_stall_rule_waits_for_the_fixed_point():
    """While the fixed-point gap is above fp_tol the full budget is spent."""
    grid, prob, zhat, calls = _counted_unattainable_problem()
    with pytest.raises(StepSolveFailure):
        prob.step(np.zeros((grid.n_cells, 2)), zhat[0], step_tol=1e-20,
                  fp_tol=0.0, max_iter=1500)
    assert len(calls) == 1500


def test_affine_and_constant_interpolants():
    _, _, _, traj, _ = _reference_run(level=3)
    h = traj.time_grid.h
    # affine interpolant hits the nodes and is linear inside each step
    assert np.allclose(_z_affine(traj, 2 * h), traj.z_nodes[2])
    mid = _z_affine(traj, 1.5 * h)
    assert np.allclose(mid, 0.5 * (traj.z_nodes[1] + traj.z_nodes[2]))
    # piecewise-constant interpolant jumps to the right endpoint
    assert np.allclose(traj.z_const(1.5 * h), traj.z_nodes[2])
    assert np.allclose(traj.z_const(0.0), traj.z_nodes[0])


# ---------------------------------------------------------------------------
# Independent oracle for the trajectory and its energy ledger: the march that
# run() carried before, warm-starting each step from the previous node and
# adding the ledger terms one step at a time.


def _oracle_run(prob, z0, zhat, step_tol, fp_tol):
    vol, g = prob.vol, prob.g

    def dot(a, b):
        return float(np.sum(vol[:, None] * a * b))

    def p_norm(a, p):
        mag = np.sqrt(np.sum(a * a, axis=-1))
        return float(np.sum(vol * mag ** p) ** (1.0 / p))

    def quad(z, Mz):
        MLz = Mz + z @ prob.L.T
        return 0.5 * dot(MLz, z) + 0.5 * prob.reg * dot(z, z)

    def I_f(z):
        return float(np.sum(vol * full_value(prob.f, z)))

    nodes, sigma_E = [z0], []
    terms = {key: [] for key in ("dissipation", "Ig_star_rate", "Ig_Sigma",
                                 "rate_norm", "zhat_norm")}
    terms["quad_energy"] = [quad(z0, prob.apply_M(z0))]
    terms["If_energy"] = [I_f(z0)]
    y_warm = None
    for n in range(prob.time_grid.n_steps):
        z, Sigma, _, _ = prob.step(nodes[-1], zhat[n], step_tol=step_tol,
                                   fp_tol=fp_tol, y0=y_warm)
        Mz = prob.apply_M(z)
        sigma_E.append(-Mz + zhat[n])
        y_warm = z.copy()
        rate = (z - nodes[-1]) / prob.h
        nodes.append(z)
        terms["dissipation"].append(dot(rate, Sigma))
        terms["Ig_star_rate"].append(float(np.sum(vol * g.conjugate_value(rate))))
        terms["Ig_Sigma"].append(float(np.sum(vol * g.value(g.project(Sigma)))))
        terms["rate_norm"].append(p_norm(rate, g.p_star))
        terms["zhat_norm"].append(p_norm(zhat[n], g.p))
        terms["quad_energy"].append(quad(z, Mz))
        terms["If_energy"].append(I_f(z))
    return np.stack(nodes), np.stack(sigma_E), {k: np.asarray(v) for k, v in terms.items()}


def _oracle_case(dim, g_spec):
    """A level-3 run on 8 cells: a quadratic f in 1-D, the polarization-only
    radial log-saturation f in 2-D, both from a non-zero initial state."""
    grid = Grid(dim, 8 if dim == 1 else 2)
    s = grid.strain_dim
    if dim == 1:
        t = make_tensors(1, 2.0, 1.0, coupling=0.5, hardening=0.3)
        f_spec = Quadratic(np.diag([1.0, 2.0]))
        sched = LoadSchedule([0.0, 0.5, 1.0], [[0.0], [1.2], [-0.4]],
                             [0.0, 0.6, 0.1])
    else:
        t = make_tensors(2, ("isotropic", 1.0, 1.0), 1.0,
                         coupling=0.3 * np.eye(2, s), hardening=0.2)
        f_spec = LogSaturationRadial(1.0)
        sched = LoadSchedule([0.0, 0.5, 1.0],
                             [[0.0, 0.0], [1.5, -0.8], [-0.5, 0.6]],
                             [0.0, 0.9, -0.3])
    sys_ = AssembledSystem(grid, t)
    prob = SteppedProblem(sys_, f_spec, g_spec, 3, T=1.0)
    zhat = average_loads(sys_, sched, prob.time_grid)
    rng = np.random.default_rng(dim)
    z0 = 0.05 * rng.uniform(-1.0, 1.0, (grid.n_cells, grid.internal_dim))
    return prob, z0, zhat


_G_SPECS = [PowerLaw(1.0, 2.0), PowerLaw(0.7, 3.0), BallIndicator(0.05)]
_G_IDS = ["power_p2", "power_p3", "ball"]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("g_spec", _G_SPECS, ids=_G_IDS)
def test_run_and_ledger_match_per_step_oracle(dim, g_spec):
    prob, z0, zhat = _oracle_case(dim, g_spec)
    traj, ledger = prob.run(z0, zhat, step_tol=1e-9, fp_tol=1e-11)
    nodes, sigma_E, terms = _oracle_run(prob, z0, zhat, 1e-9, 1e-11)
    assert np.array_equal(traj.z_nodes, nodes)
    assert np.array_equal(traj.sigma_E, sigma_E)
    for key, want in terms.items():
        assert np.array_equal(getattr(ledger, key), want), key
    assert ledger.h == prob.h
    if isinstance(g_spec, BallIndicator):
        # the projection onto the ball is active on some step
        assert any(c.constraint_violation > 0.0 for c in traj.certificates)


# ---------------------------------------------------------------------------
# Independent oracle for the accelerated step: the plain Davis-Yin iteration
# at the conservative step 0.9 / bound, on the dense M_m, run to a fixed-point
# gap of 1e-13.


def _plain_davis_yin(prob, z_prev, zhat, fp_tol=1e-13, max_iter=200000):
    grid = prob.system.grid
    Mm = (prob.system.assemble_M_matrix()
          + np.kron(np.eye(grid.n_cells), prob.L) + prob.reg * np.eye(z_prev.size))
    gam, h = 0.9 / prob.lam_max, prob.h
    y = z_prev.copy()
    for _ in range(max_iter):
        xB = full_prox(prob.f, gam, y)
        grad = (Mm @ xB.ravel()).reshape(xB.shape) - zhat
        u = prob.g.conjugate_prox(gam / h, (2.0 * xB - y - gam * grad - z_prev) / h)
        delta = z_prev + h * u - xB
        y += delta
        if np.abs(delta).max() <= fp_tol:
            return full_prox(prob.f, gam, y)
    raise AssertionError("the plain Davis-Yin oracle did not converge")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("g_spec", _G_SPECS, ids=_G_IDS)
def test_accelerated_step_matches_plain_davis_yin(dim, g_spec):
    prob, z0, zhat = _oracle_case(dim, g_spec)
    traj, _ = prob.run(z0, zhat, step_tol=1e-11, fp_tol=1e-12)
    for n in range(prob.time_grid.n_steps):
        want = _plain_davis_yin(prob, traj.z_nodes[n], zhat[n])
        assert np.abs(traj.z_nodes[n + 1] - want).max() <= 1e-9, n


def test_anderson_gram_matches_ring_buffer():
    """After more pushes than the memory holds (so the ring buffer wraps),
    the Gram matrix updated one row and column at a time equals dR dR^T
    recomputed from the buffer, and the move uses the least-squares
    coefficients of the residual on dR."""
    rng = np.random.default_rng(5)
    n = 40
    hist = AndersonHistory(n)
    for pushes in range(1, 2 * AA_MEMORY + 2):
        hist.push(rng.standard_normal(n), rng.standard_normal(n))
        m = min(pushes, AA_MEMORY)
        assert hist.filled == m
        dR = hist.dR[:m]
        assert np.allclose(hist.gram[:m, :m], dR @ dR.T, rtol=1e-13, atol=1e-12)
    assert np.allclose(hist.gram, hist.dR @ hist.dR.T, rtol=1e-13, atol=1e-12)
    r = rng.standard_normal(n)
    alpha = np.linalg.lstsq(hist.dR.T, r, rcond=None)[0]
    want = r - (hist.dY + hist.dR).T @ alpha
    assert np.allclose(hist.extrapolate(r), want, rtol=1e-8, atol=1e-10)
    hist.reset()
    assert hist.filled == 0 and np.array_equal(hist.extrapolate(r), r)
